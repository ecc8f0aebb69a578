//! Pass 5: the ledger-conservation verifier.
//!
//! The byte/message ledger is the workspace's observability backbone: the
//! smoke gates, the bench baselines, and `parity_digest()` all pin its
//! values, so an uncharged (or double-charged) send is a silent
//! correctness bug. This pass checks the charging discipline statically,
//! over the [`crate::ast`] model:
//!
//! * **`ledger-field-symmetry`** — a function that charges a byte
//!   counter charges its wire twin and message counter in the same body
//!   (`sent_bytes` ⇒ `wire_sent_bytes` + `sent_messages`; `recv_bytes` ⇒
//!   `wire_recv_bytes` + `recv_messages`). Every frame ships raw, so the
//!   twins always equal the byte counters; a charge site that skipped
//!   one would break that equality.
//! * **`ledger-charge-before-transport`** — a function that hands a
//!   payload to `transport.send` has already charged `sent_bytes` at an
//!   earlier byte offset: a send that fails mid-transport must still
//!   appear in the sent counters (the panicking path dies before the
//!   ledger could be read otherwise).
//! * **`ledger-charge-on-delivery`** — a function that *delivers* a
//!   message (calls the blocking `transport.recv_any`) calls
//!   `charge_recv` in the same body. Poll paths (`try_recv_any`) only
//!   buffer and are exempt — charging there would double-count; this is
//!   the charge-on-delivery discipline stated in `ctx.rs`.
//! * **`phase-scoped-comm`** — every `ctx.…` communication call site in
//!   `sar-core` and `sar-serve` sits in a function that opens a
//!   `phase_scope` (or inspects `current_phase`), so every byte is
//!   attributed to a ledger phase. A helper whose callers open the scope
//!   is waived with `allow(phase-scope)` above its `fn`; this pass owns
//!   those waivers and reports any that suppress nothing
//!   (`unused-waiver`).

use crate::ast::{closing, line_of, next_nonspace, tokens, Workspace};
use crate::lint::Waivers;
use crate::{Finding, PassReport};

/// The comm-context methods whose call sites are phase-audited.
const CTX_COMM_CALLS: &[&str] = &["try_send", "try_recv", "send", "recv"];

/// The waiver name of the `phase-scoped-comm` rule.
pub(crate) const PHASE_SCOPE: &str = "phase-scope";

/// Byte offset of the first `field … +=` charge in `body` — the exact
/// token `field`, optionally indexed (`field[dst]`), followed by `+=`.
fn charge_offset(body: &str, field: &str) -> Option<usize> {
    let charged = |end: usize| {
        let mut j = end;
        // Skip one `[…]` index.
        if let Some((open, b'[')) = next_nonspace(body, j) {
            match closing(body, open) {
                Some(close) => j = close + 1,
                None => return false,
            }
        }
        next_nonspace(body, j).is_some_and(|(at, b)| b == b'+' && body[at + 1..].starts_with('='))
    };
    tokens(body)
        .into_iter()
        .find(|&(start, text)| text == field && charged(start + text.len()))
        .map(|(start, _)| start)
}

/// Runs the pass over the workspace model.
#[must_use]
pub fn run(ws: &Workspace) -> PassReport {
    let mut report = PassReport::new("ledger");

    for file in &ws.files {
        let is_ctx = file.rel.ends_with("comm/src/ctx.rs");
        let is_phase_scope =
            file.rel.starts_with("crates/core/src/") || file.rel.starts_with("crates/serve/src/");
        let mut waivers = Waivers::new(file);

        for &fi in &file.fns {
            let f = &ws.fns[fi];
            let here = |off: usize| {
                format!(
                    "{}:{}",
                    file.rel,
                    line_of(&file.line_starts, f.body_offset + off)
                )
            };

            if is_ctx {
                report.bump("ledger_fns_checked", 1);
                // Rule: ledger-field-symmetry.
                for (logical, twins) in [
                    ("sent_bytes", ["wire_sent_bytes", "sent_messages"]),
                    ("recv_bytes", ["wire_recv_bytes", "recv_messages"]),
                ] {
                    let Some(off) = charge_offset(&f.body, logical) else {
                        continue;
                    };
                    report.bump("charge_sites_checked", 1);
                    for twin in twins {
                        if charge_offset(&f.body, twin).is_none() {
                            report.findings.push(Finding {
                                rule: "ledger-field-symmetry".into(),
                                location: here(off),
                                message: format!(
                                    "fn `{}` charges `{logical}` but never `{twin}` — \
                                     the logical/wire/message counters must move \
                                     together or the parity ledger splits",
                                    f.name
                                ),
                            });
                        }
                    }
                }

                // Rule: ledger-charge-before-transport.
                if let Some(send_off) = f.body.find("transport.send(") {
                    report.bump("charge_sites_checked", 1);
                    match charge_offset(&f.body, "sent_bytes") {
                        Some(charge) if charge < send_off => {}
                        Some(charge) => report.findings.push(Finding {
                            rule: "ledger-charge-before-transport".into(),
                            location: here(charge),
                            message: format!(
                                "fn `{}` charges `sent_bytes` only after handing the \
                                 payload to the transport — a failed send would vanish \
                                 from the ledger",
                                f.name
                            ),
                        }),
                        None => report.findings.push(Finding {
                            rule: "ledger-charge-before-transport".into(),
                            location: here(send_off),
                            message: format!(
                                "fn `{}` calls `transport.send` without charging \
                                 `sent_bytes` — an unledgered send",
                                f.name
                            ),
                        }),
                    }
                }

                // Rule: ledger-charge-on-delivery.
                if let Some(recv_off) = f.body.find("transport.recv_any(") {
                    report.bump("charge_sites_checked", 1);
                    let charges = f.body.contains("charge_recv(")
                        || charge_offset(&f.body, "recv_bytes").is_some();
                    if !charges {
                        report.findings.push(Finding {
                            rule: "ledger-charge-on-delivery".into(),
                            location: here(recv_off),
                            message: format!(
                                "fn `{}` delivers via `transport.recv_any` without \
                                 calling `charge_recv` — received bytes would never \
                                 reach the ledger",
                                f.name
                            ),
                        });
                    }
                }
            }

            // Rule: phase-scoped-comm — per call site.
            if is_phase_scope {
                let scoped = f.body.contains("phase_scope(") || f.body.contains("current_phase(");
                let toks = tokens(&f.body);
                for (i, &(start, text)) in toks.iter().enumerate() {
                    if !CTX_COMM_CALLS.contains(&text) {
                        continue;
                    }
                    // Only `ctx.…(` / `self.ctx.…(` receivers count.
                    let is_ctx_call = i > 0
                        && toks[i - 1].1 == "ctx"
                        && f.body.as_bytes().get(start + text.len()) == Some(&b'(')
                        && f.body.as_bytes().get(start.wrapping_sub(1)) == Some(&b'.');
                    if !is_ctx_call {
                        continue;
                    }
                    report.bump("comm_sites_checked", 1);
                    if scoped || waivers.check(f.line, PHASE_SCOPE) {
                        continue;
                    }
                    report.findings.push(Finding {
                        rule: "phase-scoped-comm".into(),
                        location: here(start),
                        message: format!(
                            "`ctx.{text}` call site in fn `{}` outside any phase_scope \
                             — its bytes would be ledgered as Other",
                            f.name
                        ),
                    });
                }
            }
        }

        waivers.audit(|rule| rule == PHASE_SCOPE, &mut report);
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(sources: &[(&str, &str)]) -> Vec<Finding> {
        run(&Workspace::from_sources(sources)).findings
    }

    const GOOD_CTX: &str = "\
impl Ctx {
    fn try_send(&self, dst: usize) {
        let mut s = self.stats.borrow_mut();
        s.sent_bytes[dst] += logical;
        s.sent_messages += 1;
        entry.wire_sent_bytes += wire;
        self.transport.send(dst, tag, payload);
    }
    fn recv(&self) {
        let msg = self.transport.recv_any(t);
        self.charge_recv(src, tag, &payload, wire, blocked);
    }
    fn charge_recv(&self) {
        s.recv_bytes += bytes;
        entry.wire_recv_bytes += wire;
        entry.recv_messages += 1;
    }
}
";

    #[test]
    fn well_formed_charging_is_clean() {
        assert!(findings_for(&[("crates/comm/src/ctx.rs", GOOD_CTX)]).is_empty());
    }

    #[test]
    fn missing_wire_twin_is_flagged() {
        // Seeded bug: the PR 8 class — logical counter moves, wire
        // counter forgotten.
        let src = GOOD_CTX.replace("entry.wire_sent_bytes += wire;\n        ", "");
        let findings = findings_for(&[("crates/comm/src/ctx.rs", &src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "ledger-field-symmetry");
        assert!(findings[0].message.contains("wire_sent_bytes"));
    }

    #[test]
    fn charge_after_transport_send_is_flagged() {
        let src = "\
impl Ctx {
    fn try_send(&self, dst: usize) {
        self.transport.send(dst, tag, payload);
        s.sent_bytes[dst] += logical;
        s.sent_messages += 1;
        entry.wire_sent_bytes += wire;
    }
}
";
        let findings = findings_for(&[("crates/comm/src/ctx.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "ledger-charge-before-transport");
    }

    #[test]
    fn delivery_without_charge_recv_is_flagged_but_poll_buffering_is_exempt() {
        let src = "\
impl Ctx {
    fn recv(&self) {
        let msg = self.transport.recv_any(t);
        self.buffer(msg);
    }
    fn drain(&self) {
        let msg = self.transport.try_recv_any();
        self.buffer(msg);
    }
}
";
        let findings = findings_for(&[("crates/comm/src/ctx.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "ledger-charge-on-delivery");
        assert!(findings[0].message.contains("recv"));
    }

    #[test]
    fn unscoped_comm_call_site_is_flagged_and_waiver_honored() {
        let bad = "\
impl W {
    fn exchange(&self) {
        self.ctx.try_send(dst, tag, payload);
    }
}
";
        let findings = findings_for(&[("crates/core/src/worker.rs", bad)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "phase-scoped-comm");
        assert_eq!(findings[0].location, "crates/core/src/worker.rs:3");
        // sar-serve's MFG exchange is ledgered the same way; outside
        // sar-core and sar-serve the rule does not apply.
        assert_eq!(
            findings_for(&[("crates/serve/src/engine.rs", bad)]).len(),
            1
        );
        assert!(findings_for(&[("crates/x/src/a.rs", bad)]).is_empty());

        let scoped = "\
impl W {
    fn exchange(&self) {
        let _phase = self.ctx.phase_scope(Phase::ForwardFetch);
        self.ctx.try_send(dst, tag, payload);
    }
}
";
        assert!(findings_for(&[("crates/core/src/worker.rs", scoped)]).is_empty());

        let waived = "\
impl W {
    // sar-check: allow(phase-scope)
    fn exchange(&self) {
        self.ctx.try_send(dst, tag, payload);
    }
}
";
        assert!(findings_for(&[("crates/core/src/worker.rs", waived)]).is_empty());

        // This pass owns the rule, so it audits the waivers: one that
        // suppresses nothing — over a scoped fn, or outside the rule's
        // files — is dead.
        let needless = waived.replace(
            "        self.ctx.try_send",
            "        let _phase = self.ctx.phase_scope(Phase::ForwardFetch);\n        self.ctx.try_send",
        );
        for (rel, src) in [
            ("crates/core/src/worker.rs", needless.as_str()),
            ("crates/x/src/a.rs", waived),
        ] {
            let findings = findings_for(&[(rel, src)]);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].rule, "unused-waiver");
            assert_eq!(findings[0].location, format!("{rel}:2"));
        }
    }
}
