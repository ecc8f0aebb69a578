//! Pass 5: the ledger-conservation verifier.
//!
//! The byte/message ledger is the workspace's observability backbone: the
//! smoke gates, the bench baselines, and `parity_digest()` all pin its
//! values, so an uncharged (or double-charged) send is a silent
//! correctness bug — the class PR 2 fixed by hand and PR 8's
//! logical/wire codec split doubled the surface of. This pass checks the
//! charging discipline statically, over the [`crate::ast`] model:
//!
//! * **`ledger-field-symmetry`** — a function that charges a logical
//!   counter charges its wire twin and message counter in the same body
//!   (`sent_bytes` ⇒ `wire_sent_bytes` + `sent_messages`; `recv_bytes` ⇒
//!   `wire_recv_bytes` + `recv_messages`). The PR 8 split made logical
//!   and wire bytes diverge by design; *where they are charged* may not.
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
//! * **`codec-arm-symmetry`** — `encode_block` and `decode_body` in the
//!   wire codec dispatch over the *same* set of `Codec::` variants, and
//!   the `code`/`from_code` id mapping exists in both directions: a
//!   codec that encodes but cannot decode (or vice versa) would strand
//!   every peer of the negotiation.
//! * **`phase-scoped-comm`** — every `ctx.…` communication call site in
//!   `sar-core` and `sar-serve` sits in a function that opens a
//!   `phase_scope` (or inspects `current_phase`), per call site — finer
//!   than the linter's function-level rule, and honoring the same
//!   `allow(phase-scope)` waivers.

use std::path::Path;

use crate::ast::{line_of, tokens, Workspace};
use crate::lint::Waivers;
use crate::{Finding, PassReport};

/// The comm-context methods whose call sites are phase-audited — by this
/// pass per call site, by the linter's `phase-scope` rule per function.
pub(crate) const CTX_COMM_CALLS: &[&str] = &["try_send", "try_recv", "send", "recv"];

/// Runs the pass over a workspace checkout.
#[must_use]
pub fn run(root: &Path) -> PassReport {
    run_ws(&Workspace::load(root))
}

/// Byte offset of the first `field … +=` charge in `body` — the exact
/// token `field`, optionally indexed (`field[dst]`), followed by `+=`.
fn charge_offset(body: &str, field: &str) -> Option<usize> {
    let bytes = body.as_bytes();
    for (start, text) in tokens(body) {
        if text != field {
            continue;
        }
        let mut j = start + text.len();
        // Skip one `[…]` index.
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) == Some(&b'[') {
            let mut depth = 0usize;
            while j < bytes.len() {
                match bytes[j] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) == Some(&b'+') && bytes.get(j + 1) == Some(&b'=') {
            return Some(start);
        }
    }
    None
}

/// The set of `Codec::Variant` tokens referenced in `body`.
fn codec_variants(body: &str) -> Vec<String> {
    let bytes = body.as_bytes();
    let toks = tokens(body);
    let mut out = Vec::new();
    for (i, &(start, text)) in toks.iter().enumerate() {
        if text != "Codec" {
            continue;
        }
        let end = start + text.len();
        if bytes.get(end) == Some(&b':') && bytes.get(end + 1) == Some(&b':') {
            if let Some(&(vstart, variant)) = toks.get(i + 1) {
                if vstart == end + 2 && variant.chars().next().is_some_and(char::is_uppercase) {
                    out.push(variant.to_string());
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Runs the pass over an in-memory workspace model (the mutation-test
/// entry point).
#[must_use]
pub fn run_ws(ws: &Workspace) -> PassReport {
    let mut report = PassReport::new("ledger");

    for (file_idx, file) in ws.files.iter().enumerate() {
        let is_ctx = file.rel.ends_with("comm/src/ctx.rs");
        let is_codec = file.rel.ends_with("comm/src/codec.rs");
        let is_phase_scope =
            file.rel.starts_with("crates/core/src/") || file.rel.starts_with("crates/serve/src/");
        if !(is_ctx || is_codec || is_phase_scope) {
            continue;
        }
        // The linter's waivers, so `allow(phase-scope)` means one thing.
        let raw_lines: Vec<&str> = file.raw.lines().collect();
        let mut waivers = Waivers::collect(&file.raw, &file.line_starts);

        for &fi in &file.fns {
            let f = &ws.fns[fi];
            debug_assert_eq!(f.file, file_idx);
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
                    if scoped || waivers.check(&raw_lines, f.line, "phase-scope") {
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

        // Rule: codec-arm-symmetry — file granularity.
        if is_codec {
            let arms = |name: &str| -> Option<Vec<String>> {
                file.fns
                    .iter()
                    .map(|&fi| &ws.fns[fi])
                    .find(|f| f.name == name)
                    .map(|f| codec_variants(&f.body))
            };
            match (arms("encode_block"), arms("decode_body")) {
                (Some(enc), Some(dec)) => {
                    report.bump("codec_variants_checked", enc.len().max(dec.len()) as u64);
                    for v in enc.iter().filter(|v| !dec.contains(v)) {
                        report.findings.push(Finding {
                            rule: "codec-arm-symmetry".into(),
                            location: file.rel.clone(),
                            message: format!(
                                "`Codec::{v}` has an encode arm but no decode arm — \
                                 peers negotiating it would receive undecodable frames"
                            ),
                        });
                    }
                    for v in dec.iter().filter(|v| !enc.contains(v)) {
                        report.findings.push(Finding {
                            rule: "codec-arm-symmetry".into(),
                            location: file.rel.clone(),
                            message: format!(
                                "`Codec::{v}` has a decode arm but no encode arm — \
                                 dead negotiation surface"
                            ),
                        });
                    }
                }
                (enc, dec) => {
                    if enc.is_none() || dec.is_none() {
                        report.findings.push(Finding {
                            rule: "codec-arm-symmetry".into(),
                            location: file.rel.clone(),
                            message: "wire codec must define both `encode_block` and \
                                      `decode_body`"
                                .into(),
                        });
                    }
                }
            }
            // The id mapping must exist in both directions.
            let names: Vec<&str> = file
                .fns
                .iter()
                .map(|&fi| ws.fns[fi].name.as_str())
                .collect();
            for pair in [("code", "from_code"), ("name", "parse")] {
                if names.contains(&pair.0) != names.contains(&pair.1) {
                    report.findings.push(Finding {
                        rule: "codec-arm-symmetry".into(),
                        location: file.rel.clone(),
                        message: format!(
                            "codec id mapping is one-way: `{}` without `{}`",
                            if names.contains(&pair.0) {
                                pair.0
                            } else {
                                pair.1
                            },
                            if names.contains(&pair.0) {
                                pair.1
                            } else {
                                pair.0
                            },
                        ),
                    });
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(sources: &[(&str, &str)]) -> Vec<Finding> {
        run_ws(&Workspace::from_sources(sources)).findings
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
    fn codec_arm_asymmetry_is_flagged() {
        let good = "\
impl Codec {
    fn encode_block(&self) {
        match self { Codec::Raw => a(), Codec::F16 => b() }
    }
    fn decode_body(&self) {
        match self { Codec::Raw => c(), Codec::F16 => d() }
    }
    fn code(&self) {}
    fn from_code(c: u8) {}
    fn name(&self) {}
    fn parse(s: &str) {}
}
";
        assert!(findings_for(&[("crates/comm/src/codec.rs", good)]).is_empty());

        // Seeded bug: a variant that encodes but cannot decode.
        let bad = good.replace("Codec::F16 => d()", "Codec::Raw => d()");
        let findings = findings_for(&[("crates/comm/src/codec.rs", &bad)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "codec-arm-symmetry");
        assert!(findings[0].message.contains("F16"));
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
    }
}
