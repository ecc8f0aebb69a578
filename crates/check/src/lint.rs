//! Pass 3: the workspace invariant linter.
//!
//! A token-level pass over the blanked code of [`crate::ast`] (comments,
//! literals and `#[cfg(test)]` items blanked, so matches are real code)
//! enforcing the project rules the compiler cannot:
//!
//! * `no-panic-path` — no `unwrap()`, `expect()`, `assert!`,
//!   `assert_eq!`, `assert_ne!` in `sar-comm` and `sar-serve` sources,
//!   or `core/src/{worker,seq_agg}.rs`: hot paths report through typed
//!   errors (`TransportError`), or `panic!` with a rank-naming
//!   message at documented panicking entry points. `debug_assert*` is
//!   exempt — it compiles out of release builds.
//! * `safety-comment` — every `unsafe` occurrence (except `unsafe fn`
//!   declarations, which document their contract in a `# Safety` doc
//!   section) carries a `// SAFETY:` comment on the same line or just
//!   above it. Blocks that touch `std::arch` SIMD intrinsics (an `_mm*`
//!   call, an `arch::` path, or a call into a dispatch body — any module
//!   declared under `#[cfg(target_arch = …)]`, whatever its name) or
//!   make raw `libc::` calls are held to a stricter standard: the SAFETY
//!   comment is mandatory and the rule *cannot be waived* for them — a
//!   mis-stated target-feature contract or a C function handed a pointer
//!   it may not use is undefined behaviour, not a style choice.
//! * `no-unbounded-channel` — no `channel()` / `unbounded()`
//!   construction: queues are bounded so backpressure is explicit. Sites
//!   that are unbounded *by design* (e.g. transport inboxes, where the
//!   send-never-blocks invariant is what makes the rotation schedule
//!   deadlock-free) carry a waiver comment.
//!
//! Comm calls outside a phase scope are the ledger pass's rule
//! ([`crate::ledgercheck`]), waived as `allow(phase-scope)`.
//!
//! Any rule can be waived for one line with
//! `// sar-check: allow(<rule>) — <reason>` on that line or in the comment
//! block above; the reason is part of the workspace's audit trail.
//!
//! Waivers are themselves audited (`unused-waiver`): one that no longer
//! suppresses any finding — because the offending code moved, the rule
//! stopped firing there, or it names an unwaivable or unknown rule — is an
//! error, reported by the pass owning the rule (this one, unless it is
//! another pass's). Only plain `//` comments count as waivers; doc
//! comments and string literals mentioning the syntax (like these docs)
//! do not.

use crate::ast::{closing, line_of, next_nonspace, tokens, FileInfo, Workspace};
use crate::ledgercheck::PHASE_SCOPE;
use crate::{Finding, PassReport};

/// The full `{ … }` block starting at the first non-space byte at or
/// after `from`, if that byte opens a block.
fn block_at(code: &str, from: usize) -> Option<&str> {
    let (open, _) = next_nonspace(code, from).filter(|&(_, b)| b == b'{')?;
    closing(code, open).map(|close| &code[open..=close])
}

/// Whether an `unsafe` block body reaches `std::arch` SIMD territory:
/// a raw `_mm*` intrinsic, an `arch::` path, or a path into one of the
/// workspace's dispatch bodies (`bodies`, from [`dispatch_bodies`]).
fn is_simd_unsafe(body: &str, bodies: &[String]) -> bool {
    body.contains("_mm")
        || body.contains("arch::")
        || tokens(body).iter().any(|&(start, text)| {
            bodies.iter().any(|m| m == text) && body[start + text.len()..].starts_with("::")
        })
}

/// The names of the workspace's dispatch bodies: every module declared
/// under a `#[cfg(...)]` attribute that selects a `target_arch` (not one
/// that excludes it), other attributes and a visibility in between
/// allowed. Such a module is code compiled for a CPU its caller must
/// have detected, so a call into it carries that contract whatever the
/// module is called.
fn dispatch_bodies(ws: &Workspace) -> Vec<String> {
    let mut names = Vec::new();
    for file in &ws.files {
        let code = &file.code;
        let mut from = 0;
        while let Some(pos) = code[from..].find("#[") {
            let open = from + pos + 1;
            let Some(close) = closing(code, open) else {
                break;
            };
            from = close + 1;
            let attr = tokens(&code[open..=close]);
            let has = |word: &str| attr.iter().any(|&(_, t)| t == word);
            if !(has("cfg") && has("target_arch")) || has("not") {
                continue;
            }
            // Skip the item's other attributes.
            let mut item = from;
            while let Some((hash, b'#')) = next_nonspace(code, item) {
                match code[hash..].find('[').and_then(|o| closing(code, hash + o)) {
                    Some(end) => item = end + 1,
                    None => break,
                }
            }
            let toks = tokens(&code[item..]);
            let mut toks = toks
                .iter()
                .map(|&(_, t)| t)
                .skip_while(|t| matches!(*t, "pub" | "crate" | "super" | "self" | "in"));
            if toks.next() == Some("mod") {
                if let Some(name) = toks.next() {
                    names.push(name.to_string());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Whether an `unsafe` block body makes a raw `libc::` call. A wrong FFI
/// contract (pointer validity, buffer length, lifetime of what the C side
/// keeps) is undefined behaviour that no test can reliably catch, so
/// these blocks are held to the same unwaivable standard as SIMD
/// dispatch.
fn is_libc_unsafe(body: &str) -> bool {
    body.contains("libc::")
}

/// Use tracking for one file's waivers (its `allow(<rule>)`
/// annotations): a waiver that suppresses no finding is itself one
/// (`unused-waiver`), so the audit trail cannot rot as code moves.
pub(crate) struct Waivers<'a> {
    file: &'a FileInfo,
    used: Vec<bool>,
}

impl<'a> Waivers<'a> {
    pub(crate) fn new(file: &'a FileInfo) -> Waivers<'a> {
        Waivers {
            file,
            used: vec![false; file.annotations.len()],
        }
    }

    /// Whether a waiver for `rule` covers the flagged `line` — on the
    /// line itself, or anywhere in the contiguous comment block directly
    /// above it (multi-line reasons are encouraged). Marks every covering
    /// waiver as used.
    pub(crate) fn check(&mut self, line: usize, rule: &str) -> bool {
        let mut hit = false;
        for (i, a) in self.file.covering(line, false) {
            if a.key == "allow" && a.arg == rule {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Reports every waiver of a rule `owned` by the calling pass that
    /// suppressed nothing.
    pub(crate) fn audit(&self, owned: impl Fn(&str) -> bool, report: &mut PassReport) {
        for (w, &used) in self.file.annotations.iter().zip(&self.used) {
            if used || w.key != "allow" || !owned(&w.arg) {
                continue;
            }
            report.findings.push(Finding {
                rule: "unused-waiver".into(),
                location: format!("{}:{}", self.file.rel, w.line),
                message: format!(
                    "waiver `allow({})` no longer suppresses any finding — delete \
                     it (or fix the rule name) so the audit trail stays honest",
                    w.arg
                ),
            });
        }
    }
}

/// Whether the `no-panic-path` rule applies to this file: all of
/// `sar-comm`'s sources, the worker hot path in `sar-core` (the walker and
/// router in `worker.rs`, and the aggregation functions in `seq_agg.rs`
/// that drive them from inside autograd), and the resident serving tier (a panicking rank strands every peer of the
/// rotation mid-protocol, and a serving cluster must outlive bad
/// requests by construction).
fn panic_rule_applies(rel: &str) -> bool {
    rel.starts_with("crates/comm/src/")
        || rel == "crates/core/src/worker.rs"
        || rel == "crates/core/src/seq_agg.rs"
        || rel.starts_with("crates/serve/src/")
}

fn lint_file(file: &FileInfo, bodies: &[String], report: &mut PassReport) {
    let raw_lines: Vec<&str> = file.raw.lines().collect();
    let toks = tokens(&file.code);
    let mut waivers = Waivers::new(file);

    for (idx, &(start, text)) in toks.iter().enumerate() {
        let end = start + text.len();
        let line = line_of(&file.line_starts, start);
        let here = || format!("{}:{line}", file.rel);

        // Rule: no-panic-path.
        if panic_rule_applies(&file.rel) {
            let next = next_nonspace(&file.code, end).map(|(_, b)| b);
            let is_call = matches!(text, "unwrap" | "expect") && next == Some(b'(');
            let is_macro =
                matches!(text, "assert" | "assert_eq" | "assert_ne") && next == Some(b'!');
            if (is_call || is_macro) && !waivers.check(line, "no-panic-path") {
                report.findings.push(Finding {
                    rule: "no-panic-path".into(),
                    location: here(),
                    message: format!(
                        "`{}{}` on a comm hot path — return a typed TransportError \
                         (or panic! with a rank-naming message at a documented \
                         panicking entry point)",
                        text,
                        if is_macro { "!" } else { "()" }
                    ),
                });
            }
        }

        // Rule: safety-comment.
        if text == "unsafe" {
            let next_is_fn = toks
                .get(idx + 1)
                .is_some_and(|t| t.1 == "fn" || t.1 == "extern");
            if !next_is_fn {
                // Accept a SAFETY: comment on the same line or within the
                // 8 raw lines above (one comment may cover a short
                // cluster of adjacent unsafe ops).
                let covered = (line.saturating_sub(8)..=line).any(|l| {
                    l >= 1 && l <= raw_lines.len() && raw_lines[l - 1].contains("SAFETY:")
                });
                let body = block_at(&file.code, end);
                let simd = body.is_some_and(|b| is_simd_unsafe(b, bodies));
                let libc = body.is_some_and(is_libc_unsafe);
                if simd || libc {
                    // `std::arch` blocks assert a target-feature contract
                    // and raw libc calls assert an FFI contract; no
                    // waiver can substitute for stating it.
                    if !covered {
                        let (what, contract) = if simd {
                            ("`std::arch` SIMD intrinsics", "CPU-feature")
                        } else {
                            ("raw `libc::` calls", "FFI")
                        };
                        report.findings.push(Finding {
                            rule: "safety-comment".into(),
                            location: here(),
                            message: format!(
                                "`unsafe` block with {what} without a `// SAFETY:` \
                                 comment — state the {contract} contract; this rule \
                                 cannot be waived for such blocks"
                            ),
                        });
                    }
                } else if !covered && !waivers.check(line, "safety-comment") {
                    report.findings.push(Finding {
                        rule: "safety-comment".into(),
                        location: here(),
                        message: "`unsafe` without a `// SAFETY:` comment justifying \
                                  why the contract holds"
                            .into(),
                    });
                }
            }
        }

        // Rule: no-unbounded-channel.
        if matches!(text, "unbounded" | "channel") {
            let after = next_nonspace(&file.code, end);
            // A construction site: `channel(...)` or `channel::<T>(...)`.
            // Path segments (`channel::unbounded`, `use …::channel::{…}`)
            // are not flagged — their callsites are.
            let is_ctor = match after {
                Some((_, b'(')) => true,
                Some((pos, b':')) => {
                    file.code.as_bytes().get(pos + 1) == Some(&b':')
                        && file.code.as_bytes().get(pos + 2) == Some(&b'<')
                }
                _ => false,
            };
            if is_ctor && !waivers.check(line, "no-unbounded-channel") {
                report.findings.push(Finding {
                    rule: "no-unbounded-channel".into(),
                    location: here(),
                    message: format!(
                        "`{}` constructs an unbounded queue — use a bounded channel, \
                         or waive with `// sar-check: allow(no-unbounded-channel)` \
                         and a reason if unboundedness is load-bearing",
                        text
                    ),
                });
            }
        }
    }

    // Rule: unused-waiver. A waiver that suppressed nothing this run is
    // dead — the offending code moved, the rule stopped firing here, or
    // it waives an unwaivable rule — and a dead waiver is a latent hole:
    // code drifting back under it would be silently exempted. Every
    // waiver is tracked here; `phase-scope` ones are the ledger pass's
    // to audit.
    report.bump(
        "waivers_tracked",
        file.annotations.iter().filter(|a| a.key == "allow").count() as u64,
    );
    waivers.audit(|rule| rule != PHASE_SCOPE, report);
}

/// Runs the linter over every file of `ws` (`crates/*/src/**/*.rs` of a
/// checkout; `vendor/` stand-ins and `target/` are never scanned).
#[must_use]
pub fn run(ws: &Workspace) -> PassReport {
    let mut report = PassReport::new("lint");
    let bodies = dispatch_bodies(ws);
    for file in &ws.files {
        report.bump("files_scanned", 1);
        lint_file(file, &bodies, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_module_is_on_the_no_panic_path() {
        // The wire codec runs inside every encoded send/recv; a panic
        // there strands the peer mid-rotation exactly like a transport
        // panic would. Pin it (and the rest of sar-comm) to the rule so
        // a future module move cannot silently drop the coverage.
        assert!(panic_rule_applies("crates/comm/src/codec.rs"));
        assert!(panic_rule_applies("crates/comm/src/transport.rs"));
        assert!(!panic_rule_applies("crates/bench/src/compressbench.rs"));
    }

    #[test]
    fn aggregation_functions_are_on_the_no_panic_path() {
        // seq_agg.rs runs the walker and the gradient router from inside
        // forward and backward passes: a bare `assert!`/`unwrap` there
        // kills a rank mid-rotation without naming it.
        assert!(panic_rule_applies("crates/core/src/worker.rs"));
        assert!(panic_rule_applies("crates/core/src/seq_agg.rs"));
        assert!(!panic_rule_applies("crates/core/src/model.rs"));
    }

    fn lint_source(raw: &str) -> Vec<Finding> {
        run(&Workspace::from_sources(&[("crates/x/src/a.rs", raw)])).findings
    }

    #[test]
    fn panicking_calls_on_a_hot_path_are_flagged_and_test_items_exempt() {
        let src =
            "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\n";
        let findings = run(&Workspace::from_sources(&[("crates/comm/src/a.rs", src)])).findings;
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "no-panic-path");
        assert_eq!(findings[0].location, "crates/comm/src/a.rs:1");
        // Off the hot path the rule does not apply.
        assert!(lint_source(src).is_empty());
    }

    /// A dispatch body as the workspace declares one: a module compiled
    /// only for one architecture.
    const AVX2_BODY: &str = "#[cfg(target_arch = \"x86_64\")]\nmod avx2 {}\n";

    #[test]
    fn simd_unsafe_blocks_require_safety_and_ignore_waivers() {
        // A waiver does NOT silence the rule for a std::arch block — and
        // since it suppressed nothing, the waiver itself is flagged dead.
        let waived = format!(
            "{AVX2_BODY}fn f() {{\n\
             // sar-check: allow(safety-comment) — trust me\n\
             unsafe {{ avx2::add_assign(dst, src) }};\n}}\n"
        );
        let waived = waived.as_str();
        let findings = lint_source(waived);
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.rule == "safety-comment")
                .count(),
            1,
            "{findings:?}"
        );
        assert!(findings
            .iter()
            .any(|f| f.rule == "safety-comment" && f.message.contains("SIMD")));
        assert!(findings.iter().any(|f| f.rule == "unused-waiver"));

        // Raw intrinsics are also recognized.
        let raw_intrinsic = "fn g() { unsafe { core::arch::x86_64::_mm256_setzero_ps() }; }\n";
        assert_eq!(lint_source(raw_intrinsic).len(), 1);

        // A SAFETY comment satisfies the rule.
        let covered = format!(
            "{AVX2_BODY}fn f() {{\n\
             // SAFETY: dispatch guarded by detect_avx2().\n\
             unsafe {{ avx2::add_assign(dst, src) }};\n}}\n"
        );
        assert!(lint_source(&covered).is_empty());

        // Non-SIMD unsafe blocks can still be waived as before.
        let generic = "fn f() {\n\
                       // sar-check: allow(safety-comment) — audited\n\
                       unsafe { ptr.read() };\n}\n";
        assert!(lint_source(generic).is_empty());
    }

    #[test]
    fn a_call_into_any_dispatch_body_needs_a_safety_comment() {
        // A module is a dispatch body because it is compiled for one
        // architecture, not because of its name: an `avx512::` call
        // without a SAFETY comment is flagged — unwaivably — and so is a
        // call into a body with a name no rule could have guessed, with
        // attributes and a visibility between the cfg and the `mod`.
        let avx512 = "#[cfg(target_arch = \"x86_64\")]\n\
                      mod avx512 {}\n\
                      fn f() {\n\
                      // sar-check: allow(safety-comment) — trust me\n\
                      unsafe { avx512::add_assign(dst, src) };\n}\n";
        let findings = lint_source(avx512);
        let safety: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "safety-comment")
            .collect();
        assert_eq!(safety.len(), 1, "{findings:?}");
        assert!(safety[0].message.contains("SIMD"), "{findings:?}");
        assert!(findings.iter().any(|f| f.rule == "unused-waiver"));

        let wide = "#[cfg(all(target_arch = \"aarch64\", feature = \"x\"))]\n\
                    #[deny(unsafe_op_in_unsafe_fn)]\n\
                    pub(crate) mod wide {}\n\
                    fn g() { unsafe { wide::gather(out, x) }; }\n";
        let findings = lint_source(wide);
        assert!(
            findings.len() == 1 && findings[0].message.contains("SIMD"),
            "{findings:?}"
        );

        // The same call is an ordinary `unsafe` block when no module of
        // that name is a dispatch body — or only the fallback for other
        // architectures is.
        let fallback = "#[cfg(not(target_arch = \"x86_64\"))]\nmod avx512 {}\n\
                        fn f() {\n\
                        // sar-check: allow(safety-comment) — audited\n\
                        unsafe { avx512::add_assign(dst, src) };\n}\n";
        assert!(lint_source(fallback).is_empty());
        assert!(lint_source(&fallback[fallback.find("fn f").unwrap()..]).is_empty());
    }

    #[test]
    fn libc_unsafe_blocks_require_safety_and_ignore_waivers() {
        // A waiver does NOT silence the rule for a raw libc call: the FFI
        // contract (pointer validity, lengths, lifetimes) must be stated.
        let waived = "fn f() {\n\
                      // sar-check: allow(safety-comment) — trust me\n\
                      unsafe { libc::munmap(self.base, self.cap) };\n}\n";
        let findings = lint_source(waived);
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.rule == "safety-comment")
                .count(),
            1,
            "{findings:?}"
        );
        let safety = findings
            .iter()
            .find(|f| f.rule == "safety-comment")
            .unwrap();
        assert!(safety.message.contains("raw `libc::` calls"));
        assert!(safety.message.contains("FFI contract"));
        assert!(findings.iter().any(|f| f.rule == "unused-waiver"));

        // The workspace's own two subjects — the thread CPU clock reads in
        // `comm::time` and `tensor::pool` — are held to the same standard.
        let clock = "fn g() { let rc = unsafe { libc::clock_gettime(\
                     libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) }; }\n";
        assert_eq!(lint_source(clock).len(), 1);

        // A SAFETY comment satisfies the rule.
        let covered = "fn f() {\n\
                       // SAFETY: base/cap come from a successful mmap of this fd;\n\
                       // no views outlive the store (checked by the borrow above).\n\
                       unsafe { libc::munmap(self.base, self.cap) };\n}\n";
        assert!(lint_source(covered).is_empty());
    }

    #[test]
    fn waivers_are_audited_in_both_directions() {
        // Direction 1: a waiver that suppresses a real finding is "used" and
        // produces no output at all — neither the waived rule nor the audit.
        let used = "fn f(tx: Sender<u8>) {\n\
                    // sar-check: allow(no-unbounded-channel) — drained every tick\n\
                    let (tx, rx) = std::sync::mpsc::channel();\n}\n";
        assert!(lint_source(used).is_empty(), "{:?}", lint_source(used));

        // Direction 2: a waiver that suppresses nothing (here: misspelled
        // rule name, so the real finding fires AND the waiver is dead) is
        // itself reported, anchored at the waiver's own line.
        let stale = "fn f(tx: Sender<u8>) {\n\
                     // sar-check: allow(no-unbounded-chanel) — typo'd rule\n\
                     let (tx, rx) = std::sync::mpsc::channel();\n}\n";
        let findings = lint_source(stale);
        let dead: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "unused-waiver")
            .collect();
        assert_eq!(dead.len(), 1, "{findings:?}");
        assert!(dead[0].location.ends_with(":2"), "{:?}", dead[0].location);
        assert!(dead[0].message.contains("no-unbounded-chanel"));
        // ...and the unwaived rule still fires.
        assert!(findings
            .iter()
            .any(|f| f.rule == "no-unbounded-channel" && f.location.ends_with(":3")));

        // A waiver inside a doc comment or string literal is documentation,
        // not a live waiver — it is never collected, so never "unused".
        let doc_only = "/// Use `// sar-check: allow(no-unbounded-channel)` to waive.\n\
                        fn f() {}\n";
        assert!(lint_source(doc_only).is_empty());

        // A `phase-scope` waiver is the ledger pass's to audit, not this
        // one's.
        assert!(lint_source("// sar-check: allow(phase-scope)\nfn f() {}\n").is_empty());
    }
}
