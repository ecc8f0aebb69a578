//! Pass 3: the workspace invariant linter.
//!
//! A token-level source pass (comments and string literals are blanked
//! first, so matches are real code) over `crates/*/src/**/*.rs` enforcing
//! the project rules the compiler cannot:
//!
//! * `no-panic-path` — no `unwrap()`, `expect()`, `assert!`,
//!   `assert_eq!`, `assert_ne!` in `sar-comm` sources,
//!   `core/src/{worker,seq_agg}.rs`, or the spill tier `tensor/src/tier.rs`
//!   (outside `#[cfg(test)]`): hot paths report through typed errors
//!   (`TransportError`, `TierError`), or `panic!` with a rank-naming
//!   message at documented panicking entry points. `debug_assert*` is
//!   exempt — it compiles out of release builds.
//! * `safety-comment` — every `unsafe` occurrence (except `unsafe fn`
//!   declarations, which document their contract in a `# Safety` doc
//!   section) carries a `// SAFETY:` comment on the same line or just
//!   above it. Blocks that touch `std::arch` SIMD intrinsics (an `_mm*`
//!   call, an `arch::` path, or a dispatch into the `avx2::` module) or
//!   make raw `libc::` calls are held to a stricter standard: the SAFETY
//!   comment is mandatory and the rule *cannot be waived* for them — a
//!   mis-stated target-feature contract or a C function handed a pointer
//!   it may not use is undefined behaviour, not a style choice.
//! * `phase-scope` — any function in `sar-core` that calls the
//!   communication context (`ctx.try_send`, `ctx.try_recv`, …) must
//!   open a `phase_scope` (or inspect `current_phase`), so every byte is
//!   attributed to a ledger phase.
//! * `no-unbounded-channel` — no `channel()` / `unbounded()`
//!   construction: queues are bounded so backpressure is explicit. Sites
//!   that are unbounded *by design* (e.g. transport inboxes, where the
//!   send-never-blocks invariant is what makes the rotation schedule
//!   deadlock-free) carry a waiver comment.
//!
//! Any rule can be waived for one line with
//! `// sar-check: allow(<rule>) — <reason>` on that line or the line
//! above; the reason is part of the workspace's audit trail.
//!
//! Waivers are themselves audited (`unused-waiver`): one that no longer
//! suppresses any finding — because the offending code moved, the rule
//! stopped firing there, or it names an unwaivable rule — is a lint
//! error. Only plain `//` comments count as waivers; doc comments and
//! string literals mentioning the syntax (like these docs) do not.

use std::path::Path;

use crate::ast::{line_of, next_nonspace, tokens, FileInfo, Workspace};
use crate::{Finding, PassReport};

/// Replaces comments and string/char literals with spaces (newlines
/// preserved) so token scans never match inside text.
#[must_use]
pub fn blank_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, b: u8| out.push(if b == b'\n' { b'\n' } else { b' ' });
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1;
                blank(&mut out, bytes[i]);
                blank(&mut out, bytes[i + 1]);
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if i + 1 < bytes.len() && bytes[i] == b'/' && bytes[i + 1] == b'*' {
                        depth += 1;
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                    } else if i + 1 < bytes.len() && bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        depth -= 1;
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                    } else {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < bytes.len() && (bytes[i + 1] == b'"' || bytes[i + 1] == b'#') => {
                // Raw string r"…" / r#"…"#.
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == b'"' {
                    j += 1;
                    'raw: while j < bytes.len() {
                        if bytes[j] == b'"' {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    for &b in &bytes[start..j.min(bytes.len())] {
                        blank(&mut out, b);
                    }
                    i = j;
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b'"' => {
                blank(&mut out, bytes[i]);
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                    } else if bytes[i] == b'"' {
                        blank(&mut out, bytes[i]);
                        i += 1;
                        break;
                    } else {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes ('x' or '\n'); a lifetime has no closing quote.
                let is_char = if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    bytes[i + 3..].first() == Some(&b'\'')
                        || bytes[i + 2..].iter().take(6).any(|&b| b == b'\'')
                } else {
                    i + 2 < bytes.len() && bytes[i + 2] == b'\''
                };
                if is_char {
                    let mut j = i + 1;
                    if j < bytes.len() && bytes[j] == b'\\' {
                        j += 2;
                        while j < bytes.len() && bytes[j] != b'\'' {
                            j += 1;
                        }
                    } else {
                        while j < bytes.len() && bytes[j] != b'\'' {
                            j += 1;
                        }
                    }
                    for &b in &bytes[i..=j.min(bytes.len() - 1)] {
                        blank(&mut out, b);
                    }
                    i = j + 1;
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Additionally blanks every `#[cfg(test)]`-gated item (the attribute's
/// following block), so test-only code is exempt from the rules.
#[must_use]
pub fn blank_test_items(blanked: &str) -> String {
    let mut out = blanked.as_bytes().to_vec();
    let mut from = 0;
    while let Some(pos) = blanked[from..].find("#[cfg(test)]") {
        let attr = from + pos;
        // Find the opening brace of the gated item and blank through its
        // matching close.
        let mut depth = 0usize;
        let mut started = false;
        let bytes = blanked.as_bytes();
        let mut j = attr;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    depth += 1;
                    started = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end = (j + 1).min(bytes.len());
        for b in &mut out[attr..end] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        from = end;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The full `{ … }` block starting at the first non-space byte at or
/// after `from`, if that byte opens a block (brace-matched on blanked
/// source).
fn block_at(code: &str, from: usize) -> Option<&str> {
    let (open, b) = next_nonspace(code, from)?;
    if b != b'{' {
        return None;
    }
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut k = open;
    while k < bytes.len() {
        match bytes[k] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&code[open..=k]);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Whether an `unsafe` block body reaches `std::arch` SIMD territory:
/// a raw `_mm*` intrinsic, an `arch::` path, or a call into the
/// workspace's `avx2::` dispatch module.
fn is_simd_unsafe(body: &str) -> bool {
    body.contains("_mm") || body.contains("arch::") || body.contains("avx2::")
}

/// Whether an `unsafe` block body makes a raw `libc::` call. A wrong FFI
/// contract (pointer validity, buffer length, lifetime of what the C side
/// keeps) is undefined behaviour that no test can reliably catch, so
/// these blocks are held to the same unwaivable standard as SIMD
/// dispatch.
fn is_libc_unsafe(body: &str) -> bool {
    body.contains("libc::")
}

/// One `// sar-check: allow(<rule>)` waiver comment, with use tracking:
/// a waiver that no longer suppresses any finding is itself a lint error
/// (`unused-waiver`), so the audit trail cannot rot as code moves.
struct Waiver {
    /// 1-based line of the waiver comment.
    line: usize,
    /// The waived rule name.
    rule: String,
    /// Whether this waiver suppressed at least one finding.
    used: bool,
}

/// Every waiver of one file. Collected from plain `//` comments only —
/// `///` / `//!` doc prose *mentioning* the syntax (like this module's
/// own docs) is never a waiver, and neither is a string literal.
pub(crate) struct Waivers {
    entries: Vec<Waiver>,
}

impl Waivers {
    pub(crate) fn collect(raw: &str, line_starts: &[usize]) -> Waivers {
        let mut entries = Vec::new();
        for (start, end) in crate::ast::comment_spans(raw) {
            let text = &raw[start..end];
            let Some(pos) = text.find("sar-check: allow(") else {
                continue;
            };
            let rest = &text[pos + "sar-check: allow(".len()..];
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rule = rest[..close].trim().to_string();
            if rule.is_empty() {
                continue;
            }
            entries.push(Waiver {
                line: line_of(line_starts, start),
                rule,
                used: false,
            });
        }
        Waivers { entries }
    }

    /// Whether a waiver for `rule` covers the flagged `line` — on the
    /// line itself, or anywhere in the contiguous comment block directly
    /// above it (multi-line reasons are encouraged). Marks every covering
    /// waiver as used.
    pub(crate) fn check(&mut self, raw_lines: &[&str], line: usize, rule: &str) -> bool {
        let mut covering = vec![line];
        let mut l = line.saturating_sub(1);
        while l >= 1 && l <= raw_lines.len() && raw_lines[l - 1].trim_start().starts_with("//") {
            covering.push(l);
            l -= 1;
        }
        let mut hit = false;
        for w in &mut self.entries {
            if w.rule == rule && covering.contains(&w.line) {
                w.used = true;
                hit = true;
            }
        }
        hit
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
        || rel == "crates/tensor/src/tier.rs"
}

/// Whether the `phase-scope` rule applies: `sar-core` and `sar-serve`
/// sources (the serving engine's MFG exchange is ledger-audited the
/// same way training is — unattributed traffic would corrupt the
/// fetch-byte acceptance bound).
fn phase_rule_applies(rel: &str) -> bool {
    rel.starts_with("crates/core/src/") || rel.starts_with("crates/serve/src/")
}

fn lint_file(ws: &Workspace, file: &FileInfo, report: &mut PassReport) {
    let raw_lines: Vec<&str> = file.raw.lines().collect();
    let toks = tokens(&file.code);
    let mut waivers = Waivers::collect(&file.raw, &file.line_starts);

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
            if (is_call || is_macro) && !waivers.check(&raw_lines, line, "no-panic-path") {
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
                let simd = body.is_some_and(is_simd_unsafe);
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
                } else if !covered && !waivers.check(&raw_lines, line, "safety-comment") {
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
            if is_ctor && !waivers.check(&raw_lines, line, "no-unbounded-channel") {
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

    // Rule: phase-scope — function granularity.
    if phase_rule_applies(&file.rel) {
        for f in file.fns.iter().map(|&fi| &ws.fns[fi]) {
            let (name, line) = (&f.name, f.line);
            let normalized: String = f.body.chars().filter(|c| !c.is_whitespace()).collect();
            let comm_call = crate::ledgercheck::CTX_COMM_CALLS
                .iter()
                .find(|call| normalized.contains(&format!("ctx.{call}(")));
            if let Some(call) = comm_call {
                let scoped =
                    normalized.contains("phase_scope(") || normalized.contains("current_phase(");
                if !scoped && !waivers.check(&raw_lines, line, "phase-scope") {
                    report.findings.push(Finding {
                        rule: "phase-scope".into(),
                        location: format!("{}:{line}", file.rel),
                        message: format!(
                            "fn `{name}` calls `ctx.{call}` without opening a \
                             phase_scope — its bytes would be ledgered as Other"
                        ),
                    });
                }
            }
        }
    }

    // Rule: unused-waiver. A waiver that suppressed nothing this run is
    // dead — the offending code moved, the rule stopped firing here, or
    // it waives an unwaivable rule — and a dead waiver is a latent hole:
    // code drifting back under it would be silently exempted.
    report.bump("waivers_tracked", waivers.entries.len() as u64);
    for w in &waivers.entries {
        if !w.used {
            report.findings.push(Finding {
                rule: "unused-waiver".into(),
                location: format!("{}:{}", file.rel, w.line),
                message: format!(
                    "waiver `allow({})` no longer suppresses any finding — delete \
                     it (or fix the rule name) so the audit trail stays honest",
                    w.rule
                ),
            });
        }
    }
}

/// Runs the linter over `root` (the workspace checkout) and reports every
/// finding. Scans `crates/*/src/**/*.rs`; `vendor/` (API stand-ins for
/// the offline build) and `target/` are never scanned.
#[must_use]
pub fn run(root: &Path) -> PassReport {
    let mut report = PassReport::new("lint");
    let ws = Workspace::load(root);
    for file in &ws.files {
        report.bump("files_scanned", 1);
        lint_file(&ws, file, &mut report);
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

    #[test]
    fn spill_tier_is_on_the_no_panic_path() {
        // The spill IO path runs under every fault/evict during training;
        // an `unwrap` there turns a full disk into a mesh-wide abort with
        // no rank-naming diagnostic. Pin the tier module to the rule.
        assert!(panic_rule_applies("crates/tensor/src/tier.rs"));
        assert!(!panic_rule_applies("crates/tensor/src/memory.rs"));
    }

    #[test]
    fn blanking_preserves_line_structure() {
        let src = "let a = \"un//wrap()\"; // unwrap()\nlet b = 1;\n";
        let blanked = blank_comments_and_strings(src);
        assert_eq!(blanked.lines().count(), src.lines().count());
        assert!(!blanked.contains("unwrap"));
        assert!(blanked.contains("let b = 1;"));
    }

    #[test]
    fn char_literals_and_lifetimes_survive() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let blanked = blank_comments_and_strings(src);
        assert!(blanked.contains("'a str"));
        assert!(!blanked.contains("'x'"));
    }

    #[test]
    fn test_items_are_exempt() {
        let src =
            "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\n";
        let code = blank_test_items(&blank_comments_and_strings(src));
        assert!(code.contains("x.unwrap"));
        assert!(!code.contains("y.unwrap"));
    }

    fn lint_at(rel: &str, raw: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[(rel, raw)]);
        let mut report = PassReport::new("lint");
        lint_file(&ws, &ws.files[0], &mut report);
        report.findings
    }

    fn lint_source(raw: &str) -> Vec<Finding> {
        lint_at("crates/x/src/a.rs", raw)
    }

    #[test]
    fn unscoped_comm_call_is_flagged_per_function() {
        let bad =
            "impl W {\n    fn exchange(&self) {\n        self.ctx.try_send(d, t, p);\n    }\n}\n";
        let findings = lint_at("crates/core/src/w.rs", bad);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "phase-scope");
        assert_eq!(findings[0].location, "crates/core/src/w.rs:2");
        let scoped = bad.replace(
            "self.ctx.try_send",
            "let _p = self.ctx.phase_scope(x);\n        self.ctx.try_send",
        );
        assert!(lint_at("crates/core/src/w.rs", &scoped).is_empty());
        // Outside sar-core / sar-serve the rule does not apply.
        assert!(lint_source(bad).is_empty());
    }

    #[test]
    fn simd_unsafe_blocks_require_safety_and_ignore_waivers() {
        // A waiver does NOT silence the rule for a std::arch block — and
        // since it suppressed nothing, the waiver itself is flagged dead.
        let waived = "fn f() {\n\
                      // sar-check: allow(safety-comment) — trust me\n\
                      unsafe { avx2::add_assign(dst, src) };\n}\n";
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
        let covered = "fn f() {\n\
                       // SAFETY: dispatch guarded by detect_avx2().\n\
                       unsafe { avx2::add_assign(dst, src) };\n}\n";
        assert!(lint_source(covered).is_empty());

        // Non-SIMD unsafe blocks can still be waived as before.
        let generic = "fn f() {\n\
                       // sar-check: allow(safety-comment) — audited\n\
                       unsafe { ptr.read() };\n}\n";
        assert!(lint_source(generic).is_empty());
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
    }
}
