//! Pass 4: the determinism-taint verifier.
//!
//! The workspace's central correctness claim — `parity_digest()` is
//! bitwise identical at any `{threads, prefetch depth, transport, codec,
//! memory budget}` — is only as strong as the absence of nondeterminism
//! sources on the digest-bearing hot paths. This pass makes that absence
//! a static property instead of a test matrix. It computes the call-graph
//! closure (over [`crate::ast`]) of the digest-bearing roots — the graph
//! kernels, `seq_agg`, the wire codec, the rotation worker (walker and
//! gradient router), the layer forward the serve engine shares with
//! training, the engine's MFG path, and the tiered store — restricted to
//! the hot-path
//! file set, and rejects three source classes inside that closure:
//!
//! * **`taint-unordered-iter`** — iterating a `HashMap`/`HashSet`
//!   (`.iter()`, `.keys()`, `.values()`, `.drain()`, `for … in map`):
//!   iteration order varies per process, so any fold over it is
//!   nondeterministic. Keyed access (`get`/`insert`/`remove`) is fine.
//! * **`taint-time-source`** — `Instant::now`, `SystemTime::now`,
//!   `clock_gettime`, thread identity, `available_parallelism`: values
//!   that differ across runs. Metering counters legitimately read clocks
//!   but must never feed the digest — each such site carries a reviewed
//!   annotation saying so.
//! * **`taint-unordered-accum`** — float `+=`/`-=`/`*=`/`/=` targets:
//!   float addition is non-associative, so accumulation is deterministic
//!   only under a fixed order. Every accumulating function must state its
//!   ordering argument (one writer per row, fixed rank order, sequential
//!   loop) in an annotation.
//!
//! The exemption vocabulary is `// sar-check: deterministic(<why>)` — on
//! the flagged line (or its contiguous comment block) for iteration/time
//! sites, or on the `fn` declaration to approve every accumulation in
//! that function. Annotations are *not* waivers: a waiver mutes a style
//! rule, an annotation records a reviewed determinism argument that this
//! pass counts and reports. The taint lattice is deliberately shallow —
//! `untyped ⊑ deterministic ⊑ tainted` — with unresolvable types staying
//! `untyped` (never flagged): the pass under-approximates typing but
//! never silently drops a *typed* source.

use std::path::Path;

use crate::ast::{line_of, next_nonspace, tokens, Annotation, Workspace};
use crate::{Finding, PassReport};

/// Files whose every function is digest-bearing from the first
/// instruction: the kernels, the autograd aggregation ops, the wire
/// codec, and the spill tier.
const ROOT_FILES: &[&str] = &[
    "crates/graph/src/ops.rs",
    "crates/graph/src/fused.rs",
    "crates/graph/src/walk.rs",
    "crates/tensor/src/simd.rs",
    "crates/core/src/seq_agg.rs",
    "crates/comm/src/codec.rs",
    "crates/tensor/src/tier.rs",
];

/// Digest-bearing functions on mixed files (the rest of those files is
/// config/reporting surface).
const ROOT_FNS: &[(&str, &str)] = &[
    ("crates/core/src/worker.rs", "try_fetch_rounds"),
    ("crates/core/src/worker.rs", "fetch_rounds"),
    ("crates/core/src/worker.rs", "exchange_grads"),
    ("crates/core/src/worker.rs", "push"),
    ("crates/core/src/worker.rs", "finish"),
    ("crates/core/src/worker.rs", "serve"),
    ("crates/core/src/worker.rs", "try_receive_block"),
    ("crates/core/src/model.rs", "layer_forward"),
    ("crates/serve/src/engine.rs", "run_batch"),
    ("crates/serve/src/engine.rs", "build_mfg"),
    ("crates/serve/src/engine.rs", "forward_mfg"),
    ("crates/serve/src/engine.rs", "gather_results"),
    ("crates/comm/src/ctx.rs", "try_send"),
    ("crates/comm/src/ctx.rs", "send"),
    ("crates/comm/src/ctx.rs", "recv"),
    ("crates/comm/src/ctx.rs", "try_recv"),
    ("crates/comm/src/ctx.rs", "encode_for_wire"),
    ("crates/comm/src/ctx.rs", "decode_arrival"),
];

/// The hot-path file set the closure may descend into. Names outside this
/// set resolve to nothing: the boundary is explicit, not accidental.
const HOT_FILES: &[&str] = &[
    "crates/graph/src/ops.rs",
    "crates/graph/src/fused.rs",
    "crates/graph/src/walk.rs",
    "crates/graph/src/csr.rs",
    "crates/tensor/src/simd.rs",
    "crates/tensor/src/tensor.rs",
    "crates/tensor/src/pool.rs",
    "crates/tensor/src/tier.rs",
    "crates/core/src/seq_agg.rs",
    "crates/core/src/worker.rs",
    "crates/core/src/model.rs",
    "crates/core/src/mfg.rs",
    "crates/serve/src/engine.rs",
    "crates/comm/src/codec.rs",
    "crates/comm/src/ctx.rs",
    "crates/comm/src/buffer.rs",
];

/// Hash-collection methods whose result order is unordered.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// Substrings identifying run-varying value sources in blanked code.
const TIME_SOURCES: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "clock_gettime",
    "thread::current",
    "ThreadId",
    "available_parallelism",
];

/// Whether `rel` is inside the hot-path descent set.
fn is_hot(rel: &str) -> bool {
    HOT_FILES.contains(&rel)
}

/// Runs the pass over a workspace checkout. On a full checkout every
/// declared root must resolve: a root naming a file or function that a
/// refactor renamed or deleted would otherwise silently shrink the
/// closure while the pass stays green.
#[must_use]
pub fn run(root: &Path) -> PassReport {
    let ws = Workspace::load(root);
    let mut report = run_ws(&ws);
    report.findings.extend(unresolved_roots(&ws));
    report
}

/// One finding per declared root (`ROOT_FILES`, `ROOT_FNS`) that `ws`
/// does not contain.
#[must_use]
pub fn unresolved_roots(ws: &Workspace) -> Vec<Finding> {
    let has_file = |rel: &str| ws.files.iter().any(|f| f.rel == rel);
    let has_fn = |rel: &str, name: &str| {
        ws.fns_by_name(name)
            .iter()
            .any(|&fi| ws.file_of(fi).rel == rel)
    };
    let missing_files = ROOT_FILES.iter().filter(|rel| !has_file(rel)).map(|rel| {
        (
            rel.to_string(),
            format!("root file `{rel}` is not in the workspace"),
        )
    });
    let missing_fns = ROOT_FNS
        .iter()
        .filter(|(rel, name)| !has_fn(rel, name))
        .map(|(rel, name)| {
            (
                rel.to_string(),
                format!("root fn `{name}` does not exist in `{rel}`"),
            )
        });
    missing_files
        .chain(missing_fns)
        .map(|(location, what)| Finding {
            rule: "taint-root-unresolved".into(),
            location,
            message: format!(
                "{what} — it was renamed or deleted; update the root set in taint.rs \
                 or the digest closure silently shrinks"
            ),
        })
        .collect()
}

/// Float-typed parameter names parsed out of a blanked signature.
fn float_params(sig: &str) -> Vec<String> {
    let Some(open) = sig.find('(') else {
        return Vec::new();
    };
    let mut depth = 0i32;
    let mut close = sig.len();
    for (i, b) in sig.bytes().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    close = i;
                    break;
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for part in split_top_level(&sig[open + 1..close], b',') {
        if let Some((name, ty)) = part.split_once(':') {
            if ty.contains("f32") || ty.contains("f64") {
                let name = name.trim().trim_start_matches("mut ").trim();
                if !name.is_empty() {
                    out.push(name.to_string());
                }
            }
        }
    }
    out
}

/// Splits `text` on `sep` at angle/paren/bracket depth zero.
fn split_top_level(text: &str, sep: u8) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => depth -= 1,
            b if b == sep && depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

/// Runs the pass over an in-memory workspace model (the mutation-test
/// entry point).
#[must_use]
pub fn run_ws(ws: &Workspace) -> PassReport {
    let mut report = PassReport::new("taint");

    // Root set.
    let mut roots: Vec<usize> = Vec::new();
    for (idx, file) in ws.files.iter().enumerate() {
        if ROOT_FILES.contains(&file.rel.as_str()) {
            roots.extend(ws.files[idx].fns.iter().copied());
        }
    }
    for &(rel, name) in ROOT_FNS {
        for &fi in ws.fns_by_name(name) {
            if ws.file_of(fi).rel == rel {
                roots.push(fi);
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();
    report.bump("taint_roots", roots.len() as u64);

    let closure = ws.closure(&roots, |f| is_hot(&f.rel));
    report.bump("fns_checked", closure.len() as u64);
    let files_in_closure = {
        let mut fs: Vec<usize> = closure.iter().map(|&fi| ws.fns[fi].file).collect();
        fs.sort_unstable();
        fs.dedup();
        fs.len()
    };
    report.bump("files_in_closure", files_in_closure as u64);

    let mut annotations_honored = 0u64;
    for &fi in &closure {
        let f = &ws.fns[fi];
        let file = &ws.files[f.file];
        let fn_accum_exempt = ws.annotation_at(file, f.line, "deterministic");
        let mut used_fn_exempt = false;

        let body_line = |off: usize| line_of(&file.line_starts, f.body_offset + off);
        let toks = tokens(&f.body);

        // Rule: taint-time-source.
        for needle in TIME_SOURCES {
            let mut from = 0;
            while let Some(pos) = f.body[from..].find(needle) {
                let off = from + pos;
                from = off + needle.len();
                report.bump("time_sites_checked", 1);
                let line = body_line(off);
                if let Some(a) = ws.annotation_at(file, line, "deterministic") {
                    let _: &Annotation = a;
                    annotations_honored += 1;
                    continue;
                }
                report.findings.push(Finding {
                    rule: "taint-time-source".into(),
                    location: format!("{}:{line}", file.rel),
                    message: format!(
                        "`{needle}` inside digest-bearing fn `{}` — a run-varying value \
                         on a hot path; if it only feeds metering counters, say so with \
                         `// sar-check: deterministic(metering: …)`",
                        f.name
                    ),
                });
            }
        }

        // Rule: taint-unordered-iter.
        for (ti, &(start, text)) in toks.iter().enumerate() {
            if !file.hash_names.iter().any(|n| n == text) {
                continue;
            }
            let end = start + text.len();
            // `for … in map` (tokens skip `&`/`&mut` sigils).
            let for_loop = ti > 0 && toks[ti - 1].1 == "in";
            // `map.iter()` / `map.drain(…)` / `map.keys()` …
            let method_iter = next_nonspace(&f.body, end).is_some_and(|(dot, b)| {
                b == b'.'
                    && toks.get(ti + 1).is_some_and(|&(mstart, m)| {
                        mstart > dot
                            && ITER_METHODS.contains(&m)
                            && next_nonspace(&f.body, mstart + m.len())
                                .is_some_and(|(_, b)| b == b'(')
                    })
            });
            if !(for_loop || method_iter) {
                continue;
            }
            report.bump("iter_sites_checked", 1);
            let line = body_line(start);
            if ws.annotation_at(file, line, "deterministic").is_some() {
                annotations_honored += 1;
                continue;
            }
            report.findings.push(Finding {
                rule: "taint-unordered-iter".into(),
                location: format!("{}:{line}", file.rel),
                message: format!(
                    "iteration over hash collection `{text}` inside digest-bearing \
                     fn `{}` — HashMap/HashSet order varies per process; use keyed \
                     access, an ordered structure, or annotate the reviewed \
                     determinism argument",
                    f.name
                ),
            });
        }

        // Rule: taint-unordered-accum.
        let mut float_names: Vec<String> = file.float_names.clone();
        float_names.extend(float_params(&f.sig));
        let bytes = f.body.as_bytes();
        for i in 0..bytes.len().saturating_sub(1) {
            let op = matches!(bytes[i], b'+' | b'-' | b'*' | b'/') && bytes[i + 1] == b'=';
            // Exclude `==`-adjacent forms (`!=`, `<=`…) by construction and
            // `->`/`=>`-like sequences by requiring `=` not followed by `=`.
            if !op || bytes.get(i + 2) == Some(&b'=') {
                continue;
            }
            report.bump("accum_sites_checked", 1);
            // LHS: the statement fragment before the operator.
            let stmt_start = f.body[..i]
                .rfind(['\n', ';', '{', '}'])
                .map_or(0, |p| p + 1);
            let lhs = &f.body[stmt_start..i];
            let lhs_floats = tokens(lhs)
                .iter()
                .any(|(_, t)| float_names.iter().any(|n| n == t));
            if !lhs_floats {
                continue;
            }
            let line = body_line(i);
            if fn_accum_exempt.is_some() {
                used_fn_exempt = true;
                continue;
            }
            if ws.annotation_at(file, line, "deterministic").is_some() {
                annotations_honored += 1;
                continue;
            }
            report.findings.push(Finding {
                rule: "taint-unordered-accum".into(),
                location: format!("{}:{line}", file.rel),
                message: format!(
                    "float accumulation `{}=` in digest-bearing fn `{}` without a \
                     determinism annotation — float addition is non-associative; \
                     state the ordering argument with \
                     `// sar-check: deterministic(…)` on the fn",
                    bytes[i] as char, f.name
                ),
            });
        }
        if used_fn_exempt {
            annotations_honored += 1;
        }
    }
    report.bump("deterministic_annotations", annotations_honored);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(sources: &[(&str, &str)]) -> Vec<Finding> {
        run_ws(&Workspace::from_sources(sources)).findings
    }

    #[test]
    fn hash_iteration_in_root_is_flagged_and_annotation_exempts() {
        let bad = "\
fn spmm_sum(g: usize) {
    let order = HashMap::new();
    for (k, v) in order {
        consume(k, v);
    }
}
";
        let findings = findings_for(&[("crates/graph/src/ops.rs", bad)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "taint-unordered-iter");

        let annotated = "\
fn spmm_sum(g: usize) {
    let order = HashMap::new();
    // sar-check: deterministic(singleton map — one entry by construction)
    for (k, v) in order {
        consume(k, v);
    }
}
";
        assert!(findings_for(&[("crates/graph/src/ops.rs", annotated)]).is_empty());
    }

    #[test]
    fn keyed_hash_access_is_not_flagged() {
        let src = "\
fn encode_block(id: u64) {
    let cache = HashMap::new();
    let hit = cache.get(&id);
    cache.insert(id, 1);
    cache.remove(&id);
    let _ = hit;
}
";
        assert!(findings_for(&[("crates/comm/src/codec.rs", src)]).is_empty());
    }

    #[test]
    fn time_source_reached_through_call_graph_is_flagged() {
        // The violation sits in a helper one call-edge away from the
        // root, in another hot file — proving the closure traversal.
        let root = "fn fetch_rounds() { stamp(); }\n";
        let helper = "fn stamp() { let t = Instant::now(); consume(t); }\n";
        let findings = findings_for(&[
            ("crates/core/src/worker.rs", root),
            ("crates/tensor/src/pool.rs", helper),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "taint-time-source");
        assert!(findings[0]
            .location
            .starts_with("crates/tensor/src/pool.rs"));

        // Outside the hot-file set the helper is beyond the documented
        // boundary and not analyzed.
        let outside = findings_for(&[
            ("crates/core/src/worker.rs", root),
            ("crates/bench/src/smoke.rs", helper),
        ]);
        assert!(outside.is_empty(), "{outside:?}");
    }

    #[test]
    fn metering_annotation_exempts_time_source() {
        let src = "\
fn try_fetch_rounds() {
    // sar-check: deterministic(metering: feeds disk_blocked_us only, never the digest)
    let begin = Instant::now();
    consume(begin);
}
";
        let report = run_ws(&Workspace::from_sources(&[(
            "crates/core/src/worker.rs",
            src,
        )]));
        assert!(report.clean(), "{:?}", report.findings);
        let honored = report
            .stats
            .iter()
            .find(|(n, _)| n == "deterministic_annotations")
            .map(|(_, v)| *v);
        assert_eq!(honored, Some(1));
    }

    #[test]
    fn renamed_or_deleted_root_is_an_error_not_a_silent_drop() {
        // A checkout where `worker.rs` lost `try_fetch_rounds` (renamed,
        // say) must name that root; the roots that still resolve must not
        // be reported.
        let ws = Workspace::from_sources(&[(
            "crates/core/src/worker.rs",
            "fn fetch_rounds() {}\nfn exchange_grads() {}\n",
        )]);
        let findings = unresolved_roots(&ws);
        assert!(findings.iter().all(|f| f.rule == "taint-root-unresolved"));
        let names = |needle: &str| findings.iter().any(|f| f.message.contains(needle));
        assert!(names("`try_fetch_rounds`"), "{findings:?}");
        assert!(names("`crates/graph/src/ops.rs`"), "{findings:?}");
        assert!(!names("`fetch_rounds`"), "{findings:?}");
        assert!(!names("`exchange_grads`"), "{findings:?}");
    }

    #[test]
    fn unannotated_float_accumulation_is_flagged_fn_annotation_approves() {
        let bad = "\
fn edge_softmax(scores: &mut [f32]) {
    let mut denom = 0.0;
    for s in scores.iter() {
        denom += s;
    }
    consume(denom);
}
";
        let findings = findings_for(&[("crates/graph/src/ops.rs", bad)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "taint-unordered-accum");

        let approved = "\
// sar-check: deterministic(sequential edge loop — one thread per row, fixed edge order)
fn edge_softmax(scores: &mut [f32]) {
    let mut denom = 0.0;
    for s in scores.iter() {
        denom += s;
    }
    consume(denom);
}
";
        assert!(findings_for(&[("crates/graph/src/ops.rs", approved)]).is_empty());
    }

    #[test]
    fn integer_accumulation_is_untyped_and_never_flagged() {
        let src = "\
fn gather_src(n: usize) {
    let mut count = 0usize;
    for i in 0..n {
        count += i;
    }
    consume(count);
}
";
        assert!(findings_for(&[("crates/graph/src/ops.rs", src)]).is_empty());
    }
}
