//! The CI smoke gate, shared between transports.
//!
//! `repro smoke` runs scaled-down 4-worker GraphSage and GAT training
//! and checks the observability ledgers against the paper's
//! communication claims (Algorithm 2 cases 1 and 2). The workload
//! definitions and the invariant checks live here so the in-process
//! simulated backend (`repro smoke`) and the multi-process TCP backend
//! (`repro smoke --transport tcp`, which spawns one `sar-worker` process
//! per rank) gate on *exactly* the same program and the same rules —
//! any divergence between the backends then fails the same check.
//!
//! The per-run overlap records `repro smoke --out` collects into
//! `BENCH_overlap.json`, and the `repro overlap-check` diff against the
//! committed copy, live here too: one module writes and reads that
//! schema.

use std::collections::BTreeMap;

use crate::json::{self, obj, Value};

use crate::distrun::Workload;
use crate::harness::Transport;
use crate::report::{mib, RunReport, Table};
use sar_comm::Phase;

/// Worker count for the smoke runs.
pub const WORLD: usize = 4;
/// Epoch count for the smoke runs.
pub const EPOCHS: usize = 3;
/// Architectures the smoke gate defines workloads for.
pub const MODELS: [&str; 2] = ["sage", "gat"];

/// The smoke workload for `"sage"` or `"gat"`. `nodes` and `seed` come
/// from the `repro` flags; everything else is pinned here.
///
/// # Errors
///
/// Rejects an architecture outside [`MODELS`] with a message listing the
/// supported names — surfaced at CLI parse time by `repro smoke --model`
/// instead of panicking mid-run.
pub fn workload(arch: &str, nodes: usize, seed: u64) -> Result<Workload, String> {
    let base = Workload {
        dataset: "products".into(),
        nodes,
        layers: 3,
        epochs: EPOCHS,
        lr: 0.01,
        dropout: 0.3,
        label_aug: true,
        aug_frac: 0.5,
        // No Correct & Smooth: its propagation rounds would fold extra
        // fetch traffic into the forward-fetch ledger and blur the
        // forward/backward volume comparison below.
        cs: false,
        prefetch_depth: 0,
        partitioner: "ml".into(),
        schedule: "constant".into(),
        seed,
        ..Workload::default()
    };
    match arch {
        "sage" => Ok(Workload {
            arch: "sage".into(),
            hidden: 64,
            mode: "sar".into(),
            ..base
        }),
        "gat" => Ok(Workload {
            arch: "gat".into(),
            hidden: 16,
            heads: 4,
            mode: "sar-fak".into(),
            ..base
        }),
        other => Err(format!(
            "unknown smoke model {other:?}; supported models: {}",
            MODELS.join(", ")
        )),
    }
}

/// The per-worker ledger table printed by the smoke gate.
pub fn ledger_table(report: &RunReport) -> Table {
    let mut t = Table::new(
        format!("{} — per-worker ledger (MiB received)", report.experiment),
        &[
            "rank",
            "fwd fetch",
            "bwd refetch",
            "grad routing",
            "collective",
            "peak MiB",
        ],
    );
    for w in &report.workers {
        t.row(vec![
            w.rank.to_string(),
            mib(w.phase_sum(Phase::ForwardFetch, |e| e.recv_bytes) as usize),
            mib(w.phase_sum(Phase::BackwardRefetch, |e| e.recv_bytes) as usize),
            mib(w.phase_sum(Phase::GradRouting, |e| e.recv_bytes) as usize),
            mib(w.phase_sum(Phase::Collective, |e| e.recv_bytes) as usize),
            mib(w.steady_peak_bytes),
        ]);
    }
    t
}

/// Checks a smoke run's report against the paper's ledger invariants.
/// Returns the violations found (empty = gate passes):
///
/// * any non-finite training loss;
/// * a rank that fetched zero forward bytes (the partition degenerated);
/// * `sage` — Algorithm 2 case 1: the backward pass must add **zero**
///   refetch traffic, sent or received;
/// * `gat` — Algorithm 2 case 2: each of the `epochs` backward passes
///   re-fetches exactly what one of the `epochs + 1` forward passes (the
///   extra one is evaluation) fetched, within 2%.
pub fn violations(report: &RunReport, epochs: usize) -> Vec<String> {
    let exp = &report.experiment;
    let mut violations = Vec::new();
    if report.has_non_finite_loss() {
        violations.push(format!(
            "{exp}: non-finite training loss {:?}",
            report.losses
        ));
    }
    for w in &report.workers {
        let fwd = w.phase_sum(Phase::ForwardFetch, |e| e.recv_bytes);
        let refetch_recv = w.phase_sum(Phase::BackwardRefetch, |e| e.recv_bytes);
        let refetch_sent = w.phase_sum(Phase::BackwardRefetch, |e| e.sent_bytes);
        if fwd == 0 {
            violations.push(format!("{exp}: rank {} fetched zero forward bytes", w.rank));
        }
        match report.arch.as_str() {
            "sage" if refetch_recv + refetch_sent != 0 => {
                violations.push(format!(
                    "{exp}: rank {} sage backward refetched {refetch_recv}B recv / \
                     {refetch_sent}B sent (expected 0)",
                    w.rank
                ));
            }
            "gat" => {
                let expected = fwd as f64 * epochs as f64 / (epochs + 1) as f64;
                let rel = (refetch_recv as f64 - expected).abs() / expected.max(1.0);
                if refetch_recv == 0 || rel > 0.02 {
                    violations.push(format!(
                        "{exp}: rank {} gat refetched {refetch_recv}B, expected ~{expected:.0}B \
                         (rel err {rel:.4})",
                        w.rank
                    ));
                }
            }
            _ => {}
        }
    }
    violations
}

/// The first line on which two [`RunReport::parity_digest`] strings
/// disagree, as a one-line `baseline vs run` diff — or `None` when they
/// match. Digest lines are labeled (`losses …`, `w3 grad_routing/1 …`),
/// so the diff names exactly which loss or which rank's ledger diverged.
pub fn digest_diff(baseline: &str, run: &str) -> Option<String> {
    let mut b = baseline.lines();
    let mut r = run.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (b.next(), r.next()) {
            (None, None) => return None,
            (lb, lr) if lb == lr => {}
            (lb, lr) => {
                return Some(format!(
                    "digest line {line}: baseline `{}` vs run `{}`",
                    lb.unwrap_or("<missing>"),
                    lr.unwrap_or("<missing>")
                ))
            }
        }
    }
}

// ----------------------------------------------------------------------
// BENCH_overlap.json: the per-run records and the committed-copy diff
// ----------------------------------------------------------------------

/// One smoke run's `BENCH_overlap.json` record: the run's identity plus
/// its [`RunReport::overlap_json`] scoreboard.
pub fn overlap_record(
    report: &RunReport,
    transport: Transport,
    threads: usize,
    prefetch_depth: usize,
    simd: &str,
) -> Value {
    obj([
        ("experiment", report.experiment.as_str().into()),
        ("transport", transport.name().into()),
        ("threads", threads.into()),
        ("prefetch_depth", prefetch_depth.into()),
        ("simd", simd.into()),
        ("overlap", report.overlap_json()),
    ])
}

/// The `BENCH_overlap.json` document over the collected records, one
/// run per line.
#[must_use]
pub fn overlap_artifact(records: Vec<Value>) -> String {
    obj([("runs", Value::Arr(records))]).pretty(2) + "\n"
}

/// Identity of one smoke run inside `BENCH_overlap.json`.
fn overlap_run_key(run: &Value) -> Result<String, String> {
    Ok(format!(
        "{}/{}/t{}/d{}/{}",
        run.req_str("experiment")?,
        run.req_str("transport")?,
        run.req_num("threads")?,
        run.req_num("prefetch_depth")?,
        // Optional for pre-SIMD artifacts; the default matches the
        // historical behaviour.
        run.get("simd").and_then(Value::str).unwrap_or("auto"),
    ))
}

fn overlap_phases(run: &Value) -> &[Value] {
    run.get("overlap").map_or(&[], |o| o.items("phases"))
}

/// Diffs a freshly generated `BENCH_overlap.json` against the committed
/// copy. Timings legitimately vary run to run, so the comparison covers
/// only *structure and invariants*:
///
/// * the run set (experiment, transport, threads, prefetch-depth, simd)
///   must be identical in both files,
/// * each run's phase-name set must match the committed run's,
/// * every phase must satisfy `0 ≤ blocked_us ≤ wall_us` and
///   `cpu_us ≥ 0` — blocked time is a measured subset of wall time, so
///   a violation means the ledger itself is corrupt. Phases the runtime
///   does not wall-clock (`wall_us == 0`, e.g. `collective`) only need
///   their entries non-negative.
///
/// Returns the violations (empty = the artifact is consistent).
#[must_use]
pub fn overlap_check(current_text: &str, committed_text: &str) -> Vec<String> {
    let parse_runs = |label: &str, text: &str| -> Result<BTreeMap<String, Value>, String> {
        let doc = json::parse(text).map_err(|e| format!("{label}: JSON parse error: {e}"))?;
        let runs = doc
            .get("runs")
            .and_then(Value::arr)
            .ok_or_else(|| format!("{label}: no \"runs\" array"))?;
        runs.iter()
            .map(|run| {
                let key = overlap_run_key(run).map_err(|e| format!("{label}: run record: {e}"))?;
                Ok((key, run.clone()))
            })
            .collect()
    };
    let (current, committed) = match (
        parse_runs("current", current_text),
        parse_runs("committed", committed_text),
    ) {
        (Ok(cur), Ok(com)) => (cur, com),
        (Err(e), _) | (_, Err(e)) => return vec![e],
    };
    let mut violations = Vec::new();
    for key in committed.keys() {
        if !current.contains_key(key) {
            violations.push(format!(
                "run {key} is in the committed BENCH_overlap.json but was not produced \
                 — the smoke matrix changed; regenerate the committed copy"
            ));
        }
    }
    let phase_names = |run: &Value| -> Vec<String> {
        let mut names: Vec<String> = overlap_phases(run)
            .iter()
            .filter_map(|p| p.get("phase").and_then(Value::str).map(str::to_string))
            .collect();
        names.sort();
        names
    };
    for (key, run) in &current {
        let Some(base) = committed.get(key) else {
            violations.push(format!(
                "run {key} is new (not in the committed BENCH_overlap.json) — \
                 regenerate the committed copy"
            ));
            continue;
        };
        let (cur_phases, base_phases) = (phase_names(run), phase_names(base));
        if cur_phases != base_phases {
            violations.push(format!(
                "run {key}: phase set {cur_phases:?} differs from committed {base_phases:?}"
            ));
        }
        for p in overlap_phases(run) {
            let name = p.get("phase").and_then(Value::str).unwrap_or("?");
            let f = |k: &str| p.get(k).and_then(Value::num);
            let (Some(w), Some(b), Some(c)) = (f("wall_us"), f("blocked_us"), f("cpu_us")) else {
                violations.push(format!(
                    "run {key} phase {name}: missing wall_us/blocked_us/cpu_us"
                ));
                continue;
            };
            if !(b >= 0.0 && w >= 0.0 && c >= 0.0) {
                violations.push(format!(
                    "run {key} phase {name}: negative ledger entry \
                     (wall={w}, blocked={b}, cpu={c})"
                ));
            }
            // Blocked time is measured inside the wall interval; allow a
            // microscopic slack for summed rounding. A zero wall means
            // the runtime never clocks the phase (the collective gather)
            // — blocked alone is fine.
            if w > 0.0 && b > w * (1.0 + 1e-9) + 1.0 {
                violations.push(format!(
                    "run {key} phase {name}: blocked_us {b} exceeds wall_us {w} \
                     — the overlap ledger is inconsistent"
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{PhaseRow, WorkerProfile};
    use sar_comm::PhaseEntry;

    fn profile(fwd: u64, refetch_recv: u64, refetch_sent: u64) -> WorkerProfile {
        let row = |phase: Phase, recv: u64, sent: u64| PhaseRow {
            phase,
            layer: None,
            entry: PhaseEntry {
                sent_bytes: sent,
                recv_bytes: recv,
                wire_sent_bytes: sent,
                wire_recv_bytes: recv,
                ..PhaseEntry::default()
            },
        };
        WorkerProfile {
            rank: 0,
            steady_peak_bytes: 0,
            total_sent_bytes: 0,
            total_recv_bytes: 0,
            comm_us: 0.0,
            phases: vec![
                row(Phase::ForwardFetch, fwd, fwd),
                row(Phase::BackwardRefetch, refetch_recv, refetch_sent),
            ],
        }
    }

    fn report(arch: &str, workers: Vec<WorkerProfile>) -> RunReport {
        RunReport {
            experiment: "t".into(),
            arch: arch.into(),
            mode: "sar".into(),
            world: workers.len(),
            losses: vec![1.0, 0.5],
            epoch_times: vec![0.1, 0.1],
            val_acc: 0.5,
            test_acc: 0.5,
            test_acc_cs: None,
            buffer_pool: None,
            workers,
        }
    }

    #[test]
    fn clean_sage_run_passes() {
        let r = report("sage", vec![profile(4000, 0, 0)]);
        assert!(violations(&r, EPOCHS).is_empty());
    }

    #[test]
    fn sage_refetch_is_flagged() {
        let r = report("sage", vec![profile(4000, 100, 0)]);
        let v = violations(&r, EPOCHS);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("sage backward refetched"));
    }

    #[test]
    fn gat_ratio_is_enforced() {
        // 3 backward refetches out of 4 forward fetches: exactly 3/4.
        let good = report("gat", vec![profile(4000, 3000, 3000)]);
        assert!(violations(&good, EPOCHS).is_empty());
        let bad = report("gat", vec![profile(4000, 1000, 1000)]);
        assert!(!violations(&bad, EPOCHS).is_empty());
    }

    #[test]
    fn nan_loss_and_zero_fetch_are_flagged() {
        let mut r = report("sage", vec![profile(0, 0, 0)]);
        r.losses = vec![f32::NAN];
        let v = violations(&r, EPOCHS);
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn smoke_workloads_pin_the_paper_configs() {
        let sage = workload("sage", 1500, 0).unwrap();
        assert_eq!((sage.arch.as_str(), sage.hidden), ("sage", 64));
        assert_eq!(sage.mode, "sar");
        let gat = workload("gat", 1500, 0).unwrap();
        assert_eq!((gat.hidden, gat.heads), (16, 4));
        assert_eq!(gat.mode, "sar-fak");
        for wl in [sage, gat] {
            assert_eq!(wl.epochs, EPOCHS);
            assert!(!wl.cs, "C&S would blur the volume comparison");
            assert_eq!(wl.schedule, "constant");
        }
    }

    #[test]
    fn unknown_smoke_model_is_a_listed_error_not_a_panic() {
        let err = workload("transformer", 1500, 0).unwrap_err();
        assert!(err.contains("transformer"), "{err}");
        assert!(err.contains("sage, gat"), "{err}");
    }

    #[test]
    fn digest_diff_names_the_first_divergent_line() {
        let base = "world 4\nlosses 3f800000\nw0 forward_fetch/0 sent=10 recv=10\n";
        assert_eq!(digest_diff(base, base), None);
        let run = "world 4\nlosses 3f800001\nw0 forward_fetch/0 sent=10 recv=10\n";
        let d = digest_diff(base, run).unwrap();
        assert!(
            d.contains("line 2") && d.contains("3f800000") && d.contains("3f800001"),
            "{d}"
        );
        assert!(!d.contains('\n'), "the diff must be a single line: {d}");
    }

    #[test]
    fn digest_diff_reports_truncated_digests() {
        let d = digest_diff("world 4\nlosses 0\n", "world 4\n").unwrap();
        assert!(d.contains("<missing>"), "{d}");
        // ...in either direction: a run digest with extra lines is just as
        // divergent as a truncated one.
        let d = digest_diff("world 4\n", "world 4\nlosses 0\n").unwrap();
        assert!(d.contains("<missing>") && d.contains("losses 0"), "{d}");
    }

    #[test]
    fn digest_diff_on_empty_digests() {
        // Two empty digests agree — vacuously, but deterministically.
        assert_eq!(digest_diff("", ""), None);
        // Empty vs non-empty diverges on line 1 with a `<missing>` side.
        let d = digest_diff("", "world 4\n").unwrap();
        assert!(d.contains("line 1") && d.contains("<missing>"), "{d}");
        let d = digest_diff("world 4\n", "").unwrap();
        assert!(d.contains("line 1") && d.contains("<missing>"), "{d}");
    }

    #[test]
    fn digest_diff_finds_divergence_on_the_last_line() {
        // Identical prefix, mismatch only at the very end: the diff must
        // point at the final line, not bail at EOF.
        let base = "world 2\nlosses 3f800000\nw1 grad_routing/1 sent=8 recv=8\n";
        let run = "world 2\nlosses 3f800000\nw1 grad_routing/1 sent=8 recv=9\n";
        let d = digest_diff(base, run).unwrap();
        assert!(d.contains("line 3"), "{d}");
        assert!(d.contains("recv=8") && d.contains("recv=9"), "{d}");
    }

    #[test]
    fn digest_diff_multi_line_context_stays_one_line() {
        // Several divergent lines: only the FIRST is reported, and the
        // report itself never spans lines (it is embedded in CI logs).
        let base = "world 2\nlosses aaaa\nw0 forward_fetch/0 sent=1 recv=1\n";
        let run = "world 2\nlosses bbbb\nw0 forward_fetch/0 sent=2 recv=2\n";
        let d = digest_diff(base, run).unwrap();
        assert!(d.contains("line 2") && d.contains("aaaa"), "{d}");
        assert!(!d.contains("forward_fetch"), "first divergence only: {d}");
        assert!(!d.contains('\n'), "{d}");
    }

    const OVERLAP: &str = r#"{"runs": [
        {"experiment": "smoke-sage", "transport": "tcp", "threads": 1,
         "prefetch_depth": 0, "simd": "auto",
         "overlap": {"phases": [{"phase": "fetch", "wall_us": 10.0,
          "blocked_us": 4.0, "comm_us": 3.0, "cpu_us": 6.0}]}}
    ]}"#;

    #[test]
    fn overlap_check_accepts_consistent_and_flags_drift() {
        assert!(overlap_check(OVERLAP, OVERLAP).is_empty());
        // Timings may differ freely.
        let retimed = OVERLAP.replace("10.0", "99.0");
        assert!(overlap_check(&retimed, OVERLAP).is_empty());
        // A missing run is structural drift.
        let empty = r#"{"runs": []}"#;
        assert!(overlap_check(empty, OVERLAP)
            .iter()
            .any(|v| v.contains("not produced")));
        assert!(overlap_check(OVERLAP, empty)
            .iter()
            .any(|v| v.contains("new")));
        // blocked > wall is a corrupt ledger.
        let corrupt = OVERLAP.replace("\"blocked_us\": 4.0", "\"blocked_us\": 40.0");
        assert!(overlap_check(&corrupt, OVERLAP)
            .iter()
            .any(|v| v.contains("exceeds wall_us")));
        // ... unless the phase is one the runtime never wall-clocks
        // (wall_us == 0, like the collective gather): blocked alone is
        // legitimate there.
        let untimed = OVERLAP.replace("\"wall_us\": 10.0", "\"wall_us\": 0.0");
        assert!(overlap_check(&untimed, &untimed).is_empty());
    }

    #[test]
    fn overlap_records_pass_their_own_check() {
        let r = report("sage", vec![profile(4000, 0, 0)]);
        let doc = overlap_artifact(vec![
            overlap_record(&r, Transport::Sim, 1, 0, "auto"),
            overlap_record(&r, Transport::Tcp, 2, 2, "scalar"),
        ]);
        assert_eq!(doc.lines().count(), 6, "one run per line:\n{doc}");
        assert_eq!(overlap_check(&doc, &doc), Vec::<String>::new());
        let one = overlap_artifact(vec![overlap_record(&r, Transport::Sim, 1, 0, "auto")]);
        let v = overlap_check(&one, &doc);
        assert!(v.iter().any(|m| m.contains("t/tcp/t2/d2/scalar")), "{v:?}");
    }
}
