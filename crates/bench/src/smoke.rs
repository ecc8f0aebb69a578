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

use crate::distrun::Workload;
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
///   extra one is evaluation) fetched, within 2%;
/// * a ledger row with negative CPU or blocked time, or more blocked time
///   than wall time: blocked time is measured inside the row's wall
///   interval, so either means the ledger itself is corrupt. Rows the
///   runtime does not wall-clock (`wall_us == 0`, the collective gather)
///   only need their entries non-negative.
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
        for r in &w.phases {
            let (wall, blocked, cpu) = (r.entry.wall_us, r.entry.blocked_us, r.entry.cpu_us);
            let row = format!("{exp}: rank {} {}/{:?}", w.rank, r.phase.name(), r.layer);
            if !(blocked >= 0.0 && cpu >= 0.0) {
                violations.push(format!(
                    "{row}: negative ledger entry (blocked={blocked}, cpu={cpu})"
                ));
            }
            // A microscopic slack for summed rounding.
            if wall > 0.0 && blocked > wall * (1.0 + 1e-9) + 1.0 {
                violations.push(format!(
                    "{row}: blocked_us {blocked} exceeds wall_us {wall}"
                ));
            }
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

    #[test]
    fn a_row_blocked_longer_than_its_wall_is_flagged() {
        let timed = |wall: f64, blocked: f64, cpu: f64| {
            let mut r = report("sage", vec![profile(4000, 0, 0)]);
            let e = &mut r.workers[0].phases[0].entry;
            (e.wall_us, e.blocked_us, e.cpu_us) = (wall, blocked, cpu);
            violations(&r, EPOCHS)
        };
        assert!(timed(10.0, 4.0, 6.0).is_empty());
        // Inside the slack: summed rounding, not corruption.
        assert!(timed(10.0, 10.5, 6.0).is_empty());
        let v = timed(10.0, 40.0, 6.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("rank 0 forward_fetch") && v[0].contains("exceeds wall_us"));
        // A row the runtime never wall-clocks (the collective gather):
        // blocked alone is legitimate there.
        assert!(timed(0.0, 40.0, 0.0).is_empty());
        for (blocked, cpu) in [(-1.0, 6.0), (4.0, -1.0), (f64::NAN, 6.0)] {
            let v = timed(10.0, blocked, cpu);
            assert!(
                v.iter().any(|m| m.contains("negative ledger entry")),
                "{v:?}"
            );
        }
    }
}
