//! Driver side of a training workload: three launches for set-up time, the
//! measured one last, the one-rank oracle of a traced distributed run, and
//! the reduction of the ranks' per-rep counters to metrics and checks.

use std::time::{Duration, Instant};

use sar_comm::Phase;

use crate::cluster::{Launch, LaunchSpec};
use crate::rank::LaunchMode;
use crate::report::{max_over_ranks, Outcome};
use crate::result::RankResult;
use crate::spec::{
    Spec, LEDGER_LAYERS, REP_EPOCHS, TRACE_OVERHEAD_LIMIT, WARMUP_EPOCHS, WARMUP_REPS,
};
use crate::stats::median;
use crate::trace::Tracer;

/// Launches whose only job is a second and third set-up sample.
pub const EXTRA_SETUPS: usize = 2;
/// Deadline of a set-up-only launch: several times what it takes.
const SETUP_DEADLINE: Duration = Duration::from_secs(30);
/// Relative per-epoch loss difference allowed between world sizes.
const LOSS_TOLERANCE: f64 = 1e-3;
/// Accuracy difference allowed between world sizes, in points.
const ACC_TOLERANCE_PT: f64 = 0.5;
/// Share of `--seconds` the one-rank oracle of a traced distributed run
/// measures after its warm-up reps, for `core.scale_eff`.
const ORACLE_SHARE: f64 = 0.25;

const MIB: f64 = 1024.0 * 1024.0;

/// `setup_s` of one launch: the slowest rank.
fn launch_setup_s(results: &[RankResult]) -> f64 {
    max_over_ranks(results, "setup_s")
}

/// Runs one launch to completion and returns the ranks' results.
fn run_launch(what: &LaunchSpec, deadline: Instant) -> Result<Vec<RankResult>, String> {
    let mut launch = Launch::spawn(what)?;
    launch.wait(deadline)?;
    launch.results()
}

/// Sum over phases of a rep's ledger field on one rank.
fn rep_sum(r: &RankResult, rep: usize, field: &str) -> f64 {
    Phase::ALL
        .iter()
        .map(|&p| r.get(&format!("rep.{rep}.{}.{field}", p.name())))
        .sum()
}

/// A per-rep quantity reduced to one number: the median over measured
/// reps of `per_rep`.
fn over_reps(reps: usize, per_rep: impl Fn(usize) -> f64) -> f64 {
    median(&measured_reps(reps).map(per_rep).collect::<Vec<_>>())
}

/// Indices of the measured reps: those after the warm-up reps.
fn measured_reps(reps: usize) -> std::ops::Range<usize> {
    WARMUP_REPS..WARMUP_REPS + reps
}

/// Milliseconds per operation of each measured rep of a launch: the wall
/// around `run_worker` on the slowest rank.
fn rep_walls_ms(results: &[RankResult]) -> Vec<f64> {
    measured_reps(results[0].get("reps") as usize)
        .map(|rep| max_over_ranks(results, &format!("rep.{rep}.wall_s")) / REP_EPOCHS as f64 * 1e3)
        .collect()
}

/// `max over ranks of (cell's field ÷ that rank's rep wall)`, median over
/// reps: the share of the slowest-by-this-cell rank's wall a ledger cell
/// accounts for.
fn wall_share(results: &[RankResult], reps: usize, cell: &str, field: &str) -> f64 {
    over_reps(reps, |rep| {
        results
            .iter()
            .map(|r| {
                let wall_us = r.get(&format!("rep.{rep}.wall_s")) * 1e6;
                if wall_us > 0.0 {
                    r.get(&format!("rep.{rep}.{cell}.{field}")) / wall_us
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    })
}

/// The warm-up rep's losses as the ranks reported them (bit patterns).
fn warmup_losses(r: &RankResult) -> Vec<f32> {
    (0..WARMUP_EPOCHS)
        .map(|e| f32::from_bits(r.get(&format!("rep.0.loss.{e}")) as u32))
        .collect()
}

/// Ledger-derived per-layer metrics of the measured reps.
fn ledger_metrics(out: &mut Outcome, results: &[RankResult], reps: usize) {
    let ops = REP_EPOCHS as f64;
    let total = |rep: usize, phase: Phase, field: &str| -> f64 {
        results
            .iter()
            .map(|r| r.get(&format!("rep.{rep}.{}.{field}", phase.name())))
            .sum()
    };
    out.set(
        "comm.wire_mib_per_op",
        over_reps(reps, |rep| {
            results
                .iter()
                .map(|r| rep_sum(r, rep, "wire_sent_bytes"))
                .sum::<f64>()
                / ops
                / MIB
        }),
    );
    for (name, phase) in [
        ("comm.fetch_mib_per_op", Phase::ForwardFetch),
        ("comm.refetch_mib_per_op", Phase::BackwardRefetch),
        ("comm.gradroute_mib_per_op", Phase::GradRouting),
        ("comm.collective_mib_per_op", Phase::Collective),
    ] {
        out.set(
            name,
            over_reps(reps, |rep| total(rep, phase, "recv_bytes") / ops / MIB),
        );
    }
    out.set(
        "comm.msgs_per_op",
        over_reps(reps, |rep| {
            results
                .iter()
                .map(|r| rep_sum(r, rep, "sent_messages"))
                .sum::<f64>()
                / ops
        }),
    );

    out.set(
        "comm.blocked_frac",
        over_reps(reps, |rep| {
            results
                .iter()
                .map(|r| {
                    rep_sum(r, rep, "blocked_us") / (r.get(&format!("rep.{rep}.wall_s")) * 1e6)
                })
                .fold(0.0, f64::max)
        }),
    );
    for (name, phase) in [
        ("comm.blocked_fetch_frac", Phase::ForwardFetch),
        ("comm.blocked_refetch_frac", Phase::BackwardRefetch),
        ("comm.blocked_gradroute_frac", Phase::GradRouting),
        ("comm.blocked_collective_frac", Phase::Collective),
    ] {
        out.set(name, wall_share(results, reps, phase.name(), "blocked_us"));
    }
    for (name, phase) in [
        ("fwd_fetch", Phase::ForwardFetch),
        ("bwd_refetch", Phase::BackwardRefetch),
        ("grad_routing", Phase::GradRouting),
        ("other", Phase::Other),
    ] {
        out.set(
            &format!("core.{name}_wall_frac"),
            wall_share(results, reps, phase.name(), "wall_us"),
        );
        for layer in 0..LEDGER_LAYERS {
            out.set(
                &format!("core.l{layer}.{name}_wall_frac"),
                wall_share(
                    results,
                    reps,
                    &format!("{}.l{layer}", phase.name()),
                    "wall_us",
                ),
            );
        }
    }
    // How much of the measured wall the program's own ledger explains, on
    // the rank it explains least.
    out.set(
        "core.ledger_coverage",
        over_reps(reps, |rep| {
            results
                .iter()
                .map(|r| rep_sum(r, rep, "wall_us") / (r.get(&format!("rep.{rep}.wall_s")) * 1e6))
                .fold(f64::INFINITY, f64::min)
        }),
    );
    // Busy time (wall minus blocked) of the busiest rank over the idlest.
    out.set(
        "core.rank_imbalance",
        over_reps(reps, |rep| {
            let busy: Vec<f64> = results
                .iter()
                .map(|r| r.get(&format!("rep.{rep}.wall_s")) - rep_sum(r, rep, "blocked_us") / 1e6)
                .collect();
            let lo = busy.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = busy.iter().copied().fold(0.0, f64::max);
            if lo > 0.0 {
                hi / lo
            } else {
                0.0
            }
        }),
    );

    let sum_reps = |key: &str| -> f64 {
        measured_reps(reps)
            .flat_map(|rep| results.iter().map(move |r| (rep, r)))
            .map(|(rep, r)| r.get(&format!("rep.{rep}.{key}")))
            .sum()
    };
    let (hits, misses) = (sum_reps("pool_hits"), sum_reps("pool_misses"));
    out.set(
        "comm.pool_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.set("comm.pool_recycle_drops", sum_reps("pool_recycle_drops"));
    let (user, sys) = (sum_reps("cpu_user_s"), sum_reps("cpu_sys_s"));
    out.set("proc.cpu_s_per_op", (user + sys) / (reps as f64 * ops));
    out.set(
        "proc.sys_frac",
        if user + sys > 0.0 {
            sys / (user + sys)
        } else {
            0.0
        },
    );
    out.set(
        "proc.vol_ctx_switches_per_op",
        sum_reps("vol_ctx") / (reps as f64 * ops),
    );
}

/// The checks a training run's own results allow.
fn self_checks(out: &mut Outcome, spec: &Spec, results: &[RankResult], reps: usize) {
    let warm = warmup_losses(&results[0]);
    out.check(
        "losses finite and falling",
        warm.iter().all(|l| l.is_finite()) && warm[warm.len() - 1] < warm[0],
        format!("warm-up losses {warm:?}"),
    );
    // Every measured rep rebuilds the model from the seed on the reused
    // mesh, so its first loss must equal the warm-up's first loss to the
    // bit, on every rank: the proof that mesh reuse is sound.
    let first = results[0].get("rep.0.loss.0");
    let drift: Vec<String> = (0..WARMUP_REPS + reps)
        .flat_map(|rep| {
            results
                .iter()
                .enumerate()
                .map(move |(rank, r)| (rep, rank, r))
        })
        .filter(|(rep, _, r)| r.get(&format!("rep.{rep}.loss.0")) != first)
        .map(|(rep, rank, _)| format!("rep {rep} rank {rank}"))
        .collect();
    out.check(
        "every rep repeats rep 0's loss bits",
        drift.is_empty(),
        if drift.is_empty() {
            format!(
                "{} reps x {} ranks equal",
                WARMUP_REPS + reps,
                results.len()
            )
        } else {
            format!("differs at {}", drift.join(", "))
        },
    );
    let bytes = |rep: usize| -> f64 {
        results
            .iter()
            .map(|r| rep_sum(r, rep, "wire_sent_bytes"))
            .sum()
    };
    out.check(
        "wire bytes repeat exactly across reps",
        measured_reps(reps).all(|rep| bytes(rep) == bytes(1)),
        format!("{} bytes per rep", bytes(1)),
    );

    let recv = |phase: Phase| -> f64 {
        results
            .iter()
            .map(|r| r.get(&format!("rep.1.{}.recv_bytes", phase.name())))
            .sum()
    };
    let (fetch, refetch) = (recv(Phase::ForwardFetch), recv(Phase::BackwardRefetch));
    if spec.arch == "gat" {
        // A rep fetches forward once per epoch and once more for the
        // evaluation pass; it re-fetches once per epoch.
        let (e, passes) = (REP_EPOCHS as f64, (REP_EPOCHS + 1) as f64);
        out.check(
            "gat re-fetches what it fetched",
            spec.world == 1 || (refetch > 0.0 && refetch * passes == fetch * e),
            format!("fetch {fetch} B over {passes} passes, refetch {refetch} B over {e}"),
        );
    } else {
        out.check(
            "sage never re-fetches",
            refetch == 0.0,
            format!("refetch {refetch} B"),
        );
    }
    if spec.world == 1 {
        let wire: f64 = measured_reps(reps).map(bytes).sum();
        let blocked: f64 = measured_reps(reps)
            .map(|rep| rep_sum(&results[0], rep, "blocked_us"))
            .sum();
        out.check(
            "one rank sends and waits for nothing",
            wire == 0.0 && blocked == 0.0,
            format!("wire {wire} B, blocked {blocked} us"),
        );
    }
}

/// Checks `out` (a distributed run) against a one-rank run of the same
/// model, graph and seed: the paper's exactness claim across world sizes.
fn check_against_oracle(out: &mut Outcome, losses: &[f32], val_acc: f64, test_acc: f64) {
    let worst = out
        .losses
        .iter()
        .zip(losses)
        .map(|(&a, &b)| f64::from((a - b).abs()) / f64::from(b.abs()).max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max);
    let acc_gap = 100.0
        * (out.val_acc - val_acc)
            .abs()
            .max((out.test_acc - test_acc).abs());
    out.check(
        "matches the one-rank oracle",
        out.losses.len() == losses.len() && worst <= LOSS_TOLERANCE && acc_gap <= ACC_TOLERANCE_PT,
        format!(
            "losses {:?} vs {losses:?} (worst rel diff {worst:.2e}), accuracy gap {acc_gap:.3} pt",
            out.losses
        ),
    );
}

/// Runs one training workload end to end; every launch is killed at
/// `deadline` at the latest.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch_unix_us: u64,
    deadline: Instant,
) -> Outcome {
    let mut out = Outcome::new(spec.name, trace);
    let mut tr = Tracer::new(crate::trace::DRIVER, epoch_unix_us, trace);
    tr.begin("bench", 0);
    let what = LaunchSpec {
        spec: *spec,
        solo: false,
        seed,
        mode: LaunchMode::Setup,
        trace: false,
        seconds,
        epoch_unix_us,
    };

    // A traced run reports no set-up time, so it launches once.
    let mut setups = Vec::new();
    for i in 0..if trace { 0 } else { EXTRA_SETUPS } {
        let (r, _) = tr.scope("launch.setup", i as u64, || {
            run_launch(&what, deadline.min(Instant::now() + SETUP_DEADLINE))
        });
        match r {
            Ok(results) => setups.push(launch_setup_s(&results)),
            Err(e) => out.check("set-up launch", false, e),
        }
    }

    let measured = LaunchSpec {
        mode: LaunchMode::Measure,
        trace,
        ..what
    };
    let (r, _) = tr.scope("launch.measure", 0, || run_launch(&measured, deadline));
    let results = match r {
        Ok(results) => results,
        Err(e) => {
            // The launch died: everything it was meant to run failed. What
            // the set-up launches measured still stands.
            out.check("measured launch", false, e);
            out.attempted = (WARMUP_EPOCHS + REP_EPOCHS) as u64;
            out.failed = out.attempted;
            out.set("setup_s", median(&setups));
            return out;
        }
    };
    setups.push(launch_setup_s(&results));
    let reps = results[0].get("reps") as usize;
    eprintln!("[sar-benchmark] set-up samples {setups:.3?} s");

    let rep_ms = rep_walls_ms(&results);
    eprintln!("[sar-benchmark] rep walls {rep_ms:.0?} ms");
    // Epochs per second from the median rep interval (barrier entry to
    // end, slowest rank), not from the whole window: one stall of the host
    // costs one rep, not the figure.
    let interval = over_reps(reps, |rep| {
        max_over_ranks(&results, &format!("rep.{rep}.interval_s"))
    });
    let ops_per_s = if interval > 0.0 {
        REP_EPOCHS as f64 / interval
    } else {
        0.0
    };

    out.losses = warmup_losses(&results[0]);
    out.val_acc = results[0].get("rep.0.val_acc");
    out.test_acc = results[0].get("rep.0.test_acc");
    out.attempted = (WARMUP_EPOCHS + (WARMUP_REPS - 1 + reps) * REP_EPOCHS) as u64;
    out.failed = (0..WARMUP_REPS + reps)
        .flat_map(|rep| {
            let epochs = if rep == 0 { WARMUP_EPOCHS } else { REP_EPOCHS };
            (0..epochs).map(move |e| (rep, e))
        })
        .filter(|(rep, e)| {
            !f32::from_bits(results[0].get(&format!("rep.{rep}.loss.{e}")) as u32).is_finite()
        })
        .count() as u64;
    out.check(
        "measured reps ran",
        reps >= 2,
        format!("{reps} reps of {REP_EPOCHS} epoch(s)"),
    );
    self_checks(&mut out, spec, &results, reps);

    // Untraced too: `--selfcheck` compares the exact counts between sets.
    ledger_metrics(&mut out, &results, reps);
    if trace {
        if spec.world > 1 {
            // The oracle: one rank, two kernel threads. Its warm-up rep is
            // checked against this run's; its few measured reps say what
            // the same cores do without peers.
            let oracle = LaunchSpec {
                solo: true,
                seconds: seconds * ORACLE_SHARE,
                trace: false,
                ..measured
            };
            let (r, _) = tr.scope("launch.oracle", 0, || run_launch(&oracle, deadline));
            match r {
                Ok(o) => {
                    check_against_oracle(
                        &mut out,
                        &warmup_losses(&o[0]),
                        o[0].get("rep.0.val_acc"),
                        o[0].get("rep.0.test_acc"),
                    );
                    out.set(
                        "core.scale_eff",
                        median(&rep_walls_ms(&o)) / median(&rep_ms),
                    );
                }
                Err(e) => out.check("oracle launch", false, e),
            }
        }
        out.set("op_tail_ms", rep_ms.iter().copied().fold(0.0, f64::max));
        out.set("trace.op_p50_ms", median(&rep_ms));
        out.set("trace.ops_per_s", ops_per_s);
        let overhead = over_reps(reps, |rep| {
            results
                .iter()
                .map(|r| {
                    r.get(&format!("rep.{rep}.trace_s")) / r.get(&format!("rep.{rep}.interval_s"))
                })
                .fold(0.0, f64::max)
        });
        out.set("trace_overhead_frac", overhead);
        out.check(
            "tracing overhead within its limit",
            overhead <= TRACE_OVERHEAD_LIMIT,
            format!("{overhead:.2e} of a rep, limit {TRACE_OVERHEAD_LIMIT}"),
        );
        out.absorb_traced(tr, &results);
    } else {
        out.set("op_p50_ms", median(&rep_ms));
        out.set("ops_per_s", ops_per_s);
        out.set(
            "peak_tensor_mib",
            measured_reps(reps)
                .map(|rep| max_over_ranks(&results, &format!("rep.{rep}.peak_tensor_bytes")))
                .fold(0.0, f64::max)
                / MIB,
        );
        out.set("setup_s", median(&setups));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::put_ledger_delta;
    use sar_comm::CommStats;

    /// A rank whose every measured rep took `wall_s` and moved the ledger
    /// from zero to `cells`: `(phase, layer, wall_us, blocked_us, bytes)`.
    fn rank_with(
        reps: usize,
        wall_s: f64,
        cells: &[(Phase, Option<u16>, f64, f64, u64)],
    ) -> RankResult {
        let before = CommStats::new(2);
        let mut after = CommStats::new(2);
        for &(phase, layer, wall_us, blocked_us, bytes) in cells {
            let e = after.ledger.entry_mut(phase, layer);
            e.wall_us = wall_us;
            e.blocked_us = blocked_us;
            e.wire_sent_bytes = bytes;
            e.recv_bytes = bytes;
            e.sent_messages = 1;
        }
        let mut r = RankResult::default();
        for rep in measured_reps(reps) {
            r.set(format!("rep.{rep}.wall_s"), wall_s);
            put_ledger_delta(&mut r, &format!("rep.{rep}"), &before, &after);
        }
        r
    }

    #[test]
    fn ledger_deltas_become_shares_of_each_ranks_own_wall() {
        const MIB_BYTES: u64 = 1 << 20;
        // Rank 0: 2 s rep, half of it forward fetch (a quarter blocked),
        // split over layers 0 and 1; the rest is `other`.
        let fast = rank_with(
            2,
            2.0,
            &[
                (
                    Phase::ForwardFetch,
                    Some(0),
                    600_000.0,
                    300_000.0,
                    3 * MIB_BYTES,
                ),
                (
                    Phase::ForwardFetch,
                    Some(1),
                    400_000.0,
                    200_000.0,
                    MIB_BYTES,
                ),
                (Phase::Other, None, 1_000_000.0, 0.0, 0),
            ],
        );
        // Rank 1: 4 s rep, three quarters of it grad routing, all blocked;
        // the ledger misses the last second.
        let slow = rank_with(
            2,
            4.0,
            &[(
                Phase::GradRouting,
                Some(2),
                3_000_000.0,
                3_000_000.0,
                2 * MIB_BYTES,
            )],
        );
        let mut out = Outcome::new("synthetic", true);
        ledger_metrics(&mut out, &[fast, slow], 2);

        assert_eq!(out.get("core.fwd_fetch_wall_frac"), 0.5);
        assert_eq!(out.get("core.l0.fwd_fetch_wall_frac"), 0.3);
        assert_eq!(out.get("core.l1.fwd_fetch_wall_frac"), 0.2);
        assert_eq!(out.get("core.l2.fwd_fetch_wall_frac"), 0.0);
        assert_eq!(out.get("core.grad_routing_wall_frac"), 0.75);
        assert_eq!(out.get("core.l2.grad_routing_wall_frac"), 0.75);
        assert_eq!(out.get("core.other_wall_frac"), 0.5);
        assert_eq!(out.get("core.bwd_refetch_wall_frac"), 0.0);
        // Blocked: the worse rank decides, each against its own wall.
        assert_eq!(out.get("comm.blocked_fetch_frac"), 0.25);
        assert_eq!(out.get("comm.blocked_gradroute_frac"), 0.75);
        assert_eq!(out.get("comm.blocked_frac"), 0.75);
        // Coverage is the rank the ledger explains least.
        assert_eq!(out.get("core.ledger_coverage"), 0.75);
        // Busy time: 2 − 0.5 s against 4 − 3 s.
        assert_eq!(out.get("core.rank_imbalance"), 1.5);
        // Bytes and messages add up over ranks.
        assert_eq!(out.get("comm.wire_mib_per_op"), 6.0);
        assert_eq!(out.get("comm.fetch_mib_per_op"), 4.0);
        assert_eq!(out.get("comm.gradroute_mib_per_op"), 2.0);
        assert_eq!(out.get("comm.refetch_mib_per_op"), 0.0);
        assert_eq!(out.get("comm.msgs_per_op"), 4.0);
    }

    #[test]
    fn oracle_check_allows_rounding_and_rejects_drift() {
        let mut out = Outcome::new("sage-tcp2", true);
        out.losses = vec![4.4391327, 2.8897414];
        out.val_acc = 0.7753;
        out.test_acc = 0.7691;
        check_against_oracle(&mut out, &[4.4391336, 2.8897772], 0.7753, 0.7701);
        assert!(out.checks[0].ok, "{}", out.checks[0].detail);
        check_against_oracle(&mut out, &[4.4391336, 2.95], 0.7753, 0.7691);
        assert!(!out.checks[1].ok);
        check_against_oracle(&mut out, &[4.4391336, 2.8897772], 0.7863, 0.7691);
        assert!(!out.checks[2].ok);
        check_against_oracle(&mut out, &[4.4391336], 0.7753, 0.7691);
        assert!(!out.checks[3].ok);
    }
}
