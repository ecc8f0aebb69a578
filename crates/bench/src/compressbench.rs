//! `repro compressbench` — the codec/protocol ablation with a committed,
//! CI-gated `BENCH_compress.json`.
//!
//! Trains the scaled-down smoke workloads across a fixed grid of
//! `{wire codec} × {exchange protocol}` combinations and records, per
//! run, the accuracy outcome plus the *logical* (raw-f32) and *wire*
//! (post-codec) byte volumes of the fetch and gradient-routing phases.
//! Every cell goes through [`run_workload`]: simulated runs train
//! in-process, the TCP subset runs one `sar-worker` OS process per rank
//! over loopback, so the negotiated wire path is measured end to end.
//!
//! Following the `BENCH_kernels.json` precedent, the committed artifact
//! is never compared on timing magnitudes — epoch times are recorded for
//! human eyes only. [`crate::cli::check`] compares the workload identity,
//! the run set and the pinned logical and wire volumes and message counts
//! (the schedule determines them: every codec's encoded size is a
//! function of the element count alone), and both the fresh and the
//! committed document must satisfy [`CompressBench`]'s invariants:
//!
//! * `raw` moves exactly its logical volume (wire == logical),
//! * every lossy codec beats the 2× payload-reduction bar on the fetch
//!   phases,
//! * `gradonly` moves zero gradient-routing bytes and only the exact
//!   final evaluation's fetch volume; `stale:<r>` undercuts the exact
//!   fetch volume,
//! * the `raw`/`exact` parity digest agrees between the simulated and
//!   the TCP transport (the codec layer cannot perturb training),
//! * every run's final loss is finite, its recorded epoch time is
//!   positive, and its validation accuracy stays within [`ACC_FLOOR`]
//!   of the same transport's `raw`/`exact` run.

use crate::json::{fixed, obj, Value};

use crate::cli::{fingerprint, rules, Args, Fields, GatedBench, Records};
use crate::distrun::Workload;
use crate::harness::{run_workload, Transport};
use crate::smoke;
use sar_comm::{Phase, PhaseEntry};

/// How far a lossy/approximate run's validation accuracy may fall below
/// the same transport's `raw`/`exact` baseline before the gate fails.
pub const ACC_FLOOR: f64 = 0.20;

/// Minimum payload-only wire reduction a lossy codec must deliver on the
/// fetch phases (`(logical − header) / (wire − header)`). f16 halves the
/// payload exactly but carries a 4-byte element count per block, so the
/// bar sits just under 2×; int8 clears it with ≈3.8×.
pub const LOSSY_REDUCTION_BAR: f64 = 1.9;

/// Cluster size (simulated workers / OS processes).
const WORLD: usize = 4;
/// Synthetic products-like node count.
const NODES: usize = 1200;
/// Training epochs per run.
const EPOCHS: usize = 8;
/// Seed for the dataset, the partitioning and the model.
const SEED: u64 = 0;

/// One `(arch, codec, protocol)` grid cell.
type Cell = (&'static str, &'static str, &'static str);

/// The simulated-transport grid: the full codec sweep plus the
/// approximate protocols on GraphSage, and a GAT spot-check.
#[must_use]
pub fn sim_grid(quick: bool) -> Vec<Cell> {
    let mut g = vec![
        ("sage", "raw", "exact"),
        ("sage", "f16", "exact"),
        ("sage", "int8", "exact"),
        ("sage", "raw", "gradonly"),
        ("sage", "raw", "stale:4"),
    ];
    if !quick {
        g.extend([
            ("sage", "int8", "stale:4"),
            ("gat", "raw", "exact"),
            ("gat", "int8", "exact"),
        ]);
    }
    g
}

/// The TCP subset: enough to pin the negotiated wire path (exact parity,
/// a lossy codec, an approximate protocol) without a full OS-process
/// sweep per cell.
#[must_use]
pub fn tcp_grid(quick: bool) -> Vec<Cell> {
    let mut g = vec![("sage", "raw", "exact"), ("sage", "int8", "exact")];
    if !quick {
        g.push(("sage", "raw", "stale:4"));
    }
    g
}

/// The workload for one grid cell (the smoke workload with the cell's
/// codec/protocol and this benchmark's epoch count).
fn cell_workload((arch, codec, protocol): Cell) -> Result<Workload, String> {
    let mut wl = smoke::workload(arch, NODES, SEED)?;
    wl.epochs = EPOCHS;
    wl.codec = codec.to_string();
    wl.protocol = protocol.to_string();
    Ok(wl)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs one grid cell on `transport` and distills its record.
fn run_cell(cell: Cell, transport: Transport) -> Result<Value, String> {
    let (arch, codec, protocol) = cell;
    let wl = cell_workload(cell)?;
    eprintln!(
        "[compressbench] {}: {arch} codec={codec} protocol={protocol} ...",
        transport.name()
    );
    let experiment = format!("compressbench-{arch}-{codec}-{protocol}");
    let report = run_workload(&wl, WORLD, transport, &experiment)
        .map_err(|e| format!("{}/{arch}/{codec}/{protocol}: {e}", transport.name()))?;
    let sum = |phases: &[Phase], f: fn(&PhaseEntry) -> u64| -> u64 {
        report
            .run
            .ranks
            .iter()
            .flat_map(|(_, comm)| phases.iter().map(|&p| f(&comm.ledger.phase_total(p))))
            .sum()
    };
    let fetch = [Phase::ForwardFetch, Phase::BackwardRefetch];
    let grad = [Phase::GradRouting];
    // The digest is recorded only for `raw`/`exact` runs, where it must
    // agree across transports.
    let digest =
        (codec == "raw" && protocol == "exact").then(|| fingerprint(&report.parity_digest()));
    let final_loss = report.run.losses.last().map_or(f64::NAN, |&l| f64::from(l));
    Ok(obj([
        ("transport", transport.name().into()),
        ("arch", arch.into()),
        ("codec", codec.into()),
        ("protocol", protocol.into()),
        ("final_loss", fixed(final_loss, 6)),
        ("val_acc", fixed(report.run.val_acc, 6)),
        ("test_acc", fixed(report.run.test_acc, 6)),
        ("fetch_logical_bytes", sum(&fetch, |p| p.sent_bytes).into()),
        (
            "fetch_wire_bytes",
            sum(&fetch, |p| p.wire_sent_bytes).into(),
        ),
        ("fetch_messages", sum(&fetch, |p| p.sent_messages).into()),
        ("grad_logical_bytes", sum(&grad, |p| p.sent_bytes).into()),
        ("grad_wire_bytes", sum(&grad, |p| p.wire_sent_bytes).into()),
        ("grad_messages", sum(&grad, |p| p.sent_messages).into()),
        ("epoch_time_s", fixed(mean(&report.run.epoch_times), 6)),
        ("digest", digest.into()),
    ]))
}

// ----------------------------------------------------------------------
// The `repro compressbench` subcommand and its gate
// ----------------------------------------------------------------------

/// Payload-only bytes: the ledgered volume minus the 32-byte frame
/// header each message carries on both the logical and the wire side.
fn payload(bytes: f64, messages: f64) -> f64 {
    bytes - 32.0 * messages
}

/// `repro compressbench` and its `BENCH_compress.json` declaration: the
/// workload constants are identity fields; runs are named by `(transport,
/// arch, codec, protocol)`, and the logical and wire volumes and message
/// counts — which the exchange schedule alone determines — are pinned.
/// Accuracies, losses and epoch times are record-only.
#[derive(Debug)]
pub struct CompressBench;

impl GatedBench for CompressBench {
    const NAME: &'static str = "compressbench";
    /// v2: the artifact records `seed`.
    const SCHEMA: &'static str = "sar-compressbench/v2";
    const IDENTITY: &'static [&'static str] = &["world", "nodes", "epochs", "seed"];
    const TABLES: &'static [Records] = &[Records {
        table: "runs",
        key: &["transport", "arch", "codec", "protocol"],
        pinned: &[
            "fetch_logical_bytes",
            "fetch_wire_bytes",
            "fetch_messages",
            "grad_logical_bytes",
            "grad_wire_bytes",
            "grad_messages",
        ],
    }];
    /// `--quick`: trim the grid for local iteration (the committed
    /// artifact is always generated at full scale).
    type Config = bool;

    fn apply_flag(quick: &mut bool, flag: &str, _: &mut Args) -> Result<bool, String> {
        *quick |= flag == "--quick";
        Ok(flag == "--quick")
    }

    /// The sim sweep, then the TCP subset.
    fn run(&quick: &bool) -> Result<Fields, String> {
        let mut runs = Vec::new();
        for (transport, grid) in [
            (Transport::Sim, sim_grid(quick)),
            (Transport::Tcp, tcp_grid(quick)),
        ] {
            for cell in grid {
                runs.push(run_cell(cell, transport)?);
            }
        }
        Ok(vec![
            ("world", WORLD.into()),
            ("nodes", NODES.into()),
            ("epochs", EPOCHS.into()),
            ("seed", SEED.into()),
            ("runs", Value::Arr(runs)),
        ])
    }

    /// The codec, protocol, digest and accuracy rules in the module docs.
    /// Epoch times are never compared.
    fn invariants(label: &str, doc: &Value) -> Vec<String> {
        rules(label, |v| {
            let runs = doc.req_arr("runs")?;
            for r in runs {
                let s = |k: &str| r.req_str(k);
                let n = |k: &str| r.req_num(k);
                let (transport, arch) = (s("transport")?, s("arch")?);
                let (codec, protocol) = (s("codec")?, s("protocol")?);
                let ctx = format!("{label} run {transport}/{arch}/{codec}/{protocol}");
                if !n("final_loss").is_ok_and(f64::is_finite) {
                    v.push(format!("{ctx}: final loss is missing or non-finite"));
                }
                // The magnitude is never compared, but a run that took no
                // time was not measured.
                if !n("epoch_time_s").is_ok_and(|t| t > 0.0) {
                    v.push(format!("{ctx}: epoch_time_s is missing or not positive"));
                }
                let (f_log, f_wire) = (n("fetch_logical_bytes")?, n("fetch_wire_bytes")?);
                let (g_log, g_wire) = (n("grad_logical_bytes")?, n("grad_wire_bytes")?);
                let f_msgs = n("fetch_messages")?;
                if codec == "raw" && (f_wire != f_log || g_wire != g_log) {
                    v.push(format!(
                        "{ctx}: raw codec moved wire bytes ≠ logical bytes \
                         (fetch {f_wire} vs {f_log}, grad {g_wire} vs {g_log})"
                    ));
                }
                if matches!(codec, "f16" | "int8") {
                    let (lp, wp) = (payload(f_log, f_msgs), payload(f_wire, f_msgs));
                    if !(wp > 0.0 && lp / wp >= LOSSY_REDUCTION_BAR) {
                        v.push(format!(
                            "{ctx}: fetch payload reduction {:.2}× is below the \
                             {LOSSY_REDUCTION_BAR}× bar ({lp} logical vs {wp} wire payload bytes)",
                            if wp > 0.0 { lp / wp } else { f64::INFINITY }
                        ));
                    }
                }
                // Baselines for the protocol and accuracy rules: the same
                // transport + arch at raw/exact.
                let baseline = runs.iter().find(|b| {
                    let cell = [transport, arch, "raw", "exact"];
                    ["transport", "arch", "codec", "protocol"]
                        .iter()
                        .zip(cell)
                        .all(|(k, want)| b.req_str(k) == Ok(want))
                });
                let base = |k: &str| baseline.and_then(|b| b.req_num(k).ok());
                if protocol == "gradonly" && (g_log != 0.0 || g_wire != 0.0) {
                    v.push(format!(
                        "{ctx}: gradonly routed {g_log} logical / {g_wire} wire gradient bytes"
                    ));
                }
                if let Some(b) = base("fetch_logical_bytes") {
                    if protocol == "gradonly" && f_log * 2.0 >= b {
                        v.push(format!(
                            "{ctx}: fetch volume {f_log} is not under half the exact \
                             baseline {b} — training epochs fetched remotely"
                        ));
                    }
                    if protocol.starts_with("stale:") && f_log >= b * 3.0 / 4.0 {
                        v.push(format!(
                            "{ctx}: fetch volume {f_log} does not undercut the exact \
                             baseline {b} — stale epochs fetched remotely"
                        ));
                    }
                }
                if let (Ok(acc), Some(base_acc)) = (n("val_acc"), base("val_acc")) {
                    if acc < base_acc - ACC_FLOOR {
                        v.push(format!(
                            "{ctx}: val accuracy {acc:.4} fell more than {ACC_FLOOR} below \
                             the exact baseline {base_acc:.4}"
                        ));
                    }
                }
            }
            // The raw/exact parity digest must agree across transports
            // *for the same workload*: the codec layer and the negotiation
            // cannot perturb training. Different architectures
            // legitimately digest differently.
            let digests: Vec<(&str, &str, &str)> = runs
                .iter()
                .filter_map(|r| {
                    let d = r.get("digest").and_then(Value::str)?;
                    Some((r.req_str("arch").ok()?, r.req_str("transport").ok()?, d))
                })
                .collect();
            for (i, a) in digests.iter().enumerate() {
                for b in &digests[i + 1..] {
                    if a.0 == b.0 && a.2 != b.2 {
                        v.push(format!(
                            "{label}: {} raw/exact parity digest differs across transports \
                             ({} {} vs {} {})",
                            a.0, a.1, a.2, b.1, b.2
                        ));
                    }
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::tests::set;
    use crate::cli::{check, document};

    fn run(transport: &str, codec: &str, protocol: &str, digest: Option<&str>) -> Value {
        // Logical volumes mimic a real sweep: 1000 fetch messages of
        // 32-byte header + 4000 payload bytes each.
        let (msgs, logical) = (1000u64, 1000 * (32 + 4000) as u64);
        let wire = match codec {
            "f16" => 1000 * (32 + 4 + 2000),
            "int8" => 1000 * (32 + 4 + 1000 + 4 * 16),
            _ => logical,
        };
        let training_fetch = if protocol == "gradonly" {
            logical / 9
        } else if protocol.starts_with("stale:") {
            logical / 3
        } else {
            logical
        };
        let scale = |b: u64| (b as f64 * training_fetch as f64 / logical as f64) as u64;
        let grad = if protocol == "gradonly" {
            0
        } else {
            500_000u64
        };
        obj([
            ("transport", transport.into()),
            ("arch", "sage".into()),
            ("codec", codec.into()),
            ("protocol", protocol.into()),
            ("final_loss", 1.25.into()),
            ("val_acc", 0.62.into()),
            ("test_acc", 0.60.into()),
            ("fetch_logical_bytes", training_fetch.into()),
            ("fetch_wire_bytes", scale(wire).into()),
            ("fetch_messages", scale(msgs).into()),
            ("grad_logical_bytes", grad.into()),
            ("grad_wire_bytes", grad.into()),
            ("grad_messages", (if grad == 0 { 0u64 } else { 120 }).into()),
            ("epoch_time_s", 0.05.into()),
            ("digest", digest.into()),
        ])
    }

    fn clean() -> Vec<Value> {
        vec![
            run("sim", "raw", "exact", Some("00ff00ff00ff00ff")),
            run("sim", "f16", "exact", None),
            run("sim", "int8", "exact", None),
            run("sim", "raw", "gradonly", None),
            run("sim", "raw", "stale:4", None),
            run("tcp", "raw", "exact", Some("00ff00ff00ff00ff")),
        ]
    }

    fn sample(runs: Vec<Value>) -> Value {
        document::<CompressBench>(vec![
            ("world", 4usize.into()),
            ("nodes", 1200usize.into()),
            ("epochs", 8usize.into()),
            ("seed", 0u64.into()),
            ("runs", Value::Arr(runs)),
        ])
    }

    fn violations(runs: Vec<Value>) -> Vec<String> {
        check::<CompressBench>(&sample(runs), &sample(clean()).pretty(2))
    }

    fn any(v: &[String], needle: &str) -> bool {
        v.iter().any(|m| m.contains(needle))
    }

    #[test]
    fn timings_may_drift() {
        let mut runs = clean();
        for r in &mut runs {
            set(r, "epoch_time_s", 5.0);
        }
        assert_eq!(violations(runs), Vec::<String>::new());
    }

    #[test]
    fn the_schedule_determined_volumes_are_pinned() {
        // Every run fetching twice its committed volume still moves raw
        // wire == logical, so only the pin catches it.
        let mut runs = clean();
        for r in &mut runs {
            let doubled = 2.0 * r.req_num("fetch_logical_bytes").unwrap();
            let wire = 2.0 * r.req_num("fetch_wire_bytes").unwrap();
            set(r, "fetch_logical_bytes", doubled);
            set(r, "fetch_wire_bytes", wire);
        }
        let v = violations(runs);
        assert!(any(&v, "fetch_logical_bytes is") && any(&v, "no longer bitwise reproducible"));
        for field in [
            "fetch_wire_bytes",
            "fetch_messages",
            "grad_logical_bytes",
            "grad_wire_bytes",
            "grad_messages",
        ] {
            let mut runs = clean();
            set(&mut runs[0], field, 7u64);
            assert!(any(&violations(runs), &format!("{field} is 7")), "{field}");
        }
    }

    #[test]
    fn gate_rejects_broken_codec_and_protocol_claims() {
        // raw must move exactly its logical volume.
        let mut leaky = clean();
        set(&mut leaky[0], "fetch_wire_bytes", 1000u64 * 4032 + 64);
        assert!(any(&violations(leaky), "raw codec"));
        // A lossy codec that stops compressing fails the 2x bar.
        let mut bloated = clean();
        set(&mut bloated[1], "fetch_wire_bytes", 1000u64 * 4032);
        assert!(any(&violations(bloated), "below the"));
        // gradonly moving gradient bytes is a protocol violation (in the
        // committed copy here, so the pin does not fire first).
        let mut routed = clean();
        set(&mut routed[3], "grad_wire_bytes", 9000u64);
        let v = check::<CompressBench>(&sample(clean()), &sample(routed).pretty(2));
        assert!(any(&v, "committed") && any(&v, "gradonly routed"), "{v:?}");
        // A stale run with the full exact fetch volume skipped nothing.
        let mut eager = clean();
        set(&mut eager[4], "fetch_logical_bytes", 1000u64 * 4032);
        set(&mut eager[4], "fetch_wire_bytes", 1000u64 * 4032);
        assert!(any(&violations(eager), "stale epochs"));
        // Diverging cross-transport digests mean the codec perturbed
        // training.
        let mut skew = clean();
        set(&mut skew[5], "digest", "deadbeefdeadbeef");
        assert!(any(&violations(skew), "digest"));
        // Accuracy collapse under an approximate protocol fails the floor.
        let mut collapsed = clean();
        set(&mut collapsed[3], "val_acc", 0.1);
        assert!(any(&violations(collapsed), "accuracy"));
        // A diverged loss and an unmeasured run fail too.
        let mut diverged = clean();
        set(&mut diverged[2], "final_loss", Value::Null);
        set(&mut diverged[3], "epoch_time_s", 0.0);
        let v = violations(diverged);
        assert!(any(&v, "final loss") && any(&v, "epoch_time_s"), "{v:?}");
    }

    #[test]
    fn grids_cover_the_claimed_cells() {
        let full = sim_grid(false);
        assert!(full.contains(&("sage", "raw", "exact")));
        assert!(full.contains(&("sage", "f16", "exact")));
        assert!(full.contains(&("gat", "int8", "exact")));
        assert!(full.len() > sim_grid(true).len());
        // Every TCP cell also exists in the sim grid, so the digest
        // cross-check always has both sides.
        for cell in tcp_grid(false) {
            assert!(
                cell.1 != "raw" || cell.2 != "exact" || full.contains(&cell),
                "tcp raw/exact cell missing from the sim grid"
            );
        }
    }
}
