//! `repro outofcorebench` — the out-of-core tiering benchmark with a
//! committed, CI-gated `BENCH_outofcore.json`.
//!
//! Two halves, both exercising the real `sar_tensor::tier` machinery:
//!
//! * **Sweep** — an out-of-core microbenchmark over the tier + staging
//!   primitives. A synthetic `[rows, F]` feature matrix is ingested into
//!   a budgeted [`TieredStore`] chunk by chunk (everything past the
//!   budget spills to the arena's file as it arrives, so the matrix is
//!   never fully resident), then swept for several epochs with the same
//!   depth-`k` rotation schedule the trainer uses
//!   ([`sar_core::plan::fetch_steps`]) — `Fetch` steps become disk
//!   faults, `Consume` steps accumulate deterministically and put the
//!   chunk back. The graph scale grows 8× across the sweep while the
//!   budget stays fixed: peak resident tensor bytes must stay flat
//!   (within [`FLATNESS`]), and the result digest must be bitwise
//!   identical to an unbounded (never-spilling) store's.
//!
//! * **Parity** — end-to-end training runs of the smoke GAT workload
//!   with `--mem-budget` on vs off, across transports, thread counts,
//!   prefetch depths and exchange protocols. The two runs'
//!   [`RunReport::parity_digest`]s must be identical — spilling
//!   rematerialization inputs and stale-protocol cache blocks to disk
//!   cannot perturb training by a single bit — and every cell of one
//!   protocol must carry the same digest.
//!
//! Following the `BENCH_kernels.json` precedent, the gate never compares
//! timings — elapsed times are recorded for human eyes only.
//! [`crate::cli::check`] compares the workload identity, the two run sets
//! and the pinned sweep digests; [`OutOfCoreBench`]'s invariants check
//! spill/fault engagement, memory flatness and digest parity.

use std::collections::VecDeque;

use crate::json::{fixed, obj, Value};
use sar_comm::PhaseEntry;
use sar_core::plan::{self, FetchStep};
use sar_tensor::tier::TieredStore;
use sar_tensor::{MemoryTracker, Tensor};

use crate::cli::{fingerprint, rules, Args, Fields, GatedBench, Records};
use crate::distrun::Workload;
use crate::harness::{run_workload, Transport};
use crate::report::RunReport;
use crate::smoke;

/// How far the largest sweep scale's peak resident bytes may exceed the
/// smallest scale's before the gate fails. The working set is
/// budget-derived, not graph-derived, so the ratio sits near 1 by
/// construction; 1.25 absorbs partial-chunk and allocator jitter.
pub const FLATNESS: f64 = 1.25;

/// Epochs of rotation sweeps per scale.
const SWEEP_EPOCHS: usize = 2;
/// Rows of the synthetic feature matrix at scale 1.
const BASE_ROWS: usize = 2048;
/// Feature width of the synthetic matrix.
const FEAT_DIM: usize = 64;
/// Resident-tensor budget (bytes) for the sweep's tiered store.
const BUDGET_BYTES: u64 = 96 * 1024;
/// Depth of the staging pipeline the sweep faults through.
const PREFETCH_DEPTH: usize = 2;
/// Row multipliers swept (peak memory must stay flat across them).
const SCALES: [usize; 4] = [1, 2, 4, 8];
/// Cluster size for the parity training runs.
const WORLD: usize = 4;
/// Synthetic dataset node count for the parity training runs.
const NODES: usize = 1200;
/// `--mem-budget` for the budgeted parity runs (bytes). Tight enough that
/// both the stale cache blocks (tens of KiB each) and the GAT
/// rematerialization inputs (a few KiB per layer) must spill.
const TRAIN_BUDGET: u64 = 8 * 1024;
/// Seed for the parity workloads.
const SEED: u64 = 0;

// ----------------------------------------------------------------------
// The out-of-core sweep
// ----------------------------------------------------------------------

/// Deterministic synthetic feature chunk: pure integer-derived f32
/// values, bitwise identical on every platform.
fn synth_chunk(global_row0: usize, rows: usize, f: usize) -> Tensor {
    let mut data = Vec::with_capacity(rows * f);
    for r in 0..rows {
        let i = global_row0 + r;
        for j in 0..f {
            data.push(((i * 31 + j * 7) % 97) as f32 * 0.015_625);
        }
    }
    Tensor::from_vec(&[rows, f], data)
}

/// Ingests the `[rows, f]` matrix into a store with the given budget and
/// sweeps it for [`SWEEP_EPOCHS`] rotations of the depth-`k` schedule.
/// Returns the accumulator digest; the caller reads the tier counters
/// and the memory peak around this call.
fn sweep_store(
    rows: usize,
    f: usize,
    chunk_rows: usize,
    k: usize,
    budget: u64,
) -> Result<String, String> {
    let err = |what: &str, e: sar_tensor::tier::TierError| format!("{what}: {e}");
    let mut store = TieredStore::new(budget);
    let n = rows.div_ceil(chunk_rows);
    for c in 0..n {
        let r0 = c * chunk_rows;
        let nr = chunk_rows.min(rows - r0);
        store
            .put(c as u64, synth_chunk(r0, nr, f))
            .map_err(|e| err("ingest", e))?;
    }
    let mut acc = vec![0f32; f];
    for epoch in 0..SWEEP_EPOCHS {
        // A different perspective each epoch rotates the consumption
        // order, like a different rank's schedule.
        let p = epoch % n;
        let mut staged: VecDeque<(usize, Tensor)> = VecDeque::new();
        for step in plan::fetch_steps(n, p, k) {
            match step {
                FetchStep::GatherLocal => {
                    staged.push_back((p, store.take(p as u64).map_err(|e| err("gather", e))?));
                }
                // No peer to serve in the single-process sweep.
                FetchStep::Serve { .. } => {}
                FetchStep::Fetch { src, .. } => {
                    // The disk prefetch: faulting here, ahead of the
                    // consume, is what hides disk latency behind compute
                    // exactly like the network prefetch hides the wire.
                    staged.push_back((src, store.take(src as u64).map_err(|e| err("fault", e))?));
                }
                FetchStep::Consume { q } => {
                    let (id, t) = staged.pop_front().ok_or("staging queue underrun")?;
                    if id != q {
                        return Err(format!("consumed chunk {id}, schedule expected {q}"));
                    }
                    let d = t.data();
                    for r in 0..t.rows() {
                        for (j, a) in acc.iter_mut().enumerate() {
                            *a += d[r * f + j];
                        }
                    }
                    store.put(id as u64, t).map_err(|e| err("put-back", e))?;
                }
            }
        }
        if !staged.is_empty() {
            return Err(format!(
                "{} chunks left staged after the sweep",
                staged.len()
            ));
        }
    }
    let bits: String = acc.iter().map(|v| format!("{:08x}", v.to_bits())).collect();
    Ok(fingerprint(&bits))
}

/// Runs one sweep scale: the budgeted store (measured) and the unbounded
/// baseline (digest only).
fn run_scale(scale: usize) -> Result<Value, String> {
    let (f, k) = (FEAT_DIM, PREFETCH_DEPTH);
    // Fit (k+2) staged chunks plus headroom for the accumulator and the
    // in-flight copy inside the budget, so the working set is
    // budget-derived and independent of the matrix size.
    let chunk_rows = ((BUDGET_BYTES as usize / (4 * f)) / (k + 4)).max(1);
    let rows = BASE_ROWS * scale;
    let chunks = rows.div_ceil(chunk_rows);
    eprintln!(
        "[outofcorebench] sweep: scale {scale} — {rows} x {f} rows in {chunks} chunks, \
         budget {} KiB, depth {k} ...",
        BUDGET_BYTES / 1024
    );
    let start = std::time::Instant::now();
    let _ = sar_tensor::tier::take_tier_counters();
    MemoryTracker::reset_peak();
    let before = MemoryTracker::stats().current_bytes;
    let digest = sweep_store(rows, f, chunk_rows, k, BUDGET_BYTES)?;
    let peak = MemoryTracker::stats().peak_bytes.saturating_sub(before) as u64;
    let (spill_bytes, fault_bytes, _) = sar_tensor::tier::take_tier_counters();
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    // The unbounded baseline holds every chunk resident — nothing ever
    // touches disk, so a digest match proves the round-trips exact.
    let unbounded_digest = sweep_store(rows, f, chunk_rows, k, u64::MAX)?;
    let _ = sar_tensor::tier::take_tier_counters();
    Ok(obj([
        ("scale", scale.into()),
        ("rows", rows.into()),
        ("chunks", chunks.into()),
        ("chunk_rows", chunk_rows.into()),
        ("peak_resident_bytes", peak.into()),
        ("spill_bytes", spill_bytes.into()),
        ("fault_bytes", fault_bytes.into()),
        ("digest", digest.into()),
        ("unbounded_digest", unbounded_digest.into()),
        ("elapsed_ms", fixed(elapsed_ms, 3)),
    ]))
}

// ----------------------------------------------------------------------
// The training parity grid
// ----------------------------------------------------------------------

/// One parity grid cell: `(protocol, threads, prefetch_depth)`.
type Cell = (&'static str, usize, usize);

/// The simulated-transport parity grid. GAT everywhere — its saved
/// softmax statistics are the rematerialization inputs that spill.
#[must_use]
pub fn sim_grid(quick: bool) -> Vec<Cell> {
    let mut g = vec![("stale:2", 1, 0), ("exact", 1, 2)];
    if !quick {
        g.push(("stale:2", 2, 2));
    }
    g
}

/// The TCP subset: one stale cell pins the multi-process path; the full
/// run adds an exact/threaded cell.
#[must_use]
pub fn tcp_grid(quick: bool) -> Vec<Cell> {
    if quick {
        return Vec::new();
    }
    vec![("stale:2", 1, 2), ("exact", 2, 0)]
}

fn cell_workload((protocol, threads, depth): Cell, budget: u64) -> Result<Workload, String> {
    let mut wl = smoke::workload("gat", NODES, SEED)?;
    wl.protocol = protocol.to_string();
    wl.threads = threads;
    wl.prefetch_depth = depth;
    wl.mem_budget = budget;
    Ok(wl)
}

/// Sums a phase counter over every rank and phase row of a report.
fn report_sum(report: &RunReport, pick: impl Fn(&PhaseEntry) -> u64) -> u64 {
    report
        .run
        .ranks
        .iter()
        .flat_map(|(_, comm)| comm.ledger.rows())
        .map(|(_, _, e)| pick(e))
        .sum()
}

/// Runs one parity cell on `transport`: the same training with
/// `--mem-budget` on, then off.
fn run_parity(cell: Cell, transport: Transport) -> Result<Value, String> {
    let (protocol, threads, depth) = cell;
    let mut digests = Vec::new();
    let (mut spill, mut fault) = (0, 0);
    for budget in [TRAIN_BUDGET, 0] {
        let wl = cell_workload(cell, budget)?;
        eprintln!(
            "[outofcorebench] {} parity: gat protocol={protocol} threads={threads} \
             depth={depth} mem-budget={budget} ...",
            transport.name()
        );
        let experiment = format!("outofcorebench-{protocol}-b{budget}");
        let report = run_workload(&wl, WORLD, transport, &experiment)
            .map_err(|e| format!("{}/{protocol}/t{threads}/d{depth}: {e}", transport.name()))?;
        if budget > 0 {
            spill = report_sum(&report, |p| p.spill_bytes);
            fault = report_sum(&report, |p| p.fault_bytes);
        }
        digests.push(fingerprint(&report.parity_digest()));
    }
    Ok(obj([
        ("transport", transport.name().into()),
        ("protocol", protocol.into()),
        ("threads", threads.into()),
        ("prefetch_depth", depth.into()),
        ("budget_bytes", TRAIN_BUDGET.into()),
        ("digest_budget", digests[0].as_str().into()),
        ("digest_unbounded", digests[1].as_str().into()),
        ("spill_bytes", spill.into()),
        ("fault_bytes", fault.into()),
    ]))
}

// ----------------------------------------------------------------------
// The `repro outofcorebench` subcommand and its gate
// ----------------------------------------------------------------------

/// `repro outofcorebench` and its `BENCH_outofcore.json` declaration:
/// the sweep and training constants are identity fields; sweep scales are
/// named by `scale` with their shape and result digest pinned (pure
/// integer-derived f32 arithmetic in a fixed order, so it is
/// machine-independent), and parity cells by `(transport, protocol,
/// threads, prefetch_depth)`.
#[derive(Debug)]
pub struct OutOfCoreBench;

impl GatedBench for OutOfCoreBench {
    const NAME: &'static str = "outofcorebench";
    /// v2: the artifact records `world`, `nodes`, `train_budget` and
    /// `seed`.
    const SCHEMA: &'static str = "sar-outofcorebench/v2";
    const IDENTITY: &'static [&'static str] = &[
        "base_rows",
        "feat_dim",
        "budget_bytes",
        "prefetch_depth",
        "world",
        "nodes",
        "train_budget",
        "seed",
    ];
    const TABLES: &'static [Records] = &[
        Records {
            table: "sweep",
            key: &["scale"],
            pinned: &["rows", "chunks", "chunk_rows", "digest"],
        },
        Records {
            table: "parity",
            key: &["transport", "protocol", "threads", "prefetch_depth"],
            pinned: &[],
        },
    ];
    /// `--quick`: sweep only the smallest and largest scales and skip
    /// the TCP parity cells (the committed artifact is always generated
    /// at full scale).
    type Config = bool;

    fn apply_flag(quick: &mut bool, flag: &str, _: &mut Args) -> Result<bool, String> {
        *quick |= flag == "--quick";
        Ok(flag == "--quick")
    }

    /// The memory-flatness sweep, then the parity grid (sim in-process,
    /// the TCP subset as real OS processes).
    fn run(&quick: &bool) -> Result<Fields, String> {
        let scales = if quick {
            vec![SCALES[0], SCALES[SCALES.len() - 1]]
        } else {
            SCALES.to_vec()
        };
        let mut sweep = Vec::new();
        for scale in scales {
            sweep.push(run_scale(scale).map_err(|e| format!("sweep scale {scale}: {e}"))?);
        }
        let mut parity = Vec::new();
        for (transport, grid) in [
            (Transport::Sim, sim_grid(quick)),
            (Transport::Tcp, tcp_grid(quick)),
        ] {
            for cell in grid {
                parity.push(run_parity(cell, transport)?);
            }
        }
        Ok(vec![
            ("base_rows", BASE_ROWS.into()),
            ("feat_dim", FEAT_DIM.into()),
            ("budget_bytes", BUDGET_BYTES.into()),
            ("prefetch_depth", PREFETCH_DEPTH.into()),
            ("world", WORLD.into()),
            ("nodes", NODES.into()),
            ("train_budget", TRAIN_BUDGET.into()),
            ("seed", SEED.into()),
            ("sweep", Value::Arr(sweep)),
            ("parity", Value::Arr(parity)),
        ])
    }

    /// Digest parity, tier engagement, ≥ 4× row growth with a flat
    /// resident peak, and one training digest per protocol.
    fn invariants(tag: &str, doc: &Value) -> Vec<String> {
        rules(tag, |v| {
            let sweep = doc.req_arr("sweep")?;
            if sweep.is_empty() {
                v.push(format!("{tag}: empty sweep"));
                return Ok(());
            }
            let (mut rows, mut peaks) = (Vec::new(), Vec::new());
            for s in sweep {
                let scale = s.req_u64("scale")?;
                let (digest, unbounded) = (s.req_str("digest")?, s.req_str("unbounded_digest")?);
                if digest != unbounded {
                    v.push(format!(
                        "{tag}: sweep scale {scale} digest {digest} != unbounded {unbounded} — \
                         the disk round-trip perturbed the result bits"
                    ));
                }
                let (spill, fault) = (s.req_u64("spill_bytes")?, s.req_u64("fault_bytes")?);
                if spill == 0 || fault == 0 {
                    v.push(format!(
                        "{tag}: sweep scale {scale} spilled {spill}B / faulted {fault}B — the \
                         budget never engaged the disk tier"
                    ));
                }
                rows.push(s.req_u64("rows")?);
                peaks.push(s.req_u64("peak_resident_bytes")?);
            }
            let span = |xs: &[u64]| {
                let (min, max) = (xs.iter().min(), xs.iter().max());
                (min.copied().unwrap_or(0), max.copied().unwrap_or(0))
            };
            let ((min_rows, max_rows), (min_peak, max_peak)) = (span(&rows), span(&peaks));
            if min_rows == 0 || max_rows < 4 * min_rows {
                v.push(format!(
                    "{tag}: sweep only spans {min_rows}..{max_rows} rows — the flatness claim \
                     needs at least 4x growth"
                ));
            }
            if min_peak == 0 || max_peak as f64 > min_peak as f64 * FLATNESS {
                v.push(format!(
                    "{tag}: peak resident bytes grew {min_peak} -> {max_peak} across the sweep \
                     (tolerance {FLATNESS}x) — out-of-core memory is not flat"
                ));
            }
            // The first cell of each protocol and its digest.
            let mut per_protocol: Vec<(String, String, String)> = Vec::new();
            for p in doc.req_arr("parity")? {
                let protocol = p.req_str("protocol")?;
                let cell = format!(
                    "{}/{protocol} t{} d{}",
                    p.req_str("transport")?,
                    p.req_u64("threads")?,
                    p.req_u64("prefetch_depth")?
                );
                let (budget, unbounded) =
                    (p.req_str("digest_budget")?, p.req_str("digest_unbounded")?);
                if budget != unbounded {
                    v.push(format!(
                        "{tag}: parity {cell}: budgeted digest {budget} != unbudgeted \
                         {unbounded} — spilling changed training"
                    ));
                }
                let (spill, fault) = (p.req_u64("spill_bytes")?, p.req_u64("fault_bytes")?);
                if spill == 0 || fault == 0 {
                    v.push(format!(
                        "{tag}: parity {cell}: spilled {spill}B / faulted {fault}B under \
                         --mem-budget {} — the budget never engaged the disk tier",
                        p.req_u64("budget_bytes")?
                    ));
                }
                match per_protocol.iter().find(|(proto, _, _)| proto == protocol) {
                    Some((_, first, digest)) if digest != budget => v.push(format!(
                        "{tag}: parity {cell}: digest {budget} != {digest} of {first} — the \
                         training result depends on the transport, threads or depth"
                    )),
                    Some(_) => {}
                    None => per_protocol.push((protocol.into(), cell, budget.into())),
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

    fn sweep(scale: usize, peak: u64) -> Value {
        obj([
            ("scale", scale.into()),
            ("rows", (2048 * scale).into()),
            ("chunks", (32 * scale).into()),
            ("chunk_rows", 64usize.into()),
            ("peak_resident_bytes", peak.into()),
            ("spill_bytes", 400_000u64.into()),
            ("fault_bytes", 390_000u64.into()),
            ("digest", format!("d{scale:015x}").into()),
            ("unbounded_digest", format!("d{scale:015x}").into()),
            ("elapsed_ms", 12.0.into()),
        ])
    }

    fn parity(transport: &str, protocol: &str, threads: usize, depth: usize) -> Value {
        let digest = if protocol == "exact" {
            "105bb5c0ebc78376"
        } else {
            "e267f09a422b8c4b"
        };
        obj([
            ("transport", transport.into()),
            ("protocol", protocol.into()),
            ("threads", threads.into()),
            ("prefetch_depth", depth.into()),
            ("budget_bytes", 8192u64.into()),
            ("digest_budget", digest.into()),
            ("digest_unbounded", digest.into()),
            ("spill_bytes", 123_456u64.into()),
            ("fault_bytes", 120_000u64.into()),
        ])
    }

    struct Sample {
        sweep: Vec<Value>,
        parity: Vec<Value>,
    }

    fn sample() -> Sample {
        Sample {
            sweep: vec![
                sweep(1, 100_000),
                sweep(2, 101_000),
                sweep(4, 102_000),
                sweep(8, 103_000),
            ],
            parity: vec![
                parity("sim", "stale:2", 1, 0),
                parity("sim", "exact", 1, 2),
                parity("tcp", "stale:2", 1, 2),
            ],
        }
    }

    impl Sample {
        fn doc(self) -> Value {
            document::<OutOfCoreBench>(vec![
                ("base_rows", 2048usize.into()),
                ("feat_dim", 64usize.into()),
                ("budget_bytes", (96u64 * 1024).into()),
                ("prefetch_depth", 2usize.into()),
                ("world", 4usize.into()),
                ("nodes", 1200usize.into()),
                ("train_budget", 8192u64.into()),
                ("seed", 0u64.into()),
                ("sweep", Value::Arr(self.sweep)),
                ("parity", Value::Arr(self.parity)),
            ])
        }

        /// The gate's violations for this fresh run against the clean
        /// sample as committed.
        fn violations(self) -> Vec<String> {
            check::<OutOfCoreBench>(&self.doc(), &sample().doc().pretty(2))
        }
    }

    fn any(v: &[String], needle: &str) -> bool {
        v.iter().any(|m| m.contains(needle))
    }

    #[test]
    fn clean_report_passes_and_timings_may_drift() {
        let mut r = sample();
        set(&mut r.sweep[3], "elapsed_ms", 900.0);
        assert_eq!(r.violations(), Vec::<String>::new());
    }

    #[test]
    fn memory_growth_fails_the_flatness_gate() {
        let mut r = sample();
        set(&mut r.sweep[3], "peak_resident_bytes", 200_000u64);
        assert!(any(&r.violations(), "not flat"));
    }

    #[test]
    fn digest_divergence_fails_the_gate() {
        let mut r = sample();
        set(&mut r.sweep[1], "unbounded_digest", "ffffffffffffffff");
        assert!(any(&r.violations(), "perturbed"));
        let mut r = sample();
        set(&mut r.parity[0], "digest_unbounded", "ffffffffffffffff");
        assert!(any(&r.violations(), "changed training"));
    }

    #[test]
    fn every_cell_of_one_protocol_carries_one_digest() {
        // A threads- or transport-dependent digest that both sides of a
        // cell share: budget-on == budget-off, yet training moved.
        let mut r = sample();
        set(&mut r.parity[2], "digest_budget", "0123456789abcdef");
        set(&mut r.parity[2], "digest_unbounded", "0123456789abcdef");
        let v = r.violations();
        assert!(any(
            &v,
            "tcp/stale:2 t1 d2: digest 0123456789abcdef != e267f09a422b8c4b"
        ));
        assert!(
            any(&v, "depends on the transport, threads or depth"),
            "{v:?}"
        );
        assert!(!any(&v, "changed training"), "{v:?}");
    }

    #[test]
    fn idle_tier_fails_the_engagement_gate() {
        let mut r = sample();
        set(&mut r.sweep[0], "spill_bytes", 0u64);
        assert!(any(&r.violations(), "never engaged"));
        let mut r = sample();
        set(&mut r.parity[0], "fault_bytes", 0u64);
        assert!(any(&r.violations(), "never engaged"));
    }

    #[test]
    fn insufficient_scale_growth_fails_the_gate() {
        let mut r = sample();
        r.sweep.truncate(2); // 1x..2x only
        let doc = r.doc();
        let v = check::<OutOfCoreBench>(&doc, &doc.pretty(2));
        assert!(any(&v, "4x growth"), "{v:?}");
    }

    #[test]
    fn sweep_digest_drift_against_committed_fails() {
        let mut r = sample();
        set(&mut r.sweep[2], "digest", "1111111111111111");
        set(&mut r.sweep[2], "unbounded_digest", "1111111111111111");
        let v = r.violations();
        assert!(
            any(&v, "sweep scale=4: digest is 1111111111111111")
                && any(&v, "no longer bitwise reproducible"),
            "{v:?}"
        );
    }

    #[test]
    fn sweep_is_deterministic_and_budget_independent() {
        // Tiny end-to-end sweep through the real store: bounded (forcing
        // spills) and unbounded digests must agree, twice over.
        let a = sweep_store(256, 8, 16, 1, 2048).unwrap();
        let b = sweep_store(256, 8, 16, 1, 2048).unwrap();
        let c = sweep_store(256, 8, 16, 1, u64::MAX).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn grids_cover_both_protocol_families() {
        let sim = sim_grid(false);
        assert!(sim.iter().any(|(p, _, _)| p.starts_with("stale")));
        assert!(sim.iter().any(|(p, _, _)| *p == "exact"));
        assert!(!tcp_grid(false).is_empty());
        assert!(tcp_grid(true).is_empty());
        assert!(sim_grid(true).len() < sim.len());
    }
}
