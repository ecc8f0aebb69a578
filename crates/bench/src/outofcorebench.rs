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
//!   cannot perturb training by a single bit.
//!
//! Following the `BENCH_kernels.json` precedent, the gate never compares
//! timings — elapsed times are recorded for human eyes only. It checks
//! schema/run-set identity, digest determinism (fresh vs committed),
//! spill/fault engagement, memory flatness and digest parity.

use std::collections::VecDeque;

use crate::json::{fixed, obj, Value};
use sar_comm::PhaseEntry;
use sar_core::plan::{self, FetchStep};
use sar_tensor::tier::TieredStore;
use sar_tensor::{MemoryTracker, Tensor};

use crate::cli::{parse_committed, Args, GatedBench};
use crate::compressbench::fingerprint;
use crate::distrun::Workload;
use crate::harness::{run_workload, Transport};
use crate::report::RunReport;
use crate::smoke;

/// Schema tag written into (and required from) `BENCH_outofcore.json`.
/// Bump whenever the sweep shape, the parity grid or the field layout
/// change; the gate refuses to compare across schema versions.
pub const SCHEMA: &str = "sar-outofcorebench/v1";

/// How far the largest sweep scale's peak resident bytes may exceed the
/// smallest scale's before the gate fails. The working set is
/// budget-derived, not graph-derived, so the ratio sits near 1 by
/// construction; 1.25 absorbs partial-chunk and allocator jitter.
pub const FLATNESS: f64 = 1.25;

/// Epochs of rotation sweeps per scale.
const SWEEP_EPOCHS: usize = 2;

/// The benchmark workload: everything needed to rebuild every run
/// deterministically.
#[derive(Debug, Clone)]
pub struct OocBenchConfig {
    /// Rows of the synthetic feature matrix at scale 1.
    pub base_rows: usize,
    /// Feature width of the synthetic matrix.
    pub feat_dim: usize,
    /// Resident-tensor budget (bytes) for the sweep's tiered store.
    pub budget_bytes: u64,
    /// Depth of the staging pipeline the sweep faults through.
    pub prefetch_depth: usize,
    /// Row multipliers swept (peak memory must stay flat across them).
    pub scales: Vec<usize>,
    /// Cluster size for the parity training runs.
    pub world: usize,
    /// Synthetic dataset node count for the parity training runs.
    pub nodes: usize,
    /// `--mem-budget` for the budgeted parity runs (bytes). Tight enough
    /// that both the stale cache blocks (tens of KiB each) and the GAT
    /// rematerialization inputs (a few KiB per layer) must spill.
    pub train_budget: u64,
    /// Seed for the parity workloads.
    pub seed: u64,
    /// Transports the parity grid runs.
    pub transports: Vec<Transport>,
    /// Trim the sweep and skip the TCP parity cells for local iteration
    /// (the committed artifact is always generated at full scale).
    pub quick: bool,
}

impl Default for OocBenchConfig {
    fn default() -> Self {
        OocBenchConfig {
            base_rows: 2048,
            feat_dim: 64,
            budget_bytes: 96 * 1024,
            prefetch_depth: 2,
            scales: vec![1, 2, 4, 8],
            world: 4,
            nodes: 1200,
            train_budget: 8 * 1024,
            seed: 0,
            transports: vec![Transport::Sim, Transport::Tcp],
            quick: false,
        }
    }
}

/// One sweep scale's measured run.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Row multiplier over `base_rows`.
    pub scale: usize,
    /// Total matrix rows at this scale.
    pub rows: usize,
    /// Chunk count the matrix was split into.
    pub chunks: usize,
    /// Rows per chunk (budget-derived, identical across scales).
    pub chunk_rows: usize,
    /// Peak resident tensor bytes over ingest + sweep (the gated value).
    pub peak_resident_bytes: u64,
    /// Bytes spilled to the arena's file.
    pub spill_bytes: u64,
    /// Bytes faulted back from the arena.
    pub fault_bytes: u64,
    /// FNV-1a 64 over the accumulator's f32 bit patterns.
    pub digest: String,
    /// The same accumulation through an unbounded (never-spilling)
    /// store — must equal `digest`.
    pub unbounded_digest: String,
    /// Wall time, milliseconds — recorded for humans, never gated.
    pub elapsed_ms: f64,
}

/// One parity grid cell: the same training run with `--mem-budget` on
/// and off.
#[derive(Debug, Clone)]
pub struct ParityRun {
    /// `"sim"` or `"tcp"`.
    pub transport: String,
    /// Exchange protocol (`"exact"` exercises remat spilling, `"stale:<r>"`
    /// additionally spills the cached protocol blocks).
    pub protocol: String,
    /// Intra-worker kernel threads.
    pub threads: usize,
    /// Fetch-pipeline depth.
    pub prefetch_depth: usize,
    /// `--mem-budget` of the budgeted run (bytes).
    pub budget_bytes: u64,
    /// FNV-1a 64 fingerprint of the budgeted run's parity digest.
    pub digest_budget: String,
    /// Fingerprint of the unbudgeted (`--mem-budget 0`) run's digest —
    /// must equal `digest_budget`.
    pub digest_unbounded: String,
    /// Bytes the budgeted run spilled, summed over ranks and phases.
    pub spill_bytes: u64,
    /// Bytes the budgeted run faulted back.
    pub fault_bytes: u64,
}

/// A full outofcorebench run: the workload identity plus results.
#[derive(Debug, Clone)]
pub struct OocBenchReport {
    /// Sweep matrix rows at scale 1.
    pub base_rows: usize,
    /// Sweep matrix feature width.
    pub feat_dim: usize,
    /// Sweep store budget (bytes).
    pub budget_bytes: u64,
    /// Sweep staging depth.
    pub prefetch_depth: usize,
    /// Per-scale sweep runs, ascending scale.
    pub sweep: Vec<SweepRun>,
    /// Parity grid results, sim first, then tcp.
    pub parity: Vec<ParityRun>,
}

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
fn run_scale(cfg: &OocBenchConfig, scale: usize) -> Result<SweepRun, String> {
    let f = cfg.feat_dim;
    let k = cfg.prefetch_depth;
    // Fit (k+2) staged chunks plus headroom for the accumulator and the
    // in-flight copy inside the budget, so the working set is
    // budget-derived and independent of the matrix size.
    let chunk_rows = ((cfg.budget_bytes as usize / (4 * f)) / (k + 4)).max(1);
    let rows = cfg.base_rows * scale;
    let chunks = rows.div_ceil(chunk_rows);
    eprintln!(
        "[outofcorebench] sweep: scale {scale} — {rows} x {f} rows in {chunks} chunks, \
         budget {} KiB, depth {k} ...",
        cfg.budget_bytes / 1024
    );
    let start = std::time::Instant::now();
    let _ = sar_tensor::tier::take_tier_counters();
    MemoryTracker::reset_peak();
    let before = MemoryTracker::stats().current_bytes;
    let digest = sweep_store(rows, f, chunk_rows, k, cfg.budget_bytes)?;
    let peak = MemoryTracker::stats().peak_bytes.saturating_sub(before) as u64;
    let (spill_bytes, fault_bytes, _) = sar_tensor::tier::take_tier_counters();
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    // The unbounded baseline holds every chunk resident — nothing ever
    // touches disk, so a digest match proves the round-trips exact.
    let unbounded_digest = sweep_store(rows, f, chunk_rows, k, u64::MAX)?;
    let _ = sar_tensor::tier::take_tier_counters();
    Ok(SweepRun {
        scale,
        rows,
        chunks,
        chunk_rows,
        peak_resident_bytes: peak,
        spill_bytes,
        fault_bytes,
        digest,
        unbounded_digest,
        elapsed_ms,
    })
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

fn cell_workload(
    cfg: &OocBenchConfig,
    (protocol, threads, depth): Cell,
    budget: u64,
) -> Result<Workload, String> {
    let mut wl = smoke::workload("gat", cfg.nodes, cfg.seed)?;
    wl.protocol = protocol.to_string();
    wl.threads = threads;
    wl.prefetch_depth = depth;
    wl.mem_budget = budget;
    Ok(wl)
}

/// Sums a phase counter over every rank and phase row of a report.
fn report_sum(report: &RunReport, pick: impl Fn(&PhaseEntry) -> u64) -> u64 {
    report
        .workers
        .iter()
        .flat_map(|w| w.phases.iter())
        .map(|r| pick(&r.entry))
        .sum()
}

/// Runs one parity cell on `transport`: the same training with
/// `--mem-budget` on, then off.
fn run_parity(cfg: &OocBenchConfig, cell: Cell, transport: Transport) -> Result<ParityRun, String> {
    let (protocol, threads, depth) = cell;
    let mut digests = Vec::new();
    let mut spill = 0;
    let mut fault = 0;
    for budget in [cfg.train_budget, 0] {
        let wl = cell_workload(cfg, cell, budget)?;
        eprintln!(
            "[outofcorebench] {} parity: gat protocol={protocol} threads={threads} \
             depth={depth} mem-budget={budget} ...",
            transport.name()
        );
        let experiment = format!("outofcorebench-{protocol}-b{budget}");
        let report = run_workload(&wl, cfg.world, transport, &experiment)
            .map_err(|e| format!("{}/{protocol}/t{threads}/d{depth}: {e}", transport.name()))?;
        if budget > 0 {
            spill = report_sum(&report, |p| p.spill_bytes);
            fault = report_sum(&report, |p| p.fault_bytes);
        }
        digests.push(fingerprint(&report.parity_digest()));
    }
    Ok(ParityRun {
        transport: transport.name().into(),
        protocol: protocol.into(),
        threads,
        prefetch_depth: depth,
        budget_bytes: cfg.train_budget,
        digest_budget: digests[0].clone(),
        digest_unbounded: digests[1].clone(),
        spill_bytes: spill,
        fault_bytes: fault,
    })
}

// ----------------------------------------------------------------------
// Serialization
// ----------------------------------------------------------------------

/// Parses a `BENCH_outofcore.json` document back into a report.
///
/// # Errors
///
/// Rejects malformed JSON or missing fields with a message naming the
/// field.
pub fn parse_report(text: &str) -> Result<OocBenchReport, String> {
    let doc = parse_committed::<OocBenchReport>(text, SCHEMA)?;
    let count = |v: &Value, k: &str| v.req_u64(k).map(|n| n as usize);
    let text = |v: &Value, k: &str| v.req_str(k).map(str::to_string);
    let sweep = |r: &Value| -> Result<SweepRun, String> {
        Ok(SweepRun {
            scale: count(r, "scale")?,
            rows: count(r, "rows")?,
            chunks: count(r, "chunks")?,
            chunk_rows: count(r, "chunk_rows")?,
            peak_resident_bytes: r.req_u64("peak_resident_bytes")?,
            spill_bytes: r.req_u64("spill_bytes")?,
            fault_bytes: r.req_u64("fault_bytes")?,
            digest: text(r, "digest")?,
            unbounded_digest: text(r, "unbounded_digest")?,
            elapsed_ms: r.req_num("elapsed_ms")?,
        })
    };
    let parity = |r: &Value| -> Result<ParityRun, String> {
        Ok(ParityRun {
            transport: text(r, "transport")?,
            protocol: text(r, "protocol")?,
            threads: count(r, "threads")?,
            prefetch_depth: count(r, "prefetch_depth")?,
            budget_bytes: r.req_u64("budget_bytes")?,
            digest_budget: text(r, "digest_budget")?,
            digest_unbounded: text(r, "digest_unbounded")?,
            spill_bytes: r.req_u64("spill_bytes")?,
            fault_bytes: r.req_u64("fault_bytes")?,
        })
    };
    Ok(OocBenchReport {
        base_rows: count(&doc, "base_rows")?,
        feat_dim: count(&doc, "feat_dim")?,
        budget_bytes: doc.req_u64("budget_bytes")?,
        prefetch_depth: count(&doc, "prefetch_depth")?,
        sweep: doc
            .items("sweep")
            .iter()
            .map(sweep)
            .collect::<Result<_, _>>()?,
        parity: doc
            .items("parity")
            .iter()
            .map(parity)
            .collect::<Result<_, _>>()?,
    })
}

// ----------------------------------------------------------------------
// The gate
// ----------------------------------------------------------------------

/// Invariants a single report must satisfy on its own (applied to both
/// the fresh and the committed copy).
fn self_check(tag: &str, r: &OocBenchReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.sweep.is_empty() {
        v.push(format!("{tag}: empty sweep"));
        return v;
    }
    for s in &r.sweep {
        if s.digest != s.unbounded_digest {
            v.push(format!(
                "{tag}: sweep scale {} digest {} != unbounded {} — the disk round-trip \
                 perturbed the result bits",
                s.scale, s.digest, s.unbounded_digest
            ));
        }
        if s.spill_bytes == 0 || s.fault_bytes == 0 {
            v.push(format!(
                "{tag}: sweep scale {} spilled {}B / faulted {}B — the budget never \
                 engaged the disk tier",
                s.scale, s.spill_bytes, s.fault_bytes
            ));
        }
    }
    let min_peak = r
        .sweep
        .iter()
        .map(|s| s.peak_resident_bytes)
        .min()
        .unwrap_or(0);
    let max_peak = r
        .sweep
        .iter()
        .map(|s| s.peak_resident_bytes)
        .max()
        .unwrap_or(0);
    let min_rows = r.sweep.iter().map(|s| s.rows).min().unwrap_or(0);
    let max_rows = r.sweep.iter().map(|s| s.rows).max().unwrap_or(0);
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
    for p in &r.parity {
        let cell = format!(
            "{}/{} t{} d{}",
            p.transport, p.protocol, p.threads, p.prefetch_depth
        );
        if p.digest_budget != p.digest_unbounded {
            v.push(format!(
                "{tag}: parity {cell}: budgeted digest {} != unbudgeted {} — spilling \
                 changed training",
                p.digest_budget, p.digest_unbounded
            ));
        }
        if p.spill_bytes == 0 || p.fault_bytes == 0 {
            v.push(format!(
                "{tag}: parity {cell}: spilled {}B / faulted {}B under --mem-budget {} — \
                 the budget never engaged the disk tier",
                p.spill_bytes, p.fault_bytes, p.budget_bytes
            ));
        }
    }
    v
}

// ----------------------------------------------------------------------
// The `repro outofcorebench` subcommand: flags, artifact and CI gate
// ----------------------------------------------------------------------

impl GatedBench for OocBenchReport {
    const NAME: &'static str = "outofcorebench";
    type Config = OocBenchConfig;

    fn apply_flag(cfg: &mut Self::Config, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--nodes" => cfg.nodes = args.parsed(flag)?,
            "--train-budget" => cfg.train_budget = args.parsed(flag)?,
            "--seed" => cfg.seed = args.parsed(flag)?,
            "--transport" => cfg.transports = Transport::parse_list(&args.value(flag)?)?,
            "--quick" => cfg.quick = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Runs the full benchmark: the memory-flatness sweep, then the
    /// parity grid (sim in-process, the TCP subset as real OS processes).
    fn run(cfg: &Self::Config) -> Result<Self, String> {
        let scales: Vec<usize> = if cfg.quick {
            cfg.scales
                .iter()
                .copied()
                .filter(|&s| {
                    s == *cfg.scales.first().unwrap_or(&1) || s == *cfg.scales.last().unwrap_or(&1)
                })
                .collect()
        } else {
            cfg.scales.clone()
        };
        let mut sweep = Vec::new();
        for scale in scales {
            sweep.push(run_scale(cfg, scale).map_err(|e| format!("sweep scale {scale}: {e}"))?);
        }
        let mut parity = Vec::new();
        for (transport, grid) in [
            (Transport::Sim, sim_grid(cfg.quick)),
            (Transport::Tcp, tcp_grid(cfg.quick)),
        ] {
            if cfg.transports.contains(&transport) {
                for cell in grid {
                    parity.push(run_parity(cfg, cell, transport)?);
                }
            }
        }
        Ok(OocBenchReport {
            base_rows: cfg.base_rows,
            feat_dim: cfg.feat_dim,
            budget_bytes: cfg.budget_bytes,
            prefetch_depth: cfg.prefetch_depth,
            sweep,
            parity,
        })
    }

    /// Prints the human-readable summary tables.
    fn print(&self) {
        use crate::report::Table;
        let mut t = Table::new(
            format!(
                "outofcorebench sweep — budget {} KiB, depth {}",
                self.budget_bytes / 1024,
                self.prefetch_depth
            ),
            &[
                "scale",
                "rows",
                "chunks",
                "peak KiB",
                "spill KiB",
                "fault KiB",
                "parity",
                "ms",
            ],
        );
        for s in &self.sweep {
            t.row(vec![
                s.scale.to_string(),
                s.rows.to_string(),
                s.chunks.to_string(),
                format!("{:.1}", s.peak_resident_bytes as f64 / 1024.0),
                format!("{:.1}", s.spill_bytes as f64 / 1024.0),
                format!("{:.1}", s.fault_bytes as f64 / 1024.0),
                (s.digest == s.unbounded_digest).to_string(),
                format!("{:.1}", s.elapsed_ms),
            ]);
        }
        t.print();
        let mut t = Table::new(
            "outofcorebench parity — --mem-budget on vs off".to_string(),
            &[
                "transport",
                "protocol",
                "threads",
                "depth",
                "spill KiB",
                "fault KiB",
                "parity",
            ],
        );
        for p in &self.parity {
            t.row(vec![
                p.transport.clone(),
                p.protocol.clone(),
                p.threads.to_string(),
                p.prefetch_depth.to_string(),
                format!("{:.1}", p.spill_bytes as f64 / 1024.0),
                format!("{:.1}", p.fault_bytes as f64 / 1024.0),
                (p.digest_budget == p.digest_unbounded).to_string(),
            ]);
        }
        t.print();
    }

    /// The schema-versioned `BENCH_outofcore.json` document.
    fn to_json(&self) -> String {
        let sweep = |r: &SweepRun| {
            obj([
                ("scale", r.scale.into()),
                ("rows", r.rows.into()),
                ("chunks", r.chunks.into()),
                ("chunk_rows", r.chunk_rows.into()),
                ("peak_resident_bytes", r.peak_resident_bytes.into()),
                ("spill_bytes", r.spill_bytes.into()),
                ("fault_bytes", r.fault_bytes.into()),
                ("digest", r.digest.as_str().into()),
                ("unbounded_digest", r.unbounded_digest.as_str().into()),
                ("elapsed_ms", fixed(r.elapsed_ms, 3)),
            ])
        };
        let parity = |r: &ParityRun| {
            obj([
                ("transport", r.transport.as_str().into()),
                ("protocol", r.protocol.as_str().into()),
                ("threads", r.threads.into()),
                ("prefetch_depth", r.prefetch_depth.into()),
                ("budget_bytes", r.budget_bytes.into()),
                ("digest_budget", r.digest_budget.as_str().into()),
                ("digest_unbounded", r.digest_unbounded.as_str().into()),
                ("spill_bytes", r.spill_bytes.into()),
                ("fault_bytes", r.fault_bytes.into()),
            ])
        };
        let doc = obj([
            ("schema", SCHEMA.into()),
            ("base_rows", self.base_rows.into()),
            ("feat_dim", self.feat_dim.into()),
            ("budget_bytes", self.budget_bytes.into()),
            ("prefetch_depth", self.prefetch_depth.into()),
            ("sweep", self.sweep.iter().map(sweep).collect()),
            ("parity", self.parity.iter().map(parity).collect()),
        ]);
        doc.pretty(2) + "\n"
    }

    /// Diffs a fresh report against the committed artifact. Never
    /// compares timings.
    fn check_against(&self, committed_text: &str) -> Vec<String> {
        let committed = match parse_report(committed_text) {
            Ok(c) => c,
            Err(e) => return vec![format!("committed artifact: {e}")],
        };
        let mut v = Vec::new();
        if (
            self.base_rows,
            self.feat_dim,
            self.budget_bytes,
            self.prefetch_depth,
        ) != (
            committed.base_rows,
            committed.feat_dim,
            committed.budget_bytes,
            committed.prefetch_depth,
        ) {
            v.push(
                "sweep configuration differs from the committed artifact — regenerate it with \
                 `repro outofcorebench --out BENCH_outofcore.json`"
                    .into(),
            );
        }
        let cur_set: Vec<_> = self
            .sweep
            .iter()
            .map(|s| (s.scale, s.rows, s.chunks))
            .collect();
        let com_set: Vec<_> = committed
            .sweep
            .iter()
            .map(|s| (s.scale, s.rows, s.chunks))
            .collect();
        if cur_set != com_set {
            v.push(format!(
                "sweep run set differs: current {cur_set:?} vs committed {com_set:?} — \
                 regenerate the artifact"
            ));
        } else {
            // The sweep is pure integer-derived f32 arithmetic in a fixed
            // order: its digest is machine-independent and must not drift.
            for (c, k) in self.sweep.iter().zip(&committed.sweep) {
                if c.digest != k.digest {
                    v.push(format!(
                        "sweep scale {}: digest {} != committed {} — the accumulation is no \
                         longer bitwise reproducible",
                        c.scale, c.digest, k.digest
                    ));
                }
            }
        }
        let cell = |p: &ParityRun| {
            (
                p.transport.clone(),
                p.protocol.clone(),
                p.threads,
                p.prefetch_depth,
            )
        };
        let cur_cells: Vec<_> = self.parity.iter().map(cell).collect();
        let com_cells: Vec<_> = committed.parity.iter().map(cell).collect();
        if cur_cells != com_cells {
            v.push(format!(
                "parity run set differs: current {cur_cells:?} vs committed {com_cells:?} — \
                 regenerate the artifact"
            ));
        }
        v.extend(self_check("current", self));
        v.extend(self_check("committed", &committed));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sweep(scale: usize, peak: u64) -> SweepRun {
        SweepRun {
            scale,
            rows: 2048 * scale,
            chunks: 32 * scale,
            chunk_rows: 64,
            peak_resident_bytes: peak,
            spill_bytes: 400_000,
            fault_bytes: 390_000,
            digest: format!("d{scale:015x}"),
            unbounded_digest: format!("d{scale:015x}"),
            elapsed_ms: 12.0,
        }
    }

    fn sample_parity() -> ParityRun {
        ParityRun {
            transport: "sim".into(),
            protocol: "stale:2".into(),
            threads: 1,
            prefetch_depth: 0,
            budget_bytes: 65536,
            digest_budget: "abcdabcdabcdabcd".into(),
            digest_unbounded: "abcdabcdabcdabcd".into(),
            spill_bytes: 123_456,
            fault_bytes: 120_000,
        }
    }

    fn sample_report() -> OocBenchReport {
        OocBenchReport {
            base_rows: 2048,
            feat_dim: 64,
            budget_bytes: 96 * 1024,
            prefetch_depth: 2,
            sweep: vec![
                sample_sweep(1, 100_000),
                sample_sweep(2, 101_000),
                sample_sweep(4, 102_000),
                sample_sweep(8, 103_000),
            ],
            parity: vec![sample_parity()],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = sample_report();
        let parsed = parse_report(&r.to_json()).unwrap();
        assert_eq!(parsed.sweep.len(), 4);
        assert_eq!(parsed.sweep[3].rows, 2048 * 8);
        assert_eq!(parsed.sweep[0].digest, r.sweep[0].digest);
        assert_eq!(parsed.parity[0].protocol, "stale:2");
        assert_eq!(parsed.parity[0].spill_bytes, 123_456);
    }

    #[test]
    fn clean_report_passes_its_own_gate() {
        let r = sample_report();
        assert_eq!(r.check_against(&r.to_json()), Vec::<String>::new());
    }

    #[test]
    fn memory_growth_fails_the_flatness_gate() {
        let mut r = sample_report();
        r.sweep[3].peak_resident_bytes = 200_000;
        let v = r.check_against(&r.to_json());
        assert!(v.iter().any(|m| m.contains("not flat")), "{v:?}");
    }

    #[test]
    fn digest_divergence_fails_the_gate() {
        let mut r = sample_report();
        r.sweep[1].unbounded_digest = "ffffffffffffffff".into();
        let v = r.check_against(&sample_report().to_json());
        assert!(v.iter().any(|m| m.contains("perturbed")), "{v:?}");
        let mut r = sample_report();
        r.parity[0].digest_unbounded = "ffffffffffffffff".into();
        let v = r.check_against(&sample_report().to_json());
        assert!(v.iter().any(|m| m.contains("changed training")), "{v:?}");
    }

    #[test]
    fn idle_tier_fails_the_engagement_gate() {
        let mut r = sample_report();
        r.sweep[0].spill_bytes = 0;
        let v = r.check_against(&sample_report().to_json());
        assert!(v.iter().any(|m| m.contains("never engaged")), "{v:?}");
        let mut r = sample_report();
        r.parity[0].fault_bytes = 0;
        let v = r.check_against(&sample_report().to_json());
        assert!(v.iter().any(|m| m.contains("never engaged")), "{v:?}");
    }

    #[test]
    fn stale_artifact_fails_on_run_set_and_schema() {
        let r = sample_report();
        let mut fewer = r.clone();
        fewer.sweep.pop();
        let v = fewer.check_against(&r.to_json());
        assert!(v.iter().any(|m| m.contains("run set differs")), "{v:?}");
        let stale = r.to_json().replace(SCHEMA, "sar-outofcorebench/v0");
        assert!(r.check_against(&stale)[0].contains("schema"));
    }

    #[test]
    fn insufficient_scale_growth_fails_the_gate() {
        let mut r = sample_report();
        r.sweep.truncate(2); // 1x..2x only
        let v = r.check_against(&r.to_json());
        assert!(v.iter().any(|m| m.contains("4x growth")), "{v:?}");
    }

    #[test]
    fn sweep_digest_drift_against_committed_fails() {
        let mut fresh = sample_report();
        fresh.sweep[2].digest = "1111111111111111".into();
        fresh.sweep[2].unbounded_digest = "1111111111111111".into();
        let v = fresh.check_against(&sample_report().to_json());
        assert!(
            v.iter()
                .any(|m| m.contains("no longer bitwise reproducible")),
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
