//! `repro kernelbench` — single-host kernel micro-benchmarks with a
//! committed, CI-gated performance trajectory.
//!
//! Times the SAR kernel family (sparse aggregation, edge softmax,
//! multi-head SpMM, fused/two-step GAT blocks, per-head projection and
//! the three dense matmul variants) over a fixed, seeded workload matrix
//! and writes a schema-versioned JSON report (`BENCH_kernels.json`).
//!
//! Raw GFLOP/s are machine-dependent, so the committed baseline is never
//! compared on absolute throughput. Instead each run calibrates the host
//! (a register-resident unfused multiply+add loop, [`simd::peak_probe`],
//! as a peak-GFLOP/s proxy; a large streaming `add_assign` as a
//! memory-bandwidth proxy), derives a per-kernel
//! roofline `min(peak, bandwidth × arithmetic-intensity)`, and reports
//! the achieved fraction of that roofline. The CI gate compares these
//! *roofline ratios* against the committed baseline with a deliberately
//! generous tolerance ([`REL_TOLERANCE`] relative slack plus an
//! [`ABS_TOLERANCE`] absolute floor): the goal is to catch an
//! accidentally-deleted SIMD path or a quadratic regression, not 10%
//! noise. The gate *hard-fails* on a schema mismatch or a kernel-set
//! mismatch — both mean the baseline is stale and must be regenerated
//! with `repro kernelbench --out BENCH_kernels.json`.
//!
//! The FLOP and byte counts per kernel are documented estimates (see
//! EXPERIMENTS.md), fixed per schema version: they only need to be
//! *consistent* between the baseline and the checking run, which the
//! schema tag guarantees.
//!
//! Helper-thread CPU time is drained through
//! [`sar_tensor::pool::take_helper_cpu_us`] after each timed kernel, so
//! the reported `cpu_us` covers the whole pool, not just the timing
//! thread.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use crate::json::{fixed, obj};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_core::DistGraph;
use sar_graph::fused::{self, OnlineAttnState};
use sar_graph::generators::erdos_renyi;
use sar_graph::{datasets, ops};
use sar_partition::{partition, Method};
use sar_tensor::init::randn;
use sar_tensor::{pool, simd, Tensor};

use crate::cli::{parse_committed, Args, GatedBench};

/// Schema tag written into (and required from) `BENCH_kernels.json`.
/// Bump whenever the kernel set, the work models or the field layout
/// change; the CI gate refuses to compare across schema versions.
///
/// v2: the compute-peak proxy is [`simd::peak_probe`] (v1 used an
/// L1-resident `axpy`, a load/store-bound loop the register-tiled matmuls
/// run at twice the speed of), and the workload matrix gained the
/// tall-skinny matmul shapes of the benchmark's `sage-tcp2` layer 0.
/// Ratios are not comparable across the two.
pub const SCHEMA: &str = "sar-kernelbench/v2";

/// Relative slack on the baseline roofline ratio: a kernel fails the
/// gate only below `baseline × (1 − REL_TOLERANCE) − ABS_TOLERANCE`.
/// Generous by design — shared CI runners are noisy and the gate exists
/// to catch structural regressions (a lost SIMD path, an accidental
/// rematerialization), not run-to-run jitter.
pub const REL_TOLERANCE: f64 = 0.5;

/// Absolute floor subtracted on top of the relative slack, so kernels
/// with tiny baseline ratios cannot fail on rounding.
pub const ABS_TOLERANCE: f64 = 0.02;

/// One timed kernel's results.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Stable kernel identifier, e.g. `"spmm_sum/f32"`.
    pub name: String,
    /// Timed iterations (after one warm-up run).
    pub iters: usize,
    /// Best per-iteration wall time, microseconds.
    pub wall_us: f64,
    /// Mean per-iteration CPU time (timing thread + drained pool helper
    /// time), microseconds.
    pub cpu_us: f64,
    /// Achieved GFLOP/s at the best wall time, under this kernel's
    /// documented FLOP model.
    pub gflops: f64,
    /// Modeled arithmetic intensity, FLOPs per byte of traffic.
    pub ai: f64,
    /// Roofline estimate `min(peak, bandwidth × ai)`, GFLOP/s.
    pub roofline_gflops: f64,
    /// `gflops / roofline_gflops` — the machine-normalized figure the CI
    /// gate tracks.
    pub roofline_ratio: f64,
}

/// A full kernelbench run: calibration plus every kernel's results.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The active SIMD dispatch label (`"avx2"` or `"scalar"`).
    pub simd: String,
    /// Kernel-pool thread count the run used.
    pub threads: usize,
    /// Calibrated single-thread peak-GFLOP/s proxy: the no-FMA
    /// multiply+add rate of eight register-resident accumulators.
    pub peak_gflops: f64,
    /// Calibrated streaming-bandwidth proxy, GB/s (large `add_assign`).
    pub stream_gbs: f64,
    /// Per-kernel results, in workload-matrix order.
    pub kernels: Vec<KernelResult>,
}

// ----------------------------------------------------------------------
// Timing harness
// ----------------------------------------------------------------------

struct Timing {
    iters: usize,
    wall_us: f64,
    cpu_us: f64,
}

/// Times one kernel: a warm-up run, then iterations until the time
/// budget or iteration cap is reached (at least 3). The best wall time
/// is the throughput estimate; drained helper CPU time is folded into
/// the mean per-iteration CPU time.
fn time_case(run: &mut dyn FnMut(), quick: bool) -> Timing {
    run(); // warm-up: faults pages, fills the branch predictors
    let _ = pool::take_helper_cpu_us(); // discard warm-up helper time
    let (budget_us, max_iters) = if quick {
        (2_000.0, 5)
    } else {
        (100_000.0, 1_000)
    };
    let mut iters = 0usize;
    let mut total_us = 0.0f64;
    let mut best = f64::INFINITY;
    while iters < 3 || (total_us < budget_us && iters < max_iters) {
        let t = Instant::now();
        run();
        let us = t.elapsed().as_secs_f64() * 1e6;
        total_us += us;
        best = best.min(us);
        iters += 1;
    }
    let helper_us = pool::take_helper_cpu_us();
    Timing {
        iters,
        wall_us: best,
        cpu_us: (total_us + helper_us) / iters as f64,
    }
}

/// Best-of-N wall time for a closure, microseconds.
fn best_of(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Calibrates the host: returns `(peak_gflops, stream_gbs)`.
///
/// Both proxies run single-threaded through the *dispatching* SIMD entry
/// points, so a `--simd scalar` run is normalized against a scalar
/// roofline and its ratios stay comparable to an AVX2 run's.
fn calibrate(quick: bool) -> (f64, f64) {
    // Peak proxy: unfused multiply+add over eight accumulators that never
    // leave registers — what a kernel bound by neither loads nor stores
    // could reach under the workspace's no-FMA rule. 128 FLOPs per step.
    // A full-size round runs ≈ 3 ms, as long as a timed kernel iteration,
    // so the probe and the kernels see the same host conditions.
    let steps = if quick { 1 << 13 } else { 1 << 21 };
    let rounds = if quick { 3 } else { 8 };
    let best_us = best_of(rounds, || {
        black_box(simd::peak_probe(black_box(steps)));
    });
    let peak_gflops = (128.0 * steps as f64) / (best_us * 1e3);

    // Stream proxy: add_assign over buffers far larger than L2.
    let slen = if quick { 1 << 18 } else { 1 << 22 };
    let src = vec![1.0e-30f32; slen];
    let mut dst = vec![0.0f32; slen];
    let best_us = best_of(if quick { 2 } else { 8 }, || {
        simd::add_assign(black_box(&mut dst), &src);
    });
    // Per element: read dst, read src, write dst.
    let stream_gbs = (3.0 * 4.0 * slen as f64) / (best_us * 1e3);
    (peak_gflops, stream_gbs)
}

// ----------------------------------------------------------------------
// Workload matrix
// ----------------------------------------------------------------------

/// One benchmark case: a named kernel closure plus its FLOP/byte model.
struct Case {
    name: String,
    flops: f64,
    bytes: f64,
    run: Box<dyn FnMut()>,
}

/// The graph-kernel cases: a seeded Erdős–Rényi graph (symmetrized),
/// feature widths 32 and 128 at 4 heads. The narrow width exercises the ragged
/// SIMD tails (head_dim 8), the wide one the steady-state lanes.
fn graph_cases(quick: bool) -> Vec<Case> {
    let n = if quick { 192 } else { 2048 };
    let m = 8 * n;
    let mut rng = StdRng::seed_from_u64(0x5A2C_0FFE);
    let g = Rc::new(erdos_renyi(n, m, &mut rng).symmetrize());
    let e = g.num_edges() as f64;
    let nn = n as f64;
    let heads = 4usize;
    let hh = heads as f64;
    let slope = 0.2f32;
    let mut cases: Vec<Case> = Vec::new();

    for &f in &[32usize, 128] {
        let ff = f as f64;
        let x = randn(&[n, f], 1.0, &mut rng);
        let grad = randn(&[n, f], 1.0, &mut rng);
        let scores = randn(&[g.num_edges(), heads], 1.0, &mut rng);
        let alpha = ops::edge_softmax(&g, &scores);
        let s_dst = randn(&[n, heads], 1.0, &mut rng);
        let s_src = randn(&[n, heads], 1.0, &mut rng);

        {
            let (g, x) = (Rc::clone(&g), x.clone());
            cases.push(Case {
                name: format!("spmm_sum/f{f}"),
                flops: e * ff,
                bytes: 4.0 * (e * ff + nn * ff + e),
                run: Box::new(move || {
                    black_box(ops::spmm_sum(&g, &x));
                }),
            });
        }
        {
            let (g, grad) = (Rc::clone(&g), grad.clone());
            cases.push(Case {
                name: format!("spmm_sum_backward/f{f}"),
                flops: e * ff,
                bytes: 4.0 * (e * ff + nn * ff + e),
                run: Box::new(move || {
                    black_box(ops::spmm_sum_backward(&g, &grad));
                }),
            });
        }
        {
            let (g, alpha, x) = (Rc::clone(&g), alpha.clone(), x.clone());
            cases.push(Case {
                name: format!("spmm_multihead/f{f}"),
                flops: 2.0 * e * ff,
                bytes: 4.0 * (e * (ff + hh) + nn * ff),
                run: Box::new(move || {
                    black_box(ops::spmm_multihead(&g, &alpha, &x));
                }),
            });
        }
        {
            let (g, s_dst, s_src, x) = (Rc::clone(&g), s_dst.clone(), s_src.clone(), x.clone());
            let d = f / heads;
            cases.push(Case {
                name: format!("gat_fused_forward/f{f}"),
                flops: e * hh * (2.0 * (d as f64) + 8.0),
                bytes: 4.0 * (e * (ff + 2.0 * hh) + nn * (ff + 3.0 * hh)),
                run: Box::new(move || {
                    let mut state = OnlineAttnState::new(g.num_rows(), heads, d);
                    fused::gat_fused_block_forward(&g, &s_dst, &s_src, &x, slope, &mut state);
                    black_box(state.num.data()[0]);
                }),
            });
        }

        // The remaining kernels are attention-shaped and not very
        // sensitive to feature width; benchmark them once at f = 128.
        if f != 128 {
            continue;
        }
        let d = f / heads;
        {
            let (g, scores) = (Rc::clone(&g), scores.clone());
            cases.push(Case {
                name: "edge_softmax".into(),
                flops: 5.0 * e * hh,
                bytes: 4.0 * (2.0 * e * hh + 2.0 * nn * hh),
                run: Box::new(move || {
                    black_box(ops::edge_softmax(&g, &scores));
                }),
            });
        }
        {
            let (g, s_dst, s_src) = (Rc::clone(&g), s_dst.clone(), s_src.clone());
            cases.push(Case {
                name: "gat_edge_scores".into(),
                flops: 4.0 * e * hh,
                bytes: 4.0 * (2.0 * nn * hh + e * hh + e),
                run: Box::new(move || {
                    black_box(ops::gat_edge_scores(&g, &s_dst, &s_src, slope));
                }),
            });
        }
        {
            let (g, alpha, x, grad) = (Rc::clone(&g), alpha.clone(), x.clone(), grad.clone());
            cases.push(Case {
                name: "spmm_multihead_backward".into(),
                flops: 4.0 * e * ff,
                bytes: 4.0 * (2.0 * e * (ff + hh) + 2.0 * nn * ff),
                run: Box::new(move || {
                    black_box(ops::spmm_multihead_backward(&g, &alpha, &x, &grad));
                }),
            });
        }
        {
            let (g, s_dst, s_src, x) = (Rc::clone(&g), s_dst.clone(), s_src.clone(), x.clone());
            cases.push(Case {
                name: "gat_twostep_forward".into(),
                flops: e * hh * (2.0 * (d as f64) + 8.0),
                bytes: 4.0 * (e * (ff + 4.0 * hh) + nn * (ff + 3.0 * hh)),
                run: Box::new(move || {
                    let mut state = OnlineAttnState::new(g.num_rows(), heads, d);
                    fused::gat_twostep_block_forward(&g, &s_dst, &s_src, &x, slope, &mut state);
                    black_box(state.num.data()[0]);
                }),
            });
        }
        {
            let a = randn(&[f], 1.0, &mut rng);
            let x = x.clone();
            cases.push(Case {
                name: "head_project".into(),
                flops: 2.0 * nn * ff,
                bytes: 4.0 * (nn * ff + nn * hh + ff),
                run: Box::new(move || {
                    black_box(ops::head_project(&x, &a, heads));
                }),
            });
        }
    }
    cases
}

/// The traversal at the shape the benchmark runs it: `spmm_sum` forward
/// and backward at `F = 64` over rank 0's blocks of `sage-tcp2`'s seed-0
/// partitioning — the dense local block `G_{0,0}` (≈ 54 edges per row,
/// over the resident features as Algorithm 1's round 0 reads them) and
/// the sparse remote block `G_{0,1}` (≈ 6 per row). The synthetic graph
/// above never leaves L2; here the gathered operand is ≈ 6 MiB, so these
/// are the cases a traversal change shows up in. Beside them,
/// `gather_sum/f{47,64}` runs the primitive alone over the local block's
/// rows (no walker, no pool) at the benchmark's two widths, the class
/// count and the hidden size. Same FLOP/byte models as the SpMM cases
/// above.
fn block_cases(quick: bool) -> Vec<Case> {
    let f = 64usize;
    let dataset = datasets::products_like(if quick { 4_000 } else { 50_000 }, 0);
    let part = partition(&dataset.graph, 2, Method::Multilevel, 0);
    let dist = Rc::new(DistGraph::build_all(&dataset.graph, &part).swap_remove(0));
    let n = dist.num_local();
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let mut cases = Vec::new();
    for f in [47usize, 64] {
        let local = dist.block(0);
        let e = local.num_edges() as f64;
        let x = randn(&[local.num_cols(), f], 1.0, &mut rng);
        let dist = Rc::clone(&dist);
        let mut acc = vec![0.0f32; n * f];
        cases.push(Case {
            name: format!("gather_sum/f{f}"),
            flops: e * f as f64,
            bytes: 4.0 * (e * f as f64 + (n * f) as f64 + e),
            run: Box::new(move || {
                let local = dist.block(0);
                for (i, row) in acc.chunks_exact_mut(f).enumerate() {
                    simd::gather_sum(row, x.data(), local.neighbors(i));
                }
                black_box(acc[0]);
            }),
        });
    }
    for (q, which) in [(0usize, "local"), (1, "remote")] {
        let block = dist.block(q);
        let e = block.num_edges() as f64;
        let bytes = |out_rows: usize| 4.0 * (e * f as f64 + (out_rows * f) as f64 + e);
        {
            // One row per block column: the resident `[n, F]` features
            // in round 0, the block the wire delivered in a remote round.
            let x = randn(&[block.num_cols(), f], 1.0, &mut rng);
            let dist = Rc::clone(&dist);
            let mut acc = Tensor::zeros(&[n, f]);
            cases.push(Case {
                name: format!("spmm_sum/block-{which}/f{f}"),
                flops: e * f as f64,
                bytes: bytes(n),
                run: Box::new(move || {
                    ops::spmm_sum_into(dist.block(q), &x, &mut acc);
                    black_box(acc.data()[0]);
                }),
            });
        }
        {
            let grad = randn(&[n, f], 1.0, &mut rng);
            let dist = Rc::clone(&dist);
            cases.push(Case {
                name: format!("spmm_sum_backward/block-{which}/f{f}"),
                flops: e * f as f64,
                bytes: bytes(block.num_cols()),
                run: Box::new(move || {
                    black_box(ops::spmm_sum_backward(dist.block(q), &grad));
                }),
            });
        }
    }
    cases
}

/// The dense matmul cases, each layout at two shapes (`m×k×n` of the
/// product `[m, k] · [k, n]`): a square one, and the tall-skinny one the
/// benchmark's `sage-tcp2` actually runs — layer 0 on one rank's 25 000
/// rows: the forward `X·W`, the weight gradient `Xᵀ·g` and the input
/// gradient `g·Wᵀ`.
fn matmul_cases(quick: bool) -> Vec<Case> {
    // (name, kernel, left operand stored transposed, right likewise).
    type Layout = (&'static str, fn(&Tensor, &Tensor) -> Tensor, bool, bool);
    const NN: Layout = ("matmul", Tensor::matmul, false, false);
    const TN: Layout = ("matmul_tn", Tensor::matmul_tn, true, false);
    const NT: Layout = ("matmul_nt", Tensor::matmul_nt, false, true);
    let (square, rows) = if quick {
        ((48, 32, 32), 500)
    } else {
        ((384, 256, 256), 25_000)
    };
    let shapes = [
        (NN, square),
        (TN, square),
        (NT, square),
        (NN, (rows, 147, 64)),
        (TN, (147, rows, 64)),
        (NT, (rows, 64, 147)),
    ];
    let mut rng = StdRng::seed_from_u64(0xD07);
    shapes
        .into_iter()
        .map(|((name, kernel, left_t, right_t), (m, k, n))| {
            let left = randn(&if left_t { [k, m] } else { [m, k] }, 1.0, &mut rng);
            let right = randn(&if right_t { [n, k] } else { [k, n] }, 1.0, &mut rng);
            let (mf, kf, nf) = (m as f64, k as f64, n as f64);
            Case {
                name: format!("{name}/{m}x{k}x{n}"),
                flops: 2.0 * mf * kf * nf,
                bytes: 4.0 * (mf * kf + kf * nf + mf * nf),
                run: Box::new(move || {
                    black_box(kernel(&left, &right));
                }),
            }
        })
        .collect()
}

/// Runs the full workload matrix under the *current* SIMD mode and pool
/// thread count and returns the report. `quick` shrinks sizes and time
/// budgets for tests.
pub fn run_bench(quick: bool) -> BenchReport {
    let (peak_gflops, stream_gbs) = calibrate(quick);
    let mut kernels = Vec::new();
    let mut cases = graph_cases(quick);
    cases.extend(block_cases(quick));
    cases.extend(matmul_cases(quick));
    for case in &mut cases {
        let t = time_case(&mut case.run, quick);
        let gflops = case.flops / (t.wall_us * 1e3);
        let ai = case.flops / case.bytes;
        let roofline = peak_gflops.min(stream_gbs * ai);
        kernels.push(KernelResult {
            name: case.name.clone(),
            iters: t.iters,
            wall_us: t.wall_us,
            cpu_us: t.cpu_us,
            gflops,
            ai,
            roofline_gflops: roofline,
            roofline_ratio: gflops / roofline,
        });
    }
    BenchReport {
        simd: simd::dispatch_label().to_string(),
        threads: pool::threads(),
        peak_gflops,
        stream_gbs,
        kernels,
    }
}

// ----------------------------------------------------------------------
// The `repro kernelbench` subcommand: flags, artifact and CI gate
// ----------------------------------------------------------------------

/// `repro kernelbench` knobs.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// SIMD dispatch mode the kernels (and the calibration) run under.
    pub simd: simd::SimdMode,
    /// Kernel-pool thread count.
    pub threads: usize,
    /// Shrink sizes and time budgets (for local iteration and tests).
    pub quick: bool,
}

impl Default for KernelBenchConfig {
    fn default() -> Self {
        KernelBenchConfig {
            simd: simd::SimdMode::Auto,
            threads: 1,
            quick: false,
        }
    }
}

impl GatedBench for BenchReport {
    const NAME: &'static str = "kernelbench";
    type Config = KernelBenchConfig;

    fn apply_flag(cfg: &mut Self::Config, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--simd" => {
                cfg.simd =
                    simd::parse_mode(&args.value(flag)?).ok_or("--simd must be auto or scalar")?;
            }
            "--threads" => {
                cfg.threads = args.parsed(flag)?;
                if cfg.threads == 0 {
                    return Err("--threads takes a count >= 1".into());
                }
            }
            "--quick" => cfg.quick = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn run(cfg: &Self::Config) -> Result<Self, String> {
        simd::set_mode(cfg.simd);
        pool::set_threads(cfg.threads);
        eprintln!(
            "[kernelbench] simd={}, threads={}{} ...",
            simd::dispatch_label(),
            cfg.threads,
            if cfg.quick { ", quick" } else { "" }
        );
        Ok(run_bench(cfg.quick))
    }

    /// Pretty-prints the report as an aligned table on stderr.
    fn print(&self) {
        eprintln!(
            "[kernelbench] simd={} threads={} peak={:.2} GFLOP/s stream={:.2} GB/s",
            self.simd, self.threads, self.peak_gflops, self.stream_gbs
        );
        eprintln!(
            "{:<36} {:>6} {:>12} {:>12} {:>9} {:>7} {:>9} {:>7}",
            "kernel", "iters", "wall_us", "cpu_us", "GFLOP/s", "AI", "roofline", "ratio"
        );
        for k in &self.kernels {
            eprintln!(
                "{:<36} {:>6} {:>12.1} {:>12.1} {:>9.3} {:>7.3} {:>9.3} {:>7.3}",
                k.name,
                k.iters,
                k.wall_us,
                k.cpu_us,
                k.gflops,
                k.ai,
                k.roofline_gflops,
                k.roofline_ratio
            );
        }
    }

    /// The schema-versioned `BENCH_kernels.json` document.
    fn to_json(&self) -> String {
        let kernel = |k: &KernelResult| {
            obj([
                ("name", k.name.as_str().into()),
                ("iters", k.iters.into()),
                ("wall_us", fixed(k.wall_us, 4)),
                ("cpu_us", fixed(k.cpu_us, 4)),
                ("gflops", fixed(k.gflops, 4)),
                ("ai_flops_per_byte", fixed(k.ai, 4)),
                ("roofline_gflops", fixed(k.roofline_gflops, 4)),
                ("roofline_ratio", fixed(k.roofline_ratio, 4)),
            ])
        };
        let doc = obj([
            ("schema", SCHEMA.into()),
            ("simd", self.simd.as_str().into()),
            ("threads", self.threads.into()),
            (
                "calibration",
                obj([
                    ("peak_gflops", fixed(self.peak_gflops, 4)),
                    ("stream_gbs", fixed(self.stream_gbs, 4)),
                ]),
            ),
            ("kernels", self.kernels.iter().map(kernel).collect()),
        ]);
        doc.pretty(2) + "\n"
    }

    /// Compares a fresh run against the committed `BENCH_kernels.json`.
    /// Hard-fails on a schema or kernel-set mismatch (the baseline is
    /// stale — regenerate it); per-kernel roofline ratios fail only below
    /// `baseline × (1 − REL_TOLERANCE) − ABS_TOLERANCE`.
    fn check_against(&self, committed: &str) -> Vec<String> {
        let base = match parse_committed::<Self>(committed, SCHEMA) {
            Ok(doc) => doc,
            Err(e) => return vec![e],
        };
        let mut violations = Vec::new();
        let mut base_ratios: BTreeMap<String, f64> = BTreeMap::new();
        for k in base.items("kernels") {
            if let (Ok(name), Ok(ratio)) = (k.req_str("name"), k.req_num("roofline_ratio")) {
                base_ratios.insert(name.to_string(), ratio);
            }
        }
        if base_ratios.is_empty() {
            return vec!["baseline has no kernels — regenerate it".into()];
        }
        let current_names: BTreeMap<&str, f64> = self
            .kernels
            .iter()
            .map(|k| (k.name.as_str(), k.roofline_ratio))
            .collect();
        for name in base_ratios.keys() {
            if !current_names.contains_key(name.as_str()) {
                violations.push(format!(
                    "kernel \"{name}\" is in the baseline but not in this run — \
                     the workload matrix changed; regenerate the baseline"
                ));
            }
        }
        for (name, &ratio) in &current_names {
            let Some(&base_ratio) = base_ratios.get(*name) else {
                violations.push(format!(
                    "kernel \"{name}\" is new (not in the baseline) — regenerate the baseline"
                ));
                continue;
            };
            if !ratio.is_finite() {
                violations.push(format!("kernel \"{name}\" produced a non-finite ratio"));
                continue;
            }
            let floor = base_ratio * (1.0 - REL_TOLERANCE) - ABS_TOLERANCE;
            if ratio < floor {
                violations.push(format!(
                    "kernel \"{name}\" regressed: roofline ratio {ratio:.4} is below the \
                     gate floor {floor:.4} (baseline {base_ratio:.4}, tolerance \
                     −{:.0}% −{ABS_TOLERANCE})",
                    REL_TOLERANCE * 100.0
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_report() -> BenchReport {
        BenchReport {
            simd: "avx2".into(),
            threads: 1,
            peak_gflops: 10.0,
            stream_gbs: 20.0,
            kernels: vec![
                KernelResult {
                    name: "spmm_sum/f32".into(),
                    iters: 10,
                    wall_us: 100.0,
                    cpu_us: 110.0,
                    gflops: 2.0,
                    ai: 0.25,
                    roofline_gflops: 5.0,
                    roofline_ratio: 0.4,
                },
                KernelResult {
                    name: "matmul/384x256x256".into(),
                    iters: 5,
                    wall_us: 2000.0,
                    cpu_us: 2100.0,
                    gflops: 8.0,
                    ai: 60.0,
                    roofline_gflops: 10.0,
                    roofline_ratio: 0.8,
                },
            ],
        }
    }

    #[test]
    fn report_json_round_trips_through_own_parser() {
        let r = sample_report();
        let doc = json::parse(&r.to_json()).expect("own JSON must parse");
        assert_eq!(doc.req_str("schema"), Ok(SCHEMA));
        assert_eq!(doc.req_u64("threads"), Ok(1));
        let kernels = doc.items("kernels");
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[1].req_str("name"), Ok("matmul/384x256x256"));
        assert_eq!(kernels[0].req_num("roofline_ratio"), Ok(0.4));
    }

    #[test]
    fn check_passes_against_itself() {
        let r = sample_report();
        assert!(r.check_against(&r.to_json()).is_empty());
    }

    #[test]
    fn check_fails_on_regression_within_tolerance_band() {
        let r = sample_report();
        let baseline = r.to_json();
        let mut slow = r.clone();
        // Within tolerance: half the baseline ratio is still allowed.
        slow.kernels[1].roofline_ratio = 0.45;
        assert!(slow.check_against(&baseline).is_empty());
        // Beyond tolerance: must fail.
        slow.kernels[1].roofline_ratio = 0.1;
        let v = slow.check_against(&baseline);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("matmul"), "{v:?}");
    }

    #[test]
    fn check_fails_on_schema_and_kernel_set_mismatch() {
        let r = sample_report();
        let stale = r.to_json().replace(SCHEMA, "sar-kernelbench/v0");
        assert!(r.check_against(&stale)[0].contains("schema"));
        let mut extra = r.clone();
        extra.kernels.push(KernelResult {
            name: "brand_new".into(),
            ..r.kernels[0].clone()
        });
        assert!(extra
            .check_against(&r.to_json())
            .iter()
            .any(|v| v.contains("brand_new")));
        let mut fewer = r.clone();
        fewer.kernels.pop();
        assert!(fewer
            .check_against(&r.to_json())
            .iter()
            .any(|v| v.contains("matmul")));
        assert!(!r.check_against("not json at all").is_empty());
    }

    #[test]
    fn quick_bench_produces_finite_parseable_report() {
        let r = run_bench(true);
        assert!(!r.kernels.is_empty());
        for k in &r.kernels {
            assert!(k.wall_us > 0.0, "{}", k.name);
            assert!(k.gflops.is_finite(), "{}", k.name);
            assert!(k.roofline_ratio.is_finite(), "{}", k.name);
        }
        assert!(json::parse(&r.to_json()).is_ok());
        assert!(r.check_against(&r.to_json()).is_empty());
    }
}
