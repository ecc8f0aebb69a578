//! `repro kernelbench` — single-host kernel micro-benchmarks with a
//! committed, CI-gated performance trajectory.
//!
//! Times the SAR kernel family (sparse aggregation, edge softmax,
//! multi-head SpMM, fused GAT blocks forward and backward, the two-step
//! GAT forward, per-head projection, the three dense matmul variants, the
//! wire-frame path, the row gather / scatter-add under the exchange, and
//! the layer tail's batch-norm and epilogue passes)
//! over a fixed, seeded workload matrix and writes a schema-versioned
//! JSON report (`BENCH_kernels.json`).
//!
//! Raw GFLOP/s are machine-dependent, so the committed baseline is never
//! compared on absolute throughput. Instead each run calibrates the host
//! (a register-resident unfused multiply+add loop, [`simd::peak_probe`],
//! as a peak-GFLOP/s proxy; a large streaming `add_assign` as a
//! memory-bandwidth proxy), derives a per-kernel
//! roofline `min(peak, bandwidth × arithmetic-intensity)`, and reports
//! the achieved fraction of that roofline — for a case that does no
//! floating-point work, achieved bytes/s over the bandwidth proxy. The CI
//! gate compares these *roofline ratios* against the committed baseline
//! with a deliberately generous tolerance ([`REL_TOLERANCE`] relative
//! slack plus an [`ABS_TOLERANCE`] absolute floor): the goal is to catch an
//! accidentally-deleted SIMD path or a quadratic regression, not 10%
//! noise. Like every gated artifact it goes through [`crate::cli::check`],
//! which *hard-fails* on a schema, thread-count or kernel-set mismatch —
//! each means the baseline is stale and must be regenerated with
//! `repro kernelbench --out BENCH_kernels.json`.
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

use std::hint::black_box;
use std::io::{self, IoSlice, Write};
use std::rc::Rc;
use std::time::Instant;

use crate::json::{fixed, obj, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::wire::{crc32, encode_frame, read_frame, write_frame, FrameKind};
use sar_comm::{buffer, Payload, WIRE_HEADER_LEN};
use sar_core::DistGraph;
use sar_graph::fused::{self, OnlineAttnState};
use sar_graph::generators::erdos_renyi;
use sar_graph::{datasets, ops, CsrGraph};
use sar_nn::tail;
use sar_partition::{partition, Method};
use sar_tensor::init::randn;
use sar_tensor::{pool, simd, BitMask, Tensor};

use crate::cli::{Args, Fields, GatedBench, Records};

/// Relative slack on the baseline roofline ratio: a kernel fails the
/// gate only below `baseline × (1 − REL_TOLERANCE) − ABS_TOLERANCE`.
/// Generous by design — shared CI runners are noisy and the gate exists
/// to catch structural regressions (a lost SIMD path, an accidental
/// rematerialization), not run-to-run jitter.
pub const REL_TOLERANCE: f64 = 0.5;

/// Absolute floor subtracted on top of the relative slack, so kernels
/// with tiny baseline ratios cannot fail on rounding.
pub const ABS_TOLERANCE: f64 = 0.02;

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
        let logits = (s_dst.clone(), s_src.clone());
        let tag = format!("/f{f}");
        cases.extend(gat_fused_cases(
            &tag,
            Rc::clone(&g),
            logits,
            &x,
            &grad,
            heads,
        ));

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

/// `gat_fused_forward{tag}` and `gat_fused_backward{tag}` over block `g`
/// with the given logits, `[cols, H·D]` features and `[rows, H·D]`
/// upstream gradient; the backward runs on the statistics of one forward
/// pass. FLOP models per (edge, head): the forward's `2D` weighted add
/// plus ≈ 8 for the score, running max and exponentials; the backward's
/// `2D` dot and `2D` weighted add plus ≈ 12 for `α` and `du`. Bytes: the
/// forward streams one source row per edge past the row's output and
/// statistics; the backward reads a source row and an upstream-gradient
/// row per edge, writes and reads back `α` and `du`, and per row reads
/// the gradient and four statistics and writes one feature row.
fn gat_fused_cases(
    tag: &str,
    g: Rc<CsrGraph>,
    (s_dst, s_src): (Tensor, Tensor),
    x: &Tensor,
    grad: &Tensor,
    heads: usize,
) -> [Case; 2] {
    let slope = 0.2f32;
    let (e, nn, hh) = (g.num_edges() as f64, g.num_rows() as f64, heads as f64);
    let ff = x.cols() as f64;
    let d = x.cols() / heads;
    let mut state = OnlineAttnState::new(g.num_rows(), heads, d);
    fused::gat_fused_block_forward(&g, &s_dst, &s_src, x, slope, &mut state);
    let (out, max, den) = state.finalize_into();
    let grad_dot = fused::attn_grad_dot(grad, &out, heads);
    let forward = {
        let (g, s_dst, s_src, x) = (Rc::clone(&g), s_dst.clone(), s_src.clone(), x.clone());
        Case {
            name: format!("gat_fused_forward{tag}"),
            flops: e * hh * (2.0 * (d as f64) + 8.0),
            bytes: 4.0 * (e * (ff + 2.0 * hh) + nn * (ff + 3.0 * hh)),
            run: Box::new(move || {
                let mut state = OnlineAttnState::new(g.num_rows(), heads, d);
                fused::gat_fused_block_forward(&g, &s_dst, &s_src, &x, slope, &mut state);
                black_box(state.num.data()[0]);
            }),
        }
    };
    let (x, grad) = (x.clone(), grad.clone());
    let backward = Case {
        name: format!("gat_fused_backward{tag}"),
        flops: e * hh * (4.0 * (d as f64) + 12.0),
        bytes: 4.0 * (e * (2.0 * ff + 4.0 * hh) + nn * (2.0 * ff + 6.0 * hh)),
        run: Box::new(move || {
            let mut d_s_dst = Tensor::zeros(&[g.num_rows(), heads]);
            black_box(fused::gat_fused_block_backward(
                &g,
                &s_dst,
                &s_src,
                &x,
                slope,
                &max,
                &den,
                &grad,
                &grad_dot,
                &mut d_s_dst,
            ));
        }),
    };
    [forward, backward]
}

/// The fused attention kernels at the shape `gat-tcp2` runs them: rank
/// 0's local block of `products_like(24 000, 0)` under the multilevel
/// 2-way partitioning (`--quick`: 4 000 nodes), 4 heads of width 16 (the
/// hidden layers) and 47 (the top layer, the class count), forward and
/// backward — `gat_fused_{forward,backward}/block-local/h4d{16,47}` —
/// and the attention logits' backward over the block's `[cols, H·D]`
/// features, `head_project_backward/block-local/h4d{16,47}`: `d_x` is
/// `n·H·D` products, `d_a` `n·H·D` multiply-adds; it reads the features
/// and the `[n, H]` gradient and writes `d_x`.
fn attention_block_cases(quick: bool) -> Vec<Case> {
    let heads = 4usize;
    let dataset = datasets::products_like(if quick { 4_000 } else { 24_000 }, 0);
    let part = partition(&dataset.graph, 2, Method::Multilevel, 0);
    let dist = DistGraph::build_all(&dataset.graph, &part).swap_remove(0);
    let local = Rc::new(dist.block(0).clone());
    let (rows, cols) = (local.num_rows(), local.num_cols());
    let mut rng = StdRng::seed_from_u64(0xA77E);
    let mut cases = Vec::new();
    for d in [16usize, 47] {
        let hd = heads * d;
        let logits = (
            randn(&[rows, heads], 1.0, &mut rng),
            randn(&[cols, heads], 1.0, &mut rng),
        );
        let x = randn(&[cols, hd], 1.0, &mut rng);
        let grad = randn(&[rows, hd], 1.0, &mut rng);
        let tag = format!("/block-local/h{heads}d{d}");
        // The logits' backward at the same shape, on inputs drawn from a
        // stream of its own, so the attention cases' inputs do not
        // depend on it.
        let mut own = StdRng::seed_from_u64(0xA77E + d as u64);
        let a = randn(&[hd], 1.0, &mut own);
        let g = randn(&[cols, heads], 1.0, &mut own);
        let (nn, ff) = (cols as f64, hd as f64);
        let z = x.clone();
        cases.push(Case {
            name: format!("head_project_backward{tag}"),
            flops: 3.0 * nn * ff,
            bytes: 4.0 * (2.0 * nn * ff + nn * heads as f64 + 2.0 * ff),
            run: Box::new(move || {
                black_box(ops::head_project_backward(&z, &a, heads, &g));
            }),
        });
        cases.extend(gat_fused_cases(
            &tag,
            Rc::clone(&local),
            logits,
            &x,
            &grad,
            heads,
        ));
    }
    cases
}

/// A sink the optimiser cannot see through: `io::Sink` never looks at the
/// header, so the checksum written into it would be dead code.
struct Discard;

impl Write for Discard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(black_box(buf).len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        Ok(black_box(bufs).iter().map(|b| b.len()).sum())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The frame path every remote block crosses, at one `sage-tcp2` rotation
/// block (25 000 rows × 64 floats = 6 400 000 payload bytes; `--quick`:
/// 64 KiB): `wire/crc32` alone, `wire/write_frame` into [`Discard`], and
/// `wire/read_frame` from memory into a pooled buffer that the loop hands
/// back, as a rotation's consumer does, so the next read reuses it. None
/// does floating-point work. Byte models: the checksum and the write read
/// the payload once; the read copies it once into the pooled buffer (a
/// read and a write) and checksums each chunk while it is still cached.
fn wire_cases(quick: bool) -> Vec<Case> {
    let payload_bytes = if quick { 64 << 10 } else { 6_400_000 };
    let floats: Vec<f32> = (0..payload_bytes / 4).map(|i| i as f32 * 0.37).collect();
    let payload = Payload::F32(floats);
    let frame = Rc::new(encode_frame(FrameKind::Data, 1, 7, &payload));
    let p = payload_bytes as f64;
    let crc = {
        let frame = Rc::clone(&frame);
        Case {
            name: "wire/crc32".into(),
            flops: 0.0,
            bytes: p,
            run: Box::new(move || {
                black_box(crc32(black_box(&frame[WIRE_HEADER_LEN..])));
            }),
        }
    };
    let write = Case {
        name: "wire/write_frame".into(),
        flops: 0.0,
        bytes: p,
        run: Box::new(move || {
            write_frame(&mut Discard, FrameKind::Data, 1, 7, black_box(&payload))
                .expect("the sink accepts every write");
        }),
    };
    let read = Case {
        name: "wire/read_frame".into(),
        flops: 0.0,
        bytes: 2.0 * p,
        run: Box::new(move || {
            let got = read_frame(&mut black_box(&frame[..])).expect("a valid frame");
            buffer::recycle_f32(got.payload.into_f32());
        }),
    };
    vec![crc, write, read]
}

/// The row ops under the exchange at 20 000 × 128 with 40 000 indices
/// (`--quick`: 2 000 rows, 4 000 indices): `rows/gather`
/// (`Tensor::gather_rows`, which assembles the domain-parallel halo) and
/// `rows/scatter_add` (`Tensor::scatter_add_rows` into a zeroed gradient,
/// which `GradRouter::finish` runs for every routed gradient block). The
/// gather does no arithmetic — bytes: each gathered row read and written,
/// plus the index. The scatter adds one float per element — bytes: the
/// source rows read, the destination rows read and written, the index,
/// and the zeroed destination.
fn row_cases(quick: bool) -> Vec<Case> {
    let f = 128usize;
    let (n, idx_len) = if quick {
        (2_000usize, 4_000usize)
    } else {
        (20_000, 40_000)
    };
    let mut rng = StdRng::seed_from_u64(0x20E5);
    let idx: Rc<Vec<u32>> = Rc::new((0..idx_len as u32).map(|i| (i * 7919) % n as u32).collect());
    let (nn, ii, ff) = (n as f64, idx_len as f64, f as f64);
    let gather = {
        let (x, idx) = (randn(&[n, f], 1.0, &mut rng), Rc::clone(&idx));
        Case {
            name: "rows/gather".into(),
            flops: 0.0,
            bytes: 4.0 * (2.0 * ii * ff + ii),
            run: Box::new(move || {
                black_box(x.gather_rows(&idx));
            }),
        }
    };
    let src = randn(&[idx_len, f], 1.0, &mut rng);
    let scatter = Case {
        name: "rows/scatter_add".into(),
        flops: ii * ff,
        bytes: 4.0 * (3.0 * ii * ff + ii + nn * ff),
        run: Box::new(move || {
            let mut out = Tensor::zeros(&[n, f]);
            out.scatter_add_rows(&idx, &src);
            black_box(out.data()[0]);
        }),
    };
    vec![gather, scatter]
}

/// The layer tail at one `sage-tcp2` rank's shape, 25 000 rows × 64
/// hidden columns (`--quick`: 2 000 rows): `norm/forward` (batch norm's
/// column-sum pass, then the row pass writing `y` and `x̂`),
/// `norm/backward` (the four column sums, then the row pass writing `dx`)
/// and `epilogue/sage` (`relu(agg ⊙ s + (hw + b))` forward and the pass
/// building its 1-bit ReLU mask, then its backward: the row pass reading
/// `g` and the mask and writing `d_agg` and `d_hw`, and the bias column
/// sum). The all-reduce between the passes is not timed. They move data
/// rather than compute on it, so all three are zero-FLOP cases. Byte
/// models: every `[n, F]` operand read or written once per pass, and the
/// mask's `n · ⌈F / 64⌉` words written once and read once.
fn tail_cases(quick: bool) -> Vec<Case> {
    let (n, f) = (if quick { 2_000 } else { 25_000 }, 64usize);
    let mut rng = StdRng::seed_from_u64(0x7A11);
    let mut col = || randn(&[f], 1.0, &mut rng).data().to_vec();
    let (gamma, beta, mean, inv_std, mean_g, mean_gx) = (col(), col(), col(), col(), col(), col());
    let b = Tensor::from_vec(&[f], col());
    let [x, g, agg, hw] = [0; 4].map(|_| randn(&[n, f], 1.0, &mut rng));
    let scale: Vec<f32> = randn(&[n], 1.0, &mut rng)
        .data()
        .iter()
        .map(|v| v.abs())
        .collect();
    let x_hat = tail::norm_forward(&x, &mean, &inv_std, &gamma, &beta).1;
    let nf = (n * f) as f64;
    let forward = {
        let (x, gamma, inv_std) = (x.clone(), gamma.clone(), inv_std.clone());
        Case {
            name: "norm/forward".into(),
            flops: 0.0,
            bytes: 4.0 * 4.0 * nf,
            run: Box::new(move || {
                black_box(tail::norm_stats(&x));
                black_box(tail::norm_forward(&x, &mean, &inv_std, &gamma, &beta));
            }),
        }
    };
    let backward = {
        let g = g.clone();
        Case {
            name: "norm/backward".into(),
            flops: 0.0,
            bytes: 4.0 * 5.0 * nf,
            run: Box::new(move || {
                black_box(tail::norm_backward_stats(&g, &x_hat, &gamma));
                black_box(tail::norm_backward(
                    &g, &x_hat, &gamma, &mean_g, &mean_gx, &inv_std,
                ));
            }),
        }
    };
    let mask_words = (n * BitMask::words_per_row(f)) as f64;
    let epilogue = Case {
        name: "epilogue/sage".into(),
        flops: 0.0,
        bytes: 4.0 * (8.0 * nf + 2.0 * n as f64) + 8.0 * 2.0 * mask_words,
        run: Box::new(move || {
            let out = tail::epilogue_forward(&agg, &scale, Some((&hw, b.data())), true);
            let mask = BitMask::positive(&out);
            black_box(tail::epilogue_backward(&g, Some(&mask), &scale, true));
        }),
    };
    vec![forward, backward, epilogue]
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
/// thread count and returns the artifact's fields. `quick` shrinks sizes
/// and time budgets for tests.
pub fn run_bench(quick: bool) -> Fields {
    let (peak_gflops, stream_gbs) = calibrate(quick);
    let mut cases = graph_cases(quick);
    cases.extend(block_cases(quick));
    cases.extend(attention_block_cases(quick));
    cases.extend(matmul_cases(quick));
    cases.extend(wire_cases(quick));
    cases.extend(row_cases(quick));
    cases.extend(tail_cases(quick));
    let kernels = cases.iter_mut().map(|case| {
        let t = time_case(&mut case.run, quick);
        let gflops = case.flops / (t.wall_us * 1e3);
        let ai = case.flops / case.bytes;
        let roofline = peak_gflops.min(stream_gbs * ai);
        // A zero-FLOP case has stream bandwidth as its roofline: its ratio
        // is achieved GB/s over the calibration's.
        let ratio = if case.flops == 0.0 {
            case.bytes / (t.wall_us * 1e3) / stream_gbs
        } else {
            gflops / roofline
        };
        obj([
            ("name", case.name.as_str().into()),
            ("iters", t.iters.into()),
            ("wall_us", fixed(t.wall_us, 4)),
            ("cpu_us", fixed(t.cpu_us, 4)),
            ("gflops", fixed(gflops, 4)),
            ("ai_flops_per_byte", fixed(ai, 4)),
            ("roofline_gflops", fixed(roofline, 4)),
            ("roofline_ratio", fixed(ratio, 4)),
        ])
    });
    vec![
        ("simd", simd::dispatch_label().into()),
        ("threads", pool::threads().into()),
        (
            "calibration",
            obj([
                ("peak_gflops", fixed(peak_gflops, 4)),
                ("stream_gbs", fixed(stream_gbs, 4)),
            ]),
        ),
        ("kernels", kernels.collect()),
    ]
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

/// `repro kernelbench` and its `BENCH_kernels.json` declaration: the
/// pool's thread count identifies the workload (the calibration is
/// single-threaded, so ratios at other counts are not comparable); the
/// SIMD label is recorded but not compared, since a `--simd scalar` run
/// is normalized against a scalar roofline. Kernels are named by `name`,
/// and their ratios are compared against the committed copy with the
/// tolerance band ([`GatedBench::compare`]).
#[derive(Debug)]
pub struct KernelBench;

impl GatedBench for KernelBench {
    const NAME: &'static str = "kernelbench";
    /// v2: the compute-peak proxy is [`simd::peak_probe`] (v1 used an
    /// L1-resident `axpy`, a load/store-bound loop the register-tiled
    /// matmuls run at twice the speed of), and the workload matrix gained
    /// the tall-skinny matmul shapes of the benchmark's `sage-tcp2` layer
    /// 0. Ratios are not comparable across the two.
    const SCHEMA: &'static str = "sar-kernelbench/v2";
    const IDENTITY: &'static [&'static str] = &["threads"];
    const TABLES: &'static [Records] = &[Records {
        table: "kernels",
        key: &["name"],
    }];
    type Config = KernelBenchConfig;

    fn apply_flag(cfg: &mut Self::Config, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--simd" => {
                cfg.simd = simd::parse_mode(&args.value(flag)?)
                    .ok_or("--simd must be auto, avx2 or scalar")?;
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

    fn run(cfg: &Self::Config) -> Result<Fields, String> {
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

    /// Every kernel has a finite roofline ratio, and there is at least
    /// one kernel.
    fn invariants(label: &str, doc: &Value) -> Vec<String> {
        let kernels = doc.items("kernels");
        if kernels.is_empty() {
            return vec![format!("{label}: no kernels — regenerate the artifact")];
        }
        kernels
            .iter()
            .filter(|k| !k.req_num("roofline_ratio").is_ok_and(f64::is_finite))
            .map(|k| {
                let name = k.req_str("name").unwrap_or("?");
                format!("{label}: kernel \"{name}\" produced a non-finite ratio")
            })
            .collect()
    }

    /// A kernel fails only below `committed × (1 − REL_TOLERANCE) −
    /// ABS_TOLERANCE` of its committed roofline ratio.
    fn compare(fresh: &Value, committed: &Value) -> Vec<String> {
        let committed_ratio = |name: &str| {
            let mut kernels = committed.items("kernels").iter();
            let k = kernels.find(|k| k.req_str("name") == Ok(name))?;
            k.req_num("roofline_ratio").ok()
        };
        let regressed = |k: &Value| {
            let name = k.req_str("name").ok()?;
            let (now, base) = (k.req_num("roofline_ratio").ok()?, committed_ratio(name)?);
            let floor = base * (1.0 - REL_TOLERANCE) - ABS_TOLERANCE;
            (now < floor).then(|| {
                format!(
                    "kernel \"{name}\" regressed: roofline ratio {now:.4} is below the gate \
                     floor {floor:.4} (baseline {base:.4}, tolerance −{:.0}% −{ABS_TOLERANCE})",
                    REL_TOLERANCE * 100.0
                )
            })
        };
        fresh
            .items("kernels")
            .iter()
            .filter_map(regressed)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{check, document};

    fn kernel(name: &str, ratio: f64) -> Value {
        obj([
            ("name", name.into()),
            ("iters", 10usize.into()),
            ("wall_us", 100.0.into()),
            ("cpu_us", 110.0.into()),
            ("gflops", 2.0.into()),
            ("ai_flops_per_byte", 0.25.into()),
            ("roofline_gflops", 5.0.into()),
            ("roofline_ratio", fixed(ratio, 4)),
        ])
    }

    fn sample(matmul_ratio: f64) -> Value {
        document::<KernelBench>(vec![
            ("simd", "avx2".into()),
            ("threads", 1usize.into()),
            (
                "calibration",
                obj([("peak_gflops", 10.0.into()), ("stream_gbs", 20.0.into())]),
            ),
            (
                "kernels",
                [
                    kernel("spmm_sum/f32", 0.4),
                    kernel("matmul/384x256x256", matmul_ratio),
                ]
                .into_iter()
                .collect(),
            ),
        ])
    }

    #[test]
    fn check_fails_on_regression_beyond_the_tolerance_band() {
        let baseline = sample(0.8).pretty(2);
        assert!(check::<KernelBench>(&sample(0.8), &baseline).is_empty());
        // Within tolerance: half the baseline ratio is still allowed.
        assert!(check::<KernelBench>(&sample(0.45), &baseline).is_empty());
        // Beyond tolerance: must fail.
        let v = check::<KernelBench>(&sample(0.1), &baseline);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].contains("matmul") && v[0].contains("regressed"),
            "{v:?}"
        );
    }

    #[test]
    fn a_non_finite_ratio_or_an_empty_matrix_fails_on_either_side() {
        let baseline = sample(0.8).pretty(2);
        let v = check::<KernelBench>(&sample(f64::NAN), &baseline);
        assert!(
            v.iter()
                .any(|m| m.contains("current") && m.contains("non-finite")),
            "{v:?}"
        );
        let v = check::<KernelBench>(&sample(0.8), &sample(f64::INFINITY).pretty(2));
        assert!(
            v.iter()
                .any(|m| m.contains("committed") && m.contains("non-finite")),
            "{v:?}"
        );
        let empty = document::<KernelBench>(vec![
            ("threads", 1usize.into()),
            ("kernels", Value::Arr(Vec::new())),
        ]);
        let v = check::<KernelBench>(&sample(0.8), &empty.pretty(2));
        assert!(v.iter().any(|m| m.contains("no kernels")), "{v:?}");
    }

    #[test]
    fn quick_bench_produces_finite_records_that_gate_against_themselves() {
        let doc = document::<KernelBench>(run_bench(true));
        let kernels = doc.items("kernels");
        assert!(!kernels.is_empty());
        for k in kernels {
            let name = k.req_str("name").unwrap();
            assert!(k.req_num("wall_us").unwrap() > 0.0, "{name}");
            assert!(k.req_num("gflops").is_ok_and(f64::is_finite), "{name}");
        }
        assert_eq!(
            check::<KernelBench>(&doc, &doc.pretty(2)),
            Vec::<String>::new()
        );
    }
}
