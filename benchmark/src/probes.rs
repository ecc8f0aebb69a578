//! Micro-probes: after the timed region of a traced run, call each layer's
//! public kernel or transport entry point on the run's own partition
//! blocks, layer shapes and live sockets, and time it from outside.
//!
//! Every rank of the mesh runs [`train_probes`] in lockstep (the transport
//! probes are two-sided); while rank 0 times its kernels the peers wait
//! in the barrier that ends the probe section, so the kernels have the box
//! to themselves.

use std::hint::black_box;
use std::time::Instant;

use sar_comm::{Payload, TransportError, WorkerCtx};
use sar_core::{mfg, DistGraph, DistModel, ModelConfig, Shard};
use sar_graph::fused::{
    attn_grad_dot, gat_fused_block_backward, gat_fused_block_backward_indexed,
    gat_fused_block_forward, gat_fused_block_forward_indexed, OnlineAttnState,
};
use sar_graph::ops;
use sar_nn::loss::cross_entropy_masked;
use sar_nn::Adam;
use sar_tensor::{pool, Tensor, Var};

use crate::result::RankResult;
use crate::spec::{Spec, GAT_HEADS};
use crate::stats::{median, SplitMix64};

/// Timed repetitions of a kernel probe; the median is reported.
const KERNEL_ITERS: usize = 5;
/// Ping-pong round trips timed for `comm.tcp_rtt_us`.
const RTT_ITERS: usize = 200;
/// Tag space of the transport probes: above the rotation's view tags
/// (`1 << 40`), below the gather (`1 << 61`) and collective (`1 << 62`)
/// spaces.
const PROBE_TAG: u64 = 1 << 60;

/// Median milliseconds of `KERNEL_ITERS` calls of `f`.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..KERNEL_ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// A `[rows, cols]` tensor of small non-zero values (no denormals, no
/// constant rows), seeded so every run times the same data.
fn filled(rows: usize, cols: usize, stream: u64) -> Tensor {
    let mut rng = SplitMix64::new(0x5eed, stream);
    let data = (0..rows * cols).map(|_| rng.unit() as f32 - 0.5).collect();
    Tensor::from_vec(&[rows, cols], data)
}

/// Forward aggregation over every block of this rank, as Algorithm 1 walks
/// them: the local block through the row table, remote blocks from a
/// materialized buffer.
fn spmm_forward(g: &DistGraph, local: &Tensor, remote: &[Tensor], acc: &mut Tensor) {
    for (q, block) in remote.iter().enumerate() {
        if q == g.rank() {
            ops::spmm_sum_into_indexed(g.block(q), local, g.needed_from(q), acc);
        } else {
            ops::spmm_sum_into(g.block(q), block, acc);
        }
    }
}

/// Kernel probes shared by the thread-scaling probe: one forward SpMM
/// sweep plus one forward matmul.
fn spmm_and_matmul(
    g: &DistGraph,
    z: &Tensor,
    remote: &[Tensor],
    x: &Tensor,
    w: &Tensor,
    acc: &mut Tensor,
) -> f64 {
    time_ms(|| {
        spmm_forward(g, z, remote, acc);
        black_box(x.matmul(w));
    })
}

/// `graph.*` and `tensor.*` probes on this rank's blocks at the model's
/// aggregation width.
fn kernel_probes(spec: &Spec, g: &DistGraph, in_dim: usize, res: &mut RankResult) {
    let n = g.num_local();
    let heads = if spec.arch == "gat" { GAT_HEADS } else { 1 };
    let width = spec.hidden * heads;
    let z = filled(n, width, 1);
    // One stand-in per peer for the block the wire would deliver.
    let remote: Vec<Tensor> = (0..g.world())
        .map(|q| filled(g.block(q).num_cols(), width, 2 + q as u64))
        .collect();
    let grad = filled(n, width, 9);

    if spec.arch == "gat" {
        let s_dst = filled(n, heads, 10);
        let s_src: Vec<Tensor> = (0..g.world())
            .map(|q| filled(g.block(q).num_cols(), heads, 11 + q as u64))
            .collect();
        let forward = |state: &mut OnlineAttnState| {
            for q in 0..g.world() {
                if q == g.rank() {
                    gat_fused_block_forward_indexed(
                        g.block(q),
                        &s_dst,
                        &s_src[q],
                        &z,
                        g.needed_from(q),
                        0.2,
                        state,
                    );
                } else {
                    gat_fused_block_forward(g.block(q), &s_dst, &s_src[q], &remote[q], 0.2, state);
                }
            }
        };
        res.set(
            "graph.gat_fused_fwd_ms",
            time_ms(|| forward(&mut OnlineAttnState::new(n, heads, spec.hidden))),
        );
        let mut state = OnlineAttnState::new(n, heads, spec.hidden);
        forward(&mut state);
        let (out, max, den) = state.finalize_into();
        let grad_dot = attn_grad_dot(&grad, &out, heads);
        res.set(
            "graph.gat_fused_bwd_ms",
            time_ms(|| {
                let mut d_s_dst = Tensor::zeros(&[n, heads]);
                for q in 0..g.world() {
                    let grads = if q == g.rank() {
                        gat_fused_block_backward_indexed(
                            g.block(q),
                            &s_dst,
                            &s_src[q],
                            &z,
                            g.needed_from(q),
                            0.2,
                            &max,
                            &den,
                            &grad,
                            &grad_dot,
                            &mut d_s_dst,
                        )
                    } else {
                        gat_fused_block_backward(
                            g.block(q),
                            &s_dst,
                            &s_src[q],
                            &remote[q],
                            0.2,
                            &max,
                            &den,
                            &grad,
                            &grad_dot,
                            &mut d_s_dst,
                        )
                    };
                    black_box(grads);
                }
            }),
        );
    } else {
        let mut acc = Tensor::zeros(&[n, width]);
        res.set(
            "graph.spmm_fwd_ms",
            time_ms(|| spmm_forward(g, &z, &remote, &mut acc)),
        );
        res.set(
            "graph.spmm_bwd_ms",
            time_ms(|| {
                for q in 0..g.world() {
                    let mut out = Tensor::zeros(&[g.block(q).num_cols(), width]);
                    ops::spmm_sum_backward_into(g.block(q), &grad, &mut out);
                    black_box(out);
                }
            }),
        );
    }

    // The first layer's projection: the widest dense product of an epoch.
    let x = filled(n, in_dim, 20);
    let w = filled(in_dim, width, 21);
    res.set(
        "tensor.matmul_fwd_ms",
        time_ms(|| drop(black_box(x.matmul(&w)))),
    );
    res.set(
        "tensor.matmul_bwd_ms",
        time_ms(|| {
            black_box(x.matmul_tn(&grad));
            black_box(grad.matmul_nt(&w));
        }),
    );

    // Row-parallel scaling of the same kernels: one thread against two.
    let threads = pool::threads();
    let mut acc = Tensor::zeros(&[n, width]);
    pool::set_threads(1);
    let t1 = spmm_and_matmul(g, &z, &remote, &x, &w, &mut acc);
    pool::set_threads(2);
    let t2 = spmm_and_matmul(g, &z, &remote, &x, &w, &mut acc);
    pool::set_threads(threads);
    res.set(
        "tensor.pool_speedup_t2",
        if t2 > 0.0 { t1 / t2 } else { 0.0 },
    );
}

/// `nn.*` probes: one optimizer step over the model's parameters and one
/// masked cross-entropy forward + backward at `[n_local, classes]`.
fn nn_probes(model_cfg: &ModelConfig, shard: &Shard, res: &mut RankResult) {
    let params = DistModel::new(model_cfg).params();
    for p in &params {
        p.accumulate_grad(&Tensor::full(&p.shape(), 1e-3));
    }
    let mut opt = Adam::new(params, 0.01);
    res.set("nn.optim_step_ms", time_ms(|| opt.step()));

    let n = shard.num_local();
    let global = shard.global_train_count.max(1) as f32;
    let logits = filled(n, shard.num_classes, 30);
    res.set(
        "nn.loss_ms",
        time_ms(|| {
            let logits = Var::parameter(logits.clone());
            let loss =
                cross_entropy_masked(&logits, &shard.labels, &shard.train_mask, Some(global));
            loss.backward();
            black_box(logits.grad());
        }),
    );
}

/// `comm.*` probes over the live mesh; every rank must call this. Only
/// ranks 0 and 1 exchange point-to-point traffic, every rank joins the
/// collective.
pub fn comm_probes(
    ctx: &WorkerCtx,
    bulk_floats: usize,
    param_floats: usize,
    res: &mut RankResult,
) -> Result<(), TransportError> {
    if ctx.world_size() < 2 {
        return Ok(());
    }
    let rank = ctx.rank();
    if rank < 2 {
        let peer = 1 - rank;
        // Small-message round trip.
        let mut rtts = Vec::with_capacity(RTT_ITERS);
        for i in 0..RTT_ITERS as u64 {
            let t = Instant::now();
            if rank == 0 {
                ctx.try_send(peer, PROBE_TAG + i, Payload::Bytes(vec![0u8; 64]))?;
                ctx.try_recv(peer, PROBE_TAG + i)?;
            } else {
                ctx.try_recv(peer, PROBE_TAG + i)?;
                ctx.try_send(peer, PROBE_TAG + i, Payload::Bytes(vec![0u8; 64]))?;
            }
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        res.set("comm.tcp_rtt_us", median(&rtts));

        // One fetch-sized block each way.
        let tag = PROBE_TAG + RTT_ITERS as u64;
        let block = vec![0.25f32; bulk_floats.max(1)];
        let mut gbps = Vec::with_capacity(KERNEL_ITERS);
        for i in 0..KERNEL_ITERS as u64 {
            let t = Instant::now();
            if rank == 0 {
                ctx.try_send(peer, tag + i, Payload::F32(block.clone()))?;
                ctx.try_recv(peer, tag + i)?;
            } else {
                ctx.try_recv(peer, tag + i)?;
                ctx.try_send(peer, tag + i, Payload::F32(block.clone()))?;
            }
            let bits = (2 * block.len() * 4 * 8) as f64;
            gbps.push(bits / t.elapsed().as_secs_f64() / 1e9);
        }
        res.set("comm.tcp_bulk_gbps", median(&gbps));
    }
    let mut buf = vec![1.0f32; param_floats.max(1)];
    ctx.try_barrier()?;
    res.set(
        "comm.allreduce_ms",
        time_ms(|| ctx.all_reduce_sum(&mut buf)),
    );
    Ok(())
}

/// Floats in the model's parameter set (the gradient all-reduce's size).
pub fn param_floats(model_cfg: &ModelConfig) -> usize {
    DistModel::new(model_cfg)
        .params()
        .iter()
        .map(|p| p.shape().iter().product::<usize>())
        .sum()
}

/// Floats of the largest block one forward fetch delivers to this rank.
pub fn fetch_block_floats(g: &DistGraph, width: usize) -> usize {
    (0..g.world())
        .filter(|&q| q != g.rank())
        .map(|q| g.needed_from(q).len() * width)
        .max()
        .unwrap_or(0)
}

/// All probes of a training rank. `model_cfg.in_dim` must be resolved.
pub fn train_probes(
    spec: &Spec,
    ctx: &WorkerCtx,
    g: &DistGraph,
    shard: &Shard,
    model_cfg: &ModelConfig,
    res: &mut RankResult,
) -> Result<(), TransportError> {
    let heads = if spec.arch == "gat" { GAT_HEADS } else { 1 };
    comm_probes(
        ctx,
        fetch_block_floats(g, spec.hidden * heads),
        param_floats(model_cfg),
        res,
    )?;
    if ctx.rank() == 0 {
        kernel_probes(spec, g, model_cfg.in_dim, res);
        nn_probes(model_cfg, shard, res);
    }
    Ok(())
}

/// `core.mfg_slice_ms`: building a two-level message-flow graph for a
/// 16-id batch on this rank's blocks, median over 20 seeded batches.
pub fn mfg_probe(g: &DistGraph, res: &mut RankResult) {
    let n = g.num_local() as u64;
    if n == 0 {
        return;
    }
    let mut rng = SplitMix64::new(0x5eed, 40);
    let no_requests = vec![Vec::new(); g.world()];
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let mut dst: Vec<u32> = (0..16).map(|_| rng.below(n) as u32).collect();
            dst.sort_unstable();
            dst.dedup();
            let t = Instant::now();
            let top = mfg::slice_layer(g, &dst);
            let inputs = mfg::expand_inputs(g, &top, &no_requests);
            black_box(mfg::slice_layer(g, &inputs));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    res.set("core.mfg_slice_ms", median(&samples));
}
