//! The tape keeps only what backward reads, in its cheapest form. Right
//! after a taped `DistModel::forward`, the tensor bytes it added on a rank
//! are exactly what some backward saved, computed here from shapes alone —
//! a Sage hidden layer keeps one bit per element of its epilogue output
//! (the ReLU mask) and batch norm's `x̂`, and never the epilogue output
//! itself, its projection `z`, its aggregation, its residual product,
//! batch norm's output `y` or the dropout output, which the next layer's
//! backwards rebuild from `x̂` and the kept dropout bits — minus the
//! input, when the input is rebuildable and so freed once layer 0 has run.
//! After the backward pass, nothing of the tape survives but the parameter
//! gradients, and no backward still holds a parameter. Sage, GCN and GAT
//! with batch norm, with and without dropout, over a kept and a rebuildable
//! input, at world 1 and 2 on the simulated cluster.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CostModel};
use sar_core::{Arch, DistGraph, DistModel, Mode, ModelConfig, Worker};
use sar_graph::generators::erdos_renyi;
use sar_graph::CsrGraph;
use sar_partition::range;
use sar_tensor::{init, MemoryTracker, Tensor, Var};

const NODES: usize = 40;
const IN_DIM: usize = 5;
const CLASSES: usize = 3;
const LAYERS: usize = 3;

fn config(arch: Arch, mode: Mode, dropout: f32) -> ModelConfig {
    ModelConfig {
        arch,
        mode,
        layers: LAYERS,
        in_dim: IN_DIM,
        num_classes: CLASSES,
        dropout,
        batch_norm: true,
        seed: 3,
    }
}

/// Bytes of one bit per element of `[n, f]`, rows word-aligned.
fn mask_bytes(n: usize, f: usize) -> usize {
    n * f.div_ceil(64) * 8
}

/// Bytes the tape saves for one taped forward over `n` local rows, by
/// layer: what each backward reads, and nothing it does not. The
/// test's own handle keeps the logits.
fn saved_bytes(arch: Arch, n: usize, dropout: bool) -> usize {
    let hidden = LAYERS - 1;
    // Dropout keeps one bit per element of a hidden layer's output; the
    // next layer's matmuls rebuild its output from batch norm's recipe
    // and those bits, as they rebuild `y` without dropout.
    let drop = |f: usize| if dropout { mask_bytes(n, f) } else { 0 };
    let logits = 4 * n * CLASSES;
    match arch {
        // Epilogue: the ReLU mask of its output and the `[n]` degree
        // scale; the top layer (no ReLU) only the scale. Batch norm: `x̂`
        // alone — its output `y`, which the next layer's two matmuls
        // read, is a recipe over `x̂`.
        Arch::GraphSage { hidden: f } => {
            hidden * (mask_bytes(n, f) + 4 * (n * f + n) + drop(f)) + logits + 4 * n
        }
        // As Sage, plus the `[n]` column the input scale (`mul_col`) reads.
        Arch::Gcn { hidden: f } => {
            hidden * (mask_bytes(n, f) + 4 * (n * f + 2 * n) + drop(f)) + logits + 8 * n
        }
        // Attention: `z` (read by the destination projection and the
        // refetch), `s_dst`, its own output and the saved softmax max and
        // denominator. A hidden layer adds `x̂`; its ReLU reads the
        // attention output, which the attention node keeps anyway.
        Arch::Gat { head_dim, heads } => {
            let attention = |width: usize| 4 * (2 * n * width + 3 * n * heads);
            let width = heads * head_dim;
            hidden * (attention(width) + 4 * n * width + drop(width))
                + attention(heads * CLASSES)
                + logits
        }
    }
}

/// Per rank: `(local rows, bytes the forward added, bytes left after
/// dropping the output once backward ran, parameter-gradient bytes)`.
/// Byte counts are signed: a rebuildable input, allocated before the
/// count starts, is freed during the forward.
fn residency(
    g: &CsrGraph,
    world: usize,
    cfg: &ModelConfig,
    rebuildable: bool,
) -> Vec<(usize, i64, i64, i64)> {
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(g, &range(g, world))
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let cfg = cfg.clone();
    let outcomes = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let graph = Arc::clone(&graphs[ctx.rank()]);
        let n = graph.num_local();
        let seed = ctx.rank() as u64;
        let input = move || init::randn(&[n, IN_DIM], 1.0, &mut StdRng::seed_from_u64(seed));
        let x = if rebuildable {
            Var::rebuildable(input)
        } else {
            Var::constant(input())
        };
        let w = Worker::new(ctx, graph);
        let model = DistModel::new(&cfg);
        let mut rng = StdRng::seed_from_u64(seed + 100);
        let live = || MemoryTracker::stats().current_bytes as i64;
        let base = live();
        let logits = model.forward(&w, x, true, &mut rng);
        let after_forward = live() - base;
        logits.backward_with(&Tensor::ones(&[n, CLASSES]));
        drop(logits);
        let after_backward = live() - base;
        let params = model.params();
        let grads: usize = params
            .iter()
            .map(|p| p.grad().map_or(0, |g| 4 * g.numel()))
            .sum();
        // No backward holds a parameter any more: the optimizer's update
        // writes in place.
        for p in &params {
            let before = p.value().data().as_ptr();
            p.update_value(|v| v.data_mut()[0] += 1.0);
            assert_eq!(p.value().data().as_ptr(), before, "a parameter was copied");
        }
        (n, after_forward, after_backward, grads as i64)
    });
    outcomes.into_iter().map(|o| o.result).collect()
}

fn check(arch: Arch, mode: Mode) {
    let g = erdos_renyi(NODES, 4 * NODES, &mut StdRng::seed_from_u64(1)).with_self_loops();
    for dropout in [0.0, 0.3] {
        let cfg = config(arch, mode, dropout);
        for rebuildable in [false, true] {
            for world in [1usize, 2] {
                let ranks = residency(&g, world, &cfg, rebuildable);
                for (rank, (n, live, left, grads)) in ranks.into_iter().enumerate() {
                    let tag = format!(
                        "{arch:?} {mode:?}, dropout {dropout}, rebuildable input {rebuildable}, \
                         world {world}, rank {rank}"
                    );
                    // The input was allocated before the count started. A
                    // kept one is saved by layer 0 and freed by its backward;
                    // a rebuildable one dies with the forward's last handle.
                    let input = (4 * n * IN_DIM) as i64;
                    let saved = saved_bytes(arch, n, dropout > 0.0) as i64;
                    let expect = saved - if rebuildable { input } else { 0 };
                    assert_eq!(
                        live, expect,
                        "{tag}: the forward added {live} B, the saved set over {n} rows is {saved} B"
                    );
                    assert_eq!(
                        left,
                        grads - input,
                        "{tag}: {left} B survive the backward, the parameter gradients are \
                         {grads} B and the input ({input} B) is gone"
                    );
                }
            }
        }
    }
}

#[test]
fn sage_keeps_its_relu_mask_and_x_hat_per_hidden_layer() {
    check(Arch::GraphSage { hidden: 8 }, Mode::Sar);
}

#[test]
fn domain_parallel_sage_keeps_no_halo() {
    // The sum aggregation's backward reads no value, so the halo it
    // fetched is freed once aggregated: the saved set is SAR's.
    check(Arch::GraphSage { hidden: 8 }, Mode::DomainParallel);
}

#[test]
fn gcn_keeps_its_relu_mask_x_hat_and_scales() {
    check(Arch::Gcn { hidden: 8 }, Mode::Sar);
}

#[test]
fn gat_keeps_what_the_rematerializing_backward_reads() {
    let arch = Arch::Gat {
        head_dim: 4,
        heads: 2,
    };
    check(arch, Mode::SarFused);
    check(arch, Mode::Sar);
}
