//! The tape keeps only what backward reads. Right after a taped
//! `DistModel::forward`, the tensor bytes it added on a rank are exactly
//! the tensors some backward saved, computed here from shapes alone — a
//! Sage hidden layer keeps its epilogue output, `x̂` and `y`, and never its
//! projection `z`, its aggregation or its residual product. After the
//! backward pass, nothing of the tape survives but the parameter
//! gradients, and no backward still holds a parameter. Sage, GCN and GAT
//! with batch norm, at world 1 and 2 on the simulated cluster.

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

fn config(arch: Arch, mode: Mode) -> ModelConfig {
    ModelConfig {
        arch,
        mode,
        layers: LAYERS,
        in_dim: IN_DIM,
        num_classes: CLASSES,
        dropout: 0.0,
        batch_norm: true,
        jumping_knowledge: false,
        seed: 3,
    }
}

/// `f32`s the tape saves for one taped forward over `n` local rows, by
/// layer: what each backward reads, and nothing it does not.
fn saved_floats(arch: Arch, n: usize) -> usize {
    let hidden = LAYERS - 1;
    match arch {
        // Epilogue: its output and the `[n]` degree scale. Batch norm: `x̂`,
        // and its output `y`, which the next layer's two matmuls read.
        Arch::GraphSage { hidden: f } => hidden * (3 * n * f + n) + (n * CLASSES + n),
        // As Sage, plus the `[n]` column the input scale (`mul_col`) reads.
        Arch::Gcn { hidden: f } => hidden * (3 * n * f + 2 * n) + (n * CLASSES + 2 * n),
        // Attention: `z` (read by the destination projection and the
        // refetch), `s_dst`, its own output and the saved softmax max and
        // denominator. A hidden layer adds `x̂` and `y` — its ReLU output
        // is read by no backward; the top layer adds the logits.
        Arch::Gat { head_dim, heads } => {
            let attention = |width: usize| 2 * n * width + 3 * n * heads;
            hidden * (attention(heads * head_dim) + 2 * n * heads * head_dim)
                + attention(heads * CLASSES)
                + n * CLASSES
        }
    }
}

/// Per rank: `(local rows, bytes the forward left live, bytes left after
/// dropping the output once backward ran, parameter-gradient bytes)`.
fn residency(g: &CsrGraph, world: usize, cfg: &ModelConfig) -> Vec<(usize, usize, usize, usize)> {
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
        let mut rng = StdRng::seed_from_u64(ctx.rank() as u64);
        let x = Var::constant(init::randn(&[n, IN_DIM], 1.0, &mut rng));
        let w = Worker::new(ctx, graph);
        let model = DistModel::new(&cfg);
        let base = MemoryTracker::stats().current_bytes;
        let logits = model.forward(&w, &x, true, &mut rng);
        let after_forward = MemoryTracker::stats().current_bytes - base;
        logits.backward_with(&Tensor::ones(&[n, CLASSES]));
        drop(logits);
        let after_backward = MemoryTracker::stats().current_bytes - base;
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
        (n, after_forward, after_backward, grads)
    });
    outcomes.into_iter().map(|o| o.result).collect()
}

fn check(arch: Arch, mode: Mode) {
    let g = erdos_renyi(NODES, 4 * NODES, &mut StdRng::seed_from_u64(1)).with_self_loops();
    let cfg = config(arch, mode);
    for world in [1usize, 2] {
        for (rank, (n, live, left, grads)) in residency(&g, world, &cfg).into_iter().enumerate() {
            let tag = format!("{arch:?} {mode:?}, world {world}, rank {rank}");
            assert_eq!(
                live,
                4 * saved_floats(arch, n),
                "{tag}: the forward left {live} B live, the saved set over {n} rows is {} B",
                4 * saved_floats(arch, n)
            );
            assert_eq!(
                left, grads,
                "{tag}: {left} B survive the backward, the parameter gradients are {grads} B"
            );
        }
    }
}

#[test]
fn sage_keeps_its_epilogue_output_x_hat_and_y_per_hidden_layer() {
    check(Arch::GraphSage { hidden: 8 }, Mode::Sar);
}

#[test]
fn domain_parallel_sage_keeps_no_halo() {
    // The sum aggregation's backward reads no value, so the halo it
    // fetched is freed once aggregated: the saved set is SAR's.
    check(Arch::GraphSage { hidden: 8 }, Mode::DomainParallel);
}

#[test]
fn gcn_keeps_its_epilogue_output_x_hat_y_and_scales() {
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
