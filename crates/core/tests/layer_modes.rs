//! One `DistModel` layer under every execution mode: domain-parallel, SAR
//! with two-step attention and SAR with the fused attention kernel agree
//! on outputs and on every gradient, stay finite under large inputs, and
//! differ where the paper says they do — in forward peak memory. Each case
//! runs at world 1 and world 2.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CostModel};
use sar_core::{Arch, DistGraph, DistModel, Mode, ModelConfig, Worker};
use sar_graph::generators::erdos_renyi;
use sar_graph::CsrGraph;
use sar_partition::range;
use sar_tensor::{init, MemoryTracker, Tensor, Var};

const MODES: [Mode; 3] = [Mode::DomainParallel, Mode::Sar, Mode::SarFused];

/// A one-layer model (no batch norm, no dropout) mapping `in_dim` to
/// `out` columns: for GAT, `heads` heads of width `out`, averaged.
fn one_layer(arch: Arch, mode: Mode, in_dim: usize, out: usize, seed: u64) -> ModelConfig {
    ModelConfig {
        arch,
        mode,
        layers: 1,
        in_dim,
        num_classes: out,
        dropout: 0.0,
        batch_norm: false,
        seed,
    }
}

fn gat(heads: usize, head_dim: usize) -> Arch {
    Arch::Gat { head_dim, heads }
}

/// One forward + backward over `g` split into `world` contiguous ranges.
struct Pass {
    /// The layer's output, rows in global order.
    out: Tensor,
    /// The input's gradient, rows in global order.
    d_x: Tensor,
    /// Every parameter's gradient, summed over ranks.
    d_params: Vec<Tensor>,
    /// The largest per-rank forward peak above the pre-forward level.
    fwd_peak: usize,
}

/// Runs `cfg` on input `x` and back-propagates `grad_out` (both `[n, _]`,
/// global row order).
fn pass(g: &CsrGraph, world: usize, cfg: &ModelConfig, x: &Tensor, grad_out: &Tensor) -> Pass {
    let n = g.num_nodes();
    let (in_dim, out_dim) = (x.cols(), grad_out.cols());
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(g, &range(g, world))
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let (xs, gos) = (
        Arc::new(x.data().to_vec()),
        Arc::new(grad_out.data().to_vec()),
    );
    let cfg = cfg.clone();
    let outcomes = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let graph = Arc::clone(&graphs[ctx.rank()]);
        let ids = graph.local_nodes().to_vec();
        let x = Tensor::from_vec(&[n, in_dim], xs.to_vec()).gather_rows(&ids);
        let grad_out = Tensor::from_vec(&[n, out_dim], gos.to_vec()).gather_rows(&ids);
        let w = Worker::new(ctx, graph);
        let view = w.view();
        let model = DistModel::new(&cfg);
        let h = Var::parameter(x);
        MemoryTracker::reset_peak();
        let base = MemoryTracker::stats().current_bytes;
        let out = model.layer_forward(0, &w, &view, &h).unwrap();
        let fwd_peak = MemoryTracker::stats().peak_bytes - base;
        let value = out.value_clone().into_data();
        out.backward_with(&grad_out);
        let d_params: Vec<Vec<f32>> = model
            .params()
            .iter()
            .map(|p| {
                p.grad()
                    .map_or_else(|| vec![0.0; p.shape().iter().product()], Tensor::into_data)
            })
            .collect();
        let d_x = h.grad().expect("input gradient").into_data();
        (ids, value, d_x, d_params, fwd_peak)
    });
    let mut run = Pass {
        out: Tensor::zeros(&[n, out_dim]),
        d_x: Tensor::zeros(&[n, in_dim]),
        d_params: Vec::new(),
        fwd_peak: 0,
    };
    for o in outcomes {
        let (ids, out, d_x, d_params, fwd_peak) = o.result;
        let rows = ids.len();
        run.out
            .scatter_add_rows(&ids, &Tensor::from_vec(&[rows, out_dim], out));
        run.d_x
            .scatter_add_rows(&ids, &Tensor::from_vec(&[rows, in_dim], d_x));
        let d_params = d_params
            .into_iter()
            .map(|d| Tensor::from_vec(&[d.len()], d));
        if run.d_params.is_empty() {
            run.d_params = d_params.collect();
        } else {
            run.d_params
                .iter_mut()
                .zip(d_params)
                .for_each(|(sum, d)| sum.add_assign(&d));
        }
        run.fwd_peak = run.fwd_peak.max(fwd_peak);
    }
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gat_modes_agree_on_outputs_and_every_gradient(
        seed in 0u64..500,
        n in 4usize..20,
        m in 2usize..80,
        heads in 1usize..4,
        head_dim in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng).with_self_loops();
        let in_dim = 6;
        let x = init::randn(&[n, in_dim], 1.0, &mut rng);
        let grad_out = init::randn(&[n, head_dim], 1.0, &mut rng);
        let cfg = |mode| one_layer(gat(heads, head_dim), mode, in_dim, head_dim, seed);
        let reference = pass(&g, 1, &cfg(Mode::DomainParallel), &x, &grad_out);
        for world in [1usize, 2] {
            for mode in MODES {
                let run = pass(&g, world, &cfg(mode), &x, &grad_out);
                let tag = format!("{mode:?}, world {world} (seed {seed}, n {n}, m {m}, heads {heads})");
                prop_assert!(run.out.allclose(&reference.out, 1e-3), "output: {}", tag);
                prop_assert!(run.d_x.allclose(&reference.d_x, 1e-3), "input grad: {}", tag);
                prop_assert_eq!(run.d_params.len(), reference.d_params.len());
                for (k, (d, r)) in run.d_params.iter().zip(&reference.d_params).enumerate() {
                    prop_assert!(d.allclose(r, 1e-3), "param {} grad: {}", k, tag);
                }
            }
        }
    }

    #[test]
    fn gat_outputs_stay_finite_under_large_inputs(seed in 0u64..300, scale in 1.0f32..40.0) {
        // The edge softmax must stay stable however large the logits get.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(12, 50, &mut rng).with_self_loops();
        let x = init::randn(&[12, 4], scale, &mut rng);
        let grad_out = init::randn(&[12, 3], 1.0, &mut rng);
        for world in [1usize, 2] {
            for mode in MODES {
                let run = pass(&g, world, &one_layer(gat(2, 3), mode, 4, 3, seed), &x, &grad_out);
                prop_assert!(
                    run.out.data().iter().all(|v| v.is_finite()),
                    "{:?}, world {}: non-finite output", mode, world
                );
            }
        }
    }

    #[test]
    fn sage_layer_is_permutation_equivariant(seed in 0u64..300, n in 3usize..12) {
        // Relabeling nodes and permuting the input rows must permute the
        // output rows identically.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, 4 * n, &mut rng).with_self_loops();
        let x = init::randn(&[n, 5], 1.0, &mut rng);
        let grad_out = Tensor::zeros(&[n, 4]);
        // Permutation: rotate labels by one.
        let perm: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
        let edges: Vec<(u32, u32)> = g
            .iter_edges()
            .map(|(s, d)| (perm[s as usize], perm[d as usize]))
            .collect();
        let g_p = CsrGraph::from_edges(n, &edges);
        let mut x_p = Tensor::zeros(&[n, 5]);
        x_p.scatter_add_rows(&perm, &x);
        let cfg = one_layer(Arch::GraphSage { hidden: 4 }, Mode::Sar, 5, 4, seed);
        for world in [1usize, 2] {
            let out = pass(&g, world, &cfg, &x, &grad_out).out;
            let out_p = pass(&g_p, world, &cfg, &x_p, &grad_out).out;
            prop_assert!(
                out_p.gather_rows(&perm).allclose(&out, 1e-4),
                "world {}: not equivariant", world
            );
        }
    }
}

/// Many edges, few nodes: the `[E, H]` tensors the two-step pipeline
/// keeps on the tape dominate, and the fused kernel never builds them.
#[test]
fn fused_forward_peak_is_below_half_the_domain_parallel_one() {
    let edges: Vec<(u32, u32)> = (0..40u32)
        .flat_map(|i| (0..40u32).map(move |j| (i, j)))
        .collect();
    let g = CsrGraph::from_edges(40, &edges);
    let mut rng = StdRng::seed_from_u64(6);
    let x = init::randn(&[40, 8], 1.0, &mut rng);
    let grad_out = Tensor::zeros(&[40, 4]);
    for world in [1usize, 2] {
        let peak = |mode| {
            pass(
                &g,
                world,
                &one_layer(gat(8, 4), mode, 8, 4, 6),
                &x,
                &grad_out,
            )
            .fwd_peak
        };
        let (fused, dp) = (peak(Mode::SarFused), peak(Mode::DomainParallel));
        assert!(
            fused < dp / 2,
            "world {world}: fused peak {fused} should be well below domain-parallel peak {dp}"
        );
    }
}
