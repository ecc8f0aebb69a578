//! Exactness tests: SAR and domain-parallel training must reproduce
//! single-machine full-batch results for any number of workers — the
//! paper's central claim ("The results of training are exactly the same
//! regardless of the number of machines").

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CommStats, CostModel};
use sar_core::{
    domain_parallel::halo_fetch, gat_aggregate, mfg, sage_aggregate, Arch, DistGraph, DistModel,
    FakMode, Mode, ModelConfig, Shard, View, Worker,
};
use sar_graph::{datasets, generators::erdos_renyi, ops, CsrGraph};
use sar_nn::loss::cross_entropy_masked;
use sar_partition::{multilevel, random, Partitioning};
use sar_tensor::{init, Tensor, Var};

const N_NODES: usize = 60;
const FEAT: usize = 6;

fn test_graph(seed: u64) -> CsrGraph {
    erdos_renyi(N_NODES, 420, &mut StdRng::seed_from_u64(seed))
        .symmetrize()
        .with_self_loops()
}

/// Reassembles per-worker row blocks into a full matrix.
fn assemble(parts: Vec<(Vec<u32>, Tensor)>, cols: usize) -> Tensor {
    let mut out = Tensor::zeros(&[N_NODES, cols]);
    for (ids, block) in parts {
        out.scatter_add_rows(&ids, &block);
    }
    out
}

#[test]
fn sar_sage_aggregation_matches_single_machine() {
    let g = test_graph(0);
    let x = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(1));
    let grad_out = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(2));

    let expect_out = ops::spmm_sum(&g, &x);
    let expect_grad = ops::spmm_sum_backward(&g, &grad_out);

    for world in [1usize, 2, 3, 5] {
        let part = random(&g, world, 7);
        let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        );
        let x = Arc::new(x.data().to_vec());
        let go = Arc::new(grad_out.data().to_vec());

        let outcomes = Cluster::new(world, CostModel::default()).run(move |ctx| {
            let graph = Arc::clone(&graphs[ctx.rank()]);
            let ids = graph.local_nodes().to_vec();
            let full_x = Tensor::from_vec(&[N_NODES, FEAT], x.as_ref().clone());
            let full_g = Tensor::from_vec(&[N_NODES, FEAT], go.as_ref().clone());
            let z = Var::parameter(full_x.gather_rows(&ids));
            let w = Worker::new(ctx, graph);
            let agg = sage_aggregate(&w, &w.view(), &z).unwrap();
            let out = agg.value_clone();
            agg.backward_with(&full_g.gather_rows(&ids));
            let grad = z.grad().expect("z grad");
            (ids.clone(), out.into_data(), grad.into_data())
        });

        let outs = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let (ids, out, _) = &o.result;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), FEAT], out.clone()),
                    )
                })
                .collect(),
            FEAT,
        );
        let grads = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let (ids, _, g) = &o.result;
                    (ids.clone(), Tensor::from_vec(&[ids.len(), FEAT], g.clone()))
                })
                .collect(),
            FEAT,
        );
        assert!(
            outs.allclose(&expect_out, 1e-4),
            "world {world}: forward mismatch"
        );
        assert!(
            grads.allclose(&expect_grad, 1e-4),
            "world {world}: backward mismatch"
        );
    }
}

/// Single-machine GAT attention aggregation reference (standard ops).
fn gat_reference(
    g: &CsrGraph,
    x: &Tensor,
    a_dst: &Tensor,
    a_src: &Tensor,
    heads: usize,
    grad_out: &Tensor,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let garc = Arc::new(g.clone());
    let z = Var::parameter(x.clone());
    let ad = Var::parameter(a_dst.clone());
    let asr = Var::parameter(a_src.clone());
    let s_dst = sar_nn::graph_autograd::head_project(&z, &ad, heads);
    let s_src = sar_nn::graph_autograd::head_project(&z, &asr, heads);
    let scores = sar_nn::graph_autograd::gat_edge_scores(&garc, &s_dst, &s_src, 0.2);
    let alpha = sar_nn::graph_autograd::edge_softmax(&garc, &scores);
    let out = sar_nn::graph_autograd::spmm_multihead(&garc, &alpha, &z);
    let value = out.value_clone();
    out.backward_with(grad_out);
    (
        value,
        z.grad().unwrap(),
        ad.grad().unwrap(),
        asr.grad().unwrap(),
    )
}

fn check_sar_gat(mode: FakMode) {
    let heads = 2;
    let hd = heads * 3;
    let g = test_graph(3);
    let x = init::randn(&[N_NODES, hd], 1.0, &mut StdRng::seed_from_u64(4));
    let a_dst = init::randn(&[hd], 1.0, &mut StdRng::seed_from_u64(5));
    let a_src = init::randn(&[hd], 1.0, &mut StdRng::seed_from_u64(6));
    let grad_out = init::randn(&[N_NODES, hd], 1.0, &mut StdRng::seed_from_u64(7));

    let (ref_out, ref_dz, ref_dad, ref_das) =
        gat_reference(&g, &x, &a_dst, &a_src, heads, &grad_out);

    for world in [1usize, 3, 4] {
        let part = multilevel(&g, world.min(N_NODES), 11);
        let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        );
        let xs = Arc::new(x.data().to_vec());
        let gos = Arc::new(grad_out.data().to_vec());
        let ads = Arc::new(a_dst.data().to_vec());
        let ass = Arc::new(a_src.data().to_vec());

        let outcomes = Cluster::new(world, CostModel::default()).run(move |ctx| {
            let graph = Arc::clone(&graphs[ctx.rank()]);
            let ids = graph.local_nodes().to_vec();
            let full_x = Tensor::from_vec(&[N_NODES, hd], xs.as_ref().clone());
            let full_g = Tensor::from_vec(&[N_NODES, hd], gos.as_ref().clone());
            let z = Var::parameter(full_x.gather_rows(&ids));
            let ad = Var::parameter(Tensor::from_vec(&[hd], ads.as_ref().clone()));
            let asr = Var::parameter(Tensor::from_vec(&[hd], ass.as_ref().clone()));
            let w = Worker::new(ctx, graph);
            let s_dst = sar_nn::graph_autograd::head_project(&z, &ad, heads);
            let agg = gat_aggregate(&w, &w.view(), &z, &s_dst, &asr, heads, 0.2, mode).unwrap();
            let out = agg.value_clone();
            agg.backward_with(&full_g.gather_rows(&ids));
            (
                ids,
                out.into_data(),
                z.grad().unwrap().into_data(),
                ad.grad().unwrap().into_data(),
                asr.grad().unwrap().into_data(),
            )
        });

        let outs = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let ids = &o.result.0;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), hd], o.result.1.clone()),
                    )
                })
                .collect(),
            hd,
        );
        let dzs = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let ids = &o.result.0;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), hd], o.result.2.clone()),
                    )
                })
                .collect(),
            hd,
        );
        assert!(
            outs.allclose(&ref_out, 1e-3),
            "world {world}: forward mismatch ({mode:?})"
        );
        assert!(
            dzs.allclose(&ref_dz, 1e-3),
            "world {world}: dz mismatch ({mode:?})"
        );
        // a_dst grads are per-worker partial sums (the trainer all-reduces
        // them); a_src grads are already all-reduced inside Algorithm 2.
        let mut dad = Tensor::zeros(&[hd]);
        for o in &outcomes {
            dad.add_assign(&Tensor::from_vec(&[hd], o.result.3.clone()));
        }
        assert!(
            dad.allclose(&ref_dad, 1e-3),
            "world {world}: d_a_dst mismatch ({mode:?})"
        );
        let das = Tensor::from_vec(&[hd], outcomes[0].result.4.clone());
        assert!(
            das.allclose(&ref_das, 1e-3),
            "world {world}: d_a_src mismatch ({mode:?})"
        );
    }
}

#[test]
fn sar_gat_fused_matches_single_machine() {
    check_sar_gat(FakMode::Fused);
}

#[test]
fn sar_gat_twostep_matches_single_machine() {
    check_sar_gat(FakMode::TwoStep);
}

#[test]
fn domain_parallel_halo_matches_single_machine() {
    let g = test_graph(8);
    let x = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(9));
    let grad_out = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(10));
    let expect_out = ops::spmm_sum(&g, &x);
    let expect_grad = ops::spmm_sum_backward(&g, &grad_out);

    for world in [1usize, 2, 4] {
        let part = random(&g, world, 13);
        let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        );
        let xs = Arc::new(x.data().to_vec());
        let gos = Arc::new(grad_out.data().to_vec());

        let outcomes = Cluster::new(world, CostModel::default()).run(move |ctx| {
            let graph = Arc::clone(&graphs[ctx.rank()]);
            let ids = graph.local_nodes().to_vec();
            let full_x = Tensor::from_vec(&[N_NODES, FEAT], xs.as_ref().clone());
            let full_g = Tensor::from_vec(&[N_NODES, FEAT], gos.as_ref().clone());
            let z = Var::parameter(full_x.gather_rows(&ids));
            let w = Worker::new(ctx, graph);
            let halo = halo_fetch(&w, &z);
            let agg = sar_nn::graph_autograd::spmm_sum(w.graph.halo_graph(), &halo);
            let out = agg.value_clone();
            agg.backward_with(&full_g.gather_rows(&ids));
            (ids, out.into_data(), z.grad().unwrap().into_data())
        });

        let outs = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let ids = &o.result.0;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), FEAT], o.result.1.clone()),
                    )
                })
                .collect(),
            FEAT,
        );
        let grads = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let ids = &o.result.0;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), FEAT], o.result.2.clone()),
                    )
                })
                .collect(),
            FEAT,
        );
        assert!(
            outs.allclose(&expect_out, 1e-4),
            "world {world}: DP forward mismatch"
        );
        assert!(
            grads.allclose(&expect_grad, 1e-4),
            "world {world}: DP backward mismatch"
        );
    }
}

#[test]
fn prefetch_does_not_change_results() {
    let g = test_graph(20);
    let x = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(21));
    let part = random(&g, 4, 22);
    let expect = ops::spmm_sum(&g, &x);

    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&g, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let xs = Arc::new(x.data().to_vec());
    let outcomes = Cluster::new(4, CostModel::default()).run(move |ctx| {
        let graph = Arc::clone(&graphs[ctx.rank()]);
        let ids = graph.local_nodes().to_vec();
        let full_x = Tensor::from_vec(&[N_NODES, FEAT], xs.as_ref().clone());
        let z = Var::constant(full_x.gather_rows(&ids));
        let w = Worker::from_shared(Rc::new(ctx), graph, 1);
        let agg = sage_aggregate(&w, &w.view(), &z).unwrap();
        (ids, agg.value_clone().into_data())
    });
    let outs = assemble(
        outcomes
            .iter()
            .map(|o| {
                let ids = &o.result.0;
                (
                    ids.clone(),
                    Tensor::from_vec(&[ids.len(), FEAT], o.result.1.clone()),
                )
            })
            .collect(),
        FEAT,
    );
    assert!(outs.allclose(&expect, 1e-4));
}

#[test]
fn partitioning_choice_does_not_change_results() {
    // SAR must be exact under any partitioning, balanced or not.
    let g = test_graph(30);
    let x = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(31));
    let expect = ops::spmm_sum(&g, &x);
    // A deliberately skewed partitioning.
    let assignment: Vec<u32> = (0..N_NODES).map(|i| if i < 5 { 0 } else { 1 }).collect();
    let part = Partitioning::new(2, assignment);
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&g, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let xs = Arc::new(x.data().to_vec());
    let outcomes = Cluster::new(2, CostModel::default()).run(move |ctx| {
        let graph = Arc::clone(&graphs[ctx.rank()]);
        let ids = graph.local_nodes().to_vec();
        let full_x = Tensor::from_vec(&[N_NODES, FEAT], xs.as_ref().clone());
        let z = Var::constant(full_x.gather_rows(&ids));
        let w = Worker::new(ctx, graph);
        let agg = sage_aggregate(&w, &w.view(), &z).unwrap();
        (ids, agg.value_clone().into_data())
    });
    let outs = assemble(
        outcomes
            .iter()
            .map(|o| {
                let ids = &o.result.0;
                (
                    ids.clone(),
                    Tensor::from_vec(&[ids.len(), FEAT], o.result.1.clone()),
                )
            })
            .collect(),
        FEAT,
    );
    assert!(outs.allclose(&expect, 1e-4));
}

/// The byte/message half of a parity digest: every ledger cell's traffic
/// counters, in ledger order.
fn ledger_digest(stats: &CommStats) -> String {
    stats
        .ledger
        .rows()
        .map(|(phase, layer, e)| {
            format!(
                "{}/{layer:?} sent={} recv={} smsg={} rmsg={}\n",
                phase.name(),
                e.sent_bytes,
                e.recv_bytes,
                e.sent_messages,
                e.recv_messages
            )
        })
        .collect()
}

/// Two epochs of full-batch training at world 3, layer by layer through
/// [`DistModel::layer_forward`] over whatever view `view_of` builds from
/// each rank's graph. Returns per-rank `(loss bits, logits bits, ledger
/// digest)`.
fn train_through(
    arch: Arch,
    view_of: fn(&Arc<DistGraph>) -> View,
) -> Vec<(Vec<u32>, Vec<u32>, String)> {
    const WORLD: usize = 3;
    let d = datasets::products_like(150, 5);
    let part = multilevel(&d.graph, WORLD, 5);
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&d.graph, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let shards = Arc::new(Shard::build_all(&d, &part));
    let cfg = ModelConfig {
        arch,
        mode: Mode::SarFused,
        layers: 2,
        in_dim: d.feat_dim(),
        num_classes: d.num_classes,
        dropout: 0.0,
        batch_norm: false,
        jumping_knowledge: false,
        seed: 3,
    };
    let outcomes = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let shard = &shards[rank];
        let w = Worker::from_shared(Rc::new(ctx), Arc::clone(&graphs[rank]), 1);
        let view = view_of(&graphs[rank]);
        let model = DistModel::new(&cfg);
        let params = model.params();
        let x = Var::constant(shard.features_tensor());
        let forward = || {
            (0..cfg.layers).fold(x.clone(), |h, l| {
                let _layer = w.ctx.layer_scope(l as u16);
                model.layer_forward(l, &w, &view, &h).unwrap()
            })
        };
        let mut losses = Vec::new();
        for _epoch in 0..2 {
            let loss = cross_entropy_masked(
                &forward(),
                &shard.labels,
                &shard.train_mask,
                Some(shard.global_train_count as f32),
            );
            params.iter().for_each(Var::zero_grad);
            loss.backward();
            // Replicated SGD step on the summed gradients.
            for p in &params {
                let mut g = p
                    .grad()
                    .map_or_else(|| vec![0.0; p.shape().iter().product()], Tensor::into_data);
                w.ctx.all_reduce_sum(&mut g);
                let step = Tensor::from_vec(&p.shape(), g).scale(-0.05);
                p.update_value(|v| v.add_assign(&step));
            }
            losses.push(w.ctx.all_reduce_sum_scalar(loss.value().item()).to_bits());
        }
        let logits = sar_tensor::no_grad(forward).value_clone();
        let logits = logits.data().iter().map(|v| v.to_bits()).collect();
        (losses, logits, ledger_digest(&w.ctx.stats()))
    });
    outcomes.into_iter().map(|o| o.result).collect()
}

/// The bipartite layer path in grad mode: an MFG level over *all* local
/// rows carries an explicit (identity) `dst → input` map, explicit serve
/// lists and re-sliced blocks, so the residual / attention-destination /
/// degree gathers and their backward scatters all run — and must train to
/// exactly the bits the full-graph view trains to, over exactly the same
/// traffic.
#[test]
fn training_through_an_all_rows_mfg_view_matches_the_full_graph_bitwise() {
    fn full(g: &Arc<DistGraph>) -> View {
        g.clone()
    }
    fn all_rows_level(g: &Arc<DistGraph>) -> View {
        let all: Vec<u32> = (0..g.num_local() as u32).collect();
        let serves: Vec<Vec<u32>> = (0..g.world()).map(|q| g.serves_to(q).to_vec()).collect();
        let level = mfg::LevelView::new(g, mfg::slice_layer(g, &all), &serves, &all);
        Arc::new(level.expect("every local row is an input"))
    }
    for arch in [
        Arch::GraphSage { hidden: 12 },
        Arch::Gat {
            head_dim: 6,
            heads: 2,
        },
    ] {
        let graph = train_through(arch, full);
        let level = train_through(arch, all_rows_level);
        for (rank, (g, l)) in graph.iter().zip(&level).enumerate() {
            assert_eq!(g.0, l.0, "{arch:?} rank {rank}: losses");
            assert_eq!(g.1, l.1, "{arch:?} rank {rank}: logits");
            assert_eq!(g.2, l.2, "{arch:?} rank {rank}: ledger digest");
        }
        assert!(
            graph[0].0[1] != graph[0].0[0],
            "{arch:?}: training moved the loss"
        );
    }
}

/// A hand-built dataset over `graph`: seeded features, three classes,
/// every other node a training node. No stand-in dataset has the block
/// shapes the tests below need (they are all symmetric with self loops).
fn dataset_over(graph: CsrGraph, seed: u64) -> datasets::Dataset {
    let n = graph.num_nodes();
    datasets::Dataset {
        features: init::randn(&[n, FEAT], 1.0, &mut StdRng::seed_from_u64(seed)),
        labels: (0..n as u32).map(|i| (i * 7 + 1) % 3).collect(),
        train_mask: (0..n).map(|i| i % 2 == 0).collect(),
        val_mask: vec![false; n],
        test_mask: vec![false; n],
        num_classes: 3,
        name: "hand-built".into(),
        graph,
    }
}

/// One forward + backward of a two-layer model at `part.num_parts()`
/// workers: the summed loss and every parameter's summed gradient.
fn loss_and_grads(
    d: &datasets::Dataset,
    part: &Partitioning,
    (arch, mode): (Arch, Mode),
    depth: usize,
    threads: usize,
) -> (f32, Vec<Tensor>) {
    let world = part.num_parts();
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&d.graph, part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let shards = Arc::new(Shard::build_all(d, part));
    let cfg = ModelConfig {
        arch,
        mode,
        layers: 2,
        in_dim: d.feat_dim(),
        num_classes: d.num_classes,
        dropout: 0.0,
        batch_norm: false,
        jumping_knowledge: false,
        seed: 3,
    };
    let mut outcomes = Cluster::new(world, CostModel::default()).run(move |ctx| {
        sar_tensor::pool::set_threads(threads);
        let rank = ctx.rank();
        let shard = &shards[rank];
        let w = Worker::from_shared(Rc::new(ctx), Arc::clone(&graphs[rank]), depth);
        let model = DistModel::new(&cfg);
        let logits = (0..cfg.layers).fold(Var::constant(shard.features_tensor()), |h, l| {
            let _layer = w.ctx.layer_scope(l as u16);
            model.layer_forward(l, &w, &w.view(), &h).unwrap()
        });
        let loss = cross_entropy_masked(
            &logits,
            &shard.labels,
            &shard.train_mask,
            Some(shard.global_train_count as f32),
        );
        loss.backward();
        let grads: Vec<Tensor> = model
            .params()
            .iter()
            .map(|p| p.grad().unwrap_or_else(|| Tensor::zeros(&p.shape())))
            .collect();
        let loss = loss.value().item();
        (loss, grads)
    });
    // Summed in rank order, as the trainer's all-reduce would — except a
    // gradient every rank already holds the same bits of: Algorithm 2
    // summed that one (GAT's `a_src`) across machines inside the backward.
    let (mut loss, mut grads) = outcomes.remove(0).result;
    for o in &outcomes {
        loss += o.result.0;
        for (sum, g) in grads.iter_mut().zip(&o.result.1) {
            if sum
                .data()
                .iter()
                .zip(g.data())
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                sum.add_assign(g);
            }
        }
    }
    (loss, grads)
}

/// Block shapes no stand-in dataset has — a local block with no edge at
/// all, and local nodes that no local edge references — train like any
/// other: the loss and every parameter gradient match the single-worker
/// run, and are the same bits at every pipeline depth and thread count.
#[test]
fn empty_and_sparse_local_blocks_match_the_single_worker_run() {
    const N: usize = 48;
    // Bipartite between the halves, no self loops: partitioned by side,
    // every `G_{p,p}` is empty. World 3 splits the second half once more.
    let mut rng = StdRng::seed_from_u64(40);
    let across: Vec<(u32, u32)> = erdos_renyi(N / 2, 100, &mut rng)
        .iter_edges()
        .map(|(s, d)| (s, d + (N / 2) as u32))
        .collect();
    let bipartite = CsrGraph::from_edges(N, &across).symmetrize();
    let by_side = |world: usize| -> Partitioning {
        let side = |i: usize| match (i * 2 / N, world) {
            (0, _) => 0,
            (_, 2) => 1,
            _ => 1 + (i % 2) as u32,
        };
        Partitioning::new(world, (0..N).map(side).collect())
    };
    // Sparse and loop-free under a random partitioning: most local nodes
    // have no local neighbour.
    let sparse = erdos_renyi(N, 70, &mut rng).symmetrize();
    type Partitioner<'a> = &'a dyn Fn(usize) -> Partitioning;
    let shapes: [(&str, CsrGraph, Partitioner); 2] = [
        ("bipartite by side", bipartite, &by_side),
        ("unreferenced local nodes", sparse.clone(), &|world| {
            random(&sparse, world, 41)
        }),
    ];
    let sage = Arch::GraphSage { hidden: 8 };
    let gat = Arch::Gat {
        head_dim: 4,
        heads: 2,
    };
    for (what, graph, partitioned) in shapes {
        let d = dataset_over(graph, 42);
        for world in [2usize, 3] {
            let part = partitioned(world);
            for shard in DistGraph::build_all(&d.graph, &part) {
                let local = shard.block(shard.rank());
                assert_eq!(local.num_cols(), shard.num_local(), "{what}");
                let mut referenced = local.indices().to_vec();
                referenced.sort_unstable();
                referenced.dedup();
                match what {
                    "bipartite by side" => assert_eq!(local.num_edges(), 0),
                    _ => assert!(referenced.len() < shard.num_local(), "{what}: vacuous"),
                }
            }
            for model in [(sage, Mode::Sar), (gat, Mode::Sar), (gat, Mode::SarFused)] {
                let tag = format!("{what}, world {world}, {model:?}");
                let (solo_loss, solo_grads) =
                    loss_and_grads(&d, &Partitioning::new(1, vec![0; N]), model, 0, 1);
                let (loss, grads) = loss_and_grads(&d, &part, model, 0, 1);
                assert!(
                    (loss - solo_loss).abs() <= 1e-3 * (1.0 + solo_loss.abs()),
                    "{tag}"
                );
                assert!(solo_grads
                    .iter()
                    .any(|g| g.data().iter().any(|&v| v != 0.0)));
                for (k, (g, solo)) in grads.iter().zip(&solo_grads).enumerate() {
                    assert!(g.allclose(solo, 1e-3), "{tag}: gradient of parameter {k}");
                }
                let bits = |(loss, grads): &(f32, Vec<Tensor>)| -> Vec<u32> {
                    let grads = grads.iter().flat_map(|g| g.data().iter());
                    std::iter::once(loss)
                        .chain(grads)
                        .map(|v| v.to_bits())
                        .collect()
                };
                let base = bits(&(loss, grads));
                for (depth, threads) in [(2, 1), (0, 2), (2, 2)] {
                    let run = loss_and_grads(&d, &part, model, depth, threads);
                    assert_eq!(bits(&run), base, "{tag}: depth {depth}, threads {threads}");
                }
            }
        }
    }
}
