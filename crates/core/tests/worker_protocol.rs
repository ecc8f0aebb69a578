//! Protocol-level tests of the Worker exchange primitives (fetch rounds,
//! gradient routing) and of model replication.

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CostModel};
use sar_core::mfg::{expand_inputs, slice_layer, LevelView};
use sar_core::{Arch, DistGraph, DistModel, Mode, ModelConfig, Protocol, ShardView, Worker};
use sar_graph::{generators::erdos_renyi, CsrGraph};
use sar_partition::random;
use sar_tensor::Tensor;

const N: usize = 40;

fn setup(world: usize, seed: u64) -> (CsrGraph, Vec<Arc<DistGraph>>) {
    let g = erdos_renyi(N, 240, &mut StdRng::seed_from_u64(seed)).symmetrize();
    let part = random(&g, world, seed);
    let graphs = DistGraph::build_all(&g, &part)
        .into_iter()
        .map(Arc::new)
        .collect();
    (g, graphs)
}

#[test]
fn fetch_rounds_delivers_each_partition_once_in_rotation_order() {
    let world = 4;
    let (_, graphs) = setup(world, 0);
    let graphs = Arc::new(graphs);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        // Encode each worker's rank into its features.
        let data = Tensor::full(&[w.graph.num_local(), 2], rank as f32);
        let mut seen = Vec::new();
        w.fetch_rounds(&*w.graph, &data, |q, fetched| {
            seen.push(q);
            assert_eq!(fetched.rows(), w.graph.needed_from(q).len());
            // Every row of a block fetched from q must carry q's value.
            assert!(fetched.data().iter().all(|&v| v == q as f32));
        });
        seen
    });
    for (rank, o) in out.iter().enumerate() {
        let expect: Vec<usize> = (0..world).map(|r| (rank + r) % world).collect();
        assert_eq!(o.result, expect, "rotation order for rank {rank}");
    }
}

/// One walker, two block sources, any budget: at every pipeline depth, a
/// walk off the wire, a stale-epoch replay out of the unbounded store (all
/// RAM) and one out of a store too small to keep a single block resident
/// (all disk) deliver the same `(q, rows, bits)` sequence.
#[test]
fn one_walk_delivers_the_same_blocks_from_wire_ram_and_tier() {
    let world = 4;
    let (_, graphs) = setup(world, 1);
    let graphs = Arc::new(graphs);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let ctx = Rc::new(ctx);
        let graph = &graphs[rank];
        let data = Tensor::from_vec(
            &[graph.num_local(), 2],
            (0..2 * graph.num_local())
                .map(|i| (rank * 1000 + i) as f32)
                .collect(),
        );
        type Delivered = Vec<(usize, usize, Vec<u32>)>;
        let walk = |w: &Worker| -> Delivered {
            let mut seen = Vec::new();
            w.fetch_rounds(&**graph, &data, |q, block| {
                let bits = block.data().iter().map(|v| v.to_bits()).collect();
                seen.push((q, block.rows(), bits));
            });
            seen
        };
        // A stale-epoch replay: a refresh walk fills the cache, the next
        // epoch's walk is served from it.
        let replay = |w: &Worker| -> Delivered {
            w.set_protocol(Protocol::parse("stale:2").unwrap());
            w.begin_epoch(true);
            let fresh = walk(w);
            w.begin_epoch(false);
            let stale = walk(w);
            assert_eq!(
                fresh, stale,
                "rank {rank}: replay diverged from its refresh"
            );
            stale
        };
        let mut runs = Vec::new();
        for depth in [0usize, 1, 3] {
            let w = Worker::from_shared(Rc::clone(&ctx), Arc::clone(graph), depth);
            let sent = || ctx.stats().total_sent();
            let start = sent();
            let wire = walk(&w);
            let one_walk = sent() - start;
            let ram = replay(&w);
            w.set_mem_budget(64); // smaller than one block: every cached block spills
            let tier = replay(&w);
            // Only the two refresh walks touched the wire; the stale
            // epochs served nothing.
            assert_eq!(sent() - start, 3 * one_walk, "rank {rank} depth {depth}");
            runs.push((wire, ram, tier));
        }
        runs
    });
    for (rank, o) in out.iter().enumerate() {
        let (reference, _, _) = &o.result[0];
        let order: Vec<usize> = reference.iter().map(|(q, _, _)| *q).collect();
        let expect: Vec<usize> = (0..world).map(|r| (rank + r) % world).collect();
        assert_eq!(order, expect, "rank {rank}: rotation order");
        for (wire, ram, tier) in &o.result {
            assert_eq!(wire, reference, "rank {rank}: depth changed the wire walk");
            assert_eq!(ram, reference, "rank {rank}: RAM replay");
            assert_eq!(tier, reference, "rank {rank}: tiered replay");
        }
    }
}

#[test]
fn exchange_grads_routes_to_owners() {
    // Worker p produces a gradient block of constant value (p+1) for every
    // peer; each owner must accumulate Σ over contributing peers at
    // exactly its served rows.
    let world = 3;
    let (_, graphs) = setup(world, 2);
    let graphs_outer = Arc::new(graphs);
    let graphs = Arc::clone(&graphs_outer);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let grad = w.exchange_grads(&*w.graph, 1, |q| {
            Tensor::full(&[w.graph.needed_from(q).len(), 1], rank as f32 + 1.0)
        });
        grad.into_data()
    });
    // Verify against a directly computed expectation.
    for (p, o) in out.iter().enumerate() {
        let shard = &graphs_outer[p];
        let mut expect = vec![0.0f32; shard.num_local()];
        for q in 0..world {
            for &row in shard.serves_to(q) {
                expect[row as usize] += q as f32 + 1.0;
            }
        }
        assert_eq!(o.result, expect, "worker {p} gradient routing");
    }
}

#[test]
fn model_replicas_are_identical_across_workers() {
    let world = 3;
    let (_, graphs) = setup(world, 3);
    let graphs = Arc::new(graphs);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let _w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let model = DistModel::new(&ModelConfig {
            arch: Arch::Gat {
                head_dim: 4,
                heads: 2,
            },
            mode: Mode::Sar,
            layers: 2,
            in_dim: 10,
            num_classes: 3,
            dropout: 0.0,
            batch_norm: true,
            jumping_knowledge: false,
            seed: 42,
        });
        // Fingerprint all parameters.
        model
            .params()
            .iter()
            .map(|p| p.value().data().iter().sum::<f32>())
            .collect::<Vec<f32>>()
    });
    for o in &out[1..] {
        assert_eq!(o.result, out[0].result, "replicas must be bit-identical");
    }
}

#[test]
fn tags_stay_aligned_across_interleaved_protocols() {
    // Two consecutive fetch_rounds plus an exchange_grads must not
    // cross-talk even though they share the channel.
    let world = 4;
    let (_, graphs) = setup(world, 4);
    let graphs = Arc::new(graphs);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let a = Tensor::full(&[w.graph.num_local(), 1], 1.0);
        let b = Tensor::full(&[w.graph.num_local(), 1], 2.0);
        let mut ok = true;
        w.fetch_rounds(&*w.graph, &a, |_, f| {
            ok &= f.data().iter().all(|&v| v == 1.0);
        });
        w.fetch_rounds(&*w.graph, &b, |_, f| {
            ok &= f.data().iter().all(|&v| v == 2.0);
        });
        let g = w.exchange_grads(&*w.graph, 1, |q| {
            Tensor::full(&[w.graph.needed_from(q).len(), 1], 3.0)
        });
        ok && g.data().iter().all(|&v| v == 0.0 || v % 3.0 == 0.0)
    });
    assert!(out.iter().all(|o| o.result));
}

#[test]
fn level_view_reindexes_into_the_input_rows() {
    let (_, graphs) = setup(3, 2);
    let s = &graphs[0];
    let slice = slice_layer(s, &[0, 2]);
    let serve = vec![Vec::new(), vec![1u32, 5], vec![2u32]];
    let inputs = expand_inputs(s, &slice, &serve);
    let view = LevelView::new(s, slice.clone(), &serve, &inputs).unwrap();
    assert_eq!((view.num_dst(), view.num_inputs()), (2, inputs.len()));
    let at = |rows: &[u32]| -> Vec<u32> { rows.iter().map(|&i| inputs[i as usize]).collect() };
    assert_eq!(at(view.dst_map().unwrap()), slice.dst_rows);
    assert_eq!(at(view.serve_rows(1)), serve[1]);
    // The local block's columns are the input rows themselves: edge for
    // edge, the compact block's column read through `req_rows`.
    let (local, compact) = (view.block(0), &slice.blocks[0]);
    assert_eq!(view.expected_rows(0), inputs.len());
    assert_eq!(local.indptr(), compact.indptr());
    let compact_rows: Vec<u32> = compact
        .indices()
        .iter()
        .map(|&c| slice.req_rows[0][c as usize])
        .collect();
    assert_eq!(at(local.indices()), compact_rows);
    for q in 1..s.world() {
        assert_eq!(view.expected_rows(q), slice.req_rows[q].len());
    }
    for (i, &r) in inputs.iter().enumerate() {
        assert_eq!(view.in_degree()[i], s.global_in_degree()[r as usize]);
    }
    // A row outside the input set is named, not silently dropped.
    let short: Vec<u32> = inputs[1..].to_vec();
    assert_eq!(
        LevelView::new(s, slice, &serve, &short).unwrap_err(),
        inputs[0]
    );
}

/// The worker keeps one block store: a `stale:2` GAT run whose store is
/// unbounded (`--mem-budget 0`: all RAM), too small for any block, or
/// exactly one block wide trains to the same bits over the same bytes, at
/// depth 0 and 2.
#[test]
fn stale_training_is_identical_at_every_store_budget() {
    use sar_comm::{Codec, Phase};
    use sar_core::{train, RunReport, TrainConfig};

    const HIDDEN: usize = 8;
    let d = sar_graph::datasets::products_like(300, 0);
    let part = sar_partition::multilevel(&d.graph, 4, 0);
    let one_block = (DistGraph::build_all(&d.graph, &part)[0]
        .needed_from(1)
        .len()
        * HIDDEN
        * 4) as u64;
    assert!(one_block > 64);
    let run = |depth: usize, budget: u64| -> RunReport {
        let cfg = TrainConfig {
            model: ModelConfig {
                arch: Arch::Gat {
                    head_dim: HIDDEN / 2,
                    heads: 2,
                },
                mode: Mode::SarFused,
                layers: 2,
                in_dim: 0, // set by the trainer
                num_classes: d.num_classes,
                dropout: 0.0,
                batch_norm: false,
                jumping_knowledge: false,
                seed: 7,
            },
            epochs: 4,
            lr: 0.01,
            schedule: sar_nn::LrSchedule::Constant,
            label_aug: false,
            aug_frac: 0.0,
            cs: None,
            prefetch_depth: depth,
            seed: 7,
            threads: 1,
            protocol: Protocol::parse("stale:2").unwrap(),
            codec: Codec::Raw,
            mem_budget: budget,
        };
        train(&d, &part, CostModel::default(), &cfg)
    };
    // What a run computed and what it moved: everything but timings and
    // the disk columns, which are the one thing a budget may change.
    let image = |r: &RunReport| {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let params: Vec<_> = r.final_params.iter().map(|(_, v)| bits(v)).collect();
        let phases = [
            Phase::ForwardFetch,
            Phase::BackwardRefetch,
            Phase::GradRouting,
            Phase::Collective,
            Phase::Other,
        ];
        let ledger: Vec<_> = r
            .worker_comm
            .iter()
            .flat_map(|c| phases.map(|p| c.ledger.phase_total(p)))
            .map(|e| (e.sent_bytes, e.recv_bytes, e.sent_messages, e.recv_messages))
            .collect();
        (bits(&r.losses), bits(r.logits.data()), params, ledger)
    };
    let spilled = |r: &RunReport| -> u64 {
        let phases = [Phase::ForwardFetch, Phase::BackwardRefetch, Phase::Other];
        let per_worker = |c: &sar_comm::CommStats| -> u64 {
            phases
                .iter()
                .map(|&p| c.ledger.phase_total(p).spill_bytes)
                .sum()
        };
        r.worker_comm.iter().map(per_worker).sum()
    };
    let reference = run(0, 0);
    assert!(reference.losses.iter().all(|l| l.is_finite()));
    assert_eq!(spilled(&reference), 0, "an unbounded store never spills");
    for depth in [0usize, 2] {
        for budget in [0, 64, one_block] {
            let r = run(depth, budget);
            assert_eq!(
                image(&r),
                image(&reference),
                "depth {depth}, budget {budget}"
            );
            assert_eq!(
                spilled(&r) > 0,
                budget > 0,
                "depth {depth}, budget {budget}"
            );
        }
    }
}
