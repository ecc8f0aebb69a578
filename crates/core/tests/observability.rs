//! Ledger-level verification of the paper's communication and memory
//! claims, measured by the per-phase observability layer:
//!
//! * Algorithm 2, case 1 — GraphSage's backward pass adds **zero** fetch
//!   bytes (no rematerialization traffic).
//! * Algorithm 2, case 2 — GAT's backward pass re-fetches exactly what
//!   the forward pass fetched, making its total volume 1.5× GraphSage's
//!   (the paper's "50% communication overhead").
//! * §3.4 — prefetching raises the fetch-loop memory peak from 2 blocks
//!   (the paper's 2/N bound) to 3 blocks (3/N).
//! * A layer frees its input before its rotation: the fetch-loop peak of
//!   a model's layer 0 does not hold the `[n, in_dim]` input.
//!
//! All but the last run on a complete graph split into equal range
//! partitions, so every fetch/serve set is one full partition and the
//! expected volumes are exact.

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CommStats, CostModel, Phase};
use sar_core::{
    gat_aggregate, sage_aggregate, Arch, DistGraph, DistModel, FakMode, Mode, ModelConfig, Shard,
    Worker,
};
use sar_graph::{datasets, CsrGraph};
use sar_partition::range;
use sar_tensor::{MemoryTracker, Tensor, Var};

const WORLD: usize = 4;
const PER_PART: usize = 32;
const HEADS: usize = 2;
const COLS: usize = 16; // = HEADS * head_dim for the GAT runs
const LAYER: u16 = 3;

/// Complete directed graph on `WORLD * PER_PART` nodes: every partition
/// needs every other partition in full, so each fetched block is exactly
/// `PER_PART` rows.
fn dist_graphs() -> Vec<Arc<DistGraph>> {
    let n = WORLD * PER_PART;
    let mut edges = Vec::with_capacity(n * (n - 1));
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v {
                edges.push((u, v));
            }
        }
    }
    let g = CsrGraph::from_edges(n, &edges);
    let part = range(&g, WORLD);
    DistGraph::build_all(&g, &part)
        .into_iter()
        .map(Arc::new)
        .collect()
}

/// One forward + backward through `sage_aggregate`, returning each
/// worker's communication statistics.
fn run_sage() -> Vec<CommStats> {
    let graphs = Arc::new(dist_graphs());
    let out = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let z = Var::parameter(Tensor::full(
            &[w.graph.num_local(), COLS],
            0.1 * (rank as f32 + 1.0),
        ));
        let agg = {
            let _layer = w.ctx.layer_scope(LAYER);
            sage_aggregate(&w, &w.view(), &z).unwrap()
        };
        agg.sum().backward();
    });
    out.into_iter().map(|o| o.comm).collect()
}

/// One forward + backward through `gat_aggregate` (fused kernels).
fn run_gat() -> Vec<CommStats> {
    let graphs = Arc::new(dist_graphs());
    let out = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let n_local = w.graph.num_local();
        let z = Var::parameter(Tensor::full(&[n_local, COLS], 0.1 * (rank as f32 + 1.0)));
        let s_dst = Var::parameter(Tensor::full(&[n_local, HEADS], 0.05));
        let a_src = Var::parameter(Tensor::full(&[COLS], 0.02));
        let agg = {
            let _layer = w.ctx.layer_scope(LAYER);
            gat_aggregate(
                &w,
                &w.view(),
                &z,
                &s_dst,
                &a_src,
                HEADS,
                0.2,
                FakMode::Fused,
            )
            .unwrap()
        };
        agg.sum().backward();
    });
    out.into_iter().map(|o| o.comm).collect()
}

fn phase_recv(stats: &CommStats, phase: Phase) -> u64 {
    stats.ledger.phase_total(phase).recv_bytes
}

#[test]
fn sage_backward_adds_zero_fetch_bytes() {
    let graphs = dist_graphs();
    for (rank, s) in run_sage().iter().enumerate() {
        let fetch = phase_recv(s, Phase::ForwardFetch);
        let refetch = s.ledger.phase_total(Phase::BackwardRefetch);
        let route = phase_recv(s, Phase::GradRouting);
        assert!(fetch > 0, "rank {rank}: forward must fetch remote features");
        // Case 1: rematerialization-free backward — not one byte of
        // feature traffic beyond the error routing.
        assert_eq!(
            refetch.recv_bytes, 0,
            "rank {rank}: sage backward refetched"
        );
        assert_eq!(
            refetch.sent_bytes, 0,
            "rank {rank}: sage backward served a refetch"
        );
        // The ledger must agree with the volumes predicted from the
        // partition structure alone.
        assert_eq!(
            fetch,
            graphs[rank].predicted_fetch_bytes(COLS),
            "rank {rank}: forward-fetch volume"
        );
        assert_eq!(
            route,
            graphs[rank].predicted_grad_route_bytes(COLS),
            "rank {rank}: grad-routing volume"
        );
    }
}

#[test]
fn gat_backward_refetches_exactly_the_forward_volume() {
    let graphs = dist_graphs();
    for (rank, s) in run_gat().iter().enumerate() {
        let fetch = phase_recv(s, Phase::ForwardFetch);
        let refetch = phase_recv(s, Phase::BackwardRefetch);
        let route = phase_recv(s, Phase::GradRouting);
        assert!(fetch > 0, "rank {rank}: forward must fetch remote features");
        // Case 2: the backward pass re-fetches the same z rows the
        // forward pass fetched — byte for byte.
        assert_eq!(refetch, fetch, "rank {rank}: refetch != forward fetch");
        assert_eq!(
            fetch,
            graphs[rank].predicted_fetch_bytes(COLS),
            "rank {rank}: forward-fetch volume"
        );
        assert_eq!(
            route,
            graphs[rank].predicted_grad_route_bytes(COLS),
            "rank {rank}: grad-routing volume"
        );
        // The aggregation leaves its parameter gradients as per-rank
        // partials: summing them is the trainer's one all-reduce.
        assert_eq!(
            phase_recv(s, Phase::Collective),
            0,
            "rank {rank}: GAT aggregation ran a collective"
        );
    }
}

#[test]
fn gat_total_volume_is_one_point_five_times_sage() {
    // Cluster-wide, grad-routing volume equals forward-fetch volume
    // (every fetched row owes one error row back), so case 2's extra
    // refetch makes GAT's total exactly 1.5× GraphSage's — the paper's
    // "at most 50% more communication".
    let total = |stats: &[CommStats]| -> u64 {
        stats
            .iter()
            .map(|s| {
                phase_recv(s, Phase::ForwardFetch)
                    + phase_recv(s, Phase::BackwardRefetch)
                    + phase_recv(s, Phase::GradRouting)
            })
            .sum()
    };
    let sage = total(&run_sage());
    let gat = total(&run_gat());
    assert!(sage > 0);
    assert_eq!(2 * gat, 3 * sage, "gat volume must be exactly 1.5x sage");
}

#[test]
fn ledger_attributes_traffic_to_the_recorded_layer() {
    for (rank, s) in run_gat().iter().enumerate() {
        let fetch = s.ledger.get(Phase::ForwardFetch, Some(LAYER));
        let refetch = s.ledger.get(Phase::BackwardRefetch, Some(LAYER));
        // Everything ran under layer_scope(LAYER) — forward directly, the
        // backward via the layer captured by the aggregation Function —
        // so the layered cells must hold the full phase totals.
        assert_eq!(
            fetch.recv_bytes,
            phase_recv(s, Phase::ForwardFetch),
            "rank {rank}: forward fetch not attributed to layer {LAYER}"
        );
        assert_eq!(
            refetch.recv_bytes,
            phase_recv(s, Phase::BackwardRefetch),
            "rank {rank}: backward refetch not attributed to layer {LAYER}"
        );
        assert!(
            fetch.comm_us > 0.0,
            "rank {rank}: fetch must be charged simulated time"
        );
    }
}

#[test]
fn prefetch_depth_k_fetch_peak_is_exactly_k_plus_two_blocks() {
    // §3.4, generalized: at pipeline depth k the rotation loop holds the
    // local data tensor, the block being consumed, and k staged blocks —
    // the (k+2)/N residency bound. Depth 0 is the paper's 2/N sequential
    // path, depth 1 its 3/N prefetch. On a complete graph with equal
    // partitions every block is exactly the same size, so the ledger's
    // phase memory peaks hit the bounds *exactly*, not just within them.
    let run = |depth: usize| -> Vec<u64> {
        let graphs = Arc::new(dist_graphs());
        let out = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
            let rank = ctx.rank();
            let graph = Arc::clone(&graphs[rank]);
            let w = Worker::from_shared(Rc::new(ctx), graph, depth);
            let z = Tensor::full(&[w.graph.num_local(), COLS], 1.0);
            w.fetch_rounds(&*w.graph, &z, |_q, _block| {});
        });
        out.into_iter()
            .map(|o| {
                o.comm
                    .ledger
                    .phase_total(Phase::ForwardFetch)
                    .peak_tensor_bytes
            })
            .collect()
    };
    let block = (PER_PART * COLS * std::mem::size_of::<f32>()) as u64;
    for depth in [0usize, 1, 2] {
        for (rank, peak) in run(depth).into_iter().enumerate() {
            assert_eq!(
                peak,
                (depth as u64 + 2) * block,
                "rank {rank}: depth-{depth} fetch peak != {} blocks",
                depth + 2
            );
        }
    }
    // The legacy constructor is the depth-1 pipeline: same 3/N peak.
    let graphs = Arc::new(dist_graphs());
    let out = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::from_shared(Rc::new(ctx), Arc::clone(&graphs[rank]), 1);
        assert_eq!(w.prefetch_depth, 1);
        let z = Tensor::full(&[w.graph.num_local(), COLS], 1.0);
        w.fetch_rounds(&*w.graph, &z, |_q, _block| {});
    });
    for (rank, o) in out.into_iter().enumerate() {
        let peak = o
            .comm
            .ledger
            .phase_total(Phase::ForwardFetch)
            .peak_tensor_bytes;
        assert_eq!(peak, 3 * block, "rank {rank}: with_prefetch peak != 3/N");
    }
}

#[test]
fn a_sage_layer_frees_its_input_before_its_rotation() {
    // Layer 0 takes the rebuildable input by value and drops it once its
    // two projections exist, so the input is gone before the first block
    // is staged. The input (100 columns) dwarfs everything the rotation
    // holds at hidden width 4, so the fetch peak over the live bytes
    // before the input was built must stay below the input's own size.
    let d = datasets::products_like(400, 3);
    let part = range(&d.graph, 2);
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&d.graph, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let shards = Arc::new(Shard::build_all(&d, &part));
    let cfg = ModelConfig {
        arch: Arch::GraphSage { hidden: 4 },
        mode: Mode::Sar,
        layers: 2,
        in_dim: d.feat_dim(),
        num_classes: d.num_classes,
        dropout: 0.0,
        batch_norm: true,
        jumping_knowledge: false,
        seed: 0,
    };
    let out = Cluster::new(2, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let model = DistModel::new(&cfg);
        let base = MemoryTracker::stats().current_bytes as u64;
        let x = shards[rank].input(None);
        let input = 4 * x.value().numel() as u64;
        let logits = model.forward(&w, x, true, &mut StdRng::seed_from_u64(0));
        drop(logits);
        (base, input)
    });
    for (rank, o) in out.into_iter().enumerate() {
        let (base, input) = o.result;
        let peak = o
            .comm
            .ledger
            .get(Phase::ForwardFetch, Some(0))
            .peak_tensor_bytes;
        assert!(peak > base, "rank {rank}: layer 0 fetched nothing");
        assert!(
            peak - base < input,
            "rank {rank}: layer 0's fetch peaked {} B over the live set, the input is {input} B",
            peak - base
        );
    }
}
