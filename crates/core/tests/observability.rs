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
//!
//! All tests run on a complete graph split into equal range partitions,
//! so every fetch/serve set is one full partition and the expected
//! volumes are exact.

use std::rc::Rc;
use std::sync::Arc;

use sar_comm::{Cluster, CommStats, CostModel, Phase};
use sar_core::{gat_aggregate, sage_aggregate, DistGraph, FakMode, Worker};
use sar_graph::CsrGraph;
use sar_partition::range;
use sar_tensor::{Tensor, Var};

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
        // The attention-parameter all-reduce is collective traffic, kept
        // out of the refetch/routing cells.
        assert!(
            phase_recv(s, Phase::Collective) > 0,
            "rank {rank}: a_src all-reduce must ledger as collective"
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

/// All ledger phases, for whole-run disk-tier totals.
const ALL_PHASES: [Phase; 5] = [
    Phase::ForwardFetch,
    Phase::BackwardRefetch,
    Phase::GradRouting,
    Phase::Collective,
    Phase::Other,
];

/// Sums `(spill_bytes, fault_bytes)` across every ledger phase.
fn tier_totals(s: &CommStats) -> (u64, u64) {
    ALL_PHASES.iter().fold((0, 0), |(sp, ft), &p| {
        let e = s.ledger.phase_total(p);
        (sp + e.spill_bytes, ft + e.fault_bytes)
    })
}

/// One GAT forward + backward at pipeline depth `depth` with the disk
/// tier at `budget` bytes (0 = disabled), returning each worker's stats
/// plus the bitwise image of its feature gradient.
fn run_gat_budget(depth: usize, budget: u64) -> Vec<(CommStats, Vec<u32>)> {
    let graphs = Arc::new(dist_graphs());
    let out = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::from_shared(Rc::new(ctx), Arc::clone(&graphs[rank]), depth);
        if budget > 0 {
            w.set_mem_budget(budget);
        }
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
        z.grad()
            .expect("z accumulates a gradient")
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u32>>()
    });
    out.into_iter().map(|o| (o.comm, o.result)).collect()
}

#[test]
fn tight_mem_budget_spills_remat_inputs_and_keeps_watermarks_and_bits() {
    // Out-of-core tiering, measured at the ledger: under a tight
    // `--mem-budget` the GAT rematerialization inputs (softmax max +
    // denominator, `[n_local, HEADS]` each) spill to the disk tier after
    // the forward pass and fault back inside the BackwardRefetch scope.
    // At every pipeline depth k ∈ {0, 1, 2} the spill must be invisible
    // everywhere except the disk columns: gradients bitwise identical,
    // forward and backward phase watermarks unchanged, and exactly one
    // max+den pair spilled and faulted per aggregation call.
    let remat_bytes = 2 * (PER_PART * HEADS * std::mem::size_of::<f32>()) as u64;
    for depth in [0usize, 1, 2] {
        let ram = run_gat_budget(depth, 0);
        // A 1-byte budget evicts every block immediately: the tightest
        // possible tier, every remat input round-trips through disk.
        let tiered = run_gat_budget(depth, 1);
        for (rank, ((rs, rg), (ts, tg))) in ram.iter().zip(&tiered).enumerate() {
            assert_eq!(
                rg, tg,
                "rank {rank} depth {depth}: gradients diverged under the tier"
            );
            assert_eq!(
                tier_totals(rs),
                (0, 0),
                "rank {rank} depth {depth}: budget-off run touched the disk tier"
            );
            assert_eq!(
                tier_totals(ts),
                (remat_bytes, remat_bytes),
                "rank {rank} depth {depth}: expected exactly one spilled \
                 and faulted max+den pair"
            );
            // Faults happen where the backward consumes the inputs, so
            // the refetch row of the ledger carries the full volume.
            assert_eq!(
                ts.ledger.phase_total(Phase::BackwardRefetch).fault_bytes,
                remat_bytes,
                "rank {rank} depth {depth}: faults not ledgered to BackwardRefetch"
            );
            // Watermarks: the spill happens outside the ForwardFetch
            // scope and the faulted pair is smaller than the staged
            // blocks it precedes, so both phase peaks are *identical* to
            // the untiered run — tiering trades RAM for disk without
            // moving the fetch-loop (k+2)-block bound.
            for phase in [Phase::ForwardFetch, Phase::BackwardRefetch] {
                assert_eq!(
                    ts.ledger.phase_total(phase).peak_tensor_bytes,
                    rs.ledger.phase_total(phase).peak_tensor_bytes,
                    "rank {rank} depth {depth}: {phase:?} watermark moved under the tier"
                );
            }
        }
    }
}
