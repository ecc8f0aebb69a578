//! The buffer pool's one discipline — it keeps only what it lent — checked
//! on the process-wide counters, which is why this is a test binary of its
//! own with a single test: nothing else may touch the pool meanwhile.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::buffer::{pool_stats, recycle_f32, take_f32, PoolStats};
use sar_comm::tcp::run_tcp_threads;
use sar_comm::{CostModel, TcpOpts, Transport, WorkerCtx};
use sar_core::{DistGraph, Worker};
use sar_graph::generators::erdos_renyi;
use sar_tensor::Tensor;

/// Counter movement since `since`: (hits, misses, recycles, drops).
fn moved(since: PoolStats) -> (u64, u64, u64, u64) {
    let now = pool_stats();
    (
        now.hits - since.hits,
        now.misses - since.misses,
        now.recycles - since.recycles,
        now.recycle_drops - since.recycle_drops,
    )
}

/// What a taker does with a miss: allocate, fill, hand on.
fn filled(len: usize) -> Vec<f32> {
    let mut v = take_f32(len).unwrap_or_else(|| Vec::with_capacity(len));
    v.resize(len, 1.0);
    v
}

fn takes_and_returns_mean_what_the_counters_say() {
    let start = pool_stats();
    // An empty pool misses; the returned buffer is retained.
    recycle_f32(filled(1000));
    assert_eq!(moved(start), (0, 1, 1, 0));
    // A take the pooled vector cannot hold is a miss, not a hit that
    // reallocates — and the small vector stays pooled for a taker it fits.
    assert!(take_f32(2000).is_none());
    assert_eq!(moved(start), (0, 2, 1, 0));
    let small = take_f32(600).expect("the 1000-element buffer fits 600");
    assert!(small.is_empty() && small.capacity() >= 1000);
    assert_eq!(moved(start), (1, 2, 1, 0));
    // A vector nobody took (here: of a length nobody asked for) is not
    // retained, and neither is a second return against one take.
    recycle_f32(vec![0.0; 777]);
    recycle_f32(vec![0.0; 2000]);
    recycle_f32(vec![0.0; 2000]);
    assert_eq!(moved(start), (1, 2, 2, 0));
    assert!(
        take_f32(2000).is_some() && take_f32(700).is_none(),
        "the pool should hold exactly the one 2000-element buffer"
    );
}

/// One forward rotation and one gradient routing over `w`'s shard, then
/// two barriers: once the second has formed, every frame either rank
/// queued before the first is on the wire and its buffer has been offered
/// back by the writer thread, so nothing of this round is still lent when
/// the next begins.
fn round(w: &Worker, cols: usize) {
    let view = w.view();
    let data = Tensor::full(&[view.num_inputs(), cols], 0.5);
    w.fetch_rounds(&*view, &data, |_, _| {});
    let grad = w.exchange_grads(&*view, cols, |q| {
        Tensor::full(&[view.expected_rows(q), cols], 0.25)
    });
    assert_eq!(grad.rows(), view.num_inputs());
    w.ctx.barrier();
    w.ctx.barrier();
}

fn a_warm_rotation_neither_misses_nor_drops() {
    const COLS: usize = 16;
    const ROUNDS: u64 = 5;
    let g = erdos_renyi(200, 150, &mut StdRng::seed_from_u64(5)).symmetrize();
    let part = sar_partition::random(&g, 2, 5);
    let graphs: Vec<Arc<DistGraph>> = DistGraph::build_all(&g, &part)
        .into_iter()
        .map(Arc::new)
        .collect();
    let (to_1, to_0) = (graphs[0].serves_to(1).len(), graphs[1].serves_to(0).len());
    assert!(
        to_1 > 0 && to_0 > 0 && to_1 != to_0,
        "fixture must route blocks of two different sizes ({to_1}, {to_0})"
    );

    // Warm-up, forced rather than left to thread timing: both ranks share
    // this process's pool, and within a round a block size can be
    // outstanding three times at once — the serving rank's gather buffer
    // until its writer thread gets round to returning it, the fetching
    // rank's receive buffer, and the serving rank's receive buffer for the
    // gradient of those same rows.
    let lent: Vec<_> = [to_1 * COLS, to_0 * COLS]
        .into_iter()
        .flat_map(|len| (0..3).map(move |_| filled(len)))
        .collect();
    lent.into_iter().for_each(recycle_f32);
    let warm = pool_stats();
    run_tcp_threads(2, TcpOpts::default(), move |t| {
        let graph = Arc::clone(&graphs[t.rank()]);
        let ctx = WorkerCtx::new(Box::new(t), CostModel::default(), Duration::from_secs(30));
        let w = Worker::new(ctx, graph);
        for _ in 0..ROUNDS {
            round(&w, COLS);
        }
    });
    // Per rank and round: the serve side takes one gather buffer, the
    // reader one buffer for the fetched block and one for the routed
    // gradient, and each comes back once. The gradient blocks the kernels
    // allocated pass through the writer threads too, and must not pile up.
    let takes = 2 * 3 * ROUNDS;
    assert_eq!(moved(warm), (takes, 0, takes, 0));
}

#[test]
fn the_pool_keeps_only_what_it_lent() {
    takes_and_returns_mean_what_the_counters_say();
    a_warm_rotation_neither_misses_nor_drops();
}
