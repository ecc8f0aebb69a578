//! Arrival-order fuzzing for the overlapped fetch pipeline.
//!
//! The depth-k pipeline stages out-of-order arrivals and accumulates in a
//! fixed rank order, so the *delivery* order of messages must never leak
//! into the results. This test wraps each backend's transport in a
//! shuffling shim that stashes incoming messages and releases them in a
//! pseudo-random order — preserving only the per-`(src, tag)` FIFO
//! guarantee real backends give — and asserts that the run's
//! `parity_digest()` (bitwise losses + per-worker byte ledgers) is
//! identical to the unshuffled sequential baseline at pipeline depths
//! {0, 1, 3}, on both the channel and the TCP backend.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use sar_bench::report::{RankRecord, RunReport};
use sar_comm::tcp::run_tcp_threads;
use sar_comm::{
    ChannelTransport, CostModel, Message, Payload, TcpOpts, Transport, TransportError, WorkerCtx,
};
use sar_core::{run_worker, Arch, DistGraph, Mode, ModelConfig, Shard, TrainConfig, WorkerReport};
use sar_graph::{datasets, Dataset};
use sar_nn::LrSchedule;
use sar_partition::{multilevel, Partitioning};

const WORLD: usize = 4;
const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Transport shim that delivers messages in a pseudo-random order.
///
/// Every incoming message is stashed; each `recv_any` picks a random
/// stashed message and delivers the *earliest* stashed message of that
/// message's `(src, tag)` stream — per-stream FIFO is the one ordering
/// guarantee the [`Transport`] contract makes, and the only one the
/// pipeline may rely on. Everything else (cross-peer order, cross-tag
/// order, arrival timing) is scrambled.
struct ShufflingTransport {
    inner: Box<dyn Transport>,
    stash: RefCell<Vec<Message>>,
    rng: Cell<u64>,
}

impl ShufflingTransport {
    fn new(inner: Box<dyn Transport>, seed: u64) -> Self {
        ShufflingTransport {
            inner,
            stash: RefCell::new(Vec::new()),
            rng: Cell::new(seed | 1),
        }
    }

    fn next_rand(&self) -> u64 {
        let s = self
            .rng
            .get()
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng.set(s);
        s >> 33
    }

    /// Pulls everything the inner transport has ready into the stash.
    fn drain_inner(&self) -> Result<(), TransportError> {
        while let Some(m) = self.inner.try_recv_any()? {
            self.stash.borrow_mut().push(m);
        }
        Ok(())
    }

    /// Removes a random stashed message, rewound to the front of its
    /// `(src, tag)` stream.
    fn pop_shuffled(&self) -> Option<Message> {
        let mut stash = self.stash.borrow_mut();
        if stash.is_empty() {
            return None;
        }
        let pick = self.next_rand() as usize % stash.len();
        let key = (stash[pick].src, stash[pick].tag);
        let first = stash
            .iter()
            .position(|m| (m.src, m.tag) == key)
            .expect("picked message is in the stash");
        Some(stash.remove(first))
    }
}

impl Transport for ShufflingTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn clock(&self) -> sar_comm::Clock {
        self.inner.clock()
    }

    fn send(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        self.inner.send(dst, tag, payload)
    }

    fn recv_any(&self, timeout: Duration) -> Result<Message, TransportError> {
        self.drain_inner()?;
        if let Some(m) = self.pop_shuffled() {
            return Ok(m);
        }
        let m = self.inner.recv_any(timeout)?;
        self.stash.borrow_mut().push(m);
        self.drain_inner()?;
        Ok(self
            .pop_shuffled()
            .expect("stash holds at least one message"))
    }

    fn try_recv_any(&self) -> Result<Option<Message>, TransportError> {
        self.drain_inner()?;
        Ok(self.pop_shuffled())
    }

    fn barrier(&self) -> Result<(), TransportError> {
        // Barriers are out-of-band on both backends; nothing to shuffle.
        self.inner.barrier()
    }
}

fn dataset() -> Dataset {
    datasets::products_like(300, 0)
}

fn config(depth: usize, d: &Dataset) -> TrainConfig {
    TrainConfig {
        model: ModelConfig {
            arch: Arch::GraphSage { hidden: 16 },
            mode: Mode::Sar,
            layers: 2,
            in_dim: 0, // set by the trainer
            num_classes: d.num_classes,
            dropout: 0.0,
            batch_norm: true,
            jumping_knowledge: false,
            seed: 7,
        },
        epochs: 2,
        lr: 0.01,
        schedule: LrSchedule::Constant,
        label_aug: true,
        aug_frac: 0.5,
        cs: None,
        prefetch_depth: depth,
        seed: 7,
        threads: 1,
        protocol: Default::default(),
        codec: Default::default(),
    }
}

struct Fixture {
    graphs: Arc<Vec<Arc<DistGraph>>>,
    shards: Arc<Vec<Shard>>,
}

fn fixture(d: &Dataset, part: &Partitioning) -> Fixture {
    Fixture {
        graphs: Arc::new(
            DistGraph::build_all(&d.graph, part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        ),
        shards: Arc::new(Shard::build_all(d, part)),
    }
}

/// A rank-distinct seed: runs differ per rank and per depth so the
/// shuffles are not accidentally correlated across the mesh.
fn rank_seed(rank: usize, depth: usize) -> u64 {
    0x9E37_79B9_7F4A_7C15 ^ ((depth as u64) << 32) ^ (rank as u64 + 1)
}

/// One rank's record: the report plus the stats snapshot at the moment
/// training returned.
fn summarize(ctx: &WorkerCtx, report: WorkerReport) -> RankRecord {
    (report, ctx.stats())
}

fn digest(ranks: Vec<RankRecord>) -> String {
    let run = sar_core::RunReport::from_ranks(ranks);
    RunReport::from_train("fuzz", "sage", "sar", run).parity_digest()
}

/// Runs training over the in-process channel mesh, optionally wrapping
/// each rank's transport in the shuffling shim.
fn run_sim(fx: &Fixture, depth: usize, shuffle: bool) -> String {
    let cfg = Arc::new(config(depth, &dataset()));
    let handles: Vec<_> = ChannelTransport::mesh(WORLD)
        .into_iter()
        .enumerate()
        .map(|(rank, t)| {
            let graphs = Arc::clone(&fx.graphs);
            let shards = Arc::clone(&fx.shards);
            let cfg = Arc::clone(&cfg);
            std::thread::spawn(move || {
                let transport: Box<dyn Transport> = if shuffle {
                    Box::new(ShufflingTransport::new(Box::new(t), rank_seed(rank, depth)))
                } else {
                    Box::new(t)
                };
                let ctx = Rc::new(WorkerCtx::new(
                    transport,
                    CostModel::default(),
                    RECV_TIMEOUT,
                ));
                let report = run_worker(
                    Rc::clone(&ctx),
                    Arc::clone(&graphs[rank]),
                    &shards[rank],
                    &cfg,
                );
                summarize(&ctx, report)
            })
        })
        .collect();
    digest(
        handles
            .into_iter()
            .map(|h| h.join().expect("sim worker panicked"))
            .collect(),
    )
}

/// Runs the same program over loopback TCP with every rank's transport
/// shuffled.
fn run_tcp_shuffled(fx: &Fixture, depth: usize) -> String {
    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let cfg = Arc::new(config(depth, &dataset()));
    let summaries = run_tcp_threads(WORLD, TcpOpts::default(), move |transport| {
        let rank = transport.rank();
        let shim = ShufflingTransport::new(Box::new(transport), rank_seed(rank, depth));
        let ctx = Rc::new(WorkerCtx::new(
            Box::new(shim),
            CostModel::default(),
            RECV_TIMEOUT,
        ));
        let report = run_worker(
            Rc::clone(&ctx),
            Arc::clone(&graphs[rank]),
            &shards[rank],
            &cfg,
        );
        summarize(&ctx, report)
    });
    digest(summaries)
}

#[test]
fn shuffled_arrival_order_preserves_parity_digest_at_all_depths() {
    let d = dataset();
    let part = multilevel(&d.graph, WORLD, 0);
    let fx = fixture(&d, &part);

    // Unshuffled sequential run: the reference digest every combination
    // must reproduce bit for bit.
    let baseline = run_sim(&fx, 0, false);

    for depth in [0usize, 1, 3] {
        let sim = run_sim(&fx, depth, true);
        assert_eq!(
            sim, baseline,
            "sim backend diverged under shuffled delivery at depth {depth}"
        );
        let tcp = run_tcp_shuffled(&fx, depth);
        assert_eq!(
            tcp, baseline,
            "tcp backend diverged under shuffled delivery at depth {depth}"
        );
    }
}
