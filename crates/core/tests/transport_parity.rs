//! Loopback transport parity: the same SPMD training program, run once
//! over the in-process channel backend and once over real TCP sockets on
//! localhost, must produce **bitwise-identical losses** and **identical
//! per-phase byte ledgers** (time fields excluded — one clock is
//! simulated, the other measured). This is the strongest cheap check that
//! the wire format, the rendezvous, and the per-peer FIFO guarantees of
//! the TCP backend do not perturb the algorithm. Each architecture runs
//! under the exact protocol and both approximate ones, whose cached and
//! skipped exchanges must be skipped identically on both backends.

use std::rc::Rc;
use std::sync::Arc;

use sar_comm::tcp::run_tcp_threads;
use sar_comm::{Cluster, CommStats, CostModel, Phase, TcpOpts, Transport, WorkerCtx};
use sar_core::{
    run_worker, Arch, DistGraph, Mode, ModelConfig, Protocol, Shard, TrainConfig, WorkerReport,
};
use sar_graph::{datasets, Dataset};
use sar_nn::LrSchedule;
use sar_partition::{multilevel, Partitioning};

const WORLD: usize = 4;

/// The exchange protocols every parity test runs, exact first.
const PROTOCOLS: [&str; 3] = ["exact", "stale:2", "gradonly"];

/// How far an approximate protocol's validation accuracy may fall below
/// the exact run's. The validation split here is 5 nodes, so the floor
/// allows one node fewer right and only guards against collapse.
/// Accuracies are `f32` ratios, so they are compared in `f32`.
const ACC_FLOOR: f32 = 0.20;

fn dataset() -> Dataset {
    datasets::products_like(300, 0)
}

fn config(arch: Arch, mode: Mode, protocol: &str, d: &Dataset) -> TrainConfig {
    TrainConfig {
        model: ModelConfig {
            arch,
            mode,
            layers: 2,
            in_dim: 0, // set by the trainer
            num_classes: d.num_classes,
            dropout: 0.0,
            batch_norm: true,
            seed: 7,
        },
        epochs: 2,
        lr: 0.01,
        schedule: LrSchedule::Constant,
        label_aug: true,
        aug_frac: 0.5,
        cs: None,
        prefetch_depth: 0,
        seed: 7,
        threads: 1,
        protocol: Protocol::parse(protocol).unwrap(),
    }
}

struct Fixture {
    graphs: Arc<Vec<Arc<DistGraph>>>,
    shards: Arc<Vec<Shard>>,
    cfg: Arc<TrainConfig>,
}

fn fixture(d: &Dataset, part: &Partitioning, cfg: TrainConfig) -> Fixture {
    Fixture {
        graphs: Arc::new(
            DistGraph::build_all(&d.graph, part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        ),
        shards: Arc::new(Shard::build_all(d, part)),
        cfg: Arc::new(cfg),
    }
}

fn run_sim(fx: &Fixture) -> Vec<(WorkerReport, CommStats)> {
    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let cfg = Arc::clone(&fx.cfg);
    Cluster::new(WORLD, CostModel::default())
        .run(move |ctx| {
            let rank = ctx.rank();
            let ctx = Rc::new(ctx);
            let report = run_worker(
                Rc::clone(&ctx),
                Arc::clone(&graphs[rank]),
                &shards[rank],
                &cfg,
            );
            let stats = ctx.stats();
            (report, stats)
        })
        .into_iter()
        .map(|o| o.result)
        .collect()
}

fn run_tcp(fx: &Fixture) -> Vec<(WorkerReport, CommStats)> {
    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let cfg = Arc::clone(&fx.cfg);
    run_tcp_threads(WORLD, TcpOpts::default(), move |transport| {
        let rank = transport.rank();
        let ctx = Rc::new(WorkerCtx::new(
            Box::new(transport),
            CostModel::default(),
            std::time::Duration::from_secs(120),
        ));
        let report = run_worker(
            Rc::clone(&ctx),
            Arc::clone(&graphs[rank]),
            &shards[rank],
            &cfg,
        );
        let stats = ctx.stats();
        (report, stats)
    })
}

/// The byte-and-message shape of a ledger, with time and memory fields
/// stripped (simulated vs wall clocks differ by construction; memory
/// peaks are measured per thread, not part of the wire contract).
fn byte_ledger(stats: &CommStats) -> Vec<(Phase, Option<u16>, u64, u64, u64, u64)> {
    stats
        .ledger
        .rows()
        .map(|(p, l, e)| {
            (
                p,
                l,
                e.sent_bytes,
                e.recv_bytes,
                e.sent_messages,
                e.recv_messages,
            )
        })
        .collect()
}

fn assert_parity(
    arch_name: &str,
    sim: &[(WorkerReport, CommStats)],
    tcp: &[(WorkerReport, CommStats)],
) {
    assert_eq!(sim.len(), tcp.len());
    for (rank, ((sim_rep, sim_stats), (tcp_rep, tcp_stats))) in
        sim.iter().zip(tcp.iter()).enumerate()
    {
        // Bitwise-identical losses, epoch by epoch.
        assert_eq!(sim_rep.epochs.len(), tcp_rep.epochs.len());
        for (e, (a, b)) in sim_rep.epochs.iter().zip(&tcp_rep.epochs).enumerate() {
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "{arch_name} rank {rank} epoch {e}: sim loss {} != tcp loss {}",
                a.loss,
                b.loss
            );
        }
        assert_eq!(
            sim_rep.val_acc.to_bits(),
            tcp_rep.val_acc.to_bits(),
            "{arch_name} rank {rank}: val accuracy diverged"
        );
        assert_eq!(
            sim_rep.test_acc.to_bits(),
            tcp_rep.test_acc.to_bits(),
            "{arch_name} rank {rank}: test accuracy diverged"
        );

        // Identical byte ledgers: same (phase, layer) cells, same bytes,
        // same message counts — both backends count wire_len.
        assert_eq!(
            byte_ledger(sim_stats),
            byte_ledger(tcp_stats),
            "{arch_name} rank {rank}: per-phase byte ledger diverged"
        );
        assert_eq!(
            sim_stats.sent_bytes, tcp_stats.sent_bytes,
            "{arch_name} rank {rank}: per-peer sent bytes diverged"
        );
        assert_eq!(sim_stats.recv_bytes, tcp_stats.recv_bytes);
        assert_eq!(sim_stats.sent_messages, tcp_stats.sent_messages);
    }
}

/// Trains `arch` under every protocol in [`PROTOCOLS`] on both backends,
/// asserts parity for each and the accuracy floor against exact, and
/// returns the TCP runs in that order.
fn parity_under_every_protocol(
    name: &str,
    arch: Arch,
    mode: Mode,
) -> Vec<Vec<(WorkerReport, CommStats)>> {
    let d = dataset();
    let part = multilevel(&d.graph, WORLD, 0);
    let runs: Vec<_> = PROTOCOLS
        .iter()
        .map(|protocol| {
            let fx = fixture(&d, &part, config(arch, mode, protocol, &d));
            let sim = run_sim(&fx);
            let tcp = run_tcp(&fx);
            assert_parity(&format!("{name} {protocol}"), &sim, &tcp);
            tcp
        })
        .collect();
    let val_acc = |run: &[(WorkerReport, CommStats)]| run[0].0.val_acc as f32;
    for (protocol, run) in PROTOCOLS.iter().zip(&runs) {
        assert!(
            val_acc(run) >= val_acc(&runs[0]) - ACC_FLOOR,
            "{name} {protocol}: val accuracy {} fell more than {ACC_FLOOR} below exact {}",
            val_acc(run),
            val_acc(&runs[0])
        );
    }
    runs
}

#[test]
fn graphsage_trains_identically_on_both_backends() {
    let runs = parity_under_every_protocol("sage", Arch::GraphSage { hidden: 16 }, Mode::Sar);
    // Case 1 survives the wire: zero refetch traffic on both backends.
    for (_, stats) in runs.iter().flatten() {
        let refetch = stats.ledger.phase_total(Phase::BackwardRefetch);
        assert_eq!(refetch.recv_bytes, 0, "sage refetched over TCP");
    }
}

#[test]
fn gat_trains_identically_on_both_backends() {
    let gat = Arch::Gat {
        head_dim: 8,
        heads: 2,
    };
    let runs = parity_under_every_protocol("gat", gat, Mode::SarFused);
    // Case 2 survives the wire: the exact backward passes refetch features
    // over TCP too (forward-fetch volume is larger here only because the
    // final evaluation runs extra forward passes with no backward).
    for (rank, (_, stats)) in runs[0].iter().enumerate() {
        let fetch = stats.ledger.phase_total(Phase::ForwardFetch).recv_bytes;
        let refetch = stats.ledger.phase_total(Phase::BackwardRefetch).recv_bytes;
        assert!(refetch > 0, "rank {rank}: gat must refetch over TCP");
        assert!(refetch < fetch, "rank {rank}: eval-only fetches missing");
    }
}
