//! Integration tests for the serving tier.
//!
//! The load-bearing property is **bitwise parity**: logits served through
//! the MFG-restricted path must equal the corresponding rows of the
//! full-graph [`infer`] baseline exactly (`to_bits`), across
//! architectures, thread counts, SIMD modes, and both transport
//! backends (the sage and gat in-process cases live in the root package's
//! `tests/serve_parity.rs`, where the Tier-1 command reaches them). On
//! top of that: the per-batch fetch ledger must stay
//! strictly below a full-graph forward's predicted volume, the embedding
//! cache must cut traffic without touching bits, and the TCP front-end
//! must answer real clients end to end.

use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sar_comm::tcp::run_tcp_threads;
use sar_comm::{
    ChannelTransport, Clock, Cluster, CostModel, Message, Payload, TcpOpts, Transport,
    TransportError, WorkerCtx,
};
use sar_core::{infer, Arch, DistGraph, DistModel, Mode, ModelConfig, Shard};
use sar_graph::{datasets, Dataset};
use sar_partition::{multilevel, Partitioning};
use sar_serve::{
    serve, worker_loop, BatchStats, EngineSetup, ServeClient, ServeEngine, ServeError, ServerConfig,
};
use sar_tensor::{pool, Tensor};

const WORLD: usize = 4;

fn dataset() -> Dataset {
    datasets::products_like(300, 0)
}

fn model_cfg(arch: Arch, mode: Mode, d: &Dataset) -> ModelConfig {
    ModelConfig {
        arch,
        mode,
        layers: 2,
        in_dim: 0, // resolved from the shard
        num_classes: d.num_classes,
        dropout: 0.0,
        batch_norm: false,
        jumping_knowledge: false,
        seed: 11,
    }
}

fn raw_params(cfg: &ModelConfig, d: &Dataset, label_aug: bool) -> Vec<(Vec<usize>, Vec<f32>)> {
    let mut resolved = cfg.clone();
    resolved.in_dim = d.feat_dim() + if label_aug { d.num_classes } else { 0 };
    DistModel::new(&resolved)
        .params()
        .iter()
        .map(|p| (p.shape(), p.value().data().to_vec()))
        .collect()
}

struct Fixture {
    d: Dataset,
    part: Partitioning,
    graphs: Arc<Vec<Arc<DistGraph>>>,
    shards: Arc<Vec<Shard>>,
    cfg: ModelConfig,
    params: Vec<(Vec<usize>, Vec<f32>)>,
    label_aug: bool,
}

fn fixture(arch: Arch, mode: Mode, label_aug: bool) -> Fixture {
    let d = dataset();
    let part = multilevel(&d.graph, WORLD, 0);
    let cfg = model_cfg(arch, mode, &d);
    let params = raw_params(&cfg, &d, label_aug);
    Fixture {
        graphs: Arc::new(
            DistGraph::build_all(&d.graph, &part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        ),
        shards: Arc::new(Shard::build_all(&d, &part)),
        d,
        part,
        cfg,
        params,
        label_aug,
    }
}

fn setup(fx: &Fixture) -> EngineSetup {
    EngineSetup {
        model_cfg: fx.cfg.clone(),
        label_aug: fx.label_aug,
        cache_rows: 4096,
        checkpoint: None,
    }
}

fn full_logits(fx: &Fixture) -> Tensor {
    infer(
        &fx.d,
        &fx.part,
        CostModel::default(),
        &fx.cfg,
        &fx.params,
        fx.label_aug,
    )
}

/// Serves one query batch over the in-process channel backend and
/// returns rank 0's logits + stats.
fn serve_once_sim(fx: &Fixture, queries: &[u32], threads: usize) -> (Tensor, BatchStats) {
    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let st = setup(fx);
    let params = fx.params.clone();
    let queries = queries.to_vec();
    let n = fx.d.num_nodes();
    let c = fx.d.num_classes;
    let out = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        pool::set_threads(threads);
        let rank = ctx.rank();
        let mut engine = ServeEngine::new(
            ctx,
            Arc::clone(&graphs[rank]),
            &shards[rank],
            n,
            &st,
            &params,
        )
        .expect("engine builds");
        if rank == 0 {
            let (logits, stats) = engine.execute_query(&queries).expect("query runs");
            engine.shutdown().expect("shutdown");
            Some((logits.data().to_vec(), stats))
        } else {
            worker_loop(&mut engine).expect("worker loop");
            None
        }
    });
    let (data, stats) = out
        .into_iter()
        .map(|o| o.result)
        .find(Option::is_some)
        .flatten()
        .expect("rank 0 result");
    (Tensor::from_vec(&[data.len() / c, c], data), stats)
}

/// Same batch over real TCP sockets.
fn serve_once_tcp(fx: &Fixture, queries: &[u32]) -> (Tensor, BatchStats) {
    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let st = setup(fx);
    let params = fx.params.clone();
    let queries = queries.to_vec();
    let n = fx.d.num_nodes();
    let c = fx.d.num_classes;
    let out = run_tcp_threads(WORLD, TcpOpts::default(), move |transport| {
        let rank = transport.rank();
        let ctx = WorkerCtx::new(
            Box::new(transport),
            CostModel::default(),
            Duration::from_secs(120),
        );
        let mut engine = ServeEngine::new(
            ctx,
            Arc::clone(&graphs[rank]),
            &shards[rank],
            n,
            &st,
            &params,
        )
        .expect("engine builds");
        if rank == 0 {
            let (logits, stats) = engine.execute_query(&queries).expect("query runs");
            engine.shutdown().expect("shutdown");
            Some((logits.data().to_vec(), stats))
        } else {
            worker_loop(&mut engine).expect("worker loop");
            None
        }
    });
    let (data, stats) = out
        .into_iter()
        .find(Option::is_some)
        .flatten()
        .expect("rank 0");
    (Tensor::from_vec(&[data.len() / c, c], data), stats)
}

fn assert_rows_bitwise(label: &str, served: &Tensor, full: &Tensor, queries: &[u32]) {
    assert_eq!(served.rows(), queries.len(), "{label}: row count");
    for (i, &gid) in queries.iter().enumerate() {
        let got = served.row(i);
        let want = full.row(gid as usize);
        for (j, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: query {i} (node {gid}) col {j}: served {a} != full {b}"
            );
        }
    }
}

/// Duplicates and unsorted order on purpose: the response must be in
/// request order, dedup is an internal matter.
const QUERIES: &[u32] = &[7, 123, 3, 255, 3, 64, 7, 0, 299];

#[test]
fn gcn_mfg_logits_match_full_inference_bitwise() {
    let fx = fixture(Arch::Gcn { hidden: 12 }, Mode::Sar, false);
    let full = full_logits(&fx);
    let (served, stats) = serve_once_sim(&fx, QUERIES, 1);
    assert_rows_bitwise("gcn", &served, &full, QUERIES);
    assert!(stats.fetch_bytes < stats.full_forward_bytes);
}

#[test]
fn tcp_transport_serves_identical_bits() {
    let fx = fixture(Arch::GraphSage { hidden: 16 }, Mode::Sar, true);
    let full = full_logits(&fx);
    let (served, stats) = serve_once_tcp(&fx, QUERIES);
    assert_rows_bitwise("sage/tcp", &served, &full, QUERIES);
    assert!(stats.fetch_bytes < stats.full_forward_bytes);
    // And the same bits as the channel backend end to end.
    let (sim, _) = serve_once_sim(&fx, QUERIES, 1);
    for (a, b) in sim.data().iter().zip(served.data()) {
        assert_eq!(a.to_bits(), b.to_bits(), "sim and tcp serving diverged");
    }
}

#[test]
fn cache_cuts_fetch_traffic_without_changing_bits() {
    let fx = fixture(Arch::GraphSage { hidden: 16 }, Mode::Sar, false);
    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let st = setup(&fx);
    let params = fx.params.clone();
    let n = fx.d.num_nodes();
    let feat_dim = fx.d.feat_dim();
    let out = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let mut engine = ServeEngine::new(
            ctx,
            Arc::clone(&graphs[rank]),
            &shards[rank],
            n,
            &st,
            &params,
        )
        .expect("engine builds");
        if rank == 0 {
            let (first, s1) = engine.execute_query(QUERIES).expect("first");
            let (second, s2) = engine.execute_query(QUERIES).expect("second");
            // Identical bits: cached rows are the exact values the
            // forward pass produced.
            for (a, b) in first.data().iter().zip(second.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cache changed served bits");
            }
            // Strictly less traffic: the cached level drops out of the
            // second batch's MFG.
            assert!(
                s2.fetch_bytes < s1.fetch_bytes,
                "cache did not cut traffic: {} -> {}",
                s1.fetch_bytes,
                s2.fetch_bytes
            );
            let snap = engine.snapshot();
            assert!(snap.cache_hits > 0, "no cache hits recorded");

            // A feature update invalidates every rank's cache: the next
            // identical batch pays full price again and sees new bits
            // for queries whose MFG contains the updated node.
            engine
                .update_feature(QUERIES[0], &vec![9.0; feat_dim])
                .expect("update");
            let (third, s3) = engine.execute_query(QUERIES).expect("third");
            assert!(
                s3.fetch_bytes > s2.fetch_bytes,
                "invalidation did not restore fetch traffic"
            );
            let changed = first
                .data()
                .iter()
                .zip(third.data())
                .any(|(a, b)| a.to_bits() != b.to_bits());
            assert!(changed, "feature update did not reach served logits");
            assert!(engine.snapshot().cache_invalidations > 0);
            engine.shutdown().expect("shutdown");
        } else {
            worker_loop(&mut engine).expect("worker loop");
        }
    });
    drop(out);
}

#[test]
fn bad_queries_are_typed_errors_and_do_not_poison_the_cluster() {
    let fx = fixture(Arch::Gcn { hidden: 8 }, Mode::Sar, false);
    let full = full_logits(&fx);
    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let st = setup(&fx);
    let params = fx.params.clone();
    let n = fx.d.num_nodes();
    Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let mut engine = ServeEngine::new(
            ctx,
            Arc::clone(&graphs[rank]),
            &shards[rank],
            n,
            &st,
            &params,
        )
        .expect("engine builds");
        if rank == 0 {
            // Out-of-range id: rejected before any broadcast, so the
            // workers never see a broken batch.
            match engine.execute_query(&[n as u32]) {
                Err(ServeError::QueryOutOfRange { id, nodes }) => {
                    assert_eq!((id as usize, nodes), (n, n));
                }
                other => panic!("expected QueryOutOfRange, got {other:?}"),
            }
            // Reload without a configured checkpoint path: typed error.
            match engine.reload() {
                Err(ServeError::Unsupported(_)) => {}
                other => panic!("expected Unsupported, got {other:?}"),
            }
            // The cluster still serves correctly afterwards.
            let (logits, _) = engine.execute_query(&[5, 9]).expect("query after errors");
            for (i, &gid) in [5u32, 9].iter().enumerate() {
                for (a, b) in logits.row(i).iter().zip(full.row(gid as usize)) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            engine.shutdown().expect("shutdown");
        } else {
            worker_loop(&mut engine).expect("worker loop");
        }
    });
}

/// A worker rank that died is a typed error on the rank-0 front-end —
/// naming the dead peer — from the first control-plane send of the next
/// batch, never a panic that takes the front-end down with it.
#[test]
fn dead_peer_is_a_typed_error_from_a_query_batch() {
    let d = dataset();
    let part = multilevel(&d.graph, 2, 0);
    let cfg = model_cfg(Arch::Gcn { hidden: 8 }, Mode::Sar, &d);
    let params = raw_params(&cfg, &d, false);
    let graph = Arc::new(DistGraph::build_all(&d.graph, &part).swap_remove(0));
    let shard = Shard::build_all(&d, &part).swap_remove(0);
    let st = EngineSetup {
        model_cfg: cfg,
        label_aug: false,
        cache_rows: 0,
        checkpoint: None,
    };

    let mut mesh = ChannelTransport::mesh(2);
    drop(mesh.pop()); // rank 1's transport: the peer is gone
    let rank0 = mesh.pop().expect("mesh(2) yields two transports");
    let ctx = WorkerCtx::new(
        Box::new(rank0),
        CostModel::default(),
        Duration::from_secs(5),
    );
    let mut engine =
        ServeEngine::new(ctx, graph, &shard, d.num_nodes(), &st, &params).expect("engine builds");
    match engine.execute_query(&[3, 7]) {
        Err(ServeError::Comm(TransportError::Disconnected { peer })) => assert_eq!(peer, 1),
        other => panic!("expected Comm(Disconnected {{ peer: 1 }}), got {other:?}"),
    }
}

/// A channel transport whose peer dies while the barrier forms (the
/// channel backend's own barrier would wait for it forever).
struct PeerDiesAtBarrier {
    inner: ChannelTransport,
}

impl Transport for PeerDiesAtBarrier {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn clock(&self) -> Clock {
        self.inner.clock()
    }
    fn send(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        self.inner.send(dst, tag, payload)
    }
    fn recv_any(&self, timeout: Duration) -> Result<Message, TransportError> {
        self.inner.recv_any(timeout)
    }
    fn try_recv_any(&self) -> Result<Option<Message>, TransportError> {
        self.inner.try_recv_any()
    }
    fn barrier(&self) -> Result<(), TransportError> {
        Err(TransportError::Disconnected {
            peer: 1 - self.rank(),
        })
    }
}

/// The shutdown barrier is on the serving path like any other exchange: a
/// peer that dies between the Shutdown broadcast and the barrier is
/// `ServeError::Comm` naming it — from `shutdown()` on the front-end and
/// from `step()` on a worker — not a panic.
#[test]
fn dead_peer_at_the_shutdown_barrier_is_a_typed_error_on_both_sides() {
    let d = dataset();
    let part = multilevel(&d.graph, 2, 0);
    let cfg = model_cfg(Arch::Gcn { hidden: 8 }, Mode::Sar, &d);
    let params = raw_params(&cfg, &d, false);
    let st = EngineSetup {
        model_cfg: cfg,
        label_aug: false,
        cache_rows: 0,
        checkpoint: None,
    };
    let mut engines: Vec<ServeEngine> = ChannelTransport::mesh(2)
        .into_iter()
        .zip(DistGraph::build_all(&d.graph, &part))
        .zip(Shard::build_all(&d, &part))
        .map(|((inner, graph), shard)| {
            let ctx = WorkerCtx::new(
                Box::new(PeerDiesAtBarrier { inner }),
                CostModel::default(),
                Duration::from_secs(5),
            );
            ServeEngine::new(ctx, Arc::new(graph), &shard, d.num_nodes(), &st, &params)
                .expect("engine builds")
        })
        .collect();
    // Rank 0 broadcasts Shutdown (the channel delivers it), then finds
    // rank 1 gone at the barrier; rank 1 reads the broadcast and finds
    // rank 0 gone the same way.
    match engines[0].shutdown() {
        Err(ServeError::Comm(TransportError::Disconnected { peer })) => assert_eq!(peer, 1),
        other => panic!("expected Comm(Disconnected {{ peer: 1 }}), got {other:?}"),
    }
    match engines[1].step() {
        Err(ServeError::Comm(TransportError::Disconnected { peer })) => assert_eq!(peer, 0),
        other => panic!("expected Comm(Disconnected {{ peer: 0 }}), got {other:?}"),
    }
}

#[test]
fn tcp_front_end_serves_clients_end_to_end() {
    let fx = fixture(Arch::GraphSage { hidden: 16 }, Mode::Sar, true);
    let full = full_logits(&fx);
    let feat_dim = fx.d.feat_dim();

    // Persist the parameters so the reload path has a real file.
    let ckpt = std::env::temp_dir().join(format!(
        "sar-serve-e2e-{}-{:x}.ckpt",
        std::process::id(),
        &fx as *const _ as usize
    ));
    {
        let f = std::fs::File::create(&ckpt).expect("create checkpoint");
        sar_core::checkpoint::save_raw_params(&fx.params, std::io::BufWriter::new(f))
            .expect("save checkpoint");
    }

    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let mut st = setup(&fx);
    st.checkpoint = Some(ckpt.clone());
    let params = fx.params.clone();
    let n = fx.d.num_nodes();

    // The client learns the front-end's address through this channel.
    let (addr_tx, addr_rx) = mpsc::channel();
    let addr_tx = Arc::new(Mutex::new(Some(addr_tx)));

    let full_for_client = full.clone();
    let client = std::thread::spawn(move || {
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("server address");
        let mut c = ServeClient::connect(addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");

        // Plain query: bitwise parity through the whole stack.
        let logits = c.query(QUERIES).expect("query");
        assert_rows_bitwise("e2e", &logits, &full_for_client, QUERIES);

        // Bad ids are refused per request; the connection survives.
        match c.query(&[n as u32]) {
            Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains("out of range"), "unexpected message: {msg}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }

        // A second concurrent client exercises the coalescing path
        // (before any feature update, so the pristine baseline applies).
        let mut c2 = ServeClient::connect(addr).expect("second connect");
        let q2 = std::thread::spawn(move || c2.query(&[1, 2, 3]).expect("parallel query"));
        let a = c.query(&[10, 20]).expect("parallel query");
        let b = q2.join().expect("client thread");
        assert_rows_bitwise("e2e-par-a", &a, &full_for_client, &[10, 20]);
        assert_rows_bitwise("e2e-par-b", &b, &full_for_client, &[1, 2, 3]);

        // Feature update changes served bits; reloading the checkpoint
        // (same parameters, fresh cache) keeps the new features.
        c.update_feature(QUERIES[0], &vec![4.5; feat_dim])
            .expect("update");
        let after_update = c.query(QUERIES).expect("query after update");
        let changed = logits
            .data()
            .iter()
            .zip(after_update.data())
            .any(|(a, b)| a.to_bits() != b.to_bits());
        assert!(changed, "update did not change served logits");
        c.reload().expect("reload");
        let after_reload = c.query(QUERIES).expect("query after reload");
        for (a, b) in after_update.data().iter().zip(after_reload.data()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "reload changed non-parameter state"
            );
        }

        // Stats reflect the work done.
        let snap = c.stats().expect("stats");
        assert!(snap.batches >= 3, "batches: {}", snap.batches);
        assert_eq!(snap.world as usize, WORLD);
        assert!(snap.fetch_bytes > 0);
        assert!(snap.fetch_bytes < snap.full_forward_bytes * snap.batches);

        // Graceful shutdown: the ack arrives only after the drain.
        c.shutdown().expect("shutdown");
    });

    let summaries = run_tcp_threads(WORLD, TcpOpts::default(), move |transport| {
        let rank = transport.rank();
        let ctx = WorkerCtx::new(
            Box::new(transport),
            CostModel::default(),
            Duration::from_secs(120),
        );
        let mut engine = ServeEngine::new(
            ctx,
            Arc::clone(&graphs[rank]),
            &shards[rank],
            n,
            &st,
            &params,
        )
        .expect("engine builds");
        if rank == 0 {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            if let Some(tx) = addr_tx.lock().expect("addr lock").take() {
                tx.send(listener.local_addr().expect("addr"))
                    .expect("send addr");
            }
            let cfg = ServerConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(2),
                queue_cap: 64,
            };
            let summary = serve(&mut engine, listener, &cfg).expect("serve");
            assert!(summary.requests >= 8, "requests: {}", summary.requests);
            assert!(summary.connections >= 2);
            Some(summary.stats.batches)
        } else {
            worker_loop(&mut engine).expect("worker loop");
            None
        }
    });
    client.join().expect("client thread");
    let _ = std::fs::remove_file(&ckpt);
    assert!(summaries.into_iter().flatten().next().is_some());
}
