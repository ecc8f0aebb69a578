//! The rank driver: what one rank process of a launch does. It calls the
//! program's public entry points in the order `sar-worker` and `sar-serve`
//! do, with an `Instant` span around each, and writes what it measured to
//! `rank<r>.result` in the run directory.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sar_bench::launcher::{read_rendezvous_addr, write_rendezvous_addr};
use sar_bench::serverun::{load_or_init_params, serve_model_config};
use sar_comm::buffer::{pool_stats, PoolStats};
use sar_comm::{CommStats, CostModel, Phase, PhaseEntry, TcpOpts, TcpTransport, WorkerCtx};
use sar_core::{run_worker, DistGraph, Shard, TrainConfig};
use sar_graph::{datasets, Dataset};
use sar_partition::{partition, Method};
use sar_serve::{serve, worker_loop, EngineSetup, ServeEngine, ServerConfig};
use sar_tensor::MemoryTracker;

use crate::probes;
use crate::procfs::{self, ProcSnapshot};
use crate::result::RankResult;
use crate::spec::{
    Kind, Spec, CACHE_ROWS, GAT_HEADS, LEDGER_LAYERS, MAX_BATCH, MAX_DELAY_US, REP_EPOCHS,
    WARMUP_EPOCHS, WARMUP_REPS,
};
use crate::trace::{unix_us, Tracer};

/// How long a rank waits on a mesh message before declaring the launch
/// dead; well under the driver's own deadline.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);
/// How long ranks 1.. poll for rank 0's rendezvous address.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(60);
/// How often a rank checks that its driver is still alive.
const PARENT_POLL: Duration = Duration::from_millis(500);
/// Most measured reps a training launch runs, whatever `--seconds` says.
const MAX_REPS: usize = 32;

/// What a launch is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchMode {
    /// Set up, meet at a barrier, report set-up time, leave.
    Setup,
    /// Set up, then train reps / serve until told to shut down.
    Measure,
}

/// Everything the driver tells a rank process.
#[derive(Debug, Clone)]
pub struct RankArgs {
    /// The workload, in its one-rank form if `solo`.
    pub spec: Spec,
    /// Whether this is the one-rank oracle of a distributed workload.
    pub solo: bool,
    /// Workload seed.
    pub seed: u64,
    /// This process's rank.
    pub rank: usize,
    /// Directory for the rendezvous, client-address and result files.
    pub run_dir: PathBuf,
    /// The run's epoch on the Unix clock, microseconds.
    pub epoch_unix_us: u64,
    /// When the driver spawned this launch, Unix microseconds.
    pub spawn_unix_us: u64,
    /// Keep spans and run the probes.
    pub trace: bool,
    /// Set-up only, or the measured launch.
    pub mode: LaunchMode,
    /// Seconds of measured reps (training); 0 runs the warm-up rep only.
    pub seconds: f64,
    /// Process id of the driver that spawned this rank.
    pub driver_pid: u32,
}

impl RankArgs {
    /// Parses the flags [`RankArgs::to_args`] produces.
    pub fn parse(flags: &BTreeMap<String, String>) -> Result<RankArgs, String> {
        let get = |k: &str| {
            flags
                .get(k)
                .ok_or_else(|| format!("rank: missing --{k}"))
                .map(String::as_str)
        };
        let num = |k: &str| -> Result<u64, String> {
            get(k)?.parse().map_err(|_| format!("rank: bad --{k}"))
        };
        let spec = Spec::by_name(get("workload")?)
            .ok_or_else(|| format!("rank: unknown workload {}", get("workload").unwrap_or("")))?;
        let solo = num("solo")? != 0;
        Ok(RankArgs {
            spec: if solo { spec.solo() } else { spec },
            solo,
            seed: num("seed")?,
            rank: num("rank")? as usize,
            run_dir: PathBuf::from(get("run-dir")?),
            epoch_unix_us: num("epoch-us")?,
            spawn_unix_us: num("spawn-us")?,
            trace: num("trace")? != 0,
            mode: match get("mode")? {
                "setup" => LaunchMode::Setup,
                "measure" => LaunchMode::Measure,
                other => return Err(format!("rank: unknown --mode {other}")),
            },
            seconds: get("seconds")?
                .parse()
                .map_err(|_| "rank: bad --seconds".to_string())?,
            driver_pid: num("driver-pid")? as u32,
        })
    }

    /// The command-line form, for the driver's `Command`.
    pub fn to_args(&self) -> Vec<String> {
        let mode = match self.mode {
            LaunchMode::Setup => "setup",
            LaunchMode::Measure => "measure",
        };
        [
            ("--workload", self.spec.name.to_string()),
            ("--solo", u8::from(self.solo).to_string()),
            ("--seed", self.seed.to_string()),
            ("--rank", self.rank.to_string()),
            ("--run-dir", self.run_dir.display().to_string()),
            ("--epoch-us", self.epoch_unix_us.to_string()),
            ("--spawn-us", self.spawn_unix_us.to_string()),
            ("--trace", u8::from(self.trace).to_string()),
            ("--mode", mode.to_string()),
            ("--seconds", self.seconds.to_string()),
            ("--driver-pid", self.driver_pid.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect()
    }
}

/// Where rank `rank` of a launch leaves its result.
pub fn result_path(run_dir: &Path, rank: usize) -> PathBuf {
    run_dir.join(format!("rank{rank}.result"))
}

/// Where rank 0 publishes the mesh rendezvous address.
pub fn rendezvous_path(run_dir: &Path) -> PathBuf {
    run_dir.join("rendezvous.addr")
}

/// Where a serving rank 0 publishes its client listener address.
pub fn client_addr_path(run_dir: &Path) -> PathBuf {
    run_dir.join("client.addr")
}

/// The state every kind of rank builds before it can train or serve.
struct Built {
    dataset: Dataset,
    graph: Arc<DistGraph>,
    shard: Shard,
    ctx: WorkerCtx,
}

/// Rebuilds dataset, partitioning, graph view and shard from the workload
/// flags and joins the mesh: the same calls, in the same order, as
/// `sar_bench::distrun::run_rank`, each inside its own span.
fn build(args: &RankArgs, tr: &mut Tracer, res: &mut RankResult) -> Result<Built, String> {
    let (spec, rank) = (&args.spec, args.rank);
    sar_tensor::simd::set_mode(sar_tensor::simd::SimdMode::Auto);
    sar_tensor::pool::set_threads(spec.threads);

    let (dataset, s) = tr.scope("graph.datagen", 0, || {
        datasets::products_like(spec.nodes, args.seed)
    });
    res.set("graph.datagen_s", s);
    let (part, s) = tr.scope("partition.multilevel", 0, || {
        partition(&dataset.graph, spec.world, Method::Multilevel, args.seed)
    });
    res.set("partition.multilevel_s", s);
    res.set("partition.cut_frac", part.cut_fraction(&dataset.graph));
    res.set("partition.balance", part.balance());
    let (graph, s) = tr.scope("core.distgraph_build", 0, || {
        Arc::new(DistGraph::build_all(&dataset.graph, &part).swap_remove(rank))
    });
    res.set("core.distgraph_build_s", s);
    let (shard, s) = tr.scope("core.shard_build", 0, || {
        Shard::build_all(&dataset, &part).swap_remove(rank)
    });
    res.set("core.shard_build_s", s);

    let rendezvous = rendezvous_path(&args.run_dir);
    let (transport, s) = tr.scope("comm.rendezvous", 0, || -> Result<TcpTransport, String> {
        if rank == 0 {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| format!("rank 0: cannot bind rendezvous listener: {e}"))?;
            let addr = listener
                .local_addr()
                .map_err(|e| format!("rank 0: cannot read listener address: {e}"))?;
            write_rendezvous_addr(&rendezvous, &addr)
                .map_err(|e| format!("rank 0: cannot write rendezvous file: {e}"))?;
            TcpTransport::host(listener, spec.world, TcpOpts::default())
                .map_err(|e| format!("rank 0: {e}"))
        } else {
            let addr = read_rendezvous_addr(&rendezvous, RENDEZVOUS_TIMEOUT)
                .map_err(|e| format!("rank {rank}: {e}"))?;
            TcpTransport::join(addr.as_str(), rank, spec.world, TcpOpts::default())
                .map_err(|e| format!("rank {rank}: {e}"))
        }
    });
    res.set("comm.rendezvous_s", s);
    let ctx = WorkerCtx::new(Box::new(transport?), CostModel::default(), RECV_TIMEOUT);
    Ok(Built {
        dataset,
        graph,
        shard,
        ctx,
    })
}

/// Counters read at a rep boundary.
struct Boundary {
    comm: CommStats,
    procfs: ProcSnapshot,
    pool: PoolStats,
}

fn boundary(ctx: &WorkerCtx) -> Boundary {
    // Charge the time since the last attribution point now, so that each
    // rep's ledger delta holds its own wall time and nothing else's.
    ctx.flush_phase_timing();
    Boundary {
        comm: ctx.stats(),
        procfs: procfs::snapshot("self"),
        pool: pool_stats(),
    }
}

/// Writes the difference of two ledger snapshots under `prefix`: per
/// phase, and per (phase, GNN layer) for the first [`LEDGER_LAYERS`]
/// layers.
pub fn put_ledger_delta(res: &mut RankResult, prefix: &str, before: &CommStats, after: &CommStats) {
    let mut put = |cell: String, a: PhaseEntry, b: PhaseEntry| {
        res.set(format!("{cell}.wall_us"), a.wall_us - b.wall_us);
        res.set(format!("{cell}.blocked_us"), a.blocked_us - b.blocked_us);
        res.set(format!("{cell}.cpu_us"), a.cpu_us - b.cpu_us);
        res.set(
            format!("{cell}.wire_sent_bytes"),
            (a.wire_sent_bytes - b.wire_sent_bytes) as f64,
        );
        res.set(
            format!("{cell}.recv_bytes"),
            (a.recv_bytes - b.recv_bytes) as f64,
        );
        res.set(
            format!("{cell}.sent_messages"),
            (a.sent_messages - b.sent_messages) as f64,
        );
    };
    for phase in Phase::ALL {
        put(
            format!("{prefix}.{}", phase.name()),
            after.ledger.phase_total(phase),
            before.ledger.phase_total(phase),
        );
        for layer in 0..LEDGER_LAYERS as u16 {
            put(
                format!("{prefix}.{}.l{layer}", phase.name()),
                after.ledger.get(phase, Some(layer)),
                before.ledger.get(phase, Some(layer)),
            );
        }
    }
}

/// One `run_worker` call on the live mesh with counters read on both
/// sides; returns its wall seconds.
#[allow(clippy::too_many_arguments)]
fn one_rep(
    rep: usize,
    ctx: &Rc<WorkerCtx>,
    graph: &Arc<DistGraph>,
    shard: &Shard,
    cfg: &TrainConfig,
    tr: &mut Tracer,
    res: &mut RankResult,
) -> Result<f64, String> {
    let rank = ctx.rank();
    let (entered, traced_before) = (Instant::now(), tr.spent_s());
    tr.begin("rep", rep as u64);
    ctx.try_barrier()
        .map_err(|e| format!("rank {rank}: barrier before rep {rep}: {e}"))?;
    let before = boundary(ctx);
    // `run_worker` resets the tensor high-water mark only at its second
    // epoch; reset it here so a one-epoch rep reports its own peak and not
    // the set-up's.
    MemoryTracker::reset_peak();
    tr.begin("core.run_worker", rep as u64);
    let t = Instant::now();
    let report = run_worker(Rc::clone(ctx), Arc::clone(graph), shard, cfg);
    let wall = t.elapsed().as_secs_f64();
    tr.end();
    let after = boundary(ctx);
    tr.end();

    let p = format!("rep.{rep}");
    res.set(format!("{p}.wall_s"), wall);
    // Barrier entry to the end of the counters: what the rep costs the
    // user, the wait for the slowest peer included, and what keeping this
    // rep's spans added to it.
    res.set(format!("{p}.interval_s"), entered.elapsed().as_secs_f64());
    res.set(format!("{p}.trace_s"), tr.spent_s() - traced_before);
    res.set(format!("{p}.epochs"), report.epochs.len() as f64);
    for (e, rec) in report.epochs.iter().enumerate() {
        res.set(format!("{p}.loss.{e}"), f64::from(rec.loss.to_bits()));
    }
    res.set(format!("{p}.val_acc"), report.val_acc);
    res.set(format!("{p}.test_acc"), report.test_acc);
    res.set(
        format!("{p}.peak_tensor_bytes"),
        report.steady_peak_bytes as f64,
    );
    res.set(
        format!("{p}.cpu_user_s"),
        after.procfs.user_s - before.procfs.user_s,
    );
    res.set(
        format!("{p}.cpu_sys_s"),
        after.procfs.sys_s - before.procfs.sys_s,
    );
    res.set(
        format!("{p}.vol_ctx"),
        after.procfs.vol_ctx - before.procfs.vol_ctx,
    );
    res.set(
        format!("{p}.pool_hits"),
        (after.pool.hits - before.pool.hits) as f64,
    );
    res.set(
        format!("{p}.pool_misses"),
        (after.pool.misses - before.pool.misses) as f64,
    );
    res.set(
        format!("{p}.pool_recycle_drops"),
        (after.pool.recycle_drops - before.pool.recycle_drops) as f64,
    );
    put_ledger_delta(res, &p, &before.comm, &after.comm);
    Ok(wall)
}

/// A training rank: set-up, the warm-up reps, then one-epoch reps for
/// `--seconds`, then (traced) the probes.
fn train_rank(args: &RankArgs, tr: &mut Tracer, res: &mut RankResult) -> Result<(), String> {
    let rank = args.rank;
    tr.begin("setup", 0);
    let built = build(args, tr, res)?;
    let warm_cfg = args
        .spec
        .workload(args.seed, WARMUP_EPOCHS)
        .train_config(&built.dataset)?;
    let ctx = Rc::new(built.ctx);
    ctx.try_barrier()
        .map_err(|e| format!("rank {rank}: set-up barrier: {e}"))?;
    tr.end();
    // Process start (as the driver saw it) to the point where
    // `run_worker` could be entered.
    res.set(
        "setup_s",
        unix_us().saturating_sub(args.spawn_unix_us) as f64 / 1e6,
    );
    if args.mode == LaunchMode::Setup {
        return Ok(());
    }

    one_rep(0, &ctx, &built.graph, &built.shard, &warm_cfg, tr, res)?;
    let rep_cfg = TrainConfig {
        epochs: REP_EPOCHS,
        ..warm_cfg.clone()
    };
    let mut reps = 0usize;
    if args.seconds > 0.0 {
        let wall = one_rep(1, &ctx, &built.graph, &built.shard, &rep_cfg, tr, res)?;
        // Rank 0 sizes the timed region from the second warm-up rep and
        // tells the mesh.
        let mut n = [(args.seconds / wall).round().clamp(2.0, MAX_REPS as f64) as f32];
        ctx.broadcast_f32(0, &mut n);
        reps = n[0] as usize;
        for rep in WARMUP_REPS..WARMUP_REPS + reps {
            one_rep(rep, &ctx, &built.graph, &built.shard, &rep_cfg, tr, res)?;
        }
    }
    res.set("reps", reps as f64);
    // Before the probes allocate their own buffers.
    res.set("hwm_mib", procfs::snapshot("self").hwm_mib);

    if args.trace {
        tr.begin("probes", 0);
        let mut model_cfg = warm_cfg.model.clone();
        model_cfg.in_dim = built.shard.feat_dim + built.shard.num_classes;
        probes::train_probes(
            &args.spec,
            &ctx,
            &built.graph,
            &built.shard,
            &model_cfg,
            res,
        )
        .map_err(|e| format!("rank {rank}: probes: {e}"))?;
        tr.end();
    }
    // Hold every rank until all are done, so no process closes its
    // sockets while a peer still reads.
    ctx.try_barrier()
        .map_err(|e| format!("rank {rank}: final barrier: {e}"))?;
    Ok(())
}

/// A serving rank: set-up, (traced) the transport probes while the
/// context is still ours, then the resident engine until a client asks for
/// shutdown.
fn serve_rank(args: &RankArgs, tr: &mut Tracer, res: &mut RankResult) -> Result<(), String> {
    let (spec, rank) = (&args.spec, args.rank);
    tr.begin("setup", 0);
    let built = build(args, tr, res)?;
    let workload = spec.workload(args.seed, 0);
    let model_cfg = serve_model_config(&workload, &built.dataset)?;
    let params = load_or_init_params(&model_cfg, &built.dataset, workload.label_aug, None)
        .map_err(|e| format!("rank {rank}: {e}"))?;

    if args.trace {
        let mut resolved = model_cfg.clone();
        resolved.in_dim = built.shard.feat_dim + built.shard.num_classes;
        let heads = if spec.arch == "gat" { GAT_HEADS } else { 1 };
        probes::comm_probes(
            &built.ctx,
            probes::fetch_block_floats(&built.graph, spec.hidden * heads),
            probes::param_floats(&resolved),
            res,
        )
        .map_err(|e| format!("rank {rank}: probes: {e}"))?;
        if rank == 0 {
            probes::mfg_probe(&built.graph, res);
        }
    }

    let stats = built.ctx.share_stats();
    let setup = EngineSetup {
        model_cfg,
        label_aug: workload.label_aug,
        cache_rows: CACHE_ROWS,
        checkpoint: None,
    };
    let mut engine = ServeEngine::new(
        built.ctx,
        Arc::clone(&built.graph),
        &built.shard,
        built.dataset.num_nodes(),
        &setup,
        &params,
    )
    .map_err(|e| format!("rank {rank}: cannot build serving engine: {e}"))?;
    tr.end();

    tr.begin("serve.resident", 0);
    if rank == 0 {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| format!("rank 0: cannot bind client listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("rank 0: cannot read client listener address: {e}"))?;
        write_rendezvous_addr(&client_addr_path(&args.run_dir), &addr)
            .map_err(|e| format!("rank 0: cannot write client address file: {e}"))?;
        let server = ServerConfig {
            max_batch: MAX_BATCH,
            max_delay: Duration::from_micros(MAX_DELAY_US),
            ..ServerConfig::default()
        };
        let summary = serve(&mut engine, listener, &server)
            .map_err(|e| format!("rank 0: front-end failed: {e}"))?;
        res.set("serve.requests", summary.requests as f64);
        res.set("serve.connections", summary.connections as f64);
    } else {
        worker_loop(&mut engine).map_err(|e| format!("rank {rank}: worker loop failed: {e}"))?;
    }
    tr.end();

    // Whole-life counters of the mesh side of this rank.
    put_ledger_delta(res, "life", &CommStats::new(spec.world), &stats.borrow());
    res.set(
        "life.peak_tensor_bytes",
        MemoryTracker::stats().peak_bytes as f64,
    );
    res.set("hwm_mib", procfs::snapshot("self").hwm_mib);
    Ok(())
}

/// Ends this rank if the driver that spawned it goes away (killed by its
/// own caller, say): a resident serving rank would otherwise poll for
/// work forever. The thread lives as long as the process and is never
/// joined.
fn exit_with_driver(driver: u32) {
    std::thread::spawn(move || loop {
        if procfs::parent_pid().is_some_and(|p| p != driver) {
            eprintln!("sar-benchmark: driver {driver} is gone, rank exits");
            std::process::exit(3);
        }
        std::thread::sleep(PARENT_POLL);
    });
}

/// Entry point of a rank process; returns its exit code.
pub fn main(flags: &BTreeMap<String, String>) -> i32 {
    let args = match RankArgs::parse(flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sar-benchmark: {e}");
            return 2;
        }
    };
    exit_with_driver(args.driver_pid);
    let mut tr = Tracer::new(args.rank as i32, args.epoch_unix_us, args.trace);
    let mut res = RankResult::default();
    tr.begin("rank", args.rank as u64);
    let outcome = match args.spec.kind {
        Kind::Train => train_rank(&args, &mut tr, &mut res),
        Kind::Serve => serve_rank(&args, &mut tr, &mut res),
    };
    if let Err(e) = outcome {
        eprintln!("sar-benchmark: {e}");
        return 1;
    }
    tr.end();
    res.spans = tr.spans().to_vec();
    if let Err(e) = res.write(&result_path(&args.run_dir, args.rank)) {
        eprintln!(
            "sar-benchmark: rank {}: cannot write result: {e}",
            args.rank
        );
        return 1;
    }
    0
}
