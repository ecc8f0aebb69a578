//! The benchmark's fixed vocabulary: the five workloads and every metric
//! name with its unit. `BENCHMARK.json` at the repository root repeats
//! these names; a unit test keeps the two in step.

use sar_bench::distrun::Workload;

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full-batch training: repeated `run_worker` calls on a live mesh.
    Train,
    /// A resident `sar-serve` cluster under client load.
    Serve,
}

/// One workload. Sizes were calibrated once on the 2-core reference box
/// (see README.md, "Calibration") and are not tuned again.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Training or serving.
    pub kind: Kind,
    /// Architecture flag (`sage` | `gat`).
    pub arch: &'static str,
    /// Execution mode flag (`sar` | `sar-fak`).
    pub mode: &'static str,
    /// `products_like` node count.
    pub nodes: usize,
    /// GNN depth.
    pub layers: usize,
    /// Hidden size (per-head dimension for GAT).
    pub hidden: usize,
    /// Rank processes.
    pub world: usize,
    /// Kernel threads per rank.
    pub threads: usize,
    /// Serving only: draw 90% of ids from a 512-node hot set and make
    /// every 100th request a feature update.
    pub hot_rw: bool,
}

/// GAT attention heads (training workload `gat-tcp2`).
pub const GAT_HEADS: usize = 4;
/// Fetch pipeline depth of every training workload (the paper's 3/N).
pub const PREFETCH_DEPTH: usize = 1;
/// Epochs of the warm-up rep: two, so that the loss can be seen to fall.
pub const WARMUP_EPOCHS: usize = 2;
/// Reps discarded before the measured ones: rep 0 runs [`WARMUP_EPOCHS`]
/// epochs, rep 1 one. The first `run_worker` calls of a process run 10 to
/// 40% slower than the later ones (allocator, page faults, buffer pool),
/// and a user who trains for 100 epochs pays that once.
pub const WARMUP_REPS: usize = 2;
/// Epochs of each measured rep. One operation of a training workload is
/// therefore one training epoch plus the exact evaluation pass that ends
/// every `run_worker` call.
pub const REP_EPOCHS: usize = 1;

/// Node ids per serving request.
pub const IDS_PER_REQUEST: usize = 8;
/// Client connections (= load-generator threads); the box has 2 cores.
pub const CONNECTIONS: usize = 2;
/// Size of the hot set of `serve-hot-rw`.
pub const HOT_SET: usize = 512;
/// Share of `serve-hot-rw` ids drawn from the hot set.
pub const HOT_SHARE: f64 = 0.9;
/// Every n-th request of a `serve-hot-rw` connection is a feature update.
pub const WRITE_EVERY: usize = 100;
/// Open-loop arrival rate, requests per second: 50 to 60% of the
/// closed-loop throughput measured on the reference box. Fixed; see
/// README.md, "Calibration".
pub const RATE_RPS: f64 = 60.0;
/// Share of `--seconds` the closed-loop phase takes; the open-loop phase
/// takes the rest.
pub const CLOSED_SHARE: f64 = 0.4;
/// An open-phase request answered later than this after it was due
/// misses the latency limit (`serve.slo_miss_frac`).
pub const SLO_MS: f64 = 50.0;
/// Most of a timed region keeping spans may take before a traced run's
/// numbers stop being trusted (`trace_overhead_frac`).
pub const TRACE_OVERHEAD_LIMIT: f64 = 0.02;
/// Front-end coalescing bound.
pub const MAX_BATCH: usize = 16;
/// Front-end coalescing delay, microseconds.
pub const MAX_DELAY_US: u64 = 1000;
/// Per-rank embedding-cache rows.
pub const CACHE_ROWS: usize = 4096;

const fn train(
    name: &'static str,
    arch: &'static str,
    mode: &'static str,
    nodes: usize,
    hidden: usize,
    world: usize,
    threads: usize,
) -> Spec {
    Spec {
        name,
        kind: Kind::Train,
        arch,
        mode,
        nodes,
        layers: 3,
        hidden,
        world,
        threads,
        hot_rw: false,
    }
}

const fn serve(name: &'static str, hot_rw: bool) -> Spec {
    Spec {
        name,
        kind: Kind::Serve,
        arch: "sage",
        mode: "sar",
        nodes: 50_000,
        layers: 2,
        hidden: 32,
        world: 2,
        threads: 1,
        hot_rw,
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 5] = [
    train("sage-tcp2", "sage", "sar", 50_000, 64, 2, 1),
    train("gat-tcp2", "gat", "sar-fak", 24_000, 16, 2, 1),
    train("sage-solo-t2", "sage", "sar", 50_000, 64, 1, 2),
    serve("serve-uniform", false),
    serve("serve-hot-rw", true),
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The same model and graph on one rank with two kernel threads: the
    /// exactness oracle a distributed training workload is checked
    /// against.
    pub fn solo(&self) -> Spec {
        Spec {
            world: 1,
            threads: 2,
            ..*self
        }
    }

    /// The program-side description of this workload for `seed`: partitioner
    /// `ml`, codec `raw`, protocol `exact`, simd `auto`, label augmentation
    /// on, and dropout 0 so that runs at different world sizes compare (the
    /// rank-seeded dropout mask is the only world-dependent randomness).
    pub fn workload(&self, seed: u64, epochs: usize) -> Workload {
        Workload {
            nodes: self.nodes,
            arch: self.arch.into(),
            mode: self.mode.into(),
            hidden: self.hidden,
            heads: GAT_HEADS,
            layers: self.layers,
            epochs,
            dropout: 0.0,
            prefetch_depth: PREFETCH_DEPTH,
            seed,
            threads: self.threads,
            ..Workload::default()
        }
    }
}

/// End-to-end metrics `(name, unit, higher_is_better, bound)`, printed by
/// every untraced run of every workload. `bound` is the share of the
/// parent's median by which the metric may worsen before a change counts
/// as a regression: a quarter for the wall-clock metrics, because the
/// reference box itself runs a fixed arithmetic loop 12% slower in one
/// 5 s window than in the next (README.md, "Calibration").
pub const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("op_p50_ms", "ms", false, 0.25),
    ("ops_per_s", "1/s", true, 0.25),
    ("peak_tensor_mib", "MiB", false, 0.06),
    ("setup_s", "s", false, 0.25),
];

/// GNN layers the per-layer wall split is reported for.
pub const LEDGER_LAYERS: usize = 3;

/// Per-layer metrics `(name, unit, higher_is_better)`, printed by every
/// traced run of every workload; a metric that does not apply to a
/// workload reads 0. They carry no bound.
pub const PER_LAYER: [(&str, &str, bool); 73] = [
    ("op_tail_ms", "ms", false),
    ("partition.multilevel_s", "s", false),
    ("partition.cut_frac", "ratio", false),
    ("partition.balance", "ratio", false),
    ("graph.datagen_s", "s", false),
    ("graph.spmm_fwd_ms", "ms", false),
    ("graph.spmm_bwd_ms", "ms", false),
    ("graph.gat_fused_fwd_ms", "ms", false),
    ("graph.gat_fused_bwd_ms", "ms", false),
    ("tensor.matmul_fwd_ms", "ms", false),
    ("tensor.matmul_bwd_ms", "ms", false),
    ("tensor.pool_speedup_t2", "ratio", true),
    ("comm.rendezvous_s", "s", false),
    ("comm.tcp_rtt_us", "us", false),
    ("comm.tcp_bulk_gbps", "Gb/s", true),
    ("comm.allreduce_ms", "ms", false),
    ("comm.wire_mib_per_op", "MiB", false),
    ("comm.fetch_mib_per_op", "MiB", false),
    ("comm.refetch_mib_per_op", "MiB", false),
    ("comm.gradroute_mib_per_op", "MiB", false),
    ("comm.collective_mib_per_op", "MiB", false),
    ("comm.msgs_per_op", "count", false),
    ("comm.blocked_frac", "ratio", false),
    ("comm.blocked_fetch_frac", "ratio", false),
    ("comm.blocked_refetch_frac", "ratio", false),
    ("comm.blocked_gradroute_frac", "ratio", false),
    ("comm.blocked_collective_frac", "ratio", false),
    ("comm.pool_hit_rate", "ratio", true),
    ("comm.pool_recycle_drops", "count", false),
    ("core.distgraph_build_s", "s", false),
    ("core.shard_build_s", "s", false),
    ("core.fwd_fetch_wall_frac", "ratio", false),
    ("core.bwd_refetch_wall_frac", "ratio", false),
    ("core.grad_routing_wall_frac", "ratio", false),
    ("core.other_wall_frac", "ratio", false),
    ("core.l0.fwd_fetch_wall_frac", "ratio", false),
    ("core.l0.bwd_refetch_wall_frac", "ratio", false),
    ("core.l0.grad_routing_wall_frac", "ratio", false),
    ("core.l0.other_wall_frac", "ratio", false),
    ("core.l1.fwd_fetch_wall_frac", "ratio", false),
    ("core.l1.bwd_refetch_wall_frac", "ratio", false),
    ("core.l1.grad_routing_wall_frac", "ratio", false),
    ("core.l1.other_wall_frac", "ratio", false),
    ("core.l2.fwd_fetch_wall_frac", "ratio", false),
    ("core.l2.bwd_refetch_wall_frac", "ratio", false),
    ("core.l2.grad_routing_wall_frac", "ratio", false),
    ("core.l2.other_wall_frac", "ratio", false),
    ("core.ledger_coverage", "ratio", true),
    ("core.rank_imbalance", "ratio", false),
    ("core.scale_eff", "ratio", true),
    ("core.mfg_slice_ms", "ms", false),
    ("nn.optim_step_ms", "ms", false),
    ("nn.loss_ms", "ms", false),
    ("serve.closed_p50_ms", "ms", false),
    ("serve.batch_size_mean", "count", true),
    ("serve.cache_hit_rate", "ratio", true),
    ("serve.cache_invalidations", "count", false),
    ("serve.fetch_kib_per_query", "KiB", false),
    ("serve.mfg_fetch_ratio", "ratio", false),
    ("serve.ctl_rtt_us", "us", false),
    ("serve.update_p50_ms", "ms", false),
    ("serve.gen_lateness_p95_ms", "ms", false),
    ("serve.gen_backlog_max", "count", false),
    ("serve.slo_miss_frac", "ratio", false),
    ("proc.cpu_s_per_op", "s", false),
    ("proc.sys_frac", "ratio", false),
    ("proc.vol_ctx_switches_per_op", "count", false),
    ("proc.peak_rss_mib", "MiB", false),
    ("trace.op_p50_ms", "ms", false),
    ("trace.ops_per_s", "1/s", true),
    ("trace.spans", "count", false),
    ("trace.setup_unattributed_s", "s", false),
    ("trace_overhead_frac", "ratio", false),
];
