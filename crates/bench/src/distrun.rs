//! Per-rank driver for real multi-process training over the TCP
//! transport.
//!
//! The in-process paths ([`sar_core::train`]) hand every worker an
//! `Arc` of the shared dataset. Across OS processes nothing is shared,
//! so the contract here is *determinism instead of sharing*: a
//! [`Workload`] captures every knob that influences the run, every rank
//! rebuilds the synthetic dataset, the partitioning and the model from
//! those flags, and the training math is bitwise-reproducible — so N
//! independent processes end up with exactly the state the simulated
//! cluster would have handed them (verified end to end by the
//! `transport_parity` integration tests in `sar-core`).
//!
//! [`run_rank`] is the whole per-process lifecycle: rebuild state
//! ([`Workload::rank_state`]) → mesh ([`RankSeat::join_mesh`]) →
//! [`run_worker`] → gather. The gather ships each rank's record (its
//! [`sar_core::WorkerReport`] and the full [`sar_comm::CommStats`]
//! ledger) to rank 0 over the data plane itself, as the same JSON the
//! run report's `workers` array holds ([`report::encode_rank`]). It uses
//! the stats snapshot taken *before* the gather messages, so the
//! reported ledgers stay byte-comparable with the simulated backend.
//! Rank 0 reads the records back and aggregates them with the
//! constructor the simulated backend uses ([`report::gather`] →
//! [`sar_core::RunReport::from_ranks`]).

use std::rc::Rc;
use std::sync::Arc;

use sar_comm::{Codec, Payload, TcpOpts};
use sar_core::{run_worker, Arch, DistGraph, Mode, ModelConfig, Protocol, Shard, TrainConfig};
use sar_graph::{datasets, Dataset};
use sar_nn::{CsConfig, LrSchedule};
use sar_partition::{partition, Method, Partitioning};
use sar_tensor::simd::SimdMode;

use crate::cli::Args;
use crate::launcher::RankSeat;
use crate::report::{self, RunReport};

/// Tag space for the post-training stats gather: above every peer-to-peer
/// view-index tag (`1 << 40` + small offsets) and below the collective
/// tag space (`1 << 62`).
const GATHER_TAG_BASE: u64 = 1 << 61;

/// Everything that defines a training run, expressible as command-line
/// flags so independent processes can rebuild identical state.
///
/// This is the one workload-flag vocabulary: `sar-worker`, `sar-serve`
/// and `sar-train` all parse it through [`Workload::apply_flag`] (each
/// adds only its own extras), and [`Workload::to_args`] writes it back.
/// Each field below is one flag (`prefetch_depth` ↔ `--prefetch-depth`;
/// the README's "One flag vocabulary" table lists them with defaults).
/// `sar-train` starts from different defaults, listed in its own docs;
/// `sar-serve` ignores the training-only fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Synthetic dataset family: `"products"` or `"papers"`.
    pub dataset: String,
    /// Node count for the synthetic generator.
    pub nodes: usize,
    /// Architecture name: `"sage"`, `"gcn"` or `"gat"`.
    pub arch: String,
    /// Hidden size (per-head dimension for GAT).
    pub hidden: usize,
    /// GAT attention heads.
    pub heads: usize,
    /// Execution mode: `"sar"`, `"sar-fak"` or `"dp"`.
    pub mode: String,
    /// GNN depth.
    pub layers: usize,
    /// Jumping-knowledge skip connections.
    pub jk: bool,
    /// Training epochs.
    pub epochs: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Dropout probability.
    pub dropout: f32,
    /// Masked label prediction (Shi et al. 2020).
    pub label_aug: bool,
    /// Fraction of training labels fed as input per epoch.
    pub aug_frac: f64,
    /// Run Correct & Smooth after training.
    pub cs: bool,
    /// Pipeline depth of the sequential fetch (`(k+2)/N` memory; 0 =
    /// strictly sequential, 1 = the paper's 3/N prefetch).
    pub prefetch_depth: usize,
    /// Partitioner: `"ml"`, `"random"`, `"range"` or `"bfs"`.
    pub partitioner: String,
    /// Learning-rate schedule: `"constant"` or `"step"` (the paper's
    /// thirds-of-training step decay).
    pub schedule: String,
    /// RNG seed for the dataset, the partitioner and training.
    pub seed: u64,
    /// Intra-worker kernel threads (`sar_tensor::pool`). Results are
    /// bitwise identical across thread counts.
    pub threads: usize,
    /// SIMD dispatch mode (`sar_tensor::simd`): `"auto"` (the widest body
    /// the CPU has: AVX-512F, else AVX2), `"avx2"` (at most AVX2) or
    /// `"scalar"`. Results are bitwise identical across modes — every
    /// body performs the scalar specification's operations in its
    /// order.
    pub simd: String,
    /// Wire codec for compressible payloads: a [`Codec::name`].
    /// Negotiated at the TCP rendezvous — every rank must run the same
    /// codec.
    pub codec: String,
    /// Exchange protocol: `"exact"`, `"gradonly"` or `"stale:<r>"`.
    pub protocol: String,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            dataset: "products".into(),
            nodes: 1500,
            arch: "sage".into(),
            hidden: 64,
            heads: 4,
            mode: "sar".into(),
            layers: 3,
            jk: false,
            epochs: 3,
            lr: 0.01,
            dropout: 0.3,
            label_aug: true,
            aug_frac: 0.5,
            cs: false,
            prefetch_depth: 0,
            partitioner: "ml".into(),
            schedule: "constant".into(),
            seed: 0,
            threads: 1,
            simd: "auto".into(),
            codec: "raw".into(),
            protocol: "exact".into(),
        }
    }
}

impl Workload {
    /// Applies one workload flag, pulling its value from `args` — the
    /// inverse of [`Workload::to_args`] and the only parser of the
    /// workload vocabulary: `sar-worker`, `sar-serve` and `sar-train`
    /// all route their flags through here, so a new knob is one field,
    /// one arm here and one entry in `to_args`. Returns `Ok(false)` when
    /// `flag` is not a workload flag (the binary's own extras).
    ///
    /// Numeric syntax is validated here; enumerated names (`--arch`,
    /// `--codec`, …) are validated where they are resolved
    /// ([`Workload::build_data`], [`Workload::train_config`],
    /// [`Workload::simd_mode`]), which programmatically built workloads
    /// pass through as well.
    ///
    /// # Errors
    ///
    /// A one-line diagnostic naming the flag for a missing or
    /// unparseable value.
    pub fn apply_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--dataset" => self.dataset = args.value(flag)?,
            "--nodes" => self.nodes = args.parsed(flag)?,
            "--arch" => self.arch = args.value(flag)?,
            "--hidden" => self.hidden = args.parsed(flag)?,
            "--heads" => self.heads = args.parsed(flag)?,
            "--mode" => self.mode = args.value(flag)?,
            "--layers" => self.layers = args.parsed(flag)?,
            "--jk" => self.jk = true,
            "--epochs" => self.epochs = args.parsed(flag)?,
            "--lr" => self.lr = args.parsed(flag)?,
            "--dropout" => self.dropout = args.parsed(flag)?,
            "--no-label-aug" => self.label_aug = false,
            "--aug-frac" => self.aug_frac = args.parsed(flag)?,
            "--cs" => self.cs = true,
            "--prefetch-depth" => self.prefetch_depth = args.parsed(flag)?,
            "--partitioner" => self.partitioner = args.value(flag)?,
            "--schedule" => self.schedule = args.value(flag)?,
            "--seed" => self.seed = args.parsed(flag)?,
            "--threads" => self.threads = args.parsed(flag)?,
            "--simd" => self.simd = args.value(flag)?,
            "--codec" => self.codec = args.value(flag)?,
            "--protocol" => self.protocol = args.value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Rebuilds a workload from [`Workload::to_args`] output (or any
    /// list of workload flags over the defaults).
    ///
    /// # Errors
    ///
    /// The [`Workload::apply_flag`] diagnostics, or `unknown flag`.
    pub fn from_args(argv: Vec<String>) -> Result<Workload, String> {
        let mut workload = Workload::default();
        let mut args = Args::new(argv);
        while let Some(flag) = args.next_flag() {
            if !workload.apply_flag(&flag, &mut args)? {
                return Err(format!("unknown flag {flag}"));
            }
        }
        Ok(workload)
    }

    /// Serializes the workload back into flags, every field explicit so
    /// child processes never depend on defaults drifting.
    pub fn to_args(&self) -> Vec<String> {
        let mut a: Vec<String> = [
            ("--dataset", self.dataset.clone()),
            ("--nodes", self.nodes.to_string()),
            ("--arch", self.arch.clone()),
            ("--hidden", self.hidden.to_string()),
            ("--heads", self.heads.to_string()),
            ("--mode", self.mode.clone()),
            ("--layers", self.layers.to_string()),
            ("--epochs", self.epochs.to_string()),
            ("--lr", self.lr.to_string()),
            ("--dropout", self.dropout.to_string()),
            ("--aug-frac", self.aug_frac.to_string()),
            ("--partitioner", self.partitioner.clone()),
            ("--schedule", self.schedule.clone()),
            ("--seed", self.seed.to_string()),
            ("--threads", self.threads.to_string()),
            ("--simd", self.simd.clone()),
            ("--prefetch-depth", self.prefetch_depth.to_string()),
            ("--codec", self.codec.clone()),
            ("--protocol", self.protocol.clone()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect();
        if self.jk {
            a.push("--jk".into());
        }
        if !self.label_aug {
            a.push("--no-label-aug".into());
        }
        if self.cs {
            a.push("--cs".into());
        }
        a
    }

    /// The SIMD dispatch mode named by `--simd`.
    ///
    /// # Errors
    ///
    /// Rejects names other than `auto` and `scalar`.
    pub fn simd_mode(&self) -> Result<SimdMode, String> {
        sar_tensor::simd::parse_mode(&self.simd)
            .ok_or_else(|| format!("unknown --simd {} (auto|avx2|scalar)", self.simd))
    }

    /// Partitions `dataset` into `world` parts with the `--partitioner`
    /// method, seeded by `--seed`.
    ///
    /// # Errors
    ///
    /// Rejects unknown partitioner names.
    pub fn partition(&self, dataset: &Dataset, world: usize) -> Result<Partitioning, String> {
        let method = match self.partitioner.as_str() {
            "ml" => Method::Multilevel,
            "random" => Method::Random,
            "range" => Method::Range,
            "bfs" => Method::Bfs,
            other => return Err(format!("unknown partitioner {other}")),
        };
        Ok(partition(&dataset.graph, world, method, self.seed))
    }

    /// Rebuilds the dataset and partitioning deterministically from the
    /// flags — identical in every process.
    ///
    /// # Errors
    ///
    /// Rejects unknown dataset or partitioner names.
    pub fn build_data(&self, world: usize) -> Result<(Dataset, Partitioning), String> {
        let dataset = match self.dataset.as_str() {
            "products" => datasets::products_like(self.nodes, self.seed),
            "papers" => datasets::papers_like(self.nodes, self.seed),
            other => return Err(format!("unknown dataset {other}")),
        };
        let part = self.partition(&dataset, world)?;
        Ok((dataset, part))
    }

    /// Rebuilds what one rank of a `world`-rank launch holds: the dataset
    /// and this rank's graph blocks and feature shard — the same in every
    /// process that passes the same flags.
    ///
    /// # Errors
    ///
    /// `rank` outside `0..world`, or the [`Workload::build_data`] errors.
    pub fn rank_state(&self, rank: usize, world: usize) -> Result<RankState, String> {
        if rank >= world {
            return Err(format!("--rank {rank} out of range for --world {world}"));
        }
        let (dataset, part) = self.build_data(world)?;
        let graph = Arc::new(DistGraph::build_all(&dataset.graph, &part).swap_remove(rank));
        let shard = Shard::build_all(&dataset, &part).swap_remove(rank);
        Ok(RankState {
            dataset,
            graph,
            shard,
        })
    }

    /// Builds the [`TrainConfig`] for this workload.
    ///
    /// # Errors
    ///
    /// Rejects unknown architecture, mode or schedule names.
    pub fn train_config(&self, dataset: &Dataset) -> Result<TrainConfig, String> {
        let arch = match self.arch.as_str() {
            "sage" => Arch::GraphSage {
                hidden: self.hidden,
            },
            "gcn" => Arch::Gcn {
                hidden: self.hidden,
            },
            "gat" => Arch::Gat {
                head_dim: self.hidden,
                heads: self.heads,
            },
            other => return Err(format!("unknown arch {other}")),
        };
        let mode = match self.mode.as_str() {
            "sar" => Mode::Sar,
            "sar-fak" => Mode::SarFused,
            "dp" => Mode::DomainParallel,
            other => return Err(format!("unknown mode {other}")),
        };
        let schedule = match self.schedule.as_str() {
            "constant" => LrSchedule::Constant,
            "step" => LrSchedule::StepDecay {
                every: (self.epochs / 3).max(1),
                gamma: 0.5,
            },
            other => return Err(format!("unknown schedule {other}")),
        };
        let codec = Codec::parse(&self.codec).ok_or_else(|| {
            let names = Codec::ALL.map(Codec::name).join("|");
            format!("unknown codec {} ({names})", self.codec)
        })?;
        let protocol = Protocol::parse(&self.protocol)?;
        Ok(TrainConfig {
            model: ModelConfig {
                arch,
                mode,
                layers: self.layers,
                in_dim: 0, // set by the trainer
                num_classes: dataset.num_classes,
                dropout: self.dropout,
                batch_norm: true,
                jumping_knowledge: self.jk,
                seed: self.seed,
            },
            epochs: self.epochs,
            lr: self.lr,
            schedule,
            label_aug: self.label_aug,
            aug_frac: self.aug_frac,
            cs: self.cs.then(CsConfig::default),
            prefetch_depth: self.prefetch_depth,
            seed: self.seed,
            threads: self.threads,
            protocol,
            codec,
        })
    }
}

/// What one rank rebuilds from the workload flags
/// ([`Workload::rank_state`]).
#[derive(Debug)]
pub struct RankState {
    /// The full synthetic dataset.
    pub dataset: Dataset,
    /// This rank's partition blocks.
    pub graph: Arc<DistGraph>,
    /// This rank's features, labels and masks.
    pub shard: Shard,
}

/// The whole per-process lifecycle: rebuild dataset/partition/model from
/// the workload flags, form the TCP mesh, train, gather. Returns the
/// report labeled `experiment` on rank 0, `None` elsewhere.
///
/// # Errors
///
/// Flag, rendezvous and transport errors, each naming this rank.
pub fn run_rank(
    seat: &RankSeat,
    experiment: &str,
    workload: &Workload,
) -> Result<Option<RunReport>, String> {
    let rank = seat.rank;
    sar_tensor::simd::set_mode(workload.simd_mode()?);
    let state = workload.rank_state(rank, seat.world)?;
    let cfg = workload.train_config(&state.dataset)?;
    let ctx = Rc::new(seat.join_mesh(TcpOpts {
        codec: cfg.codec,
        ..TcpOpts::default()
    })?);
    let report = run_worker(Rc::clone(&ctx), state.graph, &state.shard, &cfg);

    // Snapshot the stats *before* any gather traffic so the shipped
    // ledgers match what an in-process run of the same program records.
    let comm = ctx.stats();

    // The gather and the final barrier use the fallible context paths:
    // a rank that died mid-protocol turns into an `Err` naming the
    // failing rank, so the process exits nonzero with a diagnostic
    // instead of panicking (or leaving the launcher to time out).
    let out = if rank == 0 {
        let mut bodies = Vec::with_capacity(seat.world - 1);
        for q in 1..seat.world {
            let body = ctx
                .try_recv(q, GATHER_TAG_BASE + q as u64)
                .map_err(|e| format!("rank 0: gathering result from rank {q}: {e}"))?
                .try_into_bytes()
                .map_err(|e| format!("rank 0: result from rank {q}: {e}"))?;
            bodies.push(body);
        }
        let run = report::gather((report, comm), &bodies).map_err(|e| format!("gather: {e}"))?;
        Some(RunReport::from_train(
            experiment,
            &workload.arch,
            &workload.mode,
            run,
        ))
    } else {
        ctx.try_send(
            0,
            GATHER_TAG_BASE + rank as u64,
            Payload::Bytes(report::encode_rank(rank, &(report, comm))),
        )
        .map_err(|e| format!("rank {rank}: sending result to rank 0: {e}"))?;
        None
    };
    // Hold every rank until the gather lands, so no process tears down
    // its sockets while a peer is still reading.
    ctx.try_barrier()
        .map_err(|e| format!("rank {rank}: final barrier: {e}"))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_state_is_this_ranks_slice_and_rejects_a_bad_rank() {
        let wl = Workload {
            nodes: 96,
            ..Workload::default()
        };
        let err = wl.rank_state(2, 2).unwrap_err();
        assert_eq!(err, "--rank 2 out of range for --world 2");
        let (s0, s1) = (wl.rank_state(0, 2).unwrap(), wl.rank_state(1, 2).unwrap());
        assert_eq!((s0.graph.rank(), s1.graph.rank()), (0, 1));
        assert_eq!(
            s0.shard.num_local() + s1.shard.num_local(),
            s0.dataset.num_nodes()
        );
    }

    #[test]
    fn workload_flags_round_trip_every_field() {
        // Every field away from its default, so a field `to_args` or
        // `apply_flag` forgets shows up as an inequality.
        let wl = Workload {
            dataset: "papers".into(),
            nodes: 777,
            arch: "gat".into(),
            hidden: 8,
            heads: 2,
            mode: "sar-fak".into(),
            layers: 2,
            jk: true,
            epochs: 5,
            lr: 0.025,
            dropout: 0.1,
            label_aug: false,
            aug_frac: 0.25,
            cs: true,
            prefetch_depth: 2,
            partitioner: "bfs".into(),
            schedule: "step".into(),
            seed: 9,
            threads: 4,
            simd: "scalar".into(),
            codec: "int8".into(),
            protocol: "stale:4".into(),
        };
        assert_eq!(Workload::from_args(wl.to_args()), Ok(wl));
    }

    #[test]
    fn flag_errors_name_the_flag_and_never_panic() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect();
        let err = Workload::from_args(args(&["--epochs", "x"])).unwrap_err();
        assert!(err.contains("--epochs") && err.contains("\"x\""), "{err}");
        let err = Workload::from_args(args(&["--nodes"])).unwrap_err();
        assert_eq!(err, "missing value for --nodes");
        let err = Workload::from_args(args(&["--rank", "0"])).unwrap_err();
        assert_eq!(err, "unknown flag --rank");
        let wl = Workload {
            simd: "sse".into(),
            ..Workload::default()
        };
        assert!(wl.simd_mode().unwrap_err().contains("auto|avx2|scalar"));
    }

    #[test]
    fn workload_rejects_unknown_codec_and_protocol() {
        let d = datasets::products_like(64, 0);
        let wl = Workload {
            codec: "zstd".into(),
            ..Workload::default()
        };
        let err = wl.train_config(&d).unwrap_err();
        assert!(err.contains("unknown codec zstd (raw|f16|int8)"), "{err}");
        let wl = Workload {
            protocol: "stale:0".into(),
            ..Workload::default()
        };
        assert!(wl.train_config(&d).is_err());
    }

    #[test]
    fn workload_rejects_unknown_names() {
        let d = datasets::products_like(64, 0);
        let wl = Workload {
            arch: "transformer".into(),
            ..Workload::default()
        };
        assert!(wl.train_config(&d).is_err());
        let wl = Workload {
            dataset: "citeseer".into(),
            ..Workload::default()
        };
        assert!(wl.build_data(2).is_err());
        let wl = Workload {
            schedule: "cosine".into(),
            ..Workload::default()
        };
        assert!(wl.train_config(&d).is_err());
    }
}
