#![warn(missing_docs)]

//! Sequential Aggregation and Rematerialization (SAR) — the paper's core
//! contribution.
//!
//! This crate implements distributed full-batch GNN training exactly as
//! described in the paper:
//!
//! * [`DistGraph`] — per-worker partition blocks `G_{p,q}` with the fetch
//!   (`needed_from`) and serve (`serves_to`) index sets (§3.2).
//! * [`ShardView`] — what one layer's aggregation needs from a partition
//!   (row sets, blocks, serve lists); implemented by [`DistGraph`] and by
//!   an MFG level ([`mfg::LevelView`]).
//! * [`Worker`] — the per-worker runtime handle; its
//!   [`try_fetch_rounds`](Worker::try_fetch_rounds) is the one walker of
//!   the sequential one-partition-at-a-time exchange with optional
//!   prefetching (2/N vs 3/N memory, §3.4), and [`GradRouter`] the one
//!   error-routing exchange of Algorithm 2.
//! * [`seq_agg`] — Algorithms 1 and 2: [`sage_aggregate`] (case 1: no
//!   refetch) and [`gat_aggregate`] (case 2: refetch + recompute, with
//!   fused or two-step attention kernels).
//! * [`domain_parallel`] — the vanilla baseline that fetches all boundary
//!   features at once; GAT's attention saves them and every per-edge
//!   intermediate for backward (Fig. 1a).
//! * [`DistBatchNorm`] — distributed batch normalization via summary
//!   statistics (§3.4).
//! * [`dist_cs`] — distributed Correct & Smooth.
//! * [`DistModel`] / [`trainer`] — the paper's 3-layer GraphSage and GAT
//!   models and the full training recipe (label augmentation, Adam,
//!   decaying learning rate), runnable under every execution [`Mode`].
//!
//! The paper's central exactness claim — "the results of training are
//! exactly the same regardless of the number of machines" — is verified by
//! this workspace's integration tests, which compare losses and logits of
//! SAR runs at N ∈ {1, 2, 4, 8} against single-machine training.

pub mod checkpoint;
mod dist_bn;
pub mod dist_cs;
mod dist_graph;
pub mod domain_parallel;
pub mod inference;
pub mod mfg;
mod model;
pub mod plan;
mod protocol;
pub mod seq_agg;
mod shard;
pub mod spatial;
pub mod trainer;
mod view;
mod worker;

pub use dist_bn::DistBatchNorm;
pub use dist_graph::DistGraph;
pub use inference::{infer, try_infer, validate_params, InferError};
pub use model::{Arch, DistModel, Mode, ModelConfig, Projection};
pub use protocol::Protocol;
pub use seq_agg::{gat_aggregate, sage_aggregate, FakMode};
pub use shard::Shard;
pub use trainer::{run_worker, train, EpochRecord, RunReport, TrainConfig, WorkerReport};
pub use view::{ShardView, View};
pub use worker::{GradRouter, Worker};
