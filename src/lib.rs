#![warn(missing_docs)]

//! # SAR — Sequential Aggregation and Rematerialization
//!
//! A pure-Rust reproduction of *"Sequential Aggregation and
//! Rematerialization: Distributed Full-batch Training of Graph Neural
//! Networks on Large Graphs"* (Hesham Mostafa, MLSys 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense tensors, reverse-mode autograd, per-thread memory
//!   tracking (the PyTorch substitute).
//! * [`graph`] — CSR graphs, sparse message-passing kernels, synthetic
//!   OGB stand-in datasets (the DGL substitute).
//! * [`partition`] — METIS-like multilevel graph partitioner.
//! * [`comm`] — simulated cluster: worker threads, collectives, an α–β
//!   network cost model (the torch.distributed/OneCCL substitute).
//! * [`nn`] — GNN layers (GraphSage, GAT standard & fused-attention),
//!   optimizers, losses, Correct & Smooth.
//! * [`core`] — SAR itself: distributed graph shards, the
//!   sequential-aggregation forward pass (Algorithm 1), the
//!   rematerializing backward pass (Algorithm 2), the vanilla
//!   domain-parallel baseline, and the full-batch trainer.
//! * [`mod@bench`] — the experiment harness reproducing the paper's tables
//!   and figures, plus machine-readable [`bench::report::RunReport`]
//!   JSON for CI.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use sar_bench as bench;
pub use sar_comm as comm;
pub use sar_core as core;
pub use sar_graph as graph;
pub use sar_nn as nn;
pub use sar_partition as partition;
pub use sar_tensor as tensor;
