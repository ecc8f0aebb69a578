#![warn(missing_docs)]

//! Distributed inference serving on top of the SAR runtime.
//!
//! Training computes every layer over every node, full-batch. A serving
//! request asks for logits of a handful of nodes — recomputing the whole
//! graph per query would waste both compute and the rotation's bandwidth.
//! This crate keeps the trained cluster *resident* (each rank holds its
//! checkpoint parameters and feature partition) and answers each query
//! batch over the query set's **message-flow graph** (MFG): per-layer
//! bipartite slices of the [`DistGraph`](sar_core::DistGraph) built by
//! [`sar_core::mfg`], so every rank fetches only the rows the K-hop
//! neighborhood actually references. The training model's own layers
//! ([`DistModel::layer_forward`](sar_core::DistModel::layer_forward)) run
//! over each level's [`LevelView`](sar_core::mfg::LevelView), which makes
//! served logits **bitwise identical** to the corresponding rows of a
//! full-graph [`infer`](sar_core::infer) — the parity invariant this
//! crate's tests pin down.
//!
//! The moving parts:
//!
//! * [`ServeEngine`] — the per-rank resident core: MFG construction (an
//!   L-round request exchange), the restricted rotation forward, the
//!   per-level [`EmbedCache`], feature updates and checkpoint reloads.
//!   Rank 0 drives; other ranks sit in [`worker_loop`] serving the
//!   rotation.
//! * [`serve`] — the rank-0 front-end: accepts client connections over
//!   the same wire format as the worker mesh (new
//!   [`FrameKind::Request`](sar_comm::wire::FrameKind) /
//!   [`FrameKind::Response`](sar_comm::wire::FrameKind) frames), coalesces
//!   concurrent queries into one MFG execution with bounded queueing and
//!   a max-delay/max-batch policy, and drains in-flight requests before
//!   the rotation quiesces on shutdown.
//! * [`ServeClient`] — a synchronous client speaking the request codec in
//!   [`proto`].

mod cache;
mod client;
mod engine;
mod error;
pub mod proto;
mod server;

pub use cache::{CacheStats, EmbedCache};
pub use client::ServeClient;
pub use engine::{BatchStats, EngineSetup, RawParams, ServeEngine, StatsSnapshot, WorkerStep};
pub use error::ServeError;
pub use server::{serve, worker_loop, ServeSummary, ServerConfig};
