#![warn(missing_docs)]

//! Distributed runtime — the torch.distributed / OneCCL substitute for
//! the SAR reproduction.
//!
//! The paper runs on a Xeon cluster connected by 200 Gb/s InfiniBand.
//! Here the training algorithms talk to a pluggable [`Transport`] with
//! two backends:
//!
//! * **In-process channels** ([`ChannelTransport`], driven by
//!   [`Cluster`]): `N` worker threads inside one process, connected by
//!   unbounded channels. Memory is real (each worker thread's tensor
//!   allocations are tracked by `sar-tensor`'s thread-local accountant)
//!   and communication *time* is simulated: every message is charged to
//!   the receiving worker under an α–β [`CostModel`] (per-message
//!   latency plus bytes / bandwidth). Benchmarks report `epoch time =
//!   max over workers (measured compute + simulated communication)`,
//!   which reproduces the paper's communication-bound regimes (e.g.
//!   GAT+SAR at 128 workers) without real network hardware.
//! * **TCP** ([`TcpTransport`]): one OS process per rank exchanging
//!   length-prefixed, checksummed frames over per-peer sockets, with a
//!   rank-0 rendezvous that distributes the roster of (ephemeral) listen
//!   addresses. Communication time is *measured* wall-clock blocking time.
//!
//! Byte and message ledgers are identical across backends — both account
//! traffic in [`Payload::wire_len`] units (payload + frame header) — so a
//! TCP run can be validated byte-for-byte against a simulated one.
//!
//! # Example
//!
//! ```
//! use sar_comm::{Cluster, CostModel};
//!
//! let outcomes = Cluster::new(4, CostModel::default()).run(|ctx| {
//!     let total = ctx.all_reduce_sum_scalar(ctx.rank() as f32);
//!     total as u32
//! });
//! assert!(outcomes.iter().all(|o| o.result == 6)); // 0+1+2+3
//! ```

pub mod buffer;
mod cluster;
mod collectives;
mod ctx;
mod message;
mod net;
mod phase;
pub mod tcp;
pub mod time;
mod transport;
pub mod wire;

pub use cluster::{Cluster, WorkerOutcome};
pub use ctx::{LayerScope, PhaseScope, WorkerCtx};
pub use message::{Message, Payload};
pub use net::{CommStats, CostModel};
pub use phase::{Field, FieldKind, Phase, PhaseEntry, PhaseLedger};
pub use tcp::{TcpOpts, TcpTransport};
pub use time::{measure_cpu, thread_cpu_secs, CpuTimer};
pub use transport::{ChannelTransport, Clock, Transport, TransportError};
pub use wire::{WIRE_HEADER_LEN, WIRE_MAGIC};

/// The little-endian codec every wire and control body is written in. It
/// lives in `sar-tensor`, below the graph and checkpoint files that share
/// it; the `sar_comm::le::…` paths are kept for the wire's users.
pub use sar_tensor::le;
