#![warn(missing_docs)]

//! Model building blocks for GNN training in the SAR reproduction.
//!
//! The distributed layers themselves live in `sar-core` (`DistModel`);
//! this crate holds what they are assembled from and the single-machine
//! references the tests check them against, built on `sar-tensor`
//! autograd and `sar-graph` kernels:
//!
//! * [`Linear`] — dense layer.
//! * [`graph_autograd`] — differentiable wrappers around the sparse
//!   kernels (SpMM, edge softmax, multi-head weighted SpMM, …).
//! * [`BatchNorm1d`] — single-machine batch normalization (the
//!   distributed variant lives in `sar-core`).
//! * [`Adam`] + [`LrSchedule`] — the optimizer and its schedule.
//! * [`loss`] — masked cross-entropy and accuracy.
//! * [`tail`] — the layer tail as row passes: distributed batch norm's
//!   passes and the Sage/GCN scale-residual-ReLU epilogue node.
//! * [`correct_and_smooth`] — the C&S post-processing of Huang et al.
//!   2020, applied in the paper after training.

pub mod batchnorm;
pub mod cs;
pub mod graph_autograd;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod tail;

pub use batchnorm::BatchNorm1d;
pub use cs::{correct_and_smooth, CsConfig};
pub use linear::Linear;
pub use metrics::ConfusionMatrix;
pub use optim::{Adam, LrSchedule};
