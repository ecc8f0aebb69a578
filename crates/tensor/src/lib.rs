#![warn(missing_docs)]

//! Dense `f32` tensors with reverse-mode automatic differentiation and
//! per-thread memory accounting.
//!
//! This crate is the PyTorch-autograd substitute used by the SAR
//! (Sequential Aggregation and Rematerialization) reproduction. It provides
//! exactly the hooks SAR needs to cut the autograd tape around the
//! message-passing step of a GNN layer and re-materialize it during the
//! backward pass:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor of 1 to 3 dimensions with
//!   the usual elementwise, matrix-multiply, reduction and row
//!   gather/scatter operations.
//! * [`Var`] — a shared [`Tensor`] value plus its [`Edge`], the gradient
//!   slot on the tape. Operations on `Var`s record a computational graph
//!   of edges, each backward holding only the tensors it saved;
//!   [`Var::backward`] propagates gradients.
//! * [`Function`] — a trait for custom differentiable operations. SAR's
//!   sequential-aggregation forward/backward (Algorithms 1 and 2 of the
//!   paper) is installed through this trait from the `sar-core` crate.
//! * [`BitMask`] — one tracked bit per element: what a backward keeps
//!   when it reads only a sign (ReLU) or a keep draw (dropout).
//! * [`no_grad`] — pauses taping, mirroring `torch.no_grad()`. SAR runs the
//!   per-partition fetch/aggregate loop inside such a scope.
//! * [`memory`] — a thread-local byte accountant. Every live tensor's bytes
//!   are tracked, so a worker thread can report its *peak* resident tensor
//!   memory; this is how the paper's peak-memory figures are reproduced.
//!
//! # Example
//!
//! ```
//! use sar_tensor::{Tensor, Var};
//!
//! let w = Var::parameter(Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]));
//! let x = Var::constant(Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]));
//! let y = x.matmul(&w).relu().sum();
//! y.backward();
//! let g = w.grad().expect("gradient");
//! assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
//! ```

pub mod autograd;
mod bitmask;
pub mod gradcheck;
pub mod init;
pub mod le;
pub mod memory;
pub mod pool;
pub mod simd;
mod tensor;

pub use autograd::{grad_enabled, hstack, no_grad, Edge, Function, Saved, Var};
pub use bitmask::BitMask;
pub use memory::{MemScope, MemoryStats, MemoryTracker, PeakSite, ScopePeak, SiteGuard};
pub use tensor::Tensor;
