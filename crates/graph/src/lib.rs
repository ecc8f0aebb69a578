#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Graph substrate for the SAR reproduction — the DGL substitute.
//!
//! Provides:
//!
//! * [`CsrGraph`] — a compressed-sparse-row adjacency structure, possibly
//!   *bipartite* (rows = destination nodes, columns = source nodes). SAR's
//!   per-partition-pair blocks `G_{p,q}` are exactly such bipartite blocks,
//!   so the same kernels serve both single-machine and distributed paths.
//! * [`ops`] — raw sparse message-passing kernels on
//!   [`Tensor`](sar_tensor::Tensor)s: SpMM, edge score computation, edge
//!   softmax and their backward counterparts. Autograd wrappers live in
//!   `sar-nn`.
//! * [`generators`] — synthetic random graphs (Erdős–Rényi, R-MAT,
//!   degree-weighted stochastic block model).
//! * [`datasets`] — OGB stand-in node-classification datasets
//!   ([`datasets::products_like`], [`datasets::papers_like`]) with
//!   label-correlated features and train/val/test splits, replacing
//!   ogbn-products and ogbn-papers100M which cannot be downloaded here
//!   (see DESIGN.md §2).

mod csr;
pub mod datasets;
pub mod fused;
pub mod generators;
pub mod io;
pub mod ops;
mod walk;

pub use csr::{CsrGraph, ReverseIndex};
pub use datasets::Dataset;
