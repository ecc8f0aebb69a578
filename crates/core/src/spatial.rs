//! SAR beyond GNNs: spatially-parallel 1-D convolution.
//!
//! The paper's conclusion argues the SAR idea "is generally applicable to
//! any domain-parallel training situation, where the input is partitioned
//! across multiple workers, and each worker's output depends on parts of
//! the inputs to other workers", citing spatially-parallel CNNs (Dryden
//! et al. 2019; Jin et al. 2018). This module demonstrates that claim with
//! the machinery already built for graphs:
//!
//! a length-`L` 1-D domain (sequence, scan-line) is partitioned into
//! contiguous strips; a convolution with kernel radius `r` needs an
//! `r`-element halo from each spatial neighbor. Each kernel offset `k` is
//! expressed as a *shift graph* (node `i` has a single in-edge from
//! `i + k`), so the convolution is `Σ_k (A_k h) W_k` — a sum of SAR
//! sum-aggregations, each with its own weight. The sequential fetch,
//! rematerializing backward (case 1: shifts are linear), and memory
//! guarantees all carry over unchanged.

use std::rc::Rc;
use std::sync::Arc;

use rand::Rng;
use sar_graph::CsrGraph;
use sar_nn::Linear;
use sar_partition::Partitioning;
use sar_tensor::Var;

use crate::seq_agg::sage_aggregate;
use crate::view::View;
use crate::worker::Worker;
use crate::DistGraph;

/// The shift graph for offset `k` over a length-`len` domain:
/// `out[i] = x[i + k]` (zero at the boundary).
///
/// # Panics
///
/// Panics if `len == 0` or `|k| >= len`.
pub fn shift_graph(len: usize, k: isize) -> CsrGraph {
    assert!(len > 0, "domain must be non-empty");
    assert!((k.unsigned_abs()) < len, "shift exceeds domain length");
    let edges: Vec<(u32, u32)> = (0..len as isize)
        .filter_map(|i| {
            let src = i + k;
            (src >= 0 && src < len as isize).then_some((src as u32, i as u32))
        })
        .collect();
    CsrGraph::from_edges(len, &edges)
}

/// Builds the per-worker [`DistGraph`]s for every kernel offset of a
/// radius-`r` convolution over a contiguously partitioned 1-D domain.
///
/// Returns one `Vec<Arc<DistGraph>>` per offset `k ∈ [-r, r]`, each of
/// length `world` (indexed by rank).
///
/// # Panics
///
/// Panics if the partitioning does not cover `len` elements.
pub fn build_conv1d_graphs(
    len: usize,
    radius: usize,
    partitioning: &Partitioning,
) -> Vec<Vec<Arc<DistGraph>>> {
    assert_eq!(
        partitioning.assignment().len(),
        len,
        "partitioning mismatch"
    );
    (-(radius as isize)..=radius as isize)
        .map(|k| {
            DistGraph::build_all(&shift_graph(len, k), partitioning)
                .into_iter()
                .map(Arc::new)
                .collect()
        })
        .collect()
}

/// A distributed 1-D convolution layer: `out[i] = Σ_k x[i+k] W_k (+ b)`,
/// with each offset's gather running through SAR's sequential aggregation.
#[derive(Debug)]
pub struct DistConv1d {
    taps: Vec<Linear>, // one per offset, index 0 ↔ k = -radius
}

impl DistConv1d {
    /// Creates a radius-`radius` convolution mapping `in_dim → out_dim`
    /// channels (kernel size `2·radius + 1`). Only the center tap carries
    /// a bias.
    pub fn new(in_dim: usize, out_dim: usize, radius: usize, rng: &mut impl Rng) -> Self {
        let taps = (0..2 * radius + 1)
            .map(|t| Linear::new(in_dim, out_dim, t == radius, rng))
            .collect();
        DistConv1d { taps }
    }

    /// Trainable parameters (per-tap weights + center bias).
    pub fn params(&self) -> Vec<Var> {
        self.taps.iter().flat_map(Linear::params).collect()
    }

    /// Applies the convolution to this worker's strip.
    ///
    /// `views[t]` must be this rank's offset-`t` shift graph from
    /// [`build_conv1d_graphs`]; the one worker walks them all, each
    /// exchange under the next tag of its stream.
    ///
    /// # Panics
    ///
    /// Panics if `views` does not have one entry per kernel tap, `x` has
    /// the wrong shape, or (naming this rank) a peer fails mid-exchange.
    pub fn forward(&self, w: &Rc<Worker>, views: &[View], x: &Var) -> Var {
        assert_eq!(
            views.len(),
            self.taps.len(),
            "need one view (offset graph) per kernel tap"
        );
        let mut acc: Option<Var> = None;
        for (view, tap) in views.iter().zip(&self.taps) {
            // z = x W_k, then SAR-aggregate over the shift graph (each
            // node has in-degree ≤ 1, so the sum aggregation IS the shift).
            let z = tap.forward(x);
            let shifted = sage_aggregate(w, view, &z)
                .unwrap_or_else(|e| panic!("worker {} conv tap exchange: {e}", w.rank()));
            acc = Some(match acc {
                Some(a) => a.add(&shifted),
                None => shifted,
            });
        }
        acc.expect("at least one tap")
    }
}
