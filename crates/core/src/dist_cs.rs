//! Distributed Correct & Smooth.
//!
//! The paper implements C&S "within the same framework as SAR since C&S
//! involves iterative propagation of messages throughout the graph that is
//! similar to a GNN layer" — here each propagation step reuses the
//! sequential per-partition fetch of [`Worker::fetch_rounds`], so C&S
//! inherits SAR's memory behaviour. C&S has no trainable parameters and no
//! backward pass.

use std::rc::Rc;

use sar_graph::ops;
use sar_nn::CsConfig;
use sar_tensor::Tensor;

use crate::worker::Worker;

/// One distributed step of symmetric-normalized propagation
/// `D^{-1/2} A D^{-1/2} X` over this worker's rows.
///
/// `inv_sqrt_deg_local` must be `deg^{-1/2}` of the local nodes (global
/// degrees). Collective: all workers must call in lockstep.
///
/// # Panics
///
/// Panics if shapes disagree with the shard.
pub fn dist_propagate_sym(w: &Rc<Worker>, x: &Tensor, inv_sqrt_deg_local: &Tensor) -> Tensor {
    let scaled = x.mul_col_broadcast(inv_sqrt_deg_local);
    let mut acc = Tensor::zeros(&[w.graph.num_local(), x.cols()]);
    w.fetch_rounds(&*w.graph, &scaled, |q, block| {
        ops::spmm_sum_into(w.graph.block(q), block, &mut acc);
    });
    acc.mul_col_broadcast(inv_sqrt_deg_local)
}

/// `deg^{-1/2}` of this worker's local nodes.
pub fn local_inv_sqrt_degrees(w: &Worker) -> Tensor {
    let d: Vec<f32> = w
        .graph
        .global_in_degree()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    Tensor::from_vec(&[w.graph.num_local()], d)
}

/// Distributed Correct & Smooth over sharded predictions.
///
/// `probs` are this worker's `[n_local, C]` softmax outputs; `labels` and
/// `train_mask` are local. Returns the smoothed local scores. Collective.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn dist_correct_and_smooth(
    w: &Rc<Worker>,
    probs: &Tensor,
    labels: &[u32],
    train_mask: &[bool],
    cfg: &CsConfig,
) -> Tensor {
    let n = probs.rows();
    let c = probs.cols();
    assert_eq!(labels.len(), n, "labels length mismatch");
    assert_eq!(train_mask.len(), n, "mask length mismatch");
    let inv_sqrt = local_inv_sqrt_degrees(w);

    // Correct: propagate the training residual.
    let mut e0 = Tensor::zeros(&[n, c]);
    for i in 0..n {
        if train_mask[i] {
            let y = labels[i] as usize;
            let row = e0.row_mut(i);
            for (j, r) in row.iter_mut().enumerate() {
                *r = (if j == y { 1.0 } else { 0.0 }) - probs.at(&[i, j]);
            }
        }
    }
    let mut e = e0.clone();
    for _ in 0..cfg.iters_correct {
        let prop = dist_propagate_sym(w, &e, &inv_sqrt);
        e = e0
            .scale(1.0 - cfg.alpha_correct)
            .add(&prop.scale(cfg.alpha_correct));
    }
    let corrected = probs.add(&e.scale(cfg.correction_scale));

    // Smooth: propagate with training labels clamped.
    let mut g0 = corrected;
    for i in 0..n {
        if train_mask[i] {
            let y = labels[i] as usize;
            let row = g0.row_mut(i);
            for (j, r) in row.iter_mut().enumerate() {
                *r = if j == y { 1.0 } else { 0.0 };
            }
        }
    }
    let mut g = g0.clone();
    for _ in 0..cfg.iters_smooth {
        let prop = dist_propagate_sym(w, &g, &inv_sqrt);
        g = g0
            .scale(1.0 - cfg.alpha_smooth)
            .add(&prop.scale(cfg.alpha_smooth));
    }
    g
}
