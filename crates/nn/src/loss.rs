//! Classification losses and metrics for node classification.

use sar_tensor::pool::{self, Output};
use sar_tensor::{Tensor, Var};

/// Masked cross-entropy: softmax over each row of `logits` followed by
/// negative log-likelihood averaged over the rows where `mask` is `true`.
///
/// When `normalizer` is `Some(m)`, divides by `m` instead of the local mask
/// count — distributed workers pass the *global* training-node count so
/// their per-worker losses sum to the exact full-batch loss.
///
/// One tape node: the log-softmax and its gradient are computed for the
/// masked rows only; every other row's gradient is `+0.0`.
///
/// # Panics
///
/// Panics if lengths disagree or a masked label is out of range.
pub fn cross_entropy_masked(
    logits: &Var,
    labels: &[u32],
    mask: &[bool],
    normalizer: Option<f32>,
) -> Var {
    let n = logits.value().rows();
    assert_eq!(labels.len(), n, "labels length mismatch");
    assert_eq!(mask.len(), n, "mask length mismatch");
    let count = mask.iter().filter(|&&m| m).count();
    let norm = normalizer.unwrap_or(count.max(1) as f32);
    let loss = masked_nll(&logits.value(), labels, mask);
    let value = Tensor::scalar((loss / norm as f64) as f32);
    let (x, labels, mask) = (logits.save(), labels.to_vec(), mask.to_vec());
    Var::from_op(
        value,
        vec![logits.edge()],
        "cross_entropy_masked",
        move |g| {
            let scale = g.item() / norm;
            vec![Some(masked_nll_backward(&x.get(), &labels, &mask, scale))]
        },
    )
}

/// The largest entry of a row (`-inf` for an empty one), NaN-skipping.
fn row_max(row: &[f32]) -> f32 {
    row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
}

/// `−Σ log_softmax(logits[i])[labels[i]]` over the rows where `mask` is
/// `true`, ascending, accumulated in `f64`. Rows outside the mask are
/// never read.
///
/// # Panics
///
/// Panics if a masked label is out of range.
// sar-check: deterministic(sequential: one f64 chain over the masked rows in
// ascending order; each row's denominator sums its classes in order)
fn masked_nll(logits: &Tensor, labels: &[u32], mask: &[bool]) -> f64 {
    let c = logits.cols();
    let mut loss = 0.0f64;
    for (i, &y) in labels.iter().enumerate().filter(|&(i, _)| mask[i]) {
        let y = y as usize;
        assert!(y < c, "label {y} out of range for {c} classes");
        let row = logits.row(i);
        let max = row_max(row);
        let log_denom = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
        loss -= (row[y] - max - log_denom) as f64;
    }
    loss
}

/// The gradient of `scale · masked_nll` with respect to `logits`: on a
/// masked row `d − softmax(row) · Σd` with `d = −scale · e_label`, every
/// other row `+0.0`. One row pass.
// sar-check: deterministic(one-writer-per-row: a masked row's denominator
// and gradient sum run over its own classes in order)
fn masked_nll_backward(logits: &Tensor, labels: &[u32], mask: &[bool], scale: f32) -> Tensor {
    let (n, c) = (logits.rows(), logits.cols());
    let mut dx = vec![0.0f32; n * c];
    let x = logits.data();
    pool::split_rows(n, [Output::row_owned(&mut dx, c)], move |lo, _, [dx]| {
        for (r, d) in dx.chunks_exact_mut(c).enumerate() {
            let i = lo + r;
            if !mask[i] {
                continue;
            }
            d[labels[i] as usize] = -scale;
            let d_sum: f32 = d.iter().sum();
            let row = &x[i * c..(i + 1) * c];
            let max = row_max(row);
            let mut denom = 0.0f32;
            for &v in row {
                denom += (v - max).exp();
            }
            for (d, &v) in d.iter_mut().zip(row) {
                *d -= (v - max).exp() / denom * d_sum;
            }
        }
    });
    Tensor::from_vec(&[n, c], dx)
}

/// Counts correct argmax predictions among masked rows; returns
/// `(correct, total)` so distributed workers can sum both before dividing.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn correct_count(logits: &Tensor, labels: &[u32], mask: &[bool]) -> (usize, usize) {
    assert_eq!(logits.rows(), labels.len(), "labels length mismatch");
    assert_eq!(logits.rows(), mask.len(), "mask length mismatch");
    let pred = logits.argmax_rows();
    let mut correct = 0;
    let mut total = 0;
    for i in 0..labels.len() {
        if mask[i] {
            total += 1;
            if pred[i] == labels[i] {
                correct += 1;
            }
        }
    }
    (correct, total)
}

/// Masked accuracy in `[0, 1]` (0 when the mask is empty).
pub fn accuracy(logits: &Tensor, labels: &[u32], mask: &[bool]) -> f64 {
    let (correct, total) = correct_count(logits, labels, mask);
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_logits_give_low_loss_and_full_accuracy() {
        let logits = Tensor::from_vec(&[3, 2], vec![10., -10., -10., 10., 10., -10.]);
        let labels = vec![0u32, 1, 0];
        let mask = vec![true; 3];
        let loss = cross_entropy_masked(&Var::constant(logits.clone()), &labels, &mask, None);
        assert!(loss.value().item() < 1e-3);
        assert_eq!(accuracy(&logits, &labels, &mask), 1.0);
    }

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[5, 4]);
        let labels = vec![0u32; 5];
        let mask = vec![true; 5];
        let loss = cross_entropy_masked(&Var::constant(logits), &labels, &mask, None);
        assert!((loss.value().item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn mask_excludes_rows() {
        let logits = Tensor::from_vec(&[2, 2], vec![10., -10., 10., -10.]);
        let labels = vec![0u32, 1]; // second row is wrong but masked out
        let mask = vec![true, false];
        assert_eq!(accuracy(&logits, &labels, &mask), 1.0);
        let (c, t) = correct_count(&logits, &labels, &mask);
        assert_eq!((c, t), (1, 1));
    }

    #[test]
    fn empty_mask_is_zero_accuracy() {
        let logits = Tensor::zeros(&[2, 2]);
        assert_eq!(accuracy(&logits, &[0, 0], &[false, false]), 0.0);
    }

    #[test]
    fn gradient_checks_numerically() {
        use rand::{rngs::StdRng, SeedableRng};
        let a = sar_tensor::init::randn(&[4, 3], 1.0, &mut StdRng::seed_from_u64(15));
        let labels = vec![0u32, 2, 1, 0];
        let mask = vec![true, false, true, true];
        sar_tensor::gradcheck::check_gradients(
            &[a],
            |vs| cross_entropy_masked(&vs[0], &labels, &mask, None),
            1e-2,
        );
    }

    #[test]
    fn normalizer_replaces_the_local_count() {
        let a = Var::constant(Tensor::zeros(&[2, 2]));
        let (labels, mask) = ([0u32, 1], [true, true]);
        let local = cross_entropy_masked(&a, &labels, &mask, None)
            .value()
            .item();
        let global = cross_entropy_masked(&a, &labels, &mask, Some(4.0))
            .value()
            .item();
        assert!((local / 2.0 - global).abs() < 1e-6);
    }

    #[test]
    fn gradient_only_on_masked_rows() {
        let x = Var::parameter(Tensor::zeros(&[3, 2]));
        let loss = cross_entropy_masked(&x, &[0, 1, 0], &[true, false, true], None);
        loss.backward();
        let g = x.grad().unwrap();
        assert!(g.row(0).iter().any(|&v| v != 0.0));
        assert!(g.row(1).iter().all(|&v| v == 0.0));
        assert!(g.row(2).iter().any(|&v| v != 0.0));
    }
}
