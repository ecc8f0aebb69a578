//! The layer tail as row passes: distributed batch normalization's two
//! passes each way, and the Sage/GCN epilogue `relu?(agg ⊙ s + (hw + b))`
//! as one tape node.
//!
//! Every function here is a pure pass over row-major `[n, F]` tensors; the
//! batch-norm tape node that all-reduces between them lives in `sar-core`.
//! Each replaces a composition of `Var` ops and keeps its bits: every
//! element is computed with the composition's operations in its order
//! (`x − μ` for its `x + (μ · (−1))`, which IEEE 754 defines to be the
//! same; Rust never contracts `a * b + c` into an FMA), the passes that
//! write rows run under [`pool::split_rows`], and every column sum is one
//! ascending-row chain per column from `0.0` — the order of
//! [`Tensor::sum_axis0`] — on one thread. So the results are the
//! composition's at any thread count (DESIGN.md §19). The column passes
//! are serial on purpose: at the benchmark's 50 000 × 64 one takes
//! 0.7–1.8 ms on one thread of the 2-core reference box, and a split into
//! column stripes (the only split that keeps the order) ran 1.5–2.4×
//! slower on two — each thread reads a stripe of every row, and the two
//! streams' line prefetches overlap.

use sar_tensor::pool::{self, Output};
use sar_tensor::{grad_enabled, BitMask, Edge, Tensor, Var};

/// Batch-norm statistics: `[Σx, Σx²]` per column, `2F` floats — the
/// buffer the forward all-reduces (`x²` rounded before it is summed).
// sar-check: deterministic(fixed-row-order: one thread adds rows 0, 1, … into
// every column's sums)
pub fn norm_stats(x: &Tensor) -> Vec<f32> {
    let f = x.cols();
    let mut sum = vec![0.0f32; f];
    let mut sq = vec![0.0f32; f];
    for row in x.data().chunks_exact(f) {
        for j in 0..f {
            sum[j] += row[j];
            sq[j] += row[j] * row[j];
        }
    }
    sum.extend(sq);
    sum
}

/// Batch-norm forward: `x̂ = (x − μ) ⊙ σ⁻¹` and `y = x̂ ⊙ γ + β`, one row
/// pass; returns `(y, x̂)`. Each `y` row is [`norm_affine`]'s, from the
/// stored `x̂` row, so `norm_affine(x̂, γ, β)` rebuilds `y` bit for bit.
///
/// # Panics
///
/// Panics if a per-column vector's length differs from the width.
// sar-check: deterministic(one-writer-per-row: element-wise, no accumulation)
pub fn norm_forward(
    x: &Tensor,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    beta: &[f32],
) -> (Tensor, Tensor) {
    let (n, f) = (x.rows(), x.cols());
    for v in [mean, inv_std, gamma, beta] {
        assert_eq!(v.len(), f, "per-column vector length must match columns");
    }
    let (mut y, mut x_hat) = (vec![0.0f32; n * f], vec![0.0f32; n * f]);
    let x = x.data();
    pool::split_rows(
        n,
        [
            Output::row_owned(&mut y, f),
            Output::row_owned(&mut x_hat, f),
        ],
        move |lo, hi, [y, x_hat]| {
            let rows = x[lo * f..hi * f].chunks_exact(f);
            for ((x, y), x_hat) in rows
                .zip(y.chunks_exact_mut(f))
                .zip(x_hat.chunks_exact_mut(f))
            {
                for j in 0..f {
                    x_hat[j] = (x[j] - mean[j]) * inv_std[j];
                }
                affine_row(x_hat, gamma, beta, y);
            }
        },
    );
    (
        Tensor::from_vec(&[n, f], y),
        Tensor::from_vec(&[n, f], x_hat),
    )
}

/// Batch-norm's affine step over one row: `y = x̂ ⊙ γ + β`.
fn affine_row(x_hat: &[f32], gamma: &[f32], beta: &[f32], y: &mut [f32]) {
    for (((y, &h), &g), &b) in y.iter_mut().zip(x_hat).zip(gamma).zip(beta) {
        *y = h * g + b;
    }
}

/// Batch-norm's output `y = x̂ ⊙ γ + β` from its kept `x̂`, one row pass:
/// the row function [`norm_forward`] uses, so the same bits.
///
/// # Panics
///
/// Panics if `gamma` or `beta` differs from the width.
// sar-check: deterministic(one-writer-per-row: element-wise, no accumulation)
pub fn norm_affine(x_hat: &Tensor, gamma: &[f32], beta: &[f32]) -> Tensor {
    let (n, f) = (x_hat.rows(), x_hat.cols());
    for v in [gamma, beta] {
        assert_eq!(v.len(), f, "per-column vector length must match columns");
    }
    let mut y = vec![0.0f32; n * f];
    let x_hat = x_hat.data();
    pool::split_rows(n, [Output::row_owned(&mut y, f)], move |lo, hi, [y]| {
        let rows = x_hat[lo * f..hi * f].chunks_exact(f);
        for (x_hat, y) in rows.zip(y.chunks_exact_mut(f)) {
            affine_row(x_hat, gamma, beta, y);
        }
    });
    Tensor::from_vec(&[n, f], y)
}

/// Batch-norm backward statistics for the output gradient `g`, one column
/// pass: `[Σg, Σ g⊙x̂, Σĝ, Σ ĝ⊙x̂]` with `ĝ = g ⊙ γ` — `dβ`, `dγ`, and
/// the two sums the input gradient all-reduces.
///
/// # Panics
///
/// Panics if `g` and `x_hat` differ in shape or `gamma` in width.
// sar-check: deterministic(fixed-row-order: one thread adds rows 0, 1, … into
// every column's sums)
pub fn norm_backward_stats(g: &Tensor, x_hat: &Tensor, gamma: &[f32]) -> [Vec<f32>; 4] {
    assert_eq!(g.shape(), x_hat.shape(), "gradient and x̂ shapes differ");
    let f = g.cols();
    assert_eq!(gamma.len(), f, "gamma length must match columns");
    let mut d_beta = vec![0.0f32; f];
    let mut d_gamma = vec![0.0f32; f];
    let mut sum_g = vec![0.0f32; f];
    let mut sum_gx = vec![0.0f32; f];
    for (g, x_hat) in g.data().chunks_exact(f).zip(x_hat.data().chunks_exact(f)) {
        for j in 0..f {
            let gh = g[j] * gamma[j];
            d_beta[j] += g[j];
            d_gamma[j] += g[j] * x_hat[j];
            sum_g[j] += gh;
            sum_gx[j] += gh * x_hat[j];
        }
    }
    [d_beta, d_gamma, sum_g, sum_gx]
}

/// Batch-norm input gradient, one row pass: `dx = ((ĝ − mean ĝ) − x̂ ⊙
/// mean(ĝ⊙x̂)) ⊙ σ⁻¹` with `ĝ = g ⊙ γ` and both means global.
///
/// # Panics
///
/// Panics if `g` and `x_hat` differ in shape or a per-column vector in
/// width.
// sar-check: deterministic(one-writer-per-row: element-wise, no accumulation)
pub fn norm_backward(
    g: &Tensor,
    x_hat: &Tensor,
    gamma: &[f32],
    mean_g: &[f32],
    mean_gx: &[f32],
    inv_std: &[f32],
) -> Tensor {
    assert_eq!(g.shape(), x_hat.shape(), "gradient and x̂ shapes differ");
    let (n, f) = (g.rows(), g.cols());
    for v in [gamma, mean_g, mean_gx, inv_std] {
        assert_eq!(v.len(), f, "per-column vector length must match columns");
    }
    let mut dx = vec![0.0f32; n * f];
    let (g, x_hat) = (g.data(), x_hat.data());
    pool::split_rows(n, [Output::row_owned(&mut dx, f)], move |lo, hi, [dx]| {
        let rows = g[lo * f..hi * f]
            .chunks_exact(f)
            .zip(x_hat[lo * f..hi * f].chunks_exact(f));
        for ((g, x_hat), dx) in rows.zip(dx.chunks_exact_mut(f)) {
            for j in 0..f {
                dx[j] = ((g[j] * gamma[j] - mean_g[j]) - x_hat[j] * mean_gx[j]) * inv_std[j];
            }
        }
    });
    Tensor::from_vec(&[n, f], dx)
}

/// The Sage/GCN epilogue, one row pass: `relu?(agg ⊙ s + (hw + b))` with
/// `s` one scale per row and the residual `(hw, b)` optional (GCN has
/// none).
///
/// # Panics
///
/// Panics if `scale` is not one entry per row, or the residual's shape
/// differs from `agg`'s.
// sar-check: deterministic(one-writer-per-row: each element takes its product,
// then at most one add)
pub fn epilogue_forward(
    agg: &Tensor,
    scale: &[f32],
    residual: Option<(&Tensor, &[f32])>,
    relu: bool,
) -> Tensor {
    let (n, f) = (agg.rows(), agg.cols());
    assert_eq!(scale.len(), n, "one scale per row");
    let residual = residual.map(|(hw, b)| {
        assert_eq!(hw.shape(), agg.shape(), "residual shape differs");
        assert_eq!(b.len(), f, "bias length must match columns");
        (hw.data(), b)
    });
    let mut out = vec![0.0f32; n * f];
    let agg = agg.data();
    pool::split_rows(n, [Output::row_owned(&mut out, f)], move |lo, _, [out]| {
        for (r, out) in out.chunks_exact_mut(f).enumerate() {
            let i = lo + r;
            let s = scale[i];
            for (o, &a) in out.iter_mut().zip(&agg[i * f..]) {
                *o = a * s;
            }
            if let Some((hw, b)) = residual {
                for ((o, &h), &b) in out.iter_mut().zip(&hw[i * f..]).zip(b) {
                    *o += h + b;
                }
            }
            if relu {
                for o in out {
                    *o = o.max(0.0);
                }
            }
        }
    });
    Tensor::from_vec(&[n, f], out)
}

/// Backward of [`epilogue_forward`]: the gated gradient `g' = g · bit`
/// under ReLU, with `mask` the bits of `out > 0` ([`BitMask::positive`] of
/// the output — set exactly where the pre-activation is positive, since
/// `relu(NaN)` is `0`), else `g' = g`; `d_agg = g' ⊙ s` by rows, and with a
/// residual `d_hw = g'` and `db = Σ_rows g'`. The gate is a multiply by
/// exactly `1.0` or `0.0`, the bits of the old `g · [out > 0]`: `g · 0.0`
/// is `−0.0` for a negative `g` and NaN for a non-finite one.
///
/// # Panics
///
/// Panics if `mask` and `g` differ in shape or `scale` is not one entry per
/// row.
// sar-check: deterministic(one-writer-per-row: element-wise rows; then one
// thread adds rows 0, 1, … into the bias sum)
pub fn epilogue_backward(
    g: &Tensor,
    mask: Option<&BitMask>,
    scale: &[f32],
    residual: bool,
) -> (Tensor, Option<(Tensor, Tensor)>) {
    let (n, f) = (g.rows(), g.cols());
    if let Some(m) = mask {
        assert_eq!(
            (m.rows(), m.cols()),
            (n, f),
            "gradient and mask shapes differ"
        );
    }
    assert_eq!(scale.len(), n, "one scale per row");
    let g = g.data();
    // `g'` lands in `d_hw`, which a layer without a residual drops.
    let (mut d_agg, mut d_hw) = (vec![0.0f32; n * f], vec![0.0f32; n * f]);
    pool::split_rows(
        n,
        [
            Output::row_owned(&mut d_agg, f),
            Output::row_owned(&mut d_hw, f),
        ],
        move |lo, _, [d_agg, d_hw]| {
            let parts = d_agg.chunks_exact_mut(f).zip(d_hw.chunks_exact_mut(f));
            for (r, (d_agg, d_hw)) in parts.enumerate() {
                let (i, s) = (lo + r, scale[lo + r]);
                let g = &g[i * f..(i + 1) * f];
                match mask {
                    Some(m) => m.gate_row(i, g, d_hw, 1.0),
                    None => d_hw.copy_from_slice(g),
                }
                for (da, &dh) in d_agg.iter_mut().zip(&*d_hw) {
                    *da = dh * s;
                }
            }
        },
    );
    let d_agg = Tensor::from_vec(&[n, f], d_agg);
    if !residual {
        return (d_agg, None);
    }
    let mut db = vec![0.0f32; f];
    for row in d_hw.chunks_exact(f) {
        for j in 0..f {
            db[j] += row[j];
        }
    }
    let db = Tensor::from_vec(&[f], db);
    (d_agg, Some((Tensor::from_vec(&[n, f], d_hw), db)))
}

/// The Sage/GCN layer tail as one tape node: `relu?(agg ⊙ s + (hw + b))`
/// (see [`epilogue_forward`]), with `scale` a constant `[n]` column, and
/// `residual = (hw, b)` the `[n, F]` residual product and its `[F]` bias.
/// The backward reads the scale and, under ReLU, one bit per output
/// element ([`BitMask`]) — never its inputs or its `[n, F]` output. No mask
/// is built when nothing takes a gradient (taping off, or no parent that
/// requires one).
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn epilogue(agg: &Var, scale: Tensor, residual: Option<(&Var, &Var)>, relu: bool) -> Var {
    let out = {
        let (a, r) = (agg.value(), residual.map(|(hw, b)| (hw.value(), b.value())));
        let r = r.as_ref().map(|(hw, b)| (&**hw, b.data()));
        epilogue_forward(&a, scale.data(), r, relu)
    };
    let mut parents = vec![agg.edge()];
    if let Some((hw, b)) = residual {
        parents.extend([hw.edge(), b.edge()]);
    }
    let need: Vec<bool> = parents.iter().map(Edge::requires_grad).collect();
    let taped = grad_enabled() && need.contains(&true);
    let mask = (relu && taped).then(|| BitMask::positive(&out));
    Var::from_op(out, parents, "epilogue", move |g| {
        let (d_agg, d_res) = epilogue_backward(g, mask.as_ref(), scale.data(), need.len() == 3);
        let mut grads = vec![Some(d_agg)];
        if let Some((d_hw, db)) = d_res {
            grads.extend([Some(d_hw), Some(db)]);
        }
        for (grad, &need) in grads.iter_mut().zip(&need) {
            if !need {
                *grad = None;
            }
        }
        grads
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_passes_are_empty() {
        let x = Tensor::zeros(&[0, 5]);
        assert_eq!(norm_stats(&x), vec![0.0; 10]);
        let ones = [1.0f32; 5];
        let (y, x_hat) = norm_forward(&x, &ones, &ones, &ones, &ones);
        assert_eq!((y.shape(), x_hat.shape()), (&[0, 5][..], &[0, 5][..]));
        let mask = BitMask::positive(&x);
        let (d_agg, res) = epilogue_backward(&x, Some(&mask), &[], true);
        assert_eq!(d_agg.shape(), &[0, 5]);
        assert_eq!(res.unwrap().1.data(), &[0.0; 5]);
    }

    #[test]
    fn a_relu_epilogue_keeps_one_bit_per_element_and_only_when_taped() {
        let (n, f) = (6, 70);
        let t = || {
            let data = (0..n * f).map(|k| ((k * 5 % 17) as f32 - 8.0) / 3.0);
            Tensor::from_vec(&[n, f], data.collect())
        };
        let live = || sar_tensor::MemoryTracker::stats().current_bytes as i64;
        // Counted from after the `[n]` scale is made: a taped node keeps
        // it, an untaped one drops it.
        let (out, scale) = ((4 * n * f) as i64, 4 * n as i64);
        let mask = (n * BitMask::words_per_row(f) * 8) as i64;
        let cases = [
            (Var::parameter(t()), true, false, out + mask),
            (Var::parameter(t()), false, false, out),
            (Var::constant(t()), true, false, out - scale),
            (Var::parameter(t()), true, true, out - scale),
        ];
        for (agg, relu, untaped, added) in cases {
            let (s, base) = (Tensor::ones(&[n]), live());
            let y = if untaped {
                sar_tensor::no_grad(|| epilogue(&agg, s, None, relu))
            } else {
                epilogue(&agg, s, None, relu)
            };
            let tag = format!(
                "relu {relu}, parameter {}, no_grad {untaped}",
                agg.requires_grad()
            );
            assert_eq!(live() - base, added, "{tag}");
            drop(y);
        }
    }
}
