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
use sar_tensor::{Function, Tensor, Var};

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
/// pass; returns `(y, x̂)`.
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
                    let h = (x[j] - mean[j]) * inv_std[j];
                    x_hat[j] = h;
                    y[j] = h * gamma[j] + beta[j];
                }
            }
        },
    );
    (
        Tensor::from_vec(&[n, f], y),
        Tensor::from_vec(&[n, f], x_hat),
    )
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

/// Backward of [`epilogue_forward`] from its output `out`: the gated
/// gradient `g' = g · [out > 0]` under ReLU (`out > 0` exactly where the
/// pre-activation is, since `relu(NaN)` is `0`), else `g`; `d_agg = g' ⊙
/// s` by rows, and with a residual `d_hw = g'` and `db = Σ_rows g'`.
///
/// # Panics
///
/// Panics if `g` and `out` differ in shape or `scale` is not one entry per
/// row.
// sar-check: deterministic(one-writer-per-row: element-wise rows; then one
// thread adds rows 0, 1, … into the bias sum)
pub fn epilogue_backward(
    g: &Tensor,
    out: &Tensor,
    scale: &[f32],
    relu: bool,
    residual: bool,
) -> (Tensor, Option<(Tensor, Tensor)>) {
    assert_eq!(g.shape(), out.shape(), "gradient and output shapes differ");
    let (n, f) = (g.rows(), g.cols());
    assert_eq!(scale.len(), n, "one scale per row");
    let (g, out) = (g.data(), out.data());
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
                let row = g[i * f..].iter().zip(&out[i * f..]);
                for ((da, dh), (&g, &o)) in d_agg.iter_mut().zip(d_hw.iter_mut()).zip(row) {
                    *dh = if relu {
                        g * if o > 0.0 { 1.0 } else { 0.0 }
                    } else {
                        g
                    };
                    *da = *dh * s;
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

/// The epilogue's tape node: parents `[agg]` or `[agg, hw, b]`.
struct EpilogueFn {
    parents: Vec<Var>,
    scale: Tensor,
    relu: bool,
}

impl Function for EpilogueFn {
    fn parents(&self) -> &[Var] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "epilogue"
    }

    fn backward(&self, grad_output: &Tensor, output: &Tensor) -> Vec<Option<Tensor>> {
        let residual = self.parents.len() == 3;
        let (d_agg, d_res) =
            epilogue_backward(grad_output, output, self.scale.data(), self.relu, residual);
        let mut grads = vec![Some(d_agg)];
        if let Some((d_hw, db)) = d_res {
            grads.extend([Some(d_hw), Some(db)]);
        }
        for (grad, p) in grads.iter_mut().zip(&self.parents) {
            if !p.requires_grad() {
                *grad = None;
            }
        }
        grads
    }
}

/// The Sage/GCN layer tail as one tape node: `relu?(agg ⊙ s + (hw + b))`
/// (see [`epilogue_forward`]), with `scale` a constant `[n]` column, and
/// `residual = (hw, b)` the `[n, F]` residual product and its `[F]` bias.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn epilogue(agg: &Var, scale: Tensor, residual: Option<(&Var, &Var)>, relu: bool) -> Var {
    let value = {
        let (a, r) = (agg.value(), residual.map(|(hw, b)| (hw.value(), b.value())));
        let r = r.as_ref().map(|(hw, b)| (&**hw, b.data()));
        epilogue_forward(&a, scale.data(), r, relu)
    };
    let mut parents = vec![agg.clone()];
    if let Some((hw, b)) = residual {
        parents.extend([hw.clone(), b.clone()]);
    }
    Var::from_function(
        value,
        EpilogueFn {
            parents,
            scale,
            relu,
        },
    )
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
        let (d_agg, res) = epilogue_backward(&x, &x, &[], true, true);
        assert_eq!(d_agg.shape(), &[0, 5]);
        assert_eq!(res.unwrap().1.data(), &[0.0; 5]);
    }
}
