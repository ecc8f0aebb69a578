//! Built-in differentiable operations on [`Var`].
//!
//! Backward closures capture parent `Var` handles (not tensor copies)
//! wherever possible, so the memory held by the tape mirrors what a real
//! autograd framework keeps alive — which is exactly what the SAR memory
//! experiments measure.
//!
//! A binary operation's closure returns `None` for a parent that does not
//! [require a gradient](Var::requires_grad) instead of computing a tensor
//! the engine would drop: the input features of layer 0 and the degree
//! column of mean aggregation are constants as large as an activation.

use super::Var;
use crate::Tensor;

/// Horizontally concatenates 2-D variables (along columns), with the
/// backward pass splitting the gradient back into per-input column slices.
///
/// Used by jumping-knowledge-style architectures that classify from the
/// concatenation of all layer outputs.
///
/// # Panics
///
/// Panics if `vars` is empty or row counts differ.
pub fn hstack(vars: &[Var]) -> Var {
    assert!(!vars.is_empty(), "hstack of zero variables");
    let values: Vec<Tensor> = vars.iter().map(Var::value_clone).collect();
    let refs: Vec<&Tensor> = values.iter().collect();
    let value = Tensor::hstack(&refs);
    let widths: Vec<usize> = values.iter().map(Tensor::cols).collect();
    drop(values);
    Var::from_op(value, vars.to_vec(), "hstack", move |g| {
        let mut out = Vec::with_capacity(widths.len());
        let mut off = 0;
        for &w in &widths {
            out.push(Some(g.slice_cols(off..off + w)));
            off += w;
        }
        out
    })
}

impl Var {
    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Var) -> Var {
        let value = self.value().add(&other.value());
        let (need_a, need_b) = (self.requires_grad(), other.requires_grad());
        Var::from_op(value, vec![self.clone(), other.clone()], "add", move |g| {
            vec![need_a.then(|| g.clone()), need_b.then(|| g.clone())]
        })
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Var) -> Var {
        let value = self.value().sub(&other.value());
        let (need_a, need_b) = (self.requires_grad(), other.requires_grad());
        Var::from_op(value, vec![self.clone(), other.clone()], "sub", move |g| {
            vec![need_a.then(|| g.clone()), need_b.then(|| g.scale(-1.0))]
        })
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Var) -> Var {
        let value = self.value().mul(&other.value());
        let (a, b) = (self.clone(), other.clone());
        Var::from_op(value, vec![self.clone(), other.clone()], "mul", move |g| {
            vec![
                a.requires_grad().then(|| g.mul(&b.value())),
                b.requires_grad().then(|| g.mul(&a.value())),
            ]
        })
    }

    /// Elementwise quotient.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn div(&self, other: &Var) -> Var {
        let value = self.value().div(&other.value());
        let (a, b) = (self.clone(), other.clone());
        Var::from_op(value, vec![self.clone(), other.clone()], "div", move |g| {
            let bv = b.value();
            let da = a.requires_grad().then(|| g.div(&bv));
            let db = b.requires_grad().then(|| {
                g.mul(&a.value())
                    .zip_map(&bv, |num, den| -num / (den * den))
            });
            vec![da, db]
        })
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Var {
        let value = self.value().scale(s);
        Var::from_op(value, vec![self.clone()], "scale", move |g| {
            vec![Some(g.scale(s))]
        })
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        let value = self.value().add_scalar(s);
        Var::from_op(value, vec![self.clone()], "add_scalar", |g| {
            vec![Some(g.clone())]
        })
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Elementwise square root.
    ///
    /// Gradients are infinite at zero; callers should add an epsilon first
    /// (as batch normalization does).
    pub fn sqrt(&self) -> Var {
        let value = self.value().map(f32::sqrt);
        let a = self.clone();
        Var::from_op(value, vec![self.clone()], "sqrt", move |g| {
            let dv = a.value().map(|x| 0.5 / x.sqrt());
            vec![Some(g.mul(&dv))]
        })
    }

    /// Elementwise natural exponent.
    pub fn exp(&self) -> Var {
        let value = self.value().map(f32::exp);
        let a = self.clone();
        Var::from_op(value, vec![self.clone()], "exp", move |g| {
            vec![Some(g.mul(&a.value().map(f32::exp)))]
        })
    }

    /// Elementwise natural logarithm.
    pub fn log(&self) -> Var {
        let value = self.value().map(f32::ln);
        let a = self.clone();
        Var::from_op(value, vec![self.clone()], "log", move |g| {
            vec![Some(g.div(&a.value()))]
        })
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let value = self.value().map(|x| x.max(0.0));
        let a = self.clone();
        Var::from_op(value, vec![self.clone()], "relu", move |g| {
            let dx = g.zip_map(&a.value(), |gv, x| gv * if x > 0.0 { 1.0 } else { 0.0 });
            vec![Some(dx)]
        })
    }

    /// Leaky rectified linear unit with the given negative slope.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let value = self.value().map(|x| if x > 0.0 { x } else { slope * x });
        let a = self.clone();
        Var::from_op(value, vec![self.clone()], "leaky_relu", move |g| {
            let dx = g.zip_map(&a.value(), |gv, x| gv * if x > 0.0 { 1.0 } else { slope });
            vec![Some(dx)]
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.value().map(|x| 1.0 / (1.0 + (-x).exp()));
        let a = self.clone();
        Var::from_op(value, vec![self.clone()], "sigmoid", move |g| {
            let dv = a.value().map(|x| {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            });
            vec![Some(g.mul(&dv))]
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.value().map(f32::tanh);
        let a = self.clone();
        Var::from_op(value, vec![self.clone()], "tanh", move |g| {
            let dv = a.value().map(|x| 1.0 - x.tanh() * x.tanh());
            vec![Some(g.mul(&dv))]
        })
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product of 2-D variables.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions differ.
    pub fn matmul(&self, other: &Var) -> Var {
        let value = self.value().matmul(&other.value());
        let (a, b) = (self.clone(), other.clone());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            "matmul",
            move |g| {
                let da = a.requires_grad().then(|| g.matmul_nt(&b.value()));
                let db = b.requires_grad().then(|| a.value().matmul_tn(g));
                vec![da, db]
            },
        )
    }

    /// Adds a 1-D bias to every row of a 2-D variable.
    ///
    /// # Panics
    ///
    /// Panics if the bias length differs from the column count.
    pub fn add_bias(&self, bias: &Var) -> Var {
        let value = self.value().add_row_broadcast(&bias.value());
        let (need_a, need_b) = (self.requires_grad(), bias.requires_grad());
        let parents = vec![self.clone(), bias.clone()];
        Var::from_op(value, parents, "add_bias", move |g| {
            vec![need_a.then(|| g.clone()), need_b.then(|| g.sum_axis0())]
        })
    }

    /// Subtracts a 1-D row vector from every row.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the column count.
    pub fn sub_row(&self, row: &Var) -> Var {
        let value = self.value().add_row_broadcast(&row.value().scale(-1.0));
        let (need_a, need_r) = (self.requires_grad(), row.requires_grad());
        let parents = vec![self.clone(), row.clone()];
        Var::from_op(value, parents, "sub_row", move |g| {
            vec![
                need_a.then(|| g.clone()),
                need_r.then(|| g.sum_axis0().scale(-1.0)),
            ]
        })
    }

    /// Multiplies every row elementwise by a 1-D row vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the column count.
    pub fn mul_row(&self, row: &Var) -> Var {
        let value = self.value().mul_row_broadcast(&row.value());
        let (a, r) = (self.clone(), row.clone());
        Var::from_op(
            value,
            vec![self.clone(), row.clone()],
            "mul_row",
            move |g| {
                let da = a.requires_grad().then(|| g.mul_row_broadcast(&r.value()));
                let dr = r.requires_grad().then(|| g.mul(&a.value()).sum_axis0());
                vec![da, dr]
            },
        )
    }

    /// Divides every row elementwise by a 1-D row vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the column count.
    pub fn div_row(&self, row: &Var) -> Var {
        let inv = {
            let r = row.value().map(|x| 1.0 / x);
            Var::from_op(r, vec![row.clone()], "recip", {
                let row = row.clone();
                move |g| {
                    let dv = row.value().map(|x| -1.0 / (x * x));
                    vec![Some(g.mul(&dv))]
                }
            })
        };
        self.mul_row(&inv)
    }

    /// Multiplies each row `i` by the per-row scalar `col[i]`.
    ///
    /// Used for degree normalization in mean aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `col` length differs from the row count.
    pub fn mul_col(&self, col: &Var) -> Var {
        let value = self.value().mul_col_broadcast(&col.value());
        let (a, c) = (self.clone(), col.clone());
        Var::from_op(
            value,
            vec![self.clone(), col.clone()],
            "mul_col",
            move |g| {
                let da = a.requires_grad().then(|| g.mul_col_broadcast(&c.value()));
                let dc = c.requires_grad().then(|| g.mul(&a.value()).sum_axis1());
                vec![da, dc]
            },
        )
    }

    // ------------------------------------------------------------------
    // Reductions and reshaping
    // ------------------------------------------------------------------

    /// Sum of all elements, as a 1-element variable.
    pub fn sum(&self) -> Var {
        let shape = self.shape();
        let value = Tensor::scalar(self.value().sum());
        Var::from_op(value, vec![self.clone()], "sum", move |g| {
            vec![Some(Tensor::full(&shape, g.item()))]
        })
    }

    /// Mean of all elements, as a 1-element variable.
    pub fn mean(&self) -> Var {
        let n = self.value().numel() as f32;
        self.sum().scale(1.0 / n)
    }

    /// Column sums of a 2-D variable, as a 1-D variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not 2-D.
    pub fn sum_axis0(&self) -> Var {
        let rows = self.value().rows();
        let cols = self.value().cols();
        let value = self.value().sum_axis0();
        Var::from_op(value, vec![self.clone()], "sum_axis0", move |g| {
            let mut out = Tensor::zeros(&[rows, cols]);
            for i in 0..rows {
                out.row_mut(i).copy_from_slice(g.data());
            }
            vec![Some(out)]
        })
    }

    /// Views the variable under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let old_shape = self.shape();
        let value = self.value().reshape(shape);
        Var::from_op(value, vec![self.clone()], "reshape", move |g| {
            vec![Some(g.reshape(&old_shape))]
        })
    }

    // ------------------------------------------------------------------
    // Row gather / softmax / losses
    // ------------------------------------------------------------------

    /// Gathers rows by index: `out[k] = self[idx[k]]`.
    ///
    /// The backward pass scatter-adds gradients into the source rows —
    /// this is the primitive behind fetching boundary-node features in
    /// domain-parallel training.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[u32]) -> Var {
        let value = self.value().gather_rows(idx);
        let idx = idx.to_vec();
        let rows = self.value().rows();
        let cols = self.value().cols();
        Var::from_op(value, vec![self.clone()], "gather_rows", move |g| {
            let mut out = Tensor::zeros(&[rows, cols]);
            out.scatter_add_rows(&idx, g);
            vec![Some(out)]
        })
    }

    /// Numerically-stable row-wise softmax of a 2-D variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not 2-D.
    pub fn softmax_rows(&self) -> Var {
        let value = self.value().softmax_rows();
        let a = self.clone();
        Var::from_op(value, vec![self.clone()], "softmax_rows", move |g| {
            let s = a.value().softmax_rows();
            // dX[i] = s[i] * (g[i] - <g[i], s[i]>)
            let dot = g.mul(&s).sum_axis1();
            let mut dx = g.clone();
            let c = s.cols();
            for (i, row) in dx.data_mut().chunks_mut(c).enumerate() {
                let d = dot.data()[i];
                for (x, &sv) in row.iter_mut().zip(s.row(i)) {
                    *x = sv * (*x - d);
                }
            }
            vec![Some(dx)]
        })
    }

    /// Numerically-stable row-wise log-softmax of a 2-D variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not 2-D.
    pub fn log_softmax_rows(&self) -> Var {
        let value = self.value().log_softmax_rows();
        let a = self.clone();
        Var::from_op(value, vec![self.clone()], "log_softmax_rows", move |g| {
            let s = a.value().softmax_rows();
            // dX = g - softmax * rowsum(g)
            let rowsum = g.sum_axis1();
            let mut dx = g.clone();
            let c = s.cols();
            for (i, row) in dx.data_mut().chunks_mut(c).enumerate() {
                let r = rowsum.data()[i];
                for (x, &sv) in row.iter_mut().zip(s.row(i)) {
                    *x -= sv * r;
                }
            }
            vec![Some(dx)]
        })
    }

    /// Negative log-likelihood of `labels` under row-wise log-probabilities,
    /// averaged over the rows where `mask` is `true`, optionally scaled by
    /// `1 / normalizer` instead of the local mask count.
    ///
    /// `self` must be `[N, C]` log-probabilities (e.g. from
    /// [`Var::log_softmax_rows`]). Rows with `mask[i] == false` contribute
    /// nothing and receive zero gradient. When `normalizer` is `Some(m)`,
    /// the loss is `Σ_masked -logp / m` — distributed training passes the
    /// *global* masked count here so that per-worker losses sum to the
    /// full-batch loss.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or any masked label is out of range.
    pub fn nll_masked(&self, labels: &[u32], mask: &[bool], normalizer: Option<f32>) -> Var {
        let (n, c) = (self.value().rows(), self.value().cols());
        assert_eq!(labels.len(), n, "labels length mismatch");
        assert_eq!(mask.len(), n, "mask length mismatch");
        let count = mask.iter().filter(|&&m| m).count();
        let norm = normalizer.unwrap_or(count.max(1) as f32);
        let mut loss = 0.0f64;
        {
            let v = self.value();
            for i in 0..n {
                if mask[i] {
                    let y = labels[i] as usize;
                    assert!(y < c, "label {y} out of range for {c} classes");
                    loss -= v.at(&[i, y]) as f64;
                }
            }
        }
        let value = Tensor::scalar((loss / norm as f64) as f32);
        let labels = labels.to_vec();
        let mask = mask.to_vec();
        Var::from_op(value, vec![self.clone()], "nll_masked", move |g| {
            let scale = g.item() / norm;
            let mut dx = Tensor::zeros(&[n, c]);
            for i in 0..n {
                if mask[i] {
                    dx.row_mut(i)[labels[i] as usize] = -scale;
                }
            }
            vec![Some(dx)]
        })
    }

    /// Dropout: zeroes each element with probability `p` and scales the
    /// survivors by `1 / (1 - p)` (inverted dropout). Identity when
    /// `training` is `false` or `p == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn dropout(&self, p: f32, training: bool, rng: &mut impl rand::Rng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        if !training || p == 0.0 {
            return self.clone();
        }
        let keep = 1.0 - p;
        let mask_data: Vec<f32> = (0..self.value().numel())
            .map(|_| {
                if rng.random::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mask = Tensor::from_vec(&self.shape(), mask_data);
        let value = self.value().mul(&mask);
        Var::from_op(value, vec![self.clone()], "dropout", move |g| {
            vec![Some(g.mul(&mask))]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randn(shape: &[usize], seed: u64) -> Tensor {
        crate::init::randn(shape, 1.0, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn add_sub_mul_div_gradients() {
        let a = randn(&[3, 4], 1);
        let b = randn(&[3, 4], 2).map(|x| x + 3.0); // keep away from 0 for div
        check_gradients(&[a.clone(), b.clone()], |vs| vs[0].add(&vs[1]).sum(), 1e-2);
        check_gradients(&[a.clone(), b.clone()], |vs| vs[0].sub(&vs[1]).sum(), 1e-2);
        check_gradients(&[a.clone(), b.clone()], |vs| vs[0].mul(&vs[1]).sum(), 1e-2);
        check_gradients(&[a, b], |vs| vs[0].div(&vs[1]).sum(), 1e-2);
    }

    #[test]
    fn matmul_gradients() {
        let a = randn(&[3, 4], 3);
        let b = randn(&[4, 2], 4);
        check_gradients(&[a, b], |vs| vs[0].matmul(&vs[1]).sum(), 1e-2);
    }

    #[test]
    fn constant_left_matmul_backward_never_builds_the_input_gradient() {
        // [m, k] dwarfs [m, n] and [k, n]: only dX could reach its size.
        let (m, k, n) = (64, 48, 4);
        let (x, w, g) = (randn(&[m, k], 23), randn(&[k, n], 24), randn(&[m, n], 25));
        let expect = x.matmul_tn(&g);
        let (x, w) = (Var::constant(x), Var::parameter(w));
        let y = x.matmul(&w);
        let scope = crate::memory::MemScope::begin();
        y.backward_with(&g);
        let peak = scope.finish().delta_bytes();
        let dw = w.grad().unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dw), bits(&expect));
        assert!(x.grad().is_none());
        assert!(
            peak < m * k * 4,
            "backward peaked at {peak} B, a [{m}, {k}] gradient is {} B",
            m * k * 4
        );
    }

    #[test]
    fn activation_gradients() {
        let a = randn(&[4, 3], 5).map(|x| x + 0.05); // avoid relu kink at 0
        check_gradients(std::slice::from_ref(&a), |vs| vs[0].relu().sum(), 2e-2);
        check_gradients(
            std::slice::from_ref(&a),
            |vs| vs[0].leaky_relu(0.2).sum(),
            2e-2,
        );
        check_gradients(std::slice::from_ref(&a), |vs| vs[0].sigmoid().sum(), 1e-2);
        check_gradients(&[a], |vs| vs[0].tanh().sum(), 1e-2);
    }

    #[test]
    fn exp_log_sqrt_gradients() {
        let a = randn(&[3, 3], 6).map(|x| x.abs() + 0.5);
        check_gradients(std::slice::from_ref(&a), |vs| vs[0].exp().sum(), 1e-2);
        check_gradients(std::slice::from_ref(&a), |vs| vs[0].log().sum(), 1e-2);
        check_gradients(&[a], |vs| vs[0].sqrt().sum(), 1e-2);
    }

    #[test]
    fn broadcast_gradients() {
        let a = randn(&[4, 3], 7);
        let row = randn(&[3], 8).map(|x| x + 2.0);
        let col = randn(&[4], 9);
        check_gradients(
            &[a.clone(), row.clone()],
            |vs| vs[0].add_bias(&vs[1]).sum(),
            1e-2,
        );
        check_gradients(
            &[a.clone(), row.clone()],
            |vs| vs[0].sub_row(&vs[1]).sum(),
            1e-2,
        );
        check_gradients(
            &[a.clone(), row.clone()],
            |vs| vs[0].mul_row(&vs[1]).sum(),
            1e-2,
        );
        check_gradients(&[a.clone(), row], |vs| vs[0].div_row(&vs[1]).sum(), 1e-2);
        check_gradients(&[a, col], |vs| vs[0].mul_col(&vs[1]).sum(), 1e-2);
    }

    #[test]
    fn softmax_gradients() {
        let a = randn(&[3, 5], 10);
        // Weighted sums make the softmax gradient non-trivial.
        let w = Var::constant(randn(&[3, 5], 11));
        check_gradients(
            std::slice::from_ref(&a),
            |vs| vs[0].softmax_rows().mul(&w).sum(),
            1e-2,
        );
        let w2 = Var::constant(randn(&[3, 5], 12));
        check_gradients(&[a], |vs| vs[0].log_softmax_rows().mul(&w2).sum(), 1e-2);
    }

    #[test]
    fn gather_rows_gradient() {
        let a = randn(&[5, 3], 13);
        let idx = vec![4u32, 0, 0, 2];
        let w = Var::constant(randn(&[4, 3], 14));
        check_gradients(&[a], |vs| vs[0].gather_rows(&idx).mul(&w).sum(), 1e-2);
    }

    #[test]
    fn nll_masked_gradient() {
        let a = randn(&[4, 3], 15);
        let labels = vec![0u32, 2, 1, 0];
        let mask = vec![true, false, true, true];
        check_gradients(
            &[a],
            |vs| vs[0].log_softmax_rows().nll_masked(&labels, &mask, None),
            1e-2,
        );
    }

    #[test]
    fn nll_masked_normalizer_scales_loss() {
        let a = Var::constant(Tensor::from_vec(&[2, 2], vec![0.0, 0.0, 0.0, 0.0]));
        let lp = a.log_softmax_rows();
        let labels = vec![0u32, 1];
        let mask = vec![true, true];
        let local = lp.nll_masked(&labels, &mask, None).value().item();
        let global = lp.nll_masked(&labels, &mask, Some(4.0)).value().item();
        assert!((local / 2.0 - global).abs() < 1e-6);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Var::parameter(randn(&[10, 10], 16));
        let y = x.dropout(0.5, false, &mut rng);
        assert!(y.value().allclose(&x.value(), 0.0));
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Var::constant(Tensor::ones(&[100, 100]));
        let y = x.dropout(0.3, true, &mut rng);
        let mean = y.value().mean();
        assert!(
            (mean - 1.0).abs() < 0.05,
            "inverted dropout mean ≈ 1, got {mean}"
        );
    }

    #[test]
    fn dropout_gradient_uses_same_mask() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Var::parameter(Tensor::ones(&[50, 2]));
        let y = x.dropout(0.5, true, &mut rng);
        let out = y.value_clone();
        y.sum().backward();
        let g = x.grad().unwrap();
        // Gradient must be the mask itself (scaled), i.e. equal to output
        // since input was all ones.
        assert!(g.allclose(&out, 1e-6));
    }

    #[test]
    fn sum_axis0_and_reshape_gradients() {
        let a = randn(&[3, 4], 17);
        let w = Var::constant(randn(&[4], 18));
        check_gradients(
            std::slice::from_ref(&a),
            |vs| vs[0].sum_axis0().mul(&w).sum(),
            1e-2,
        );
        let w2 = Var::constant(randn(&[4, 3], 19));
        check_gradients(&[a], |vs| vs[0].reshape(&[4, 3]).mul(&w2).sum(), 1e-2);
    }

    #[test]
    fn hstack_values_and_gradients() {
        let a = randn(&[3, 2], 20);
        let b = randn(&[3, 4], 21);
        let w = Var::constant(randn(&[3, 6], 22));
        check_gradients(
            &[a.clone(), b.clone()],
            |vs| super::hstack(&[vs[0].clone(), vs[1].clone()]).mul(&w).sum(),
            1e-2,
        );
        let v = super::hstack(&[Var::constant(a.clone()), Var::constant(b.clone())]);
        assert_eq!(v.shape(), vec![3, 6]);
        assert_eq!(&v.value().row(1)[..2], a.row(1));
        assert_eq!(&v.value().row(1)[2..], b.row(1));
    }

    #[test]
    fn mean_matches_sum_over_n() {
        let a = Var::parameter(Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]));
        assert!((a.mean().value().item() - 2.5).abs() < 1e-6);
    }
}
