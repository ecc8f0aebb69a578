//! Distributed batch normalization (§3.4 of the paper).
//!
//! The node-feature matrix is partitioned across workers, so batch
//! statistics must be *global*: the forward pass all-reduces each worker's
//! per-column sum, squared sum and row count to obtain the exact full-batch
//! mean and variance, and the backward pass all-reduces the two gradient
//! summary statistics so the input gradient is exactly the single-machine
//! gradient. Only `O(F)` summary data crosses the network — the
//! "communicating only summary statistics and their gradients" design the
//! paper describes.
//!
//! The whole layer — normalize, scale by `γ`, shift by `β` — is one tape
//! node over the row passes of [`sar_nn::tail`]: one column pass and one
//! row pass each way around the all-reduce.

use std::rc::Rc;

use sar_nn::tail;
use sar_tensor::{Function, Tensor, Var};

use crate::worker::Worker;

struct DistBnFn {
    parents: Vec<Var>, // [x, gamma, beta]
    w: Rc<Worker>,
    x_hat: Tensor,
    inv_std: Vec<f32>, // [F], global
    n_global: f32,
}

impl Function for DistBnFn {
    fn parents(&self) -> &[Var] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "distributed_batchnorm"
    }

    fn backward(&self, grad_output: &Tensor, _output: &Tensor) -> Vec<Option<Tensor>> {
        // y = x̂ γ + β with x̂ = (x − μ) / σ, global μ, σ over N total rows:
        // dβ = Σ g, dγ = Σ g x̂, and with ĝ = g γ
        // dx_i = (1/σ) (ĝ_i − (1/N) Σ ĝ − x̂_i (1/N) Σ (ĝ ⊙ x̂)),
        // where the last two sums run over ALL workers' rows.
        let [x, gamma, beta] = &self.parents[..] else {
            unreachable!("batch norm has three parents")
        };
        let gamma_v = gamma.value();
        let [d_beta, d_gamma, sum_g, sum_gx] =
            tail::norm_backward_stats(grad_output, &self.x_hat, gamma_v.data());
        // A constant input takes no gradient and joins no all-reduce.
        let dx = x.requires_grad().then(|| {
            let f = sum_g.len();
            let mut buf = [sum_g, sum_gx].concat();
            self.w.ctx.all_reduce_sum(&mut buf);
            let inv_n = 1.0 / self.n_global;
            let mean_g: Vec<f32> = buf[..f].iter().map(|&s| s * inv_n).collect();
            let mean_gx: Vec<f32> = buf[f..].iter().map(|&s| s * inv_n).collect();
            tail::norm_backward(
                grad_output,
                &self.x_hat,
                gamma_v.data(),
                &mean_g,
                &mean_gx,
                &self.inv_std,
            )
        });
        let column = |v: Vec<f32>| Tensor::from_vec(&[v.len()], v);
        vec![
            dx,
            gamma.requires_grad().then(|| column(d_gamma)),
            beta.requires_grad().then(|| column(d_beta)),
        ]
    }
}

/// Distributed batch normalization layer: global batch statistics, exact
/// full-batch gradients, learnable `gamma`/`beta`.
///
/// Statistics are always computed from the current full batch — in
/// full-batch GNN training the "batch" is the entire (fixed) node set, so
/// batch statistics and running statistics coincide at convergence.
#[derive(Debug)]
pub struct DistBatchNorm {
    gamma: Var,
    beta: Var,
    eps: f32,
}

impl DistBatchNorm {
    /// Creates a distributed batch-norm layer over `dim` features.
    pub fn new(dim: usize) -> Self {
        DistBatchNorm {
            gamma: Var::parameter(Tensor::ones(&[dim])),
            beta: Var::parameter(Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }

    /// Normalizes this worker's `[n_local, F]` rows with global statistics.
    ///
    /// All workers must call this collectively (it all-reduces).
    ///
    /// # Panics
    ///
    /// Panics if `x` width differs from the layer dimension.
    pub fn forward(&self, w: &Rc<Worker>, x: &Var) -> Var {
        let xv = x.value();
        let f = xv.cols();
        assert_eq!(f, self.gamma.value().numel(), "feature width mismatch");
        // Global sum, squared sum and row count in one all-reduce.
        let mut buf = tail::norm_stats(&xv);
        buf.push(xv.rows() as f32);
        w.ctx.all_reduce_sum(&mut buf);
        let n_global = buf[2 * f].max(1.0);
        let inv_n = 1.0 / n_global;
        let (mean, inv_std): (Vec<f32>, Vec<f32>) = (0..f)
            .map(|j| {
                let (mean, sq_mean) = (buf[j] * inv_n, buf[f + j] * inv_n);
                let var = (sq_mean - mean * mean).max(0.0);
                (mean, 1.0 / (var + self.eps).sqrt())
            })
            .unzip();
        let (y, x_hat) = tail::norm_forward(
            &xv,
            &mean,
            &inv_std,
            self.gamma.value().data(),
            self.beta.value().data(),
        );
        Var::from_function(
            y,
            DistBnFn {
                parents: vec![x.clone(), self.gamma.clone(), self.beta.clone()],
                w: Rc::clone(w),
                x_hat,
                inv_std,
                n_global,
            },
        )
    }

    /// Trainable parameters (`gamma`, `beta`).
    pub fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}
