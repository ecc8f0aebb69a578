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
//! row pass each way around the all-reduce. The node keeps `x̂`, and its
//! output `y = x̂ ⊙ γ + β` is a [recipe](Var::rebuilt_by) over that `x̂`:
//! the next layer's matmuls rebuild `y` instead of keeping it.

use std::rc::Rc;

use sar_nn::tail;
use sar_tensor::{Edge, Function, Saved, Tensor, Var};

use crate::worker::Worker;

/// Saves `x̂` (and the parameter `γ`); never its input or output.
struct DistBnFn {
    parents: Vec<Edge>, // [x, gamma, beta]
    w: Rc<Worker>,
    x_hat: Rc<Tensor>,
    gamma: Saved,
    inv_std: Vec<f32>, // [F], global
    n_global: f32,
}

impl Function for DistBnFn {
    fn parents(&self) -> &[Edge] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "distributed_batchnorm"
    }

    fn backward(&self, grad_output: &Tensor) -> Vec<Option<Tensor>> {
        // y = x̂ γ + β with x̂ = (x − μ) / σ, global μ, σ over N total rows:
        // dβ = Σ g, dγ = Σ g x̂, and with ĝ = g γ
        // dx_i = (1/σ) (ĝ_i − (1/N) Σ ĝ − x̂_i (1/N) Σ (ĝ ⊙ x̂)),
        // where the last two sums run over ALL workers' rows.
        let [x, gamma, beta] = &self.parents[..] else {
            unreachable!("batch norm has three parents")
        };
        let gamma_value = self.gamma.get();
        let [d_beta, d_gamma, sum_g, sum_gx] =
            tail::norm_backward_stats(grad_output, &self.x_hat, gamma_value.data());
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
                gamma_value.data(),
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
        let x_hat = Rc::new(x_hat);
        let rebuild = {
            let (x_hat, gamma, beta) = (Rc::clone(&x_hat), self.gamma.save(), self.beta.save());
            move || tail::norm_affine(&x_hat, gamma.get().data(), beta.get().data())
        };
        Var::from_function(
            y,
            DistBnFn {
                parents: vec![x.edge(), self.gamma.edge(), self.beta.edge()],
                w: Rc::clone(w),
                x_hat,
                gamma: self.gamma.save(),
                inv_std,
                n_global,
            },
        )
        .rebuilt_by(rebuild)
    }

    /// Trainable parameters (`gamma`, `beta`).
    pub fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sar_comm::{Cluster, CostModel};
    use sar_graph::CsrGraph;
    use sar_tensor::{init, no_grad, pool};

    use super::*;
    use crate::DistGraph;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs `f` on every rank of a `world`-worker cluster over a 30-node
    /// ring.
    fn on_ranks(world: usize, f: impl Fn(&Rc<Worker>) + Send + Sync + 'static) {
        let ring: Vec<(u32, u32)> = (0..30).map(|i| (i, (i + 1) % 30)).collect();
        let g = CsrGraph::from_edges(30, &ring).symmetrize();
        let graphs: Arc<Vec<_>> = Arc::new(
            DistGraph::build_all(&g, &sar_partition::range(&g, world))
                .into_iter()
                .map(Arc::new)
                .collect(),
        );
        let f = Arc::new(f);
        Cluster::new(world, CostModel::default()).run(move |ctx| {
            let rank = ctx.rank();
            f(&Worker::new(ctx, Arc::clone(&graphs[rank])));
        });
    }

    /// A layer over `f` columns with non-trivial `γ` and `β`, and a taped
    /// `[n, f]` input.
    fn layer_and_input(w: &Worker, f: usize, rng: &mut StdRng) -> (DistBatchNorm, Var) {
        let bn = DistBatchNorm::new(f);
        bn.gamma.set_value(init::randn(&[f], 1.0, rng));
        bn.beta.set_value(init::randn(&[f], 1.0, rng));
        let x = Var::parameter(init::randn(&[w.graph.num_local(), f], 2.0, rng));
        (bn, x)
    }

    #[test]
    fn the_rebuilt_output_and_a_rebuilt_dropout_over_it_are_the_kept_bits() {
        on_ranks(2, |w| {
            for threads in [1, 2] {
                pool::set_threads(threads);
                for f in [47, 64, 65] {
                    let tag = format!("rank {}, {threads} threads, width {f}", w.rank());
                    let mut rng = StdRng::seed_from_u64(f as u64 + 100 * w.rank() as u64);
                    let (bn, x) = layer_and_input(w, f, &mut rng);
                    let y = bn.forward(w, &x);
                    let saved = y.save();
                    let rebuilt = saved.get();
                    assert!(matches!(rebuilt, Cow::Owned(_)), "{tag}: `y` was kept");
                    assert_eq!(bits(&rebuilt), bits(&y.value()), "{tag}: y");
                    let d = y.dropout(0.3, true, &mut rng);
                    let saved = d.save();
                    let rebuilt = saved.get();
                    assert!(matches!(rebuilt, Cow::Owned(_)), "{tag}: dropout was kept");
                    assert_eq!(bits(&rebuilt), bits(&d.value()), "{tag}: dropout");
                }
                pool::set_threads(1);
            }
        });
    }

    #[test]
    fn an_untaped_output_carries_no_recipe() {
        on_ranks(1, |w| {
            let (bn, x) = layer_and_input(w, 5, &mut StdRng::seed_from_u64(7));
            let y = no_grad(|| bn.forward(w, &x));
            assert!(matches!(y.save().get(), Cow::Borrowed(_)));
            // Nor does a dropout over it, which is untaped too.
            let d = no_grad(|| y.dropout(0.3, true, &mut StdRng::seed_from_u64(8)));
            assert!(matches!(d.save().get(), Cow::Borrowed(_)));
        });
    }

    #[test]
    fn a_rebuildable_output_is_read_only() {
        on_ranks(1, |w| {
            let (bn, x) = layer_and_input(w, 5, &mut StdRng::seed_from_u64(9));
            let y = bn.forward(w, &x);
            let d = y.dropout(0.3, true, &mut StdRng::seed_from_u64(10));
            for v in [&y, &d] {
                let set = catch_unwind(AssertUnwindSafe(|| v.set_value(Tensor::zeros(&[1]))));
                let update = catch_unwind(AssertUnwindSafe(|| {
                    v.update_value(|t| t.data_mut()[0] = 0.0)
                }));
                assert!(set.is_err() && update.is_err(), "{v:?} took a write");
            }
        });
    }
}
