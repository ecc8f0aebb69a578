//! Single-machine batch normalization over node features.
//!
//! The distributed variant (collective mean/variance across workers, §3.4
//! of the paper) lives in `sar-core`; this layer is the reference it is
//! tested against.

use sar_tensor::{Tensor, Var};

/// Batch normalization over the rows of a `[N, F]` node-feature matrix.
///
/// In training mode, normalizes with the batch mean/variance (biased, as
/// in PyTorch) and updates running statistics; in eval mode, uses the
/// running statistics.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Var,
    beta: Var,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `dim` features.
    pub fn new(dim: usize) -> Self {
        BatchNorm1d {
            gamma: Var::parameter(Tensor::ones(&[dim])),
            beta: Var::parameter(Tensor::zeros(&[dim])),
            running_mean: Tensor::zeros(&[dim]),
            running_var: Tensor::ones(&[dim]),
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Normalizes `x` (`[N, F]`).
    ///
    /// # Panics
    ///
    /// Panics if `x` width differs from the layer dimension.
    pub fn forward(&mut self, x: &Var, training: bool) -> Var {
        let n = x.value().rows() as f32;
        if training {
            // Batch statistics as differentiable ops.
            let mean = x.sum_axis0().scale(1.0 / n);
            let centered = x.sub_row(&mean);
            let var = centered.mul(&centered).sum_axis0().scale(1.0 / n);
            // Track running stats outside the tape.
            {
                let m = self.momentum;
                self.running_mean = self.running_mean.scale(1.0 - m).add(&mean.value().scale(m));
                self.running_var = self.running_var.scale(1.0 - m).add(&var.value().scale(m));
            }
            let std = var.add_scalar(self.eps).sqrt();
            centered
                .div_row(&std)
                .mul_row(&self.gamma)
                .add_bias(&self.beta)
        } else {
            let inv_std = self.running_var.map(|v| 1.0 / (v + self.eps).sqrt());
            let x_hat = x
                .sub_row(&Var::constant(self.running_mean.clone()))
                .mul_row(&Var::constant(inv_std));
            x_hat.mul_row(&self.gamma).add_bias(&self.beta)
        }
    }

    /// Trainable parameters (`gamma`, `beta`).
    pub fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    /// Current running mean (for tests and checkpointing).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Current running variance.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sar_tensor::gradcheck::check_gradients;
    use sar_tensor::init;

    #[test]
    fn normalizes_to_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm1d::new(4);
        let x = Var::constant(init::randn(&[200, 4], 3.0, &mut rng).add_scalar(5.0));
        let y = bn.forward(&x, true);
        let yv = y.value_clone();
        let mean = yv.sum_axis0().scale(1.0 / 200.0);
        assert!(mean.max_abs() < 1e-4, "mean {:?}", mean.data());
        let var: f32 = yv.data().iter().map(|v| v * v).sum::<f32>() / 800.0;
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn gradcheck_through_batchnorm() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = init::randn(&[6, 3], 1.0, &mut rng);
        let w = Var::constant(init::randn(&[6, 3], 1.0, &mut rng));
        check_gradients(
            &[x],
            |vs| {
                let mut bn = BatchNorm1d::new(3);
                bn.forward(&vs[0], true).mul(&w).sum()
            },
            2e-2,
        );
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bn = BatchNorm1d::new(2);
        // Feed many batches with mean 10 so running stats converge there.
        for _ in 0..200 {
            let x = Var::constant(init::randn(&[64, 2], 1.0, &mut rng).add_scalar(10.0));
            let _ = bn.forward(&x, true);
        }
        assert!((bn.running_mean().mean() - 10.0).abs() < 0.5);
        // In eval mode, inputs at 10 should map near zero.
        let x = Var::constant(Tensor::full(&[4, 2], 10.0));
        let y = bn.forward(&x, false);
        assert!(y.value().max_abs() < 0.5);
    }

    #[test]
    fn gamma_beta_receive_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bn = BatchNorm1d::new(3);
        let x = Var::constant(init::randn(&[10, 3], 1.0, &mut rng));
        bn.forward(&x, true).sum().backward();
        for p in bn.params() {
            assert!(p.grad().is_some());
        }
    }
}
