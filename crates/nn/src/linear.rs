//! Dense linear layer.

use rand::Rng;
use sar_tensor::{init, Var};

/// A dense layer `y = x W (+ b)` with Xavier-initialized weights.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sar_nn::Linear;
/// use sar_tensor::{Tensor, Var};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let lin = Linear::new(4, 2, true, &mut rng);
/// let x = Var::constant(Tensor::ones(&[3, 4]));
/// assert_eq!(lin.forward(&x).shape(), vec![3, 2]);
/// assert_eq!(lin.params().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Var,
    bias: Option<Var>,
}

impl Linear {
    /// Creates a layer mapping `in_dim → out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, bias: bool, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Var::parameter(init::xavier_uniform(in_dim, out_dim, rng)),
            bias: bias.then(|| Var::parameter(sar_tensor::Tensor::zeros(&[out_dim]))),
        }
    }

    /// Applies the layer.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Var) -> Var {
        let y = x.matmul(&self.weight);
        match &self.bias {
            Some(b) => y.add_bias(b),
            None => y,
        }
    }

    /// The weight matrix `[in_dim, out_dim]`.
    pub fn weight(&self) -> &Var {
        &self.weight
    }

    /// The bias `[out_dim]`, if the layer has one.
    pub fn bias(&self) -> Option<&Var> {
        self.bias.as_ref()
    }

    /// Trainable parameters (weight, then bias if present).
    pub fn params(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.shape()[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sar_tensor::{Tensor, Var};

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(3, 5, true, &mut rng);
        let x = Var::constant(Tensor::zeros(&[2, 3]));
        let y = lin.forward(&x);
        assert_eq!(y.shape(), vec![2, 5]);
        // Zero input ⇒ output equals (zero-initialized) bias.
        assert!(y.value().allclose(&Tensor::zeros(&[2, 5]), 1e-6));
    }

    #[test]
    fn gradients_flow_to_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new(3, 2, true, &mut rng);
        let x = Var::constant(Tensor::ones(&[4, 3]));
        lin.forward(&x).sum().backward();
        for p in lin.params() {
            let g = p.grad().expect("param must receive grad");
            assert!(g.max_abs() > 0.0);
        }
    }

    #[test]
    fn no_bias_has_one_param() {
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new(3, 2, false, &mut rng);
        assert_eq!(lin.params().len(), 1);
        assert_eq!(lin.in_dim(), 3);
        assert_eq!(lin.out_dim(), 2);
    }
}
