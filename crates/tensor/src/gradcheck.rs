//! Numerical gradient checking, used throughout the workspace's test
//! suites to validate analytic gradients — including the hand-derived
//! backward passes of the fused attention kernels and of SAR's
//! rematerializing aggregation.

use crate::{Tensor, Var};

/// Compares analytic gradients of `f` against central finite differences.
///
/// `inputs` become parameters; `f` must build a scalar output from them.
/// Every input element is perturbed by `±eps` (default `1e-2`, chosen for
/// `f32` precision) and the relative error of each gradient entry must stay
/// below `tol`.
///
/// # Panics
///
/// Panics (with a descriptive message) if any gradient entry disagrees —
/// this is a test utility.
pub fn check_gradients(inputs: &[Tensor], f: impl Fn(&[Var]) -> Var, tol: f32) {
    check_gradients_eps(inputs, f, tol, 1e-2);
}

/// [`check_gradients`] with an explicit finite-difference step.
///
/// # Panics
///
/// Panics if any gradient entry disagrees beyond `tol`.
pub fn check_gradients_eps(inputs: &[Tensor], f: impl Fn(&[Var]) -> Var, tol: f32, eps: f32) {
    let vars: Vec<Var> = inputs.iter().map(|t| Var::parameter(t.clone())).collect();
    let out = f(&vars);
    assert_eq!(out.value().numel(), 1, "gradcheck requires a scalar output");
    out.backward();
    let analytic: Vec<Option<Tensor>> = vars.iter().map(Var::grad).collect();

    for (vi, input) in inputs.iter().enumerate() {
        let grad = analytic[vi]
            .as_ref()
            .unwrap_or_else(|| panic!("input {vi} received no gradient"));
        for e in 0..input.numel() {
            let mut plus = input.clone();
            plus.data_mut()[e] += eps;
            let mut minus = input.clone();
            minus.data_mut()[e] -= eps;

            let eval = |perturbed: Tensor| -> f32 {
                let vars: Vec<Var> = inputs
                    .iter()
                    .enumerate()
                    .map(|(k, t)| {
                        Var::constant(if k == vi {
                            perturbed.clone()
                        } else {
                            t.clone()
                        })
                    })
                    .collect();
                f(&vars).value().item()
            };
            let numeric = (eval(plus) - eval(minus)) / (2.0 * eps);
            let a = grad.data()[e];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            let rel = (a - numeric).abs() / denom;
            assert!(
                rel <= tol,
                "gradient mismatch at input {vi} elem {e}: analytic {a}, numeric {numeric} (rel err {rel}, tol {tol})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_correct_gradient() {
        let x = Tensor::from_vec(&[3], vec![1.0, -2.0, 0.5]);
        check_gradients(&[x], |vs| vs[0].mul(&vs[0]).sum(), 1e-2);
    }

    #[test]
    #[should_panic(expected = "gradient mismatch")]
    fn rejects_wrong_gradient() {
        struct Bad {
            parents: Vec<crate::Edge>,
            x: crate::Saved,
        }
        impl crate::Function for Bad {
            fn parents(&self) -> &[crate::Edge] {
                &self.parents
            }
            fn backward(&self, g: &Tensor) -> Vec<Option<Tensor>> {
                // Claims d(x²)/dx = 3x (wrong).
                vec![Some(g.mul(&self.x.get().scale(3.0)))]
            }
        }
        let x = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        check_gradients(
            &[x],
            |vs| {
                let v = vs[0].value().mul(&vs[0].value());
                Var::from_function(
                    v,
                    Bad {
                        parents: vec![vs[0].edge()],
                        x: vs[0].save(),
                    },
                )
                .sum()
            },
            1e-2,
        );
    }
}
