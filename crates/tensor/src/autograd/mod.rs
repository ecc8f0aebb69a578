//! Reverse-mode automatic differentiation.
//!
//! [`Var`] wraps a [`Tensor`] in a reference-counted tape node. Operations
//! on `Var`s record backward closures; [`Var::backward`] runs them in
//! reverse topological order, accumulating gradients into every node that
//! [requires grad](Var::requires_grad).
//!
//! Two features beyond a textbook tape are load-bearing for SAR:
//!
//! * [`no_grad`] — a scope in which operations do **not** extend the tape.
//!   SAR's Algorithm 1 executes the per-partition fetch/aggregate loop in
//!   such a scope so the fetched remote features never become part of the
//!   computational graph.
//! * [`Function`] — user-defined differentiable operations. SAR installs
//!   the whole message-passing + aggregation step as one `Function` whose
//!   backward re-materializes the graph piece by piece (Algorithm 2),
//!   communicating with the other workers as a side effect.
//!
//! Tape nodes hold their backward closure only until `backward` has
//! consumed them (unless `retain_graph` is used), so the graph frees itself
//! as gradients flow — the same behaviour PyTorch exhibits and SAR relies
//! on for its memory guarantees.

mod ops;

pub use ops::hstack;

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

use crate::Tensor;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    static NO_GRAD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Returns `true` when operations currently record the tape.
pub fn grad_enabled() -> bool {
    NO_GRAD_DEPTH.with(Cell::get) == 0
}

/// Runs `f` with taping disabled, like `torch.no_grad()`.
///
/// Nesting is allowed; taping resumes when the outermost scope exits, even
/// if `f` panics.
///
/// # Example
///
/// ```
/// use sar_tensor::{no_grad, Tensor, Var};
///
/// let x = Var::parameter(Tensor::scalar(3.0));
/// let y = no_grad(|| x.mul(&x));
/// assert!(!y.requires_grad());
/// ```
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            NO_GRAD_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    NO_GRAD_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = Guard;
    f()
}

/// A custom differentiable operation.
///
/// Implement this to splice arbitrary computation — including side effects
/// such as inter-worker communication — into the tape. `sar-core` uses it
/// for the sequential aggregation step and for distributed batch
/// normalization.
///
/// The engine calls [`backward`](Function::backward) exactly once with the
/// gradient of the loss w.r.t. this operation's output; the returned vector
/// must contain one entry per parent (in the same order as
/// [`parents`](Function::parents)), `None` meaning "no gradient".
///
/// `backward` also receives the operation's *output value*. Operations
/// whose gradient is naturally expressed in terms of their output (edge
/// softmax, the fused attention kernel) can read it without saving a copy
/// at forward time — mirroring how PyTorch's `save_for_backward` shares
/// the output tensor rather than cloning it.
pub trait Function {
    /// The parent variables this operation consumed.
    fn parents(&self) -> &[Var];

    /// Computes gradients for every parent given the output gradient and
    /// the forward output value.
    fn backward(&self, grad_output: &Tensor, output: &Tensor) -> Vec<Option<Tensor>>;

    /// Operation name for debugging.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Gradients returned by a backward closure: one per parent.
type ParentGrads = Vec<Option<Tensor>>;

/// Closure-based [`Function`] used by all built-in operations.
struct ClosureFn {
    name: &'static str,
    parents: Vec<Var>,
    backward: Box<dyn Fn(&Tensor) -> ParentGrads>,
}

impl Function for ClosureFn {
    fn parents(&self) -> &[Var] {
        &self.parents
    }

    fn backward(&self, grad_output: &Tensor, _output: &Tensor) -> Vec<Option<Tensor>> {
        (self.backward)(grad_output)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

struct Node {
    id: u64,
    value: Tensor,
    grad: Option<Tensor>,
    op: Option<Box<dyn Function>>,
    requires_grad: bool,
}

/// A tensor tracked by the autograd tape.
///
/// `Var` is a cheaply clonable handle (`Rc` internally); clones share the
/// same value and gradient. Being `Rc`-based, `Var`s are intentionally
/// **not** `Send`: each simulated SAR worker thread owns its own tape, and
/// data crosses threads only as raw buffers.
///
/// # Example
///
/// ```
/// use sar_tensor::{Tensor, Var};
///
/// let x = Var::parameter(Tensor::scalar(2.0));
/// let y = x.mul(&x).add(&x); // y = x² + x
/// y.backward();
/// assert_eq!(x.grad().unwrap().item(), 5.0); // dy/dx = 2x + 1
/// ```
#[derive(Clone)]
pub struct Var {
    node: Rc<RefCell<Node>>,
}

impl Var {
    fn make(value: Tensor, op: Option<Box<dyn Function>>, requires_grad: bool) -> Var {
        let id = NEXT_ID.with(|n| {
            let id = n.get();
            n.set(id + 1);
            id
        });
        Var {
            node: Rc::new(RefCell::new(Node {
                id,
                value,
                grad: None,
                op,
                requires_grad,
            })),
        }
    }

    /// Creates a leaf that participates in gradients (a trainable
    /// parameter).
    pub fn parameter(value: Tensor) -> Var {
        Var::make(value, None, true)
    }

    /// Creates a leaf that does not require gradients (input data).
    pub fn constant(value: Tensor) -> Var {
        Var::make(value, None, false)
    }

    /// Records the output of a custom [`Function`].
    ///
    /// If taping is disabled or no parent requires a gradient, the result
    /// is a constant and `f` is dropped immediately.
    pub fn from_function(value: Tensor, f: impl Function + 'static) -> Var {
        let requires = grad_enabled() && f.parents().iter().any(Var::requires_grad);
        if requires {
            Var::make(value, Some(Box::new(f)), true)
        } else {
            Var::constant(value)
        }
    }

    /// Records a closure-backed operation: `backward` receives the output
    /// gradient and returns one gradient per parent. Prefer this over a
    /// full [`Function`] impl for operations that don't need the output
    /// value in their backward pass.
    pub fn from_op(
        value: Tensor,
        parents: Vec<Var>,
        name: &'static str,
        backward: impl Fn(&Tensor) -> Vec<Option<Tensor>> + 'static,
    ) -> Var {
        Var::from_function(
            value,
            ClosureFn {
                name,
                parents,
                backward: Box::new(backward),
            },
        )
    }

    /// Whether this variable participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.node.borrow().requires_grad
    }

    /// Borrows the underlying tensor value.
    ///
    /// # Panics
    ///
    /// Panics if the value is mutably borrowed (e.g. inside
    /// [`Var::set_value`]'s closure).
    pub fn value(&self) -> Ref<'_, Tensor> {
        Ref::map(self.node.borrow(), |n| &n.value)
    }

    /// Clones the underlying tensor value.
    pub fn value_clone(&self) -> Tensor {
        self.node.borrow().value.clone()
    }

    /// Shape of the underlying value.
    pub fn shape(&self) -> Vec<usize> {
        self.node.borrow().value.shape().to_vec()
    }

    /// Replaces the underlying value in place (used by optimizers).
    ///
    /// Does not touch the tape; only call this on leaves.
    pub fn set_value(&self, value: Tensor) {
        self.node.borrow_mut().value = value;
    }

    /// Applies `f` to the underlying value in place (used by optimizers).
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.node.borrow_mut().value);
    }

    /// Clones the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.node.borrow().grad.clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.node.borrow_mut().grad = None;
    }

    /// Accumulates `g` into this variable's gradient.
    ///
    /// # Panics
    ///
    /// Panics if an existing gradient has a different shape.
    pub fn accumulate_grad(&self, g: &Tensor) {
        let mut node = self.node.borrow_mut();
        match &mut node.grad {
            Some(existing) => existing.add_assign(g),
            None => node.grad = Some(g.clone()),
        }
    }

    /// [`accumulate_grad`](Var::accumulate_grad) for a gradient the
    /// caller is done with: a first write moves `g` in instead of
    /// copying it.
    fn accumulate_grad_owned(&self, g: Tensor) {
        let mut node = self.node.borrow_mut();
        match &mut node.grad {
            Some(existing) => existing.add_assign(&g),
            None => node.grad = Some(g),
        }
    }

    /// Returns a constant sharing this variable's current value but
    /// detached from the tape.
    pub fn detach(&self) -> Var {
        Var::constant(self.value_clone())
    }

    /// Stable identifier of the underlying tape node.
    pub fn id(&self) -> u64 {
        self.node.borrow().id
    }

    /// Whether two handles refer to the same tape node.
    pub fn same_node(&self, other: &Var) -> bool {
        Rc::ptr_eq(&self.node, &other.node)
    }

    // ------------------------------------------------------------------
    // Backward engine
    // ------------------------------------------------------------------

    /// Backpropagates from a scalar output, seeding with gradient 1.
    ///
    /// Frees each node's backward closure as soon as it has been consumed
    /// (`retain_graph = false` semantics).
    ///
    /// # Panics
    ///
    /// Panics if the output is not a 1-element tensor.
    pub fn backward(&self) {
        assert_eq!(
            self.node.borrow().value.numel(),
            1,
            "backward() requires a scalar output; use backward_with() otherwise"
        );
        self.backward_with(&Tensor::scalar(1.0));
    }

    /// Backpropagates from this variable with an explicit output gradient.
    ///
    /// This is the `tensor.backward(grad)` PyTorch entry point that SAR's
    /// Algorithm 2 uses to continue backpropagation once the aggregated
    /// error for a worker's local features has been assembled.
    ///
    /// # Panics
    ///
    /// Panics if `grad` does not match the output's shape.
    pub fn backward_with(&self, grad: &Tensor) {
        assert_eq!(
            self.node.borrow().value.shape(),
            grad.shape(),
            "backward gradient shape mismatch"
        );
        // Collect the reachable graph. Node ids increase monotonically with
        // creation order, so descending id order is a valid reverse
        // topological order for the DAG.
        let mut stack = vec![self.clone()];
        let mut seen = std::collections::HashSet::new();
        let mut order: Vec<Var> = Vec::new();
        while let Some(v) = stack.pop() {
            let id = v.id();
            if !seen.insert(id) {
                continue;
            }
            if let Some(op) = v.node.borrow().op.as_ref() {
                for p in op.parents() {
                    stack.push(p.clone());
                }
            }
            order.push(v);
        }
        order.sort_by_key(|v| std::cmp::Reverse(v.id()));

        self.accumulate_grad(grad);
        for v in order {
            // Take the op out so the closure (and the tensors it captured)
            // is freed as soon as this node has propagated — this is the
            // incremental graph freeing SAR's memory accounting relies on.
            // The gradient is taken with it: this node has an op, so it is
            // an intermediate whose gradient is not retained (PyTorch's
            // default), and taking it keeps one copy alive, not two.
            let (op, g) = {
                let mut node = v.node.borrow_mut();
                if node.op.is_none() || node.grad.is_none() {
                    continue;
                }
                (node.op.take().unwrap(), node.grad.take().unwrap())
            };
            let parent_grads = {
                let node = v.node.borrow();
                op.backward(&g, &node.value)
            };
            let parents = op.parents();
            assert_eq!(
                parent_grads.len(),
                parents.len(),
                "op `{}` returned {} grads for {} parents",
                op.name(),
                parent_grads.len(),
                parents.len()
            );
            for (p, pg) in parents.iter().zip(parent_grads) {
                if let Some(pg) = pg {
                    if p.requires_grad() {
                        p.accumulate_grad_owned(pg);
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.node.borrow();
        f.debug_struct("Var")
            .field("id", &n.id)
            .field("shape", &n.value.shape())
            .field("requires_grad", &n.requires_grad)
            .field("has_op", &n.op.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_rule() {
        let x = Var::parameter(Tensor::scalar(3.0));
        let y = x.mul(&x).mul(&x); // x³
        y.backward();
        assert!((x.grad().unwrap().item() - 27.0).abs() < 1e-4);
    }

    #[test]
    fn grad_accumulates_across_uses() {
        let x = Var::parameter(Tensor::scalar(2.0));
        let y = x.add(&x).add(&x); // 3x
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 3.0);
    }

    #[test]
    fn no_grad_cuts_tape() {
        let x = Var::parameter(Tensor::scalar(2.0));
        let y = no_grad(|| x.mul(&x));
        assert!(!y.requires_grad());
        let z = x.mul(&x);
        assert!(z.requires_grad());
    }

    #[test]
    fn no_grad_nests_and_unwinds() {
        assert!(grad_enabled());
        no_grad(|| {
            assert!(!grad_enabled());
            no_grad(|| assert!(!grad_enabled()));
            assert!(!grad_enabled());
        });
        assert!(grad_enabled());
    }

    #[test]
    fn constants_get_no_grad() {
        let c = Var::constant(Tensor::scalar(1.0));
        let x = Var::parameter(Tensor::scalar(2.0));
        let y = c.mul(&x);
        y.backward();
        assert!(c.grad().is_none());
        assert_eq!(x.grad().unwrap().item(), 1.0);
    }

    #[test]
    fn backward_with_injected_gradient() {
        let x = Var::parameter(Tensor::from_vec(&[2], vec![1.0, 2.0]));
        let y = x.mul(&x);
        y.backward_with(&Tensor::from_vec(&[2], vec![10.0, 100.0]));
        let g = x.grad().unwrap();
        assert_eq!(g.data(), &[20.0, 400.0]);
    }

    #[test]
    fn backward_frees_graph() {
        let x = Var::parameter(Tensor::scalar(2.0));
        let y = x.mul(&x);
        y.backward();
        assert!(y.node.borrow().op.is_none(), "op should be dropped");
    }

    #[test]
    fn detach_stops_gradient() {
        let x = Var::parameter(Tensor::scalar(2.0));
        let y = x.mul(&x).detach().mul(&x);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 4.0); // only the outer factor
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_on_non_scalar_panics() {
        let x = Var::parameter(Tensor::from_vec(&[2], vec![1.0, 2.0]));
        x.mul(&x).backward();
    }

    #[test]
    fn custom_function_round_trip() {
        struct Double {
            parents: Vec<Var>,
        }
        impl Function for Double {
            fn parents(&self) -> &[Var] {
                &self.parents
            }
            fn backward(&self, g: &Tensor, _output: &Tensor) -> Vec<Option<Tensor>> {
                vec![Some(g.scale(2.0))]
            }
            fn name(&self) -> &'static str {
                "double"
            }
        }
        let x = Var::parameter(Tensor::scalar(5.0));
        let value = x.value().scale(2.0);
        let y = Var::from_function(
            value,
            Double {
                parents: vec![x.clone()],
            },
        );
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 2.0);
    }
}
