//! Reverse-mode automatic differentiation.
//!
//! [`Var`] pairs a reference-counted [`Tensor`] value with an [`Edge`], the
//! variable's gradient slot on the tape. Operations on `Var`s record
//! backward closures over edges; [`Var::backward`] runs them in reverse
//! topological order, accumulating gradients into every edge that
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
//! **The tape owns no values.** An edge holds an id, a gradient, the
//! operation that produced it and whether it requires a gradient — never
//! the value. A backward pass reads only the tensors its operation saved
//! at record time ([`Var::save`]): shared handles to the values, not
//! copies, as PyTorch's `save_for_backward` keeps them — or, for a
//! [rebuildable](Var::rebuildable) constant or a function output given a
//! recipe ([`Var::rebuilt_by`]), the recipe that rebuilds the same bits
//! when the backward runs, so the value itself dies with its last `Var`
//! handle. An intermediate no backward saved is freed as soon
//! as its last `Var` handle drops, and a saved one as soon as the
//! backward that reads it has run: the engine drops each operation once
//! it has propagated (unless `retain_graph` is used), so the graph frees
//! itself as gradients flow — the behaviour SAR relies on for its memory
//! guarantees.

mod ops;

use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

use crate::{MemoryTracker, PeakSite, Tensor};

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
/// Parents are [`Edge`]s, which carry gradients, not values. A backward
/// that reads a value — an input, a parameter, or the operation's own
/// output — saves it at record time with [`Var::save`]: the operation
/// holds a shared handle to the tensor, not a copy, and drops it with
/// itself once its backward has run.
pub trait Function {
    /// The gradient slots of the variables this operation consumed.
    fn parents(&self) -> &[Edge];

    /// Computes gradients for every parent given the output gradient.
    fn backward(&self, grad_output: &Tensor) -> Vec<Option<Tensor>>;

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
    parents: Vec<Edge>,
    backward: Box<dyn Fn(&Tensor) -> ParentGrads>,
}

impl Function for ClosureFn {
    fn parents(&self) -> &[Edge] {
        &self.parents
    }

    fn backward(&self, grad_output: &Tensor) -> Vec<Option<Tensor>> {
        (self.backward)(grad_output)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

struct EdgeNode {
    id: u64,
    grad: Option<Tensor>,
    op: Option<Box<dyn Function>>,
    requires_grad: bool,
}

/// A variable's gradient slot on the tape: its id, its accumulated
/// gradient, the operation that produced it and whether it requires a
/// gradient — but not its value.
///
/// [`Function::parents`] returns edges, and the backward engine walks
/// them, so holding a tape does not keep a single activation alive. A
/// cheaply clonable handle (`Rc` internally); clones share one slot.
#[derive(Clone)]
pub struct Edge {
    node: Rc<RefCell<EdgeNode>>,
}

impl Edge {
    fn new(op: Option<Box<dyn Function>>, requires_grad: bool) -> Edge {
        let id = NEXT_ID.with(|n| {
            let id = n.get();
            n.set(id + 1);
            id
        });
        Edge {
            node: Rc::new(RefCell::new(EdgeNode {
                id,
                grad: None,
                op,
                requires_grad,
            })),
        }
    }

    /// Whether this slot participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.node.borrow().requires_grad
    }

    /// Stable identifier of the slot; ids increase with creation order.
    fn id(&self) -> u64 {
        self.node.borrow().id
    }

    /// Adds `g` into the slot, moving it in on a first write.
    fn accumulate_grad(&self, g: Tensor) {
        let mut node = self.node.borrow_mut();
        match &mut node.grad {
            Some(existing) => existing.add_assign(&g),
            None => node.grad = Some(g),
        }
    }

    /// Runs the backward pass from this slot, seeded with `grad`.
    fn backward_from(&self, grad: &Tensor) {
        // Collect the reachable graph. Edge ids increase monotonically with
        // creation order, so descending id order is a valid reverse
        // topological order for the DAG.
        let mut stack = vec![self.clone()];
        let mut seen = std::collections::HashSet::new();
        let mut order: Vec<Edge> = Vec::new();
        while let Some(e) = stack.pop() {
            let id = e.id();
            if !seen.insert(id) {
                continue;
            }
            if let Some(op) = e.node.borrow().op.as_ref() {
                for p in op.parents() {
                    stack.push(p.clone());
                }
            }
            order.push(e);
        }
        order.sort_by_key(|e| std::cmp::Reverse(e.id()));

        self.accumulate_grad(grad.clone());
        for e in order {
            // Take the op out so it — and every tensor it saved — is freed
            // as soon as this edge has propagated: the incremental graph
            // freeing SAR's memory accounting relies on. The gradient is
            // taken with it: this edge has an op, so it is an
            // intermediate whose gradient is not retained (PyTorch's
            // default), and taking it keeps one copy alive, not two.
            let (op, g) = {
                let mut node = e.node.borrow_mut();
                if node.op.is_none() || node.grad.is_none() {
                    continue;
                }
                (node.op.take().unwrap(), node.grad.take().unwrap())
            };
            let parent_grads = {
                let _site = MemoryTracker::at_site(PeakSite::Backward(op.name()));
                op.backward(&g)
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
                        p.accumulate_grad(pg);
                    }
                }
            }
        }
    }
}

/// A value's rebuild recipe (see [`Var::rebuildable`], [`Var::rebuilt_by`]).
type Recipe = Rc<dyn Fn() -> Tensor>;

struct VarInner {
    edge: Edge,
    value: RefCell<Rc<Tensor>>,
    rebuild: Option<Recipe>,
}

/// What a backward keeps of a value it reads: a shared handle to the
/// tensor, or — for a value with a recipe ([`Var::rebuildable`],
/// [`Var::rebuilt_by`]) — the recipe, which rebuilds the same bits on
/// [`get`](Saved::get).
pub struct Saved(SavedKind);

enum SavedKind {
    Kept(Rc<Tensor>),
    Rebuild(Recipe),
}

impl Saved {
    /// The saved value: borrowed from the handle, or rebuilt (and freed
    /// when the result drops).
    pub fn get(&self) -> Cow<'_, Tensor> {
        match &self.0 {
            SavedKind::Kept(t) => Cow::Borrowed(t),
            SavedKind::Rebuild(f) => Cow::Owned(f()),
        }
    }
}

/// A tensor tracked by the autograd tape: an [`Edge`] plus a shared,
/// reference-counted value.
///
/// `Var` is a cheaply clonable handle (`Rc` internally); clones share the
/// same value and gradient. The tape holds the edge only, so the value
/// lives as long as a `Var` handle or a backward that [saved](Var::save)
/// it does. Being `Rc`-based, `Var`s are intentionally **not** `Send`:
/// each simulated SAR worker thread owns its own tape, and data crosses
/// threads only as raw buffers.
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
    inner: Rc<VarInner>,
}

impl Var {
    fn make(value: Rc<Tensor>, op: Option<Box<dyn Function>>, requires_grad: bool) -> Var {
        Var {
            inner: Rc::new(VarInner {
                edge: Edge::new(op, requires_grad),
                value: RefCell::new(value),
                rebuild: None,
            }),
        }
    }

    /// Creates a leaf that participates in gradients (a trainable
    /// parameter).
    pub fn parameter(value: Tensor) -> Var {
        Var::make(Rc::new(value), None, true)
    }

    /// Creates a leaf that does not require gradients (input data).
    pub fn constant(value: Tensor) -> Var {
        Var::make(Rc::new(value), None, false)
    }

    /// Creates a constant whose value is `rebuild()` and whose backward
    /// readers keep `rebuild` instead of the value: [`save`](Var::save)
    /// returns the recipe, so the tensor is freed with the last `Var`
    /// handle and rebuilt — the same bits, by construction — by each
    /// backward that reads it. `rebuild` must be a pure function.
    pub fn rebuildable(rebuild: impl Fn() -> Tensor + 'static) -> Var {
        Var {
            inner: Rc::new(VarInner {
                edge: Edge::new(None, false),
                value: RefCell::new(Rc::new(rebuild())),
                rebuild: Some(Rc::new(rebuild)),
            }),
        }
    }

    /// Records the output of a custom [`Function`].
    ///
    /// `value` may be a handle `f` also keeps (an operation whose backward
    /// reads its own output). If taping is disabled or no parent requires
    /// a gradient, the result is a constant and `f` — with everything it
    /// saved — is dropped immediately. An output that can be rebuilt from
    /// what `f` keeps anyway takes its recipe with
    /// [`rebuilt_by`](Var::rebuilt_by), so its readers need not keep it.
    pub fn from_function(value: impl Into<Rc<Tensor>>, f: impl Function + 'static) -> Var {
        let requires = grad_enabled() && f.parents().iter().any(Edge::requires_grad);
        let op: Option<Box<dyn Function>> = requires.then(|| Box::new(f) as _);
        Var::make(value.into(), op, requires)
    }

    /// Records a closure-backed operation: `backward` receives the output
    /// gradient and returns one gradient per parent, reading only what the
    /// closure captured. Prefer this over a full [`Function`] impl for
    /// operations without state of their own.
    pub fn from_op(
        value: impl Into<Rc<Tensor>>,
        parents: Vec<Edge>,
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

    /// Makes a taped function output rebuildable: [`save`](Var::save)
    /// returns `rebuild` instead of the value, as for a
    /// [rebuildable](Var::rebuildable) constant, so the output is freed
    /// with its last `Var` handle and every backward that reads it
    /// rebuilds it. `rebuild` must be a pure function giving the bits of
    /// the value; it typically shares what the operation's own backward
    /// keeps. An untaped output is returned as it is, without a recipe:
    /// nothing saves it, and the recipe would only keep its ingredients
    /// alive.
    ///
    /// # Panics
    ///
    /// Panics if the output has been shared already: give the recipe where
    /// the output is recorded.
    pub fn rebuilt_by(mut self, rebuild: impl Fn() -> Tensor + 'static) -> Var {
        if self.inner.edge.node.borrow().op.is_some() {
            let inner = Rc::get_mut(&mut self.inner)
                .expect("a recipe is given to a function output before it is shared");
            inner.rebuild = Some(Rc::new(rebuild));
        }
        self
    }

    /// The recipe of a rebuildable value, if it has one.
    fn recipe(&self) -> Option<Recipe> {
        self.inner.rebuild.clone()
    }

    /// This variable's gradient slot, for an operation's parent list.
    pub fn edge(&self) -> Edge {
        self.inner.edge.clone()
    }

    /// Shares the value with a backward pass: a handle to the same tensor,
    /// not a copy — PyTorch's `save_for_backward`. The tensor stays alive
    /// while the handle does, even after every `Var` handle is gone. A
    /// value with a recipe ([`rebuildable`](Var::rebuildable),
    /// [`rebuilt_by`](Var::rebuilt_by)) shares its recipe instead.
    pub fn save(&self) -> Saved {
        Saved(match &self.inner.rebuild {
            Some(f) => SavedKind::Rebuild(Rc::clone(f)),
            None => SavedKind::Kept(self.shared()),
        })
    }

    /// A handle to the current value.
    fn shared(&self) -> Rc<Tensor> {
        Rc::clone(&self.inner.value.borrow())
    }

    /// Whether this variable participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.inner.edge.requires_grad()
    }

    /// Borrows the underlying tensor value.
    ///
    /// # Panics
    ///
    /// Panics if the value is mutably borrowed (e.g. inside
    /// [`Var::update_value`]'s closure).
    pub fn value(&self) -> Ref<'_, Tensor> {
        Ref::map(self.inner.value.borrow(), |v| &**v)
    }

    /// Clones the underlying tensor value.
    pub fn value_clone(&self) -> Tensor {
        Tensor::clone(&self.value())
    }

    /// Shape of the underlying value.
    pub fn shape(&self) -> Vec<usize> {
        self.value().shape().to_vec()
    }

    /// Replaces the underlying value (used by optimizers and checkpoint
    /// loading). A backward that saved the old value keeps reading it.
    ///
    /// Does not touch the tape; only call this on leaves.
    ///
    /// # Panics
    ///
    /// Panics on a value with a recipe ([`rebuildable`](Var::rebuildable),
    /// [`rebuilt_by`](Var::rebuilt_by)): the value is its recipe's.
    pub fn set_value(&self, value: Tensor) {
        self.assert_writable();
        *self.inner.value.borrow_mut() = Rc::new(value);
    }

    fn assert_writable(&self) {
        assert!(
            self.inner.rebuild.is_none(),
            "a rebuildable value is its recipe's"
        );
    }

    /// Applies `f` to the underlying value in place (used by optimizers).
    ///
    /// In place only while no recorded backward still holds the value —
    /// after `backward` has run, none does; otherwise the update goes to a
    /// fresh copy and the saved handle keeps the value it saved.
    ///
    /// # Panics
    ///
    /// Panics on a value with a recipe, as [`set_value`](Var::set_value).
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        self.assert_writable();
        f(Rc::make_mut(&mut self.inner.value.borrow_mut()));
    }

    /// Clones the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.edge.node.borrow().grad.clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.inner.edge.node.borrow_mut().grad = None;
    }

    /// Accumulates `g` into this variable's gradient.
    ///
    /// # Panics
    ///
    /// Panics if an existing gradient has a different shape.
    pub fn accumulate_grad(&self, g: &Tensor) {
        let mut node = self.inner.edge.node.borrow_mut();
        match &mut node.grad {
            Some(existing) => existing.add_assign(g),
            None => node.grad = Some(g.clone()),
        }
    }

    /// Returns a constant sharing this variable's current value but
    /// detached from the tape.
    pub fn detach(&self) -> Var {
        Var::make(self.shared(), None, false)
    }

    /// Stable identifier of the underlying tape edge.
    pub fn id(&self) -> u64 {
        self.inner.edge.id()
    }

    /// Whether two handles refer to the same tape edge.
    pub fn same_node(&self, other: &Var) -> bool {
        Rc::ptr_eq(&self.inner.edge.node, &other.inner.edge.node)
    }

    // ------------------------------------------------------------------
    // Backward engine
    // ------------------------------------------------------------------

    /// Backpropagates from a scalar output, seeding with gradient 1.
    ///
    /// Frees each operation, and the tensors it saved, as soon as it has
    /// been consumed (`retain_graph = false` semantics).
    ///
    /// # Panics
    ///
    /// Panics if the output is not a 1-element tensor.
    pub fn backward(&self) {
        assert_eq!(
            self.value().numel(),
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
            self.value().shape(),
            grad.shape(),
            "backward gradient shape mismatch"
        );
        self.inner.edge.backward_from(grad);
    }
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.edge.node.borrow();
        f.debug_struct("Var")
            .field("id", &n.id)
            .field("shape", &self.value().shape())
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
        assert!(
            y.inner.edge.node.borrow().op.is_none(),
            "op should be dropped"
        );
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
            parents: Vec<Edge>,
        }
        impl Function for Double {
            fn parents(&self) -> &[Edge] {
                &self.parents
            }
            fn backward(&self, g: &Tensor) -> Vec<Option<Tensor>> {
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
                parents: vec![x.edge()],
            },
        );
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 2.0);
    }

    fn live() -> usize {
        crate::MemoryTracker::stats().current_bytes
    }

    #[test]
    fn an_intermediate_no_backward_reads_is_freed_at_once() {
        let x = Var::parameter(Tensor::ones(&[8, 16]));
        let base = live();
        let y = x.add(&x); // `scale` reads no value: nothing saves `y`
        let z = y.scale(3.0);
        assert_eq!(live(), base + 2 * 512);
        drop(y);
        assert_eq!(live(), base + 512, "only `z` is left");
        z.sum().backward();
        assert_eq!(x.grad().unwrap().data()[0], 6.0);
    }

    #[test]
    fn a_saved_tensor_lives_until_its_backward_has_run() {
        let x = Var::parameter(Tensor::ones(&[8, 16]));
        let base = live();
        let y = x.scale(2.0);
        let z = y.relu(); // saves its input `y`
        drop(y);
        assert_eq!(live(), base + 2 * 512, "`relu` holds `y`");
        let s = z.sum();
        assert_eq!(live(), base + 2 * 512 + 4);
        s.backward();
        // `y` went with relu's op; `z`, `s` and x's gradient remain.
        assert_eq!(live(), base + 512 + 4 + 512);
        assert_eq!(x.grad().unwrap().data()[0], 2.0);
    }

    #[test]
    fn a_matmul_over_a_rebuildable_constant_holds_no_handle_to_it() {
        let (m, k, n) = (64, 48, 4);
        let fill = |len: usize, mul: usize| -> Vec<f32> {
            (0..len)
                .map(|i| ((i * mul % 101) as f32 - 50.0) / 7.0)
                .collect()
        };
        let make = move || Tensor::from_vec(&[m, k], fill(m * k, 37));
        let g = Tensor::from_vec(&[m, n], fill(m * n, 13));
        let w = Var::parameter(Tensor::from_vec(&[k, n], fill(k * n, 29)));
        let base = live();
        let x = Var::rebuildable(make);
        assert_eq!(live(), base + m * k * 4);
        let y = x.matmul(&w);
        drop(x);
        assert_eq!(live(), base + m * n * 4, "only `y` is left");
        y.backward_with(&g);
        let rebuilt = w.grad().unwrap();

        let (x, w_kept) = (Var::constant(make()), Var::parameter(w.value_clone()));
        x.matmul(&w_kept).backward_with(&g);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rebuilt), bits(&w_kept.grad().unwrap()));
    }

    #[test]
    #[should_panic(expected = "recipe")]
    fn a_rebuildable_constant_is_read_only() {
        Var::rebuildable(|| Tensor::scalar(1.0)).set_value(Tensor::scalar(2.0));
    }

    #[test]
    #[should_panic(expected = "before it is shared")]
    fn a_recipe_comes_before_the_output_is_shared() {
        let p = Var::parameter(Tensor::scalar(2.0));
        let y = p.scale(3.0);
        let _other = y.clone();
        let _ = y.rebuilt_by(|| Tensor::scalar(6.0));
    }

    #[test]
    fn a_parameter_updates_in_place_once_its_backward_has_run() {
        let w = Var::parameter(Tensor::ones(&[4, 4]));
        let x = Var::constant(Tensor::ones(&[2, 4]));
        let y = x.matmul(&w).sum(); // matmul saves `x`, not `w`
        let p = w.value().data().as_ptr();
        w.update_value(|v| v.data_mut()[0] = 2.0);
        assert_eq!(w.value().data().as_ptr(), p, "nothing saved `w`");
        let y2 = w.matmul(&w).sum(); // saves `w` twice
        w.update_value(|v| v.data_mut()[0] = 3.0);
        assert_ne!(w.value().data().as_ptr(), p, "a saved value is not written");
        y2.backward();
        // The backward read the value it saved, `w[0][0] = 2`: row 0 and
        // column 0 of `w` each sum to 2 + 1 + 1 + 1.
        assert_eq!(w.grad().unwrap().data()[0], 10.0);
        let p = w.value().data().as_ptr();
        w.update_value(|v| v.data_mut()[0] = 4.0);
        assert_eq!(w.value().data().as_ptr(), p);
        y.backward();
    }
}
