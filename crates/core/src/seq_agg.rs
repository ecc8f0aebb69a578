//! Sequential Aggregation and Rematerialization — Algorithms 1 and 2.
//!
//! Each function here executes the message-passing + aggregation part of a
//! GNN layer *outside* the autograd tape (Algorithm 1: raw kernels over
//! one fetched partition block at a time, freed immediately), and records
//! a custom [`Function`] whose backward routes errors to the owning
//! workers (Algorithm 2):
//!
//! * [`sage_aggregate`] — **case 1**: `dAgg/dz` does not depend on `z`, so
//!   the backward pass sends error blocks directly without re-fetching any
//!   remote features. SAR adds no communication over domain-parallel
//!   training.
//! * [`gat_aggregate`] — **case 2**: the attention coefficients depend on
//!   `z`, so the backward pass *re-fetches* the remote features (the 50%
//!   communication overhead the paper describes), re-computes the
//!   coefficients with the saved online-softmax statistics, and routes
//!   gradients back. With `FakMode::Fused`, coefficients are produced on
//!   the fly (fused kernels, §3.3); with `FakMode::TwoStep`, each block's
//!   coefficients are materialized and re-read (the plain-SAR baseline of
//!   Figs. 4 and 6).

use std::cell::Cell;
use std::rc::Rc;

use sar_comm::{Phase, TransportError};
use sar_graph::fused::{
    attn_grad_dot, gat_fused_block_backward, gat_fused_block_forward, gat_twostep_block_backward,
    gat_twostep_block_forward, FusedBlockGrads, OnlineAttnState,
};
use sar_graph::{ops, CsrGraph};
use sar_tensor::{Edge, Function, Saved, Tensor, Var};

use crate::view::View;
use crate::worker::{GradRouter, Worker};

// ----------------------------------------------------------------------
// Case 1: GraphSage (linear aggregation, no refetch)
// ----------------------------------------------------------------------

/// Saves nothing: case 1's backward reads only the gradient and the graph.
struct SageAggFn {
    parents: Vec<Edge>, // [z]
    w: Rc<Worker>,
    view: View,
    // Layer this aggregation was recorded under, restored in backward so
    // error routing is ledgered against the right layer.
    layer: Option<u16>,
}

impl Function for SageAggFn {
    fn parents(&self) -> &[Edge] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "sar_sage_aggregate"
    }

    fn backward(&self, grad_output: &Tensor) -> Vec<Option<Tensor>> {
        // Case 1: the error for partition q's features is a linear map of
        // the output error — computed and shipped without refetching z.
        let w = &self.w;
        let _layer = w.ctx.layer_scope_opt(self.layer);
        let grad_z = w.exchange_grads(&*self.view, grad_output.cols(), |q| {
            ops::spmm_sum_backward(self.view.block(q), grad_output)
        });
        vec![Some(grad_z)]
    }
}

/// SAR sum-aggregation for GraphSage-style layers (case 1).
///
/// Forward: Algorithm 1 — fetches each partition's projected features
/// `Z_{q→p}` one at a time, accumulates `Σ_q A_{p,q} Z_{q→p}` into a local
/// accumulator with raw kernels (no tape), and frees each block before the
/// next. Backward: Algorithm 2, case 1 — no refetch.
///
/// `z` must be this worker's `[num_inputs, F]` projected features over
/// `view`. Returns the `[num_dst, F]` *sum* aggregation; divide by the
/// global in-degree for Eq. 2's mean.
///
/// # Errors
///
/// Whatever the forward exchange reports (dead peer, malformed block).
/// The recorded backward pass cannot return errors; it panics naming this
/// rank instead.
///
/// # Panics
///
/// Panics if `z` has the wrong number of rows.
pub fn sage_aggregate(w: &Rc<Worker>, view: &View, z: &Var) -> Result<Var, TransportError> {
    let cols = z.value().cols();
    let mut acc = Tensor::zeros(&[view.num_dst(), cols]);
    {
        let _phase = w.ctx.phase_scope(Phase::ForwardFetch);
        w.try_fetch_rounds(&**view, &z.value(), w.next_tag(), |q, z_block| {
            ops::spmm_sum_into(view.block(q), z_block, &mut acc);
            Ok(())
        })?;
    }
    Ok(Var::from_function(
        acc,
        SageAggFn {
            parents: vec![z.edge()],
            w: Rc::clone(w),
            view: View::clone(view),
            layer: w.ctx.current_layer(),
        },
    ))
}

// ----------------------------------------------------------------------
// Case 2: GAT (attention aggregation, refetch + recompute)
// ----------------------------------------------------------------------

/// Which attention kernel the sequential aggregation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FakMode {
    /// Fused attention kernels (§3.3): coefficients computed on the fly,
    /// never materialized — "SAR+FAK" in the paper's figures.
    Fused,
    /// DGL-style two-step kernels: each block's `[E_block, H]`
    /// coefficients are written to memory and read back — "SAR" (plain)
    /// in the paper's figures.
    TwoStep,
}

impl FakMode {
    /// One block of the online-softmax forward with this kernel family.
    fn block_forward(
        self,
        g: &CsrGraph,
        s_dst: &Tensor,
        s_src: &Tensor,
        x: &Tensor,
        slope: f32,
        st: &mut OnlineAttnState,
    ) {
        match self {
            FakMode::Fused => gat_fused_block_forward(g, s_dst, s_src, x, slope, st),
            FakMode::TwoStep => gat_twostep_block_forward(g, s_dst, s_src, x, slope, st),
        }
    }

    /// One block of the rematerializing backward with this kernel family.
    #[allow(clippy::too_many_arguments)]
    fn block_backward(
        self,
        g: &CsrGraph,
        s_dst: &Tensor,
        s_src: &Tensor,
        x: &Tensor,
        slope: f32,
        (max, den): (&Tensor, &Tensor),
        (grad, dot): (&Tensor, &Tensor),
        d_s_dst: &mut Tensor,
    ) -> FusedBlockGrads {
        match self {
            FakMode::Fused => {
                gat_fused_block_backward(g, s_dst, s_src, x, slope, max, den, grad, dot, d_s_dst)
            }
            FakMode::TwoStep => {
                gat_twostep_block_backward(g, s_dst, s_src, x, slope, max, den, grad, dot, d_s_dst)
            }
        }
    }
}

struct GatAggFn {
    parents: Vec<Edge>, // [z, s_dst, a_src]
    // What the backward reads: the local features it serves to the
    // refetch, both attention operands and its own output.
    z: Saved,
    s_dst: Saved,
    a_src: Saved,
    out: Rc<Tensor>,
    w: Rc<Worker>,
    view: View,
    heads: usize,
    slope: f32,
    mode: FakMode,
    layer: Option<u16>,
    // Saved online-softmax statistics `(max, den)`, [num_dst, H] each —
    // the only state SAR keeps to re-materialize attention in the
    // backward pass. `None` once a backward pass has consumed them.
    saved: Cell<Option<(Tensor, Tensor)>>,
}

impl Function for GatAggFn {
    fn parents(&self) -> &[Edge] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "sar_gat_aggregate"
    }

    fn backward(&self, grad_output: &Tensor) -> Vec<Option<Tensor>> {
        let w = &self.w;
        let view = &*self.view;
        let _layer = w.ctx.layer_scope_opt(self.layer);
        let (z, s_dst, a_src) = (self.z.get(), self.s_dst.get(), self.a_src.get());
        let (z, s_dst, a_src) = (&*z, &*s_dst, &*a_src);
        let heads = self.heads;
        let hd = z.cols();
        let grad_dot = attn_grad_dot(grad_output, &self.out, heads);
        let mut d_s_dst = Tensor::zeros(&[view.num_dst(), heads]);
        let mut d_a_src = Tensor::zeros(&[hd]);
        let mut router = GradRouter::new(w, view, hd);
        let Some((max, den)) = self.saved.take() else {
            panic!("worker {}: GAT aggregation backward ran twice", w.rank());
        };

        // Case 2: re-fetch every partition's features (the rematerialized
        // pieces of the computational graph), push each block's gradient
        // to the router, free the block, move on. The rotation fetch is
        // ledgered as BackwardRefetch — the paper's 50% extra
        // communication — while the router's sends nest under GradRouting.
        let grad_z = {
            let _refetch = w.ctx.phase_scope(Phase::BackwardRefetch);
            w.try_fetch_rounds(view, z, w.next_tag(), |q, z_block| {
                let s_src_block = ops::head_project(z_block, a_src, heads);
                let grads = self.mode.block_backward(
                    view.block(q),
                    s_dst,
                    &s_src_block,
                    z_block,
                    self.slope,
                    (&max, &den),
                    (grad_output, &grad_dot),
                    &mut d_s_dst,
                );
                // Fold the s_src path back into z and a_src:
                // s_src = head_project(z, a_src).
                let (dz_from_s, da) =
                    ops::head_project_backward(z_block, a_src, heads, &grads.d_s_src);
                d_a_src.add_assign(&da);
                let mut d_z_block = grads.d_x_src;
                d_z_block.add_assign(&dz_from_s);
                router.push(q, d_z_block)
            })
            // Accumulate the error blocks routed to this worker (E_p =
            // Σ_q E_{q→p} in Algorithm 2). The router awaits exactly the
            // peers whose refetch consumed a block of ours: all of them
            // under the exact and stale protocols, none under gradonly.
            .and_then(|()| router.finish())
            .unwrap_or_else(|e| {
                panic!(
                    "worker {} rematerializing attention gradients: {e}",
                    w.rank()
                )
            })
        };

        // `d_a_src` covers this worker's destination edges only, like every
        // parameter gradient: the trainer's one all-reduce is Algorithm 2's
        // "sum θ^l.grad across all machines".
        vec![Some(grad_z), Some(d_s_dst), Some(d_a_src)]
    }
}

/// SAR attention-aggregation for GAT layers (case 2).
///
/// * `z` — this worker's projected features `[num_inputs, H*D]` over
///   `view`.
/// * `s_dst` — destination attention logits `[num_dst, H]` (on the tape;
///   its gradient flows back through `head_project`).
/// * `a_src` — the source attention vector `[H*D]`; source logits for
///   *fetched* features are recomputed from it on the fly, so only `z`
///   rows ever cross the network.
///
/// Forward: Algorithm 1 with the incremental stable softmax of §3.4 —
/// per-block online-softmax accumulation with running-max renormalization.
/// Backward: Algorithm 2, case 2 — refetch, recompute, route.
///
/// # Errors
///
/// Whatever the forward exchange reports (dead peer, malformed block).
/// The recorded backward pass cannot return errors; it panics naming this
/// rank instead.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn gat_aggregate(
    w: &Rc<Worker>,
    view: &View,
    z: &Var,
    s_dst: &Var,
    a_src: &Var,
    heads: usize,
    slope: f32,
    mode: FakMode,
) -> Result<Var, TransportError> {
    let hd = z.value().cols();
    if heads == 0 || !hd.is_multiple_of(heads) {
        panic!(
            "worker {}: feature width {hd} not divisible by {heads} heads",
            w.rank()
        );
    }
    let head_dim = hd / heads;
    let mut state = OnlineAttnState::new(view.num_dst(), heads, head_dim);
    {
        let _phase = w.ctx.phase_scope(Phase::ForwardFetch);
        let (z_val, s_dst_val, a_src_val) = (z.value(), s_dst.value(), a_src.value());
        w.try_fetch_rounds(&**view, &z_val, w.next_tag(), |q, z_block| {
            let s_src_block = ops::head_project(z_block, &a_src_val, heads);
            mode.block_forward(
                view.block(q),
                &s_dst_val,
                &s_src_block,
                z_block,
                slope,
                &mut state,
            );
            Ok(())
        })?;
    }
    let (value, max, den) = state.finalize_into();
    let value = Rc::new(value);
    // The saved statistics are only worth keeping when a backward can
    // run: with grad disabled, `Var::from_function` drops the Function at
    // once, and the statistics die here with it.
    let saved = sar_tensor::grad_enabled().then_some((max, den));
    Ok(Var::from_function(
        Rc::clone(&value),
        GatAggFn {
            parents: vec![z.edge(), s_dst.edge(), a_src.edge()],
            z: z.save(),
            s_dst: s_dst.save(),
            a_src: a_src.save(),
            out: value,
            w: Rc::clone(w),
            view: View::clone(view),
            heads,
            slope,
            mode,
            layer: w.ctx.current_layer(),
            saved: Cell::new(saved),
        },
    ))
}
