//! Vanilla domain-parallel training — the baseline SAR is compared against
//! (Fig. 1a of the paper).
//!
//! Domain-parallel training fetches **all** boundary features at the start
//! of a layer. Wherever a backward reads them they stay alive until the
//! backward pass, together with every per-edge intermediate: GAT's
//! attention saves the halo and the `[E, H]` attention coefficients. The
//! result is the memory blow-up of Fig. 1a: by the end of the forward pass
//! a worker stores a substantial portion of the whole graph as part of its
//! output's computational graph. A Sage/GCN sum aggregation reads no value
//! in its backward, so there — as in PyTorch/DGL — the halo is freed as
//! soon as it has been aggregated.

use std::rc::Rc;

use sar_comm::{Payload, Phase};
use sar_tensor::{Edge, Function, Tensor, Var};

use crate::worker::Worker;

/// Saves nothing: the backward slices the gradient by partition.
struct HaloFetchFn {
    parents: Vec<Edge>, // [z]
    w: Rc<Worker>,
    layer: Option<u16>,
}

impl Function for HaloFetchFn {
    fn parents(&self) -> &[Edge] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "domain_parallel_halo_fetch"
    }

    fn backward(&self, grad_output: &Tensor) -> Vec<Option<Tensor>> {
        // Slice the halo gradient per partition section and route each
        // slice back to the owner; accumulate what peers route to us.
        let w = &self.w;
        let _layer = w.ctx.layer_scope_opt(self.layer);
        let cols = grad_output.cols();
        let grad_z = w.exchange_grads(&*w.graph, cols, |q| {
            let start = w.graph.halo_offset(q);
            let len = w.graph.needed_from(q).len();
            grad_output.slice_rows(start..start + len)
        });
        vec![Some(grad_z)]
    }
}

/// Fetches the full halo of `z` in one shot and returns it as a tape
/// variable (`[halo_width, F]`, sections ordered by partition as in
/// [`DistGraph::halo_graph`](crate::DistGraph::halo_graph)).
///
/// Unlike SAR's [`try_fetch_rounds`](crate::Worker::try_fetch_rounds), the fetched
/// features become part of the computational graph: every operation whose
/// backward reads them keeps them resident until that backward has run.
///
/// # Panics
///
/// Panics if `z` does not have one row per local node.
pub fn halo_fetch(w: &Rc<Worker>, z: &Var) -> Var {
    let n = w.world();
    let p = w.rank();
    let cols = z.value().cols();
    assert_eq!(
        z.value().rows(),
        w.graph.num_local(),
        "z rows != local nodes"
    );
    let tag = w.next_tag();
    let phase = w.ctx.phase_scope(Phase::ForwardFetch);

    // Send every peer its rows, then assemble the halo in partition order.
    {
        let zv = z.value();
        for r in 1..n {
            let q = (p + r) % n;
            let block = zv.gather_rows(w.graph.serves_to(q));
            w.ctx.send(q, tag, Payload::F32(block.into_data()));
        }
    }
    let mut sections: Vec<Tensor> = Vec::with_capacity(n);
    for q in 0..n {
        if q == p {
            sections.push(z.value().gather_rows(w.graph.needed_from(p)));
        } else {
            let rows = w.graph.needed_from(q).len();
            let data = w.ctx.recv(q, tag).into_f32();
            assert_eq!(data.len(), rows * cols, "halo block size mismatch");
            sections.push(Tensor::from_vec(&[rows, cols], data));
        }
    }
    let refs: Vec<&Tensor> = sections.iter().collect();
    let halo = Tensor::vstack(&refs);
    drop(sections);
    drop(phase);

    Var::from_function(
        halo,
        HaloFetchFn {
            parents: vec![z.edge()],
            w: Rc::clone(w),
            layer: w.ctx.current_layer(),
        },
    )
}
