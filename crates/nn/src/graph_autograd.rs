//! Differentiable wrappers around the sparse kernels of `sar-graph`.
//!
//! Each wrapper records a custom backward on the autograd tape. Graphs are
//! passed as `Arc<CsrGraph>` so the backward closures can hold them without
//! copying the topology.

use std::sync::Arc;

use sar_graph::{ops, CsrGraph};
use sar_tensor::{Function, Tensor, Var};

/// Differentiable sum aggregation `out[i] = Σ_{j ∈ N(i)} x[j]`.
///
/// # Panics
///
/// Panics if `x` rows differ from the graph's column count.
pub fn spmm_sum(g: &Arc<CsrGraph>, x: &Var) -> Var {
    let value = ops::spmm_sum(g, &x.value());
    let g = Arc::clone(g);
    Var::from_op(value, vec![x.clone()], "spmm_sum", move |grad| {
        vec![Some(ops::spmm_sum_backward(&g, grad))]
    })
}

/// Differentiable mean aggregation: sum aggregation divided by the
/// in-degree (isolated nodes output zero).
///
/// # Panics
///
/// Panics if `x` rows differ from the graph's column count.
pub fn spmm_mean(g: &Arc<CsrGraph>, x: &Var) -> Var {
    let inv_deg: Vec<f32> = g
        .in_degrees()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
        .collect();
    let inv = Var::constant(Tensor::from_vec(&[g.num_rows()], inv_deg));
    spmm_sum(g, x).mul_col(&inv)
}

/// Differentiable per-edge attention scores
/// `e[e, h] = LeakyReLU(s_dst[dst(e), h] + s_src[src(e), h])`.
///
/// # Panics
///
/// Panics if shapes disagree with the graph.
pub fn gat_edge_scores(g: &Arc<CsrGraph>, s_dst: &Var, s_src: &Var, slope: f32) -> Var {
    let value = ops::gat_edge_scores(g, &s_dst.value(), &s_src.value(), slope);
    let graph = Arc::clone(g);
    let (sd, ss) = (s_dst.clone(), s_src.clone());
    Var::from_op(
        value,
        vec![s_dst.clone(), s_src.clone()],
        "gat_edge_scores",
        move |grad| {
            let (d_dst, d_src) =
                ops::gat_edge_scores_backward(&graph, &sd.value(), &ss.value(), slope, grad);
            vec![Some(d_dst), Some(d_src)]
        },
    )
}

/// Differentiable gather of source features per edge: `out[e] = x[src(e)]`
/// (`[E, F]`). Backward scatter-adds to the sources. One of the primitive
/// DGL-style edge operations whose materialized outputs the fused kernel
/// avoids.
///
/// # Panics
///
/// Panics if `x` rows differ from the graph's column count.
pub fn gather_src(g: &Arc<CsrGraph>, x: &Var) -> Var {
    let value = ops::gather_src(g, &x.value());
    let graph = Arc::clone(g);
    Var::from_op(value, vec![x.clone()], "gather_src", move |grad| {
        vec![Some(ops::scatter_edges_to_src(&graph, grad))]
    })
}

/// Differentiable gather of destination features per edge:
/// `out[e] = x[dst(e)]` (`[E, F]`). Backward scatter-adds to the
/// destinations.
///
/// # Panics
///
/// Panics if `x` rows differ from the graph's row count.
pub fn gather_dst(g: &Arc<CsrGraph>, x: &Var) -> Var {
    let value = ops::gather_dst(g, &x.value());
    let graph = Arc::clone(g);
    Var::from_op(value, vec![x.clone()], "gather_dst", move |grad| {
        vec![Some(ops::scatter_edges_to_dst(&graph, grad))]
    })
}

struct EdgeSoftmaxFn {
    parents: Vec<Var>,
    graph: Arc<CsrGraph>,
}

impl Function for EdgeSoftmaxFn {
    fn parents(&self) -> &[Var] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "edge_softmax"
    }

    fn backward(&self, grad_output: &Tensor, output: &Tensor) -> Vec<Option<Tensor>> {
        // The softmax gradient is expressed in terms of the output, which
        // the engine shares with us — no extra copy is saved at forward
        // time (matching DGL/PyTorch `save_for_backward`).
        vec![Some(ops::edge_softmax_backward(
            &self.graph,
            output,
            grad_output,
        ))]
    }
}

/// Differentiable edge softmax over each destination's incoming edges.
///
/// The `[E, H]` attention-coefficient tensor this produces lives on the
/// tape until backward — the memory cost the fused kernel (§3.3) avoids.
///
/// # Panics
///
/// Panics if `scores` does not have one row per edge.
pub fn edge_softmax(g: &Arc<CsrGraph>, scores: &Var) -> Var {
    let alpha = ops::edge_softmax(g, &scores.value());
    Var::from_function(
        alpha,
        EdgeSoftmaxFn {
            parents: vec![scores.clone()],
            graph: Arc::clone(g),
        },
    )
}

/// Differentiable multi-head attention-weighted aggregation.
///
/// # Panics
///
/// Panics if shapes are inconsistent (see
/// [`ops::spmm_multihead`]).
pub fn spmm_multihead(g: &Arc<CsrGraph>, alpha: &Var, x: &Var) -> Var {
    let value = ops::spmm_multihead(g, &alpha.value(), &x.value());
    let graph = Arc::clone(g);
    let (a, xv) = (alpha.clone(), x.clone());
    Var::from_op(
        value,
        vec![alpha.clone(), x.clone()],
        "spmm_multihead",
        move |grad| {
            let (d_alpha, d_x) =
                ops::spmm_multihead_backward(&graph, &a.value(), &xv.value(), grad);
            vec![Some(d_alpha), Some(d_x)]
        },
    )
}

/// Differentiable per-head projection `s[n, h] = Σ_k x[n, h*D+k] a[h*D+k]`.
///
/// # Panics
///
/// Panics if `a` length differs from `x.cols()` or is not divisible by
/// `heads`.
pub fn head_project(x: &Var, a: &Var, heads: usize) -> Var {
    let value = ops::head_project(&x.value(), &a.value(), heads);
    let (xv, av) = (x.clone(), a.clone());
    Var::from_op(
        value,
        vec![x.clone(), a.clone()],
        "head_project",
        move |grad| {
            let (d_x, d_a) = ops::head_project_backward(&xv.value(), &av.value(), heads, grad);
            vec![Some(d_x), Some(d_a)]
        },
    )
}

/// Averages the `heads` blocks of a `[N, H*D]` variable into `[N, D]` —
/// the head-combination used by a final GAT layer.
///
/// # Panics
///
/// Panics if the width is not divisible by `heads`.
pub fn mean_heads(x: &Var, heads: usize) -> Var {
    let hd = x.value().cols();
    assert_eq!(hd % heads, 0, "width {hd} not divisible by {heads} heads");
    let d = hd / heads;
    let n = x.value().rows();
    let mut out = vec![0.0f32; n * d];
    {
        let v = x.value();
        for i in 0..n {
            let row = v.row(i);
            for h in 0..heads {
                for k in 0..d {
                    out[i * d + k] += row[h * d + k] / heads as f32;
                }
            }
        }
    }
    let value = Tensor::from_vec(&[n, d], out);
    Var::from_op(value, vec![x.clone()], "mean_heads", move |grad| {
        let mut dx = Tensor::zeros(&[n, hd]);
        for i in 0..n {
            let g_row = grad.row(i);
            let dx_row = dx.row_mut(i);
            for h in 0..heads {
                for k in 0..d {
                    dx_row[h * d + k] = g_row[k] / heads as f32;
                }
            }
        }
        vec![Some(dx)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sar_tensor::gradcheck::check_gradients;
    use sar_tensor::init;

    fn graph() -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_edges(
            4,
            &[(1, 0), (2, 0), (0, 1), (3, 2), (2, 2), (1, 3)],
        ))
    }

    #[test]
    fn spmm_sum_gradcheck() {
        let g = graph();
        let x = init::randn(&[4, 3], 1.0, &mut StdRng::seed_from_u64(0));
        let w = Var::constant(init::randn(&[4, 3], 1.0, &mut StdRng::seed_from_u64(1)));
        check_gradients(&[x], |vs| spmm_sum(&g, &vs[0]).mul(&w).sum(), 1e-2);
    }

    #[test]
    fn spmm_mean_divides_by_degree() {
        let g = graph();
        let x = Var::constant(Tensor::ones(&[4, 1]));
        let m = spmm_mean(&g, &x);
        // Every non-isolated node should aggregate exactly 1.0.
        for i in 0..4 {
            let expect = if g.in_degree(i) > 0 { 1.0 } else { 0.0 };
            assert!((m.value().at(&[i, 0]) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn edge_softmax_gradcheck() {
        let g = graph();
        let scores = init::randn(&[g.num_edges(), 2], 1.0, &mut StdRng::seed_from_u64(2));
        let w = Var::constant(init::randn(
            &[g.num_edges(), 2],
            1.0,
            &mut StdRng::seed_from_u64(3),
        ));
        check_gradients(&[scores], |vs| edge_softmax(&g, &vs[0]).mul(&w).sum(), 1e-2);
    }

    #[test]
    fn spmm_multihead_gradcheck() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(4);
        let alpha = init::randn(&[g.num_edges(), 2], 1.0, &mut rng);
        let x = init::randn(&[4, 4], 1.0, &mut rng);
        let w = Var::constant(init::randn(&[4, 4], 1.0, &mut rng));
        check_gradients(
            &[alpha, x],
            |vs| spmm_multihead(&g, &vs[0], &vs[1]).mul(&w).sum(),
            1e-2,
        );
    }

    #[test]
    fn head_project_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = init::randn(&[5, 6], 1.0, &mut rng);
        let a = init::randn(&[6], 1.0, &mut rng);
        let w = Var::constant(init::randn(&[5, 2], 1.0, &mut rng));
        check_gradients(
            &[x, a],
            |vs| head_project(&vs[0], &vs[1], 2).mul(&w).sum(),
            1e-2,
        );
    }

    #[test]
    fn gat_edge_scores_gradcheck() {
        let g = graph();
        // Seed chosen so no edge score lands near the leaky-relu kink at 0,
        // where finite differences straddle the nonsmooth point.
        let mut rng = StdRng::seed_from_u64(9);
        let s_dst = init::randn(&[4, 2], 1.0, &mut rng);
        let s_src = init::randn(&[4, 2], 1.0, &mut rng);
        let w = Var::constant(init::randn(&[g.num_edges(), 2], 1.0, &mut rng));
        check_gradients(
            &[s_dst, s_src],
            |vs| gat_edge_scores(&g, &vs[0], &vs[1], 0.2).mul(&w).sum(),
            2e-2,
        );
    }

    #[test]
    fn mean_heads_gradcheck_and_value() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = init::randn(&[3, 6], 1.0, &mut rng);
        let v = Var::constant(x.clone());
        let m = mean_heads(&v, 3);
        assert_eq!(m.shape(), vec![3, 2]);
        let manual = (x.at(&[0, 0]) + x.at(&[0, 2]) + x.at(&[0, 4])) / 3.0;
        assert!((m.value().at(&[0, 0]) - manual).abs() < 1e-6);
        let w = Var::constant(init::randn(&[3, 2], 1.0, &mut rng));
        check_gradients(&[x], |vs| mean_heads(&vs[0], 3).mul(&w).sum(), 1e-2);
    }
}
