//! Property-based tests of the sparse kernels and fused attention against
//! dense references, on randomly generated graphs — and of `spmm_sum`
//! forward and backward, bit for bit, against the per-edge loops they
//! promise to equal.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_graph::fused::{
    attn_grad_dot, gat_fused_block_backward, gat_fused_block_forward, OnlineAttnState,
};
use sar_graph::{generators::erdos_renyi, ops, CsrGraph};
use sar_tensor::{init, Tensor};

fn dense_adj(g: &CsrGraph) -> Tensor {
    let mut a = Tensor::zeros(&[g.num_rows(), g.num_cols()]);
    for i in 0..g.num_rows() {
        for &j in g.neighbors(i) {
            a.row_mut(i)[j as usize] += 1.0;
        }
    }
    a
}

/// A bipartite block straight from `from_raw`, so nothing sorts or
/// dedups it: row 0 is a hub drawing from every source (descending),
/// every third row is empty, the rest hold random sources in random
/// order, each entry followed now and then by its own duplicate.
fn unsorted_block(rows: usize, cols: usize, rng: &mut StdRng) -> CsrGraph {
    let mut indptr = vec![0usize];
    let mut indices: Vec<u32> = (0..cols as u32).rev().collect();
    indptr.push(indices.len());
    for i in 1..rows {
        if i % 3 != 0 {
            for _ in 0..rng.random_range(0..12) {
                let j = rng.random_range(0..cols as u32);
                indices.push(j);
                if rng.random_range(0..4) == 0 {
                    indices.push(j);
                }
            }
        }
        indptr.push(indices.len());
    }
    CsrGraph::from_raw(cols, indptr, indices)
}

/// Feature widths below, at and past one vector, the benchmark's two
/// (47 classes, 64 hidden) and one past a full 64-column strip.
const WIDTHS: [usize; 7] = [1, 7, 8, 13, 47, 64, 65];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spmm_sum_and_backward_equal_the_per_edge_loops_bitwise(
        seed in 0u64..1_000_000,
        rows in 1usize..14,
        cols in 1usize..40,
        w in 0usize..WIDTHS.len(),
    ) {
        let f = WIDTHS[w];
        let mut rng = StdRng::seed_from_u64(seed);
        let g = unsorted_block(rows, cols, &mut rng);
        let x = init::randn(&[cols, f], 1.0, &mut rng);
        let grad = init::randn(&[rows, f], 1.0, &mut rng);
        // One sweep over the edges in stored order: an edge `j → i` adds
        // `x[j]` into `out[i]` and `grad[i]` into `dx[j]`, one f32 add per
        // element — the order both kernels fold each of their rows in.
        let mut out = Tensor::ones(&[rows, f]);
        let mut dx = Tensor::zeros(&[cols, f]);
        for i in 0..rows {
            for &j in g.neighbors(i) {
                for c in 0..f {
                    out.row_mut(i)[c] += x.row(j as usize)[c];
                    dx.row_mut(j as usize)[c] += grad.row(i)[c];
                }
            }
        }
        let mut fwd = Tensor::ones(&[rows, f]);
        ops::spmm_sum_into(&g, &x, &mut fwd);
        prop_assert_eq!(bits(&fwd), bits(&out));
        prop_assert_eq!(bits(&ops::spmm_sum_backward(&g, &grad)), bits(&dx));
    }

    #[test]
    fn spmm_matches_dense(seed in 0u64..500, n in 3usize..20, m in 1usize..60, f in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng);
        let x = init::randn(&[n, f], 1.0, &mut rng);
        let sparse = ops::spmm_sum(&g, &x);
        let dense = dense_adj(&g).matmul(&x);
        prop_assert!(sparse.allclose(&dense, 1e-4));
    }

    #[test]
    fn spmm_backward_is_adjoint(seed in 0u64..500, n in 3usize..20, m in 1usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng);
        let x = init::randn(&[n, 3], 1.0, &mut rng);
        let y = init::randn(&[n, 3], 1.0, &mut rng);
        // <Ax, y> == <x, Aᵀy>
        let lhs: f32 = ops::spmm_sum(&g, &x).mul(&y).sum();
        let rhs: f32 = x.mul(&ops::spmm_sum_backward(&g, &y)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }

    #[test]
    fn edge_splitting_preserves_spmm(seed in 0u64..500, n in 4usize..16, m in 4usize..50, split in 0usize..50) {
        // Any split of the edge set into two blocks must aggregate to the
        // same result — the algebraic heart of SAR.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng);
        let edges: Vec<(u32, u32)> = g.iter_edges().collect();
        let k = split % (edges.len() + 1);
        let g_a = CsrGraph::from_edges(n, &edges[..k]);
        let g_b = CsrGraph::from_edges(n, &edges[k..]);
        let x = init::randn(&[n, 4], 1.0, &mut rng);
        let full = ops::spmm_sum(&g, &x);
        let mut acc = Tensor::zeros(&[n, 4]);
        ops::spmm_sum_into(&g_a, &x, &mut acc);
        ops::spmm_sum_into(&g_b, &x, &mut acc);
        prop_assert!(acc.allclose(&full, 1e-4));
    }

    #[test]
    fn fused_attention_matches_two_step_reference(seed in 0u64..300, n in 3usize..14, m in 1usize..40, heads in 1usize..4) {
        let d = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng);
        let s_dst = init::randn(&[n, heads], 1.0, &mut rng);
        let s_src = init::randn(&[n, heads], 1.0, &mut rng);
        let x = init::randn(&[n, heads * d], 1.0, &mut rng);
        let mut state = OnlineAttnState::new(n, heads, d);
        gat_fused_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut state);
        let fused = state.finalize();
        let scores = ops::gat_edge_scores(&g, &s_dst, &s_src, 0.2);
        let alpha = ops::edge_softmax(&g, &scores);
        let reference = ops::spmm_multihead(&g, &alpha, &x);
        prop_assert!(fused.allclose(&reference, 1e-3));
    }

    #[test]
    fn fused_attention_block_order_is_irrelevant(seed in 0u64..300, n in 4usize..12, m in 5usize..40) {
        // Feeding blocks in any order gives the same online-softmax result.
        let (heads, d) = (2, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng);
        let edges: Vec<(u32, u32)> = g.iter_edges().collect();
        let mid = edges.len() / 2;
        let g_a = CsrGraph::from_edges(n, &edges[..mid]);
        let g_b = CsrGraph::from_edges(n, &edges[mid..]);
        let s_dst = init::randn(&[n, heads], 2.0, &mut rng);
        let s_src = init::randn(&[n, heads], 2.0, &mut rng);
        let x = init::randn(&[n, heads * d], 1.0, &mut rng);

        let run = |blocks: [&CsrGraph; 2]| {
            let mut st = OnlineAttnState::new(n, heads, d);
            for b in blocks {
                gat_fused_block_forward(b, &s_dst, &s_src, &x, 0.2, &mut st);
            }
            st.finalize()
        };
        prop_assert!(run([&g_a, &g_b]).allclose(&run([&g_b, &g_a]), 1e-3));
    }

    #[test]
    fn fused_backward_is_adjoint_on_value_path(seed in 0u64..200, n in 3usize..10, m in 1usize..30) {
        // With all attention logits equal (uniform α), the aggregation is
        // linear in x, so <out, g> == <x, d_x> exactly.
        let (heads, d) = (2, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng);
        let s_dst = Tensor::zeros(&[n, heads]);
        let s_src = Tensor::zeros(&[n, heads]);
        let x = init::randn(&[n, heads * d], 1.0, &mut rng);
        let grad = init::randn(&[n, heads * d], 1.0, &mut rng);
        let mut st = OnlineAttnState::new(n, heads, d);
        gat_fused_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut st);
        let out = st.finalize();
        let grad_dot = attn_grad_dot(&grad, &out, heads);
        let mut dsd = Tensor::zeros(&[n, heads]);
        let grads = gat_fused_block_backward(
            &g, &s_dst, &s_src, &x, 0.2, &st.max, &st.den, &grad, &grad_dot, &mut dsd,
        );
        let lhs: f32 = out.mul(&grad).sum();
        let rhs: f32 = x.mul(&grads.d_x_src).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn symmetrize_and_self_loops_invariants(seed in 0u64..500, n in 2usize..20, m in 0usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng);
        let s = g.symmetrize();
        prop_assert!(s.is_symmetric());
        let sl = s.with_self_loops();
        for i in 0..n {
            prop_assert!(sl.neighbors(i).contains(&(i as u32)));
        }
        // Symmetrize is idempotent.
        prop_assert_eq!(s.symmetrize(), s);
    }

    #[test]
    fn reverse_is_involution(seed in 0u64..500, n in 2usize..20, m in 0usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng);
        prop_assert_eq!(g.reverse().reverse(), g);
    }

    #[test]
    fn gather_scatter_edge_duality(seed in 0u64..300, n in 3usize..15, m in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, m, &mut rng);
        let x = init::randn(&[n, 2], 1.0, &mut rng);
        let e = init::randn(&[g.num_edges(), 2], 1.0, &mut rng);
        let lhs: f32 = ops::gather_src(&g, &x).mul(&e).sum();
        let rhs: f32 = x.mul(&ops::scatter_edges_to_src(&g, &e)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
        let lhs2: f32 = ops::gather_dst(&g, &x).mul(&e).sum();
        let rhs2: f32 = x.mul(&ops::scatter_edges_to_dst(&g, &e)).sum();
        prop_assert!((lhs2 - rhs2).abs() < 1e-3 * (1.0 + lhs2.abs()));
    }
}
