//! Bitwise 1-vs-N-thread parity for every parallelized kernel.
//!
//! The kernels in `ops` and `fused` chunk work across the worker's thread
//! pool such that every output row has exactly one writer and every
//! per-row reduction runs in the sequential visit order (see DESIGN.md
//! §8). That design claim is only worth anything if it is *checked*:
//! each test here runs a kernel once with `pool::set_threads(1)` and once
//! with `pool::set_threads(4)` on the same inputs and asserts the outputs
//! are equal **bit for bit** — not approximately, `to_bits()` equal.
//!
//! The test graph deliberately contains isolated destinations (no
//! in-edges) and isolated sources (no out-edges): degree-0 rows are where
//! chunk boundaries and empty edge ranges meet, and where mean/softmax
//! normalizers can divide by zero.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_graph::{fused, ops, CsrGraph};
use sar_tensor::{init, pool, Tensor};

/// A few hundred nodes, random edges, with guaranteed degree-0 rows:
/// nodes `0` and `1` receive no edges (isolated destinations) and node
/// `n - 1` sends none (isolated source).
fn test_graph(n: usize, m: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            (
                rng.random_range(0..n - 1) as u32,
                rng.random_range(2..n) as u32,
            )
        })
        .collect();
    CsrGraph::from_edges(n, &edges)
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    pool::set_threads(n);
    let out = f();
    pool::set_threads(1);
    out
}

fn assert_bitwise_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (k, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {k} diverges across thread counts: {x} vs {y}"
        );
    }
}

/// Runs `f` at 1 and 4 threads and asserts every returned tensor matches
/// bitwise.
fn assert_parity(what: &str, f: impl Fn() -> Vec<Tensor>) {
    let seq = with_threads(1, &f);
    let par = with_threads(4, &f);
    assert_eq!(seq.len(), par.len());
    assert!(pool::threads() <= 1, "thread count must be restored");
    for (k, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_bitwise_eq(a, b, &format!("{what}[{k}]"));
        assert!(
            a.data().iter().all(|v| v.is_finite()),
            "{what}[{k}]: non-finite values"
        );
    }
}

const N: usize = 257; // odd on purpose: uneven chunk boundaries
const M: usize = 1900;

#[test]
fn spmm_sum_parity() {
    let g = test_graph(N, M, 1);
    let x = init::randn(&[N, 13], 1.0, &mut StdRng::seed_from_u64(2));
    assert_parity("spmm_sum", || vec![ops::spmm_sum(&g, &x)]);
}

#[test]
fn spmm_sum_backward_parity() {
    let g = test_graph(N, M, 3);
    let grad = init::randn(&[N, 13], 1.0, &mut StdRng::seed_from_u64(4));
    assert_parity("spmm_sum_backward", || {
        vec![ops::spmm_sum_backward(&g, &grad)]
    });
}

#[test]
fn scatter_edges_parity() {
    let g = test_graph(N, M, 5);
    let ev = init::randn(&[g.num_edges(), 7], 1.0, &mut StdRng::seed_from_u64(6));
    assert_parity("scatter_edges", || {
        vec![
            ops::scatter_edges_to_src(&g, &ev),
            ops::scatter_edges_to_dst(&g, &ev),
        ]
    });
}

#[test]
fn edge_softmax_parity() {
    let g = test_graph(N, M, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let scores = init::randn(&[g.num_edges(), 4], 3.0, &mut rng);
    let grad = init::randn(&[g.num_edges(), 4], 1.0, &mut rng);
    assert_parity("edge_softmax", || {
        let alpha = ops::edge_softmax(&g, &scores);
        let d_scores = ops::edge_softmax_backward(&g, &alpha, &grad);
        vec![alpha, d_scores]
    });
}

#[test]
fn spmm_multihead_parity() {
    let g = test_graph(N, M, 9);
    let mut rng = StdRng::seed_from_u64(10);
    let (h, d) = (4, 5);
    let alpha = ops::edge_softmax(&g, &init::randn(&[g.num_edges(), h], 1.0, &mut rng));
    let x = init::randn(&[N, h * d], 1.0, &mut rng);
    let grad = init::randn(&[N, h * d], 1.0, &mut rng);
    assert_parity("spmm_multihead", || {
        let out = ops::spmm_multihead(&g, &alpha, &x);
        let (d_alpha, d_x) = ops::spmm_multihead_backward(&g, &alpha, &x, &grad);
        vec![out, d_alpha, d_x]
    });
}

#[test]
fn head_project_parity() {
    let mut rng = StdRng::seed_from_u64(11);
    let (h, d) = (4, 6);
    let x = init::randn(&[N, h * d], 1.0, &mut rng);
    let a = init::randn(&[h * d], 1.0, &mut rng);
    let grad = init::randn(&[N, h], 1.0, &mut rng);
    assert_parity("head_project", || {
        let out = ops::head_project(&x, &a, h);
        let (d_x, d_a) = ops::head_project_backward(&x, &a, h, &grad);
        vec![out, d_x, d_a]
    });
}

#[test]
fn gat_edge_scores_parity() {
    let g = test_graph(N, M, 12);
    let mut rng = StdRng::seed_from_u64(13);
    let h = 3;
    let s_dst = init::randn(&[N, h], 1.0, &mut rng);
    let s_src = init::randn(&[N, h], 1.0, &mut rng);
    let grad = init::randn(&[g.num_edges(), h], 1.0, &mut rng);
    assert_parity("gat_edge_scores", || {
        let scores = ops::gat_edge_scores(&g, &s_dst, &s_src, 0.2);
        let (d_dst, d_src) = ops::gat_edge_scores_backward(&g, &s_dst, &s_src, 0.2, &grad);
        vec![scores, d_dst, d_src]
    });
}

/// Shared inputs for the fused/two-step GAT block tests.
struct GatBlock {
    g: CsrGraph,
    s_dst: Tensor,
    s_src: Tensor,
    x: Tensor,
    grad_out: Tensor,
    h: usize,
    d: usize,
}

fn gat_block(seed: u64) -> GatBlock {
    let g = test_graph(N, M, seed);
    let mut rng = StdRng::seed_from_u64(seed + 100);
    let (h, d) = (4, 5);
    GatBlock {
        s_dst: init::randn(&[g.num_rows(), h], 1.0, &mut rng),
        s_src: init::randn(&[g.num_cols(), h], 1.0, &mut rng),
        x: init::randn(&[g.num_cols(), h * d], 1.0, &mut rng),
        grad_out: init::randn(&[g.num_rows(), h * d], 1.0, &mut rng),
        g,
        h,
        d,
    }
}

#[test]
fn fused_gat_block_parity() {
    let b = gat_block(14);
    assert_parity("fused_gat_block", || {
        let mut state = fused::OnlineAttnState::new(b.g.num_rows(), b.h, b.d);
        fused::gat_fused_block_forward(&b.g, &b.s_dst, &b.s_src, &b.x, 0.2, &mut state);
        let (out, max, den) = state.finalize_into();
        let grad_dot = fused::attn_grad_dot(&b.grad_out, &out, b.h);
        let mut d_s_dst = Tensor::zeros(&[b.g.num_rows(), b.h]);
        let grads = fused::gat_fused_block_backward(
            &b.g,
            &b.s_dst,
            &b.s_src,
            &b.x,
            0.2,
            &max,
            &den,
            &b.grad_out,
            &grad_dot,
            &mut d_s_dst,
        );
        vec![out, grad_dot, d_s_dst, grads.d_x_src, grads.d_s_src]
    });
}

#[test]
fn twostep_gat_block_parity() {
    let b = gat_block(15);
    assert_parity("twostep_gat_block", || {
        let mut state = fused::OnlineAttnState::new(b.g.num_rows(), b.h, b.d);
        fused::gat_twostep_block_forward(&b.g, &b.s_dst, &b.s_src, &b.x, 0.2, &mut state);
        let (out, max, den) = state.finalize_into();
        let grad_dot = fused::attn_grad_dot(&b.grad_out, &out, b.h);
        let mut d_s_dst = Tensor::zeros(&[b.g.num_rows(), b.h]);
        let grads = fused::gat_twostep_block_backward(
            &b.g,
            &b.s_dst,
            &b.s_src,
            &b.x,
            0.2,
            &max,
            &den,
            &b.grad_out,
            &grad_dot,
            &mut d_s_dst,
        );
        vec![out, grad_dot, d_s_dst, grads.d_x_src, grads.d_s_src]
    });
}

#[test]
fn isolated_destinations_produce_zero_rows() {
    // Nodes 0 and 1 have no in-edges: sum aggregation and the fused GAT
    // block (denominator 0) must yield all-zero — not NaN — output rows,
    // at any thread count.
    let b = gat_block(16);
    for threads in [1, 4] {
        with_threads(threads, || {
            let summed = ops::spmm_sum(&b.g, &b.x);
            let mut state = fused::OnlineAttnState::new(b.g.num_rows(), b.h, b.d);
            fused::gat_fused_block_forward(&b.g, &b.s_dst, &b.s_src, &b.x, 0.2, &mut state);
            let attn = state.finalize();
            for iso in [0usize, 1] {
                assert!(b.g.is_isolated_row(iso));
                assert!(summed.row(iso).iter().all(|&v| v == 0.0));
                assert!(attn.row(iso).iter().all(|&v| v == 0.0));
            }
            assert!(attn.data().iter().all(|v| v.is_finite()));
        });
    }
}
