//! Property-based tests of the sparse kernels and fused attention against
//! dense references, on randomly generated graphs — and of `spmm_sum` and
//! both attention families, forward and backward, bit for bit, against
//! the per-edge loops they promise to equal.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_graph::fused::{
    self, attn_grad_dot, gat_fused_block_backward, gat_fused_block_forward, OnlineAttnState,
};
use sar_graph::{generators::erdos_renyi, ops, CsrGraph};
use sar_tensor::{init, pool, Tensor};

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

/// A random square multigraph: duplicate edges, self-loops, isolated
/// nodes and empty rows all occur. With `sorted` it comes from
/// `from_edges`; without, straight from `from_raw` with every row
/// shuffled, so the builders below must sort what they read.
fn random_multigraph(n: usize, m: usize, sorted: bool, rng: &mut StdRng) -> CsrGraph {
    // Nodes past `n / 2 + 1` send no edge, and every fourth node receives none.
    let senders = n / 2 + 1;
    let mut edges = Vec::new();
    for _ in 0..m {
        let s = rng.random_range(0..senders as u32);
        let d = rng.random_range(0..n as u32);
        if d % 4 == 3 {
            continue;
        }
        edges.push((s, d));
        match rng.random_range(0..6) {
            0 => edges.push((s, d)),
            1 => edges.push((d, d)),
            _ => {}
        }
    }
    let g = CsrGraph::from_edges(n, &edges);
    if sorted {
        return g;
    }
    let mut indices = g.indices().to_vec();
    for i in 0..n {
        let row = &mut indices[g.indptr()[i]..g.indptr()[i + 1]];
        for k in (1..row.len()).rev() {
            row.swap(k, rng.random_range(0..=k));
        }
    }
    CsrGraph::from_raw(n, g.indptr().to_vec(), indices)
}

/// `symmetrize` as specified: every edge both ways, sorted, deduplicated.
fn symmetrize_spec(g: &CsrGraph) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = g.iter_edges().flat_map(|(s, d)| [(s, d), (d, s)]).collect();
    edges.sort_unstable();
    edges.dedup();
    CsrGraph::from_edges(g.num_nodes(), &edges)
}

/// `with_self_loops` as specified: every edge kept, a loop added to each
/// node without one.
fn self_loops_spec(g: &CsrGraph) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = g.iter_edges().collect();
    for i in 0..g.num_nodes() as u32 {
        if !g.neighbors(i as usize).contains(&i) {
            edges.push((i, i));
        }
    }
    CsrGraph::from_edges(g.num_nodes(), &edges)
}

/// Feature widths below, at and past one vector, the benchmark's two
/// (47 classes, 64 hidden) and one past a full 64-column strip.
const WIDTHS: [usize; 7] = [1, 7, 8, 13, 47, 64, 65];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Head dimensions of the attention oracle: below, at and past one
/// vector, the benchmark's two (16 hidden, 47 classes), and past a full
/// 64-column strip and the width of twelve vectors.
const HEAD_DIMS: [usize; 9] = [1, 5, 7, 8, 16, 47, 64, 65, 100];

/// LeakyReLU slope of the attention oracle.
const SLOPE: f32 = 0.2;

/// One attention block as the oracle and the kernels both read it: source
/// column `j` is row `map[j]` of `x` when a map is given, row `j` without.
struct AttnBlock {
    g: CsrGraph,
    s_src: Tensor,
    x: Tensor,
    map: Option<Vec<u32>>,
}

impl AttnBlock {
    /// An [`unsorted_block`] whose last column sends no edge, with random
    /// logits and features of `heads` × `d`; read through a map into a
    /// resident tensor of three more rows (descending, column 1 repeating
    /// column 0's row) if `mapped`.
    fn random(
        (rows, cols): (usize, usize),
        (heads, d): (usize, usize),
        mapped: bool,
        rng: &mut StdRng,
    ) -> Self {
        let g = unsorted_block(rows, cols - 1, rng);
        let g = CsrGraph::from_raw(cols, g.indptr().to_vec(), g.indices().to_vec());
        let resident = if mapped { cols + 3 } else { cols };
        let map = mapped.then(|| {
            let mut m: Vec<u32> = (0..cols).map(|j| (resident - 1 - j) as u32).collect();
            m[1] = m[0];
            m
        });
        AttnBlock {
            s_src: init::randn(&[cols, heads], 2.0, rng),
            x: init::randn(&[resident, heads * d], 1.0, rng),
            g,
            map,
        }
    }

    fn x_row(&self, j: usize) -> &[f32] {
        self.x.row(self.map.as_ref().map_or(j, |m| m[j] as usize))
    }
}

fn leaky(u: f32) -> f32 {
    if u > 0.0 {
        u
    } else {
        SLOPE * u
    }
}

/// The fixed eight-lane dot product every kernel promises: lane `l` sums
/// `a[8i + l] · b[8i + l]`, the lanes fold as
/// `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, then the tail adds
/// in sequentially.
fn lane_dot(a: &[f32], b: &[f32]) -> f32 {
    let main = a.len() - a.len() % 8;
    let mut l = [0.0f32; 8];
    for i in (0..main).step_by(8) {
        for k in 0..8 {
            l[k] += a[i + k] * b[i + k];
        }
    }
    let mut acc = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    for i in main..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// One block through the online softmax, one edge and one head at a time
/// in stored order: the arithmetic both families promise.
fn oracle_forward(b: &AttnBlock, s_dst: &Tensor, d: usize, st: &mut OnlineAttnState) {
    let h = s_dst.cols();
    for i in 0..b.g.num_rows() {
        for &j in b.g.neighbors(i) {
            let j = j as usize;
            for head in 0..h {
                let s = leaky(s_dst.row(i)[head] + b.s_src.row(j)[head]);
                let m_old = st.max.row(i)[head];
                if s > m_old {
                    let c = if m_old == f32::NEG_INFINITY {
                        0.0
                    } else {
                        (m_old - s).exp()
                    };
                    st.max.row_mut(i)[head] = s;
                    st.den.row_mut(i)[head] *= c;
                    for v in &mut st.num.row_mut(i)[head * d..(head + 1) * d] {
                        *v *= c;
                    }
                }
                let w = (s - st.max.row(i)[head]).exp();
                st.den.row_mut(i)[head] += w;
                let x = &b.x_row(j)[head * d..(head + 1) * d];
                for (v, &xv) in st.num.row_mut(i)[head * d..(head + 1) * d]
                    .iter_mut()
                    .zip(x)
                {
                    *v += w * xv;
                }
            }
        }
    }
}

/// Saved statistics and upstream gradient of one backward pass.
struct Upstream<'a> {
    s_dst: &'a Tensor,
    max: &'a Tensor,
    den: &'a Tensor,
    grad: &'a Tensor,
    grad_dot: &'a Tensor,
}

/// One block's backward, one edge and one head at a time in stored
/// order — which folds every destination's `d_s_dst` in CSR order and
/// every source's `d_x` / `d_s_src` in ascending edge id. Fused skips a
/// head whose denominator is not positive; two-step materializes
/// `α = 0.0` there and skips every `α == 0.0`. Returns `(d_x, d_s_src)`.
fn oracle_backward(
    two_step: bool,
    b: &AttnBlock,
    up: &Upstream<'_>,
    d_s_dst: &mut Tensor,
) -> (Tensor, Tensor) {
    let h = up.s_dst.cols();
    let d = b.x.cols() / h;
    let mut dx = Tensor::zeros(&[b.g.num_cols(), h * d]);
    let mut dss = Tensor::zeros(&[b.g.num_cols(), h]);
    for i in 0..b.g.num_rows() {
        for &j in b.g.neighbors(i) {
            let j = j as usize;
            for head in 0..h {
                let u = up.s_dst.row(i)[head] + b.s_src.row(j)[head];
                let (m, den) = (up.max.row(i)[head], up.den.row(i)[head]);
                let alpha = match (two_step, den > 0.0) {
                    (_, true) => (leaky(u) - m).exp() / den,
                    (true, false) => 0.0,
                    (false, false) => continue,
                };
                if two_step && alpha == 0.0 {
                    continue;
                }
                let g = &up.grad.row(i)[head * d..(head + 1) * d];
                let dot = lane_dot(g, &b.x_row(j)[head * d..(head + 1) * d]);
                let de = alpha * (dot - up.grad_dot.row(i)[head]);
                let du = de * if u > 0.0 { 1.0 } else { SLOPE };
                d_s_dst.row_mut(i)[head] += du;
                for (v, &gv) in dx.row_mut(j)[head * d..(head + 1) * d].iter_mut().zip(g) {
                    *v += alpha * gv;
                }
                dss.row_mut(j)[head] += du;
            }
        }
    }
    (dx, dss)
}

/// One family's kernels over `blocks` in order: the forward state, then
/// each block's `(d_x, d_s_src)` and the accumulated `d_s_dst`, all from
/// `d_s_dst0`. The fused family reads a mapped block through its
/// `_indexed` entry points.
fn kernels(
    two_step: bool,
    blocks: &[AttnBlock],
    up: &Upstream<'_>,
    d: usize,
    d_s_dst0: &Tensor,
) -> (OnlineAttnState, Vec<Tensor>) {
    let (s_dst, h) = (up.s_dst, up.s_dst.cols());
    let mut st = OnlineAttnState::new(s_dst.rows(), h, d);
    // Two-step has no row-map entry point: it reads the gathered rows.
    let x = |b: &AttnBlock| b.map.as_ref().map_or(b.x.clone(), |m| b.x.gather_rows(m));
    for b in blocks {
        let st = &mut st;
        match (&b.map, two_step) {
            (_, true) => fused::gat_twostep_block_forward(&b.g, s_dst, &b.s_src, &x(b), SLOPE, st),
            (Some(m), false) => {
                fused::gat_fused_block_forward_indexed(&b.g, s_dst, &b.s_src, &b.x, m, SLOPE, st)
            }
            (None, false) => gat_fused_block_forward(&b.g, s_dst, &b.s_src, &b.x, SLOPE, st),
        }
    }
    let mut d_s_dst = d_s_dst0.clone();
    let mut out = Vec::new();
    for b in blocks {
        let (max, den, grad, dot, dsd) = (up.max, up.den, up.grad, up.grad_dot, &mut d_s_dst);
        let grads = match (&b.map, two_step) {
            (_, true) => fused::gat_twostep_block_backward(
                &b.g,
                s_dst,
                &b.s_src,
                &x(b),
                SLOPE,
                max,
                den,
                grad,
                dot,
                dsd,
            ),
            (Some(m), false) => fused::gat_fused_block_backward_indexed(
                &b.g, s_dst, &b.s_src, &b.x, m, SLOPE, max, den, grad, dot, dsd,
            ),
            (None, false) => gat_fused_block_backward(
                &b.g, s_dst, &b.s_src, &b.x, SLOPE, max, den, grad, dot, dsd,
            ),
        };
        out.extend([grads.d_x_src, grads.d_s_src]);
    }
    out.push(d_s_dst);
    (st, out)
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
    fn attention_forward_and_backward_equal_the_per_edge_loops_bitwise(
        seed in 0u64..1_000_000,
        rows in 1usize..14,
        cols in 2usize..40,
        heads in 1usize..=8,
        w in 0usize..HEAD_DIMS.len(),
        threads in 1usize..=4,
        mapped in 0usize..2,
    ) {
        let (h, d) = (heads, HEAD_DIMS[w]);
        let mut rng = StdRng::seed_from_u64(seed);
        let cols1 = rng.random_range(2..20);
        let mut blocks = [
            AttnBlock::random((rows, cols), (h, d), mapped == 1, &mut rng),
            AttnBlock::random((rows, cols1), (h, d), false, &mut rng),
        ];
        // Column 0 feeds every row of block 0 through the hub; its scores
        // sit ~200 below the rest, so its coefficients underflow to 0.0
        // beside finite ones.
        blocks[0].s_src.row_mut(0).fill(-1000.0);
        let s_dst = init::randn(&[rows, h], 2.0, &mut rng);
        let mut st = OnlineAttnState::new(rows, h, d);
        for b in &blocks {
            oracle_forward(b, &s_dst, d, &mut st);
        }
        // The backward's statistics are the forward's, except that the hub
        // row skips its odd heads (denominator 0) and one other row's head
        // 0 has every coefficient underflow (maximum 200): fused pushes
        // those zeros, two-step skips them, onto a `d_s_dst` of −0.0.
        let (mut max, mut den) = (st.max.clone(), st.den.clone());
        for head in (1..h).step_by(2) {
            den.row_mut(0)[head] = 0.0;
        }
        if let Some(r) = (1..rows).find(|&r| !blocks[0].g.is_isolated_row(r)) {
            max.row_mut(r)[0] = 200.0;
        }
        let grad = init::randn(&[rows, h * d], 1.0, &mut rng);
        let grad_dot = init::randn(&[rows, h], 1.0, &mut rng);
        let up = Upstream { s_dst: &s_dst, max: &max, den: &den, grad: &grad, grad_dot: &grad_dot };
        let d_s_dst0 = Tensor::full(&[rows, h], -0.0);
        for two_step in [false, true] {
            let mut d_s_dst = d_s_dst0.clone();
            let mut want = Vec::new();
            for b in &blocks {
                let (dx, dss) = oracle_backward(two_step, b, &up, &mut d_s_dst);
                want.extend([dx, dss]);
            }
            want.push(d_s_dst);
            pool::set_threads(threads);
            let (got_st, got) = kernels(two_step, &blocks, &up, d, &d_s_dst0);
            pool::set_threads(1);
            let ctx = format!("two_step={two_step} h={h} d={d} threads={threads}");
            prop_assert!(bits(&got_st.num) == bits(&st.num), "num {ctx}");
            prop_assert!(bits(&got_st.den) == bits(&st.den), "den {ctx}");
            prop_assert!(bits(&got_st.max) == bits(&st.max), "max {ctx}");
            for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                prop_assert!(bits(a) == bits(b), "backward output {k} {ctx}");
            }
        }
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
    fn symmetrize_and_self_loops_equal_sort_and_dedup_spec(
        seed in 0u64..500,
        n in 1usize..40,
        m in 0usize..160,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_multigraph(n, m, seed % 2 == 0, &mut rng);
        prop_assert_eq!(g.symmetrize(), symmetrize_spec(&g));
        prop_assert_eq!(g.with_self_loops(), self_loops_spec(&g));
        prop_assert_eq!(g.symmetrize().with_self_loops(), self_loops_spec(&symmetrize_spec(&g)));
        let spec_reverse = {
            let edges: Vec<(u32, u32)> = g.iter_edges().map(|(s, d)| (d, s)).collect();
            CsrGraph::from_edges(n, &edges)
        };
        prop_assert_eq!(g.reverse(), spec_reverse);
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
