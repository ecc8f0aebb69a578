//! Raw (non-differentiable) sparse message-passing kernels.
//!
//! All kernels operate on [`Tensor`]s and a [`CsrGraph`] (possibly a
//! bipartite SAR block). Autograd wrappers live in `sar-nn`; SAR's
//! sequential aggregation calls these kernels directly per block.
//!
//! Conventions:
//!
//! * Node features are `[num_nodes, F]`; multi-head features are
//!   `[num_nodes, H * D]` with head `h` occupying columns `h*D .. (h+1)*D`.
//! * Per-edge values are `[E, H]`, where edge `e` is the position in the
//!   CSR `indices` array (row-major by destination).
//!
//! # Parallelism and determinism
//!
//! Every kernel here is row-parallel over the worker's thread pool through
//! [`sar_tensor::pool::split_rows`]: forward kernels chunk over
//! *destination* rows (each output row — and each destination's contiguous
//! edge range — is written by exactly one thread), while scatter-style
//! backward kernels chunk over *source* rows through a
//! [`ReverseIndex`](crate::ReverseIndex), whose per-source edge lists
//! ascend by CSR edge id — the exact order a sequential
//! destination-major sweep visits them. Per-row reductions therefore run
//! the same floating-point operations in the same order for any thread
//! count, so results are **bitwise identical** to the single-threaded
//! path (asserted in `tests/parallel_parity.rs`).
//!
//! # SIMD
//!
//! Inner contiguous-`f32` loops go through [`sar_tensor::simd`], whose
//! AVX2 and portable paths are bitwise identical by construction, so
//! vectorization never perturbs results. The SpMM traversals (`spmm_sum`
//! forward and backward, `spmm_multihead`, the two scatters) are closures
//! over the crate's one row walker, which hands each of them its row's
//! whole neighbour list in stored order; `spmm_sum` passes that list to
//! [`simd::gather_sum`], which keeps the output row in registers across
//! it.
//!
//! The `*_indexed` kernels read operand row `j` through a row map
//! (`x[map[j]]`), bitwise identical to gather-then-kernel (asserted in
//! `tests/indexed_parity.rs`). Nothing in the workspace calls them since
//! every SAR block's columns index the tensor the consumer holds; they
//! stay because `benchmark/` imports them by name, until a benchmark-only
//! change lets them go.

use crate::walk::{edges_mut, row_mut, walk, Adjacency};
use crate::CsrGraph;
use sar_tensor::pool::{split_rows, Output};
use sar_tensor::{simd, Tensor};

/// A kernel's `[n, width]` feature operand, read directly or — for the
/// pinned `*_indexed` entry points only — through a row map (`x[map[j]]`).
/// Construction is the one place an operand's rows are checked.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    data: &'a [f32],
    map: Option<&'a [u32]>,
    /// Row width of the operand.
    pub width: usize,
}

impl<'a> Operand<'a> {
    /// Views `x`, through `map` if given, as an `n`-row operand.
    ///
    /// # Panics
    ///
    /// Panics unless `x` (without a map) or the map has exactly `n` rows
    /// and every map entry names a row of `x`.
    pub fn new(x: &'a Tensor, map: Option<&'a [u32]>, n: usize) -> Self {
        match map {
            None => assert_eq!(x.rows(), n, "operand row count mismatch"),
            Some(m) => {
                assert_eq!(m.len(), n, "one map entry per operand row required");
                assert!(
                    m.iter().all(|&r| (r as usize) < x.rows()),
                    "row map entry out of range"
                );
            }
        }
        Operand {
            data: x.data(),
            map,
            width: x.cols(),
        }
    }

    /// Row `j` of the operand.
    pub fn row(&self, j: usize) -> &'a [f32] {
        let r = self.map.map_or(j, |m| m[j] as usize);
        &self.data[r * self.width..(r + 1) * self.width]
    }
}

/// Head dimension `D` of `[_, H*D]` features of width `hd` under `heads`
/// heads.
///
/// # Panics
///
/// Panics if `heads` is zero or does not divide `hd`.
pub(crate) fn head_dim(hd: usize, heads: usize) -> usize {
    assert!(
        heads > 0 && hd.is_multiple_of(heads),
        "feature width {hd} not divisible by {heads} heads"
    );
    hd / heads
}

// ----------------------------------------------------------------------
// SpMM (GraphSage-style sum aggregation)
// ----------------------------------------------------------------------

/// Sum aggregation: `out[i] = Σ_{j ∈ neighbors(i)} x[j]`.
///
/// # Panics
///
/// Panics if `x` does not have one row per graph column.
pub fn spmm_sum(g: &CsrGraph, x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[g.num_rows(), x.cols()]);
    spmm_sum_into(g, x, &mut out);
    out
}

/// Sum aggregation accumulated into an existing output tensor.
///
/// This is the incremental form used by SAR's Algorithm 1: the accumulator
/// persists across per-partition blocks while the fetched features are
/// freed after each block.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the graph.
pub fn spmm_sum_into(g: &CsrGraph, x: &Tensor, out: &mut Tensor) {
    sum_neighbors(g.adjacency(), x, None, out);
}

/// Fused gather + sum aggregation: `out[i] += Σ_{j ∈ neighbors(i)}
/// x[map[j]]`. Bitwise identical to `gather` + [`spmm_sum_into`]: the same
/// values are read and accumulated in the same order.
///
/// Unused by the workspace (SAR's local block has identity columns and
/// runs [`spmm_sum_into`]); kept because `benchmark/` imports it by name,
/// awaiting the benchmark-only change that drops the import.
///
/// # Panics
///
/// Panics if `map` does not have one entry per graph column or any entry
/// is out of range for `x`.
pub fn spmm_sum_into_indexed(g: &CsrGraph, x: &Tensor, map: &[u32], out: &mut Tensor) {
    sum_neighbors(g.adjacency(), x, Some(map), out);
}

/// Backward of [`spmm_sum`] w.r.t. `x`: pushes each destination's gradient
/// to all of its sources — `dx[j] += Σ_{i : j ∈ neighbors(i)} grad_rows[i]`.
///
/// # Panics
///
/// Panics if `grad_rows` does not have `num_rows` rows.
pub fn spmm_sum_backward(g: &CsrGraph, grad_rows: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[g.num_cols(), grad_rows.cols()]);
    spmm_sum_backward_into(g, grad_rows, &mut out);
    out
}

/// Backward of [`spmm_sum`] accumulated into an existing gradient tensor:
/// the forward walk over the reverse adjacency. Chunking over *source*
/// rows gives each gradient row exactly one writer, and the reverse
/// index's ascending-edge-id order per source reproduces the sequential
/// scatter's accumulation order bit for bit.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the graph.
pub fn spmm_sum_backward_into(g: &CsrGraph, grad_rows: &Tensor, out: &mut Tensor) {
    sum_neighbors(g.reverse_adjacency(), grad_rows, None, out);
}

/// `out[r] += Σ_{n ∈ adj.row(r)} x[n]` — the one body of [`spmm_sum`]
/// forward (over the graph's own adjacency) and backward (over its
/// reverse index): one [`simd::gather_sum`] per row. Through a `map` the
/// row's neighbours are translated a fixed chunk at a time, which folds
/// the same rows in the same order.
fn sum_neighbors(adj: Adjacency<'_>, x: &Tensor, map: Option<&[u32]>, out: &mut Tensor) {
    let x = Operand::new(x, map, adj.others);
    assert_eq!(out.rows(), adj.rows(), "out rows must match the adjacency");
    assert_eq!(out.cols(), x.width, "feature width mismatch");
    walk(
        adj,
        out.data_mut(),
        x.width,
        move |out_row, nbrs, _start| match x.map {
            None => simd::gather_sum(out_row, x.data, nbrs),
            Some(map) => {
                let mut rows = [0u32; 64];
                for chunk in nbrs.chunks(rows.len()) {
                    let rows = &mut rows[..chunk.len()];
                    for (row, &n) in rows.iter_mut().zip(chunk) {
                        *row = map[n as usize];
                    }
                    simd::gather_sum(out_row, x.data, rows);
                }
            }
        },
    );
}

// ----------------------------------------------------------------------
// Per-edge gathers / scatters (DGL-style primitives)
// ----------------------------------------------------------------------

/// Gathers source features per edge: `out[e] = x[src(e)]`, `[E, F]`.
///
/// # Panics
///
/// Panics if `x` rows differ from the graph's column count.
pub fn gather_src(g: &CsrGraph, x: &Tensor) -> Tensor {
    assert_eq!(x.rows(), g.num_cols(), "x rows must equal graph columns");
    x.gather_rows(g.indices())
}

/// Gathers destination features per edge: `out[e] = x[dst(e)]`, `[E, F]`.
///
/// # Panics
///
/// Panics if `x` rows differ from the graph's row count.
pub fn gather_dst(g: &CsrGraph, x: &Tensor) -> Tensor {
    assert_eq!(x.rows(), g.num_rows(), "x rows must equal graph rows");
    let f = x.cols();
    let mut out = Vec::with_capacity(g.num_edges() * f);
    for i in 0..g.num_rows() {
        for _ in g.neighbors(i) {
            out.extend_from_slice(x.row(i));
        }
    }
    Tensor::from_vec(&[g.num_edges(), f], out)
}

/// Scatter-adds per-edge values to their *source* nodes:
/// `out[j] = Σ_{e : src(e) = j} edge_vals[e]`. This is the backward of
/// [`gather_src`].
///
/// # Panics
///
/// Panics if `edge_vals` does not have one row per edge.
pub fn scatter_edges_to_src(g: &CsrGraph, edge_vals: &Tensor) -> Tensor {
    sum_edges(g.reverse_adjacency(), edge_vals)
}

/// Scatter-adds per-edge values to their *destination* nodes:
/// `out[i] = Σ_{e : dst(e) = i} edge_vals[e]`. This is the backward of
/// [`gather_dst`] and the reduction step of message passing.
///
/// # Panics
///
/// Panics if `edge_vals` does not have one row per edge.
pub fn scatter_edges_to_dst(g: &CsrGraph, edge_vals: &Tensor) -> Tensor {
    sum_edges(g.adjacency(), edge_vals)
}

/// `out[r] = Σ_{e ∈ adj.row(r)} edge_vals[e]` — both scatters: by
/// destination over the graph's own adjacency, by source over its reverse
/// index.
fn sum_edges(adj: Adjacency<'_>, edge_vals: &Tensor) -> Tensor {
    assert_eq!(edge_vals.rows(), adj.nbr.len(), "one row per edge required");
    let f = edge_vals.cols();
    let ev = edge_vals.data();
    let mut out = Tensor::zeros(&[adj.rows(), f]);
    walk(adj, out.data_mut(), f, move |out_row, nbrs, start| {
        for pos in start..start + nbrs.len() {
            let e = adj.eid(pos);
            simd::add_assign(out_row, &ev[e * f..(e + 1) * f]);
        }
    });
    out
}

// ----------------------------------------------------------------------
// Edge softmax (standard two-step GAT path)
// ----------------------------------------------------------------------

/// Softmax of per-edge scores over each destination's incoming edges,
/// independently per head: `alpha[e, h] = softmax_{e ∈ in(i)}(scores[e, h])`.
///
/// Numerically stabilized with the per-destination maximum.
///
/// # Panics
///
/// Panics if `scores` does not have one row per edge.
// sar-check: deterministic(one-writer-per-row: per-destination denominators
// accumulate over that row's edge segment in fixed CSR order)
pub fn edge_softmax(g: &CsrGraph, scores: &Tensor) -> Tensor {
    assert_eq!(
        scores.rows(),
        g.num_edges(),
        "one score row per edge required"
    );
    let h = scores.cols();
    let mut out = scores.clone();
    let indptr = g.indptr();
    split_rows(
        g.num_rows(),
        [Output::edge_owned(out.data_mut(), indptr, h)],
        move |lo, hi, [part]| {
            let mut maxs = vec![0.0f32; h];
            let mut denom = vec![0.0f32; h];
            for i in lo..hi {
                let edges = indptr[i + 1] - indptr[i];
                if edges == 0 {
                    continue;
                }
                let rows = edges_mut(part, &indptr[lo..], i - lo, h);
                // Max and exp/denominator passes stay scalar (per-head
                // reductions in ascending edge order); the normalize pass
                // divides each contiguous [H] edge segment by the per-head
                // denominators through the SIMD divide — IEEE division is
                // correctly rounded, so vector and scalar divides agree
                // bitwise.
                maxs.fill(f32::NEG_INFINITY);
                denom.fill(0.0);
                for e in 0..edges {
                    for (head, m) in maxs.iter_mut().enumerate() {
                        *m = m.max(rows[e * h + head]);
                    }
                }
                for e in 0..edges {
                    for head in 0..h {
                        let v = (rows[e * h + head] - maxs[head]).exp();
                        rows[e * h + head] = v;
                        denom[head] += v;
                    }
                }
                for e in 0..edges {
                    simd::div_assign(&mut rows[e * h..(e + 1) * h], &denom);
                }
            }
        },
    );
    out
}

/// Backward of [`edge_softmax`]: given `alpha` (the forward output) and the
/// upstream gradient, returns the gradient w.r.t. the raw scores.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
// sar-check: deterministic(one-writer-per-row: the dot reduction walks each
// destination row's edge segment in fixed CSR order)
pub fn edge_softmax_backward(g: &CsrGraph, alpha: &Tensor, grad: &Tensor) -> Tensor {
    assert_eq!(alpha.shape(), grad.shape(), "alpha/grad shape mismatch");
    assert_eq!(alpha.rows(), g.num_edges(), "one row per edge required");
    let h = alpha.cols();
    let mut out = Tensor::zeros(&[g.num_edges(), h]);
    let indptr = g.indptr();
    let a_data = alpha.data();
    let g_data = grad.data();
    split_rows(
        g.num_rows(),
        [Output::edge_owned(out.data_mut(), indptr, h)],
        move |lo, hi, [part]| {
            for i in lo..hi {
                let (start, end) = (indptr[i], indptr[i + 1]);
                let rows = edges_mut(part, &indptr[lo..], i - lo, h);
                for head in 0..h {
                    let mut dot = 0.0f32;
                    for e in start..end {
                        dot += a_data[e * h + head] * g_data[e * h + head];
                    }
                    for e in start..end {
                        let a = a_data[e * h + head];
                        let gr = g_data[e * h + head];
                        rows[(e - start) * h + head] = a * (gr - dot);
                    }
                }
            }
        },
    );
    out
}

// ----------------------------------------------------------------------
// Multi-head weighted SpMM (standard GAT message reduction)
// ----------------------------------------------------------------------

/// Multi-head attention-weighted aggregation:
/// `out[i, h*D..] = Σ_{e=(j→i)} alpha[e, h] * x[j, h*D..]`.
///
/// This is the fused `u_mul_e` + sum reduction DGL applies after edge
/// softmax: per-edge messages are *not* materialized, but `alpha` is.
///
/// # Panics
///
/// Panics if `x.cols()` is not divisible by the head count of `alpha` or
/// shapes are inconsistent with the graph.
pub fn spmm_multihead(g: &CsrGraph, alpha: &Tensor, x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[g.num_rows(), x.cols()]);
    weighted_sum_neighbors(g.adjacency(), alpha, x, &mut out);
    out
}

/// `out[r, h*D..] += Σ_{(n, e) ∈ adj.row(r)} alpha[e, h] * x[n, h*D..]` —
/// the one body of [`spmm_multihead`] forward (over the graph's own
/// adjacency) and of its `d_x` backward (over the reverse index, with the
/// upstream gradient as `x`).
fn weighted_sum_neighbors(adj: Adjacency<'_>, alpha: &Tensor, x: &Tensor, out: &mut Tensor) {
    assert_eq!(
        alpha.rows(),
        adj.nbr.len(),
        "one alpha row per edge required"
    );
    let x = Operand::new(x, None, adj.others);
    let heads = alpha.cols();
    let d = head_dim(x.width, heads);
    assert_eq!(out.rows(), adj.rows(), "out rows must match the adjacency");
    assert_eq!(out.cols(), x.width, "feature width mismatch");
    let a_data = alpha.data();
    walk(adj, out.data_mut(), x.width, move |out_row, nbrs, start| {
        for (pos, &n) in (start..).zip(nbrs) {
            let e = adj.eid(pos);
            let weights = &a_data[e * heads..(e + 1) * heads];
            head_axpy(out_row, weights, x.row(n as usize), d);
        }
    });
}

/// `out[h*D..] += weights[h] * x[h*D..]` for every head with a non-zero
/// weight (SIMD axpy; mul + add, never fused).
fn head_axpy(out: &mut [f32], weights: &[f32], x: &[f32], d: usize) {
    for (head, &w) in weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let lo_c = head * d;
        simd::axpy(w, &x[lo_c..lo_c + d], &mut out[lo_c..lo_c + d]);
    }
}

/// `out[h] = ⟨a[h*D..], b[h*D..]⟩` for every head.
pub(crate) fn head_dots(out: &mut [f32], a: &[f32], b: &[f32], d: usize) {
    for (head, o) in out.iter_mut().enumerate() {
        *o = simd::dot(&a[head * d..(head + 1) * d], &b[head * d..(head + 1) * d]);
    }
}

/// Backward of [`spmm_multihead`]: returns `(d_alpha, d_x)`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn spmm_multihead_backward(
    g: &CsrGraph,
    alpha: &Tensor,
    x: &Tensor,
    grad_out: &Tensor,
) -> (Tensor, Tensor) {
    let heads = alpha.cols();
    let hd = x.cols();
    let d = head_dim(hd, heads);
    assert_eq!(grad_out.rows(), g.num_rows(), "grad rows mismatch");
    assert_eq!(grad_out.cols(), hd, "grad width mismatch");
    let mut d_alpha = Tensor::zeros(&[g.num_edges(), heads]);
    let mut d_x = Tensor::zeros(&[g.num_cols(), hd]);
    let indptr = g.indptr();
    let grad_data = grad_out.data();
    let x_rows = Operand::new(x, None, g.num_cols());
    // Pass 1 — destination-parallel: each edge's d_alpha row is owned by
    // its destination.
    split_rows(
        g.num_rows(),
        [Output::edge_owned(d_alpha.data_mut(), indptr, heads)],
        move |lo, hi, [part]| {
            for i in lo..hi {
                let g_row = &grad_data[i * hd..(i + 1) * hd];
                let da_rows = edges_mut(part, &indptr[lo..], i - lo, heads);
                for ((j, _e), da_row) in g.entries(i).zip(da_rows.chunks_exact_mut(heads)) {
                    head_dots(da_row, g_row, x_rows.row(j), d);
                }
            }
        },
    );
    // Pass 2 — source-parallel: each d_x row is owned by its source;
    // ascending edge ids reproduce the sequential accumulation order.
    weighted_sum_neighbors(g.reverse_adjacency(), alpha, grad_out, &mut d_x);
    (d_alpha, d_x)
}

// ----------------------------------------------------------------------
// Per-head projection (attention logits)
// ----------------------------------------------------------------------

/// Per-head inner product with an attention vector:
/// `out[n, h] = Σ_k x[n, h*D + k] * a[h*D + k]`.
///
/// Computes GAT's `aᵀ z` terms; `a` is `[H*D]`.
///
/// # Panics
///
/// Panics if `x.cols() != a.numel()` or the width is not divisible by
/// `heads`.
pub fn head_project(x: &Tensor, a: &Tensor, heads: usize) -> Tensor {
    let (n, hd, x) = (x.rows(), x.cols(), x.data());
    assert_eq!(a.numel(), hd, "attention vector length mismatch");
    let d = head_dim(hd, heads);
    let mut out = vec![0.0f32; n * heads];
    let a_data = a.data();
    split_rows(
        n,
        [Output::row_owned(&mut out, heads)],
        move |lo, hi, [rows]| {
            for i in lo..hi {
                head_dots(
                    row_mut(rows, i - lo, heads),
                    &x[i * hd..(i + 1) * hd],
                    a_data,
                    d,
                );
            }
        },
    );
    Tensor::from_vec(&[n, heads], out)
}

/// Backward of [`head_project`]: returns `(d_x, d_a)` given the upstream
/// gradient `[N, H]`.
///
/// # Panics
///
/// Panics on the same mismatches as [`head_project`], or if `grad` is not
/// `[N, H]`.
// sar-check: deterministic(fixed-rank-order: gradients reduce over rows in
// ascending index order on a single writer; no data-dependent reordering)
pub fn head_project_backward(
    x: &Tensor,
    a: &Tensor,
    heads: usize,
    grad: &Tensor,
) -> (Tensor, Tensor) {
    let (n, hd, x) = (x.rows(), x.cols(), x.data());
    assert_eq!(a.numel(), hd, "attention vector length mismatch");
    let d = head_dim(hd, heads);
    assert_eq!(grad.rows(), n, "grad rows mismatch");
    assert_eq!(grad.cols(), heads, "grad heads mismatch");
    let mut d_x = Tensor::zeros(&[n, hd]);
    let mut d_a = Tensor::zeros(&[hd]);
    let a_data = a.data();
    let g_data = grad.data();
    // Pass 1 — row-parallel d_x: every output row has one writer.
    split_rows(
        n,
        [Output::row_owned(d_x.data_mut(), hd)],
        move |lo, hi, [part]| {
            for i in lo..hi {
                let g_row = &g_data[i * heads..(i + 1) * heads];
                head_axpy(row_mut(part, i - lo, hd), g_row, a_data, d);
            }
        },
    );
    // Pass 2 — column-parallel d_a: each column accumulates over rows in
    // ascending order with the same `g == 0` skips as the sequential
    // sweep, so the reduction order is unchanged.
    split_rows(
        hd,
        [Output::row_owned(d_a.data_mut(), 1)],
        move |lo, hi, [cols]| {
            for (c, slot) in (lo..hi).zip(cols.iter_mut()) {
                let h = c / d;
                let mut acc = 0.0f32;
                for i in 0..n {
                    let g = g_data[i * heads + h];
                    if g == 0.0 {
                        continue;
                    }
                    acc += g * x[i * hd + c];
                }
                *slot = acc;
            }
        },
    );
    (d_x, d_a)
}

/// Per-edge multiplication of a `[E, H]` head tensor against `[E, H*D]`
/// messages is intentionally *not* provided: materializing `[E, H*D]`
/// per-edge messages is what both DGL and this reproduction avoid via
/// [`spmm_multihead`].
///
/// Builds per-edge raw attention scores
/// `e[e, h] = LeakyReLU(s_dst[dst(e), h] + s_src[src(e), h])` without
/// materializing gathered `[E, H]` inputs twice.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the graph.
pub fn gat_edge_scores(g: &CsrGraph, s_dst: &Tensor, s_src: &Tensor, slope: f32) -> Tensor {
    assert_eq!(s_dst.rows(), g.num_rows(), "s_dst rows mismatch");
    assert_eq!(s_src.rows(), g.num_cols(), "s_src rows mismatch");
    assert_eq!(s_dst.cols(), s_src.cols(), "head count mismatch");
    let h = s_dst.cols();
    let mut out = vec![0.0f32; g.num_edges() * h];
    let indptr = g.indptr();
    let sd = s_dst.data();
    let ss = s_src.data();
    split_rows(
        g.num_rows(),
        [Output::edge_owned(&mut out, indptr, h)],
        move |lo, hi, [part]| {
            for i in lo..hi {
                let es = indptr[i];
                let rows = edges_mut(part, &indptr[lo..], i - lo, h);
                let sd_row = &sd[i * h..(i + 1) * h];
                // Each edge's [H] segment is the elementwise sum of the
                // destination and source logit rows; the LeakyReLU is then
                // applied to the whole contiguous [run × H] slab. Both
                // steps are elementwise SIMD maps, bitwise identical to
                // the scalar expression per element.
                for (j, e) in g.entries(i) {
                    simd::add_into(
                        &mut rows[(e - es) * h..(e - es + 1) * h],
                        sd_row,
                        &ss[j * h..(j + 1) * h],
                    );
                }
                simd::leaky_relu(rows, slope);
            }
        },
    );
    Tensor::from_vec(&[g.num_edges(), h], out)
}

/// Backward of [`gat_edge_scores`]: returns `(d_s_dst, d_s_src)`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
// sar-check: deterministic(one-writer-per-row: a destination's d_s_dst row
// folds its edges in CSR order, a source's d_s_src row folds its edges in
// ascending edge-id order)
pub fn gat_edge_scores_backward(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    slope: f32,
    grad: &Tensor,
) -> (Tensor, Tensor) {
    let h = s_dst.cols();
    assert_eq!(grad.rows(), g.num_edges(), "grad rows mismatch");
    assert_eq!(grad.cols(), h, "grad heads mismatch");
    let mut d_dst = Tensor::zeros(&[g.num_rows(), h]);
    let mut d_src = Tensor::zeros(&[g.num_cols(), h]);
    let sd = s_dst.data();
    let ss = s_src.data();
    let g_data = grad.data();
    // d(score)/d(logit sum) of edge `e = (j → i)`, per head.
    let du = |i: usize, j: usize, e: usize, head: usize| {
        let u = sd[i * h + head] + ss[j * h + head];
        g_data[e * h + head] * if u > 0.0 { 1.0 } else { slope }
    };
    // Pass 1 — destination-parallel d_dst.
    split_rows(
        g.num_rows(),
        [Output::row_owned(d_dst.data_mut(), h)],
        move |lo, hi, [part]| {
            for i in lo..hi {
                let dd_row = row_mut(part, i - lo, h);
                for (j, e) in g.entries(i) {
                    for (head, dd) in dd_row.iter_mut().enumerate() {
                        *dd += du(i, j, e, head);
                    }
                }
            }
        },
    );
    // Pass 2 — source-parallel d_src via the reverse index (ascending
    // edge ids keep the sequential accumulation order).
    let rev = g.reverse_index();
    split_rows(
        g.num_cols(),
        [Output::row_owned(d_src.data_mut(), h)],
        move |lo, hi, [part]| {
            for j in lo..hi {
                let ds_row = row_mut(part, j - lo, h);
                for (i, e) in rev.entries(j) {
                    for (head, ds) in ds_row.iter_mut().enumerate() {
                        *ds += du(i, j, e, head);
                    }
                }
            }
        },
    );
    (d_dst, d_src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sar_tensor::init;

    fn test_graph() -> CsrGraph {
        // 4 nodes: 1→0, 2→0, 0→1, 3→2, 2→2 (self loop)
        CsrGraph::from_edges(4, &[(1, 0), (2, 0), (0, 1), (3, 2), (2, 2)])
    }

    /// Dense adjacency of g as a [rows, cols] matrix (A[i][j] = 1 iff j→i).
    fn dense_adj(g: &CsrGraph) -> Tensor {
        let mut a = Tensor::zeros(&[g.num_rows(), g.num_cols()]);
        for i in 0..g.num_rows() {
            for &j in g.neighbors(i) {
                a.row_mut(i)[j as usize] += 1.0;
            }
        }
        a
    }

    #[test]
    fn spmm_sum_matches_dense() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let x = init::randn(&[4, 3], 1.0, &mut rng);
        let sparse = spmm_sum(&g, &x);
        let dense = dense_adj(&g).matmul(&x);
        assert!(sparse.allclose(&dense, 1e-5));
    }

    #[test]
    fn spmm_backward_matches_transpose_dense() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let grad = init::randn(&[4, 3], 1.0, &mut rng);
        let back = spmm_sum_backward(&g, &grad);
        let dense = dense_adj(&g).transpose().matmul(&grad);
        assert!(back.allclose(&dense, 1e-5));
    }

    #[test]
    fn spmm_into_accumulates_blocks() {
        // Splitting a graph's edges into two blocks and accumulating must
        // equal one-shot SpMM — the core identity behind SAR's Algorithm 1.
        let edges = [(1u32, 0u32), (2, 0), (0, 1), (3, 2), (2, 2)];
        let g_full = CsrGraph::from_edges(4, &edges);
        let g_a = CsrGraph::from_edges(4, &edges[..2]);
        let g_b = CsrGraph::from_edges(4, &edges[2..]);
        let mut rng = StdRng::seed_from_u64(2);
        let x = init::randn(&[4, 5], 1.0, &mut rng);
        let full = spmm_sum(&g_full, &x);
        let mut acc = Tensor::zeros(&[4, 5]);
        spmm_sum_into(&g_a, &x, &mut acc);
        spmm_sum_into(&g_b, &x, &mut acc);
        assert!(acc.allclose(&full, 1e-5));
    }

    #[test]
    fn gather_scatter_duality() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let x = init::randn(&[4, 2], 1.0, &mut rng);
        let y = init::randn(&[g.num_edges(), 2], 1.0, &mut rng);
        // <gather_src(x), y> == <x, scatter_src(y)>  (adjointness)
        let lhs: f32 = gather_src(&g, &x).mul(&y).sum();
        let rhs: f32 = x.mul(&scatter_edges_to_src(&g, &y)).sum();
        assert!((lhs - rhs).abs() < 1e-4);
        let lhs2: f32 = gather_dst(&g, &x).mul(&y).sum();
        let rhs2: f32 = x.mul(&scatter_edges_to_dst(&g, &y)).sum();
        assert!((lhs2 - rhs2).abs() < 1e-4);
    }

    #[test]
    fn edge_softmax_rows_sum_to_one() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(4);
        let scores = init::randn(&[g.num_edges(), 3], 2.0, &mut rng);
        let alpha = edge_softmax(&g, &scores);
        for i in 0..g.num_rows() {
            let (s, e) = (g.indptr()[i], g.indptr()[i + 1]);
            if s == e {
                continue;
            }
            for h in 0..3 {
                let total: f32 = (s..e).map(|k| alpha.data()[k * 3 + h]).sum();
                assert!((total - 1.0).abs() < 1e-5, "dst {i} head {h}: {total}");
            }
        }
    }

    #[test]
    fn edge_softmax_is_shift_invariant_per_dst() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let scores = init::randn(&[g.num_edges(), 2], 1.0, &mut rng);
        let mut shifted = scores.clone();
        // Shift all scores of dst 0's edges by a large constant.
        for e in g.indptr()[0]..g.indptr()[1] {
            for h in 0..2 {
                shifted.data_mut()[e * 2 + h] += 100.0;
            }
        }
        assert!(edge_softmax(&g, &scores).allclose(&edge_softmax(&g, &shifted), 1e-4));
    }

    #[test]
    fn spmm_multihead_matches_manual() {
        let g = test_graph();
        let heads = 2;
        let d = 3;
        let mut rng = StdRng::seed_from_u64(6);
        let x = init::randn(&[4, heads * d], 1.0, &mut rng);
        let alpha = init::randn(&[g.num_edges(), heads], 1.0, &mut rng);
        let out = spmm_multihead(&g, &alpha, &x);
        // Manual per-destination check.
        let mut expect = Tensor::zeros(&[4, heads * d]);
        let mut e = 0;
        for i in 0..4 {
            for &j in g.neighbors(i) {
                for h in 0..heads {
                    let a = alpha.data()[e * heads + h];
                    for k in 0..d {
                        expect.row_mut(i)[h * d + k] += a * x.row(j as usize)[h * d + k];
                    }
                }
                e += 1;
            }
        }
        assert!(out.allclose(&expect, 1e-5));
    }

    #[test]
    fn spmm_multihead_backward_is_adjoint() {
        let g = test_graph();
        let heads = 2;
        let mut rng = StdRng::seed_from_u64(7);
        let x = init::randn(&[4, heads * 2], 1.0, &mut rng);
        let alpha = init::randn(&[g.num_edges(), heads], 1.0, &mut rng);
        let grad = init::randn(&[4, heads * 2], 1.0, &mut rng);
        let (d_alpha, d_x) = spmm_multihead_backward(&g, &alpha, &x, &grad);
        // <out, grad> must equal <alpha, d_alpha> and <x, d_x> by linearity
        // in each argument.
        let out = spmm_multihead(&g, &alpha, &x);
        let lhs: f32 = out.mul(&grad).sum();
        assert!((lhs - alpha.mul(&d_alpha).sum()).abs() < 1e-3);
        assert!((lhs - x.mul(&d_x).sum()).abs() < 1e-3);
    }

    #[test]
    fn head_project_matches_manual_and_adjoint() {
        let heads = 2;
        let d = 3;
        let mut rng = StdRng::seed_from_u64(8);
        let x = init::randn(&[5, heads * d], 1.0, &mut rng);
        let a = init::randn(&[heads * d], 1.0, &mut rng);
        let s = head_project(&x, &a, heads);
        for i in 0..5 {
            for h in 0..heads {
                let manual: f32 = (0..d)
                    .map(|k| x.row(i)[h * d + k] * a.data()[h * d + k])
                    .sum();
                assert!((s.at(&[i, h]) - manual).abs() < 1e-5);
            }
        }
        let grad = init::randn(&[5, heads], 1.0, &mut rng);
        let (d_x, d_a) = head_project_backward(&x, &a, heads, &grad);
        let lhs: f32 = s.mul(&grad).sum();
        assert!((lhs - x.mul(&d_x).sum()).abs() < 1e-3);
        assert!((lhs - a.mul(&d_a).sum()).abs() < 1e-3);
    }

    #[test]
    fn gat_edge_scores_match_gather_formulation() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(9);
        let s_dst = init::randn(&[4, 2], 1.0, &mut rng);
        let s_src = init::randn(&[4, 2], 1.0, &mut rng);
        let slope = 0.2;
        let scores = gat_edge_scores(&g, &s_dst, &s_src, slope);
        let manual = gather_dst(&g, &s_dst)
            .add(&gather_src(&g, &s_src))
            .map(|u| if u > 0.0 { u } else { slope * u });
        assert!(scores.allclose(&manual, 1e-5));
    }

    #[test]
    fn gat_edge_scores_backward_is_adjoint_in_linear_region() {
        // With slope 1.0 the op is linear, so adjointness must hold exactly.
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(10);
        let s_dst = init::randn(&[4, 2], 1.0, &mut rng);
        let s_src = init::randn(&[4, 2], 1.0, &mut rng);
        let grad = init::randn(&[g.num_edges(), 2], 1.0, &mut rng);
        let scores = gat_edge_scores(&g, &s_dst, &s_src, 1.0);
        let (d_dst, d_src) = gat_edge_scores_backward(&g, &s_dst, &s_src, 1.0, &grad);
        let lhs: f32 = scores.mul(&grad).sum();
        let rhs = s_dst.mul(&d_dst).sum() + s_src.mul(&d_src).sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn bipartite_spmm() {
        // 3 source columns feeding 2 destination rows.
        let g = CsrGraph::from_edges_bipartite(3, 2, &[(0, 0), (2, 0), (1, 1)]);
        let x = Tensor::from_vec(&[3, 1], vec![1.0, 10.0, 100.0]);
        let out = spmm_sum(&g, &x);
        assert_eq!(out.data(), &[101.0, 10.0]);
    }
}
