//! Fused attention kernels (FAK) with online softmax — §3.3 of the paper.
//!
//! The standard (DGL-style) GAT implementation materializes the `[E, H]`
//! attention-coefficient tensor twice: once when computing edge softmax and
//! once when weighting messages. The fused kernels instead stream over a
//! destination's in-edges, maintaining a *numerically stable online
//! softmax* — a running per-(node, head) maximum `m`, denominator `den`,
//! and weighted numerator `num`. Whenever the maximum increases, the
//! accumulated numerator and denominator are rescaled by
//! `exp(old_max − new_max)` (§3.4 "Stable softmax"). Attention
//! coefficients are never stored between passes, and never for a whole
//! block: the forward keeps one destination row's weights, the backward
//! one run of rows' coefficients.
//!
//! The kernels are *block-incremental*: [`OnlineAttnState`] persists across
//! calls, so SAR's Algorithm 1 can feed one fetched partition block
//! `G_{p,q}` at a time and free it, and a single call over the whole graph
//! implements the paper's single-host fused kernel (Fig. 2). The backward
//! kernel recomputes coefficients on the fly from the saved `(m, den)`
//! statistics — the recomputation SAR must do anyway during
//! rematerialization, which is why FAK "synergizes" with SAR.
//!
//! Each destination row is two steps. The forward first runs the scalar
//! online-softmax recurrence over the row's edges — score, running max,
//! rescale factor, weight, denominator — into a per-thread scratch of one
//! [`Step`] per (edge, head), then one [`simd::weighted_gather`] streams
//! the row's source rows past its numerator held in registers, applying
//! each rescale and weighted add in the recurrence's order. The backward
//! computes each (edge, head)'s coefficient `α` and logit-sum gradient
//! `du` once, destination-major (folding `d_s_dst` there), into one
//! `[edges, H]` pair of tensors that covers a run of whole rows of at most
//! `cols · D / 2` edges (or one row, if wider) — never more than the
//! block's own `[cols, H·D]` source features, however dense the block —
//! and a source-major pass reads them back into `d_x_src` / `d_s_src`
//! through the same gather, with skips in place of rescales.
//!
//! The *two-step* family (`gat_twostep_block_*`, plain "SAR" in Figs. 4
//! and 6) runs the same online-softmax step and the same gradient body;
//! it differs only in where a value comes from — raw scores and
//! coefficients are first written to `[E_block, H]` tensors and read
//! back, instead of being computed per edge — and in which edges its
//! backward skips (DESIGN.md §18).
//!
//! Like `ops`, the kernels parallelize over destination rows (forward
//! and `d_s_dst`) and over source rows via
//! [`CsrGraph::reverse_index`] (the scatter-style `d_x_src` / `d_s_src`
//! pass), preserving each row's sequential reduction order so results
//! are bitwise identical across thread counts.
//!
//! Inner loops over each head's `d`-wide feature segment run through the
//! bitwise-deterministic SIMD primitives of [`sar_tensor::simd`]. The two
//! `*_indexed` entry points read source features through a row map
//! (`x[map[j]]`), applied when a row's index list is built; the workspace
//! no longer calls them and they stay only because `benchmark/` imports
//! them by name.

use std::ops::Range;

use crate::ops::{gat_edge_scores, head_dim, Operand};
use crate::walk::{edges_mut, row_mut};
use crate::CsrGraph;
use sar_tensor::pool::{split_rows, Output};
use sar_tensor::simd::{self, Step};
use sar_tensor::Tensor;

/// Running online-softmax state for attention aggregation over
/// `rows` destination nodes with `heads` heads of dimension `head_dim`.
#[derive(Debug, Clone)]
pub struct OnlineAttnState {
    /// Accumulated weighted numerator, `[rows, H*D]`.
    pub num: Tensor,
    /// Accumulated softmax denominator, `[rows, H]`.
    pub den: Tensor,
    /// Running maximum of raw scores, `[rows, H]`.
    pub max: Tensor,
    heads: usize,
    head_dim: usize,
}

impl OnlineAttnState {
    /// Fresh state (max = −∞, denominators and numerators zero).
    pub fn new(rows: usize, heads: usize, head_dim: usize) -> Self {
        OnlineAttnState {
            num: Tensor::zeros(&[rows, heads * head_dim]),
            den: Tensor::zeros(&[rows, heads]),
            max: Tensor::full(&[rows, heads], f32::NEG_INFINITY),
            heads,
            head_dim,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Per-head feature dimension.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Finalizes the aggregation: `out[i, h*D..] = num / den`, with
    /// isolated destinations (denominator 0) producing zeros. Any other
    /// denominator divides — a NaN one (a NaN score) poisons its row, as
    /// it does in the two-step reference.
    pub fn finalize(&self) -> Tensor {
        let mut out = self.num.clone();
        self.normalize(&mut out);
        out
    }

    /// Consumes the state, normalizing the numerator *in place* (no copy)
    /// and returning `(output, max, den)` — the statistics the backward
    /// pass needs to recompute attention coefficients.
    pub fn finalize_into(mut self) -> (Tensor, Tensor, Tensor) {
        let mut out = std::mem::replace(&mut self.num, Tensor::zeros(&[1]));
        self.normalize(&mut out);
        (out, self.max, self.den)
    }

    // sar-check: deterministic(one-writer-per-row: each destination row is
    // divided by its own denominator in a fixed sequential row loop)
    fn normalize(&self, out: &mut Tensor) {
        let rows = self.den.rows();
        let (h, d) = (self.heads, self.head_dim);
        for i in 0..rows {
            for head in 0..h {
                let den = self.den.at(&[i, head]);
                let seg = &mut out.row_mut(i)[head * d..(head + 1) * d];
                if den == 0.0 {
                    seg.fill(0.0);
                } else {
                    simd::div_scalar(seg, den);
                }
            }
        }
    }
}

/// Panics unless `t` is the `[rows, heads]` per-(node, head) tensor that
/// `what` names.
fn check_node_heads(t: &Tensor, rows: usize, heads: usize, what: &str) {
    assert_eq!(
        t.shape(),
        &[rows, heads][..],
        "{what} must be [{rows}, {heads}]"
    );
}

/// The two attention kernel families share one body each for forward and
/// backward, compiled once per family. They differ only in whether raw
/// scores (forward) and coefficients (backward) are `MATERIALIZED`:
/// written to an `[E_block, H]` tensor and read back by edge id, instead
/// of being computed per edge.
///
/// Fused (§3.3): computed per edge, never stored.
const FUSED: bool = false;
/// Two-step: written to memory and read back (DGL-style; the plain-SAR
/// baseline of Figs. 4 and 6).
const TWO_STEP: bool = true;

/// One block's attention inputs, shape-checked once for every kernel of
/// both families.
#[derive(Clone, Copy)]
struct AttnBlock<'a> {
    g: &'a CsrGraph,
    /// Destination logits `aᵀ_dst z_i`, `[rows, H]`.
    s_dst: &'a [f32],
    /// Source logits `aᵀ_src z_j`, `[cols, H]`.
    s_src: &'a [f32],
    /// Source features `[cols, H*D]`, possibly through a row map.
    x: Operand<'a>,
    heads: usize,
    head_dim: usize,
    /// LeakyReLU negative slope.
    slope: f32,
}

impl<'a> AttnBlock<'a> {
    /// # Panics
    ///
    /// Panics unless `x` (through `map`) has one `heads`-divisible row per
    /// graph column, `s_dst` is `[rows, heads]` and `s_src` is
    /// `[cols, heads]`.
    fn new(
        g: &'a CsrGraph,
        s_dst: &'a Tensor,
        s_src: &'a Tensor,
        x: &'a Tensor,
        map: Option<&'a [u32]>,
        heads: usize,
        slope: f32,
    ) -> Self {
        let x = Operand::new(x, map, g.num_cols());
        check_node_heads(s_dst, g.num_rows(), heads, "s_dst");
        check_node_heads(s_src, g.num_cols(), heads, "s_src");
        AttnBlock {
            g,
            s_dst: s_dst.data(),
            s_src: s_src.data(),
            x,
            heads,
            head_dim: head_dim(x.width, heads),
            slope,
        }
    }

    /// Pre-activation logit sum `u` of edge `j → i`.
    fn logit(&self, i: usize, j: usize, head: usize) -> f32 {
        self.s_dst[i * self.heads + head] + self.s_src[j * self.heads + head]
    }

    /// Raw attention score `LeakyReLU(u)` of a logit sum `u`.
    fn leaky_relu(&self, u: f32) -> f32 {
        if u > 0.0 {
            u
        } else {
            self.slope * u
        }
    }

    /// Streams the block's edges through the online-softmax accumulator.
    /// `scores` is a materializing family's `[E, H]` raw scores (unused
    /// otherwise: every score is computed on the fly).
    ///
    /// Per destination row, the scalar recurrence — score, running max,
    /// rescale factor, weight, denominator — runs first over the row's
    /// edges and heads, leaving one [`Step`] per (edge, head) in a
    /// per-thread scratch; then one [`simd::weighted_gather`] streams the
    /// row's source rows past the numerator held in registers, applying
    /// each step's rescale and weighted add in the recurrence's order.
    ///
    /// Destination-parallel: each destination's (max, den, num) rows have
    /// exactly one writer, and its edge stream keeps the sequential order,
    /// so the recurrence is thread-count-invariant.
    // sar-check: deterministic(one-writer-per-row: a destination's max, den
    // and num rows fold its edge segment in fixed CSR order)
    fn online_softmax<const MATERIALIZED: bool>(self, state: &mut OnlineAttnState, scores: &[f32]) {
        let (h, d) = (self.heads, self.head_dim);
        let hd = h * d;
        let g = self.g;
        split_rows(
            g.num_rows(),
            [
                Output::row_owned(state.num.data_mut(), hd),
                Output::row_owned(state.den.data_mut(), h),
                Output::row_owned(state.max.data_mut(), h),
            ],
            move |lo, hi, [num, den, max]| {
                let (mut steps, mut rows) = (Vec::new(), Vec::new());
                for i in lo..hi {
                    let den_row = row_mut(den, i - lo, h);
                    let max_row = row_mut(max, i - lo, h);
                    steps.clear();
                    for (j, e) in g.entries(i) {
                        for head in 0..h {
                            let s = if MATERIALIZED {
                                scores[e * h + head]
                            } else {
                                self.leaky_relu(self.logit(i, j, head))
                            };
                            let m_old = max_row[head];
                            // A new maximum rescales the accumulated
                            // numerator/denominator by exp(old_max − new_max)
                            // — the stable-softmax correction of §3.4.
                            let rescale = (s > m_old).then(|| {
                                if m_old == f32::NEG_INFINITY {
                                    0.0
                                } else {
                                    (m_old - s).exp()
                                }
                            });
                            if let Some(scale) = rescale {
                                max_row[head] = s;
                                den_row[head] *= scale;
                            }
                            let w = (s - max_row[head]).exp();
                            den_row[head] += w;
                            steps.push(
                                rescale.map_or(Step::Add(w), |scale| Step::RescaleAdd { scale, w }),
                            );
                        }
                    }
                    let (x, idx) = self.x.gather(g.neighbors(i), &mut rows);
                    simd::weighted_gather(row_mut(num, i - lo, hd), h, x, idx, &steps);
                }
            },
        );
    }
}

/// One block's backward: its attention inputs, the upstream gradient, the
/// saved softmax statistics and the family's coefficient source.
#[derive(Clone, Copy)]
struct AttnBackward<'a> {
    blk: AttnBlock<'a>,
    /// Upstream gradient, `[rows, H*D]`.
    grad: &'a [f32],
    /// [`attn_grad_dot`] of it, `[rows, H]`.
    grad_dot: &'a [f32],
    /// Saved running maximum and denominator, `[rows, H]` each.
    max: &'a [f32],
    den: &'a [f32],
    /// A materializing family's `[E, H]` coefficients (unused otherwise:
    /// each is recomputed from `(max, den)`).
    alpha: &'a [f32],
}

impl AttnBackward<'_> {
    /// Whether the family skips the (edge, head) whose coefficient is
    /// `alpha` and whose destination's denominator is `den` — asked once
    /// by each pass, so both skip the same set.
    ///
    /// The two predicates are *not* interchangeable: fused skips a
    /// destination whose denominator is not positive and otherwise pushes
    /// even a coefficient that underflowed to zero (`dx += 0·g` turns a
    /// `-0.0` into `+0.0`, `0·∞` is NaN); two-step skips every edge whose
    /// materialized coefficient is `0.0`. Merging them moves signed-zero
    /// and underflow bits of one family.
    fn skips<const MATERIALIZED: bool>(alpha: f32, den: f32) -> bool {
        if MATERIALIZED {
            alpha == 0.0
        } else {
            den <= 0.0
        }
    }

    /// Pushes the block's gradients: adds into `d_s_dst`, returns the
    /// rest.
    ///
    /// Each (edge, head)'s coefficient `α` and logit-sum gradient `du` —
    /// the softmax path `de = α (⟨g_i, x_j⟩ − ⟨g_i, out_i⟩)` through the
    /// LeakyReLU — is computed once, by a destination-major pass, and
    /// folded into `d_s_dst` there; a source-major pass then reads both
    /// back for `d_x` and `d_s_src`. So that the buffer between the two
    /// stays bounded by the block's own `[cols, H·D]` source features (or
    /// by one row's edges, if wider) rather than growing with its edge
    /// count, the block goes through the two passes in runs of whole
    /// destination rows ([`row_chunks`]).
    // sar-check: deterministic(one-writer-per-row: a destination's d_s_dst
    // row folds its edges in CSR order, a source's d_x / d_s_src rows fold
    // theirs in ascending edge-id order, chunk after chunk)
    fn push<const MATERIALIZED: bool>(self, d_s_dst: &mut Tensor) -> FusedBlockGrads {
        let (g, h, d) = (self.blk.g, self.blk.heads, self.blk.head_dim);
        let indptr = g.indptr();
        let mut d_x_src = Tensor::zeros(&[g.num_cols(), h * d]);
        let mut d_s_src = Tensor::zeros(&[g.num_cols(), h]);
        // Two `[edges, H]` buffers of `cols · D / 2` edges hold
        // `cols · H · D` floats: the block's own source features.
        let chunks = row_chunks(indptr, g.num_cols() * d / 2);
        let widest = chunks.windows(2).map(|c| indptr[c[1]] - indptr[c[0]]);
        let widest = widest.max().unwrap_or(0);
        let mut alpha_buf = Tensor::zeros(&[widest, h]);
        let mut du_buf = Tensor::zeros(&[widest, h]);
        for c in chunks.windows(2) {
            let (rows, edges) = (c[0]..c[1], indptr[c[0]]..indptr[c[1]]);
            if edges.is_empty() {
                continue;
            }
            let len = edges.len() * h;
            let (alpha, du) = (
                &mut alpha_buf.data_mut()[..len],
                &mut du_buf.data_mut()[..len],
            );
            self.coefficients::<MATERIALIZED>(rows, d_s_dst.data_mut(), alpha, du);
            let grads = (d_x_src.data_mut(), d_s_src.data_mut());
            self.push_sources::<MATERIALIZED>(edges, alpha, du, grads);
        }
        FusedBlockGrads { d_x_src, d_s_src }
    }

    /// Destination-major pass over `rows`: writes every edge's `α` and
    /// `du` into `alpha` / `du` (`[edges of rows, H]`, edge-owned) and
    /// folds `du` into the rows of `d_s_dst` in CSR order. One
    /// [`simd::head_dots`] per edge gives `⟨g_i, x_j⟩` for all heads.
    // sar-check: deterministic(one-writer-per-row: a destination's d_s_dst
    // row and its edges' α / du entries are written by one chunk, in CSR
    // order)
    fn coefficients<const MATERIALIZED: bool>(
        self,
        rows: Range<usize>,
        d_s_dst: &mut [f32],
        alpha: &mut [f32],
        du: &mut [f32],
    ) {
        let blk = self.blk;
        let (g, h) = (blk.g, blk.heads);
        let hd = h * blk.head_dim;
        let r0 = rows.start;
        let ptr = &g.indptr()[r0..=rows.end];
        split_rows(
            rows.len(),
            [
                Output::row_owned(&mut d_s_dst[r0 * h..rows.end * h], h),
                Output::edge_owned(alpha, ptr, h),
                Output::edge_owned(du, ptr, h),
            ],
            move |lo, hi, [dsd, a_part, du_part]| {
                let mut dots = vec![0.0f32; h];
                for r in lo..hi {
                    let i = r0 + r;
                    let g_row = &self.grad[i * hd..(i + 1) * hd];
                    let dsd_row = row_mut(dsd, r - lo, h);
                    let a_rows = edges_mut(a_part, &ptr[lo..], r - lo, h);
                    let du_rows = edges_mut(du_part, &ptr[lo..], r - lo, h);
                    for (k, (j, e)) in g.entries(i).enumerate() {
                        simd::head_dots(&mut dots, g_row, blk.x.row(j));
                        for head in 0..h {
                            let (u, den) = (blk.logit(i, j, head), self.den[i * h + head]);
                            let alpha = if MATERIALIZED {
                                self.alpha[e * h + head]
                            } else {
                                (blk.leaky_relu(u) - self.max[i * h + head]).exp() / den
                            };
                            a_rows[k * h + head] = alpha;
                            if Self::skips::<MATERIALIZED>(alpha, den) {
                                continue;
                            }
                            let de = alpha * (dots[head] - self.grad_dot[i * h + head]);
                            let du = de * if u > 0.0 { 1.0 } else { blk.slope };
                            du_rows[k * h + head] = du;
                            dsd_row[head] += du;
                        }
                    }
                }
            },
        );
    }

    /// Source-major pass over the edge ids `edges` (a run of whole rows):
    /// reads back their `α` and `du` (`[edges, H]`, as
    /// [`AttnBackward::coefficients`] wrote them) and adds `α g_i` into
    /// `d_x[j]` — one [`simd::weighted_gather`] per source over the
    /// upstream gradient rows of its destinations — and `du` into
    /// `d_s_src[j]`. A source's entries in the reverse index ascend by edge
    /// id, so each run's are one contiguous stretch of them, found by
    /// bisection, and the runs follow each other in the sequential order.
    // sar-check: deterministic(one-writer-per-row: a source's d_x and d_s_src
    // rows fold its entries of this run in ascending edge-id order)
    fn push_sources<const MATERIALIZED: bool>(
        self,
        edges: Range<usize>,
        alpha: &[f32],
        du: &[f32],
        (d_x, d_s): (&mut [f32], &mut [f32]),
    ) {
        let g = self.blk.g;
        let (h, hd) = (self.blk.heads, self.blk.heads * self.blk.head_dim);
        let rev = g.reverse_adjacency();
        let eid = rev.eid.expect("the reverse index stores edge ids");
        split_rows(
            g.num_cols(),
            [Output::row_owned(d_x, hd), Output::row_owned(d_s, h)],
            move |lo, hi, [dx, dss]| {
                let mut steps = Vec::new();
                for j in lo..hi {
                    let ids = &eid[rev.ptr[j]..rev.ptr[j + 1]];
                    let skipped = ids.partition_point(|&e| (e as usize) < edges.start);
                    let run = ids[skipped..]
                        .iter()
                        .take_while(|&&e| (e as usize) < edges.end);
                    let (from, to) = (rev.ptr[j] + skipped, rev.ptr[j] + skipped + run.count());
                    if from == to {
                        continue;
                    }
                    let dss_row = row_mut(dss, j - lo, h);
                    steps.clear();
                    for (&i, &e) in rev.nbr[from..to].iter().zip(&eid[from..to]) {
                        let k = (e as usize - edges.start) * h;
                        for head in 0..h {
                            let a = alpha[k + head];
                            if Self::skips::<MATERIALIZED>(a, self.den[i as usize * h + head]) {
                                steps.push(Step::Skip);
                            } else {
                                dss_row[head] += du[k + head];
                                steps.push(Step::Add(a));
                            }
                        }
                    }
                    let dx_row = row_mut(dx, j - lo, hd);
                    simd::weighted_gather(dx_row, h, self.grad, &rev.nbr[from..to], &steps);
                }
            },
        );
    }
}

/// Ascending boundaries `0 = b_0, …, b_m = rows` that cut a CSR block
/// with pointer array `indptr` into runs of whole destination rows of at
/// most `max(budget, widest row)` edges each, every run but an edgeless
/// block's holding at least one row.
fn row_chunks(indptr: &[usize], budget: usize) -> Vec<usize> {
    let rows = indptr.len() - 1;
    let widest = indptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let cap = budget.max(widest);
    let mut bounds = vec![0];
    for r in 0..rows {
        let start = indptr[bounds[bounds.len() - 1]];
        if indptr[r + 1] - start > cap {
            bounds.push(r);
        }
    }
    bounds.push(rows);
    bounds
}

/// Streams one block of edges through the online-softmax accumulator.
///
/// * `s_dst` — destination attention logits `aᵀ_dst z_i`, `[rows, H]`.
/// * `s_src` — source attention logits `aᵀ_src z_j`, `[cols, H]` (for a SAR
///   block these come from the fetched remote partition).
/// * `x_src` — source features, `[cols, H*D]`.
/// * `slope` — LeakyReLU negative slope.
///
/// Attention coefficients are computed on the fly and never stored.
///
/// # Panics
///
/// Panics if shapes disagree with the graph or the state.
pub fn gat_fused_block_forward(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    x_src: &Tensor,
    slope: f32,
    state: &mut OnlineAttnState,
) {
    block_forward::<FUSED>(g, s_dst, s_src, x_src, None, slope, state);
}

/// [`gat_fused_block_forward`] with source features read through a row
/// map: block column `j` reads `x[map[j]]`; bitwise identical to gathering
/// the block first. Unused by the workspace (SAR's local block has
/// identity columns); kept because `benchmark/` imports it by name,
/// awaiting the benchmark-only change that drops the import.
///
/// # Panics
///
/// Panics if `map` does not have one entry per graph column or any entry
/// is out of range for `x`.
pub fn gat_fused_block_forward_indexed(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    x: &Tensor,
    map: &[u32],
    slope: f32,
    state: &mut OnlineAttnState,
) {
    block_forward::<FUSED>(g, s_dst, s_src, x, Some(map), slope, state);
}

/// Two-step (non-fused) variant of [`gat_fused_block_forward`]: first
/// *materializes* the block's `[E_block, H]` raw attention scores (one
/// memory write + read per coefficient, as in DGL's two-step GAT), then
/// streams them through the same online-softmax accumulator.
///
/// Numerically identical to the fused kernel; exists to reproduce the
/// runtime/memory gap between "SAR" and "SAR+FAK" in Figs. 4 and 6.
///
/// # Panics
///
/// Panics if shapes disagree with the graph or the state.
pub fn gat_twostep_block_forward(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    x: &Tensor,
    slope: f32,
    state: &mut OnlineAttnState,
) {
    block_forward::<TWO_STEP>(g, s_dst, s_src, x, None, slope, state);
}

/// The forward of both families: every shape check, then the one
/// online-softmax step fed from the family's score source. `map` is
/// `Some` only from [`gat_fused_block_forward_indexed`].
fn block_forward<const MATERIALIZED: bool>(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    x: &Tensor,
    map: Option<&[u32]>,
    slope: f32,
    state: &mut OnlineAttnState,
) {
    let h = state.heads;
    let blk = AttnBlock::new(g, s_dst, s_src, x, map, h, slope);
    assert_eq!(blk.head_dim, state.head_dim, "x width must be H*D");
    assert_eq!(state.num.rows(), g.num_rows(), "state rows mismatch");
    check_node_heads(&state.den, g.num_rows(), h, "state.den");
    check_node_heads(&state.max, g.num_rows(), h, "state.max");
    // Two-step, step 1: write all raw scores to memory. Step 2 reads them
    // back while aggregating.
    let scores = MATERIALIZED.then(|| gat_edge_scores(g, s_dst, s_src, slope));
    blk.online_softmax::<MATERIALIZED>(state, scores.as_ref().map_or(&[], Tensor::data));
}

/// Per-(node, head) inner products `⟨grad_out, out⟩`, `[rows, H]` — the
/// softmax-backward correction term, precomputed once per backward pass.
pub fn attn_grad_dot(grad_out: &Tensor, out: &Tensor, heads: usize) -> Tensor {
    assert_eq!(grad_out.shape(), out.shape(), "grad/out shape mismatch");
    let rows = out.rows();
    let hd = out.cols();
    head_dim(hd, heads);
    let mut dot = vec![0.0f32; rows * heads];
    let g_data = grad_out.data();
    let o_data = out.data();
    split_rows(
        rows,
        [Output::row_owned(&mut dot, heads)],
        move |lo, hi, [chunk]| {
            for i in lo..hi {
                let g_row = &g_data[i * hd..(i + 1) * hd];
                let o_row = &o_data[i * hd..(i + 1) * hd];
                simd::head_dots(row_mut(chunk, i - lo, heads), g_row, o_row);
            }
        },
    );
    Tensor::from_vec(&[rows, heads], dot)
}

/// Gradient contributions of one block in the fused backward pass.
#[derive(Debug)]
pub struct FusedBlockGrads {
    /// Gradient w.r.t. the block's source features, `[cols, H*D]`.
    pub d_x_src: Tensor,
    /// Gradient w.r.t. the block's source attention logits, `[cols, H]`.
    pub d_s_src: Tensor,
}

/// Fused backward over one block: recomputes attention coefficients on the
/// fly from the saved softmax statistics `(max, den)` and the layer output
/// `out`, and pushes gradients to the block's sources.
///
/// For SAR, `x_src`/`s_src` are the *re-fetched* remote features (case 2 of
/// Algorithm 2) and the returned [`FusedBlockGrads`] are sent back to the
/// owning worker; `d_s_dst` accumulates locally across blocks.
///
/// `grad_dot` must be [`attn_grad_dot`]`(grad_out, out, heads)`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn gat_fused_block_backward(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    x_src: &Tensor,
    slope: f32,
    max: &Tensor,
    den: &Tensor,
    grad_out: &Tensor,
    grad_dot: &Tensor,
    d_s_dst: &mut Tensor,
) -> FusedBlockGrads {
    block_backward::<FUSED>(
        g, s_dst, s_src, x_src, None, slope, max, den, grad_out, grad_dot, d_s_dst,
    )
}

/// [`gat_fused_block_backward`] with source features read through a row
/// map (`x[map[j]]`). The returned gradients are still block-shaped
/// (`[cols, …]`) — only the *reads* are indirect. Unused by the workspace;
/// kept because `benchmark/` imports it by name, awaiting the
/// benchmark-only change that drops the import.
///
/// # Panics
///
/// Panics if `map` does not have one entry per graph column or any entry
/// is out of range for `x`.
#[allow(clippy::too_many_arguments)]
pub fn gat_fused_block_backward_indexed(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    x: &Tensor,
    map: &[u32],
    slope: f32,
    max: &Tensor,
    den: &Tensor,
    grad_out: &Tensor,
    grad_dot: &Tensor,
    d_s_dst: &mut Tensor,
) -> FusedBlockGrads {
    let map = Some(map);
    block_backward::<FUSED>(
        g, s_dst, s_src, x, map, slope, max, den, grad_out, grad_dot, d_s_dst,
    )
}

/// Two-step variant of [`gat_fused_block_backward`]: re-materializes the
/// block's `[E_block, H]` scores and coefficients in memory before pushing
/// gradients (DGL-style), instead of recomputing them per edge on the fly.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn gat_twostep_block_backward(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    x: &Tensor,
    slope: f32,
    max: &Tensor,
    den: &Tensor,
    grad_out: &Tensor,
    grad_dot: &Tensor,
    d_s_dst: &mut Tensor,
) -> FusedBlockGrads {
    block_backward::<TWO_STEP>(
        g, s_dst, s_src, x, None, slope, max, den, grad_out, grad_dot, d_s_dst,
    )
}

/// The backward of both families: every shape check, then the one
/// gradient body fed from the family's coefficient source. `map` is
/// `Some` only from [`gat_fused_block_backward_indexed`].
#[allow(clippy::too_many_arguments)]
fn block_backward<const MATERIALIZED: bool>(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    x: &Tensor,
    map: Option<&[u32]>,
    slope: f32,
    max: &Tensor,
    den: &Tensor,
    grad_out: &Tensor,
    grad_dot: &Tensor,
    d_s_dst: &mut Tensor,
) -> FusedBlockGrads {
    let h = s_dst.cols();
    let rows = g.num_rows();
    let blk = AttnBlock::new(g, s_dst, s_src, x, map, h, slope);
    check_node_heads(max, rows, h, "max");
    check_node_heads(den, rows, h, "den");
    check_node_heads(grad_dot, rows, h, "grad_dot");
    check_node_heads(d_s_dst, rows, h, "d_s_dst");
    assert_eq!(
        grad_out.shape(),
        &[rows, blk.x.width][..],
        "grad_out must be [rows, H*D]"
    );
    let (max, den) = (max.data(), den.data());
    // Fused: each edge's coefficient is recomputed on the fly (the
    // rematerialization SAR does anyway). Two-step, step 1: materialize
    // raw scores and normalized coefficients (destination-parallel: each
    // edge row is owned by its destination); step 2 reads them back while
    // pushing gradients. Both tensors stay alive until the push is done,
    // as in DGL's two-step GAT: the family exists to reproduce that
    // memory gap (Figs. 4 and 6).
    let materialized = MATERIALIZED.then(|| {
        let scores = gat_edge_scores(g, s_dst, s_src, slope);
        let mut alpha = scores.clone();
        let raw = scores.data();
        let indptr = g.indptr();
        split_rows(
            rows,
            [Output::edge_owned(alpha.data_mut(), indptr, h)],
            move |lo, hi, [part]| {
                for i in lo..hi {
                    let (es, ee) = (indptr[i], indptr[i + 1]);
                    let a_rows = edges_mut(part, &indptr[lo..], i - lo, h);
                    for e in es..ee {
                        for head in 0..h {
                            let den_i = den[i * h + head];
                            a_rows[(e - es) * h + head] = if den_i > 0.0 {
                                (raw[e * h + head] - max[i * h + head]).exp() / den_i
                            } else {
                                0.0
                            };
                        }
                    }
                }
            },
        );
        (scores, alpha)
    });
    let backward = AttnBackward {
        blk,
        grad: grad_out.data(),
        grad_dot: grad_dot.data(),
        max,
        den,
        alpha: materialized.as_ref().map_or(&[], |(_, alpha)| alpha.data()),
    };
    backward.push::<MATERIALIZED>(d_s_dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sar_tensor::init;

    fn graph() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (2, 1), (3, 1), (1, 0), (4, 3), (3, 4), (0, 0)])
    }

    /// Reference GAT aggregation via the standard two-step path.
    fn reference_forward(
        g: &CsrGraph,
        s_dst: &Tensor,
        s_src: &Tensor,
        x: &Tensor,
        slope: f32,
    ) -> Tensor {
        let scores = ops::gat_edge_scores(g, s_dst, s_src, slope);
        let alpha = ops::edge_softmax(g, &scores);
        ops::spmm_multihead(g, &alpha, x)
    }

    #[test]
    fn fused_forward_matches_standard() {
        let g = graph();
        let (h, d) = (2, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let s_dst = init::randn(&[5, h], 1.0, &mut rng);
        let s_src = init::randn(&[5, h], 1.0, &mut rng);
        let x = init::randn(&[5, h * d], 1.0, &mut rng);
        let mut state = OnlineAttnState::new(5, h, d);
        gat_fused_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut state);
        let fused = state.finalize();
        let reference = reference_forward(&g, &s_dst, &s_src, &x, 0.2);
        assert!(fused.allclose(&reference, 1e-4), "fused != standard");
    }

    #[test]
    fn fused_forward_is_block_incremental() {
        // Splitting the edges into two blocks must give the same result —
        // the property SAR's Algorithm 1 relies on for attention models.
        let edges = [(0u32, 1u32), (2, 1), (3, 1), (1, 0), (4, 3), (3, 4), (0, 0)];
        let g_full = CsrGraph::from_edges(5, &edges);
        let g_a = CsrGraph::from_edges(5, &edges[..3]);
        let g_b = CsrGraph::from_edges(5, &edges[3..]);
        let (h, d) = (2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let s_dst = init::randn(&[5, h], 2.0, &mut rng);
        let s_src = init::randn(&[5, h], 2.0, &mut rng);
        let x = init::randn(&[5, h * d], 1.0, &mut rng);

        let mut full = OnlineAttnState::new(5, h, d);
        gat_fused_block_forward(&g_full, &s_dst, &s_src, &x, 0.2, &mut full);
        let mut blocks = OnlineAttnState::new(5, h, d);
        gat_fused_block_forward(&g_a, &s_dst, &s_src, &x, 0.2, &mut blocks);
        gat_fused_block_forward(&g_b, &s_dst, &s_src, &x, 0.2, &mut blocks);
        assert!(full.finalize().allclose(&blocks.finalize(), 1e-4));
    }

    #[test]
    fn stable_softmax_survives_huge_logits() {
        let g = graph();
        let (h, d) = (1, 2);
        let mut rng = StdRng::seed_from_u64(2);
        // Logits of +60 per endpoint ⇒ edge scores of 120 ⇒ exp overflows
        // f32 (max finite exp argument ≈ 88.7) without stabilization. Use
        // constants rather than randn so the premise cannot depend on the
        // RNG stream.
        let s_dst = Tensor::from_vec(&[5, h], vec![60.0; 5 * h]);
        let s_src = Tensor::from_vec(&[5, h], vec![60.0; 5 * h]);
        let x = init::randn(&[5, h * d], 1.0, &mut rng);
        let mut stable = OnlineAttnState::new(5, h, d);
        gat_fused_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut stable);
        let out = stable.finalize();
        assert!(
            out.data().iter().all(|v| v.is_finite()),
            "stable kernel produced non-finite values"
        );
        // The premise: the same scores overflow an unstabilized `exp` (the
        // naive accumulator itself lives beside `repro ablation-softmax`).
        assert!(120.0f32.exp().is_infinite());
    }

    #[test]
    fn fused_backward_matches_standard_backward() {
        let g = graph();
        let (h, d) = (2, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let s_dst = init::randn(&[5, h], 1.0, &mut rng);
        let s_src = init::randn(&[5, h], 1.0, &mut rng);
        let x = init::randn(&[5, h * d], 1.0, &mut rng);
        let slope = 0.2;
        let grad_out = init::randn(&[5, h * d], 1.0, &mut rng);

        // Standard path gradients.
        let scores = ops::gat_edge_scores(&g, &s_dst, &s_src, slope);
        let alpha = ops::edge_softmax(&g, &scores);
        let (d_alpha, d_x_std) = ops::spmm_multihead_backward(&g, &alpha, &x, &grad_out);
        let d_scores = ops::edge_softmax_backward(&g, &alpha, &d_alpha);
        let (d_sdst_std, d_ssrc_std) =
            ops::gat_edge_scores_backward(&g, &s_dst, &s_src, slope, &d_scores);

        // Fused path gradients.
        let mut state = OnlineAttnState::new(5, h, d);
        gat_fused_block_forward(&g, &s_dst, &s_src, &x, slope, &mut state);
        let out = state.finalize();
        let grad_dot = attn_grad_dot(&grad_out, &out, h);
        let mut d_sdst_fused = Tensor::zeros(&[5, h]);
        let grads = gat_fused_block_backward(
            &g,
            &s_dst,
            &s_src,
            &x,
            slope,
            &state.max,
            &state.den,
            &grad_out,
            &grad_dot,
            &mut d_sdst_fused,
        );

        assert!(grads.d_x_src.allclose(&d_x_std, 1e-4), "d_x mismatch");
        assert!(
            grads.d_s_src.allclose(&d_ssrc_std, 1e-4),
            "d_s_src mismatch"
        );
        assert!(d_sdst_fused.allclose(&d_sdst_std, 1e-4), "d_s_dst mismatch");
    }

    #[test]
    fn twostep_matches_fused_forward_and_backward() {
        let g = graph();
        let (h, d) = (2, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let s_dst = init::randn(&[5, h], 1.0, &mut rng);
        let s_src = init::randn(&[5, h], 1.0, &mut rng);
        let x = init::randn(&[5, h * d], 1.0, &mut rng);
        let grad_out = init::randn(&[5, h * d], 1.0, &mut rng);
        let slope = 0.2;

        let mut fused = OnlineAttnState::new(5, h, d);
        gat_fused_block_forward(&g, &s_dst, &s_src, &x, slope, &mut fused);
        let mut two = OnlineAttnState::new(5, h, d);
        gat_twostep_block_forward(&g, &s_dst, &s_src, &x, slope, &mut two);
        assert!(fused.finalize().allclose(&two.finalize(), 1e-5));

        let out = fused.finalize();
        let grad_dot = attn_grad_dot(&grad_out, &out, h);
        let mut dsd_a = Tensor::zeros(&[5, h]);
        let ga = gat_fused_block_backward(
            &g, &s_dst, &s_src, &x, slope, &fused.max, &fused.den, &grad_out, &grad_dot, &mut dsd_a,
        );
        let mut dsd_b = Tensor::zeros(&[5, h]);
        let gb = gat_twostep_block_backward(
            &g, &s_dst, &s_src, &x, slope, &two.max, &two.den, &grad_out, &grad_dot, &mut dsd_b,
        );
        assert!(ga.d_x_src.allclose(&gb.d_x_src, 1e-5));
        assert!(ga.d_s_src.allclose(&gb.d_s_src, 1e-5));
        assert!(dsd_a.allclose(&dsd_b, 1e-5));
    }

    #[test]
    fn skip_predicates_are_each_familys_own() {
        // One edge 0 → 0 whose coefficient underflows to exactly zero
        // (score − max ≈ −200) under a positive denominator, and an
        // infinite upstream gradient. Fused skips only `den ≤ 0`, so it
        // pushes `0 · ∞ = NaN`; two-step skips every `α == 0.0`, so it
        // pushes nothing. Swapping the predicates swaps these outcomes.
        let g = CsrGraph::from_edges(1, &[(0, 0)]);
        let (h, d) = (1, 2);
        let logits = Tensor::zeros(&[1, h]);
        let x = Tensor::ones(&[1, h * d]);
        let max = Tensor::full(&[1, h], 200.0);
        let grad_out = Tensor::full(&[1, h * d], f32::INFINITY);
        let grad_dot = Tensor::zeros(&[1, h]);
        let run = |two_step: bool, den: f32| {
            let den = Tensor::full(&[1, h], den);
            let mut dsd = Tensor::zeros(&[1, h]);
            let (l, dsd_ref) = (&logits, &mut dsd);
            let grads = if two_step {
                gat_twostep_block_backward(
                    &g, l, l, &x, 0.2, &max, &den, &grad_out, &grad_dot, dsd_ref,
                )
            } else {
                gat_fused_block_backward(
                    &g, l, l, &x, 0.2, &max, &den, &grad_out, &grad_dot, dsd_ref,
                )
            };
            [grads.d_x_src.data(), grads.d_s_src.data(), dsd.data()].concat()
        };
        assert!(run(false, 1.0).iter().all(|v| v.is_nan()), "fused pushes");
        assert!(
            run(true, 1.0).iter().all(|v| v.to_bits() == 0),
            "two-step skips"
        );
        // A NaN denominator is not `≤ 0`: fused still pushes; two-step
        // materializes α = 0.0 for any denominator that is not positive.
        assert!(run(false, f32::NAN).iter().all(|v| v.is_nan()));
        assert!(run(true, f32::NAN).iter().all(|v| v.to_bits() == 0));
        // Both agree on a destination without a positive denominator.
        assert!(run(false, 0.0).iter().all(|v| v.to_bits() == 0));
        assert!(run(true, 0.0).iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn a_nan_score_poisons_its_row_like_the_reference() {
        // Edges 0 → 0, 1 → 0, 1 → 1 and a NaN destination logit on row 0:
        // row 0's scores, denominator and output are NaN in the two-step
        // reference, and must be in both families — not zeros, which hid
        // the divergence from the backward (it does not skip a NaN
        // denominator). Row 1 is untouched and row 2, without in-edges,
        // stays exactly zero.
        let g = CsrGraph::from_edges(3, &[(0, 0), (1, 0), (1, 1)]);
        let (h, d) = (1, 2);
        let s_dst = Tensor::from_vec(&[3, h], vec![f32::NAN, 0.5, 0.25]);
        let s_src = Tensor::from_vec(&[3, h], vec![0.1, -0.3, 0.7]);
        let x = Tensor::from_vec(&[3, h * d], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let reference = reference_forward(&g, &s_dst, &s_src, &x, 0.2);
        assert!(reference.row(0).iter().all(|v| v.is_nan()));
        for two_step in [false, true] {
            let mut state = OnlineAttnState::new(3, h, d);
            if two_step {
                gat_twostep_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut state);
            } else {
                gat_fused_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut state);
            }
            assert!(state.den.at(&[0, 0]).is_nan(), "two_step={two_step}");
            let out = state.finalize();
            assert!(out.row(0).iter().all(|v| v.is_nan()), "two_step={two_step}");
            assert_eq!(out.row(1), &[3.0, 4.0], "two_step={two_step}");
            assert_eq!(out.row(1), reference.row(1));
            assert!(
                out.row(2).iter().all(|v| v.to_bits() == 0),
                "two_step={two_step}"
            );
        }
    }

    #[test]
    fn backward_transients_stay_within_one_block_of_features() {
        // Every row draws from every column: in-degree 96 ≫ D = 4, so one
        // `[E, H]` buffer is 24 times the block's `[cols, H·D]` features.
        // The backward may hold at most the larger of those features and
        // one row's edges × 2H floats beyond its two outputs.
        let (rows, cols, h, d) = (96usize, 96usize, 2usize, 4usize);
        let edges: Vec<(u32, u32)> = (0..rows as u32)
            .flat_map(|i| (0..cols as u32).map(move |j| (j, i)))
            .collect();
        let g = CsrGraph::from_edges_bipartite(cols, rows, &edges);
        let mut rng = StdRng::seed_from_u64(5);
        let s_dst = init::randn(&[rows, h], 1.0, &mut rng);
        let s_src = init::randn(&[cols, h], 1.0, &mut rng);
        let x = init::randn(&[cols, h * d], 1.0, &mut rng);
        let grad_out = init::randn(&[rows, h * d], 1.0, &mut rng);
        let mut state = OnlineAttnState::new(rows, h, d);
        gat_fused_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut state);
        let (out, max, den) = state.finalize_into();
        let grad_dot = attn_grad_dot(&grad_out, &out, h);
        let mut d_s_dst = Tensor::zeros(&[rows, h]);
        let scope = sar_tensor::memory::MemScope::begin();
        let grads = gat_fused_block_backward(
            &g,
            &s_dst,
            &s_src,
            &x,
            0.2,
            &max,
            &den,
            &grad_out,
            &grad_dot,
            &mut d_s_dst,
        );
        let peak = scope.finish().delta_bytes();
        let outputs = 4 * (grads.d_x_src.numel() + grads.d_s_src.numel());
        let widest_row = (0..rows).map(|i| g.in_degree(i)).max().unwrap_or(0);
        let bound = 4 * (cols * h * d).max(widest_row * 2 * h);
        assert!(
            4 * g.num_edges() * h > bound,
            "the block is not dense enough"
        );
        assert!(
            peak - outputs <= bound,
            "{} transient bytes, bound {bound}",
            peak - outputs
        );
    }

    #[test]
    fn isolated_nodes_produce_zero_output_and_grads() {
        // Node 2 has no in-edges in this graph.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0)]);
        let (h, d) = (1, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let s_dst = init::randn(&[3, h], 1.0, &mut rng);
        let s_src = init::randn(&[3, h], 1.0, &mut rng);
        let x = init::randn(&[3, h * d], 1.0, &mut rng);
        let mut state = OnlineAttnState::new(3, h, d);
        gat_fused_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut state);
        let out = state.finalize();
        assert_eq!(out.row(2), &[0.0, 0.0]);
        let grad_out = init::randn(&[3, h * d], 1.0, &mut rng);
        let grad_dot = attn_grad_dot(&grad_out, &out, h);
        let mut d_sdst = Tensor::zeros(&[3, h]);
        let grads = gat_fused_block_backward(
            &g,
            &s_dst,
            &s_src,
            &x,
            0.2,
            &state.max,
            &state.den,
            &grad_out,
            &grad_dot,
            &mut d_sdst,
        );
        assert_eq!(d_sdst.row(2), &[0.0]);
        assert!(grads.d_x_src.data().iter().all(|v| v.is_finite()));
    }
}
