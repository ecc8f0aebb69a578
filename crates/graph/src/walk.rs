//! The one row walk under the sparse kernels (DESIGN.md §18).
//!
//! Algorithm 1 is one loop — per fetched block, fold each output row's
//! neighbours' operand rows into the output row, in stored order.
//! [`walk`] is that loop, row-parallel through
//! [`sar_tensor::pool::split_rows`] (one writer per output row) and
//! parametrised by the per-row operator, which receives the row's whole
//! entry list at once so it can keep the output row in registers across
//! it. It runs over an [`Adjacency`]: a [`CsrGraph`](crate::CsrGraph)'s
//! own arrays for the destination-major kernels, its
//! [`ReverseIndex`](crate::ReverseIndex) for the scatter-style backward
//! ones — a backward SpMM *is* the forward walk over the reverse
//! adjacency.

use sar_tensor::pool::{split_rows, Output};

/// A row-major adjacency `(ptr, nbr, eid)`: row `r`'s entries sit at
/// positions `ptr[r]..ptr[r + 1]`, each naming a neighbour and the CSR
/// edge id it stands for.
#[derive(Clone, Copy)]
pub(crate) struct Adjacency<'a> {
    /// Row pointer array, one entry per row plus the end.
    pub ptr: &'a [usize],
    /// Neighbour of each entry.
    pub nbr: &'a [u32],
    /// CSR edge id of each entry; `None` when it is the entry's own
    /// position (the graph's own destination-major arrays).
    pub eid: Option<&'a [u32]>,
    /// Size of the neighbour index space (rows of the streamed operand).
    pub others: usize,
}

impl Adjacency<'_> {
    /// Number of rows walked.
    pub fn rows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// CSR edge id of the entry at `pos`.
    pub fn eid(&self, pos: usize) -> usize {
        self.eid.map_or(pos, |ids| ids[pos] as usize)
    }
}

/// Row `r` (counted from the part's first row) of a row-owned
/// [`split_rows`] part.
pub(crate) fn row_mut(part: &mut [f32], r: usize, width: usize) -> &mut [f32] {
    &mut part[r * width..(r + 1) * width]
}

/// Row `r`'s entries in an edge-owned [`split_rows`] part, with `r`
/// counted from the part's first row and `ptr` the pointer array sliced
/// from that row on (`&indptr[lo..]`).
pub(crate) fn edges_mut<'a>(
    part: &'a mut [f32],
    ptr: &[usize],
    r: usize,
    w: usize,
) -> &'a mut [f32] {
    &mut part[(ptr[r] - ptr[0]) * w..(ptr[r + 1] - ptr[0]) * w]
}

/// Calls `row(out_row, nbrs, start)` once for every row of `adj`, with
/// `out_row` that row's `width`-wide slice of the `[adj.rows(), width]`
/// buffer `out`, `nbrs` the row's neighbours in stored order and `start`
/// the position of the first of them (entry `k` sits at `start + k`,
/// which [`Adjacency::eid`] turns into its edge id).
pub(crate) fn walk<R>(adj: Adjacency<'_>, out: &mut [f32], width: usize, row: R)
where
    R: Fn(&mut [f32], &[u32], usize) + Sync,
{
    let (ptr, nbr) = (adj.ptr, adj.nbr);
    split_rows(
        adj.rows(),
        [Output::row_owned(out, width)],
        move |lo, hi, [part]| {
            for r in lo..hi {
                let (start, end) = (ptr[r], ptr[r + 1]);
                row(row_mut(part, r - lo, width), &nbr[start..end], start);
            }
        },
    );
}
