//! The one row walk under the sparse kernels (DESIGN.md §18).
//!
//! Algorithm 1 is one loop — per fetched block, walk each output row's
//! adjacency entries in stored order and fold the neighbour's operand row
//! into the output row. [`walk`] is that loop, row-parallel through
//! [`sar_tensor::pool::split_rows`] (one writer per output row) and
//! parametrised by the per-edge operator. It runs over an [`Adjacency`]:
//! a [`CsrGraph`](crate::CsrGraph)'s own arrays for the destination-major
//! kernels, its [`ReverseIndex`](crate::ReverseIndex) for the
//! scatter-style backward ones — a backward SpMM *is* the forward walk
//! over the reverse adjacency.
//!
//! The walk additionally blocks the *streamed* operand (the neighbours'
//! rows) into cache-sized row panels: the outer loop visits panels in
//! ascending order and each row keeps a cursor into its ascending entry
//! list, so every row still folds its entries in exactly the unblocked
//! order — blocking changes locality, never bits (asserted by the
//! tiny-panel tests in `ops`).

use sar_tensor::pool::{split_rows, Output};

/// Bytes of the streamed operand a cache panel may span before the panel
/// is cut; sized to sit comfortably inside a per-core L2 cache.
const SRC_PANEL_BYTES: usize = 256 * 1024;

/// Default panel height (in streamed-operand rows) for feature width `f`.
fn panel_rows(f: usize) -> usize {
    (SRC_PANEL_BYTES / (f.max(1) * std::mem::size_of::<f32>())).max(16)
}

/// The [`walk`] panel height that never cuts a panel: a flat walk.
pub(crate) const FLAT: Option<usize> = Some(usize::MAX);

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
    /// Whether every row's neighbours ascend. A row's cursor never skips
    /// an entry (which is what keeps its accumulation order), so it
    /// stalls at the first neighbour beyond the panel: only on ascending
    /// rows does a panel buy locality.
    pub sorted: bool,
}

impl Adjacency<'_> {
    /// Number of rows walked.
    pub fn rows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// CSR edge id of the entry at `pos`.
    fn eid(&self, pos: usize) -> usize {
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

/// Calls `edge(out_row, nbr, eid)` for every entry of every row of `adj`,
/// in stored order within a row, with `out_row` that row's `width`-wide
/// slice of the `[adj.rows(), width]` buffer `out`.
///
/// `panel` overrides the streamed-operand panel height ([`FLAT`] where the
/// operand is not indexed by neighbour; the parity tests pass tiny ones);
/// `None` sizes it to the cache for `width`-wide rows.
pub(crate) fn walk<E>(
    adj: Adjacency<'_>,
    out: &mut [f32],
    width: usize,
    panel: Option<usize>,
    edge: E,
) where
    E: Fn(&mut [f32], usize, usize) + Sync,
{
    let (ptr, nbr, others) = (adj.ptr, adj.nbr, adj.others);
    let panel = panel.unwrap_or_else(|| panel_rows(width));
    let blocked = adj.sorted && panel < others;
    // `move`: with the adjacency in the closure's own environment its
    // pointers stay in registers across the opaque SIMD calls of `edge`;
    // through captured references they are reloaded after every call.
    split_rows(
        adj.rows(),
        [Output::row_owned(out, width)],
        move |lo, hi, [part]| {
            if !blocked {
                for r in lo..hi {
                    let out_row = row_mut(part, r - lo, width);
                    let (start, end) = (ptr[r], ptr[r + 1]);
                    for (pos, &n) in (start..end).zip(&nbr[start..end]) {
                        edge(out_row, n as usize, adj.eid(pos));
                    }
                }
                return;
            }
            let mut cursor: Vec<usize> = ptr[lo..hi].to_vec();
            let mut b1 = 0usize;
            while b1 < others {
                b1 = (b1 + panel).min(others);
                for r in lo..hi {
                    let end = ptr[r + 1];
                    let c = &mut cursor[r - lo];
                    if *c >= end || (nbr[*c] as usize) >= b1 {
                        continue;
                    }
                    let out_row = row_mut(part, r - lo, width);
                    while *c < end && (nbr[*c] as usize) < b1 {
                        edge(out_row, nbr[*c] as usize, adj.eid(*c));
                        *c += 1;
                    }
                }
            }
        },
    );
}
