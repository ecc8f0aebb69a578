//! Compressed-sparse-row adjacency, oriented for message passing.

use std::sync::OnceLock;

use crate::walk::Adjacency;

/// A graph in compressed-sparse-row form, oriented **destination-major**:
/// row `i` lists the *source* nodes `j` of edges `j → i`. Aggregating over
/// `neighbors(i)` therefore aggregates a node's incoming messages, matching
/// Eq. 1 of the SAR paper.
///
/// The structure may be *bipartite*: `num_rows` destination nodes drawing
/// from `num_cols` source nodes. SAR's per-partition-pair blocks
/// `G_{p,q}` (edges from partition `q` into partition `p`) are bipartite
/// blocks whose column space is the array of features fetched from `q`.
/// For an ordinary graph, `num_rows == num_cols`.
///
/// # Example
///
/// ```
/// use sar_graph::CsrGraph;
///
/// // Edges: 0→1, 2→1, 1→0
/// let g = CsrGraph::from_edges(3, &[(0, 1), (2, 1), (1, 0)]);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert_eq!(g.in_degree(1), 2);
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    num_rows: usize,
    num_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    rev: RevCache,
}

/// The [`ReverseIndex`] of a graph, built on first use. It is derived from
/// the arrays above, not part of the graph's identity: a clone starts
/// without one, any two compare equal, and `Debug` leaves it out.
#[derive(Default)]
struct RevCache(OnceLock<ReverseIndex>);

impl Clone for RevCache {
    fn clone(&self) -> Self {
        RevCache::default()
    }
}

impl PartialEq for RevCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for RevCache {}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_rows", &self.num_rows)
            .field("num_cols", &self.num_cols)
            .field("indptr", &self.indptr)
            .field("indices", &self.indices)
            .finish()
    }
}

impl CsrGraph {
    /// Builds a square graph from `(src, dst)` edge pairs.
    ///
    /// Edges are grouped by destination and sorted by source; duplicates
    /// are kept (they act as weighted edges under sum aggregation).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        Self::from_edges_bipartite(num_nodes, num_nodes, edges)
    }

    /// Builds a bipartite block from `(src, dst)` pairs where sources index
    /// a column space of size `num_cols` and destinations a row space of
    /// size `num_rows`.
    ///
    /// # Panics
    ///
    /// Panics if any source is `>= num_cols` or destination `>= num_rows`.
    pub fn from_edges_bipartite(num_cols: usize, num_rows: usize, edges: &[(u32, u32)]) -> Self {
        let mut counts = vec![0usize; num_rows];
        for &(s, d) in edges {
            assert!(
                (s as usize) < num_cols,
                "source {s} out of range ({num_cols} cols)"
            );
            assert!(
                (d as usize) < num_rows,
                "destination {d} out of range ({num_rows} rows)"
            );
            counts[d as usize] += 1;
        }
        let mut indptr = vec![0usize; num_rows + 1];
        for i in 0..num_rows {
            indptr[i + 1] = indptr[i] + counts[i];
        }
        let mut indices = vec![0u32; edges.len()];
        let mut cursor = indptr.clone();
        for &(s, d) in edges {
            indices[cursor[d as usize]] = s;
            cursor[d as usize] += 1;
        }
        for i in 0..num_rows {
            indices[indptr[i]..indptr[i + 1]].sort_unstable();
        }
        Self {
            num_rows,
            num_cols,
            indptr,
            indices,
            rev: RevCache::default(),
        }
    }

    /// Builds directly from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (wrong `indptr` length,
    /// non-monotone `indptr`, or out-of-range indices).
    pub fn from_raw(num_cols: usize, indptr: Vec<usize>, indices: Vec<u32>) -> Self {
        assert!(!indptr.is_empty(), "indptr must have at least one entry");
        let num_rows = indptr.len() - 1;
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr/indices mismatch"
        );
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be monotone"
        );
        assert!(
            indices.iter().all(|&j| (j as usize) < num_cols),
            "column index out of range"
        );
        Self {
            num_rows,
            num_cols,
            indptr,
            indices,
            rev: RevCache::default(),
        }
    }

    /// Number of destination (row) nodes.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of source (column) nodes.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of nodes of a square graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is bipartite with `num_rows != num_cols`.
    pub fn num_nodes(&self) -> usize {
        assert_eq!(
            self.num_rows, self.num_cols,
            "num_nodes() on a bipartite block; use num_rows/num_cols"
        );
        self.num_rows
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Sources of the edges into destination `i`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// In-degree of destination `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn in_degree(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// In-degrees of all destinations as `f32` (convenient for
    /// normalization tensors).
    pub fn in_degrees(&self) -> Vec<f32> {
        (0..self.num_rows)
            .map(|i| self.in_degree(i) as f32)
            .collect()
    }

    /// Out-degrees of all source nodes.
    pub fn out_degrees(&self) -> Vec<f32> {
        let mut deg = vec![0f32; self.num_cols];
        for &j in &self.indices {
            deg[j as usize] += 1.0;
        }
        deg
    }

    /// Raw `indptr` array (length `num_rows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw column-index array, grouped by row.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Iterates all edges as `(src, dst)` pairs.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_rows).flat_map(move |i| self.neighbors(i).iter().map(move |&j| (j, i as u32)))
    }

    /// The reverse graph: edge `j → i` becomes `i → j`. For a square graph
    /// this swaps in- and out-adjacency.
    pub fn reverse(&self) -> CsrGraph {
        let edges: Vec<(u32, u32)> = self.iter_edges().map(|(s, d)| (d, s)).collect();
        CsrGraph::from_edges_bipartite(self.num_rows, self.num_cols, &edges)
    }

    /// Returns a square graph with both edge directions present and
    /// duplicate edges removed (self-loops are kept as-is, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if the graph is bipartite.
    pub fn symmetrize(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(self.num_edges() * 2);
        for (s, d) in self.iter_edges() {
            edges.push((s, d));
            edges.push((d, s));
        }
        edges.sort_unstable();
        edges.dedup();
        CsrGraph::from_edges(n, &edges)
    }

    /// Returns a square graph with a self-loop added to every node that
    /// lacks one (so every node aggregates at least itself).
    ///
    /// # Panics
    ///
    /// Panics if the graph is bipartite.
    pub fn with_self_loops(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut edges: Vec<(u32, u32)> = self.iter_edges().collect();
        for i in 0..n as u32 {
            if !self.neighbors(i as usize).contains(&i) {
                edges.push((i, i));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// `true` if for every edge `j → i` the edge `i → j` also exists.
    ///
    /// # Panics
    ///
    /// Panics if the graph is bipartite.
    pub fn is_symmetric(&self) -> bool {
        let _ = self.num_nodes();
        self.iter_edges()
            .all(|(s, d)| self.neighbors(s as usize).binary_search(&d).is_ok())
    }

    /// `true` if node `i` has no incoming edges.
    pub fn is_isolated_row(&self, i: usize) -> bool {
        self.in_degree(i) == 0
    }

    /// The source-major [`ReverseIndex`] of this graph, preserving CSR
    /// edge ids; built by one O(E) counting sort on first use and kept for
    /// the graph's lifetime, so the backward kernels of every layer and
    /// epoch share it. Unlike [`CsrGraph::reverse`] (which rebuilds a CSR
    /// and forgets which original edge each entry came from), the reverse
    /// index keeps, for every source column `j`, its edges **ascending by
    /// CSR edge id** — the order the destination-major kernels visit
    /// them. Scatter-style backward kernels parallelize over sources with
    /// it while reproducing the sequential accumulation order bit for
    /// bit.
    pub fn reverse_index(&self) -> &ReverseIndex {
        self.rev.0.get_or_init(|| self.build_reverse_index())
    }

    /// Iterates destination `i`'s in-edges as `(source column, CSR edge
    /// id)`, ascending by edge id — the destination-major mirror of
    /// [`ReverseIndex::entries`].
    pub(crate) fn entries(&self, i: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        self.indices[lo..hi]
            .iter()
            .zip(lo..hi)
            .map(|(&j, e)| (j as usize, e))
    }

    /// The graph's own destination-major arrays as a walkable adjacency:
    /// rows are destinations, neighbours are sources, and an entry's
    /// position is its edge id.
    pub(crate) fn adjacency(&self) -> Adjacency<'_> {
        Adjacency {
            ptr: &self.indptr,
            nbr: &self.indices,
            eid: None,
            others: self.num_cols,
        }
    }

    /// The [`ReverseIndex`] as a walkable adjacency: rows are sources,
    /// neighbours are destinations, entries ascend by edge id.
    pub(crate) fn reverse_adjacency(&self) -> Adjacency<'_> {
        let rev = self.reverse_index();
        Adjacency {
            ptr: &rev.indptr,
            nbr: &rev.dst,
            eid: Some(&rev.edge),
            others: self.num_rows,
        }
    }

    fn build_reverse_index(&self) -> ReverseIndex {
        let e_count = self.num_edges();
        let mut indptr = vec![0usize; self.num_cols + 1];
        for &j in &self.indices {
            indptr[j as usize + 1] += 1;
        }
        for k in 1..indptr.len() {
            indptr[k] += indptr[k - 1];
        }
        let mut cursor = indptr[..self.num_cols].to_vec();
        let mut dst = vec![0u32; e_count];
        let mut edge = vec![0u32; e_count];
        // Global edge ids ascend here, so each source's slice is filled in
        // ascending edge-id order.
        for i in 0..self.num_rows {
            for e in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[e] as usize;
                let pos = cursor[j];
                cursor[j] += 1;
                dst[pos] = i as u32;
                edge[pos] = e as u32;
            }
        }
        ReverseIndex { indptr, dst, edge }
    }
}

/// Source-major companion of a [`CsrGraph`]: for every source column `j`,
/// the destinations and **original CSR edge ids** of its outgoing edges,
/// ascending by edge id. See [`CsrGraph::reverse_index`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReverseIndex {
    indptr: Vec<usize>,
    dst: Vec<u32>,
    edge: Vec<u32>,
}

impl ReverseIndex {
    /// Number of source columns indexed.
    pub fn num_sources(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Out-degree of source `j`.
    pub fn out_degree(&self, j: usize) -> usize {
        self.indptr[j + 1] - self.indptr[j]
    }

    /// Iterates source `j`'s edges as `(destination row, CSR edge id)`,
    /// ascending by edge id.
    pub fn entries(&self, j: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (lo, hi) = (self.indptr[j], self.indptr[j + 1]);
        self.dst[lo..hi]
            .iter()
            .zip(&self.edge[lo..hi])
            .map(|(&i, &e)| (i as usize, e as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn builds_and_indexes() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(3), &[1, 2]);
        assert_eq!(g.neighbors(0), &[] as &[u32]);
        assert!(g.is_isolated_row(0));
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![0., 1., 1., 2.]);
        assert_eq!(g.out_degrees(), vec![2., 1., 1., 0.]);
    }

    #[test]
    fn reverse_swaps_directions() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.neighbors(0), &[1, 2]);
        assert_eq!(r.neighbors(3), &[] as &[u32]);
        assert_eq!(r.reverse(), g);
    }

    #[test]
    fn reverse_index_is_built_once_and_is_not_part_of_identity() {
        let g = diamond();
        let untouched = g.clone();
        let rev = g.reverse_index();
        assert!(
            std::ptr::eq(rev, g.reverse_index()),
            "second call rebuilt it"
        );
        assert_eq!(rev.entries(0).collect::<Vec<_>>(), vec![(1, 0), (2, 1)]);
        // A graph that has built its index still equals, and prints like,
        // one that has not; a clone builds its own.
        assert_eq!(g, untouched);
        assert_eq!(format!("{g:?}"), format!("{untouched:?}"));
        let copy = g.clone();
        assert!(!std::ptr::eq(copy.reverse_index(), rev));
        assert_eq!(copy.reverse_index(), rev);
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let g = diamond();
        let s = g.symmetrize();
        assert!(s.is_symmetric());
        assert_eq!(s.num_edges(), 8);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn self_loops_added_once() {
        let g = CsrGraph::from_edges(3, &[(0, 0), (1, 2)]);
        let s = g.with_self_loops();
        assert_eq!(s.num_edges(), 4); // existing loop on 0 kept, loops added to 1 and 2
        for i in 0..3 {
            assert!(s.neighbors(i).contains(&(i as u32)));
        }
    }

    #[test]
    fn bipartite_blocks() {
        // 5 source columns, 2 destination rows.
        let g = CsrGraph::from_edges_bipartite(5, 2, &[(4, 0), (1, 0), (3, 1)]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.num_cols(), 5);
        assert_eq!(g.neighbors(0), &[1, 4]);
    }

    #[test]
    fn iter_edges_round_trips() {
        let g = diamond();
        let edges: Vec<_> = g.iter_edges().collect();
        let g2 = CsrGraph::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn from_raw_validates() {
        let g = CsrGraph::from_raw(3, vec![0, 1, 3], vec![2, 0, 1]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.neighbors(1), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_raw_rejects_bad_indptr() {
        let _ = CsrGraph::from_raw(3, vec![0, 3, 2], vec![0, 1]);
    }
}
