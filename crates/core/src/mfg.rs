//! Message-flow-graph (MFG) slicing: per-layer bipartite restrictions of a
//! [`DistGraph`] to the K-hop neighborhood of a query set.
//!
//! Full-batch training computes every layer over every local node. A
//! serving request for a handful of nodes only needs the query rows at the
//! last layer, their in-neighbors at the layer below, and so on — the
//! query set's message-flow graph. This module computes the *local* piece
//! of that restriction for one worker: given the destination rows a layer
//! must produce, [`slice_layer`] extracts, per peer block `G_{p,q}`, the
//! referenced source columns and a compacted bipartite sub-CSR over them.
//!
//! Column compaction is **monotone** (referenced columns keep their
//! relative order), and every aggregation kernel in `sar-graph`
//! accumulates per destination row in ascending-column order, so running
//! the standard kernels over these slices is bitwise identical to the
//! corresponding rows of a full-graph forward — the invariant the serve
//! parity tests pin down.
//!
//! The *distributed* part of MFG construction — exchanging per-peer row
//! requests so each worker learns which rows it must serve — lives in the
//! serving tier (`sar-serve`); this module is pure and comm-free.

use sar_comm::WIRE_HEADER_LEN;
use sar_graph::CsrGraph;

use crate::{DistGraph, ShardView};

/// One layer's local MFG restriction for one worker.
///
/// All row/column lists are ascending; `blocks[q]` is bipartite with
/// `req_cols[q].len()` columns and `dst_rows.len()` rows, edges renumbered
/// through both compactions.
#[derive(Debug, Clone)]
pub struct LayerSlice {
    /// Local rows this worker computes at this layer, ascending.
    pub dst_rows: Vec<u32>,
    /// Per peer `q`: referenced compact columns of `block(q)`, ascending.
    /// Because compact columns follow `needed_from(q)` order (sorted
    /// `q`-local rows), ascending columns are ascending `q`-local rows.
    pub req_cols: Vec<Vec<u32>>,
    /// Per peer `q`: the same columns as `q`-local row indices
    /// (`needed_from(q)[c]`) — the request list shipped to `q`, and the
    /// gather order `q` serves them back in.
    pub req_rows: Vec<Vec<u32>>,
    /// Per peer `q`: the restricted bipartite block.
    pub blocks: Vec<CsrGraph>,
}

impl LayerSlice {
    /// Bytes this worker receives fetching the slice's remote rows over a
    /// `cols`-wide feature tensor: the MFG analogue of
    /// [`DistGraph::predicted_fetch_bytes`]. Peers with an empty request
    /// still cost one framed (empty) message, mirroring the rotation.
    pub fn predicted_fetch_bytes(&self, rank: usize, cols: usize) -> u64 {
        let remote_rows: usize = self
            .req_rows
            .iter()
            .enumerate()
            .filter(|&(q, _)| q != rank)
            .map(|(_, r)| r.len())
            .sum();
        (remote_rows * cols * 4 + (self.req_rows.len() - 1) * WIRE_HEADER_LEN) as u64
    }
}

/// Restricts one layer of `g` to the given destination rows.
///
/// `dst_rows` must be ascending, distinct, and in `0..g.num_local()`.
/// For each peer `q` the result keeps exactly the edges of `block(q)`
/// that land in `dst_rows`, with source columns compacted to the
/// referenced set (ascending, order-preserving).
///
/// # Panics
///
/// Panics if a destination row is out of range.
pub fn slice_layer(g: &DistGraph, dst_rows: &[u32]) -> LayerSlice {
    debug_assert!(dst_rows.windows(2).all(|w| w[0] < w[1]));
    let world = g.world();
    let mut req_cols = Vec::with_capacity(world);
    let mut req_rows = Vec::with_capacity(world);
    let mut blocks = Vec::with_capacity(world);
    for q in 0..world {
        let block = g.block(q);
        let ncols = block.num_cols();
        let mut used = vec![false; ncols];
        for &d in dst_rows {
            for &c in block.neighbors(d as usize) {
                used[c as usize] = true;
            }
        }
        // Monotone compaction: referenced columns in ascending order.
        let mut colmap = vec![u32::MAX; ncols];
        let mut cols = Vec::new();
        for (c, &u) in used.iter().enumerate() {
            if u {
                colmap[c] = cols.len() as u32;
                cols.push(c as u32);
            }
        }
        let needed = g.needed_from(q);
        let rows: Vec<u32> = cols.iter().map(|&c| needed[c as usize]).collect();
        let mut edges = Vec::new();
        for (di, &d) in dst_rows.iter().enumerate() {
            for &c in block.neighbors(d as usize) {
                edges.push((colmap[c as usize], di as u32));
            }
        }
        blocks.push(CsrGraph::from_edges_bipartite(
            cols.len(),
            dst_rows.len(),
            &edges,
        ));
        req_cols.push(cols);
        req_rows.push(rows);
    }
    LayerSlice {
        dst_rows: dst_rows.to_vec(),
        req_cols,
        req_rows,
        blocks,
    }
}

/// The local rows whose *previous-layer* activations this worker needs to
/// run `slice`: the slice's destination rows (residual / attention-dst
/// paths read them directly), the local block's source rows, and every row
/// a peer has requested (`serve_rows[q]`, from the distributed exchange).
/// Returned ascending and distinct — the next (shallower) layer's
/// activation row set `H_{i-1}`.
pub fn expand_inputs(g: &DistGraph, slice: &LayerSlice, serve_rows: &[Vec<u32>]) -> Vec<u32> {
    let mut rows: Vec<u32> = slice.dst_rows.clone();
    rows.extend_from_slice(&slice.req_rows[g.rank()]);
    for served in serve_rows {
        rows.extend_from_slice(served);
    }
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// One MFG level as a [`ShardView`]: a [`LayerSlice`] plus the rows peers
/// requested of this worker, every local row re-indexed into the level's
/// packed input activation matrix — so the same walker, router and layer
/// math that run the full graph run the level. That includes the local
/// block's columns, widened from the compact `req_rows[rank]` space to
/// the input matrix's rows: monotone (both lists ascend), so each row's
/// ascending-column order — and every accumulated bit — is unchanged.
#[derive(Debug, Clone)]
pub struct LevelView {
    rank: usize,
    slice: LayerSlice,
    serve_rows: Vec<Vec<u32>>,
    dst_map: Vec<u32>,
    in_degree: Vec<f32>,
}

impl LevelView {
    /// Binds `slice` and the exchanged `serve_rows` to the level's input
    /// row set: `input_rows` are the ascending local rows whose
    /// activations the packed input matrix carries (the
    /// [`expand_inputs`] of this level).
    ///
    /// # Errors
    ///
    /// The first local row the level references that `input_rows` lacks.
    pub fn new(
        g: &DistGraph,
        mut slice: LayerSlice,
        serve_rows: &[Vec<u32>],
        input_rows: &[u32],
    ) -> Result<LevelView, u32> {
        let pos = |rows: &[u32]| -> Result<Vec<u32>, u32> {
            rows.iter()
                .map(|r| {
                    input_rows
                        .binary_search(r)
                        .map(|i| i as u32)
                        .map_err(|_| *r)
                })
                .collect()
        };
        let degree = g.global_in_degree();
        let input_of = pos(&slice.req_rows[g.rank()])?;
        let local = &mut slice.blocks[g.rank()];
        let widened = local.indices().iter().map(|&c| input_of[c as usize]);
        *local = CsrGraph::from_raw(input_rows.len(), local.indptr().to_vec(), widened.collect());
        Ok(LevelView {
            rank: g.rank(),
            serve_rows: serve_rows
                .iter()
                .map(|r| pos(r))
                .collect::<Result<_, _>>()?,
            dst_map: pos(&slice.dst_rows)?,
            in_degree: input_rows.iter().map(|&r| degree[r as usize]).collect(),
            slice,
        })
    }

    /// The layer restriction this view walks (its local block with the
    /// view's `num_inputs` columns, every other field as sliced).
    pub fn slice(&self) -> &LayerSlice {
        &self.slice
    }
}

impl ShardView for LevelView {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.slice.blocks.len()
    }

    fn num_inputs(&self) -> usize {
        self.in_degree.len()
    }

    fn num_dst(&self) -> usize {
        self.dst_map.len()
    }

    fn block(&self, q: usize) -> &CsrGraph {
        &self.slice.blocks[q]
    }

    fn serve_rows(&self, q: usize) -> &[u32] {
        &self.serve_rows[q]
    }

    fn dst_map(&self) -> Option<&[u32]> {
        Some(&self.dst_map)
    }

    fn in_degree(&self) -> &[f32] {
        &self.in_degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sar_graph::generators::erdos_renyi;
    use sar_graph::ops;
    use sar_partition::random;
    use sar_tensor::{init, Tensor};

    fn setup(seed: u64) -> (sar_graph::CsrGraph, Vec<DistGraph>) {
        let g = erdos_renyi(80, 400, &mut StdRng::seed_from_u64(seed)).symmetrize();
        let p = random(&g, 3, seed);
        let d = DistGraph::build_all(&g, &p);
        (g, d)
    }

    #[test]
    fn full_row_slice_reproduces_the_blocks() {
        let (_, shards) = setup(0);
        for s in &shards {
            let all: Vec<u32> = (0..s.num_local() as u32).collect();
            let slice = slice_layer(s, &all);
            for q in 0..s.world() {
                // The local block has a column for every local node; the
                // slice keeps the ones an edge references.
                let mut referenced = s.block(q).indices().to_vec();
                referenced.sort_unstable();
                referenced.dedup();
                assert_eq!(slice.req_cols[q], referenced);
                if q != s.rank() {
                    assert_eq!(slice.req_rows[q], s.needed_from(q));
                }
                assert_eq!(slice.blocks[q].num_edges(), s.block(q).num_edges());
            }
        }
    }

    #[test]
    fn sliced_aggregation_matches_full_rows_bitwise() {
        let (_, shards) = setup(1);
        let f = 6;
        for s in &shards {
            let n_needed: usize = (0..s.world()).map(|q| s.needed_from(q).len()).sum();
            let mut rng = StdRng::seed_from_u64(7);
            // One source matrix per peer block, in needed_from order —
            // stand-ins for the fetched feature payloads.
            let mut feats = Vec::new();
            for q in 0..s.world() {
                feats.push(init::randn(&[s.needed_from(q).len(), f], 1.0, &mut rng));
            }
            let _ = n_needed;
            // Full aggregation over every local row.
            let mut full = Tensor::zeros(&[s.num_local(), f]);
            for (q, fq) in feats.iter().enumerate() {
                ops::spmm_sum_into(s.block(q), fq, &mut full);
            }
            // Sliced aggregation over a scattered subset.
            let dst: Vec<u32> = (0..s.num_local() as u32).step_by(3).collect();
            let slice = slice_layer(s, &dst);
            let mut sub = Tensor::zeros(&[dst.len(), f]);
            for (q, fq) in feats.iter().enumerate() {
                let cols: &[u32] = &slice.req_cols[q];
                let gathered = fq.gather_rows(cols);
                ops::spmm_sum_into(&slice.blocks[q], &gathered, &mut sub);
            }
            for (i, &d) in dst.iter().enumerate() {
                for j in 0..f {
                    assert_eq!(
                        sub.row(i)[j].to_bits(),
                        full.row(d as usize)[j].to_bits(),
                        "row {d} col {j}"
                    );
                }
            }
        }
    }

    /// The view's local block reads the packed input matrix directly:
    /// `num_inputs` columns, and the same bits as gathering the rows the
    /// compact slice block names and aggregating over that.
    #[test]
    fn level_view_local_block_equals_gather_then_compact_block_bitwise() {
        use rand::Rng;
        let (_, shards) = setup(4);
        let f = 5;
        let mut rng = StdRng::seed_from_u64(11);
        for s in &shards {
            let p = s.rank();
            for _ in 0..8 {
                let mut query = |frac: f64| -> Vec<u32> {
                    (0..s.num_local() as u32)
                        .filter(|_| rng.random_bool(frac))
                        .collect()
                };
                let dst = query(0.3);
                let serve: Vec<Vec<u32>> = (0..s.world())
                    .map(|q| if q == p { Vec::new() } else { query(0.1) })
                    .collect();
                let slice = slice_layer(s, &dst);
                let inputs = expand_inputs(s, &slice, &serve);
                let view = LevelView::new(s, slice.clone(), &serve, &inputs).unwrap();
                assert_eq!(view.block(p).num_cols(), view.num_inputs());
                assert_eq!(view.expected_rows(p), inputs.len());

                let h = init::randn(&[inputs.len(), f], 1.0, &mut rng);
                let mut direct = Tensor::ones(&[dst.len(), f]);
                ops::spmm_sum_into(view.block(p), &h, &mut direct);

                let at: Vec<u32> = slice.req_rows[p]
                    .iter()
                    .map(|r| inputs.binary_search(r).unwrap() as u32)
                    .collect();
                let mut gathered = Tensor::ones(&[dst.len(), f]);
                ops::spmm_sum_into(&slice.blocks[p], &h.gather_rows(&at), &mut gathered);
                let bits =
                    |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
                assert_eq!(bits(&direct), bits(&gathered), "rank {p}");
            }
        }
    }

    #[test]
    fn expand_inputs_unions_and_sorts() {
        let (_, shards) = setup(2);
        let s = &shards[0];
        let dst: Vec<u32> = vec![0, 2];
        let slice = slice_layer(s, &dst);
        let serve = vec![vec![1u32, 5], vec![2u32]];
        let rows = expand_inputs(s, &slice, &serve);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        for d in &dst {
            assert!(rows.binary_search(d).is_ok());
        }
        assert!(rows.binary_search(&5).is_ok());
    }

    #[test]
    fn predicted_fetch_bytes_counts_remote_rows_and_headers() {
        let (_, shards) = setup(3);
        let s = &shards[1];
        let dst: Vec<u32> = (0..s.num_local() as u32 / 2).collect();
        let slice = slice_layer(s, &dst);
        let remote: usize = (0..s.world())
            .filter(|&q| q != s.rank())
            .map(|q| slice.req_rows[q].len())
            .sum();
        assert_eq!(
            slice.predicted_fetch_bytes(s.rank(), 10),
            (remote * 40 + 2 * WIRE_HEADER_LEN) as u64
        );
    }
}
