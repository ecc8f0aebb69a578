//! Partition-local graph structures: the per-worker view SAR operates on.
//!
//! For worker `p`, SAR needs the sub-blocks `G_{p,q}` (edges from partition
//! `q` into partition `p`, §3.2 of the paper), the list of `q`-local node
//! indices whose features `p` must fetch (`needed_from`), and the inverse
//! lists of `p`-local nodes each peer will fetch (`serves_to`). All of it
//! is derived once, centrally, by [`DistGraph::build_all`] before the
//! cluster starts — mirroring the paper's METIS preprocessing step.

use std::sync::Arc;

use sar_comm::WIRE_HEADER_LEN;
use sar_graph::CsrGraph;
use sar_partition::Partitioning;

/// Worker `p`'s partition-local view of the distributed graph.
///
/// Block `q` has one column per entry of
/// [`needed_from`](DistGraph::needed_from): for a remote `q` the distinct
/// `q`-nodes `p` needs, *compacted*, so a fetched feature payload is
/// directly the block's source-feature matrix; for `q = p` every local
/// node, so the worker's own resident features are.
#[derive(Debug, Clone)]
pub struct DistGraph {
    rank: usize,
    world: usize,
    local_nodes: Vec<u32>,
    blocks: Vec<CsrGraph>,
    needed_from: Vec<Vec<u32>>,
    serves_to: Vec<Vec<u32>>,
    global_in_degree: Vec<f32>,
    halo_graph: Arc<CsrGraph>,
    halo_offsets: Vec<usize>,
}

impl DistGraph {
    /// Builds every worker's [`DistGraph`] from the full graph and a
    /// partitioning.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the node count.
    pub fn build_all(graph: &CsrGraph, partitioning: &Partitioning) -> Vec<DistGraph> {
        let n = graph.num_nodes();
        assert_eq!(
            partitioning.assignment().len(),
            n,
            "partitioning does not cover the graph"
        );
        let world = partitioning.num_parts();

        let members = partitioning.part_members();
        // Global id -> owner.
        let owner = partitioning.assignment();

        // needed_from[p][q]: sorted distinct q-local sources feeding p;
        // for q == p every local node, referenced or not — round p reads
        // the resident tensor itself, which has a row for each. A source is
        // marked `p + 1` once some row of p reads it; walking q's members
        // in order then lists the marked ones ascending.
        let mut mark = vec![0u32; n];
        let needed_from: Vec<Vec<Vec<u32>>> = (0..world)
            .map(|p| {
                let tag = p as u32 + 1;
                for &d in &members[p] {
                    for &s in graph.neighbors(d as usize) {
                        mark[s as usize] = tag;
                    }
                }
                (0..world)
                    .map(|q| {
                        if q == p {
                            return (0..members[p].len() as u32).collect();
                        }
                        (0u32..)
                            .zip(&members[q])
                            .filter(|&(_, &g)| mark[g as usize] == tag)
                            .map(|(li, _)| li)
                            .collect()
                    })
                    .collect()
            })
            .collect();

        // Global id -> column in the block of its owner, for the rank being
        // built: the source's position in that rank's `needed_from`.
        let mut slot = vec![0u32; n];
        let mut scratch = Vec::new();
        (0..world)
            .map(|p| {
                let n_local = members[p].len();
                for (q, needed) in needed_from[p].iter().enumerate() {
                    for (col, &li) in (0u32..).zip(needed) {
                        slot[members[q][li as usize] as usize] = col;
                    }
                }
                // One walk over p's rows fills every block. Members and
                // `needed_from` both ascend with the global id, so each
                // sorted row yields sorted columns in every block.
                let mut ptrs: Vec<Vec<usize>> = vec![vec![0]; world];
                let mut cols: Vec<Vec<u32>> = vec![Vec::new(); world];
                for &d in &members[p] {
                    for &s in graph.sorted_neighbors(d as usize, &mut scratch) {
                        cols[owner[s as usize] as usize].push(slot[s as usize]);
                    }
                    for (ptr, c) in ptrs.iter_mut().zip(&cols) {
                        ptr.push(c.len());
                    }
                }
                let mut halo_offsets = Vec::with_capacity(world);
                let mut halo_cols = 0usize;
                for needed in &needed_from[p] {
                    halo_offsets.push(halo_cols);
                    halo_cols += needed.len();
                }
                // Halo row i: block 0's row i, then block 1's, each shifted
                // to its partition's section — sorted because sections are.
                let mut halo_ptr = Vec::with_capacity(n_local + 1);
                halo_ptr.push(0);
                let mut halo_idx = Vec::with_capacity(cols.iter().map(Vec::len).sum());
                for i in 0..n_local {
                    for q in 0..world {
                        let off = halo_offsets[q] as u32;
                        let row = &cols[q][ptrs[q][i]..ptrs[q][i + 1]];
                        halo_idx.extend(row.iter().map(|&c| off + c));
                    }
                    halo_ptr.push(halo_idx.len());
                }
                let halo_graph = Arc::new(CsrGraph::from_raw(halo_cols, halo_ptr, halo_idx));
                let blocks: Vec<CsrGraph> = ptrs
                    .into_iter()
                    .zip(cols)
                    .zip(&needed_from[p])
                    .map(|((ptr, idx), needed)| CsrGraph::from_raw(needed.len(), ptr, idx))
                    .collect();
                let serves_to: Vec<Vec<u32>> =
                    (0..world).map(|q| needed_from[q][p].clone()).collect();
                let global_in_degree = members[p]
                    .iter()
                    .map(|&g| graph.in_degree(g as usize) as f32)
                    .collect();
                DistGraph {
                    rank: p,
                    world,
                    local_nodes: members[p].clone(),
                    blocks,
                    needed_from: needed_from[p].clone(),
                    serves_to,
                    global_in_degree,
                    halo_graph,
                    halo_offsets,
                }
            })
            .collect()
    }

    /// This shard's worker rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of partitions.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Number of nodes owned by this worker.
    pub fn num_local(&self) -> usize {
        self.local_nodes.len()
    }

    /// Global ids of the nodes owned by this worker, ascending.
    pub fn local_nodes(&self) -> &[u32] {
        &self.local_nodes
    }

    /// The bipartite block `G_{p,q}`: edges from partition `q` into this
    /// partition, one column per entry of `needed_from(q)`.
    pub fn block(&self, q: usize) -> &CsrGraph {
        &self.blocks[q]
    }

    /// `q`-local indices of the nodes this worker fetches from `q`
    /// (for `q == rank`: every local node, `0..num_local`).
    pub fn needed_from(&self, q: usize) -> &[u32] {
        &self.needed_from[q]
    }

    /// This worker's local indices that worker `q` fetches.
    pub fn serves_to(&self, q: usize) -> &[u32] {
        &self.serves_to[q]
    }

    /// In-degree of each local node in the *full* graph — the `|N(i)|`
    /// normalizer of Eq. 2 (block-local degrees would be wrong).
    pub fn global_in_degree(&self) -> &[f32] {
        &self.global_in_degree
    }

    /// The concatenated halo graph used by domain-parallel training: all
    /// blocks side by side, columns ordered by partition then by
    /// `needed_from` position.
    pub fn halo_graph(&self) -> &Arc<CsrGraph> {
        &self.halo_graph
    }

    /// Column offset of partition `q`'s section in the halo graph.
    pub fn halo_offset(&self, q: usize) -> usize {
        self.halo_offsets[q]
    }

    /// Total features this worker fetches from remote peers per layer (in
    /// node rows) — the per-layer communication volume driver.
    pub fn remote_fetch_rows(&self) -> usize {
        (0..self.world)
            .filter(|&q| q != self.rank)
            .map(|q| self.needed_from[q].len())
            .sum()
    }

    /// Total rows this worker serves to remote peers per rotation — the
    /// dual of [`DistGraph::remote_fetch_rows`] (equal for undirected
    /// graphs, where `needed_from` and `serves_to` are transposes).
    pub fn remote_serve_rows(&self) -> usize {
        (0..self.world)
            .filter(|&q| q != self.rank)
            .map(|q| self.serves_to[q].len())
            .sum()
    }

    /// Bytes this worker *receives* during one Algorithm-1 rotation over a
    /// `[n_local, cols]` feature tensor: 4-byte floats plus one framed
    /// wire header per remote peer (the rotation exchanges exactly one
    /// message per peer). The observability ledger's `ForwardFetch` (and,
    /// for attention layers, each `BackwardRefetch`) received volume must
    /// match this exactly, on *both* transport backends — the cross-check
    /// wired into `crates/core/tests/observability.rs`.
    pub fn predicted_fetch_bytes(&self, cols: usize) -> u64 {
        (self.remote_fetch_rows() * cols * 4 + (self.world - 1) * WIRE_HEADER_LEN) as u64
    }

    /// Bytes this worker *receives* while peers route error blocks back
    /// over a `[n_local, cols]` gradient (Algorithm 2's `E_p = Σ_q
    /// E_{q→p}` step): one row per served node, one message (and wire
    /// header) per remote peer.
    pub fn predicted_grad_route_bytes(&self, cols: usize) -> u64 {
        (self.remote_serve_rows() * cols * 4 + (self.world - 1) * WIRE_HEADER_LEN) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sar_graph::generators::erdos_renyi;
    use sar_graph::ops;
    use sar_partition::{random, Partitioning};
    use sar_tensor::{init, Tensor};

    fn setup(n: usize, m: usize, k: usize, seed: u64) -> (CsrGraph, Partitioning, Vec<DistGraph>) {
        let g = erdos_renyi(n, m, &mut StdRng::seed_from_u64(seed)).symmetrize();
        let p = random(&g, k, seed);
        let d = DistGraph::build_all(&g, &p);
        (g, p, d)
    }

    /// The build as it was before it walked rows: edges bucketed per
    /// (p, q), sources binary-searched in `needed_from`, every block
    /// sorted by `from_edges_bipartite`.
    fn build_all_bucketed(graph: &CsrGraph, partitioning: &Partitioning) -> Vec<DistGraph> {
        let n = graph.num_nodes();
        assert_eq!(
            partitioning.assignment().len(),
            n,
            "partitioning does not cover the graph"
        );
        let world = partitioning.num_parts();

        // Global id -> (owner, local index).
        let members = partitioning.part_members();
        let mut owner = vec![0u32; n];
        let mut local_idx = vec![0u32; n];
        for (p, nodes) in members.iter().enumerate() {
            for (li, &g) in nodes.iter().enumerate() {
                owner[g as usize] = p as u32;
                local_idx[g as usize] = li as u32;
            }
        }

        // Bucket edges by (dst_part, src_part), in local coordinates.
        let mut buckets: Vec<Vec<Vec<(u32, u32)>>> = vec![vec![Vec::new(); world]; world];
        for (s, d) in graph.iter_edges() {
            let p = owner[d as usize] as usize;
            let q = owner[s as usize] as usize;
            buckets[p][q].push((local_idx[s as usize], local_idx[d as usize]));
        }

        // needed_from[p][q]: sorted distinct q-local sources feeding p;
        // for q == p every local node, referenced or not — round p reads
        // the resident tensor itself, which has a row for each.
        let mut needed_from: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); world]; world];
        for p in 0..world {
            for q in 0..world {
                if q == p {
                    needed_from[p][q] = (0..members[p].len() as u32).collect();
                    continue;
                }
                let mut srcs: Vec<u32> = buckets[p][q].iter().map(|&(s, _)| s).collect();
                srcs.sort_unstable();
                srcs.dedup();
                needed_from[p][q] = srcs;
            }
        }

        (0..world)
            .map(|p| {
                let n_local = members[p].len();
                let mut blocks = Vec::with_capacity(world);
                let mut halo_edges: Vec<(u32, u32)> = Vec::new();
                let mut halo_offsets = Vec::with_capacity(world);
                let mut halo_cols = 0usize;
                for q in 0..world {
                    let needed = &needed_from[p][q];
                    // Compact block columns: position within `needed`.
                    let edges: Vec<(u32, u32)> = buckets[p][q]
                        .iter()
                        .map(|&(s, d)| {
                            let col = needed
                                .binary_search(&s)
                                .expect("needed list covers sources")
                                as u32;
                            (col, d)
                        })
                        .collect();
                    halo_offsets.push(halo_cols);
                    for &(c, d) in &edges {
                        halo_edges.push((halo_cols as u32 + c, d));
                    }
                    halo_cols += needed.len();
                    blocks.push(CsrGraph::from_edges_bipartite(
                        needed.len(),
                        n_local,
                        &edges,
                    ));
                }
                let halo_graph = Arc::new(CsrGraph::from_edges_bipartite(
                    halo_cols,
                    n_local,
                    &halo_edges,
                ));
                let serves_to: Vec<Vec<u32>> =
                    (0..world).map(|q| needed_from[q][p].clone()).collect();
                let global_in_degree = members[p]
                    .iter()
                    .map(|&g| graph.in_degree(g as usize) as f32)
                    .collect();
                DistGraph {
                    rank: p,
                    world,
                    local_nodes: members[p].clone(),
                    blocks,
                    needed_from: needed_from[p].clone(),
                    serves_to,
                    global_in_degree,
                    halo_graph,
                    halo_offsets,
                }
            })
            .collect()
    }

    fn assert_same(a: &DistGraph, b: &DistGraph) {
        assert_eq!((a.rank, a.world), (b.rank, b.world));
        assert_eq!(a.local_nodes, b.local_nodes);
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.needed_from, b.needed_from);
        assert_eq!(a.serves_to, b.serves_to);
        assert_eq!(a.global_in_degree, b.global_in_degree);
        assert_eq!(a.halo_graph, b.halo_graph);
        assert_eq!(a.halo_offsets, b.halo_offsets);
    }

    #[test]
    fn row_walk_build_equals_bucketed_build() {
        let mut rng = StdRng::seed_from_u64(9);
        // Directed, with parallel edges, self-loops, and nodes that send or
        // receive nothing; then the same graph with every row reversed.
        let mut edges: Vec<(u32, u32)> = erdos_renyi(70, 300, &mut rng).iter_edges().collect();
        edges.extend([(3, 3), (5, 9), (5, 9), (9, 9), (60, 2)]);
        edges.retain(|&(s, d)| s < 65 && d % 7 != 6);
        let directed = CsrGraph::from_edges(70, &edges);
        let reversed_rows = CsrGraph::from_raw(
            70,
            directed.indptr().to_vec(),
            (0..70)
                .flat_map(|i| directed.neighbors(i).iter().rev().copied())
                .collect(),
        );
        let graphs = [
            erdos_renyi(90, 500, &mut rng)
                .symmetrize()
                .with_self_loops(),
            directed,
            reversed_rows,
        ];
        for g in &graphs {
            for world in 1..=4 {
                for part in [
                    random(g, world, world as u64),
                    sar_partition::range(g, world),
                    sar_partition::multilevel(g, world, 1),
                ] {
                    let new = DistGraph::build_all(g, &part);
                    let old = build_all_bucketed(g, &part);
                    assert_eq!(new.len(), world);
                    for (a, b) in new.iter().zip(&old) {
                        assert_same(a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn shards_cover_all_nodes_and_edges() {
        let (g, _, shards) = setup(100, 600, 4, 0);
        let total_nodes: usize = shards.iter().map(DistGraph::num_local).sum();
        assert_eq!(total_nodes, 100);
        let total_edges: usize = shards
            .iter()
            .flat_map(|s| (0..4).map(move |q| s.block(q).num_edges()))
            .sum();
        assert_eq!(total_edges, g.num_edges());
    }

    #[test]
    fn needed_and_serves_are_duals() {
        let (_, _, shards) = setup(80, 500, 3, 1);
        for p in 0..3 {
            for q in 0..3 {
                assert_eq!(
                    shards[p].needed_from(q),
                    shards[q].serves_to(p),
                    "needed_from[{p}][{q}] must equal serves_to[{q}][{p}]"
                );
            }
        }
    }

    #[test]
    fn blockwise_spmm_equals_full_spmm() {
        // The core identity of SAR's forward pass: summing per-block
        // aggregations over gathered features equals full-graph SpMM.
        let (g, part, shards) = setup(60, 400, 3, 2);
        let f = 5;
        let x = init::randn(&[60, f], 1.0, &mut StdRng::seed_from_u64(3));
        let full = ops::spmm_sum(&g, &x);

        for (p, shard) in shards.iter().enumerate() {
            let mut acc = Tensor::zeros(&[shard.num_local(), f]);
            for (q, owner) in shards.iter().enumerate() {
                // Worker q's local features:
                let z_q = x.gather_rows(owner.local_nodes());
                // Fetch = gather the needed rows.
                let fetched = z_q.gather_rows(shard.needed_from(q));
                ops::spmm_sum_into(shard.block(q), &fetched, &mut acc);
            }
            // Compare with the full result restricted to p's nodes.
            let expect = full.gather_rows(shard.local_nodes());
            assert!(
                acc.allclose(&expect, 1e-4),
                "worker {p} aggregation mismatch"
            );
            assert_eq!(part.part_of(shard.local_nodes()[0] as usize), p);
        }
    }

    #[test]
    fn halo_graph_matches_blocks() {
        let (_, _, shards) = setup(50, 300, 4, 4);
        for shard in &shards {
            let total: usize = (0..4).map(|q| shard.needed_from(q).len()).sum();
            assert_eq!(shard.halo_graph().num_cols(), total);
            let block_edges: usize = (0..4).map(|q| shard.block(q).num_edges()).sum();
            assert_eq!(shard.halo_graph().num_edges(), block_edges);
            // Offsets are cumulative sums.
            let mut off = 0;
            for q in 0..4 {
                assert_eq!(shard.halo_offset(q), off);
                off += shard.needed_from(q).len();
            }
        }
    }

    #[test]
    fn halo_spmm_equals_full_spmm() {
        let (g, _, shards) = setup(60, 400, 3, 5);
        let f = 4;
        let x = init::randn(&[60, f], 1.0, &mut StdRng::seed_from_u64(6));
        let full = ops::spmm_sum(&g, &x);
        for shard in &shards {
            // Build the halo feature matrix.
            let mut parts = Vec::new();
            for (q, owner) in shards.iter().enumerate() {
                let z_q = x.gather_rows(owner.local_nodes());
                parts.push(z_q.gather_rows(shard.needed_from(q)));
            }
            let refs: Vec<&Tensor> = parts.iter().collect();
            let halo = Tensor::vstack(&refs);
            let agg = ops::spmm_sum(shard.halo_graph(), &halo);
            let expect = full.gather_rows(shard.local_nodes());
            assert!(agg.allclose(&expect, 1e-4));
        }
    }

    #[test]
    fn global_degrees_match_full_graph() {
        let (g, _, shards) = setup(40, 200, 2, 7);
        for shard in &shards {
            for (li, &gid) in shard.local_nodes().iter().enumerate() {
                assert_eq!(
                    shard.global_in_degree()[li],
                    g.in_degree(gid as usize) as f32
                );
            }
        }
    }

    #[test]
    fn single_partition_has_empty_remote_sets() {
        let (g, _, shards) = setup(30, 150, 1, 8);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].remote_fetch_rows(), 0);
        assert_eq!(shards[0].block(0).num_edges(), g.num_edges());
    }
}
