//! METIS-style multilevel k-way partitioning.
//!
//! Three phases, mirroring Karypis & Kumar (1997):
//!
//! 1. **Coarsening** — repeated heavy-edge matching (HEM): each node pairs
//!    with the unmatched neighbor sharing its heaviest edge; matched pairs
//!    collapse into super-nodes whose edge weights accumulate.
//! 2. **Initial partitioning** — greedy-growing recursive bisection of the
//!    coarsest graph, splitting node weight proportionally to the part
//!    counts on each side.
//! 3. **Uncoarsening + refinement** — the assignment is projected back one
//!    level at a time; at every level a few passes of boundary moves
//!    (Fiduccia–Mattheyses-style positive-gain moves under a balance
//!    constraint) polish the cut.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_graph::CsrGraph;

use crate::Partitioning;

/// Weighted graph used internally during coarsening.
///
/// Every weight is an integer-valued `f32` below 2²⁴ (edge weights count
/// parallel input edges, node weights count input nodes), so weights sum
/// exactly in any order: the per-row builders below need not add them in
/// the order a global sort would.
struct WGraph {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    eweights: Vec<f32>,
    nweights: Vec<f32>,
    /// Every edge `u → v` has a mirror `v → u` of the same weight.
    /// Refinement then keeps each node's connection weights current by
    /// walking a moved node's own row; coarsening keeps the property.
    symmetric: bool,
}

/// Weights past this are no longer exact integers in `f32`.
const EXACT_F32: f32 = (1u32 << 24) as f32;

impl WGraph {
    fn n(&self) -> usize {
        self.nweights.len()
    }

    fn neighbors(&self, u: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let (s, e) = (self.indptr[u], self.indptr[u + 1]);
        self.indices[s..e]
            .iter()
            .copied()
            .zip(self.eweights[s..e].iter().copied())
    }

    /// Builds a weighted graph from a CSR graph: parallel edges merge into
    /// weights, self-loops are dropped (they never affect a cut). One walk
    /// over the sorted rows; duplicates are adjacent there.
    fn from_csr(g: &CsrGraph) -> WGraph {
        let n = g.num_nodes();
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0);
        let mut indices: Vec<u32> = Vec::with_capacity(g.num_edges());
        let mut eweights: Vec<f32> = Vec::with_capacity(g.num_edges());
        let mut scratch = Vec::new();
        for i in 0..n {
            for &j in g.sorted_neighbors(i, &mut scratch) {
                if j as usize == i {
                    continue;
                }
                if indices.len() > indptr[i] && indices.last() == Some(&j) {
                    let w = eweights.last_mut().unwrap();
                    *w += 1.0;
                    debug_assert!(*w < EXACT_F32, "edge weight {w} is not exact in f32");
                } else {
                    indices.push(j);
                    eweights.push(1.0);
                }
            }
            indptr.push(indices.len());
        }
        let symmetric = mirrored(&indptr, &indices, &eweights);
        WGraph {
            indptr,
            indices,
            eweights,
            nweights: vec![1.0; n],
            symmetric,
        }
    }

    /// One round of heavy-edge matching. Returns the fine→coarse map and
    /// the coarse node count.
    fn heavy_edge_matching(&self, rng: &mut StdRng) -> (Vec<u32>, usize) {
        let n = self.n();
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut mate = vec![u32::MAX; n];
        for &u in &order {
            let u = u as usize;
            if mate[u] != u32::MAX {
                continue;
            }
            let mut best: Option<(u32, f32)> = None;
            for (v, w) in self.neighbors(u) {
                if mate[v as usize] == u32::MAX && v as usize != u {
                    match best {
                        Some((_, bw)) if bw >= w => {}
                        _ => best = Some((v, w)),
                    }
                }
            }
            match best {
                Some((v, _)) => {
                    mate[u] = v;
                    mate[v as usize] = u as u32;
                }
                None => mate[u] = u as u32,
            }
        }
        // Number coarse nodes.
        let mut cmap = vec![u32::MAX; n];
        let mut next = 0u32;
        for u in 0..n {
            if cmap[u] == u32::MAX {
                cmap[u] = next;
                let m = mate[u] as usize;
                if m != u {
                    cmap[m] = next;
                }
                next += 1;
            }
        }
        (cmap, next as usize)
    }

    /// Collapses matched pairs into a coarser weighted graph.
    ///
    /// Coarse row `c` is built from the rows of its one or two fine
    /// members: weights accumulate in a slot per coarse neighbour, then the
    /// row is sorted by neighbour, which is the order matching and
    /// refinement break ties in.
    fn coarsen(&self, cmap: &[u32], nc: usize) -> WGraph {
        const NONE: u32 = u32::MAX;
        let mut nweights = vec![0.0f32; nc];
        let mut members = vec![[NONE; 2]; nc];
        for (u, (&c, &w)) in cmap.iter().zip(&self.nweights).enumerate() {
            nweights[c as usize] += w;
            let m = &mut members[c as usize];
            m[usize::from(m[0] != NONE)] = u as u32;
        }
        // Per coarse neighbour of the row being built: its slot in
        // `cols`/`wts`, or `NONE` if the row has not reached it yet.
        let mut slot = vec![NONE; nc];
        let mut cols: Vec<u32> = Vec::new();
        let mut wts: Vec<f32> = Vec::new();
        let mut indptr = Vec::with_capacity(nc + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(self.indices.len());
        let mut eweights = Vec::with_capacity(self.indices.len());
        for (c, pair) in members.iter().enumerate() {
            for &u in pair.iter().take_while(|&&u| u != NONE) {
                for (v, w) in self.neighbors(u as usize) {
                    let cv = cmap[v as usize];
                    if cv as usize == c {
                        continue;
                    }
                    match slot[cv as usize] {
                        NONE => {
                            slot[cv as usize] = wts.len() as u32;
                            cols.push(cv);
                            wts.push(w);
                        }
                        k => {
                            let acc = &mut wts[k as usize];
                            *acc += w;
                            debug_assert!(
                                *acc < EXACT_F32,
                                "edge weight {acc} is not exact in f32"
                            );
                        }
                    }
                }
            }
            cols.sort_unstable();
            for &cv in &cols {
                indices.push(cv);
                eweights.push(wts[slot[cv as usize] as usize]);
                slot[cv as usize] = NONE;
            }
            cols.clear();
            wts.clear();
            indptr.push(indices.len());
        }
        WGraph {
            indptr,
            indices,
            eweights,
            nweights,
            symmetric: self.symmetric,
        }
    }

    /// Greedy-growing recursive bisection into parts `[part_lo, part_hi)`.
    fn recursive_bisect(
        &self,
        nodes: &[u32],
        part_lo: usize,
        part_hi: usize,
        assignment: &mut [u32],
        rng: &mut StdRng,
    ) {
        if part_hi - part_lo == 1 {
            for &u in nodes {
                assignment[u as usize] = part_lo as u32;
            }
            return;
        }
        let k_left = (part_hi - part_lo) / 2;
        let k_right = (part_hi - part_lo) - k_left;
        let total: f32 = nodes.iter().map(|&u| self.nweights[u as usize]).sum();
        let target_left = total * k_left as f32 / (k_left + k_right) as f32;

        // Grow the left side by BFS from a random seed, preferring nodes
        // with strong connections into the growing region.
        let mut in_set = vec![false; self.n()];
        for &u in nodes {
            in_set[u as usize] = true;
        }
        let mut side = vec![false; self.n()]; // true = left
        let mut visited = vec![false; self.n()];
        // Restarts resume scanning `nodes` where the last one stopped:
        // `visited` only ever turns true, so nothing before is unvisited.
        let mut cursor = 0;
        let mut weight_left = 0.0f32;
        let mut frontier = std::collections::VecDeque::new();
        let seed = nodes[rng.random_range(0..nodes.len())];
        frontier.push_back(seed);
        visited[seed as usize] = true;
        while weight_left < target_left {
            let u = match frontier.pop_front() {
                Some(u) => u,
                None => {
                    // Disconnected: restart from any unvisited node.
                    while cursor < nodes.len() && visited[nodes[cursor] as usize] {
                        cursor += 1;
                    }
                    match nodes.get(cursor) {
                        Some(&u) => {
                            visited[u as usize] = true;
                            u
                        }
                        None => break,
                    }
                }
            };
            side[u as usize] = true;
            weight_left += self.nweights[u as usize];
            for (v, _) in self.neighbors(u as usize) {
                if in_set[v as usize] && !visited[v as usize] {
                    visited[v as usize] = true;
                    frontier.push_back(v);
                }
            }
        }
        let left: Vec<u32> = nodes
            .iter()
            .copied()
            .filter(|&u| side[u as usize])
            .collect();
        let right: Vec<u32> = nodes
            .iter()
            .copied()
            .filter(|&u| !side[u as usize])
            .collect();
        // Degenerate splits can happen on tiny coarse graphs; fall back to
        // an even split by index.
        let (left, right) = if left.is_empty() || right.is_empty() {
            let mid = nodes.len() / 2;
            (nodes[..mid].to_vec(), nodes[mid..].to_vec())
        } else {
            (left, right)
        };
        self.recursive_bisect(&left, part_lo, part_lo + k_left, assignment, rng);
        self.recursive_bisect(&right, part_lo + k_left, part_hi, assignment, rng);
    }

    /// Boundary refinement: positive-gain moves under a balance constraint.
    ///
    /// A move gains only if some other part holds more of the node's edge
    /// weight than its own part does, so only if its weight to other parts
    /// exceeds its weight to its own. On a symmetric graph both weights are
    /// kept per node (summed here, adjusted along a moved node's row), and
    /// a node that cannot gain — interior nodes among them — is skipped
    /// without reading its row. The shuffle still covers every node, so the
    /// random stream and every tie-break are those of a full sweep.
    fn refine(&self, assignment: &mut [u32], k: usize, passes: usize, rng: &mut StdRng) {
        let total: f32 = self.nweights.iter().sum();
        let max_w = (total / k as f32) * 1.05 + self.nweights.iter().cloned().fold(0.0, f32::max);
        let mut part_w = vec![0.0f32; k];
        for u in 0..self.n() {
            part_w[assignment[u] as usize] += self.nweights[u];
        }
        // `(own, other)`: node `u`'s edge weight into its own part and into
        // every other part together.
        let mut split: Option<Vec<(f32, f32)>> = self.symmetric.then(|| {
            (0..self.n())
                .map(|u| {
                    let a = assignment[u];
                    let (mut own, mut other) = (0.0f32, 0.0f32);
                    for (v, w) in self.neighbors(u) {
                        if assignment[v as usize] == a {
                            own += w;
                        } else {
                            other += w;
                        }
                    }
                    debug_assert!(
                        own + other < EXACT_F32,
                        "node {u}'s weight is not exact in f32"
                    );
                    (own, other)
                })
                .collect()
        });
        let mut order: Vec<u32> = (0..self.n() as u32).collect();
        let mut conn = vec![0.0f32; k];
        let mut touched: Vec<usize> = Vec::with_capacity(k);
        for _ in 0..passes {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut moved = 0usize;
            for &u in &order {
                let u = u as usize;
                if split.as_ref().is_some_and(|s| s[u].1 <= s[u].0) {
                    continue;
                }
                let a = assignment[u] as usize;
                for (v, w) in self.neighbors(u) {
                    let p = assignment[v as usize] as usize;
                    if conn[p] == 0.0 {
                        touched.push(p);
                    }
                    conn[p] += w;
                }
                let mut best = a;
                let mut best_gain = 0.0f32;
                for &p in &touched {
                    if p == a {
                        continue;
                    }
                    let gain = conn[p] - conn[a];
                    if gain > best_gain && part_w[p] + self.nweights[u] <= max_w {
                        best = p;
                        best_gain = gain;
                    }
                }
                if best != a {
                    part_w[a] -= self.nweights[u];
                    part_w[best] += self.nweights[u];
                    assignment[u] = best as u32;
                    moved += 1;
                    if let Some(split) = split.as_mut() {
                        // Edge (u, v) was inside `a` for v in `a`, and is
                        // inside `best` for v in `best`.
                        for (v, w) in self.neighbors(u) {
                            let s = &mut split[v as usize];
                            match assignment[v as usize] as usize {
                                p if p == a => *s = (s.0 - w, s.1 + w),
                                p if p == best => *s = (s.0 + w, s.1 - w),
                                _ => {}
                            }
                        }
                        let (own, other) = split[u];
                        split[u] = (conn[best], own + other - conn[best]);
                    }
                }
                for &p in &touched {
                    conn[p] = 0.0;
                }
                touched.clear();
            }
            if moved == 0 {
                break;
            }
        }
    }
}

/// `true` if every entry `v` of row `u` has a mirror `u` in row `v` of
/// the same weight, for sorted rows without self-loops. Rows are visited
/// in ascending order, so the mirror of each upper entry `v > u` is the
/// next unmatched lower entry of row `v`.
fn mirrored(indptr: &[usize], indices: &[u32], weights: &[f32]) -> bool {
    let n = indptr.len() - 1;
    let mut next = indptr[..n].to_vec();
    for u in 0..n {
        // Every lower entry of row `u` must have been matched by now.
        if next[u] < indptr[u + 1] && (indices[next[u]] as usize) < u {
            return false;
        }
        for e in indptr[u]..indptr[u + 1] {
            let v = indices[e] as usize;
            if v > u {
                let m = next[v];
                if m == indptr[v + 1] || indices[m] as usize != u || weights[m] != weights[e] {
                    return false;
                }
                next[v] += 1;
            }
        }
    }
    true
}

/// Partitions `graph` into `k` parts using multilevel heavy-edge-matching
/// coarsening, greedy-growing recursive bisection and boundary refinement.
///
/// Deterministic for a given `(graph, k, seed)`.
///
/// # Panics
///
/// Panics if `k == 0` or `k > graph.num_nodes()`.
pub fn multilevel(graph: &CsrGraph, k: usize, seed: u64) -> Partitioning {
    let n = graph.num_nodes();
    assert!(k > 0 && k <= n, "k must be in 1..=num_nodes");
    if k == 1 {
        return Partitioning::new(1, vec![0; n]);
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // Phase 1: coarsen.
    let mut levels: Vec<WGraph> = vec![WGraph::from_csr(graph)];
    let mut maps: Vec<Vec<u32>> = Vec::new();
    let stop_at = (8 * k).max(256);
    while levels.last().unwrap().n() > stop_at {
        let g = levels.last().unwrap();
        let (cmap, nc) = g.heavy_edge_matching(&mut rng);
        if nc as f32 > 0.95 * g.n() as f32 {
            break; // matching stagnated (e.g. star graphs)
        }
        let coarse = g.coarsen(&cmap, nc);
        maps.push(cmap);
        levels.push(coarse);
    }

    // Phase 2: initial partition of the coarsest level.
    let coarsest = levels.last().unwrap();
    let mut assignment = vec![0u32; coarsest.n()];
    let nodes: Vec<u32> = (0..coarsest.n() as u32).collect();
    coarsest.recursive_bisect(&nodes, 0, k, &mut assignment, &mut rng);
    coarsest.refine(&mut assignment, k, 6, &mut rng);

    // Phase 3: uncoarsen + refine.
    for level in (0..maps.len()).rev() {
        let fine = &levels[level];
        let cmap = &maps[level];
        let mut fine_assignment = vec![0u32; fine.n()];
        for u in 0..fine.n() {
            fine_assignment[u] = assignment[cmap[u] as usize];
        }
        fine.refine(&mut fine_assignment, k, 4, &mut rng);
        assignment = fine_assignment;
    }

    Partitioning::new(k, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_graph::generators::weighted_sbm;

    /// The sort-based builders and the full-sweep refinement the row walks
    /// replaced, kept as references: the walks must equal them bit for bit.
    mod reference {
        use super::*;

        pub fn from_csr(g: &CsrGraph) -> WGraph {
            let n = g.num_nodes();
            let mut pairs: Vec<(u32, u32)> = g
                .iter_edges()
                .filter(|&(s, d)| s != d)
                .map(|(s, d)| (d, s))
                .collect();
            pairs.sort_unstable();
            let mut indptr = vec![0usize; n + 1];
            let mut indices = Vec::new();
            let mut eweights = Vec::new();
            let mut k = 0;
            while k < pairs.len() {
                let (row, col) = pairs[k];
                let mut w = 0.0f32;
                while k < pairs.len() && pairs[k] == (row, col) {
                    w += 1.0;
                    k += 1;
                }
                indices.push(col);
                eweights.push(w);
                indptr[row as usize + 1] += 1;
            }
            for i in 0..n {
                indptr[i + 1] += indptr[i];
            }
            let symmetric = mirrored(&indptr, &indices, &eweights);
            WGraph {
                indptr,
                indices,
                eweights,
                nweights: vec![1.0; n],
                symmetric,
            }
        }

        pub fn coarsen(g: &WGraph, cmap: &[u32], nc: usize) -> WGraph {
            let mut nweights = vec![0.0f32; nc];
            for u in 0..g.n() {
                nweights[cmap[u] as usize] += g.nweights[u];
            }
            let mut pairs: Vec<(u32, u32, f32)> = Vec::new();
            for u in 0..g.n() {
                let cu = cmap[u];
                for (v, w) in g.neighbors(u) {
                    let cv = cmap[v as usize];
                    if cu != cv {
                        pairs.push((cu, cv, w));
                    }
                }
            }
            pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
            let mut indptr = vec![0usize; nc + 1];
            let mut indices = Vec::new();
            let mut eweights = Vec::new();
            let mut k = 0;
            while k < pairs.len() {
                let (row, col, _) = pairs[k];
                let mut w = 0.0f32;
                while k < pairs.len() && pairs[k].0 == row && pairs[k].1 == col {
                    w += pairs[k].2;
                    k += 1;
                }
                indices.push(col);
                eweights.push(w);
                indptr[row as usize + 1] += 1;
            }
            for i in 0..nc {
                indptr[i + 1] += indptr[i];
            }
            WGraph {
                indptr,
                indices,
                eweights,
                nweights,
                symmetric: g.symmetric,
            }
        }

        pub fn refine(
            g: &WGraph,
            assignment: &mut [u32],
            k: usize,
            passes: usize,
            rng: &mut StdRng,
        ) {
            let total: f32 = g.nweights.iter().sum();
            let max_w = (total / k as f32) * 1.05 + g.nweights.iter().cloned().fold(0.0, f32::max);
            let mut part_w = vec![0.0f32; k];
            for u in 0..g.n() {
                part_w[assignment[u] as usize] += g.nweights[u];
            }
            let mut order: Vec<u32> = (0..g.n() as u32).collect();
            for _ in 0..passes {
                for i in (1..order.len()).rev() {
                    let j = rng.random_range(0..=i);
                    order.swap(i, j);
                }
                let mut moved = 0usize;
                let mut conn = vec![0.0f32; k];
                for &u in &order {
                    let u = u as usize;
                    let a = assignment[u] as usize;
                    let mut touched: Vec<usize> = Vec::new();
                    for (v, w) in g.neighbors(u) {
                        let p = assignment[v as usize] as usize;
                        if conn[p] == 0.0 {
                            touched.push(p);
                        }
                        conn[p] += w;
                    }
                    let mut best = a;
                    let mut best_gain = 0.0f32;
                    for &p in &touched {
                        if p == a {
                            continue;
                        }
                        let gain = conn[p] - conn[a];
                        if gain > best_gain && part_w[p] + g.nweights[u] <= max_w {
                            best = p;
                            best_gain = gain;
                        }
                    }
                    if best != a {
                        part_w[a] -= g.nweights[u];
                        part_w[best] += g.nweights[u];
                        assignment[u] = best as u32;
                        moved += 1;
                    }
                    for &p in &touched {
                        conn[p] = 0.0;
                    }
                }
                if moved == 0 {
                    break;
                }
            }
        }
    }

    fn assert_bit_equal(a: &WGraph, b: &WGraph, what: &str) {
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.indptr, b.indptr, "{what}: indptr");
        assert_eq!(a.indices, b.indices, "{what}: indices");
        assert_eq!(bits(&a.eweights), bits(&b.eweights), "{what}: edge weights");
        assert_eq!(bits(&a.nweights), bits(&b.nweights), "{what}: node weights");
        assert_eq!(a.symmetric, b.symmetric, "{what}: symmetric");
    }

    /// Builds every level as `multilevel` does and checks each builder and
    /// a refinement of each level against its reference.
    fn check_against_reference(g: &CsrGraph, k: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut level = WGraph::from_csr(g);
        assert_bit_equal(&level, &reference::from_csr(g), "from_csr");
        for depth in 0.. {
            // A random start, so refinement has moves to make.
            let mut start = vec![0u32; level.n()];
            for p in &mut start {
                *p = rng.random_range(0..k as u32);
            }
            let (mut a, mut b) = (start.clone(), start);
            let (mut ra, mut rb) = (rng.clone(), rng.clone());
            level.refine(&mut a, k, 4, &mut ra);
            reference::refine(&level, &mut b, k, 4, &mut rb);
            assert_eq!(a, b, "refine at depth {depth}");
            assert_eq!(
                ra.random::<u64>(),
                rb.random::<u64>(),
                "rng at depth {depth}"
            );
            if level.n() <= 16 {
                break;
            }
            let (cmap, nc) = level.heavy_edge_matching(&mut rng);
            if nc == level.n() {
                break;
            }
            let coarse = level.coarsen(&cmap, nc);
            assert_bit_equal(
                &coarse,
                &reference::coarsen(&level, &cmap, nc),
                &format!("coarsen at depth {depth}"),
            );
            level = coarse;
        }
    }

    #[test]
    fn builders_and_refinement_equal_sort_based_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let (sbm, _) = weighted_sbm(1500, 15000, 6, 0.85, 0.3, &mut rng);
        // Parallel edges, self-loops and a node no edge reaches.
        let mut edges: Vec<(u32, u32)> = sbm.iter_edges().take(4000).collect();
        edges.extend([(7, 7), (7, 8), (7, 8), (8, 7), (0, 1)]);
        edges.retain(|&(s, d)| s != 1499 && d != 1499);
        let directed = CsrGraph::from_edges(1500, &edges);
        let unsorted = CsrGraph::from_raw(
            1500,
            directed.indptr().to_vec(),
            (0..1500)
                .flat_map(|i| directed.neighbors(i).iter().rev().copied())
                .collect(),
        );
        // Every edge both ways, but one of them twice.
        let uneven = {
            let mut both: Vec<(u32, u32)> = directed.symmetrize().iter_edges().collect();
            both.push(both[both.len() / 2]);
            CsrGraph::from_edges(1500, &both)
        };
        for (name, g) in [
            ("sbm", sbm.symmetrize()),
            ("sbm+loops", sbm.symmetrize().with_self_loops()),
            ("directed", directed),
            ("unsorted", unsorted),
            ("uneven", uneven),
        ] {
            let w = WGraph::from_csr(&g);
            let expect_symmetric = name.starts_with("sbm");
            assert_eq!(w.symmetric, expect_symmetric, "{name}");
            for (k, seed) in [(2, 0), (3, 1), (8, 2)] {
                check_against_reference(&g, k, seed);
            }
        }
    }

    #[test]
    fn recovers_planted_communities() {
        // With near-perfect homophily and k == number of blocks, the
        // partitioner should achieve a cut far below the random baseline
        // and close to the planted cut.
        let (g, labels) = weighted_sbm(800, 8000, 4, 0.98, 0.3, &mut StdRng::seed_from_u64(0));
        let g = g.symmetrize();
        let p = multilevel(&g, 4, 1);
        let planted = Partitioning::new(4, labels);
        let planted_cut = planted.edge_cut(&g);
        let found_cut = p.edge_cut(&g);
        assert!(
            found_cut < planted_cut * 3,
            "found cut {found_cut}, planted cut {planted_cut}"
        );
    }

    #[test]
    fn balance_within_tolerance() {
        let (g, _) = weighted_sbm(1000, 12000, 7, 0.7, 0.5, &mut StdRng::seed_from_u64(1));
        let g = g.symmetrize();
        for k in [2, 3, 8, 16] {
            let p = multilevel(&g, k, 2);
            assert!(p.balance() < 1.35, "k={k} imbalance {}", p.balance());
        }
    }

    #[test]
    fn handles_path_graph() {
        let edges: Vec<(u32, u32)> = (0..199).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(200, &edges).symmetrize();
        let p = multilevel(&g, 4, 3);
        // A path has an optimal 4-way cut of 3 edges (6 directed).
        assert!(p.edge_cut(&g) <= 24, "cut {}", p.edge_cut(&g));
        assert!(p.balance() < 1.3);
    }

    #[test]
    fn handles_star_graph() {
        // Star graphs defeat matching (everything touches the hub);
        // the partitioner must still terminate and balance.
        let edges: Vec<(u32, u32)> = (1..500).map(|i| (0, i)).collect();
        let g = CsrGraph::from_edges(500, &edges).symmetrize();
        let p = multilevel(&g, 4, 4);
        assert_eq!(p.assignment().len(), 500);
        assert!(p.balance() < 1.5, "balance {}", p.balance());
    }

    #[test]
    fn k_equals_two_bisects() {
        let (g, _) = weighted_sbm(400, 4000, 2, 0.95, 0.4, &mut StdRng::seed_from_u64(5));
        let g = g.symmetrize();
        let p = multilevel(&g, 2, 6);
        assert!(
            p.cut_fraction(&g) < 0.25,
            "cut fraction {}",
            p.cut_fraction(&g)
        );
    }
}
