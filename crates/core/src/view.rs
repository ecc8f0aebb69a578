//! The shard view: what one layer's aggregation needs from a partition.
//!
//! A GNN layer on worker `p` maps an *input* activation matrix to an
//! output over the layer's *destination* rows, aggregating over the blocks
//! `G_{p,q}`. For the full graph both row sets are "every local node"
//! ([`DistGraph`]); for one level of a message-flow graph the destinations
//! are what a query batch needs and the inputs their one-hop closure
//! ([`LevelView`](crate::mfg::LevelView)). Everything that walks the
//! rotation — [`Worker::try_fetch_rounds`](crate::Worker::try_fetch_rounds),
//! the [`GradRouter`](crate::GradRouter), [`seq_agg`](crate::seq_agg) and
//! the layer math — reads the partition through this trait only, so a new
//! row set is a new implementation, not a new walker.
//!
//! One contract covers every block, the local one included: the columns
//! of [`block(q)`](ShardView::block) index the rows of the tensor the
//! walker hands its consumer for round `q`.

use std::sync::Arc;

use sar_graph::CsrGraph;

use crate::DistGraph;

/// A shared, type-erased [`ShardView`]: what the aggregation functions
/// take and what their recorded backward passes keep alive.
pub type View = Arc<dyn ShardView>;

/// Worker `p`'s view of one layer's aggregation. All row lists index the
/// layer's *input* matrix.
pub trait ShardView {
    /// This worker's rank `p`.
    fn rank(&self) -> usize;

    /// Number of partitions.
    fn world(&self) -> usize;

    /// Rows of the layer input this worker holds.
    fn num_inputs(&self) -> usize;

    /// Destination rows the aggregation produces.
    fn num_dst(&self) -> usize;

    /// The bipartite block `G_{p,q}` restricted to the destination rows.
    /// Its columns index the rows peer `q` serves — or, for `q = rank`,
    /// this view's `num_inputs` input rows.
    fn block(&self, q: usize) -> &CsrGraph;

    /// Input rows peer `q` fetches from this worker, in the order `q`'s
    /// block columns expect them.
    fn serve_rows(&self, q: usize) -> &[u32];

    /// Rows a block fetched from `q` must carry: one per block column.
    fn expected_rows(&self, q: usize) -> usize {
        self.block(q).num_cols()
    }

    /// The input row of each destination row (destinations are a subset
    /// of the inputs: residual, attention-destination and degree terms
    /// read through this map). `None` is the identity — inputs *are* the
    /// destinations — and lets the layer skip the gather entirely.
    fn dst_map(&self) -> Option<&[u32]>;

    /// In-degree in the *full* graph of each input row's node — the
    /// `|N(i)|` normalizer (block-local degrees would be wrong).
    fn in_degree(&self) -> &[f32];
}

/// The full-graph view: every local node is both input and destination.
impl ShardView for DistGraph {
    fn rank(&self) -> usize {
        DistGraph::rank(self)
    }

    fn world(&self) -> usize {
        DistGraph::world(self)
    }

    fn num_inputs(&self) -> usize {
        self.num_local()
    }

    fn num_dst(&self) -> usize {
        self.num_local()
    }

    fn block(&self, q: usize) -> &CsrGraph {
        DistGraph::block(self, q)
    }

    fn serve_rows(&self, q: usize) -> &[u32] {
        self.serves_to(q)
    }

    fn dst_map(&self) -> Option<&[u32]> {
        None
    }

    fn in_degree(&self) -> &[f32] {
        self.global_in_degree()
    }
}
