//! The per-worker handle tying together communication, the local graph
//! shard, and the rotation-schedule feature exchange at the heart of SAR.
//!
//! Every round hands its consumer one `&Tensor` whose rows are the columns
//! of `view.block(q)` ([`ShardView::block`]): the block peer `q` served,
//! or — round 0, no message, nothing staged — the worker's own features.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use sar_comm::{buffer, Payload, Phase, TransportError, WorkerCtx};
use sar_tensor::Tensor;

use crate::dist_graph::DistGraph;
use crate::plan::{self, FetchStep, GradStep};
use crate::protocol::Protocol;
use crate::view::{ShardView, View};

/// Tags below the collective range, reserved for SAR's point-to-point
/// exchanges.
const P2P_TAG_BASE: u64 = 1 << 40;

/// A worker's handle during distributed training: the communication
/// context, this worker's shard, and a tag allocator. The exchanges
/// themselves ([`Worker::try_fetch_rounds`], [`GradRouter`]) take the
/// partition as a [`ShardView`] argument, so one worker walks any number
/// of views — the full graph, an MFG level, a convolution's shift graphs —
/// over one tag stream.
///
/// `Worker` is shared via `Rc` so autograd [`Function`](sar_tensor::Function)s
/// recorded during the forward pass can communicate during the backward
/// pass — the mechanism behind Algorithm 2.
pub struct Worker {
    /// Communication context.
    pub ctx: Rc<WorkerCtx>,
    /// This worker's partition of the full graph — the view training,
    /// evaluation and Correct & Smooth walk.
    pub graph: Arc<DistGraph>,
    /// Pipeline depth `k` of the rotation exchange (§3.4 of the paper):
    /// up to `k` fetched blocks are staged ahead of the one being
    /// aggregated, so communication for later rounds overlaps the current
    /// round's compute. Memory scales as `(k+2)/N` blocks (the local
    /// partition plus the block being consumed plus `k` staged). Depth 0
    /// is the strictly sequential `2/N` path; depth 1 is the paper's
    /// single-block prefetch (`3/N`).
    pub prefetch_depth: usize,
    tags: Cell<u64>,
    /// Exchange protocol (exact by default; see [`Protocol`]).
    protocol: Cell<Protocol>,
    /// Whether the current epoch refreshes remote blocks (always true
    /// outside [`Protocol::Stale`]).
    epoch_fresh: Cell<bool>,
    /// Within-epoch index of the next caching [`Worker::try_fetch_rounds`]
    /// call — with the round, the key of a cached block (every epoch runs
    /// the same SPMD call sequence, so the index identifies the exchange).
    fetch_call: Cell<usize>,
    /// The remote blocks a refresh epoch of [`Protocol::Stale`] received,
    /// keyed by `(fetch call, round)`. The local block is never cached —
    /// it is always read fresh from the resident tensor.
    stale: RefCell<BTreeMap<(usize, usize), Tensor>>,
}

/// Where the remote blocks of one rotation walk come from, and where
/// they go once consumed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BlockStore {
    /// The transport (as a source) / the receive-buffer pool (as a sink).
    Wire,
    /// The worker's stale-block cache.
    Cache,
}

impl Worker {
    /// Wraps a communication context and shard into a shared handle
    /// (pipeline depth 0 — the strictly sequential exchange).
    pub fn new(ctx: WorkerCtx, graph: Arc<DistGraph>) -> Rc<Worker> {
        Worker::from_shared(Rc::new(ctx), graph, 0)
    }

    /// Builds a worker over an already-shared communication context. The
    /// caller keeps its `Rc` clone, e.g. to read the context's statistics
    /// (or gather them over the transport) after training consumed the
    /// worker.
    pub fn from_shared(
        ctx: Rc<WorkerCtx>,
        graph: Arc<DistGraph>,
        prefetch_depth: usize,
    ) -> Rc<Worker> {
        Rc::new(Worker {
            ctx,
            graph,
            prefetch_depth,
            tags: Cell::new(0),
            protocol: Cell::new(Protocol::Exact),
            epoch_fresh: Cell::new(true),
            fetch_call: Cell::new(0),
            stale: RefCell::new(BTreeMap::new()),
        })
    }

    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// The worker's own graph as a shared [`View`] — what the aggregation
    /// functions take for full-graph training.
    pub fn view(&self) -> View {
        self.graph.clone()
    }

    /// Cluster size.
    pub fn world(&self) -> usize {
        self.ctx.world_size()
    }

    /// Allocates the next point-to-point tag. Relies on SPMD execution:
    /// all workers allocate tags in the same order.
    pub fn next_tag(&self) -> u64 {
        let t = self.tags.get();
        self.tags.set(t + 1);
        P2P_TAG_BASE + t
    }

    /// Switches the exchange protocol. Must be invoked identically on
    /// every rank (SPMD) — a rank skipping sends its peer still expects
    /// would deadlock the rotation. Clears any cached stale blocks and
    /// resets the epoch state, so the next exchange starts fresh.
    pub fn set_protocol(&self, protocol: Protocol) {
        self.protocol.set(protocol);
        self.begin_epoch(true);
    }

    /// Declares an epoch boundary for the staleness protocol: resets the
    /// within-epoch fetch-call counter, and — when `refresh` is true —
    /// drops the cached remote blocks so this epoch's exchanges fetch
    /// fresh data and repopulate the cache. Under [`Protocol::Stale`] the
    /// trainer passes `refresh = (epoch % r == 0)`; other protocols
    /// ignore staleness and any `refresh` value is fine.
    pub fn begin_epoch(&self, refresh: bool) {
        self.fetch_call.set(0);
        self.epoch_fresh.set(refresh);
        if refresh {
            self.stale.borrow_mut().clear();
        }
    }

    /// Serves rows of `data` to worker `dst` under `tag`: gathers the rows
    /// `dst` needs into a pooled buffer (steady-state rounds stop
    /// allocating once the pool is primed) and hands it to the transport's
    /// non-blocking send path — on TCP the checksum and socket write run
    /// on the destination's writer thread, which returns the buffer.
    /// The staging buffer is never registered with this worker's memory
    /// tracker: egress in flight is not resident state under the paper's
    /// accounting.
    // Helper of try_fetch_rounds, which opens the ForwardFetch/
    // BackwardRefetch scope before any serve.
    // sar-check: allow(phase-scope)
    fn serve(
        &self,
        view: &dyn ShardView,
        data: &Tensor,
        dst: usize,
        tag: u64,
    ) -> Result<(), TransportError> {
        let (src, cols, rows) = (data.data(), data.cols(), view.serve_rows(dst));
        let len = rows.len() * cols;
        let mut buf = buffer::take_f32(len).unwrap_or_else(|| Vec::with_capacity(len));
        for &r in rows {
            buf.extend_from_slice(&src[r as usize * cols..(r as usize + 1) * cols]);
        }
        self.ctx.try_send(dst, tag, Payload::F32(buf))
    }

    /// Receives the `[rows, cols]` block worker `src` serves under `tag`.
    /// The received bytes are registered with *this* worker's memory
    /// tracker — fetched partitions count against this worker's peak, as
    /// in the paper's accounting.
    ///
    /// # Errors
    ///
    /// Whatever [`WorkerCtx::try_recv`] reports (timeout, disconnect, …),
    /// plus [`TransportError::Corrupt`] naming `src` if the block arrives
    /// with the wrong dtype or element count — a malformed peer frame
    /// becomes a clean nonzero exit instead of a process-poisoning panic.
    // Helper of try_fetch_rounds and GradRouter::finish, which open their
    // phase scope before any receive.
    // sar-check: allow(phase-scope)
    fn try_receive_block(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
        what: &str,
    ) -> Result<Tensor, TransportError> {
        let data = self.ctx.try_recv(src, tag)?.try_into_f32()?;
        if data.len() != rows * cols {
            return Err(TransportError::Corrupt {
                peer: src,
                detail: format!(
                    "{what} block has {} f32 elements, expected {rows} rows × {cols} cols = {}",
                    data.len(),
                    rows * cols
                ),
            });
        }
        Ok(Tensor::from_vec(&[rows, cols], data))
    }

    /// The sequential rotation exchange of Algorithm 1 over `view`,
    /// pipelined to depth `k = prefetch_depth` — the only code that binds
    /// [`plan::fetch_steps`] to tensors. Invokes `consume(q, block)` per
    /// partition in the fixed rank order `p, p+1, …` regardless of arrival
    /// order, so results are bitwise identical at every depth, thread
    /// count, and transport.
    ///
    /// Which round serves which peer, how far serves and fetches run ahead
    /// of consumption, and the consumption order come verbatim from the
    /// plan — the pure schedule `sar-check` proves matched, deadlock-free,
    /// and within the `(k+2)/N` residency bound (local partition + block
    /// being consumed + `k` staged; 2/N at depth 0, the paper's 3/N at
    /// depth 1). What varies is where a `Fetch` finds its block: the wire,
    /// or — on a stale epoch of [`Protocol::Stale`], which serves nothing
    /// — the refresh epoch's blocks in the worker's stale cache. Under
    /// [`Protocol::GradOnly`] the rotation collapses to round 0 on every
    /// rank alike.
    ///
    /// Round 0 is the local block: `consume(p, data)` — no communication,
    /// no copy, nothing staged (its columns index `data`'s rows). Remote
    /// blocks land in pooled buffers and are recycled after consumption.
    ///
    /// `tag` must be the same on every rank and unused by any exchange
    /// still in flight; training allocates it with [`Worker::next_tag`].
    ///
    /// # Errors
    ///
    /// A transport failure, a malformed block
    /// ([`TransportError::Corrupt`] naming the peer and both sizes), or
    /// whatever `consume` returns — the walk stops at the first.
    ///
    /// # Panics
    ///
    /// Panics (naming this rank) if `view` was built for another rank,
    /// `data` does not have one row per view input, or a stale epoch's
    /// call sequence diverges from the refresh epoch's — programming
    /// errors, not cluster-health conditions.
    pub fn try_fetch_rounds(
        &self,
        view: &dyn ShardView,
        data: &Tensor,
        tag: u64,
        mut consume: impl FnMut(usize, &Tensor) -> Result<(), TransportError>,
    ) -> Result<(), TransportError> {
        let n = self.world();
        let p = self.rank();
        if (view.world(), view.rank()) != (n, p) {
            panic!(
                "worker {p} of {n}: walking a view built for rank {} of {}",
                view.rank(),
                view.world()
            );
        }
        if data.rows() != view.num_inputs() {
            panic!(
                "worker {p}: fetch_rounds data has {} rows, expected {} view inputs",
                data.rows(),
                view.num_inputs()
            );
        }
        let cols = data.cols();
        // Ledger the rotation exchange as a forward fetch unless the
        // caller already declared a phase (the GAT backward pass runs this
        // same loop under BackwardRefetch).
        let _phase = (self.ctx.current_phase() == Phase::Other)
            .then(|| self.ctx.phase_scope(Phase::ForwardFetch));

        // Refresh epochs keep each remote block after consumption instead
        // of recycling it; stale epochs replay what was kept, with zero
        // fetch-phase traffic.
        let (source, sink) = match self.protocol.get() {
            // Local-subgraph training: every rank skips the same serves
            // and fetches, so no peer waits on a message that never comes.
            Protocol::GradOnly => return consume(p, data),
            Protocol::Exact => (BlockStore::Wire, BlockStore::Wire),
            Protocol::Stale(_) if self.epoch_fresh.get() => (BlockStore::Wire, BlockStore::Cache),
            Protocol::Stale(_) => (BlockStore::Cache, BlockStore::Cache),
        };
        // The within-epoch call index keys the stale cache (every epoch
        // runs the same SPMD call sequence).
        let call = self.fetch_call.get();
        if sink == BlockStore::Cache {
            self.fetch_call.set(call + 1);
        }

        // Staged blocks, oldest first; the plan bounds the queue to
        // `min(k, n-1) + 1` entries. The local round stages no tensor —
        // `None` marks it and consumption reads `data` in place.
        let mut staged: VecDeque<Option<(usize, Tensor)>> = VecDeque::new();
        for step in plan::fetch_steps(n, p, self.prefetch_depth) {
            match step {
                FetchStep::GatherLocal => staged.push_back(None),
                FetchStep::Serve { dst, .. } => {
                    if source == BlockStore::Wire {
                        self.serve(view, data, dst, tag)?;
                    }
                }
                FetchStep::Fetch { round, src } => {
                    let block = match source {
                        BlockStore::Wire => self.try_receive_block(
                            src,
                            tag,
                            view.expected_rows(src),
                            cols,
                            "fetched",
                        )?,
                        // A block the refresh epoch never cached means the
                        // SPMD call sequence diverged from it.
                        BlockStore::Cache => {
                            let cached = self.stale.borrow_mut().remove(&(call, round));
                            cached.unwrap_or_else(|| {
                                panic!(
                                    "worker {p}: no stale block for fetch call {call} round \
                                     {round} (did the refresh epoch make this fetch call?)"
                                )
                            })
                        }
                    };
                    staged.push_back(Some((round, block)));
                }
                FetchStep::Consume { q } => match staged.pop_front() {
                    None => panic!("worker {p}: pipeline underrun consuming partition {q}"),
                    Some(None) => consume(q, data)?,
                    Some(Some((round, block))) => {
                        consume(q, &block)?;
                        match sink {
                            BlockStore::Wire => buffer::recycle_f32(block.into_data()),
                            BlockStore::Cache => {
                                self.stale.borrow_mut().insert((call, round), block);
                            }
                        }
                    }
                },
            }
        }
        Ok(())
    }

    /// Panicking [`Worker::try_fetch_rounds`] under a freshly allocated tag
    /// — the training-side entry point.
    /// Tags are allocated unconditionally: approximate protocols skip
    /// messages, not tags, so the SPMD tag streams stay aligned across
    /// protocol phases (e.g. a stale epoch followed by a refresh).
    ///
    /// # Panics
    ///
    /// Panics, naming this rank, if a peer dies or sends a malformed block
    /// mid-exchange.
    pub fn fetch_rounds(
        &self,
        view: &dyn ShardView,
        data: &Tensor,
        mut consume: impl FnMut(usize, &Tensor),
    ) {
        let walked = self.try_fetch_rounds(view, data, self.next_tag(), |q, block| {
            consume(q, block);
            Ok(())
        });
        if let Err(e) = walked {
            panic!("worker {} fetching blocks: {e}", self.rank());
        }
    }

    /// Algorithm 2's error routing (`send error E_{p→q} to worker q`, then
    /// `E_p = Σ_q E_{q→p}`) for aggregations that need no refetch: pushes
    /// `make_block(q)` (rows aligned with block `q`'s columns) for every
    /// partition through a [`GradRouter`] in [`plan::grad_steps`] order and
    /// returns the accumulated `[num_inputs, cols]` gradient.
    ///
    /// # Panics
    ///
    /// Panics, naming this rank, if a peer dies or routes a malformed
    /// block.
    pub fn exchange_grads(
        &self,
        view: &dyn ShardView,
        cols: usize,
        mut make_block: impl FnMut(usize) -> Tensor,
    ) -> Tensor {
        // One scope around the block construction too, so its CPU time is
        // ledgered as routing.
        let _phase = self.ctx.phase_scope(Phase::GradRouting);
        let mut router = GradRouter::new(self, view, cols);
        let local_only = self.protocol.get() == Protocol::GradOnly;
        let routed = plan::grad_steps(self.world(), self.rank())
            .into_iter()
            .try_for_each(|step| match step {
                GradStep::AccumulateLocal => router.push(self.rank(), make_block(self.rank())),
                GradStep::Send { dst } if !local_only => router.push(dst, make_block(dst)),
                GradStep::Send { .. } | GradStep::Recv { .. } => Ok(()),
            })
            .and_then(|()| router.finish());
        routed.unwrap_or_else(|e| panic!("worker {} routing gradients: {e}", self.rank()))
    }
}

/// The error-routing exchange of Algorithm 2, decoupled from how the
/// blocks are produced: [`push`](GradRouter::push) each partition's
/// gradient block as it becomes available — all at once for linear
/// aggregations ([`Worker::exchange_grads`]), one per consumed block of
/// the rematerializing refetch for attention — then
/// [`finish`](GradRouter::finish). Remote blocks leave on the non-blocking
/// send path; the local block needs no message and is parked, like any
/// block in flight outside the tensor tracker, until `finish` accumulates
/// it first and the peers' blocks after it in the fixed order of
/// [`plan::grad_steps`] — so the floating-point sum is bitwise identical
/// at every pipeline depth and transport, and the `[num_inputs, cols]`
/// accumulator is not resident while the blocks are still being produced.
pub struct GradRouter<'a> {
    w: &'a Worker,
    view: &'a dyn ShardView,
    tag: u64,
    cols: usize,
    local: Option<Vec<f32>>,
}

impl<'a> GradRouter<'a> {
    /// Opens a routing exchange for `cols`-wide gradient blocks. Allocates
    /// its tag even when the protocol will skip the exchange — see
    /// [`Worker::fetch_rounds`] on tag-stream alignment.
    pub fn new(w: &'a Worker, view: &'a dyn ShardView, cols: usize) -> Self {
        GradRouter {
            w,
            view,
            tag: w.next_tag(),
            cols,
            local: None,
        }
    }

    /// Routes the gradient of the rows fetched from partition `q`.
    ///
    /// # Errors
    ///
    /// Whatever the transport reports for a remote `q`.
    ///
    /// # Panics
    ///
    /// Panics (naming this rank) if the block is not `[expected_rows(q),
    /// cols]` — a programming error in the caller.
    pub fn push(&mut self, q: usize, block: Tensor) -> Result<(), TransportError> {
        let p = self.w.rank();
        if (block.rows(), block.cols()) != (self.view.expected_rows(q), self.cols) {
            panic!(
                "worker {p}: gradient block for rank {q} is {} × {}, expected {} × {}",
                block.rows(),
                block.cols(),
                self.view.expected_rows(q),
                self.cols
            );
        }
        if q == p {
            self.local = Some(block.into_data());
            return Ok(());
        }
        let _phase = self.w.ctx.phase_scope(Phase::GradRouting);
        self.w
            .ctx
            .try_send(q, self.tag, Payload::F32(block.into_data()))
    }

    /// Sums the local block and the blocks every peer routed here (rows
    /// aligned with `serve_rows(src)`) into the `[num_inputs, cols]`
    /// gradient. Under [`Protocol::GradOnly`] nothing was routed and
    /// nothing is awaited — uniformly across ranks.
    ///
    /// # Errors
    ///
    /// A transport failure, or [`TransportError::Corrupt`] naming the peer
    /// and both sizes if a block arrives short or with the wrong dtype.
    pub fn finish(mut self) -> Result<Tensor, TransportError> {
        let (w, view, cols) = (self.w, self.view, self.cols);
        let routed = w.protocol.get() != Protocol::GradOnly;
        let _phase = w.ctx.phase_scope(Phase::GradRouting);
        let mut grad = Tensor::zeros(&[view.num_inputs(), cols]);
        for step in plan::grad_steps(w.world(), w.rank()) {
            match step {
                // Added into the zeroed gradient rather than adopted as
                // it: `0.0 + -0.0` is `+0.0`, and every digest was taken
                // with that sum in it.
                GradStep::AccumulateLocal => {
                    if let Some(data) = self.local.take() {
                        grad.add_assign(&Tensor::from_vec(&[view.num_inputs(), cols], data));
                    }
                }
                GradStep::Recv { src } if routed => {
                    let rows = view.serve_rows(src);
                    let block = w.try_receive_block(src, self.tag, rows.len(), cols, "gradient")?;
                    grad.scatter_add_rows(rows, &block);
                    // The TCP reader took this buffer from the pool.
                    buffer::recycle_f32(block.into_data());
                }
                GradStep::Send { .. } | GradStep::Recv { .. } => {}
            }
        }
        Ok(grad)
    }
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("rank", &self.rank())
            .field("world", &self.world())
            .field("prefetch_depth", &self.prefetch_depth)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq_agg::{gat_aggregate, FakMode};
    use sar_comm::{Cluster, CostModel};
    use sar_graph::CsrGraph;
    use sar_tensor::{MemoryTracker, Var};

    /// A taped attention aggregation keeps its softmax statistics on its
    /// tape node. Whether the tape is dropped unrun (an evaluation forward
    /// under grad mode), run by a backward, or never recorded (`no_grad`),
    /// the tracked bytes return to their pre-forward value.
    #[test]
    fn a_gat_forward_leaves_no_tracked_bytes_behind() {
        let ring: Vec<(u32, u32)> = (0..12).map(|i| (i, (i + 1) % 12)).collect();
        let g = CsrGraph::from_edges(12, &ring).symmetrize();
        let part = sar_partition::range(&g, 2);
        let graphs: Arc<Vec<_>> = Arc::new(
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        );
        Cluster::new(2, CostModel::default()).run(move |ctx| {
            let rank = ctx.rank();
            let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
            let n = w.graph.num_local();
            let z = Var::parameter(Tensor::full(&[n, 4], 0.1 * (rank as f32 + 1.0)));
            let s_dst = Var::parameter(Tensor::full(&[n, 2], 0.05));
            let a_src = Var::parameter(Tensor::full(&[4], 0.02));
            let forward = || {
                gat_aggregate(&w, &w.view(), &z, &s_dst, &a_src, 2, 0.2, FakMode::Fused)
                    .unwrap_or_else(|e| panic!("rank {rank}: {e}"))
            };
            let tracked = || MemoryTracker::stats().current_bytes;
            let before = tracked();
            drop(forward());
            assert_eq!(tracked(), before, "rank {rank}: a dropped tape leaked");
            // The backward leaves gradients on the parameters; clear them
            // before comparing.
            forward().sum().backward();
            for v in [&z, &s_dst, &a_src] {
                v.zero_grad();
            }
            assert_eq!(tracked(), before, "rank {rank}: a run tape leaked");
            drop(sar_tensor::no_grad(forward));
            assert_eq!(tracked(), before, "rank {rank}: an untaped forward leaked");
        });
    }
}
