//! The per-rank resident serving engine.
//!
//! Every rank constructs a [`ServeEngine`] over its [`DistGraph`]
//! partition, feature shard and checkpoint parameters, then the cluster
//! runs SPMD: rank 0 originates control messages (query batches, feature
//! updates, reloads, shutdown) and every rank — rank 0 included —
//! executes the identical sequence, which keeps the rotation in lockstep
//! without any scheduler.
//!
//! A query batch executes in three phases:
//!
//! 1. **MFG build** — an L-round request exchange. Starting from the
//!    rank's owned query rows at the top level, each round slices one
//!    layer ([`mfg::slice_layer`]), ships the per-peer source-row request
//!    lists, learns which local rows peers will need
//!    (`serve_rows`), and expands to the next-shallower activation row
//!    set ([`mfg::expand_inputs`]). Rows found in the [`EmbedCache`] are
//!    pruned before slicing, shrinking every level below them.
//! 2. **Restricted rotation forward** — per level, the *training* layer
//!    ([`DistModel::layer_forward`]) runs under `no_grad` over the
//!    level's [`LevelView`]: the same layer math, the same rotation
//!    walker ([`Worker::try_fetch_rounds`](sar_core::Worker)) and the
//!    same kernels in the same per-row ascending-column order as
//!    full-batch training — served logits are bitwise equal to
//!    [`infer`](sar_core::infer) rows because they are computed by the
//!    same code. The walk runs at depth `world − 1`: every peer's
//!    requested rows are served before the first block is consumed.
//!    Level 0 skips the layer's row-local half: the engine keeps layer
//!    0's [`Projection`] of every local row resident (rebuilt on reload,
//!    one row per feature update), and the level gathers its input and
//!    destination rows of it and runs only
//!    [`DistModel::layer_aggregate`]. A projected row depends on its own
//!    input row alone, so the gathered rows carry the bits a per-batch
//!    projection would.
//! 3. **Result gather** — each rank ships `(query position, logits row)`
//!    pairs to rank 0, which assembles the `[Q, C]` response without
//!    needing any partitioning knowledge.
//!
//! Byte accounting: MFG traffic (request lists + fetched rows) is
//! ledgered under [`Phase::ForwardFetch`]; control and result traffic
//! under [`Phase::Collective`]. [`BatchStats`] exposes the measured
//! per-batch fetch volume next to the full-graph rotation's predicted
//! volume — the serving tier's reason to exist is keeping the former
//! strictly below the latter.

use std::fs::File;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use sar_comm::{Payload, Phase, TransportError, WorkerCtx};
use sar_core::mfg::{self, LevelView};
use sar_core::{
    checkpoint, validate_params, DistGraph, DistModel, Mode, ModelConfig, Projection, Shard, View,
    Worker,
};
use sar_tensor::{no_grad, Tensor, Var};

use crate::cache::EmbedCache;
use crate::error::ServeError;
use crate::proto::{self, Ctrl};

/// Raw model parameters as `(shape, row-major values)` pairs — the form
/// checkpoints load into and the control broadcast ships on reload.
pub use sar_core::checkpoint::RawParams;

/// Base of the serving tag range. Far above the per-epoch training tags,
/// far below the collective range (`1 << 62`), so serving traffic keeps
/// normal phase attribution.
const SERVE_TAG_BASE: u64 = 1 << 42;
/// Tags per batch sequence number; sequence numbers wrap at this span.
const SEQ_SPAN: u64 = 1 << 20;
/// Control broadcast (rank 0 → workers).
const OFF_CTRL: u64 = 0;
/// MFG build request lists, plus the level number.
const OFF_BUILD: u64 = 0x100;
/// Result-gather query positions.
const OFF_RES_POS: u64 = 0x300;
/// Result-gather logits rows.
const OFF_RES_VAL: u64 = 0x301;

fn batch_base(seq: u64) -> u64 {
    SERVE_TAG_BASE + (seq % SEQ_SPAN) * SEQ_SPAN
}

/// Rejects configurations the serving tier cannot run: domain-parallel
/// mode (serving exists to exercise the SAR rotation) and batch
/// normalization (no eval-mode statistics).
///
/// # Errors
///
/// [`ServeError::Unsupported`] naming the offending option.
fn check_servable(cfg: &ModelConfig) -> Result<(), ServeError> {
    if cfg.mode == Mode::DomainParallel {
        return Err(ServeError::Unsupported(
            "domain-parallel mode (serving runs the SAR rotation)".into(),
        ));
    }
    if cfg.batch_norm {
        return Err(ServeError::Unsupported(
            "batch normalization (DistBatchNorm has no eval-mode statistics)".into(),
        ));
    }
    if cfg.layers == 0 {
        return Err(ServeError::Unsupported("a zero-layer model".into()));
    }
    Ok(())
}

/// Layer 0's projection of every row of `input` (`degree`: each row's
/// full-graph in-degree), the table a level-0 batch gathers from.
fn project_inputs(model: &DistModel, input: &Var, degree: &[f32]) -> Projection {
    no_grad(|| model.layer_project(0, input.clone(), degree, None))
}

/// Static engine configuration, identical on every rank.
#[derive(Debug, Clone)]
pub struct EngineSetup {
    /// Model configuration; `in_dim` is resolved from the shard (plus
    /// label-augmentation channels), so callers may leave it 0.
    pub model_cfg: ModelConfig,
    /// Whether training used label augmentation (must match: it changes
    /// the input width and values).
    pub label_aug: bool,
    /// Embedding-cache row budget (0 disables caching).
    pub cache_rows: usize,
    /// Checkpoint path for [`ServeEngine`] reloads (`None` disables the
    /// reload op).
    pub checkpoint: Option<PathBuf>,
}

/// Per-batch byte accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Queried node ids in the batch.
    pub queries: usize,
    /// Measured [`Phase::ForwardFetch`] bytes received this batch (MFG
    /// request lists + fetched feature rows).
    pub fetch_bytes: u64,
    /// The MFG's predicted fetch volume
    /// ([`mfg::LayerSlice::predicted_fetch_bytes`] summed over levels).
    pub predicted_bytes: u64,
    /// What one full-graph rotation forward would have fetched
    /// ([`DistGraph::predicted_fetch_bytes`] summed over layers) — the
    /// ceiling MFG-restricted compute must stay strictly below.
    pub full_forward_bytes: u64,
}

/// Cumulative serving counters, encodable for the Stats opcode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Query batches executed.
    pub batches: u64,
    /// Individual node queries answered.
    pub queries: u64,
    /// Cumulative measured ForwardFetch bytes across batches.
    pub fetch_bytes: u64,
    /// Per-batch full-graph fetch prediction (the comparison ceiling).
    pub full_forward_bytes: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache insertions.
    pub cache_inserts: u64,
    /// Cache invalidations.
    pub cache_invalidations: u64,
    /// Cluster size.
    pub world: u64,
}

impl StatsSnapshot {
    /// Flattens to the positional counter list the Stats response carries.
    #[must_use]
    pub fn to_counters(&self) -> Vec<u64> {
        vec![
            self.batches,
            self.queries,
            self.fetch_bytes,
            self.full_forward_bytes,
            self.cache_hits,
            self.cache_misses,
            self.cache_inserts,
            self.cache_invalidations,
            self.world,
        ]
    }

    /// Parses a positional counter list.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] if the list is too short.
    pub fn from_counters(counters: &[u64]) -> Result<StatsSnapshot, ServeError> {
        if counters.len() < 9 {
            return Err(ServeError::Protocol(format!(
                "stats block has {} counters, expected 9",
                counters.len()
            )));
        }
        Ok(StatsSnapshot {
            batches: counters[0],
            queries: counters[1],
            fetch_bytes: counters[2],
            full_forward_bytes: counters[3],
            cache_hits: counters[4],
            cache_misses: counters[5],
            cache_inserts: counters[6],
            cache_invalidations: counters[7],
            world: counters[8],
        })
    }
}

/// What one [`ServeEngine::step`] call on a worker rank did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStep {
    /// No control message arrived within the receive timeout.
    Idle,
    /// One control operation was executed.
    Served,
    /// Rank 0 ordered shutdown; the final barrier has completed.
    Shutdown,
}

/// One level of a batch's MFG plan.
struct LevelPlan {
    /// The layer restriction over the rows computed at this level (its
    /// destination rows) plus the rows each peer requested of this rank,
    /// bound to the level below's activation rows.
    view: Arc<LevelView>,
    /// `computed ∪ cached` — the level's activation row set; the cached
    /// rest is answered from the cache at assembly time.
    active: Vec<u32>,
}

impl LevelPlan {
    /// Rows computed at this level, ascending.
    fn computed(&self) -> &[u32] {
        &self.view.slice().dst_rows
    }
}

struct BatchPlan {
    /// Per level `k`, at index `k - 1`.
    levels: Vec<LevelPlan>,
    /// Input rows (level 0) this rank must gather from its features.
    active0: Vec<u32>,
}

struct Counters {
    batches: u64,
    queries: u64,
    fetch_bytes: u64,
    last: BatchStats,
}

/// The per-rank resident serving core. See the module docs for the
/// batch protocol.
pub struct ServeEngine {
    /// The rotation runtime over this rank's partition, at walk depth
    /// `world − 1`.
    w: Rc<Worker>,
    cfg: ModelConfig,
    model: DistModel,
    /// Resident `[n_local, in_dim]` input (features ‖ label channels).
    input: Var,
    /// Layer 0's projection of every local row of `input` under the
    /// current parameters ([`project_inputs`]).
    table: Projection,
    feat_dim: usize,
    num_nodes: usize,
    cache: EmbedCache,
    checkpoint: Option<PathBuf>,
    seq: u64,
    counters: Counters,
}

impl ServeEngine {
    /// Builds the resident engine for one rank.
    ///
    /// `params` is the checkpoint's raw parameter list in
    /// [`DistModel::params`] order; `num_nodes` the global node count
    /// (for query validation). The configuration's `in_dim` is resolved
    /// from the shard, mirroring [`sar_core::try_infer`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Unsupported`] or [`ServeError::BadCheckpoint`] when
    /// the configuration/checkpoint pair cannot be served.
    pub fn new(
        ctx: WorkerCtx,
        graph: Arc<DistGraph>,
        shard: &Shard,
        num_nodes: usize,
        setup: &EngineSetup,
        params: &[(Vec<usize>, Vec<f32>)],
    ) -> Result<ServeEngine, ServeError> {
        let mut cfg = setup.model_cfg.clone();
        cfg.in_dim = shard.feat_dim
            + if setup.label_aug {
                shard.num_classes
            } else {
                0
            };
        cfg.num_classes = shard.num_classes;
        check_servable(&cfg)?;
        let model = DistModel::new(&cfg);
        model.set_params(params)?;

        // Inference-time label augmentation, exactly as `infer` builds it:
        // every training node sees its one-hot label.
        let input = Var::constant(shard.input_tensor(setup.label_aug.then_some(&shard.train_mask)));
        let table = project_inputs(&model, &input, graph.global_in_degree());

        let cache = EmbedCache::new(cfg.layers, setup.cache_rows);
        // Every serve of a level goes out before its first block is
        // consumed: the deepest pipeline the mesh admits.
        let depth = graph.world() - 1;
        Ok(ServeEngine {
            w: Worker::from_shared(Rc::new(ctx), graph, depth),
            cfg,
            model,
            input,
            table,
            feat_dim: shard.feat_dim,
            num_nodes,
            cache,
            checkpoint: setup.checkpoint.clone(),
            seq: 0,
            counters: Counters {
                batches: 0,
                queries: 0,
                fetch_bytes: 0,
                last: BatchStats::default(),
            },
        })
    }

    /// This rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.w.graph.rank()
    }

    /// Cluster size.
    #[must_use]
    pub fn world(&self) -> usize {
        self.w.graph.world()
    }

    /// Global node count.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Base (un-augmented) feature width updates must match.
    #[must_use]
    pub fn feat_dim(&self) -> usize {
        self.feat_dim
    }

    /// Number of output classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }

    /// The previous batch's byte accounting.
    #[must_use]
    pub fn last_batch(&self) -> BatchStats {
        self.counters.last
    }

    /// What one full-graph rotation forward would fetch — the ceiling
    /// every MFG batch is measured against.
    #[must_use]
    pub fn full_forward_fetch_bytes(&self) -> u64 {
        (0..self.cfg.layers)
            .map(|l| {
                self.w
                    .graph
                    .predicted_fetch_bytes(self.model.fetch_width(l))
            })
            .sum()
    }

    /// Cumulative serving counters.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let cs = self.cache.stats();
        StatsSnapshot {
            batches: self.counters.batches,
            queries: self.counters.queries,
            fetch_bytes: self.counters.fetch_bytes,
            full_forward_bytes: self.full_forward_fetch_bytes(),
            cache_hits: cs.hits,
            cache_misses: cs.misses,
            cache_inserts: cs.inserts,
            cache_invalidations: cs.invalidations,
            world: self.world() as u64,
        }
    }

    // ------------------------------------------------------------------
    // Rank-0 entry points
    // ------------------------------------------------------------------

    fn ensure_rank0(&self) -> Result<(), ServeError> {
        if self.rank() == 0 {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "control op invoked on rank {}, only rank 0 originates",
                self.rank()
            )))
        }
    }

    /// Executes one query batch across the cluster and returns `[Q, C]`
    /// logits in request order. Rank 0 only.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueryOutOfRange`] before anything is broadcast;
    /// [`ServeError::Comm`] if the mesh fails mid-batch.
    pub fn execute_query(&mut self, ids: &[u32]) -> Result<(Tensor, BatchStats), ServeError> {
        self.ensure_rank0()?;
        for &id in ids {
            if id as usize >= self.num_nodes {
                return Err(ServeError::QueryOutOfRange {
                    id,
                    nodes: self.num_nodes,
                });
            }
        }
        self.broadcast_ctrl(&Ctrl::Query(ids.to_vec()))?;
        let out = self.apply_ctrl(Ctrl::Query(ids.to_vec()))?.0;
        match out {
            Some(t) => Ok((t, self.counters.last)),
            None => Err(ServeError::Protocol(
                "rank 0 batch produced no result".into(),
            )),
        }
    }

    /// Overwrites one node's input feature row cluster-wide and
    /// invalidates every rank's cache. Rank 0 only.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueryOutOfRange`] / [`ServeError::Protocol`] on a
    /// bad node id or width, before anything is broadcast.
    pub fn update_feature(&mut self, node: u32, values: &[f32]) -> Result<(), ServeError> {
        self.ensure_rank0()?;
        if node as usize >= self.num_nodes {
            return Err(ServeError::QueryOutOfRange {
                id: node,
                nodes: self.num_nodes,
            });
        }
        if values.len() != self.feat_dim {
            return Err(ServeError::Protocol(format!(
                "feature update carries {} values, feature width is {}",
                values.len(),
                self.feat_dim
            )));
        }
        let ctrl = Ctrl::Update {
            node,
            values: values.to_vec(),
        };
        self.broadcast_ctrl(&ctrl)?;
        self.apply_ctrl(ctrl)?;
        Ok(())
    }

    /// Reloads parameters from the configured checkpoint path: rank 0
    /// reads and validates the file, then ships the raw values so every
    /// rank installs identical bits (all-or-nothing — a bad file leaves
    /// every rank's resident parameters untouched). Rank 0 only.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::BadCheckpoint`] /
    /// [`ServeError::Unsupported`], all raised before any broadcast.
    pub fn reload(&mut self) -> Result<(), ServeError> {
        self.ensure_rank0()?;
        let path = self.checkpoint.clone().ok_or_else(|| {
            ServeError::Unsupported("reload without a configured checkpoint path".into())
        })?;
        let params = checkpoint::read_raw_params(File::open(&path)?)?;
        // Dry-run the install before broadcasting, so a mismatched file
        // cannot leave ranks divergent.
        validate_params(&self.cfg, &params)?;
        self.broadcast_ctrl(&Ctrl::Reload(params.clone()))?;
        self.apply_ctrl(Ctrl::Reload(params))?;
        Ok(())
    }

    /// Broadcasts shutdown and joins the final barrier. Rank 0 only.
    ///
    /// # Errors
    ///
    /// [`ServeError::Comm`] if the mesh fails.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.ensure_rank0()?;
        self.broadcast_ctrl(&Ctrl::Shutdown)?;
        self.apply_ctrl(Ctrl::Shutdown)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Worker entry point
    // ------------------------------------------------------------------

    /// Waits for (at most one receive-timeout) and executes the next
    /// control operation. Worker ranks only; call in a loop until
    /// [`WorkerStep::Shutdown`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Comm`] on mesh failure (a receive timeout is
    /// [`WorkerStep::Idle`], not an error), [`ServeError::Protocol`] on
    /// an undecodable control message.
    pub fn step(&mut self) -> Result<WorkerStep, ServeError> {
        if self.rank() == 0 {
            return Err(ServeError::Protocol(
                "rank 0 drives the cluster; step() is for worker ranks".into(),
            ));
        }
        match self.poll_ctrl()? {
            None => Ok(WorkerStep::Idle),
            Some(ctrl) => {
                let (_, down) = self.apply_ctrl(ctrl)?;
                if down {
                    Ok(WorkerStep::Shutdown)
                } else {
                    Ok(WorkerStep::Served)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    fn broadcast_ctrl(&self, ctrl: &Ctrl) -> Result<(), ServeError> {
        let _phase = self.w.ctx.phase_scope(Phase::Collective);
        let bytes = proto::encode_ctrl(ctrl);
        let tag = batch_base(self.seq) + OFF_CTRL;
        for q in 1..self.world() {
            self.w.ctx.try_send(q, tag, Payload::Bytes(bytes.clone()))?;
        }
        Ok(())
    }

    fn poll_ctrl(&self) -> Result<Option<Ctrl>, ServeError> {
        let _phase = self.w.ctx.phase_scope(Phase::Collective);
        match self.w.ctx.try_recv(0, batch_base(self.seq) + OFF_CTRL) {
            Ok(p) => Ok(Some(proto::decode_ctrl(&p.try_into_bytes()?)?)),
            Err(TransportError::Timeout { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Executes one control operation locally (every rank runs this for
    /// every op — SPMD lockstep). Returns rank 0's batch result and
    /// whether the op was a shutdown.
    fn apply_ctrl(&mut self, ctrl: Ctrl) -> Result<(Option<Tensor>, bool), ServeError> {
        match ctrl {
            Ctrl::Query(ids) => {
                let out = self.run_batch(&ids)?;
                self.seq += 1;
                Ok((out, false))
            }
            Ctrl::Update { node, values } => {
                // Rank 0 checked the width before broadcasting; a record
                // that disagrees is malformed, and applying a part of it
                // would leave a table row built from a half-written input.
                if values.len() != self.feat_dim {
                    return Err(ServeError::Protocol(format!(
                        "rank {}: feature update carries {} values, feature width is {}",
                        self.rank(),
                        values.len(),
                        self.feat_dim
                    )));
                }
                if let Ok(li) = self.w.graph.local_nodes().binary_search(&node) {
                    self.input
                        .update_value(|x| x.row_mut(li)[..values.len()].copy_from_slice(&values));
                    self.reproject_row(li);
                }
                // Any rank's cached activations may transitively depend on
                // the updated node — invalidate everywhere.
                self.cache.invalidate();
                self.seq += 1;
                Ok((None, false))
            }
            Ctrl::Reload(params) => {
                self.model.set_params(&params)?;
                self.table =
                    project_inputs(&self.model, &self.input, self.w.graph.global_in_degree());
                self.cache.invalidate();
                self.seq += 1;
                Ok((None, false))
            }
            Ctrl::Shutdown => {
                self.quiesce()?;
                Ok((None, true))
            }
        }
    }

    /// The shutdown barrier: every rank parks here until the whole
    /// rotation has drained, so no rank exits while a peer still expects
    /// service.
    fn quiesce(&self) -> Result<(), ServeError> {
        let _phase = self.w.ctx.phase_scope(Phase::Collective);
        Ok(self.w.ctx.try_barrier()?)
    }

    // ------------------------------------------------------------------
    // Batch execution
    // ------------------------------------------------------------------

    fn forward_fetch_recv(&self) -> u64 {
        self.w
            .ctx
            .stats()
            .ledger
            .phase_total(Phase::ForwardFetch)
            .recv_bytes
    }

    /// Runs one query batch. Collective — every rank calls with the same
    /// id list. Returns `Some(logits)` on rank 0.
    fn run_batch(&mut self, queries: &[u32]) -> Result<Option<Tensor>, ServeError> {
        let base = batch_base(self.seq);
        let before = self.forward_fetch_recv();

        // Owned query positions: (position in `queries`, local row).
        let local_nodes = self.w.graph.local_nodes();
        let mut owned: Vec<(u32, u32)> = Vec::new();
        for (pos, gid) in queries.iter().enumerate() {
            if let Ok(li) = local_nodes.binary_search(gid) {
                owned.push((pos as u32, li as u32));
            }
        }
        let mut active: Vec<u32> = owned.iter().map(|&(_, li)| li).collect();
        active.sort_unstable();
        active.dedup();

        let plan = self.build_mfg(&active, base)?;
        let out = self.forward_mfg(&plan)?;

        let predicted: u64 = plan
            .levels
            .iter()
            .enumerate()
            .map(|(l, lvl)| {
                let width = self.model.fetch_width(l);
                lvl.view.slice().predicted_fetch_bytes(self.rank(), width)
            })
            .sum();
        let measured = self.forward_fetch_recv() - before;
        self.counters.batches += 1;
        self.counters.queries += queries.len() as u64;
        self.counters.fetch_bytes += measured;
        self.counters.last = BatchStats {
            queries: queries.len(),
            fetch_bytes: measured,
            predicted_bytes: predicted,
            full_forward_bytes: self.full_forward_fetch_bytes(),
        };

        let top = &plan.levels[self.cfg.layers - 1];
        self.gather_results(queries.len(), &owned, top.computed(), &out, base)
    }

    /// The L-round MFG build exchange (see module docs). Top level is
    /// never cache-pruned — its rows are the batch's answer.
    fn build_mfg(&mut self, query_rows: &[u32], base: u64) -> Result<BatchPlan, ServeError> {
        let w = Rc::clone(&self.w);
        let g = &*w.graph;
        let (p, world, levels) = (g.rank(), g.world(), self.cfg.layers);
        let _phase = w.ctx.phase_scope(Phase::ForwardFetch);
        let mut plans: Vec<LevelPlan> = Vec::with_capacity(levels);
        let mut active = query_rows.to_vec();
        for k in (1..=levels).rev() {
            let (_cached, computed) = if k < levels {
                self.cache.split(k, &active)
            } else {
                (Vec::new(), active.clone())
            };
            let slice = mfg::slice_layer(g, &computed);
            let tag = base + OFF_BUILD + k as u64;
            // Send-all-then-receive-all: deadlock-free on both backends.
            for q in 0..world {
                if q != p {
                    w.ctx
                        .try_send(q, tag, Payload::U32(slice.req_rows[q].clone()))?;
                }
            }
            let mut serve_rows = vec![Vec::new(); world];
            for (q, rows) in serve_rows.iter_mut().enumerate() {
                if q != p {
                    *rows = w.ctx.try_recv(q, tag)?.try_into_u32()?;
                }
            }
            let next = mfg::expand_inputs(g, &slice, &serve_rows);
            let view = LevelView::new(g, slice, &serve_rows, &next).map_err(|r| {
                ServeError::Protocol(format!(
                    "level {k}: row {r} missing from the planned activation set"
                ))
            })?;
            plans.push(LevelPlan {
                view: Arc::new(view),
                active,
            });
            active = next;
        }
        plans.reverse();
        Ok(BatchPlan {
            levels: plans,
            active0: active,
        })
    }

    /// Rebuilds local row `li` of the layer-0 table from its input row.
    fn reproject_row(&self, li: usize) {
        let x = Var::constant(self.input.value().gather_rows(&[li as u32]));
        let degree = &self.w.graph.global_in_degree()[li..=li];
        let row = no_grad(|| self.model.layer_project(0, x, degree, None));
        self.table.set_row(li, &row);
    }

    /// The restricted rotation forward over a built plan: the training
    /// layer, once per level, over the level's view — level 0 from the
    /// resident projection table. Returns the top level's computed rows
    /// (ascending local query rows × classes).
    fn forward_mfg(&mut self, plan: &BatchPlan) -> Result<Tensor, ServeError> {
        let mut h_prev: Option<Var> = None;
        for (l, lvl) in plan.levels.iter().enumerate() {
            let view: View = lvl.view.clone();
            let out = no_grad(|| match h_prev.take() {
                None => {
                    let p = self.table.gather(&plan.active0, lvl.computed());
                    self.model.layer_aggregate(0, &self.w, &view, p)
                }
                Some(h) => self.model.layer_forward(l, &self.w, &view, &h),
            })?;
            let k = l + 1;
            if k == self.cfg.layers {
                return Ok(out.value_clone());
            }
            let computed = out.value();

            // Assemble the level's activation matrix from computed and
            // cached rows, then bank the computed rows.
            let mut h = Tensor::zeros(&[lvl.active.len(), computed.cols()]);
            let mut ci = 0usize;
            for (i, &r) in lvl.active.iter().enumerate() {
                if lvl.computed().get(ci) == Some(&r) {
                    h.row_mut(i).copy_from_slice(computed.row(ci));
                    ci += 1;
                } else {
                    let row = self.cache.get(k, r).ok_or_else(|| {
                        ServeError::Protocol(format!(
                            "level {k}: row {r} vanished from the cache mid-batch"
                        ))
                    })?;
                    h.row_mut(i).copy_from_slice(row);
                }
            }
            for (i, &r) in lvl.computed().iter().enumerate() {
                self.cache.insert(k, r, computed.row(i).to_vec());
            }
            h_prev = Some(Var::constant(h));
        }
        Err(ServeError::Unsupported("a zero-layer model".into()))
    }

    /// Ships each rank's `(query position, logits row)` pairs to rank 0
    /// and assembles the `[Q, C]` response there.
    fn gather_results(
        &self,
        num_queries: usize,
        owned: &[(u32, u32)],
        sorted_rows: &[u32],
        out: &Tensor,
        base: u64,
    ) -> Result<Option<Tensor>, ServeError> {
        let _phase = self.w.ctx.phase_scope(Phase::Collective);
        let (p, world, c) = (
            self.w.graph.rank(),
            self.w.graph.world(),
            self.cfg.num_classes,
        );
        let mut positions = Vec::with_capacity(owned.len());
        let mut values = Vec::with_capacity(owned.len() * c);
        for &(pos, li) in owned {
            let i = sorted_rows.binary_search(&li).map_err(|_| {
                ServeError::Protocol(format!(
                    "owned query row {li} missing from the batch output"
                ))
            })?;
            positions.push(pos);
            values.extend_from_slice(out.row(i));
        }
        if p != 0 {
            self.w
                .ctx
                .try_send(0, base + OFF_RES_POS, Payload::U32(positions))?;
            self.w
                .ctx
                .try_send(0, base + OFF_RES_VAL, Payload::F32(values))?;
            return Ok(None);
        }
        let mut result = Tensor::zeros(&[num_queries, c]);
        let mut fill = |positions: &[u32], values: &[f32]| -> Result<(), ServeError> {
            if values.len() != positions.len() * c {
                return Err(ServeError::Protocol(format!(
                    "result block carries {} values for {} positions",
                    values.len(),
                    positions.len()
                )));
            }
            for (j, &pos) in positions.iter().enumerate() {
                if pos as usize >= num_queries {
                    return Err(ServeError::Protocol(format!(
                        "result position {pos} out of range for {num_queries} queries"
                    )));
                }
                result
                    .row_mut(pos as usize)
                    .copy_from_slice(&values[j * c..(j + 1) * c]);
            }
            Ok(())
        };
        fill(&positions, &values)?;
        for q in 1..world {
            let pos = self.w.ctx.try_recv(q, base + OFF_RES_POS)?.try_into_u32()?;
            let vals = self.w.ctx.try_recv(q, base + OFF_RES_VAL)?.try_into_f32()?;
            fill(&pos, &vals)?;
        }
        Ok(Some(result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use sar_comm::{ChannelTransport, CostModel};
    use sar_core::Arch;
    use sar_graph::datasets;
    use sar_partition::multilevel;

    #[test]
    fn unsupported_configs_are_rejected() {
        let cfg = ModelConfig {
            arch: Arch::GraphSage { hidden: 8 },
            mode: Mode::Sar,
            layers: 2,
            in_dim: 6,
            num_classes: 3,
            dropout: 0.0,
            batch_norm: false,
            seed: 0,
        };
        assert!(check_servable(&cfg).is_ok());
        let reject = |edit: fn(&mut ModelConfig)| {
            let mut c = cfg.clone();
            edit(&mut c);
            matches!(check_servable(&c), Err(ServeError::Unsupported(_)))
        };
        assert!(reject(|c| c.batch_norm = true));
        assert!(reject(|c| c.mode = Mode::DomainParallel));
        assert!(reject(|c| c.layers = 0));
    }

    /// A worker checks an update's width itself: a record whose width
    /// disagrees with the features is a typed error naming the rank and
    /// both widths, and no part of it reaches the input.
    #[test]
    fn a_worker_rejects_an_update_of_the_wrong_width() {
        let d = datasets::products_like(120, 0);
        let part = multilevel(&d.graph, 2, 0);
        let graph = Arc::new(DistGraph::build_all(&d.graph, &part).swap_remove(1));
        let shard = Shard::build_all(&d, &part).swap_remove(1);
        let model_cfg = ModelConfig {
            arch: Arch::GraphSage { hidden: 8 },
            mode: Mode::Sar,
            layers: 2,
            in_dim: d.feat_dim(),
            num_classes: d.num_classes,
            dropout: 0.0,
            batch_norm: false,
            seed: 0,
        };
        let params: Vec<_> = DistModel::new(&model_cfg)
            .params()
            .iter()
            .map(|p| (p.shape(), p.value().data().to_vec()))
            .collect();
        let setup = EngineSetup {
            model_cfg,
            label_aug: false,
            cache_rows: 0,
            checkpoint: None,
        };
        let mut mesh = ChannelTransport::mesh(2);
        let ctx = |t: ChannelTransport| {
            WorkerCtx::new(Box::new(t), CostModel::default(), Duration::from_secs(5))
        };
        let worker = ctx(mesh.pop().expect("rank 1"));
        let origin = ctx(mesh.pop().expect("rank 0"));
        let mut engine = ServeEngine::new(worker, graph, &shard, d.num_nodes(), &setup, &params)
            .expect("builds");
        let before = engine.input.value_clone();

        // Opcode 2 (update), node, value count, values: one value short.
        let node = engine.w.graph.local_nodes()[0];
        let short = d.feat_dim() - 1;
        let mut record = vec![2u8];
        record.extend_from_slice(&node.to_le_bytes());
        record.extend_from_slice(&(short as u32).to_le_bytes());
        for _ in 0..short {
            record.extend_from_slice(&7.0f32.to_le_bytes());
        }
        let decoded = proto::decode_ctrl(&record).expect("the record decodes");
        assert_eq!(
            decoded,
            Ctrl::Update {
                node,
                values: vec![7.0; short]
            }
        );
        origin
            .try_send(1, batch_base(0) + OFF_CTRL, Payload::Bytes(record))
            .expect("send");

        match engine.step() {
            Err(ServeError::Protocol(msg)) => {
                let want = format!(
                    "rank 1: feature update carries {short} values, feature width is {}",
                    d.feat_dim()
                );
                assert_eq!(msg, want);
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_eq!(
            *engine.input.value(),
            before,
            "a malformed update was applied"
        );
    }
}
