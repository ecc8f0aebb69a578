//! The distributed GNN models the paper trains: 3-layer GraphSage and
//! 3-layer GAT, each runnable under three execution modes.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_comm::TransportError;
use sar_nn::graph_autograd::{
    edge_softmax, gather_dst, gather_src, head_project, mean_heads, spmm_multihead, spmm_sum,
};
use sar_nn::Linear;
use sar_tensor::{init, Tensor, Var};

use crate::dist_bn::DistBatchNorm;
use crate::domain_parallel::halo_fetch;
use crate::inference::InferError;
use crate::seq_agg::{gat_aggregate, sage_aggregate, FakMode};
use crate::view::{ShardView, View};
use crate::worker::Worker;

/// Model architecture (matching §4.2: 3-layer GraphSage with hidden 256,
/// or 3-layer GAT with hidden 128 and 4 heads; GCN is an extension beyond
/// the paper's two models, exercising the same case-1 SAR path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// GraphSage (Eq. 2).
    GraphSage {
        /// Hidden feature size.
        hidden: usize,
    },
    /// GAT (Eq. 3).
    Gat {
        /// Hidden feature size per attention head.
        head_dim: usize,
        /// Number of attention heads.
        heads: usize,
    },
    /// GCN (Kipf & Welling): `h' = σ(D^{-1/2} A D^{-1/2} h W)`. Like
    /// GraphSage, its aggregation is linear in `z`, so SAR's backward pass
    /// needs no refetch (case 1).
    Gcn {
        /// Hidden feature size.
        hidden: usize,
    },
}

/// How the message-passing step of each layer executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Vanilla domain-parallel training: all boundary features fetched at
    /// once and kept on the tape (Fig. 1a).
    DomainParallel,
    /// Sequential aggregation and rematerialization with DGL-style
    /// two-step attention kernels ("SAR" in the figures).
    Sar,
    /// SAR with fused attention kernels ("SAR+FAK"). Identical to
    /// [`Mode::Sar`] for GraphSage, whose aggregation has no
    /// per-edge intermediates.
    SarFused,
}

/// Distributed model hyperparameters.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Architecture.
    pub arch: Arch,
    /// Execution mode of the aggregation step.
    pub mode: Mode,
    /// Number of GNN layers.
    pub layers: usize,
    /// Input feature dimension (including label-augmentation channels).
    pub in_dim: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Dropout probability between layers.
    pub dropout: f32,
    /// Whether to apply distributed batch normalization between layers.
    pub batch_norm: bool,
    /// Jumping-knowledge skip connections (Xu et al. 2018): classify from
    /// the concatenation of every layer's output instead of the last
    /// layer's alone. Demonstrates SAR on the "more complex topologies
    /// that make use of skip connections" that §2 notes prior full-batch
    /// systems cannot handle.
    pub jumping_knowledge: bool,
    /// Parameter-initialization seed — **identical on every worker**, so
    /// replicated parameters start in sync without a broadcast.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's GraphSage configuration (3 layers, hidden 256, BN +
    /// dropout).
    pub fn paper_graphsage(in_dim: usize, num_classes: usize, mode: Mode) -> Self {
        ModelConfig {
            arch: Arch::GraphSage { hidden: 256 },
            mode,
            layers: 3,
            in_dim,
            num_classes,
            dropout: 0.3,
            batch_norm: true,
            jumping_knowledge: false,
            seed: 0,
        }
    }

    /// The paper's GAT configuration (3 layers, hidden 128 per head, 4
    /// heads, BN + dropout).
    pub fn paper_gat(in_dim: usize, num_classes: usize, mode: Mode) -> Self {
        ModelConfig {
            arch: Arch::Gat {
                head_dim: 128,
                heads: 4,
            },
            mode,
            layers: 3,
            in_dim,
            num_classes,
            dropout: 0.3,
            batch_norm: true,
            jumping_knowledge: false,
            seed: 0,
        }
    }
}

enum DistLayer {
    Sage {
        lin_neigh: Linear,
        lin_res: Linear,
        activation: bool,
    },
    Gcn {
        lin: Linear,
        activation: bool,
    },
    Gat {
        lin: Linear,
        a_dst: Var,
        a_src: Var,
        heads: usize,
        slope: f32,
        concat: bool,
        activation: bool,
    },
}

impl DistLayer {
    fn params(&self) -> Vec<Var> {
        match self {
            DistLayer::Sage {
                lin_neigh, lin_res, ..
            } => {
                let mut p = lin_neigh.params();
                p.extend(lin_res.params());
                p
            }
            DistLayer::Gcn { lin, .. } => lin.params(),
            DistLayer::Gat {
                lin, a_dst, a_src, ..
            } => {
                let mut p = lin.params();
                p.push(a_dst.clone());
                p.push(a_src.clone());
                p
            }
        }
    }

    /// One GNN layer over `view`: `h` carries one row per view input, the
    /// result one row per view destination. Destinations are a subset of
    /// the inputs; the residual, attention-destination and degree terms
    /// read their rows through the view's `dst_map` — skipped when it is
    /// the identity (the full graph), where this is exactly the classic
    /// square layer. Domain-parallel mode is the full-graph baseline by
    /// definition and always runs over the worker's own graph.
    fn forward(
        &self,
        w: &Rc<Worker>,
        view: &View,
        h: &Var,
        mode: Mode,
    ) -> Result<Var, TransportError> {
        let at_dst = |x: &Var| match view.dst_map() {
            None => x.clone(),
            Some(map) => x.gather_rows(map),
        };
        // The linear (case 1) aggregation GraphSage and GCN share.
        let sum_aggregate = |z: &Var| match mode {
            Mode::DomainParallel => Ok(spmm_sum(w.graph.halo_graph(), &halo_fetch(w, z))),
            Mode::Sar | Mode::SarFused => sage_aggregate(w, view, z),
        };
        let out = match self {
            DistLayer::Sage {
                lin_neigh, lin_res, ..
            } => {
                let z = lin_neigh.forward(h);
                let [_, inv_deg] = degree_scales(&**view, |d| 1.0 / d);
                let agg_sum = sum_aggregate(&z)?;
                agg_sum.mul_col(&inv_deg).add(&lin_res.forward(&at_dst(h)))
            }
            DistLayer::Gcn { lin, .. } => {
                // Symmetric normalization D^{-1/2} A D^{-1/2} with global
                // degrees, split around the (linear) aggregation.
                let [inv_sqrt_in, inv_sqrt_dst] = degree_scales(&**view, |d| 1.0 / d.sqrt());
                let z = lin.forward(h).mul_col(&inv_sqrt_in);
                sum_aggregate(&z)?.mul_col(&inv_sqrt_dst)
            }
            DistLayer::Gat {
                lin,
                a_dst,
                a_src,
                heads,
                slope,
                concat,
                ..
            } => {
                let z = lin.forward(h);
                let s_dst = head_project(&at_dst(&z), a_dst, *heads);
                let fak = match mode {
                    Mode::DomainParallel => None,
                    Mode::Sar => Some(FakMode::TwoStep),
                    Mode::SarFused => Some(FakMode::Fused),
                };
                let out = match fak {
                    None => {
                        // Vanilla DGL-style pipeline over the halo graph:
                        // every [E, H] intermediate is materialized and
                        // kept on the tape, as in Fig. 1a.
                        let hg = w.graph.halo_graph();
                        let halo = halo_fetch(w, &z);
                        let s_src = head_project(&halo, a_src, *heads);
                        let scores = gather_dst(hg, &s_dst)
                            .add(&gather_src(hg, &s_src))
                            .leaky_relu(*slope);
                        let alpha = edge_softmax(hg, &scores);
                        spmm_multihead(hg, &alpha, &halo)
                    }
                    Some(fak) => gat_aggregate(w, view, &z, &s_dst, a_src, *heads, *slope, fak)?,
                };
                if *concat {
                    out
                } else {
                    mean_heads(&out, *heads)
                }
            }
        };
        let (DistLayer::Sage { activation, .. }
        | DistLayer::Gcn { activation, .. }
        | DistLayer::Gat { activation, .. }) = self;
        Ok(if *activation { out.relu() } else { out })
    }
}

/// The per-row degree normalizer `f(|N(i)|)` (0 for isolated nodes) over
/// `view`, for every input row and for every destination row.
fn degree_scales(view: &dyn ShardView, f: impl Fn(f32) -> f32) -> [Var; 2] {
    let col = |v: Vec<f32>| Var::constant(Tensor::from_vec(&[v.len()], v));
    let inputs: Vec<f32> = view
        .in_degree()
        .iter()
        .map(|&d| if d > 0.0 { f(d) } else { 0.0 })
        .collect();
    match view.dst_map() {
        None => {
            let all = col(inputs);
            [all.clone(), all]
        }
        Some(map) => {
            let dst = map.iter().map(|&i| inputs[i as usize]).collect();
            [col(inputs), col(dst)]
        }
    }
}

/// A distributed multi-layer GNN replicated across workers.
///
/// Every worker constructs the model with the same seed, so parameters
/// are bit-identical replicas; gradients are summed with an all-reduce
/// after each backward pass and optimizer steps stay in lockstep.
pub struct DistModel {
    cfg: ModelConfig,
    layers: Vec<DistLayer>,
    bns: Vec<DistBatchNorm>,
    /// Final classifier over the concatenated layer outputs when
    /// jumping-knowledge is enabled.
    jk_classifier: Option<Linear>,
}

impl DistModel {
    /// Builds the model from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn new(cfg: &ModelConfig) -> Self {
        assert!(cfg.layers > 0, "model needs at least one layer");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut layers = Vec::with_capacity(cfg.layers);
        let mut bns = Vec::new();
        let jk = cfg.jumping_knowledge;
        let mut jk_width = 0usize;
        for l in 0..cfg.layers {
            // With jumping knowledge, every layer keeps the hidden width
            // and a separate classifier maps the concatenation to classes.
            let last = !jk && l == cfg.layers - 1;
            match cfg.arch {
                Arch::GraphSage { hidden } | Arch::Gcn { hidden } => {
                    let in_dim = if l == 0 { cfg.in_dim } else { hidden };
                    let out_dim = if last { cfg.num_classes } else { hidden };
                    if matches!(cfg.arch, Arch::GraphSage { .. }) {
                        layers.push(DistLayer::Sage {
                            lin_neigh: Linear::new(in_dim, out_dim, false, &mut rng),
                            lin_res: Linear::new(in_dim, out_dim, true, &mut rng),
                            activation: !last,
                        });
                    } else {
                        layers.push(DistLayer::Gcn {
                            lin: Linear::new(in_dim, out_dim, false, &mut rng),
                            activation: !last,
                        });
                    }
                    jk_width += out_dim;
                    if !last && cfg.batch_norm {
                        bns.push(DistBatchNorm::new(out_dim));
                    }
                }
                Arch::Gat { head_dim, heads } => {
                    let in_dim = if l == 0 { cfg.in_dim } else { heads * head_dim };
                    // The final layer predicts classes with averaged heads.
                    let d = if last { cfg.num_classes } else { head_dim };
                    let width = heads * d;
                    let std = (2.0 / d as f32).sqrt();
                    layers.push(DistLayer::Gat {
                        lin: Linear::new(in_dim, width, false, &mut rng),
                        a_dst: Var::parameter(init::randn(&[width], std, &mut rng)),
                        a_src: Var::parameter(init::randn(&[width], std, &mut rng)),
                        heads,
                        slope: 0.2,
                        concat: !last,
                        activation: !last,
                    });
                    jk_width += if last { cfg.num_classes } else { width };
                    if !last && cfg.batch_norm {
                        bns.push(DistBatchNorm::new(width));
                    }
                }
            }
        }
        let jk_classifier = jk.then(|| Linear::new(jk_width, cfg.num_classes, true, &mut rng));
        DistModel {
            cfg: cfg.clone(),
            layers,
            bns,
            jk_classifier,
        }
    }

    /// All trainable parameters, in a deterministic order shared by every
    /// worker (required for the flat gradient all-reduce).
    pub fn params(&self) -> Vec<Var> {
        let mut p: Vec<Var> = self.layers.iter().flat_map(DistLayer::params).collect();
        for bn in &self.bns {
            p.extend(bn.params());
        }
        if let Some(c) = &self.jk_classifier {
            p.extend(c.params());
        }
        p
    }

    /// Width of the projected feature rows layer `l`'s rotation fetches.
    pub fn fetch_width(&self, l: usize) -> usize {
        match &self.layers[l] {
            DistLayer::Sage { lin_neigh: lin, .. }
            | DistLayer::Gcn { lin, .. }
            | DistLayer::Gat { lin, .. } => lin.out_dim(),
        }
    }

    /// Installs raw `(shape, values)` parameters (a checkpoint, a
    /// [`RunReport::final_params`](crate::RunReport)) after checking count
    /// and shapes against this model — all or nothing.
    ///
    /// # Errors
    ///
    /// [`InferError::ParamCount`] or [`InferError::ParamShape`] naming the
    /// first mismatch; no parameter is touched in that case.
    pub fn set_params(&self, params: &[(Vec<usize>, Vec<f32>)]) -> Result<(), InferError> {
        let own = self.params();
        if own.len() != params.len() {
            return Err(InferError::ParamCount {
                expected: own.len(),
                got: params.len(),
            });
        }
        for (index, (p, (shape, _))) in own.iter().zip(params).enumerate() {
            if &p.shape() != shape {
                return Err(InferError::ParamShape {
                    index,
                    expected: p.shape(),
                    got: shape.clone(),
                });
            }
        }
        for (p, (shape, data)) in own.iter().zip(params) {
            p.set_value(Tensor::from_vec(shape, data.clone()));
        }
        Ok(())
    }

    /// Runs GNN layer `l` alone over `view`: `h` holds one row per view
    /// input, the result one per view destination. No batch norm, dropout,
    /// classifier or ledger layer scope — this is the unit a
    /// message-flow-graph executor (the serving tier) chains level by
    /// level.
    ///
    /// Collective: every worker must call it in lockstep.
    ///
    /// # Errors
    ///
    /// Whatever the layer's forward exchange reports.
    pub fn layer_forward(
        &self,
        l: usize,
        w: &Rc<Worker>,
        view: &View,
        h: &Var,
    ) -> Result<Var, TransportError> {
        self.layers[l].forward(w, view, h, self.cfg.mode)
    }

    /// Runs the model on this worker's local features `x`
    /// (`[n_local, in_dim]`) over its full graph, returning local logits
    /// (`[n_local, num_classes]`).
    ///
    /// Collective: every worker must call `forward` in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong shape, or — naming this rank — if a
    /// peer dies or sends a malformed block mid-exchange.
    pub fn forward(&self, w: &Rc<Worker>, x: &Var, training: bool, rng: &mut impl Rng) -> Var {
        let view = w.view();
        let mut h = x.clone();
        let mut jk_outputs = Vec::new();
        for l in 0..self.layers.len() {
            // Attribute this layer's traffic/CPU to layer `l` in the
            // observability ledger; aggregation Functions recorded here
            // capture the layer and restore it during backward.
            let _layer_scope = w.ctx.layer_scope(l as u16);
            h = self
                .layer_forward(l, w, &view, &h)
                .unwrap_or_else(|e| panic!("worker {} layer {l} forward: {e}", w.rank()));
            if self.cfg.jumping_knowledge {
                jk_outputs.push(h.clone());
            }
            if l + 1 < self.layers.len() {
                if self.cfg.batch_norm {
                    h = self.bns[l].forward(w, &h);
                }
                if self.cfg.dropout > 0.0 {
                    h = h.dropout(self.cfg.dropout, training, rng);
                }
            }
        }
        match &self.jk_classifier {
            Some(classifier) => classifier.forward(&sar_tensor::hstack(&jk_outputs)),
            None => h,
        }
    }
}
