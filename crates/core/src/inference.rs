//! Distributed full-graph inference with a trained (checkpointed) model.
//!
//! Runs the forward pass only, under any execution [`Mode`](crate::Mode);
//! with SAR modes the per-worker memory bound holds exactly as in
//! training, so inference over a graph that doesn't fit one machine works
//! the same way. This is the "exact full-batch baseline" use-case the
//! paper's conclusion advertises.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CostModel};
use sar_graph::Dataset;
use sar_partition::Partitioning;
use sar_tensor::{no_grad, Tensor, Var};

use crate::model::{DistModel, ModelConfig};
use crate::shard::Shard;
use crate::worker::Worker;
use crate::DistGraph;

/// Why a checkpoint + configuration pair cannot be run.
///
/// A resident server loads checkpoints over its lifetime, so a bad one
/// must surface as a value the caller can report and survive — not a
/// panic that takes the whole rotation down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The checkpoint's parameter count does not match the model built
    /// from the configuration.
    ParamCount {
        /// Parameters the configured model declares.
        expected: usize,
        /// Parameters the checkpoint carries.
        got: usize,
    },
    /// Parameter `index` has the wrong shape for the configured model.
    ParamShape {
        /// Position in [`DistModel::params`] order.
        index: usize,
        /// Shape the configured model declares.
        expected: Vec<usize>,
        /// Shape the checkpoint carries.
        got: Vec<usize>,
    },
    /// The partitioning does not cover the dataset's node set.
    PartitionCoverage {
        /// Nodes in the dataset.
        nodes: usize,
        /// Nodes the partitioning assigns.
        assigned: usize,
    },
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::ParamCount { expected, got } => write!(
                f,
                "checkpoint does not match the model configuration: \
                 model has {expected} parameters, checkpoint has {got}"
            ),
            InferError::ParamShape {
                index,
                expected,
                got,
            } => write!(
                f,
                "parameter {index}: checkpoint shape {got:?} != model shape {expected:?}"
            ),
            InferError::PartitionCoverage { nodes, assigned } => write!(
                f,
                "partitioning does not cover the dataset: \
                 {assigned} nodes assigned, dataset has {nodes}"
            ),
        }
    }
}

impl std::error::Error for InferError {}

/// Validates a raw parameter list against the model a configuration
/// builds: count first, then per-parameter shapes in
/// [`DistModel::params`] order.
///
/// Shared by [`try_infer`] and the serving tier, so every path that
/// installs checkpoint values performs the same checks *before* touching
/// any resident state.
///
/// # Errors
///
/// [`InferError::ParamCount`] or [`InferError::ParamShape`] naming the
/// first mismatching parameter.
pub fn validate_params(
    model_cfg: &ModelConfig,
    params: &[(Vec<usize>, Vec<f32>)],
) -> Result<(), InferError> {
    DistModel::new(model_cfg).set_params(params)
}

/// Fallible [`infer`]: validates the checkpoint against the model
/// configuration and the partitioning against the dataset *before*
/// spinning up the cluster, so a bad checkpoint comes back as a typed
/// error instead of a worker panic.
///
/// # Errors
///
/// [`InferError`] naming the first mismatch found.
pub fn try_infer(
    dataset: &Dataset,
    partitioning: &Partitioning,
    cost: CostModel,
    model_cfg: &ModelConfig,
    params: &[(Vec<usize>, Vec<f32>)],
    label_aug: bool,
) -> Result<Tensor, InferError> {
    if partitioning.assignment().len() != dataset.num_nodes() {
        return Err(InferError::PartitionCoverage {
            nodes: dataset.num_nodes(),
            assigned: partitioning.assignment().len(),
        });
    }
    let mut cfg = model_cfg.clone();
    cfg.in_dim = dataset.feat_dim() + if label_aug { dataset.num_classes } else { 0 };
    validate_params(&cfg, params)?;

    let world = partitioning.num_parts();
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&dataset.graph, partitioning)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let shards = Arc::new(Shard::build_all(dataset, partitioning));
    let cfg = Arc::new(cfg);
    let params = Arc::new(params.to_vec());
    let n = dataset.num_nodes();
    let c = dataset.num_classes;

    let outcomes = Cluster::new(world, cost).run(move |ctx| {
        let rank = ctx.rank();
        let shard = &shards[rank];
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let model = DistModel::new(&cfg);
        // Count and shapes were validated above, before any worker ran.
        if let Err(e) = model.set_params(&params) {
            panic!("worker {rank}: {e}");
        }

        // Inference-time augmentation: every training node sees its label.
        let input = shard.input_tensor(label_aug.then_some(&shard.train_mask));
        let mut rng = StdRng::seed_from_u64(0); // dropout is off in eval
        let logits = no_grad(|| model.forward(&w, &Var::constant(input), false, &mut rng));
        (shard.global_ids.clone(), logits.value_clone().into_data())
    });

    let mut logits = Tensor::zeros(&[n, c]);
    for o in &outcomes {
        let (ids, data) = &o.result;
        logits.scatter_add_rows(ids, &Tensor::from_vec(&[ids.len(), c], data.clone()));
    }
    Ok(logits)
}

/// Runs distributed full-graph inference and returns the `[n, C]` logits.
///
/// * `params` — trained parameter values in
///   [`DistModel::params`] order, e.g. a
///   [`RunReport::final_params`](crate::RunReport) or a loaded checkpoint.
/// * `label_aug` — must match training: when `true`, all training nodes'
///   labels are fed as input features (the paper's inference-time
///   augmentation).
///
/// # Panics
///
/// Panics if the parameter list does not match the model configuration or
/// the partitioning does not cover the dataset. Long-lived callers use
/// [`try_infer`], which reports the same conditions as an [`InferError`].
pub fn infer(
    dataset: &Dataset,
    partitioning: &Partitioning,
    cost: CostModel,
    model_cfg: &ModelConfig,
    params: &[(Vec<usize>, Vec<f32>)],
    label_aug: bool,
) -> Tensor {
    try_infer(dataset, partitioning, cost, model_cfg, params, label_aug)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arch, Mode};
    use sar_graph::datasets;
    use sar_partition::random;

    fn cfg() -> ModelConfig {
        ModelConfig {
            arch: Arch::GraphSage { hidden: 8 },
            mode: Mode::Sar,
            layers: 2,
            in_dim: 0, // set from the dataset by try_infer
            num_classes: 0,
            dropout: 0.0,
            batch_norm: false,
            jumping_knowledge: false,
            seed: 0,
        }
    }

    fn raw_params(cfg: &ModelConfig) -> Vec<(Vec<usize>, Vec<f32>)> {
        DistModel::new(cfg)
            .params()
            .iter()
            .map(|p| (p.shape(), p.value().data().to_vec()))
            .collect()
    }

    #[test]
    fn bad_param_count_is_a_typed_error() {
        let d = datasets::products_like(60, 0);
        let p = random(&d.graph, 2, 0);
        let mut c = cfg();
        c.num_classes = d.num_classes;
        let mut resolved = c.clone();
        resolved.in_dim = d.feat_dim();
        let mut params = raw_params(&resolved);
        params.pop();
        match try_infer(&d, &p, CostModel::default(), &c, &params, false) {
            Err(InferError::ParamCount { expected, got }) => {
                assert_eq!(got, expected - 1);
            }
            other => panic!("expected ParamCount, got {other:?}"),
        }
    }

    #[test]
    fn bad_param_shape_names_the_index() {
        let d = datasets::products_like(60, 1);
        let p = random(&d.graph, 2, 1);
        let mut c = cfg();
        c.num_classes = d.num_classes;
        let mut resolved = c.clone();
        resolved.in_dim = d.feat_dim();
        let mut params = raw_params(&resolved);
        params[1] = (vec![3, 3], vec![0.0; 9]);
        match try_infer(&d, &p, CostModel::default(), &c, &params, false) {
            Err(InferError::ParamShape { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected ParamShape, got {other:?}"),
        }
    }

    #[test]
    fn partition_coverage_is_a_typed_error() {
        let d = datasets::products_like(60, 2);
        let small = datasets::products_like(40, 2);
        let p = random(&small.graph, 2, 2);
        let mut c = cfg();
        c.num_classes = d.num_classes;
        let mut resolved = c.clone();
        resolved.in_dim = d.feat_dim();
        let params = raw_params(&resolved);
        match try_infer(&d, &p, CostModel::default(), &c, &params, false) {
            Err(InferError::PartitionCoverage { nodes, assigned }) => {
                assert_eq!((nodes, assigned), (60, 40));
            }
            other => panic!("expected PartitionCoverage, got {other:?}"),
        }
    }
}
