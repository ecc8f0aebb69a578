//! Per-rank driver for real multi-process *serving* over the TCP
//! transport.
//!
//! The training driver ([`crate::distrun`]) establishes the contract:
//! nothing is shared between OS processes, so every rank rebuilds the
//! dataset, the partitioning and the model deterministically from the
//! shared workload flags. Serving reuses that contract verbatim — the
//! same [`Workload::rank_state`] rebuilds the same graph/shard pair in
//! every `sar-serve` process, and the same [`RankSeat::join_mesh`] forms
//! the mesh — and adds two serving-specific pieces:
//!
//! * **parameters** come from a checkpoint file when `--checkpoint` is
//!   given (each rank reads the same file through a throwaway
//!   [`DistModel`], which validates count and shapes, so all ranks hold
//!   bit-identical parameters) or from the seeded deterministic
//!   initialization otherwise;
//! * **rank 0** binds a second listener for *clients*, publishes its
//!   address through the same atomic-rename file mechanism the
//!   rendezvous uses, and runs the batching front-end
//!   ([`sar_serve::serve`]) until a client requests shutdown, while the
//!   other ranks sit in [`sar_serve::worker_loop`].
//!
//! Inference-time restrictions are resolved here, not left to the
//! caller: serving always runs with dropout 0 and batch normalization
//! off ([`sar_serve`] rejects batch norm because `DistBatchNorm` keeps
//! no eval-mode statistics), so a workload's training-oriented defaults
//! cannot produce an unservable configuration.

use std::net::TcpListener;
use std::path::{Path, PathBuf};

use sar_core::{checkpoint, validate_params, DistModel, ModelConfig};
use sar_graph::Dataset;
use sar_serve::{
    serve, worker_loop, EngineSetup, RawParams, ServeEngine, ServeSummary, ServerConfig,
};

use crate::distrun::Workload;
use crate::launcher::RankSeat;

/// Per-process serving options that are *not* part of the shared
/// workload.
#[derive(Debug, Clone)]
pub struct ServeRankOpts {
    /// Checkpoint to load parameters from (`None` = seeded init). Also
    /// becomes the engine's reload source.
    pub checkpoint: Option<PathBuf>,
    /// File through which rank 0 publishes its *client* listener
    /// address (atomic rename, same as the rendezvous file).
    pub client_addr_file: Option<PathBuf>,
    /// Front-end batching knobs (rank 0 only).
    pub server: ServerConfig,
    /// Embedding-cache row budget per rank (0 disables caching).
    pub cache_rows: usize,
}

/// Resolves the serving [`ModelConfig`] from workload flags: identical
/// to the training configuration except that inference runs with
/// dropout 0 and batch normalization off.
///
/// # Errors
///
/// Rejects unknown architecture/mode names (via
/// [`Workload::train_config`]).
pub fn serve_model_config(workload: &Workload, dataset: &Dataset) -> Result<ModelConfig, String> {
    let mut cfg = workload.train_config(dataset)?.model;
    cfg.dropout = 0.0;
    cfg.batch_norm = false;
    Ok(cfg)
}

/// Builds the raw `(shape, values)` parameter list every rank serves
/// from: the seeded deterministic initialization for `cfg`, overwritten
/// from `checkpoint` when one is given: read
/// ([`checkpoint::read_raw_params`]), then count and shapes validated
/// against the configuration ([`validate_params`]) before any rank
/// commits to serving them.
///
/// # Errors
///
/// Names the checkpoint file on any read or format failure.
pub fn load_or_init_params(
    cfg: &ModelConfig,
    dataset: &Dataset,
    label_aug: bool,
    checkpoint: Option<&Path>,
) -> Result<RawParams, String> {
    let mut resolved = cfg.clone();
    resolved.in_dim = dataset.feat_dim() + if label_aug { dataset.num_classes } else { 0 };
    let Some(path) = checkpoint else {
        let init = DistModel::new(&resolved).params();
        return Ok(init
            .iter()
            .map(|p| (p.shape(), p.value().data().to_vec()))
            .collect());
    };
    let file = std::fs::File::open(path)
        .map_err(|e| format!("cannot open checkpoint {}: {e}", path.display()))?;
    let bad = |e: &dyn std::fmt::Display| format!("cannot load checkpoint {}: {e}", path.display());
    let params = checkpoint::read_raw_params(file).map_err(|e| bad(&e))?;
    validate_params(&resolved, &params).map_err(|e| bad(&e))?;
    Ok(params)
}

/// The whole per-process serving lifecycle: rebuild state from the
/// workload flags, load or initialize parameters, form the TCP mesh,
/// then serve — rank 0 as the client front-end, the rest as resident
/// workers — until a client requests shutdown. Returns the front-end
/// summary on rank 0, `None` elsewhere.
///
/// # Errors
///
/// Flag, checkpoint, rendezvous and transport errors, each naming this
/// rank.
pub fn run_serve_rank(
    seat: &RankSeat,
    opts: &ServeRankOpts,
    workload: &Workload,
) -> Result<Option<ServeSummary>, String> {
    let rank = seat.rank;
    sar_tensor::simd::set_mode(workload.simd_mode()?);
    sar_tensor::pool::set_threads(workload.threads);

    let state = workload.rank_state(rank, seat.world)?;
    let dataset = &state.dataset;
    let cfg = serve_model_config(workload, dataset)?;
    let params = load_or_init_params(
        &cfg,
        dataset,
        workload.label_aug,
        opts.checkpoint.as_deref(),
    )
    .map_err(|e| format!("rank {rank}: {e}"))?;
    let ctx = seat.join_mesh()?;

    let setup = EngineSetup {
        model_cfg: cfg,
        label_aug: workload.label_aug,
        cache_rows: opts.cache_rows,
        checkpoint: opts.checkpoint.clone(),
    };
    let mut engine = ServeEngine::new(
        ctx,
        state.graph,
        &state.shard,
        dataset.num_nodes(),
        &setup,
        &params,
    )
    .map_err(|e| format!("rank {rank}: cannot build serving engine: {e}"))?;

    if rank == 0 {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| format!("rank 0: cannot bind client listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("rank 0: cannot read client listener address: {e}"))?;
        if let Some(path) = &opts.client_addr_file {
            crate::launcher::write_rendezvous_addr(path, &addr)
                .map_err(|e| format!("rank 0: cannot write client address file: {e}"))?;
        }
        eprintln!("[sar-serve] rank 0 front-end listening on {addr}");
        let summary = serve(&mut engine, listener, &opts.server)
            .map_err(|e| format!("rank 0: front-end failed: {e}"))?;
        Ok(Some(summary))
    } else {
        worker_loop(&mut engine).map_err(|e| format!("rank {rank}: worker loop failed: {e}"))?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_graph::datasets;

    fn workload() -> Workload {
        Workload {
            nodes: 120,
            layers: 2,
            ..Workload::default()
        }
    }

    #[test]
    fn serve_config_strips_training_only_pieces() {
        let d = datasets::products_like(120, 0);
        let cfg = serve_model_config(&workload(), &d).unwrap();
        assert_eq!(cfg.dropout, 0.0);
        assert!(!cfg.batch_norm);
        assert_eq!(cfg.layers, 2);
    }

    #[test]
    fn params_round_trip_through_a_checkpoint_file() {
        let d = datasets::products_like(120, 0);
        let cfg = serve_model_config(&workload(), &d).unwrap();
        let init = load_or_init_params(&cfg, &d, true, None).unwrap();
        let path = std::env::temp_dir().join(format!("sar-serverun-{}.ckpt", std::process::id()));
        let f = std::fs::File::create(&path).unwrap();
        checkpoint::save_raw_params(&init, std::io::BufWriter::new(f)).unwrap();
        let loaded = load_or_init_params(&cfg, &d, true, Some(&path)).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(init.len(), loaded.len());
        for ((s0, v0), (s1, v1)) in init.iter().zip(&loaded) {
            assert_eq!(s0, s1);
            assert_eq!(v0.len(), v1.len());
            assert!(v0.iter().zip(v1).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn missing_checkpoint_is_a_named_error() {
        let d = datasets::products_like(120, 0);
        let cfg = serve_model_config(&workload(), &d).unwrap();
        let err = load_or_init_params(&cfg, &d, true, Some(Path::new("/nonexistent/x.ckpt")))
            .unwrap_err();
        assert!(err.contains("/nonexistent/x.ckpt"), "{err}");
    }
}
