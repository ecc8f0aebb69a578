//! Full-batch distributed training loop (the experimental harness of §4).
//!
//! Implements the paper's training recipe: 100 epochs with a decaying
//! learning rate, Adam, distributed batch normalization and dropout
//! between layers, the label-augmentation / masked-label-prediction scheme
//! of Shi et al. 2020, and optional Correct & Smooth post-processing —
//! all running under any [`Mode`](crate::Mode) (domain-parallel, SAR,
//! SAR+FAK) so the same harness regenerates every figure.

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{thread_cpu_secs, Cluster, Codec, CommStats, CostModel, WorkerCtx};
use sar_graph::Dataset;
use sar_nn::loss::{correct_count, cross_entropy_masked};
use sar_nn::{Adam, CsConfig, LrSchedule};
use sar_partition::Partitioning;
use sar_tensor::{MemoryTracker, PeakSite, Tensor, Var};

use crate::dist_cs::dist_correct_and_smooth;
use crate::model::{DistModel, ModelConfig};
use crate::protocol::Protocol;
use crate::shard::Shard;
use crate::worker::Worker;
use crate::DistGraph;

/// Training-run hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Model configuration. `in_dim` is overwritten by the trainer to
    /// `feat_dim (+ num_classes with label augmentation)`.
    pub model: ModelConfig,
    /// Number of epochs.
    pub epochs: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Learning-rate schedule (the paper decays the rate over training).
    pub schedule: LrSchedule,
    /// Enable the label-augmentation / masked-label-prediction scheme.
    pub label_aug: bool,
    /// Fraction of training nodes whose label is fed as input each epoch.
    pub aug_frac: f64,
    /// Run Correct & Smooth after training.
    pub cs: Option<CsConfig>,
    /// Pipeline depth of the sequential fetch (§3.4): `k` staged blocks ⇒
    /// `(k+2)/N` memory. `0` is the strictly sequential 2/N path, `1` the
    /// paper's 3/N prefetch. Results are bitwise identical at every depth.
    pub prefetch_depth: usize,
    /// Seed for label augmentation and dropout.
    pub seed: u64,
    /// Intra-worker kernel threads (`sar_tensor::pool`). `0` and `1` both
    /// mean single-threaded; results are bitwise identical across thread
    /// counts (see DESIGN.md §8).
    pub threads: usize,
    /// Exchange protocol: the paper's exact SAR, or an approximate
    /// variant that trades accuracy for wire volume (see [`Protocol`]).
    /// Final evaluation always runs exact.
    pub protocol: Protocol,
    /// Wire codec for compressible point-to-point payloads (fetch,
    /// refetch, gradient routing). [`Codec::Raw`] is lossless and leaves
    /// results bitwise identical; lossy codecs reduce wire bytes at some
    /// accuracy cost. Logical byte ledgers are unaffected either way.
    pub codec: Codec,
}

/// Per-epoch measurements from one worker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochRecord {
    /// Global full-batch training loss.
    pub loss: f32,
    /// CPU seconds this worker spent computing during the epoch.
    pub compute_secs: f64,
    /// Simulated communication seconds charged this epoch.
    pub comm_secs: f64,
    /// Bytes this worker sent this epoch.
    pub sent_bytes: u64,
}

/// One worker's results. Paired with the [`CommStats`] snapshot taken
/// when [`run_worker`] returned, it is a rank's record: what
/// [`RunReport::from_ranks`] folds and [`RunReport::ranks`] keeps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerReport {
    /// Per-epoch measurements.
    pub epochs: Vec<EpochRecord>,
    /// Validation accuracy (global).
    pub val_acc: f64,
    /// Test accuracy (global).
    pub test_acc: f64,
    /// Test accuracy after Correct & Smooth (global), if enabled.
    pub test_acc_cs: Option<f64>,
    /// Peak live tensor bytes during steady-state training (measured from
    /// the start of the second epoch, excluding setup).
    pub steady_peak_bytes: usize,
    /// Where `steady_peak_bytes` was reached: the layer forward or the
    /// tape operation's backward that was running ([`PeakSite`]'s text).
    pub steady_peak_site: String,
    /// Final evaluation logits for this worker's nodes (row-major).
    pub logits: Vec<f32>,
    /// Global ids aligned with `logits` rows.
    pub global_ids: Vec<u32>,
    /// Trained parameter values (shape, data), populated on rank 0 only —
    /// replicas are identical, so one copy checkpoints the model.
    pub params: Option<Vec<(Vec<usize>, Vec<f32>)>>,
}

/// Aggregated results of a distributed training run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of workers.
    pub world: usize,
    /// Modeled epoch time: `max_p compute + max_p comm`, per epoch.
    pub epoch_times: Vec<f64>,
    /// The compute component of `epoch_times` (max over workers).
    pub epoch_compute: Vec<f64>,
    /// The simulated-communication component of `epoch_times`.
    pub epoch_comm: Vec<f64>,
    /// Global training loss per epoch.
    pub losses: Vec<f32>,
    /// Validation accuracy.
    pub val_acc: f64,
    /// Test accuracy.
    pub test_acc: f64,
    /// Test accuracy after C&S, if run.
    pub test_acc_cs: Option<f64>,
    /// Every rank's record, indexed by rank: its [`WorkerReport`] and its
    /// communication statistics for the whole run, including the
    /// per-phase / per-layer observability ledger ([`CommStats::ledger`]).
    /// Per-rank values are read from here and stored nowhere else.
    /// [`train`] moves node rows and parameters out of the records into
    /// [`RunReport::logits`] and [`RunReport::final_params`]; records
    /// gathered from other processes arrive without them.
    pub ranks: Vec<(WorkerReport, CommStats)>,
    /// Full-graph logits `[n, C]` reassembled from all workers.
    pub logits: Tensor,
    /// Trained parameter values (shape, data) in [`DistModel::params`]
    /// order, for checkpointing with
    /// [`checkpoint::save_raw_params`](crate::checkpoint::save_raw_params).
    pub final_params: Vec<(Vec<usize>, Vec<f32>)>,
}

impl RunReport {
    /// Aggregates per-rank results — each rank's [`WorkerReport`] with the
    /// [`CommStats`] snapshot taken when its [`run_worker`] returned,
    /// indexed by rank — into the run's report. [`train`] calls it on what
    /// its worker threads return; a multi-process launch calls it on rank
    /// 0 with what it gathered over the wire.
    ///
    /// Modeled epoch time is `max_p compute + max_p comm`. The global loss
    /// and accuracies are rank 0's (every rank holds the same all-reduced
    /// values). [`RunReport::logits`] and [`RunReport::final_params`] come
    /// back empty: node rows and parameters do not travel in a gather, so
    /// only [`train`], which holds every rank's in-process, fills them.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is empty or a rank holds fewer epochs than rank
    /// 0. Records read from another process are checked for both before
    /// they get here.
    pub fn from_ranks(ranks: Vec<(WorkerReport, CommStats)>) -> RunReport {
        let rank0 = &ranks[0].0;
        let max_over_ranks = |pick: fn(&EpochRecord) -> f64| -> Vec<f64> {
            (0..rank0.epochs.len())
                .map(|e| {
                    ranks
                        .iter()
                        .map(|(r, _)| pick(&r.epochs[e]))
                        .fold(0.0, f64::max)
                })
                .collect()
        };
        let epoch_compute = max_over_ranks(|rec| rec.compute_secs);
        let epoch_comm = max_over_ranks(|rec| rec.comm_secs);
        RunReport {
            world: ranks.len(),
            epoch_times: epoch_compute
                .iter()
                .zip(&epoch_comm)
                .map(|(compute, comm)| compute + comm)
                .collect(),
            epoch_compute,
            epoch_comm,
            losses: rank0.epochs.iter().map(|rec| rec.loss).collect(),
            val_acc: rank0.val_acc,
            test_acc: rank0.test_acc,
            test_acc_cs: rank0.test_acc_cs,
            ranks,
            logits: Tensor::zeros(&[0]),
            final_params: Vec::new(),
        }
    }

    /// Mean modeled epoch time over the steady-state epochs (skips the
    /// first epoch, which includes cache warm-up).
    pub fn avg_epoch_time(&self) -> f64 {
        let steady = &self.epoch_times[self.epoch_times.len().min(1)..];
        if steady.is_empty() {
            return self.epoch_times.iter().sum::<f64>() / self.epoch_times.len().max(1) as f64;
        }
        steady.iter().sum::<f64>() / steady.len() as f64
    }

    /// Largest per-worker steady-state peak, in bytes.
    pub fn max_peak_bytes(&self) -> usize {
        self.ranks
            .iter()
            .map(|(r, _)| r.steady_peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total bytes sent across the cluster over the whole run.
    pub fn total_sent_bytes(&self) -> u64 {
        self.ranks.iter().map(|(_, comm)| comm.total_sent()).sum()
    }
}

/// SplitMix64 — deterministic per-(seed, epoch, node) coin flips for the
/// label-augmentation mask, identical on every worker without
/// communication.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn is_augmented(seed: u64, epoch: u64, global_id: u32, frac: f64) -> bool {
    let h = splitmix64(seed ^ splitmix64(epoch) ^ (global_id as u64));
    (h as f64 / u64::MAX as f64) < frac
}

/// Sums every parameter's gradient across workers with one flat
/// all-reduce, writing the result back so all replicas step identically.
fn all_reduce_grads(w: &Worker, params: &[Var]) {
    let mut buf: Vec<f32> = Vec::new();
    let mut shapes = Vec::with_capacity(params.len());
    for p in params {
        let shape = p.shape();
        match p.grad() {
            Some(g) => buf.extend_from_slice(g.data()),
            None => buf.extend(std::iter::repeat_n(0.0, shape.iter().product())),
        }
        shapes.push(shape);
    }
    w.ctx.all_reduce_sum(&mut buf);
    let mut off = 0;
    for (p, shape) in params.iter().zip(shapes) {
        let len: usize = shape.iter().product();
        let g = Tensor::from_vec(&shape, buf[off..off + len].to_vec());
        p.zero_grad();
        p.accumulate_grad(&g);
        off += len;
    }
}

/// The per-worker SPMD training program.
///
/// Exposed so integration tests, benchmarks and the multi-process
/// launcher can compose it with any [`Transport`](sar_comm::Transport)
/// backend; most callers should use [`train`]. Takes the context as an
/// `Rc` so the caller can keep a clone and read (or ship) the accumulated
/// statistics after training.
pub fn run_worker(
    ctx: Rc<WorkerCtx>,
    graph: Arc<DistGraph>,
    shard: &Shard,
    cfg: &TrainConfig,
) -> WorkerReport {
    // Size this worker's kernel thread pool. `run_worker` executes on the
    // worker's own thread under every backend (sim threads and TCP
    // processes alike), so the pool lands where the kernels run.
    sar_tensor::pool::set_threads(cfg.threads.max(1));
    let w = Worker::from_shared(ctx, graph, cfg.prefetch_depth);
    w.ctx.set_codec(cfg.codec);
    w.set_protocol(cfg.protocol);
    let mut model_cfg = cfg.model.clone();
    model_cfg.in_dim = shard.feat_dim + if cfg.label_aug { shard.num_classes } else { 0 };
    let model = DistModel::new(&model_cfg);
    let params = model.params();
    let mut opt = Adam::new(params.clone(), cfg.lr).with_schedule(cfg.schedule);
    let mut dropout_rng =
        StdRng::seed_from_u64(cfg.seed ^ (w.rank() as u64).wrapping_mul(0x9e3779b97f4a7c15));

    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut steady_peak = (0usize, PeakSite::Other);
    let note_peak = |steady: &mut (usize, PeakSite)| {
        let stats = MemoryTracker::stats();
        if stats.peak_bytes > steady.0 {
            *steady = (stats.peak_bytes, stats.peak_site);
        }
    };
    for epoch in 0..cfg.epochs {
        // Epoch boundary for the staleness protocol: refresh epochs fetch
        // remote blocks fresh and repopulate the cache; in-between epochs
        // replay it with zero fetch-phase traffic. Other protocols always
        // run fresh.
        let refresh = match cfg.protocol {
            Protocol::Stale(r) => epoch % r.get() == 0,
            _ => true,
        };
        w.begin_epoch(refresh);
        if epoch == 1 {
            // Exclude setup + first-epoch allocator warm-up from the
            // steady-state peak-memory measurement.
            MemoryTracker::reset_peak();
        }
        // Start (epoch 0) or settle (later epochs) the per-phase CPU
        // attribution so the epoch's ledger delta is self-contained.
        w.ctx.flush_phase_timing();
        let cpu0 = thread_cpu_secs();
        let comm0 = w.ctx.stats();

        // Label augmentation: feed a deterministic random subset of the
        // training labels as input, predict the rest (Shi et al. 2020).
        let (aug_mask, predict_mask): (Option<Vec<bool>>, Vec<bool>) = if cfg.label_aug {
            let aug: Vec<bool> = (0..shard.num_local())
                .map(|i| {
                    shard.train_mask[i]
                        && is_augmented(cfg.seed, epoch as u64, shard.global_ids[i], cfg.aug_frac)
                })
                .collect();
            let predict: Vec<bool> = (0..shard.num_local())
                .map(|i| shard.train_mask[i] && !aug[i])
                .collect();
            (Some(aug), predict)
        } else {
            (None, shard.train_mask.clone())
        };
        let local_predict = predict_mask.iter().filter(|&&m| m).count();
        let global_predict = w.ctx.all_reduce_sum_scalar(local_predict as f32).max(1.0);

        // Rebuilt in backward, not kept: the input dies after layer 0.
        let x = shard.input(aug_mask.as_deref());
        let logits = model.forward(&w, x, true, &mut dropout_rng);
        let loss =
            cross_entropy_masked(&logits, &shard.labels, &predict_mask, Some(global_predict));
        opt.zero_grad();
        loss.backward();
        all_reduce_grads(&w, &params);
        opt.step();
        opt.advance_epoch();

        let global_loss = w.ctx.all_reduce_sum_scalar(loss.value().item());
        w.ctx.flush_phase_timing();
        let comm1 = w.ctx.stats();
        epochs.push(EpochRecord {
            loss: global_loss,
            compute_secs: thread_cpu_secs() - cpu0,
            comm_secs: (comm1.comm_us - comm0.comm_us) / 1e6,
            sent_bytes: comm1.total_sent() - comm0.total_sent(),
        });
        note_peak(&mut steady_peak);
    }
    if cfg.epochs <= 1 {
        note_peak(&mut steady_peak);
    }

    // ---- Final evaluation: augment ALL training nodes (paper: "at
    // inference time, we augment all training nodes with the ground truth
    // labels"). Evaluation always runs the exact protocol — approximate
    // exchanges trade training fidelity for wire volume, but reported
    // accuracies measure the model on the true full graph.
    w.set_protocol(Protocol::Exact);
    let eval_aug = cfg.label_aug.then(|| shard.train_mask.clone());
    let x = Var::constant(shard.input_tensor(eval_aug.as_deref()));
    let logits = sar_tensor::no_grad(|| model.forward(&w, x, false, &mut dropout_rng));
    let logits_t = logits.value_clone();

    // Accuracy of `logits` over `mask` across all workers (collective).
    let global_acc = |logits: &Tensor, mask: &[bool]| -> f64 {
        let (c, t) = correct_count(logits, &shard.labels, mask);
        let mut buf = [c as f32, t as f32];
        w.ctx.all_reduce_sum(&mut buf);
        if buf[1] > 0.0 {
            (buf[0] / buf[1]) as f64
        } else {
            0.0
        }
    };
    let val_acc = global_acc(&logits_t, &shard.val_mask);
    let test_acc = global_acc(&logits_t, &shard.test_mask);

    let test_acc_cs = cfg.cs.as_ref().map(|cs_cfg| {
        let probs = logits_t.softmax_rows();
        let smoothed =
            dist_correct_and_smooth(&w, &probs, &shard.labels, &shard.train_mask, cs_cfg);
        global_acc(&smoothed, &shard.test_mask)
    });

    // Settle trailing CPU attribution so the shared statistics the cluster
    // collects after this closure returns carry a complete ledger.
    w.ctx.flush_phase_timing();
    let params_out = (w.rank() == 0).then(|| {
        params
            .iter()
            .map(|p| (p.shape(), p.value().data().to_vec()))
            .collect()
    });
    WorkerReport {
        epochs,
        val_acc,
        test_acc,
        test_acc_cs,
        steady_peak_bytes: steady_peak.0,
        steady_peak_site: steady_peak.1.to_string(),
        logits: logits_t.into_data(),
        global_ids: shard.global_ids.clone(),
        params: params_out,
    }
}

/// Trains a model on `dataset` partitioned by `partitioning`, simulating
/// the cluster with the given network cost model, and aggregates the
/// workers' measurements into a [`RunReport`].
///
/// # Panics
///
/// Panics if the partitioning does not cover the dataset.
pub fn train(
    dataset: &Dataset,
    partitioning: &Partitioning,
    cost: CostModel,
    cfg: &TrainConfig,
) -> RunReport {
    let world = partitioning.num_parts();
    let graphs: Vec<Arc<DistGraph>> = DistGraph::build_all(&dataset.graph, partitioning)
        .into_iter()
        .map(Arc::new)
        .collect();
    let shards = Arc::new(Shard::build_all(dataset, partitioning));
    let graphs = Arc::new(graphs);
    let cfg_arc = Arc::new(cfg.clone());

    let outcomes = Cluster::new(world, cost).run(move |ctx| {
        let rank = ctx.rank();
        run_worker(
            Rc::new(ctx),
            Arc::clone(&graphs[rank]),
            &shards[rank],
            &cfg_arc,
        )
    });
    let mut ranks: Vec<_> = outcomes.into_iter().map(|o| (o.result, o.comm)).collect();
    let mut logits = Tensor::zeros(&[dataset.num_nodes(), dataset.num_classes]);
    for (r, _) in &mut ranks {
        let rows = std::mem::take(&mut r.logits);
        let ids = std::mem::take(&mut r.global_ids);
        let block = Tensor::from_vec(&[ids.len(), dataset.num_classes], rows);
        logits.scatter_add_rows(&ids, &block);
    }
    let final_params = ranks[0].0.params.take();
    RunReport {
        logits,
        final_params: final_params.expect("rank 0 reports parameters"),
        ..RunReport::from_ranks(ranks)
    }
}
