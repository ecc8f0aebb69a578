//! Tier-1 reach into the serving tier: the load-bearing **bitwise parity**
//! property — logits served through the MFG-restricted path equal the
//! corresponding rows of the full-graph [`infer`] baseline exactly
//! (`to_bits`) — for the paper's two architectures, across thread counts,
//! SIMD modes, attention kernels, and with the embedding cache on and off;
//! and again after feature writes on both ranks and after a parameter
//! reload, which the engine's resident layer-0 projection must follow.
//!
//! Serving runs the *training* layer (`DistModel::layer_forward`) over one
//! `mfg::LevelView` per level, through the same rotation walker as
//! training; this is the fast cross-crate check that those seams hold
//! under the command the pipeline runs (`cargo test -q`). The gcn, TCP,
//! cache-traffic and bad-query cases stay in `crates/serve/tests/serve.rs`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sar_comm::{Cluster, CostModel};
use sar_core::{checkpoint, infer, Arch, DistGraph, DistModel, Mode, ModelConfig, Shard};
use sar_graph::{datasets, Dataset};
use sar_partition::{multilevel, Partitioning};
use sar_serve::{worker_loop, BatchStats, EngineSetup, ServeEngine};
use sar_tensor::{pool, simd, Tensor};

const WORLD: usize = 2;

fn dataset() -> Dataset {
    datasets::products_like(200, 0)
}

fn model_cfg(arch: Arch, mode: Mode, d: &Dataset) -> ModelConfig {
    ModelConfig {
        arch,
        mode,
        layers: 2,
        in_dim: 0, // resolved from the shard
        num_classes: d.num_classes,
        dropout: 0.0,
        batch_norm: false,
        seed: 11,
    }
}

fn raw_params(cfg: &ModelConfig, d: &Dataset, label_aug: bool) -> Vec<(Vec<usize>, Vec<f32>)> {
    let mut resolved = cfg.clone();
    resolved.in_dim = d.feat_dim() + if label_aug { d.num_classes } else { 0 };
    DistModel::new(&resolved)
        .params()
        .iter()
        .map(|p| (p.shape(), p.value().data().to_vec()))
        .collect()
}

struct Fixture {
    d: Dataset,
    part: Partitioning,
    graphs: Arc<Vec<Arc<DistGraph>>>,
    shards: Arc<Vec<Shard>>,
    cfg: ModelConfig,
    params: Vec<(Vec<usize>, Vec<f32>)>,
    label_aug: bool,
}

fn fixture(arch: Arch, mode: Mode, label_aug: bool) -> Fixture {
    let d = dataset();
    let part = multilevel(&d.graph, WORLD, 0);
    let cfg = model_cfg(arch, mode, &d);
    let params = raw_params(&cfg, &d, label_aug);
    Fixture {
        graphs: Arc::new(
            DistGraph::build_all(&d.graph, &part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        ),
        shards: Arc::new(Shard::build_all(&d, &part)),
        d,
        part,
        cfg,
        params,
        label_aug,
    }
}

fn full_logits(fx: &Fixture) -> Tensor {
    infer(
        &fx.d,
        &fx.part,
        CostModel::default(),
        &fx.cfg,
        &fx.params,
        fx.label_aug,
    )
}

/// Serves the same query batch twice over the in-process channel backend
/// (the second pass is answered through the embedding cache when
/// `cache_rows > 0`) and returns rank 0's logits + stats per pass.
fn serve_twice_sim(
    fx: &Fixture,
    queries: &[u32],
    threads: usize,
    cache_rows: usize,
) -> Vec<(Tensor, BatchStats)> {
    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let st = EngineSetup {
        model_cfg: fx.cfg.clone(),
        label_aug: fx.label_aug,
        cache_rows,
        checkpoint: None,
    };
    let params = fx.params.clone();
    let queries = queries.to_vec();
    let n = fx.d.num_nodes();
    let c = fx.d.num_classes;
    let out = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        pool::set_threads(threads);
        let rank = ctx.rank();
        let mut engine = ServeEngine::new(
            ctx,
            Arc::clone(&graphs[rank]),
            &shards[rank],
            n,
            &st,
            &params,
        )
        .expect("engine builds");
        if rank == 0 {
            let passes: Vec<_> = (0..2)
                .map(|_| {
                    let (logits, stats) = engine.execute_query(&queries).expect("query runs");
                    (logits.data().to_vec(), stats)
                })
                .collect();
            engine.shutdown().expect("shutdown");
            Some(passes)
        } else {
            worker_loop(&mut engine).expect("worker loop");
            None
        }
    });
    out.into_iter()
        .find_map(|o| o.result)
        .expect("rank 0 result")
        .into_iter()
        .map(|(data, stats)| (Tensor::from_vec(&[data.len() / c, c], data), stats))
        .collect()
}

fn assert_rows_bitwise(label: &str, served: &Tensor, full: &Tensor, queries: &[u32]) {
    assert_eq!(served.rows(), queries.len(), "{label}: row count");
    for (i, &gid) in queries.iter().enumerate() {
        let got = served.row(i);
        let want = full.row(gid as usize);
        for (j, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: query {i} (node {gid}) col {j}: served {a} != full {b}"
            );
        }
    }
}

/// Eight ids, duplicates and unsorted order on purpose: the response must
/// be in request order, dedup is an internal matter.
const QUERIES: &[u32] = &[7, 123, 3, 199, 3, 64, 7, 0];

#[test]
fn sage_mfg_logits_match_full_inference_bitwise() {
    let fx = fixture(Arch::GraphSage { hidden: 16 }, Mode::Sar, true);
    let full = full_logits(&fx);
    for threads in [1, 4] {
        for mode in [
            simd::SimdMode::Auto,
            simd::SimdMode::Avx2,
            simd::SimdMode::ForceScalar,
        ] {
            for cache_rows in [0, 4096] {
                simd::set_mode(mode);
                let passes = serve_twice_sim(&fx, QUERIES, threads, cache_rows);
                simd::set_mode(simd::SimdMode::Auto);
                for (served, stats) in &passes {
                    assert_rows_bitwise(
                        &format!("sage threads={threads} simd={mode:?} cache={cache_rows}"),
                        served,
                        &full,
                        QUERIES,
                    );
                    assert!(
                        stats.fetch_bytes < stats.full_forward_bytes,
                        "sage: MFG fetched {} bytes, full forward predicts {}",
                        stats.fetch_bytes,
                        stats.full_forward_bytes
                    );
                    // The request lists count toward the measured volume.
                    assert!(stats.predicted_bytes <= stats.fetch_bytes);
                }
            }
        }
    }
}

#[test]
fn gat_mfg_logits_match_full_inference_bitwise_both_kernels() {
    for mode in [Mode::Sar, Mode::SarFused] {
        let fx = fixture(
            Arch::Gat {
                head_dim: 8,
                heads: 2,
            },
            mode,
            true,
        );
        let full = full_logits(&fx);
        for cache_rows in [0, 4096] {
            for (served, stats) in &serve_twice_sim(&fx, QUERIES, 4, cache_rows) {
                assert_rows_bitwise(
                    &format!("gat {mode:?} cache={cache_rows}"),
                    served,
                    &full,
                    QUERIES,
                );
                assert!(stats.fetch_bytes < stats.full_forward_bytes);
                assert!(stats.predicted_bytes <= stats.fetch_bytes);
            }
        }
    }
}

/// Writes `params` to a fresh checkpoint file and returns its path.
fn checkpoint_file(params: &[(Vec<usize>, Vec<f32>)], label: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "sar-serve-parity-{label}-{}.ckpt",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).expect("create checkpoint");
    checkpoint::save_raw_params(params, std::io::BufWriter::new(file)).expect("save checkpoint");
    path
}

/// The first query node each rank owns, with the feature row it is
/// overwritten with.
fn writes(fx: &Fixture, queries: &[u32]) -> Vec<(u32, Vec<f32>)> {
    (0..WORLD)
        .map(|rank| {
            let node = *queries
                .iter()
                .find(|&&q| fx.part.part_of(q as usize) == rank)
                .unwrap_or_else(|| panic!("no query node on rank {rank}"));
            let values = (0..fx.d.feat_dim())
                .map(|j| 0.25 * (j % 7) as f32 - 0.5 * rank as f32)
                .collect();
            (node, values)
        })
        .collect()
}

/// Rank 0's logits for `queries` at three points of one resident engine's
/// life: as built, after `writes`, and after reloading the parameters in
/// `ckpt`. The cache is on, so a stale cached row would show too.
fn serve_through_writes(
    fx: &Fixture,
    queries: &[u32],
    threads: usize,
    writes: &[(u32, Vec<f32>)],
    ckpt: &Path,
) -> Vec<Tensor> {
    let graphs = Arc::clone(&fx.graphs);
    let shards = Arc::clone(&fx.shards);
    let st = EngineSetup {
        model_cfg: fx.cfg.clone(),
        label_aug: fx.label_aug,
        cache_rows: 4096,
        checkpoint: Some(ckpt.to_path_buf()),
    };
    let params = fx.params.clone();
    let (queries, writes) = (queries.to_vec(), writes.to_vec());
    let n = fx.d.num_nodes();
    let c = fx.d.num_classes;
    let out = Cluster::new(WORLD, CostModel::default()).run(move |ctx| {
        pool::set_threads(threads);
        let rank = ctx.rank();
        let mut engine = ServeEngine::new(
            ctx,
            Arc::clone(&graphs[rank]),
            &shards[rank],
            n,
            &st,
            &params,
        )
        .expect("engine builds");
        if rank != 0 {
            worker_loop(&mut engine).expect("worker loop");
            return None;
        }
        let serve = |engine: &mut ServeEngine| {
            let (logits, _) = engine.execute_query(&queries).expect("query runs");
            logits.data().to_vec()
        };
        let built = serve(&mut engine);
        for (node, values) in &writes {
            engine.update_feature(*node, values).expect("update");
        }
        let written = serve(&mut engine);
        engine.reload().expect("reload");
        let reloaded = serve(&mut engine);
        engine.shutdown().expect("shutdown");
        Some(vec![built, written, reloaded])
    });
    out.into_iter()
        .find_map(|o| o.result)
        .expect("rank 0 result")
        .into_iter()
        .map(|data| Tensor::from_vec(&[data.len() / c, c], data))
        .collect()
}

/// Served logits equal `infer` before any write, after a feature write
/// on each rank (against `infer` over the written features) and after a
/// reload (against `infer` with the new parameters), at every thread
/// count and SIMD mode.
fn check_writes_and_reload(fx: &Fixture, label: &str) {
    let writes = writes(fx, QUERIES);
    let mut written = fx.d.clone();
    for (node, values) in &writes {
        written
            .features
            .row_mut(*node as usize)
            .copy_from_slice(values);
    }
    let mut reload_cfg = fx.cfg.clone();
    reload_cfg.seed += 1;
    let reload_params = raw_params(&reload_cfg, &fx.d, fx.label_aug);
    let ckpt = checkpoint_file(&reload_params, label);
    let run = |d: &Dataset, params: &[(Vec<usize>, Vec<f32>)]| {
        infer(
            d,
            &fx.part,
            CostModel::default(),
            &fx.cfg,
            params,
            fx.label_aug,
        )
    };
    let want = [
        run(&fx.d, &fx.params),
        run(&written, &fx.params),
        run(&written, &reload_params),
    ];
    for threads in [1, 2] {
        for mode in [
            simd::SimdMode::Auto,
            simd::SimdMode::Avx2,
            simd::SimdMode::ForceScalar,
        ] {
            simd::set_mode(mode);
            let got = serve_through_writes(fx, QUERIES, threads, &writes, &ckpt);
            simd::set_mode(simd::SimdMode::Auto);
            for ((stage, served), full) in
                ["built", "written", "reloaded"].iter().zip(&got).zip(&want)
            {
                assert_rows_bitwise(
                    &format!("{label} {stage} threads={threads} simd={mode:?}"),
                    served,
                    full,
                    QUERIES,
                );
            }
            assert_ne!(
                got[0].data(),
                got[1].data(),
                "{label}: the writes changed nothing"
            );
            assert_ne!(
                got[1].data(),
                got[2].data(),
                "{label}: the reload changed nothing"
            );
        }
    }
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn sage_serving_follows_feature_writes_and_reloads_bitwise() {
    let fx = fixture(Arch::GraphSage { hidden: 16 }, Mode::Sar, true);
    check_writes_and_reload(&fx, "sage");
}

#[test]
fn gat_serving_follows_feature_writes_and_reloads_bitwise_both_kernels() {
    for (mode, label) in [(Mode::Sar, "gat-two-step"), (Mode::SarFused, "gat-fused")] {
        let heads = Arch::Gat {
            head_dim: 8,
            heads: 2,
        };
        check_writes_and_reload(&fixture(heads, mode, true), label);
    }
}
