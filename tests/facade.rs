//! Workspace-level integration tests exercising the public facade (`sar`)
//! end-to-end, the way a downstream user would.

use sar::comm::{Cluster, CostModel};
use sar::core::{train, Arch, Mode, ModelConfig, TrainConfig};
use sar::graph::datasets;
use sar::nn::LrSchedule;
use sar::partition::{multilevel, partition, Method};

fn tiny_cfg(arch: Arch, mode: Mode, num_classes: usize) -> TrainConfig {
    TrainConfig {
        model: ModelConfig {
            arch,
            mode,
            layers: 2,
            in_dim: 0,
            num_classes,
            dropout: 0.0,
            batch_norm: true,
            jumping_knowledge: false,
            seed: 0,
        },
        epochs: 5,
        lr: 0.01,
        schedule: LrSchedule::Constant,
        label_aug: false,
        aug_frac: 0.0,
        cs: None,
        prefetch_depth: 0,
        seed: 0,
        threads: 1,
        protocol: Default::default(),
        codec: Default::default(),
    }
}

#[test]
fn facade_pipeline_end_to_end() {
    let d = datasets::products_like(300, 0);
    let p = multilevel(&d.graph, 3, 0);
    let cfg = tiny_cfg(Arch::GraphSage { hidden: 16 }, Mode::Sar, d.num_classes);
    let run = train(&d, &p, CostModel::default(), &cfg);
    assert_eq!(run.world, 3);
    assert_eq!(run.losses.len(), 5);
    assert!(run.losses.iter().all(|l| l.is_finite()));
    assert_eq!(run.logits.shape(), &[300, d.num_classes]);
}

#[test]
fn memory_scales_down_with_workers() {
    // The paper's 2/N law: per-worker peak memory must shrink
    // substantially as workers are added.
    let d = datasets::products_like(1200, 1);
    let cfg = tiny_cfg(Arch::GraphSage { hidden: 64 }, Mode::Sar, d.num_classes);
    let mut cfg = cfg;
    cfg.epochs = 2;
    let peak = |world: usize| {
        let p = multilevel(&d.graph, world, 1);
        train(&d, &p, CostModel::default(), &cfg).max_peak_bytes()
    };
    let p2 = peak(2);
    let p8 = peak(8);
    assert!(
        (p8 as f64) < 0.55 * p2 as f64,
        "peak at 8 workers ({p8}) should be well under half of 2 workers ({p2})"
    );
}

#[test]
fn all_partitioners_compose_with_training() {
    let d = datasets::products_like(250, 2);
    for method in [
        Method::Multilevel,
        Method::Random,
        Method::Range,
        Method::Bfs,
    ] {
        let p = partition(&d.graph, 2, method, 0);
        let cfg = tiny_cfg(Arch::GraphSage { hidden: 8 }, Mode::Sar, d.num_classes);
        let run = train(&d, &p, CostModel::default(), &cfg);
        assert!(
            run.losses.iter().all(|l| l.is_finite()),
            "{method:?} produced a non-finite loss"
        );
    }
}

#[test]
fn gat_modes_agree_through_facade() {
    let d = datasets::products_like(250, 3);
    let p = multilevel(&d.graph, 2, 3);
    let arch = Arch::Gat {
        head_dim: 4,
        heads: 2,
    };
    let dp = train(
        &d,
        &p,
        CostModel::default(),
        &tiny_cfg(arch, Mode::DomainParallel, d.num_classes),
    );
    let fak = train(
        &d,
        &p,
        CostModel::default(),
        &tiny_cfg(arch, Mode::SarFused, d.num_classes),
    );
    assert!(
        dp.logits.allclose(&fak.logits, 5e-2),
        "execution mode changed the trained model"
    );
}

#[test]
fn cluster_collectives_compose_with_tensor_ops() {
    use sar::tensor::Tensor;
    let out = Cluster::new(4, CostModel::default()).run(|ctx| {
        let local = Tensor::full(&[3], (ctx.rank() + 1) as f32);
        let mut buf = local.into_data();
        ctx.all_reduce_sum(&mut buf);
        buf[0]
    });
    assert!(out.iter().all(|o| o.result == 10.0));
}

#[test]
fn communication_volume_reported() {
    let d = datasets::products_like(400, 4);
    let p = multilevel(&d.graph, 4, 4);
    let mut cfg = tiny_cfg(Arch::GraphSage { hidden: 16 }, Mode::Sar, d.num_classes);
    cfg.epochs = 2;
    let run = train(&d, &p, CostModel::default(), &cfg);
    assert!(
        run.total_sent_bytes() > 0,
        "distributed run must communicate"
    );
    assert!(run.epoch_times.iter().all(|&t| t > 0.0));
    assert_eq!(run.epoch_times.len(), run.epoch_compute.len());
}
