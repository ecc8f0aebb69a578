//! End-to-end distributed training tests: exactness across worker counts,
//! learning progress, distributed batch norm and C&S correctness, and the
//! SAR-vs-domain-parallel memory ordering.

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CostModel};
use sar_core::{
    dist_cs::dist_correct_and_smooth, train, Arch, DistBatchNorm, DistGraph, Mode, ModelConfig,
    Shard, TrainConfig, Worker,
};
use sar_graph::{datasets, Dataset};
use sar_nn::{correct_and_smooth, BatchNorm1d, CsConfig, LrSchedule};
use sar_partition::{multilevel, random};
use sar_tensor::{init, Tensor, Var};

fn small_dataset() -> Dataset {
    datasets::products_like(400, 0)
}

fn quick_config(arch: Arch, mode: Mode) -> TrainConfig {
    TrainConfig {
        model: ModelConfig {
            arch,
            mode,
            layers: 2,
            in_dim: 0, // set by trainer
            num_classes: 0,
            dropout: 0.0, // keep runs deterministic across worker counts
            batch_norm: true,
            jumping_knowledge: false,
            seed: 3,
        },
        epochs: 8,
        lr: 0.01,
        schedule: LrSchedule::Constant,
        label_aug: false,
        aug_frac: 0.0,
        cs: None,
        prefetch_depth: 0,
        seed: 3,
        threads: 1,
        protocol: Default::default(),
        codec: Default::default(),
    }
}

fn with_classes(mut cfg: TrainConfig, d: &Dataset) -> TrainConfig {
    cfg.model.num_classes = d.num_classes;
    cfg
}

#[test]
fn sage_training_is_exact_across_worker_counts() {
    let d = small_dataset();
    let cfg = with_classes(quick_config(Arch::GraphSage { hidden: 16 }, Mode::Sar), &d);
    let single = train(&d, &multilevel(&d.graph, 1, 0), CostModel::default(), &cfg);
    for world in [2usize, 4] {
        let multi = train(
            &d,
            &multilevel(&d.graph, world, 0),
            CostModel::default(),
            &cfg,
        );
        for (e, (a, b)) in single.losses.iter().zip(&multi.losses).enumerate() {
            assert!(
                (a - b).abs() < 2e-3 * (1.0 + a.abs()),
                "world {world}, epoch {e}: loss {a} vs {b}"
            );
        }
        assert!(
            multi.logits.allclose(&single.logits, 5e-2),
            "world {world}: final logits diverged"
        );
    }
}

#[test]
fn gat_training_is_exact_across_worker_counts() {
    let d = small_dataset();
    let cfg = with_classes(
        quick_config(
            Arch::Gat {
                head_dim: 8,
                heads: 2,
            },
            Mode::SarFused,
        ),
        &d,
    );
    let single = train(&d, &multilevel(&d.graph, 1, 0), CostModel::default(), &cfg);
    let multi = train(&d, &multilevel(&d.graph, 3, 0), CostModel::default(), &cfg);
    for (e, (a, b)) in single.losses.iter().zip(&multi.losses).enumerate() {
        assert!(
            (a - b).abs() < 5e-3 * (1.0 + a.abs()),
            "epoch {e}: loss {a} vs {b}"
        );
    }
}

#[test]
fn all_modes_agree_on_gat() {
    // Domain-parallel, SAR and SAR+FAK are different execution strategies
    // for the same mathematics: same losses, same logits.
    let d = small_dataset();
    let part = multilevel(&d.graph, 3, 1);
    let base = with_classes(
        quick_config(
            Arch::Gat {
                head_dim: 8,
                heads: 2,
            },
            Mode::Sar,
        ),
        &d,
    );
    let mut runs = Vec::new();
    for mode in [Mode::DomainParallel, Mode::Sar, Mode::SarFused] {
        let mut cfg = base.clone();
        cfg.model.mode = mode;
        runs.push((mode, train(&d, &part, CostModel::default(), &cfg)));
    }
    let (_, reference) = &runs[0];
    for (mode, run) in &runs[1..] {
        for (e, (a, b)) in reference.losses.iter().zip(&run.losses).enumerate() {
            assert!(
                (a - b).abs() < 5e-3 * (1.0 + a.abs()),
                "{mode:?} epoch {e}: loss {a} vs {b}"
            );
        }
        assert!(
            run.logits.allclose(&reference.logits, 5e-2),
            "{mode:?}: logits diverged from domain-parallel"
        );
    }
}

#[test]
fn training_learns_beyond_majority_class() {
    let d = small_dataset();
    let mut cfg = with_classes(quick_config(Arch::GraphSage { hidden: 32 }, Mode::Sar), &d);
    cfg.epochs = 40;
    cfg.lr = 0.02;
    cfg.label_aug = true;
    cfg.aug_frac = 0.5;
    cfg.cs = Some(CsConfig::default());
    let run = train(&d, &multilevel(&d.graph, 2, 2), CostModel::default(), &cfg);
    assert!(
        run.losses.last().unwrap() < &(run.losses[0] * 0.7),
        "loss should drop: {:?} -> {:?}",
        run.losses.first(),
        run.losses.last()
    );
    let floor = d.majority_class_fraction();
    assert!(
        run.test_acc > floor + 0.1,
        "test accuracy {} should beat majority-class floor {floor}",
        run.test_acc
    );
    // C&S should not hurt (and usually helps on homophilous graphs).
    let cs = run.test_acc_cs.expect("C&S ran");
    assert!(
        cs > run.test_acc - 0.02,
        "C&S degraded accuracy: {} -> {cs}",
        run.test_acc
    );
}

#[test]
fn label_augmentation_improves_over_plain_training() {
    let d = small_dataset();
    let mut plain = with_classes(quick_config(Arch::GraphSage { hidden: 32 }, Mode::Sar), &d);
    plain.epochs = 30;
    plain.lr = 0.02;
    let mut aug = plain.clone();
    aug.label_aug = true;
    aug.aug_frac = 0.5;
    let part = multilevel(&d.graph, 2, 3);
    let run_plain = train(&d, &part, CostModel::default(), &plain);
    let run_aug = train(&d, &part, CostModel::default(), &aug);
    // Label augmentation adds the label-propagation signal; on a
    // homophilous graph it must not hurt materially.
    assert!(
        run_aug.test_acc > run_plain.test_acc - 0.05,
        "label aug collapsed: {} vs {}",
        run_aug.test_acc,
        run_plain.test_acc
    );
}

#[test]
fn sar_uses_less_memory_than_domain_parallel_for_gat() {
    let d = datasets::products_like(600, 4);
    let part = random(&d.graph, 6, 5); // random partition ⇒ big halo
    let base = with_classes(
        quick_config(
            Arch::Gat {
                head_dim: 16,
                heads: 4,
            },
            Mode::Sar,
        ),
        &d,
    );
    let mut dp_cfg = base.clone();
    dp_cfg.model.mode = Mode::DomainParallel;
    dp_cfg.epochs = 2;
    let mut sar_cfg = base.clone();
    sar_cfg.model.mode = Mode::SarFused;
    sar_cfg.epochs = 2;

    let dp = train(&d, &part, CostModel::default(), &dp_cfg);
    let sar = train(&d, &part, CostModel::default(), &sar_cfg);
    assert!(
        sar.max_peak_bytes() < dp.max_peak_bytes(),
        "SAR peak {} should be below domain-parallel peak {}",
        sar.max_peak_bytes(),
        dp.max_peak_bytes()
    );
}

#[test]
fn gat_sar_sends_more_bytes_than_domain_parallel() {
    // Case 2 refetches features in the backward pass: ~50% more traffic.
    let d = datasets::products_like(500, 6);
    let part = multilevel(&d.graph, 4, 6);
    let base = with_classes(
        quick_config(
            Arch::Gat {
                head_dim: 8,
                heads: 2,
            },
            Mode::Sar,
        ),
        &d,
    );
    let mut dp_cfg = base.clone();
    dp_cfg.model.mode = Mode::DomainParallel;
    dp_cfg.epochs = 2;
    dp_cfg.model.batch_norm = false;
    let mut sar_cfg = dp_cfg.clone();
    sar_cfg.model.mode = Mode::SarFused;

    let dp = train(&d, &part, CostModel::default(), &dp_cfg);
    let sar = train(&d, &part, CostModel::default(), &sar_cfg);
    let ratio = sar.total_sent_bytes() as f64 / dp.total_sent_bytes() as f64;
    assert!(
        ratio > 1.2 && ratio < 1.8,
        "expected ~1.5x traffic for SAR GAT, got {ratio:.2}x ({} vs {})",
        sar.total_sent_bytes(),
        dp.total_sent_bytes()
    );
}

#[test]
fn sage_sar_traffic_matches_domain_parallel() {
    // Case 1 adds no communication: fetch volume forward + grads backward
    // in both modes.
    let d = datasets::products_like(500, 7);
    let part = multilevel(&d.graph, 4, 7);
    let mut dp_cfg = with_classes(
        quick_config(Arch::GraphSage { hidden: 16 }, Mode::DomainParallel),
        &d,
    );
    dp_cfg.epochs = 2;
    dp_cfg.model.batch_norm = false;
    let mut sar_cfg = dp_cfg.clone();
    sar_cfg.model.mode = Mode::Sar;

    let dp = train(&d, &part, CostModel::default(), &dp_cfg);
    let sar = train(&d, &part, CostModel::default(), &sar_cfg);
    let ratio = sar.total_sent_bytes() as f64 / dp.total_sent_bytes() as f64;
    assert!(
        (ratio - 1.0).abs() < 0.05,
        "GraphSage SAR should move the same bytes as domain-parallel, got {ratio:.3}x"
    );
}

#[test]
fn distributed_batchnorm_matches_single_machine() {
    let n = 50;
    let f = 6;
    let x = init::randn(&[n, f], 2.0, &mut StdRng::seed_from_u64(8)).add_scalar(1.5);
    let grad = init::randn(&[n, f], 1.0, &mut StdRng::seed_from_u64(9));

    // Single-machine reference via the local BatchNorm layer.
    let xv = Var::parameter(x.clone());
    let mut bn = BatchNorm1d::new(f);
    let y = bn.forward(&xv, true);
    let ref_out = y.value_clone();
    y.backward_with(&grad);
    let ref_dx = xv.grad().unwrap();

    // Distributed: rows split across 3 workers (unevenly).
    let g = sar_graph::generators::erdos_renyi(n, 10, &mut StdRng::seed_from_u64(1)).symmetrize();
    let assignment: Vec<u32> = (0..n)
        .map(|i| {
            if i < 10 {
                0
            } else if i < 22 {
                1
            } else {
                2
            }
        })
        .collect();
    let part = sar_partition::Partitioning::new(3, assignment);
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&g, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let xs = Arc::new(x.data().to_vec());
    let gs = Arc::new(grad.data().to_vec());
    let outcomes = Cluster::new(3, CostModel::default()).run(move |ctx| {
        let graph = Arc::clone(&graphs[ctx.rank()]);
        let ids = graph.local_nodes().to_vec();
        let full_x = Tensor::from_vec(&[n, f], xs.as_ref().clone());
        let full_g = Tensor::from_vec(&[n, f], gs.as_ref().clone());
        let xv = Var::parameter(full_x.gather_rows(&ids));
        let w = Worker::new(ctx, graph);
        let bn = DistBatchNorm::new(f);
        let y = bn.forward(&w, &xv);
        let out = y.value_clone();
        y.backward_with(&full_g.gather_rows(&ids));
        (ids, out.into_data(), xv.grad().unwrap().into_data())
    });

    let mut out = Tensor::zeros(&[n, f]);
    let mut dx = Tensor::zeros(&[n, f]);
    for o in &outcomes {
        let ids = &o.result.0;
        out.scatter_add_rows(ids, &Tensor::from_vec(&[ids.len(), f], o.result.1.clone()));
        dx.scatter_add_rows(ids, &Tensor::from_vec(&[ids.len(), f], o.result.2.clone()));
    }
    assert!(out.allclose(&ref_out, 1e-3), "BN forward mismatch");
    assert!(dx.allclose(&ref_dx, 1e-3), "BN backward mismatch");
}

#[test]
fn distributed_cs_matches_single_machine() {
    let d = datasets::products_like(300, 10);
    let probs = init::uniform(
        &[300, d.num_classes],
        0.0,
        1.0,
        &mut StdRng::seed_from_u64(11),
    )
    .softmax_rows();
    let cfg = CsConfig::default();
    let reference = correct_and_smooth(&d.graph, &probs, &d.labels, &d.train_mask, &cfg);

    let part = multilevel(&d.graph, 4, 12);
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&d.graph, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let shards = Arc::new(Shard::build_all(&d, &part));
    let ps = Arc::new(probs.data().to_vec());
    let c = d.num_classes;
    let outcomes = Cluster::new(4, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let graph = Arc::clone(&graphs[rank]);
        let shard = &shards[rank];
        let ids = graph.local_nodes().to_vec();
        let full_p = Tensor::from_vec(&[300, c], ps.as_ref().clone());
        let local_p = full_p.gather_rows(&ids);
        let w = Worker::new(ctx, graph);
        let w = Rc::clone(&w);
        let out = dist_correct_and_smooth(
            &w,
            &local_p,
            &shard.labels,
            &shard.train_mask,
            &CsConfig::default(),
        );
        (ids, out.into_data())
    });
    let mut out = Tensor::zeros(&[300, c]);
    for o in &outcomes {
        let ids = &o.result.0;
        out.scatter_add_rows(ids, &Tensor::from_vec(&[ids.len(), c], o.result.1.clone()));
    }
    assert!(out.allclose(&reference, 1e-3), "distributed C&S mismatch");
}
