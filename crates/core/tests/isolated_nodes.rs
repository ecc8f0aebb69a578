//! Degree-0 robustness and end-to-end thread-count parity.
//!
//! Real partitioned graphs contain isolated nodes — a partition can
//! receive nodes with no in-edges at all. Mean aggregation divides by the
//! in-degree (`DistGraph::inv_in_degree` returns 0 for isolated nodes)
//! and GAT's edge softmax normalizes by a per-destination denominator, so
//! degree-0 rows are exactly where NaNs would creep in. These tests train
//! both architectures on a graph with guaranteed isolated nodes and pin
//! every loss and accuracy to stay finite.
//!
//! The parity test also drives the whole trainer at `--threads 1` vs
//! `--threads 4` and requires bitwise-identical losses: the kernel-level
//! determinism guarantee (DESIGN.md §8) must survive composition through
//! autograd, SAR rotation, and the optimizer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_comm::CostModel;
use sar_core::{train, Arch, Mode, ModelConfig, TrainConfig};
use sar_graph::{CsrGraph, Dataset};
use sar_nn::LrSchedule;
use sar_partition::random;
use sar_tensor::init;

/// 120 nodes; nodes 0..6 have no edges at all (not even self-loops), the
/// rest form a random symmetric graph with self-loops.
fn dataset_with_isolated_nodes() -> Dataset {
    let n = 120;
    let isolated = 6;
    let num_classes = 3;
    let mut rng = StdRng::seed_from_u64(42);
    let edges: Vec<(u32, u32)> = (0..500)
        .map(|_| {
            (
                rng.random_range(isolated..n) as u32,
                rng.random_range(isolated..n) as u32,
            )
        })
        .collect();
    let raw = CsrGraph::from_edges(n, &edges).symmetrize();
    // Self-loops for connected nodes only: loop over edges, keep isolated
    // nodes truly degree-0.
    let mut looped: Vec<(u32, u32)> = raw.iter_edges().collect();
    for i in isolated as u32..n as u32 {
        looped.push((i, i));
    }
    let graph = CsrGraph::from_edges(n, &looped).symmetrize();
    for i in 0..isolated {
        assert!(graph.is_isolated_row(i), "node {i} must stay isolated");
    }
    let labels: Vec<u32> = (0..n).map(|i| (i % num_classes) as u32).collect();
    Dataset {
        graph,
        features: init::randn(&[n, 8], 1.0, &mut rng),
        labels,
        train_mask: (0..n).map(|i| i % 2 == 0).collect(),
        val_mask: (0..n).map(|i| i % 4 == 1).collect(),
        test_mask: (0..n).map(|i| i % 4 == 3).collect(),
        num_classes,
        name: "isolated-nodes".into(),
    }
}

fn config(arch: Arch, mode: Mode, threads: usize) -> TrainConfig {
    TrainConfig {
        model: ModelConfig {
            arch,
            mode,
            layers: 2,
            in_dim: 0,
            num_classes: 3,
            dropout: 0.0,
            batch_norm: false,
            seed: 5,
        },
        epochs: 4,
        lr: 0.01,
        schedule: LrSchedule::Constant,
        label_aug: false,
        aug_frac: 0.0,
        cs: None,
        prefetch_depth: 0,
        seed: 5,
        threads,
        protocol: Default::default(),
    }
}

#[test]
fn sage_mean_aggregation_survives_isolated_nodes() {
    let d = dataset_with_isolated_nodes();
    let part = random(&d.graph, 3, 7);
    let report = train(
        &d,
        &part,
        CostModel::default(),
        &config(Arch::GraphSage { hidden: 16 }, Mode::Sar, 1),
    );
    assert!(
        report.losses.iter().all(|l| l.is_finite()),
        "sage losses went non-finite on isolated nodes: {:?}",
        report.losses
    );
    assert!(report.test_acc.is_finite());
}

#[test]
fn gat_edge_softmax_survives_isolated_nodes() {
    let d = dataset_with_isolated_nodes();
    let part = random(&d.graph, 3, 7);
    for mode in [Mode::Sar, Mode::SarFused] {
        let cfg = config(
            Arch::Gat {
                head_dim: 4,
                heads: 2,
            },
            mode,
            1,
        );
        let report = train(&d, &part, CostModel::default(), &cfg);
        assert!(
            report.losses.iter().all(|l| l.is_finite()),
            "gat losses went non-finite on isolated nodes: {:?}",
            report.losses
        );
        assert!(report.test_acc.is_finite());
    }
}

#[test]
fn training_losses_are_bitwise_identical_across_thread_counts() {
    let d = dataset_with_isolated_nodes();
    let part = random(&d.graph, 3, 7);
    for (arch, mode) in [
        (Arch::GraphSage { hidden: 16 }, Mode::Sar),
        (
            Arch::Gat {
                head_dim: 4,
                heads: 2,
            },
            Mode::SarFused,
        ),
    ] {
        let seq = train(&d, &part, CostModel::default(), &config(arch, mode, 1));
        let par = train(&d, &part, CostModel::default(), &config(arch, mode, 4));
        let seq_bits: Vec<u32> = seq.losses.iter().map(|l| l.to_bits()).collect();
        let par_bits: Vec<u32> = par.losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(
            seq_bits, par_bits,
            "{arch:?}/{mode:?}: losses diverge between 1 and 4 threads: {:?} vs {:?}",
            seq.losses, par.losses
        );
    }
}
