//! Quickstart: distributed full-batch GNN training with SAR in ~40 lines.
//!
//! Generates a small synthetic node-classification dataset, partitions it
//! METIS-style across 4 simulated workers, trains a 2-layer GraphSage
//! network with Sequential Aggregation and Rematerialization, and prints
//! the loss curve, accuracy and per-worker peak memory.
//!
//! Run with: `cargo run --release --example quickstart`

use sar::comm::CostModel;
use sar::core::{train, Arch, Mode, ModelConfig, TrainConfig};
use sar::graph::datasets;
use sar::nn::LrSchedule;
use sar::partition::multilevel;

fn main() {
    // 1. A synthetic stand-in for ogbn-products (2 000 nodes).
    let dataset = datasets::products_like(2_000, 0);
    println!(
        "dataset: {} — {} nodes, {} edges, {} classes",
        dataset.name,
        dataset.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes
    );

    // 2. Partition across 4 workers (multilevel partitioner ≈ METIS).
    let partitioning = multilevel(&dataset.graph, 4, 0);
    println!(
        "partitioned into {} parts, edge cut {:.1}%, balance {:.3}",
        partitioning.num_parts(),
        100.0 * partitioning.cut_fraction(&dataset.graph),
        partitioning.balance()
    );

    // 3. Train a 2-layer GraphSage with SAR.
    let cfg = TrainConfig {
        model: ModelConfig {
            arch: Arch::GraphSage { hidden: 64 },
            mode: Mode::Sar,
            layers: 2,
            in_dim: 0, // filled in by the trainer
            num_classes: dataset.num_classes,
            dropout: 0.2,
            batch_norm: true,
            jumping_knowledge: false,
            seed: 0,
        },
        epochs: 30,
        lr: 0.01,
        schedule: LrSchedule::StepDecay {
            every: 15,
            gamma: 0.5,
        },
        label_aug: true,
        aug_frac: 0.5,
        cs: None,
        prefetch_depth: 0,
        seed: 0,
        threads: 1,
        protocol: Default::default(),
        codec: Default::default(),
    };
    let report = train(&dataset, &partitioning, CostModel::default(), &cfg);

    // 4. Results.
    println!("\nepoch  loss");
    for (e, loss) in report.losses.iter().enumerate().step_by(5) {
        println!("{e:>5}  {loss:.4}");
    }
    println!(
        "\nval accuracy:  {:.1}%\ntest accuracy: {:.1}%",
        100.0 * report.val_acc,
        100.0 * report.test_acc
    );
    for (rank, (worker, _)) in report.ranks.iter().enumerate() {
        println!(
            "worker {rank}: peak tensor memory {:.2} MiB",
            worker.steady_peak_bytes as f64 / (1024.0 * 1024.0)
        );
    }
}
