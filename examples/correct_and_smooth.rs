//! Trains a GAT with SAR, then boosts its predictions with distributed
//! Correct & Smooth — the paper's full Table-1 pipeline for one dataset.
//!
//! Run with: `cargo run --release --example correct_and_smooth`

use sar::comm::CostModel;
use sar::core::{train, Arch, Mode, ModelConfig, TrainConfig};
use sar::graph::datasets;
use sar::nn::{CsConfig, LrSchedule};
use sar::partition::multilevel;

fn main() {
    let dataset = datasets::products_like(2_500, 3);
    let partitioning = multilevel(&dataset.graph, 4, 3);

    let cfg = TrainConfig {
        model: ModelConfig {
            arch: Arch::Gat {
                head_dim: 32,
                heads: 4,
            },
            mode: Mode::SarFused,
            layers: 3,
            in_dim: 0,
            num_classes: dataset.num_classes,
            dropout: 0.2,
            batch_norm: true,
            seed: 7,
        },
        epochs: 40,
        lr: 0.01,
        schedule: LrSchedule::StepDecay {
            every: 20,
            gamma: 0.5,
        },
        label_aug: true,
        aug_frac: 0.5,
        // Correct & Smooth runs distributedly after training, reusing
        // SAR's sequential per-partition propagation.
        cs: Some(CsConfig::default()),
        prefetch_depth: 0,
        seed: 7,
        threads: 1,
        protocol: Default::default(),
    };

    println!(
        "training 3-layer GAT (SAR+FAK) on {} across {} workers...",
        dataset.name,
        partitioning.num_parts()
    );
    let report = train(&dataset, &partitioning, CostModel::default(), &cfg);

    println!(
        "\nfinal loss:          {:.4}",
        report.losses.last().unwrap()
    );
    println!("val accuracy:        {:.1}%", 100.0 * report.val_acc);
    println!("test accuracy:       {:.1}%", 100.0 * report.test_acc);
    let cs = report.test_acc_cs.expect("C&S was enabled");
    println!("test accuracy + C&S: {:.1}%", 100.0 * cs);
    println!(
        "\nC&S delta: {:+.2} points (paper Table 1 shows +0.5..+3 points)",
        100.0 * (cs - report.test_acc)
    );
}
