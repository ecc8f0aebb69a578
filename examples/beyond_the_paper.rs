//! Extensions beyond the paper's evaluation: a GCN backbone with
//! jumping-knowledge skip connections, trained with SAR, checkpointed,
//! and re-served through distributed inference on a *different* cluster
//! size — demonstrating that SAR handles non-linear tape topologies
//! (§2 notes prior full-batch systems are "specific to linear GNN
//! topologies") and that checkpoints are portable across partitionings.
//!
//! Run with: `cargo run --release --example beyond_the_paper`

use sar::comm::CostModel;
use sar::core::{checkpoint, inference, train, Arch, Mode, ModelConfig, TrainConfig};
use sar::graph::datasets;
use sar::nn::{loss::accuracy, LrSchedule};
use sar::partition::multilevel;

fn main() {
    let dataset = datasets::products_like(2_000, 11);
    let train_part = multilevel(&dataset.graph, 4, 11);

    let cfg = TrainConfig {
        model: ModelConfig {
            arch: Arch::Gcn { hidden: 64 },
            mode: Mode::Sar,
            layers: 3,
            in_dim: 0,
            num_classes: dataset.num_classes,
            dropout: 0.2,
            batch_norm: true,
            // Classify from the concatenation of all three layer outputs.
            jumping_knowledge: true,
            seed: 11,
        },
        epochs: 30,
        lr: 0.02,
        schedule: LrSchedule::Cosine {
            total: 30,
            floor: 0.001,
        },
        label_aug: true,
        aug_frac: 0.5,
        cs: None,
        prefetch_depth: 1, // 3/N memory, overlapped fetches
        seed: 11,
        threads: 1,
        protocol: Default::default(),
        codec: Default::default(),
    };

    println!("training 3-layer GCN + jumping knowledge with SAR on 4 workers...");
    let report = train(&dataset, &train_part, CostModel::default(), &cfg);
    println!(
        "loss {:.3} -> {:.3} | test accuracy {:.1}%",
        report.losses.first().unwrap(),
        report.losses.last().unwrap(),
        100.0 * report.test_acc
    );

    // Checkpoint the trained parameters...
    let path = std::env::temp_dir().join("sar_jk_gcn.ckpt");
    checkpoint::save_raw_params(
        &report.final_params,
        std::fs::File::create(&path).expect("create checkpoint"),
    )
    .expect("write checkpoint");
    println!(
        "checkpointed {} parameter tensors to {}",
        report.final_params.len(),
        path.display()
    );

    // ...and serve it with distributed inference on a 7-worker cluster —
    // a partitioning the model has never seen.
    let serve_part = multilevel(&dataset.graph, 7, 99);
    let logits = inference::infer(
        &dataset,
        &serve_part,
        CostModel::default(),
        &cfg.model,
        &report.final_params,
        true,
    );
    let acc = accuracy(&logits, &dataset.labels, &dataset.test_mask);
    println!("re-served on 7 workers: test accuracy {:.1}%", 100.0 * acc);
    assert!(
        (acc - report.test_acc).abs() < 1e-6,
        "inference must be partitioning-independent"
    );
    println!("identical to training-time accuracy — SAR inference is exact.");
    let _ = std::fs::remove_file(&path);
}
