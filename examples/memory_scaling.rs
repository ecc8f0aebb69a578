//! Demonstrates the paper's headline memory claim: per-worker peak memory
//! under SAR shrinks as workers are added (≈ 2/N of the total state),
//! while vanilla domain-parallel training keeps a large halo resident.
//!
//! Trains the same 3-layer GAT under both execution modes at several
//! cluster sizes and prints the per-worker peaks side by side.
//!
//! Run with: `cargo run --release --example memory_scaling`

use sar::comm::CostModel;
use sar::core::{train, Arch, Mode, ModelConfig, TrainConfig};
use sar::graph::datasets;
use sar::nn::LrSchedule;
use sar::partition::multilevel;

fn main() {
    let dataset = datasets::products_like(3_000, 1);
    println!(
        "3-layer GAT (4 heads × 32) on {} ({} edges)\n",
        dataset.name,
        dataset.graph.num_edges()
    );
    println!("workers  domain-parallel  SAR+FAK  ratio");
    for world in [2usize, 4, 8, 16] {
        let partitioning = multilevel(&dataset.graph, world, 1);
        let mut peaks = Vec::new();
        for mode in [Mode::DomainParallel, Mode::SarFused] {
            let cfg = TrainConfig {
                model: ModelConfig {
                    arch: Arch::Gat {
                        head_dim: 32,
                        heads: 4,
                    },
                    mode,
                    layers: 3,
                    in_dim: 0,
                    num_classes: dataset.num_classes,
                    dropout: 0.0,
                    batch_norm: false,
                    jumping_knowledge: false,
                    seed: 1,
                },
                epochs: 2,
                lr: 0.01,
                schedule: LrSchedule::Constant,
                label_aug: false,
                aug_frac: 0.0,
                cs: None,
                prefetch_depth: 0,
                seed: 1,
                threads: 1,
                protocol: Default::default(),
                codec: Default::default(),
            };
            let report = train(&dataset, &partitioning, CostModel::default(), &cfg);
            peaks.push(report.max_peak_bytes() as f64 / (1024.0 * 1024.0));
        }
        println!(
            "{world:>7}  {:>14.2}M  {:>6.2}M  {:.2}x",
            peaks[0],
            peaks[1],
            peaks[0] / peaks[1]
        );
    }
    println!("\nSAR's advantage grows with the worker count: the fetched");
    println!("partitions are freed after use instead of living on the tape.");
}
