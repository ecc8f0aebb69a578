//! The experiments of the paper's evaluation section (§4), one function
//! per table/figure, plus the ablations called out in DESIGN.md.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CostModel};
use sar_core::{train, Arch, DistGraph, DistModel, Mode, ModelConfig, TrainConfig, Worker};
use sar_graph::fused::{gat_fused_block_forward, OnlineAttnState};
use sar_graph::{datasets, CsrGraph, Dataset};
use sar_nn::{CsConfig, LrSchedule};
use sar_partition::{multilevel, partition, range, Method};
use sar_tensor::{init, MemoryTracker, Tensor, Var};

use crate::report::{mib, pct, secs, Table};

/// Shared experiment parameters (defaults target a 2-core CI box; scale
/// up with the `repro` CLI flags).
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Node count of the ogbn-products stand-in.
    pub products_nodes: usize,
    /// Node count of the ogbn-papers100M stand-in.
    pub papers_nodes: usize,
    /// Training epochs for accuracy experiments (paper: 100).
    pub epochs: usize,
    /// Epochs per timing measurement (first epoch is discarded).
    pub timing_epochs: usize,
    /// Bandwidth down-scaling of the InfiniBand cost model, matching the
    /// single-thread compute rate of this reproduction to the paper's
    /// 36-core workers so compute/communication ratios are comparable.
    pub bandwidth_scale: f64,
    /// Per-worker memory budget in MiB for the "OOM" marker on
    /// products-like runs (Figs. 3/4; the paper's 256 GB hosts never
    /// overflow there, so the default is generous).
    pub mem_budget_products_mib: f64,
    /// Per-worker memory budget in MiB for papers-like runs (Figs. 5/6).
    /// Calibrated so the budget sits between SAR's and domain-parallel
    /// GAT's measured peaks at 32 workers, in the same proportion as the
    /// paper's 256 GB limit (where DP-GAT-32 OOMs and SAR fits).
    pub mem_budget_papers_mib: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            products_nodes: 4000,
            papers_nodes: 8000,
            epochs: 40,
            timing_epochs: 4,
            bandwidth_scale: 100.0,
            mem_budget_products_mib: 512.0,
            mem_budget_papers_mib: 48.0,
            seed: 0,
        }
    }
}

impl ExpConfig {
    /// The α–β network model used by all distributed experiments.
    pub fn cost_model(&self) -> CostModel {
        CostModel::default().scale(self.bandwidth_scale)
    }
}

fn paper_train_cfg(model: ModelConfig, epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        model,
        epochs,
        lr: 0.01,
        schedule: LrSchedule::StepDecay {
            every: 30,
            gamma: 0.5,
        },
        label_aug: true,
        aug_frac: 0.5,
        cs: Some(CsConfig::default()),
        prefetch_depth: 0,
        seed,
        threads: 1,
        protocol: Default::default(),
    }
}

// ----------------------------------------------------------------------
// Table 1 — datasets and final accuracies
// ----------------------------------------------------------------------

/// Reproduces Table 1: dataset statistics plus GraphSage / GraphSage+C&S /
/// GAT / GAT+C&S accuracies on both stand-in datasets.
pub fn table1(cfg: &ExpConfig) -> Vec<Table> {
    let products = datasets::products_like(cfg.products_nodes, cfg.seed);
    let papers = datasets::papers_like(cfg.papers_nodes, cfg.seed + 1);

    let mut stats = Table::new(
        "Table 1 (top) — dataset statistics (synthetic stand-ins)",
        &["", "products-like", "papers-like"],
    );
    let row = |name: &str, f: &dyn Fn(&Dataset) -> String| {
        vec![name.to_string(), f(&products), f(&papers)]
    };
    stats.row(row("# nodes", &|d| d.num_nodes().to_string()));
    stats.row(row("# edges", &|d| d.graph.num_edges().to_string()));
    stats.row(row("# input features", &|d| d.feat_dim().to_string()));
    stats.row(row("# classes", &|d| d.num_classes.to_string()));

    let mut acc = Table::new(
        "Table 1 (bottom) — test accuracy",
        &["model", "products-like", "papers-like"],
    );
    let mut results: Vec<[String; 2]> = vec![
        [String::new(), String::new()],
        [String::new(), String::new()],
        [String::new(), String::new()],
        [String::new(), String::new()],
    ];
    for (col, d) in [&products, &papers].into_iter().enumerate() {
        let part = multilevel(&d.graph, 4, cfg.seed);
        // GraphSage.
        let model = ModelConfig::paper_graphsage(0, d.num_classes, Mode::Sar);
        let sage = train(
            d,
            &part,
            cfg.cost_model(),
            &paper_train_cfg(model, cfg.epochs, cfg.seed),
        );
        // GAT (smaller head dim than the Sage hidden, as in the paper).
        let model = ModelConfig::paper_gat(0, d.num_classes, Mode::SarFused);
        let gat = train(
            d,
            &part,
            cfg.cost_model(),
            &paper_train_cfg(model, cfg.epochs, cfg.seed),
        );
        results[0][col] = pct(sage.test_acc);
        results[1][col] = pct(sage.test_acc_cs.unwrap_or(sage.test_acc));
        results[2][col] = pct(gat.test_acc);
        results[3][col] = pct(gat.test_acc_cs.unwrap_or(gat.test_acc));
    }
    for (name, r) in [
        "GraphSage Accuracy",
        "GraphSage+C&S Accuracy",
        "GAT Accuracy",
        "GAT+C&S Accuracy",
    ]
    .iter()
    .zip(results)
    {
        acc.row(vec![name.to_string(), r[0].clone(), r[1].clone()]);
    }
    vec![stats, acc]
}

// ----------------------------------------------------------------------
// Figure 2 — single-host fused attention kernels
// ----------------------------------------------------------------------

/// Reproduces Fig. 2: forward/backward runtime (a) and peak memory (b) of
/// the GAT layer `DistModel` trains, on a single host (one worker over
/// the whole graph), for 2/4/8 attention heads at a constant per-head
/// dimension of 100 (so widths 200/400/800 as in the paper). The
/// "DGL-style" row is [`Mode::DomainParallel`], the two-step pipeline the
/// baseline trains with — which at world 1 also keeps its one-worker halo,
/// a copy of the projected features, on the tape; the "FAK" row is
/// [`Mode::SarFused`]. Both rows build their model from one seed, so they
/// run on identical parameters.
pub fn fig2(cfg: &ExpConfig) -> Vec<Table> {
    let d = datasets::products_like(cfg.products_nodes, cfg.seed);
    let n = d.num_nodes();
    let graph = Arc::new(DistGraph::build_all(&d.graph, &range(&d.graph, 1)).swap_remove(0));
    let mut time_table = Table::new(
        "Figure 2a — single GAT layer runtime (s)",
        &["heads", "impl", "forward", "backward", "fwd+bwd"],
    );
    let mut mem_table = Table::new(
        "Figure 2b — peak memory during forward (MiB)",
        &["heads", "DGL-style", "FAK", "ratio"],
    );
    for heads in [2usize, 4, 8] {
        let head_dim = 100;
        let width = heads * head_dim;
        let mut rng = StdRng::seed_from_u64(cfg.seed + heads as u64);
        let x = Arc::new(init::randn(&[n, width], 0.5, &mut rng).into_data());
        let model = |mode| ModelConfig {
            arch: Arch::Gat { head_dim, heads },
            mode,
            layers: 1,
            in_dim: width,
            num_classes: head_dim,
            dropout: 0.0,
            batch_norm: false,
            seed: cfg.seed + heads as u64,
        };
        // `MemoryTracker` is per thread: measure on the worker's own.
        let measure = |model: ModelConfig| -> (f64, f64, usize) {
            let (graph, x) = (Arc::clone(&graph), Arc::clone(&x));
            let mut outcomes = Cluster::new(1, CostModel::default()).run(move |ctx| {
                let w = Worker::new(ctx, Arc::clone(&graph));
                let view = w.view();
                let model = DistModel::new(&model);
                let h = Var::parameter(Tensor::from_vec(&[n, width], x.to_vec()));
                MemoryTracker::reset_peak();
                let base = MemoryTracker::stats().current_bytes;
                let t0 = Instant::now();
                let out = model
                    .layer_forward(0, &w, &view, &h)
                    .expect("one worker has no peer to lose");
                let t_fwd = t0.elapsed().as_secs_f64();
                let peak = MemoryTracker::stats().peak_bytes.saturating_sub(base);
                let t1 = Instant::now();
                out.sum().backward();
                let t_bwd = t1.elapsed().as_secs_f64();
                (t_fwd, t_bwd, peak)
            });
            outcomes.remove(0).result
        };

        let (f_std, b_std, m_std) = measure(model(Mode::DomainParallel));
        let (f_fak, b_fak, m_fak) = measure(model(Mode::SarFused));

        for (name, f, b) in [("DGL-style", f_std, b_std), ("FAK", f_fak, b_fak)] {
            time_table.row(vec![
                heads.to_string(),
                name.to_string(),
                secs(f),
                secs(b),
                secs(f + b),
            ]);
        }
        mem_table.row(vec![
            heads.to_string(),
            mib(m_std),
            mib(m_fak),
            format!("{:.2}x", m_std as f64 / m_fak.max(1) as f64),
        ]);
    }
    vec![time_table, mem_table]
}

// ----------------------------------------------------------------------
// Figures 3–6 — distributed scaling
// ----------------------------------------------------------------------

/// Which dataset a scaling figure runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ogbn-products stand-in (Figs. 3 and 4; paper worlds 4/8/16).
    Products,
    /// ogbn-papers100M stand-in (Figs. 5 and 6; paper worlds 32/64/128).
    Papers,
}

/// Reproduces one of Figs. 3–6: epoch time and per-worker peak memory of
/// a 3-layer GraphSage or GAT across worker counts, comparing
/// domain-parallel training against SAR (and SAR+FAK for GAT).
///
/// Returns `(epoch-time table, peak-memory table)`.
pub fn scaling(arch: Arch, workload: Workload, worlds: &[usize], cfg: &ExpConfig) -> Vec<Table> {
    let (d, figure) = match workload {
        Workload::Products => (
            datasets::products_like(cfg.products_nodes, cfg.seed),
            match arch {
                Arch::Gat { .. } => "Figure 4",
                _ => "Figure 3",
            },
        ),
        Workload::Papers => (
            datasets::papers_like(cfg.papers_nodes, cfg.seed + 1),
            match arch {
                Arch::Gat { .. } => "Figure 6",
                _ => "Figure 5",
            },
        ),
    };
    let modes: &[(Mode, &str)] = match arch {
        Arch::Gat { .. } => &[
            (Mode::DomainParallel, "domain-parallel"),
            (Mode::Sar, "SAR"),
            (Mode::SarFused, "SAR+FAK"),
        ],
        _ => &[
            (Mode::DomainParallel, "domain-parallel"),
            (Mode::Sar, "SAR"),
        ],
    };
    let arch_name = match arch {
        Arch::GraphSage { .. } => "GraphSage",
        Arch::Gat { .. } => "GAT",
        Arch::Gcn { .. } => "GCN",
    };

    let budget_mib = match workload {
        Workload::Products => cfg.mem_budget_products_mib,
        Workload::Papers => cfg.mem_budget_papers_mib,
    };
    let mut time_table = Table::new(
        format!("{figure}a — {arch_name} on {}: epoch time (s)", d.name),
        &["workers", "mode", "compute", "comm", "epoch time"],
    );
    let mut mem_table = Table::new(
        format!(
            "{figure}b — {arch_name} on {}: peak memory/worker (MiB, budget {budget_mib} MiB)",
            d.name
        ),
        &["workers", "mode", "peak MiB", "status"],
    );

    for &world in worlds {
        let part = multilevel(&d.graph, world, cfg.seed);
        for &(mode, mode_name) in modes {
            let model = ModelConfig {
                arch,
                mode,
                layers: 3,
                in_dim: 0,
                num_classes: d.num_classes,
                dropout: 0.3,
                batch_norm: true,
                seed: cfg.seed,
            };
            let mut tc = paper_train_cfg(model, cfg.timing_epochs, cfg.seed);
            tc.cs = None;
            let run = train(&d, &part, cfg.cost_model(), &tc);
            let skip = 1.min(run.epoch_times.len() - 1);
            // Median over steady-state epochs: robust to scheduler noise
            // when many worker threads share few physical cores.
            let median = |v: &[f64]| -> f64 {
                let mut s = v[skip..].to_vec();
                s.sort_by(|a, b| a.partial_cmp(b).unwrap());
                s[s.len() / 2]
            };
            let avg_compute = median(&run.epoch_compute);
            let avg_comm = median(&run.epoch_comm);
            let avg_time = avg_compute + avg_comm;
            time_table.row(vec![
                world.to_string(),
                mode_name.to_string(),
                secs(avg_compute),
                secs(avg_comm),
                secs(avg_time),
            ]);
            let peak = run.max_peak_bytes();
            let status = if peak as f64 / (1024.0 * 1024.0) > budget_mib {
                "OOM (over budget)"
            } else {
                "ok"
            };
            mem_table.row(vec![
                world.to_string(),
                mode_name.to_string(),
                mib(peak),
                status.to_string(),
            ]);
        }
    }
    vec![time_table, mem_table]
}

// ----------------------------------------------------------------------
// Ablations
// ----------------------------------------------------------------------

/// §3.4 prefetching ablation: peak memory of the aggregation phase itself
/// at pipeline depths 0, 1 and 2 — the paper's 2/N vs 3/N residency
/// bound, extended to the general (k+2)/N staging law. Measured on a
/// *random* partitioning (worst-case boundary: essentially every remote
/// node is needed) so the fetched blocks dominate the phase's footprint.
pub fn ablation_prefetch(cfg: &ExpConfig) -> Table {
    use sar_core::sage_aggregate;
    use std::rc::Rc;

    let d = datasets::products_like(cfg.products_nodes, cfg.seed);
    let world = 8;
    let part = sar_partition::random(&d.graph, world, cfg.seed);
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&d.graph, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let feat = 512usize;
    let mut t = Table::new(
        "Ablation — prefetch depth (sequential aggregation phase, 8 workers, random partition)",
        &[
            "prefetch depth",
            "aggregation peak MiB/worker",
            "residency model",
        ],
    );
    for depth in [0usize, 1, 2] {
        let graphs = Arc::clone(&graphs);
        let outcomes = Cluster::new(world, cfg.cost_model()).run(move |ctx| {
            let rank = ctx.rank();
            let w = Worker::from_shared(Rc::new(ctx), Arc::clone(&graphs[rank]), depth);
            let z = Var::constant(sar_tensor::Tensor::ones(&[w.graph.num_local(), feat]));
            // Measure only the aggregation loop.
            MemoryTracker::reset_peak();
            let base = MemoryTracker::stats().current_bytes;
            let out = sage_aggregate(&w, &w.view(), &z).expect("aggregation exchange");
            let peak = MemoryTracker::stats().peak_bytes - base;
            drop(out);
            peak
        });
        let peak = outcomes.iter().map(|o| o.result).max().unwrap_or(0);
        t.row(vec![
            depth.to_string(),
            mib(peak),
            match depth {
                0 => "2/N (local + current)".to_string(),
                1 => "3/N (local + current + 1 staged)".to_string(),
                k => format!("{}/N (local + current + {k} staged)", k + 2),
            },
        ]);
    }
    t
}

/// A *numerically naive* variant of [`gat_fused_block_forward`] that
/// accumulates `exp(e)` without max tracking — the other arm of
/// [`ablation_softmax`]: with large attention logits it overflows to
/// `inf`/`NaN` exactly as the paper warns.
fn gat_naive_block_forward(
    g: &CsrGraph,
    s_dst: &Tensor,
    s_src: &Tensor,
    x_src: &Tensor,
    slope: f32,
    state: &mut OnlineAttnState,
) {
    let (h, d) = (state.heads(), state.head_dim());
    for i in 0..g.num_rows() {
        for &j in g.neighbors(i) {
            let j = j as usize;
            let x_row = &x_src.data()[j * h * d..(j + 1) * h * d];
            for head in 0..h {
                let u = s_dst.at(&[i, head]) + s_src.at(&[j, head]);
                let e = if u > 0.0 { u } else { slope * u };
                let w = e.exp(); // no stabilization
                state.den.row_mut(i)[head] += w;
                let num_row = state.num.row_mut(i);
                for k in 0..d {
                    num_row[head * d + k] += w * x_row[head * d + k];
                }
            }
        }
    }
}

/// §3.4 stable-softmax ablation: the running-max online softmax stays
/// finite under large attention logits; the naive accumulator overflows.
pub fn ablation_softmax(cfg: &ExpConfig) -> Table {
    let n = 256;
    let g = CsrGraph::from_edges(
        n,
        &(0..n as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
    )
    .symmetrize()
    .with_self_loops();
    let mut t = Table::new(
        "Ablation — stable online softmax under large logits",
        &["logit std", "kernel", "finite outputs", "max |out|"],
    );
    for std in [1.0f32, 30.0, 90.0] {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let s_dst = init::randn(&[n, 1], std, &mut rng);
        let s_src = init::randn(&[n, 1], std, &mut rng);
        let x = init::randn(&[n, 4], 1.0, &mut rng);
        for (name, naive) in [("stable (SAR)", false), ("naive", true)] {
            let mut state = OnlineAttnState::new(n, 1, 4);
            if naive {
                gat_naive_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut state);
            } else {
                gat_fused_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut state);
            }
            let out = state.finalize();
            let finite = out.data().iter().filter(|v| v.is_finite()).count();
            t.row(vec![
                format!("{std}"),
                name.to_string(),
                format!("{}/{}", finite, out.numel()),
                if finite == out.numel() {
                    format!("{:.3}", out.max_abs())
                } else {
                    "non-finite".to_string()
                },
            ]);
        }
    }
    t
}

/// Partitioner-quality ablation: edge cut, per-epoch communication volume
/// and epoch time under different partitioners (the paper uses METIS).
pub fn ablation_partition(cfg: &ExpConfig) -> Table {
    let d = datasets::products_like(cfg.products_nodes, cfg.seed);
    let world = 8;
    let mut t = Table::new(
        "Ablation — partitioner quality (GraphSage, SAR, 8 workers)",
        &[
            "method",
            "cut fraction",
            "balance",
            "MB sent/epoch",
            "epoch time (s)",
        ],
    );
    for (method, name) in [
        (Method::Multilevel, "multilevel (METIS-like)"),
        (Method::Bfs, "BFS growing"),
        (Method::Range, "range"),
        (Method::Random, "random"),
    ] {
        let part = partition(&d.graph, world, method, cfg.seed);
        let model = ModelConfig {
            arch: Arch::GraphSage { hidden: 128 },
            mode: Mode::Sar,
            layers: 3,
            in_dim: 0,
            num_classes: d.num_classes,
            dropout: 0.0,
            batch_norm: false,
            seed: cfg.seed,
        };
        let mut tc = paper_train_cfg(model, cfg.timing_epochs, cfg.seed);
        tc.cs = None;
        tc.label_aug = false;
        let run = train(&d, &part, cfg.cost_model(), &tc);
        let mb_per_epoch =
            run.total_sent_bytes() as f64 / (1024.0 * 1024.0) / cfg.timing_epochs as f64;
        t.row(vec![
            name.to_string(),
            format!("{:.3}", part.cut_fraction(&d.graph)),
            format!("{:.3}", part.balance()),
            format!("{mb_per_epoch:.1}"),
            secs(run.avg_epoch_time()),
        ]);
    }
    t
}

/// The exactness experiment backing §2's claim: training losses and final
/// logits must agree across worker counts.
pub fn exactness(cfg: &ExpConfig) -> Table {
    let d = datasets::products_like(cfg.products_nodes.min(1500), cfg.seed);
    let model = ModelConfig {
        arch: Arch::GraphSage { hidden: 32 },
        mode: Mode::Sar,
        layers: 2,
        in_dim: 0,
        num_classes: d.num_classes,
        dropout: 0.0,
        batch_norm: true,
        seed: cfg.seed,
    };
    let mut tc = paper_train_cfg(model, 6, cfg.seed);
    tc.cs = None;
    tc.label_aug = false;
    let reference = train(
        &d,
        &multilevel(&d.graph, 1, cfg.seed),
        cfg.cost_model(),
        &tc,
    );
    let mut t = Table::new(
        "Exactness — SAR training is independent of the worker count",
        &["workers", "final loss", "max |Δ logit| vs N=1"],
    );
    t.row(vec![
        "1".into(),
        format!("{:.6}", reference.losses.last().unwrap()),
        "0".into(),
    ]);
    for world in [2usize, 4, 8] {
        let run = train(
            &d,
            &multilevel(&d.graph, world, cfg.seed),
            cfg.cost_model(),
            &tc,
        );
        let delta = run
            .logits
            .data()
            .iter()
            .zip(reference.logits.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        t.row(vec![
            world.to_string(),
            format!("{:.6}", run.losses.last().unwrap()),
            format!("{delta:.2e}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            products_nodes: 300,
            papers_nodes: 300,
            epochs: 2,
            timing_epochs: 2,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn fig2_times_both_modes_and_fak_peaks_lower_at_every_head_count() {
        let tables = fig2(&tiny());
        let [time, mem] = &tables[..] else {
            panic!("fig2 prints two tables")
        };
        let cells = |t: &Table, col: usize| -> Vec<String> {
            t.rows.iter().map(|r| r[col].clone()).collect()
        };
        assert_eq!(cells(time, 0), ["2", "2", "4", "4", "8", "8"]);
        assert_eq!(
            cells(time, 1),
            ["DGL-style", "FAK", "DGL-style", "FAK", "DGL-style", "FAK"]
        );
        assert_eq!(cells(mem, 0), ["2", "4", "8"]);
        for row in &mem.rows {
            let ratio: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(ratio > 1.0, "FAK peak is not below DGL-style's: {row:?}");
        }
    }

    #[test]
    fn scaling_runs_all_modes() {
        let tables = scaling(
            Arch::GraphSage { hidden: 16 },
            Workload::Products,
            &[2, 4],
            &tiny(),
        );
        assert_eq!(tables[0].rows.len(), 4); // 2 worlds × 2 modes
    }

    #[test]
    fn softmax_ablation_shows_naive_overflow() {
        let t = ablation_softmax(&tiny());
        let rendered = t.render();
        assert!(
            rendered.contains("non-finite"),
            "naive kernel should overflow:\n{rendered}"
        );
    }
}
