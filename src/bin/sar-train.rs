//! `sar-train` — command-line distributed full-batch GNN training.
//!
//! ```text
//! sar-train [workload flags] [flags]
//!
//! workload flags: the shared vocabulary documented on
//! `sar_bench::distrun::Workload` and tabulated in the README, with
//! training-sized defaults: --nodes 4000, --mode sar-fak, --hidden 128,
//! --epochs 50, --schedule step, and Correct & Smooth on.
//!
//!   --transport sim|tcp           in-process simulated cluster, or one
//!                                 OS process per rank over TCP loopback
//!                                 (spawns the sar-worker binary)   (sim)
//!   --workers N                   cluster size                    (4)
//!   --dataset-file PATH           load a binary dataset (sar_graph::io)
//!                                 instead of generating --dataset
//!   --no-cs                       disable Correct & Smooth
//!   --save-model PATH             checkpoint final parameters
//!   --report-json PATH            write the per-worker observability
//!                                 RunReport (phase/layer comm ledger,
//!                                 memory peaks, timings) as JSON
//! ```
//!
//! Exits with status 1 if training diverged (non-finite loss) — after
//! writing the report, so CI can archive the evidence.
//!
//! Under `--transport tcp` the run is delegated to `sar-worker`
//! processes, which rebuild the synthetic dataset deterministically from
//! flags; `--dataset-file` and `--save-model` are therefore rejected
//! there (the multi-process path gathers ledgers and metrics to rank 0,
//! not trained parameters or logits).

use sar::bench::cli::Args;
use sar::bench::distrun::Workload;
use sar::bench::harness::{run_workload, train_in_process, Transport};
use sar::bench::report::RunReport;
use sar::core::checkpoint;
use sar::graph::io;
use sar::nn::ConfusionMatrix;

struct Cli {
    transport: Transport,
    dataset_file: Option<String>,
    workers: usize,
    save_model: Option<String>,
    report_json: Option<String>,
    workload: Workload,
}

fn fail(msg: &str) -> ! {
    eprintln!("sar-train: {msg}");
    std::process::exit(2);
}

fn parse_cli(mut args: Args) -> Result<Cli, String> {
    let mut cli = Cli {
        transport: Transport::Sim,
        dataset_file: None,
        workers: 4,
        save_model: None,
        report_json: None,
        workload: Workload {
            nodes: 4000,
            mode: "sar-fak".into(),
            hidden: 128,
            epochs: 50,
            cs: true,
            schedule: "step".into(),
            ..Workload::default()
        },
    };
    while let Some(flag) = args.next_flag() {
        let flag = flag.as_str();
        match flag {
            "--transport" => cli.transport = Transport::parse(&args.value(flag)?)?,
            "--dataset-file" => cli.dataset_file = Some(args.value(flag)?),
            "--workers" => cli.workers = args.parsed(flag)?,
            "--no-cs" => cli.workload.cs = false,
            "--save-model" => cli.save_model = Some(args.value(flag)?),
            "--report-json" => cli.report_json = Some(args.value(flag)?),
            "--help" | "-h" => {
                eprintln!("see the doc comment at the top of src/bin/sar-train.rs");
                std::process::exit(0);
            }
            _ if cli.workload.apply_flag(flag, &mut args)? => {}
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

/// `--transport tcp`: one `sar-worker` OS process per rank. The options
/// that need shared memory or a full parameter/logit gather are rejected
/// up front with an explanation instead of silently dropped.
fn train_tcp(cli: &Cli) -> RunReport {
    if cli.dataset_file.is_some() {
        fail(
            "--dataset-file is not supported with --transport tcp: every rank rebuilds \
             the dataset deterministically from flags (use --dataset/--nodes/--seed)",
        );
    }
    if cli.save_model.is_some() {
        fail(
            "--save-model is not supported with --transport tcp: the multi-process run \
             gathers ledgers and metrics to rank 0, not trained parameters",
        );
    }
    let wl = &cli.workload;
    println!(
        "training {} / {} for {} epochs on {} OS processes over TCP ...",
        wl.arch, wl.mode, wl.epochs, cli.workers
    );
    let experiment = format!("sar-train/{}", wl.dataset);
    let report = run_workload(wl, cli.workers, Transport::Tcp, &experiment)
        .unwrap_or_else(|e| fail(&format!("tcp run failed: {e}")));
    println!("val  accuracy: {:.2}%", 100.0 * report.val_acc);
    println!("test accuracy: {:.2}%", 100.0 * report.test_acc);
    report
}

/// `--transport sim`: train in this process, which also yields the
/// logits (for the confusion matrix) and the trained parameters (for
/// `--save-model`).
fn train_sim(cli: &Cli) -> RunReport {
    let wl = &cli.workload;
    let (dataset, partitioning) = match &cli.dataset_file {
        Some(path) => {
            let dataset = io::load_dataset(path)
                .unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
            let partitioning = wl
                .partition(&dataset, cli.workers)
                .unwrap_or_else(|e| fail(&e));
            (dataset, partitioning)
        }
        None => wl.build_data(cli.workers).unwrap_or_else(|e| fail(&e)),
    };
    println!(
        "dataset {} | {} nodes, {} edges, {} classes",
        dataset.name,
        dataset.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes
    );
    println!(
        "partitioned into {} parts | cut {:.1}% | balance {:.3}",
        cli.workers,
        100.0 * partitioning.cut_fraction(&dataset.graph),
        partitioning.balance()
    );
    println!(
        "training {} / {} for {} epochs on {} workers ...",
        wl.arch, wl.mode, wl.epochs, cli.workers
    );
    let report = train_in_process(wl, &dataset, &partitioning).unwrap_or_else(|e| fail(&e));

    for (e, loss) in report.losses.iter().enumerate() {
        if e % (wl.epochs / 10).max(1) == 0 || e + 1 == report.losses.len() {
            println!("epoch {e:>4}  loss {loss:.4}");
        }
    }
    println!("val  accuracy: {:.2}%", 100.0 * report.val_acc);
    println!("test accuracy: {:.2}%", 100.0 * report.test_acc);
    if let Some(cs) = report.test_acc_cs {
        println!("test accuracy after C&S: {:.2}%", 100.0 * cs);
    }
    let cm = ConfusionMatrix::from_logits(
        &report.logits,
        &dataset.labels,
        &dataset.test_mask,
        dataset.num_classes,
    );
    println!("test macro-F1: {:.3}", cm.macro_f1());
    println!(
        "avg epoch time (modeled): {:.3}s | max peak memory/worker: {:.2} MiB | total traffic: {:.1} MiB",
        report.avg_epoch_time(),
        report.max_peak_bytes() as f64 / (1024.0 * 1024.0),
        report.total_sent_bytes as f64 / (1024.0 * 1024.0),
    );

    if let Some(path) = &cli.save_model {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
        checkpoint::save_raw_params(&report.final_params, file)
            .unwrap_or_else(|e| fail(&format!("cannot save model: {e}")));
        println!("saved trained parameters to {path}");
    }
    RunReport::from_train(
        format!("sar-train/{}", dataset.name),
        &wl.arch,
        &wl.mode,
        &report,
    )
}

fn main() {
    let cli = parse_cli(Args::from_env()).unwrap_or_else(|e| fail(&e));
    let report = match cli.transport {
        Transport::Sim => train_sim(&cli),
        Transport::Tcp => train_tcp(&cli),
    };
    if let Some(path) = &cli.report_json {
        report
            .write_json(path)
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        println!("wrote observability report to {path}");
    }
    if report.has_non_finite_loss() {
        eprintln!("sar-train: training diverged (non-finite loss)");
        std::process::exit(1);
    }
}
