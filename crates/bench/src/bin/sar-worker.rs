//! `sar-worker` — one OS process per rank for real TCP training runs.
//!
//! ```text
//! sar-worker --spawn-local N [workload flags]      # launcher mode
//! sar-worker --rank R --world N --rendezvous-file PATH [workload flags]
//!
//! workload flags: the shared vocabulary documented on
//! `sar_bench::distrun::Workload` and tabulated in the README,
//! identical on every rank — each process rebuilds the dataset,
//! partitioning and model deterministically from them.
//!
//! rank-0-only outputs:
//!   --experiment NAME            report label       (<arch>-<mode>)
//!   --out PATH                   write the gathered RunReport JSON
//!   --check smoke                apply the smoke ledger invariants to
//!                                the gathered report; exit 1 on any
//!                                violation
//!
//! other:
//!   --rendezvous-timeout-secs N  poll budget for the rendezvous file (60)
//! ```
//!
//! In `--spawn-local N` mode the binary re-execs itself once per rank
//! (via `std::env::current_exe`), wires the ranks together through a
//! fresh rendezvous file in the temp directory, waits for all children,
//! and exits non-zero if any rank does. Rank 0 gathers every rank's
//! per-phase communication ledger over the data plane after training and
//! assembles the same `RunReport` JSON the simulated backend writes.

use std::time::Duration;

use sar_bench::cli::Args;
use sar_bench::distrun::{run_rank, RankOpts, Workload};
use sar_bench::{launcher, smoke};

struct Cli {
    spawn_local: Option<usize>,
    rank: Option<usize>,
    world: Option<usize>,
    rendezvous_file: Option<std::path::PathBuf>,
    rendezvous_timeout: Duration,
    experiment: Option<String>,
    out: Option<String>,
    check: Option<String>,
    workload: Workload,
}

fn fail(msg: &str) -> ! {
    eprintln!("sar-worker: {msg}");
    std::process::exit(2);
}

fn parse_cli(mut args: Args) -> Result<Cli, String> {
    let mut cli = Cli {
        spawn_local: None,
        rank: None,
        world: None,
        rendezvous_file: None,
        rendezvous_timeout: Duration::from_secs(60),
        experiment: None,
        out: None,
        check: None,
        workload: Workload::default(),
    };
    while let Some(flag) = args.next_flag() {
        let flag = flag.as_str();
        match flag {
            "--spawn-local" => cli.spawn_local = Some(args.parsed(flag)?),
            "--rank" => cli.rank = Some(args.parsed(flag)?),
            "--world" => cli.world = Some(args.parsed(flag)?),
            "--rendezvous-file" => cli.rendezvous_file = Some(args.value(flag)?.into()),
            "--rendezvous-timeout-secs" => {
                cli.rendezvous_timeout = Duration::from_secs(args.parsed(flag)?);
            }
            "--experiment" => cli.experiment = Some(args.value(flag)?),
            "--out" => cli.out = Some(args.value(flag)?),
            "--check" => {
                let check = args.value(flag)?;
                if check != "smoke" {
                    return Err(format!("unknown --check {check} (only: smoke)"));
                }
                cli.check = Some(check);
            }
            "--help" | "-h" => {
                eprintln!("see the doc comment at the top of crates/bench/src/bin/sar-worker.rs");
                std::process::exit(0);
            }
            _ if cli.workload.apply_flag(flag, &mut args)? => {}
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

/// `--spawn-local N`: re-exec this binary once per rank and wait.
fn spawn_local(n: usize, cli: &Cli) -> ! {
    if n == 0 {
        fail("--spawn-local needs at least one rank");
    }
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate own executable: {e}")));
    let mut args = cli.workload.to_args();
    args.extend([
        "--rendezvous-timeout-secs".to_string(),
        cli.rendezvous_timeout.as_secs().to_string(),
    ]);
    for (flag, value) in [
        ("--experiment", &cli.experiment),
        ("--out", &cli.out),
        ("--check", &cli.check),
    ] {
        if let Some(value) = value {
            args.extend([flag.to_string(), value.clone()]);
        }
    }
    eprintln!(
        "[sar-worker] spawning {n} local rank processes ({} / {} on {} nodes) ...",
        cli.workload.arch, cli.workload.mode, cli.workload.nodes
    );
    match launcher::spawn_ranks(&exe, n, &args) {
        Ok(()) => {
            eprintln!("[sar-worker] all {n} ranks completed");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[sar-worker] launch failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let cli = parse_cli(Args::from_env()).unwrap_or_else(|e| fail(&e));
    if let Some(n) = cli.spawn_local {
        if cli.rank.is_some() || cli.rendezvous_file.is_some() {
            fail("--spawn-local is exclusive with --rank/--rendezvous-file");
        }
        spawn_local(n, &cli);
    }

    let rank = cli
        .rank
        .unwrap_or_else(|| fail("--rank is required (or use --spawn-local N)"));
    let world = cli.world.unwrap_or_else(|| fail("--world is required"));
    let rendezvous_file = cli
        .rendezvous_file
        .clone()
        .unwrap_or_else(|| fail("--rendezvous-file is required"));
    let experiment = cli
        .experiment
        .clone()
        .unwrap_or_else(|| format!("{}-{}", cli.workload.arch, cli.workload.mode));
    let opts = RankOpts {
        rank,
        world,
        rendezvous_file,
        rendezvous_timeout: cli.rendezvous_timeout,
        experiment,
    };

    match run_rank(&opts, &cli.workload) {
        Ok(None) => {} // ranks 1..N: results were shipped to rank 0
        Ok(Some(report)) => {
            smoke::ledger_table(&report).print();
            println!(
                "losses {:?} | val {:.2}% | test {:.2}%",
                report.losses,
                100.0 * report.val_acc,
                100.0 * report.test_acc
            );
            if let Some(path) = &cli.out {
                if let Some(dir) = std::path::Path::new(path).parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                            fail(&format!("cannot create {}: {e}", dir.display()))
                        });
                    }
                }
                report
                    .write_json(path)
                    .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
                eprintln!("[sar-worker] wrote {path}");
            }
            if cli.check.as_deref() == Some("smoke") {
                let violations = smoke::violations(&report, cli.workload.epochs);
                if !violations.is_empty() {
                    for v in &violations {
                        eprintln!("[sar-worker] smoke VIOLATION: {v}");
                    }
                    std::process::exit(1);
                }
                eprintln!("[sar-worker] smoke: all ledger invariants hold over TCP");
            }
            if report.has_non_finite_loss() {
                eprintln!("sar-worker: training diverged (non-finite loss)");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("sar-worker: {e}");
            std::process::exit(1);
        }
    }
}
