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
//! rank flags (`sar_bench::launcher::RankFlags`, shared with `sar-serve`):
//!   the two launch forms above, plus
//!   --rendezvous-timeout-secs N  poll budget for the rendezvous file (60)
//! ```
//!
//! In `--spawn-local N` mode the binary re-execs itself once per rank
//! (via `std::env::current_exe`), wires the ranks together through a
//! fresh rendezvous file in the temp directory, waits for all children,
//! and exits non-zero if any rank does. Rank 0 gathers every rank's
//! per-phase communication ledger over the data plane after training and
//! assembles the same `RunReport` JSON the simulated backend writes.

use sar_bench::cli::Args;
use sar_bench::distrun::{run_rank, Workload};
use sar_bench::launcher::{Launch, RankFlags};
use sar_bench::smoke;

struct Cli {
    ranks: RankFlags,
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
        ranks: RankFlags::default(),
        experiment: None,
        out: None,
        check: None,
        workload: Workload::default(),
    };
    while let Some(flag) = args.next_flag() {
        let flag = flag.as_str();
        match flag {
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
            _ if cli.ranks.apply_flag(flag, &mut args)? => {}
            _ if cli.workload.apply_flag(flag, &mut args)? => {}
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = parse_cli(Args::from_env()).unwrap_or_else(|e| fail(&e));
    let seat = match cli.ranks.resolve().unwrap_or_else(|e| fail(&e)) {
        Launch::Rank(seat) => seat,
        Launch::Spawn(spawn) => std::process::exit(spawn.run("sar-worker", &cli.workload)),
    };
    let experiment = cli
        .experiment
        .clone()
        .unwrap_or_else(|| format!("{}-{}", cli.workload.arch, cli.workload.mode));

    match run_rank(&seat, &experiment, &cli.workload) {
        Ok(None) => {} // ranks 1..N: results were shipped to rank 0
        Ok(Some(report)) => {
            smoke::ledger_table(&report).print();
            println!(
                "losses {:?} | val {:.2}% | test {:.2}%",
                report.run.losses,
                100.0 * report.run.val_acc,
                100.0 * report.run.test_acc
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
