//! `sar-check` — the workspace's static-analysis gate.
//!
//! ```text
//! sar-check [--root DIR] [--report FILE.json] [--baseline FILE.json]
//!           [--annotate]
//! ```
//!
//! Runs all five passes ([`sar_check::run`]). Exit status is 0 only when
//! every pass is clean — findings are hard failures, the `-D warnings`
//! discipline. `--report` writes the machine-readable proof report (the
//! CI artifact); `--baseline` diffs the fresh report against a committed
//! one and fails if any proof obligation was silently dropped;
//! `--annotate` additionally prints findings as GitHub workflow-command
//! annotations (`::error file=…,line=…::…`); `--root` points the
//! source-reading passes at a workspace checkout (default: the current
//! directory, falling back to the manifest's grandparent when run via
//! `cargo run -p sar-check`).

use std::path::PathBuf;
use std::process::ExitCode;

use sar_check::reportio;

fn usage() -> ! {
    eprintln!(
        "usage: sar-check [--root DIR] [--report FILE.json] \
         [--baseline FILE.json] [--annotate]"
    );
    std::process::exit(2);
}

/// Splits a `file.rs:NN` location into (file, line) for annotations.
/// Protocol/sched locations (model coordinates) have no line — those
/// annotate without a position.
fn split_location(location: &str) -> Option<(&str, &str)> {
    let (file, line) = location.rsplit_once(':')?;
    if file.ends_with(".rs") && line.bytes().all(|b| b.is_ascii_digit()) {
        Some((file, line))
    } else {
        None
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut annotate = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--annotate" => annotate = true,
            "--root" => root = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--report" => {
                report_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--baseline" => {
                baseline_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("sar-check: unknown argument `{other}`");
                usage();
            }
        }
    }

    let root = root.unwrap_or_else(|| {
        let cwd = PathBuf::from(".");
        if cwd.join("crates").is_dir() {
            cwd
        } else {
            // Running via `cargo run -p sar-check` from somewhere else:
            // the workspace is two levels above this crate's manifest.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
        }
    });

    println!("sar-check: checking {}", root.display());
    let report = sar_check::run(&root);

    for pass in &report.passes {
        let stats: Vec<String> = pass
            .stats
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        println!(
            "sar-check: {} — {} finding(s) [{}]",
            pass.pass,
            pass.findings.len(),
            stats.join(", ")
        );
        for finding in &pass.findings {
            println!("  {finding}");
            if annotate {
                // GitHub workflow-command annotation; shows inline on the PR.
                match split_location(&finding.location) {
                    Some((file, line)) => println!(
                        "::error file={file},line={line},title=sar-check {}::{}",
                        finding.rule, finding.message
                    ),
                    None => println!(
                        "::error title=sar-check {} at {}::{}",
                        finding.rule, finding.location, finding.message
                    ),
                }
            }
        }
    }

    let mut baseline_failed = false;
    if let Some(path) = baseline_path {
        match std::fs::read_to_string(&path) {
            Ok(text) => match reportio::check_baseline(&report, &text) {
                Ok(drops) if drops.is_empty() => {
                    println!(
                        "sar-check: baseline {} holds — no proof obligations dropped",
                        path.display()
                    );
                }
                Ok(drops) => {
                    baseline_failed = true;
                    for drop in &drops {
                        eprintln!("sar-check: baseline: {drop}");
                        if annotate {
                            println!("::error title=sar-check baseline::{drop}");
                        }
                    }
                }
                Err(e) => {
                    eprintln!("sar-check: cannot parse baseline {}: {e}", path.display());
                    baseline_failed = true;
                }
            },
            Err(e) => {
                eprintln!("sar-check: cannot read baseline {}: {e}", path.display());
                baseline_failed = true;
            }
        }
    }

    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("sar-check: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("sar-check: report written to {}", path.display());
    }

    if report.clean() && !baseline_failed {
        println!("sar-check: all passes clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "sar-check: FAILED with {} finding(s){}",
            report.total_findings(),
            if baseline_failed {
                " (baseline regression)"
            } else {
                ""
            }
        );
        ExitCode::FAILURE
    }
}
