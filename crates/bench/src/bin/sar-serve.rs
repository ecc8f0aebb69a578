//! `sar-serve` — one OS process per rank for a resident serving cluster.
//!
//! ```text
//! sar-serve --spawn-local N [flags]                # launcher mode
//! sar-serve --rank R --world N --rendezvous-file PATH [flags]
//!
//! workload flags: the shared vocabulary documented on
//! `sar_bench::distrun::Workload` and tabulated in the README,
//! identical on every rank. Serving reads the dataset, model and kernel
//! fields; the training-only ones (`--epochs`, `--lr`, `--codec`, …) are
//! parsed and ignored, so one flag list can drive both binaries.
//!
//! serving flags:
//!   --checkpoint PATH            parameter checkpoint every rank loads
//!                                (also the engine's reload source);
//!                                without it, the seeded deterministic
//!                                initialization is served
//!   --client-addr-file PATH      rank 0 publishes its client listener
//!                                address here (atomic rename)
//!   --max-batch N                front-end query coalescing bound (32)
//!   --max-delay-us N             coalescing delay, microseconds (2000)
//!   --queue-cap N                bounded job-queue depth        (256)
//!   --cache-rows N               per-rank embedding-cache rows  (4096)
//!
//! other:
//!   --rendezvous-timeout-secs N  poll budget for the rendezvous file (60)
//! ```
//!
//! Serving always runs with dropout 0 and batch normalization off (see
//! `sar_bench::serverun`); `--jk` is rejected by the engine because
//! jumping knowledge needs every layer over every node, defeating the
//! MFG restriction. Rank 0 prints the front-end summary on exit; the
//! cluster leaves when a client sends the Shutdown opcode.

use std::time::Duration;

use sar_bench::cli::Args;
use sar_bench::distrun::Workload;
use sar_bench::launcher;
use sar_bench::serverun::{run_serve_rank, ServeRankOpts};
use sar_serve::ServerConfig;

struct Cli {
    spawn_local: Option<usize>,
    rank: Option<usize>,
    world: Option<usize>,
    rendezvous_file: Option<std::path::PathBuf>,
    rendezvous_timeout: Duration,
    checkpoint: Option<std::path::PathBuf>,
    client_addr_file: Option<std::path::PathBuf>,
    server: ServerConfig,
    cache_rows: usize,
    workload: Workload,
}

fn fail(msg: &str) -> ! {
    eprintln!("sar-serve: {msg}");
    std::process::exit(2);
}

fn parse_cli(mut args: Args) -> Result<Cli, String> {
    let mut cli = Cli {
        spawn_local: None,
        rank: None,
        world: None,
        rendezvous_file: None,
        rendezvous_timeout: Duration::from_secs(60),
        checkpoint: None,
        client_addr_file: None,
        server: ServerConfig::default(),
        cache_rows: 4096,
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
            "--checkpoint" => cli.checkpoint = Some(args.value(flag)?.into()),
            "--client-addr-file" => cli.client_addr_file = Some(args.value(flag)?.into()),
            "--max-batch" => cli.server.max_batch = args.parsed(flag)?,
            "--max-delay-us" => cli.server.max_delay = Duration::from_micros(args.parsed(flag)?),
            "--queue-cap" => cli.server.queue_cap = args.parsed(flag)?,
            "--cache-rows" => cli.cache_rows = args.parsed(flag)?,
            "--help" | "-h" => {
                eprintln!("see the doc comment at the top of crates/bench/src/bin/sar-serve.rs");
                std::process::exit(0);
            }
            _ if cli.workload.apply_flag(flag, &mut args)? => {}
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

/// `--spawn-local N`: re-exec this binary once per rank and wait. The
/// cluster then serves until a client requests shutdown, so this mode is
/// only useful together with `--client-addr-file` and an external client.
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
        "--max-batch".to_string(),
        cli.server.max_batch.to_string(),
        "--max-delay-us".to_string(),
        cli.server.max_delay.as_micros().to_string(),
        "--queue-cap".to_string(),
        cli.server.queue_cap.to_string(),
        "--cache-rows".to_string(),
        cli.cache_rows.to_string(),
    ]);
    if let Some(path) = &cli.checkpoint {
        args.extend(["--checkpoint".to_string(), path.display().to_string()]);
    }
    if let Some(path) = &cli.client_addr_file {
        args.extend(["--client-addr-file".to_string(), path.display().to_string()]);
    }
    eprintln!(
        "[sar-serve] spawning {n} local rank processes ({} / {} on {} nodes) ...",
        cli.workload.arch, cli.workload.mode, cli.workload.nodes
    );
    match launcher::spawn_ranks(&exe, n, &args) {
        Ok(()) => {
            eprintln!("[sar-serve] all {n} ranks completed");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[sar-serve] launch failed: {e}");
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
    let opts = ServeRankOpts {
        rank,
        world,
        rendezvous_file,
        rendezvous_timeout: cli.rendezvous_timeout,
        checkpoint: cli.checkpoint.clone(),
        client_addr_file: cli.client_addr_file.clone(),
        server: cli.server.clone(),
        cache_rows: cli.cache_rows,
    };

    match run_serve_rank(&opts, &cli.workload) {
        Ok(None) => {} // ranks 1..N: quiesced after the shutdown barrier
        Ok(Some(summary)) => {
            let s = &summary.stats;
            println!(
                "connections {} | requests {} | batches {} | queries {} | \
                 fetch {} B (full-forward ceiling {} B/batch) | cache {}h/{}m",
                summary.connections,
                summary.requests,
                s.batches,
                s.queries,
                s.fetch_bytes,
                s.full_forward_bytes,
                s.cache_hits,
                s.cache_misses
            );
        }
        Err(e) => {
            eprintln!("sar-serve: {e}");
            std::process::exit(1);
        }
    }
}
