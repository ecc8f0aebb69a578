//! `sar-serve` — one OS process per rank for a resident serving cluster.
//!
//! ```text
//! sar-serve --spawn-local N [flags]                # launcher mode
//! sar-serve --rank R --world N --rendezvous-file PATH [flags]
//!
//! workload flags: the shared vocabulary documented on
//! `sar_bench::distrun::Workload` and tabulated in the README,
//! identical on every rank. Serving reads the dataset, model and kernel
//! fields; the training-only ones (`--epochs`, `--lr`, `--protocol`, …) are
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
//! rank flags (`sar_bench::launcher::RankFlags`, shared with `sar-worker`):
//!   the two launch forms above, plus
//!   --rendezvous-timeout-secs N  poll budget for the rendezvous file (60)
//! ```
//!
//! Serving always runs with dropout 0 and batch normalization off (see
//! `sar_bench::serverun`). Rank 0 prints the front-end summary on exit;
//! the cluster leaves when a client sends the Shutdown opcode.

use std::time::Duration;

use sar_bench::cli::Args;
use sar_bench::distrun::Workload;
use sar_bench::launcher::{Launch, RankFlags};
use sar_bench::serverun::{run_serve_rank, ServeRankOpts};
use sar_serve::ServerConfig;

struct Cli {
    ranks: RankFlags,
    serve: ServeRankOpts,
    workload: Workload,
}

fn fail(msg: &str) -> ! {
    eprintln!("sar-serve: {msg}");
    std::process::exit(2);
}

fn parse_cli(mut args: Args) -> Result<Cli, String> {
    let mut cli = Cli {
        ranks: RankFlags::default(),
        serve: ServeRankOpts {
            checkpoint: None,
            client_addr_file: None,
            server: ServerConfig::default(),
            cache_rows: 4096,
        },
        workload: Workload::default(),
    };
    while let Some(flag) = args.next_flag() {
        let flag = flag.as_str();
        let serve = &mut cli.serve;
        match flag {
            "--checkpoint" => serve.checkpoint = Some(args.value(flag)?.into()),
            "--client-addr-file" => serve.client_addr_file = Some(args.value(flag)?.into()),
            "--max-batch" => serve.server.max_batch = args.parsed(flag)?,
            "--max-delay-us" => {
                serve.server.max_delay = Duration::from_micros(args.parsed(flag)?);
            }
            "--queue-cap" => serve.server.queue_cap = args.parsed(flag)?,
            "--cache-rows" => serve.cache_rows = args.parsed(flag)?,
            "--help" | "-h" => {
                eprintln!("see the doc comment at the top of crates/bench/src/bin/sar-serve.rs");
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
        Launch::Spawn(spawn) => std::process::exit(spawn.run("sar-serve", &cli.workload)),
    };

    match run_serve_rank(&seat, &cli.serve, &cli.workload) {
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
