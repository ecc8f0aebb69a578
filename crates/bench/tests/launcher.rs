//! End-to-end launcher tests: spawn real `sar-worker` and `sar-serve` OS
//! processes over TCP loopback and check the gathered report, the smoke
//! gate, the serving tier's counters under client load, and the failure
//! paths (a rank that can never rendezvous must exit with a clear error,
//! not hang; a dropped launch leaves no rank running).

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_bench::distrun::Workload;
use sar_bench::launcher::{read_rendezvous_addr, RankChildren};
use sar_bench::serverun::{load_or_init_params, serve_model_config};
use sar_serve::{ServeClient, StatsSnapshot};

const WORKER: &str = env!("CARGO_BIN_EXE_sar-worker");
const SERVE: &str = env!("CARGO_BIN_EXE_sar-serve");

/// A path in the temp dir, named `sar-*` like every temp path the
/// workspace makes, unique per process and per `tag`.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sar-launcher-{tag}-{}", std::process::id()))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = temp_path(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn spawn_local_trains_across_four_processes_and_gates_on_smoke() {
    let dir = scratch_dir("sage");
    let json = dir.join("sage.json");
    let output = Command::new(WORKER)
        .args([
            "--spawn-local",
            "4",
            "--arch",
            "sage",
            "--mode",
            "sar",
            "--nodes",
            "300",
            "--epochs",
            "2",
            "--layers",
            "2",
            "--hidden",
            "16",
            "--dropout",
            "0",
            "--check",
            "smoke",
            "--experiment",
            "launcher-sage",
            "--out",
            json.to_str().unwrap(),
        ])
        .output()
        .expect("spawn sar-worker");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "sar-worker --spawn-local failed:\n{stderr}"
    );
    assert!(
        stderr.contains("all 4 ranks completed"),
        "missing completion line:\n{stderr}"
    );

    // Rank 0 gathered every rank's ledger and wrote the full report.
    let text = std::fs::read_to_string(&json).expect("rank 0 wrote the report JSON");
    assert!(text.contains("\"experiment\": \"launcher-sage\""));
    assert!(text.contains("\"world\": 4"));
    assert!(text.contains("\"losses\""));
    assert!(text.contains("\"forward_fetch\""));
    for rank in 0..4 {
        assert!(
            text.contains(&format!("\"rank\": {rank}")),
            "rank {rank} profile missing from gathered report"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rank_without_rendezvous_exits_with_error_instead_of_hanging() {
    let output = Command::new(WORKER)
        .args([
            "--rank",
            "1",
            "--world",
            "2",
            "--rendezvous-file",
            "/nonexistent-dir/never.addr",
            "--rendezvous-timeout-secs",
            "1",
            "--nodes",
            "64",
            "--epochs",
            "1",
        ])
        .output()
        .expect("spawn sar-worker");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("rendezvous file") && stderr.contains("rank 1"),
        "error must name the rank and the missing rendezvous:\n{stderr}"
    );
}

#[test]
fn bad_workload_flags_fail_fast_in_every_rank() {
    let output = Command::new(WORKER)
        .args([
            "--rank",
            "0",
            "--world",
            "1",
            "--rendezvous-file",
            std::env::temp_dir()
                .join("sar-launcher-badflags.addr")
                .to_str()
                .unwrap(),
            "--nodes",
            "64",
            "--arch",
            "transformer",
        ])
        .output()
        .expect("spawn sar-worker");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown arch"), "{stderr}");
}

/// A malformed flag value is a one-line usage error with exit status 2
/// on every binary of this package — never a panic with a backtrace.
/// (`sar-train` belongs to the root package; its case lives in the root
/// `tests/run_workload.rs`.)
#[test]
fn bad_flag_values_are_usage_errors_not_panics() {
    let cases: [(&str, &[&str]); 5] = [
        (env!("CARGO_BIN_EXE_repro"), &["smoke", "--epochs", "x"]),
        (env!("CARGO_BIN_EXE_repro"), &["smoke", "--threads", "1,x"]),
        (
            env!("CARGO_BIN_EXE_repro"),
            &["kernelbench", "--threads", "x"],
        ),
        (WORKER, &["--spawn-local", "2", "--epochs", "x"]),
        (env!("CARGO_BIN_EXE_sar-serve"), &["--nodes", "x"]),
    ];
    for (exe, args) in cases {
        let output = Command::new(exe).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{exe} {args:?}:\n{stderr}");
        let flag = args[args.len() - 2];
        assert!(
            stderr.contains(flag) && stderr.contains("invalid value"),
            "{exe} {args:?} must name the flag:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{exe} {args:?}:\n{stderr}");
    }
}

/// Graph nodes, serving ranks, closed-loop clients, requests per client
/// and node ids per request.
const NODES: usize = 900;
const RANKS: usize = 4;
const CLIENTS: usize = 3;
const REQUESTS: usize = 20;
const IDS: usize = 8;

/// The `NODES`-node, 2-layer serving workload for `arch`.
fn serve_workload(arch: &str) -> Workload {
    Workload {
        dataset: "products".into(),
        nodes: NODES,
        arch: arch.into(),
        hidden: if arch == "gat" { 8 } else { 32 },
        heads: 4,
        mode: "sar".into(),
        layers: 2,
        seed: 0,
        threads: 1,
        simd: "auto".into(),
        ..Workload::default()
    }
}

/// Spawns a `RANKS`-process `sar-serve` cluster for `arch` that loads a
/// seeded checkpoint, runs `CLIENTS` closed-loop clients of `REQUESTS`
/// queries of `IDS` ids each, then reads the counters and shuts the
/// cluster down over a control connection; every rank must exit 0.
fn serve_under_load(arch: &str) -> StatsSnapshot {
    let workload = serve_workload(arch);
    let ckpt = temp_path(&format!("{arch}.ckpt"));
    let client_addr = temp_path(&format!("{arch}.client"));
    let (dataset, _) = workload.build_data(RANKS).unwrap();
    let cfg = serve_model_config(&workload, &dataset).unwrap();
    let params = load_or_init_params(&cfg, &dataset, workload.label_aug, None).unwrap();
    let file = std::fs::File::create(&ckpt).unwrap();
    sar_core::checkpoint::save_raw_params(&params, std::io::BufWriter::new(file)).unwrap();

    let mut args = workload.to_args();
    for (flag, value) in [
        ("--checkpoint", ckpt.display().to_string()),
        ("--client-addr-file", client_addr.display().to_string()),
        ("--max-batch", "16".into()),
        ("--max-delay-us", "1000".into()),
        ("--cache-rows", "4096".into()),
    ] {
        args.extend([flag.to_string(), value]);
    }
    // Dropped on any panic below, which kills every rank.
    let cluster = RankChildren::spawn(Path::new(SERVE), RANKS, &args).unwrap();
    let addr = read_rendezvous_addr(&client_addr, Duration::from_secs(60));
    // Rank 0 publishes only after every rank has loaded the checkpoint
    // and joined the mesh, so neither file is read again.
    std::fs::remove_file(&ckpt).unwrap();
    let _ = std::fs::remove_file(&client_addr);
    let addr = addr.unwrap();

    let connect = || {
        let mut client = ServeClient::connect(addr.as_str()).unwrap();
        client.set_timeout(Some(Duration::from_secs(120))).unwrap();
        client
    };
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut client = connect();
                let mut rng = StdRng::seed_from_u64(0x5EED_C0DE + c as u64);
                for _ in 0..REQUESTS {
                    let ids: Vec<u32> = (0..IDS)
                        .map(|_| rng.random_range(0..NODES as u32))
                        .collect();
                    let logits = client.query(&ids).unwrap();
                    assert_eq!(logits.rows(), IDS, "{arch}: one logit row per queried id");
                }
            });
        }
    });
    let mut control = connect();
    let stats = control.stats().unwrap();
    control.shutdown().unwrap();
    cluster.wait().unwrap();
    stats
}

/// The serving tier's ledger under load, for both architectures: every
/// id is answered, coalescing only merges requests, and the MFG-restricted
/// fetch stays strictly below what full-graph rotation forwards over the
/// same batches would move. That ceiling is fixed by the seeded graph.
#[test]
fn serving_cluster_answers_every_query_below_the_full_forward_ceiling() {
    for (arch, full_forward_bytes) in [("sage", 197_376), ("gat", 549_312)] {
        let stats = serve_under_load(arch);
        let requests = (CLIENTS * REQUESTS) as u64;
        assert_eq!(stats.queries, requests * IDS as u64, "{arch}: {stats:?}");
        assert!(
            stats.batches > 0 && stats.batches <= requests,
            "{arch}: coalescing can only merge: {stats:?}"
        );
        assert_eq!(stats.full_forward_bytes, full_forward_bytes, "{arch}");
        assert!(
            stats.fetch_bytes > 0 && stats.fetch_bytes < full_forward_bytes * stats.batches,
            "{arch}: MFG fetch is not below the full-forward ceiling: {stats:?}"
        );
    }
}

/// Dropping a launch before `wait` kills every rank: a serving rank would
/// otherwise run until a client sent it Shutdown.
#[test]
fn dropping_a_launch_kills_its_ranks() {
    let client_addr = temp_path("drop.client");
    let args: Vec<String> = ["--nodes", "64", "--client-addr-file"]
        .iter()
        .map(|s| s.to_string())
        .chain([client_addr.display().to_string()])
        .collect();
    let cluster = RankChildren::spawn(Path::new(SERVE), 1, &args).unwrap();
    let addr = read_rendezvous_addr(&client_addr, Duration::from_secs(60));
    let _ = std::fs::remove_file(&client_addr);
    let addr = addr.unwrap();
    TcpStream::connect(&addr).expect("the front-end is listening");
    drop(cluster);
    let err = TcpStream::connect(&addr).expect_err("a dropped launch left its front-end running");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{err}");
}
