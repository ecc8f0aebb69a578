//! End-to-end launcher tests: spawn real `sar-worker` OS processes over
//! TCP loopback and check the gathered report, the smoke gate, and the
//! failure paths (a rank that can never rendezvous must exit with a
//! clear error, not hang).

use std::path::PathBuf;
use std::process::Command;

const WORKER: &str = env!("CARGO_BIN_EXE_sar-worker");

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sar-launcher-{name}-{}", std::process::id()));
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
