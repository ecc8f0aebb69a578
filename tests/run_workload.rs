//! Tier-1 coverage of the single run path: `run_workload` must hand
//! back the same report — bit for bit in its parity digest — whether the
//! workload ran on in-process workers or on `sar-worker` OS processes
//! over TCP, and `sar-train` on top of it must fail cleanly.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Once;

use sar::bench::distrun::Workload;
use sar::bench::harness::{run_workload, Transport};
use sar::bench::report::RunReport;
use sar::bench::smoke;

const TRAIN: &str = env!("CARGO_BIN_EXE_sar-train");

/// `target/<profile>/`, where every workspace binary lands.
fn profile_dir() -> &'static Path {
    Path::new(TRAIN)
        .parent()
        .expect("sar-train has a parent directory")
}

/// Cargo builds only this package's own binaries for its tests, and
/// `sar-worker` belongs to `sar-bench` — build it into the same profile
/// directory (a link step: the libraries are already compiled).
fn ensure_worker_built() {
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let profile = profile_dir();
        let mut cmd = Command::new(env!("CARGO"));
        cmd.args([
            "build",
            "--offline",
            "-p",
            "sar-bench",
            "--bin",
            "sar-worker",
        ])
        .arg("--target-dir")
        .arg(profile.parent().expect("target directory"))
        .current_dir(env!("CARGO_MANIFEST_DIR"));
        if profile.ends_with("release") {
            cmd.arg("--release");
        }
        let output = cmd.output().expect("run cargo build");
        assert!(
            output.status.success(),
            "building sar-worker failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
    });
}

#[test]
fn sim_and_tcp_runs_of_one_workload_share_a_parity_digest() {
    ensure_worker_built();
    for arch in smoke::MODELS {
        let wl = Workload {
            epochs: 1,
            layers: 2,
            ..smoke::workload(arch, 300, 0).expect("smoke workload")
        };
        let sim = run_workload(&wl, 2, Transport::Sim, "tier1").expect("sim run");
        let tcp = run_workload(&wl, 2, Transport::Tcp, "tier1").expect("tcp run");
        assert!(!sim.has_non_finite_loss());
        assert_eq!((sim.run.world, tcp.run.world), (2, 2));
        if let Some(diff) = smoke::digest_diff(&sim.parity_digest(), &tcp.parity_digest()) {
            panic!("{arch}: sim vs tcp digest divergence — {diff}");
        }
        // Both reports hold rank records aggregated by one constructor
        // (`sar_core::RunReport::from_ranks`), so beyond the digest every
        // rank's record agrees on everything that is not a timing or a
        // memory peak: losses, accuracies, per-peer and per-epoch traffic
        // and every logical ledger column.
        let logical = |r: &RunReport| -> Vec<_> {
            r.run
                .ranks
                .iter()
                .map(|(w, comm)| {
                    let epochs: Vec<_> = w
                        .epochs
                        .iter()
                        .map(|e| (e.loss.to_bits(), e.sent_bytes))
                        .collect();
                    let accuracies = (w.val_acc, w.test_acc, w.test_acc_cs);
                    let traffic = (comm.sent_bytes.clone(), comm.sent_messages, comm.recv_bytes);
                    let rows: Vec<_> = comm
                        .ledger
                        .rows()
                        .map(|(phase, layer, e)| {
                            let bytes = (e.sent_bytes, e.recv_bytes);
                            (phase, layer, bytes, e.sent_messages, e.recv_messages)
                        })
                        .collect();
                    (epochs, accuracies, traffic, rows)
                })
                .collect()
        };
        assert_eq!(logical(&sim), logical(&tcp), "{arch}: logical rank records");
    }
}

#[test]
fn sar_train_rejects_a_bad_value_with_a_usage_error() {
    let output = Command::new(TRAIN)
        .args(["--epochs", "x"])
        .output()
        .expect("spawn sar-train");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--epochs") && stderr.contains("\"x\""),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn failed_tcp_launch_leaves_nothing_in_the_temp_dir() {
    ensure_worker_built();
    let tmp: PathBuf =
        std::env::temp_dir().join(format!("sar-tier1-private-tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    // Every rank rejects the architecture and exits non-zero, so the
    // launch fails after the report path was chosen.
    let output = Command::new(TRAIN)
        .args(["--transport", "tcp", "--workers", "2", "--nodes", "64"])
        .args(["--arch", "transformer"])
        .env("TMPDIR", &tmp)
        .output()
        .expect("spawn sar-train");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown arch"), "{stderr}");
    assert!(stderr.contains("tcp run failed"), "{stderr}");
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .unwrap()
        .flatten()
        .map(|e| e.file_name())
        .collect();
    assert!(left.is_empty(), "leaked into TMPDIR: {left:?}");
    std::fs::remove_dir_all(&tmp).unwrap();
}
