//! The one place that knows how a [`Workload`] runs: in-process on the
//! simulated cluster ([`sar_core::train`]) or as one `sar-worker` OS
//! process per rank over TCP loopback ([`launcher::spawn_ranks`]).
//!
//! Either way the caller gets the same typed [`RunReport`] back — the
//! TCP arm reads rank 0's gathered report from a temp file through
//! [`RunReport::from_json`] — so the smoke gate, the bench grids and
//! `sar-train` compare digests, ledgers and timings across backends
//! without caring which one ran.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sar_comm::CostModel;
use sar_graph::Dataset;
use sar_partition::Partitioning;

use crate::distrun::Workload;
use crate::launcher;
use crate::report::RunReport;

/// Which backend runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Worker threads in this process over the simulated α–β network.
    Sim,
    /// One `sar-worker` OS process per rank over TCP loopback.
    Tcp,
}

impl Transport {
    /// Parses `"sim"` or `"tcp"`.
    ///
    /// # Errors
    ///
    /// Names the rejected text and the two accepted values.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "sim" => Ok(Transport::Sim),
            "tcp" => Ok(Transport::Tcp),
            other => Err(format!("unknown transport {other:?} (sim or tcp)")),
        }
    }

    /// Parses a comma-separated list such as `"sim,tcp"`.
    ///
    /// # Errors
    ///
    /// The [`Transport::parse`] diagnostic for the first bad element.
    pub fn parse_list(text: &str) -> Result<Vec<Self>, String> {
        text.split(',').map(Transport::parse).collect()
    }

    /// The name [`Transport::parse`] accepts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Transport::Sim => "sim",
            Transport::Tcp => "tcp",
        }
    }
}

/// Trains `workload` on the in-process simulated cluster over an already
/// built dataset and partitioning, returning the trainer's full report
/// (logits and final parameters included). [`run_workload`] is this plus
/// [`Workload::build_data`]; `sar-train` calls it directly because it
/// may load the dataset from a file and saves the trained parameters.
///
/// # Errors
///
/// Rejects unknown `--simd`, architecture, mode, schedule, codec or
/// protocol names.
pub fn train_in_process(
    workload: &Workload,
    dataset: &Dataset,
    part: &Partitioning,
) -> Result<sar_core::RunReport, String> {
    let cfg = workload.train_config(dataset)?;
    // The dispatch mode is process-global; in-process runs are
    // sequential, so setting it per run is race-free. Restore the
    // default afterwards for whatever the process does next.
    sar_tensor::simd::set_mode(workload.simd_mode()?);
    let run = sar_core::train(dataset, part, CostModel::default(), &cfg);
    sar_tensor::simd::set_mode(sar_tensor::simd::SimdMode::Auto);
    Ok(run)
}

/// A temp-file path that is removed when the guard drops, so no exit
/// path of a TCP run — spawn failure, rank failure, unreadable report —
/// leaves a `sar-*` file behind.
struct TempReport(PathBuf);

impl TempReport {
    fn new() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        TempReport(
            std::env::temp_dir().join(format!("sar-report-{}-{seq}.json", std::process::id())),
        )
    }

    fn read(&self) -> Result<RunReport, String> {
        let text = std::fs::read_to_string(&self.0)
            .map_err(|e| format!("rank 0 wrote no report at {}: {e}", self.0.display()))?;
        RunReport::from_json(&text).map_err(|e| format!("gathered report: {e}"))
    }
}

impl Drop for TempReport {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run_tcp(
    exe: &Path,
    workload: &Workload,
    world: usize,
    experiment: &str,
) -> Result<RunReport, String> {
    let out = TempReport::new();
    let mut args = workload.to_args();
    args.extend([
        "--experiment".to_string(),
        experiment.to_string(),
        "--out".to_string(),
        out.0.display().to_string(),
    ]);
    match launcher::spawn_ranks(exe, world, &args) {
        Ok(()) => out.read(),
        // Rank 0 exits non-zero on a non-finite loss *after* writing the
        // report; hand that report back like the in-process arm would,
        // so callers see the diverged losses rather than an exit status.
        Err(launch) => match out.read() {
            Ok(report) if report.has_non_finite_loss() => Ok(report),
            _ => Err(launch),
        },
    }
}

/// Runs `workload` on `world` workers over `transport` and returns the
/// gathered per-worker report, labeled `experiment`.
///
/// # Errors
///
/// Unknown workload names, a missing `sar-worker` binary, any rank that
/// fails to spawn or exits non-zero, or an unreadable gathered report.
pub fn run_workload(
    workload: &Workload,
    world: usize,
    transport: Transport,
    experiment: &str,
) -> Result<RunReport, String> {
    match transport {
        Transport::Sim => {
            let (dataset, part) = workload.build_data(world)?;
            let run = train_in_process(workload, &dataset, &part)?;
            Ok(RunReport::from_train(
                experiment,
                &workload.arch,
                &workload.mode,
                &run,
            ))
        }
        Transport::Tcp => {
            let exe = launcher::sibling_binary("sar-worker")?;
            run_tcp(&exe, workload, world, experiment)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_names_round_trip_and_reject_others() {
        for t in [Transport::Sim, Transport::Tcp] {
            assert_eq!(Transport::parse(t.name()), Ok(t));
        }
        assert_eq!(
            Transport::parse_list("sim,tcp"),
            Ok(vec![Transport::Sim, Transport::Tcp])
        );
        let err = Transport::parse_list("sim,udp").unwrap_err();
        assert!(err.contains("udp") && err.contains("sim or tcp"), "{err}");
    }

    #[test]
    fn temp_report_is_removed_on_drop_and_unique_per_run() {
        let a = TempReport::new();
        let b = TempReport::new();
        assert_ne!(a.0, b.0);
        std::fs::write(&a.0, "not json").unwrap();
        assert!(a.read().unwrap_err().contains("gathered report"));
        assert!(b.read().unwrap_err().contains("wrote no report"));
        let path = a.0.clone();
        drop(a);
        assert!(!path.exists());
    }

    #[test]
    fn failed_tcp_launch_is_an_error_naming_the_ranks() {
        let exe = Path::new("/nonexistent/sar-worker");
        let err = run_tcp(exe, &Workload::default(), 2, "t").unwrap_err();
        assert!(err.contains("rank 0: spawn failed"), "{err}");
        assert!(err.contains("rank 1: spawn failed"), "{err}");
    }
}
