//! Launching a set of rank processes and cleaning up after them on every
//! exit path.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::rank::{result_path, LaunchMode, RankArgs};
use crate::result::RankResult;
use crate::spec::Spec;
use crate::trace::unix_us;

/// How often the driver looks at its children. Coarse on purpose: both
/// cores belong to the ranks.
const POLL: Duration = Duration::from_millis(10);

/// Where the benchmark may write: the directory of its own executable,
/// which lies in the build directory (inside the checkout, ignored by
/// git). Nothing is ever written to the system temp directory.
pub fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} has no parent directory", exe.display()))
}

/// What identifies one launch to its rank processes.
#[derive(Debug, Clone, Copy)]
pub struct LaunchSpec {
    /// The workload.
    pub spec: Spec,
    /// Run it in its one-rank oracle form.
    pub solo: bool,
    /// Workload seed.
    pub seed: u64,
    /// Set-up only, or measured.
    pub mode: LaunchMode,
    /// Keep spans and run the probes.
    pub trace: bool,
    /// Seconds of measured reps.
    pub seconds: f64,
    /// The run's epoch, Unix microseconds.
    pub epoch_unix_us: u64,
}

/// The rank processes of one launch and their private directory (mesh
/// rendezvous file, client-address file, result files; also the ranks'
/// `TMPDIR`, so that a spill file could only land here). Dropping a
/// launch kills what still runs, waits for it, and removes the directory.
pub struct Launch {
    children: Vec<(usize, Child)>,
    dir: PathBuf,
    spawned: Instant,
}

impl Launch {
    /// Spawns one process per rank of `what`, re-executing this binary
    /// with the `rank` subcommand.
    pub fn spawn(what: &LaunchSpec) -> Result<Launch, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let spec = if what.solo {
            what.spec.solo()
        } else {
            what.spec
        };
        let dir = scratch_root()?.join(format!(
            "sar-benchmark-run-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let mut launch = Launch {
            children: Vec::with_capacity(spec.world),
            dir,
            spawned: Instant::now(),
        };
        let spawn_unix_us = unix_us();
        for rank in 0..spec.world {
            let args = RankArgs {
                spec,
                solo: what.solo,
                seed: what.seed,
                rank,
                run_dir: launch.dir.clone(),
                epoch_unix_us: what.epoch_unix_us,
                spawn_unix_us,
                trace: what.trace,
                mode: what.mode,
                seconds: what.seconds,
                driver_pid: std::process::id(),
            };
            let child = Command::new(&exe)
                .arg("rank")
                .args(args.to_args())
                .env("TMPDIR", &launch.dir)
                .stdin(Stdio::null())
                // The driver's stdout carries the result line; ranks talk
                // on stderr only.
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("rank {rank}: spawn failed: {e}"))?;
            launch.children.push((rank, child));
        }
        Ok(launch)
    }

    /// The launch's private directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// When the ranks were spawned.
    pub fn spawned(&self) -> Instant {
        self.spawned
    }

    /// Process ids, indexed by rank.
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(|(_, c)| c.id()).collect()
    }

    /// A rank that has already exited unsuccessfully, if any.
    pub fn failed_rank(&mut self) -> Option<String> {
        self.children
            .iter_mut()
            .find_map(|(rank, child)| match child.try_wait() {
                Ok(Some(status)) if !status.success() => {
                    Some(format!("rank {rank} exited with {status}"))
                }
                Err(e) => Some(format!("rank {rank}: wait failed: {e}")),
                _ => None,
            })
    }

    /// Waits until every rank has exited. A rank that exits non-zero, or
    /// the deadline passing, kills the rest and is an error.
    pub fn wait(&mut self, deadline: Instant) -> Result<(), String> {
        loop {
            if let Some(failure) = self.failed_rank() {
                self.kill();
                return Err(failure);
            }
            let running = self
                .children
                .iter_mut()
                .any(|(_, c)| matches!(c.try_wait(), Ok(None)));
            if !running {
                return Ok(());
            }
            if Instant::now() >= deadline {
                self.kill();
                return Err(format!(
                    "deadline passed after {:.1} s with ranks still running",
                    self.spawned.elapsed().as_secs_f64()
                ));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Kills every rank still running and reaps all of them.
    pub fn kill(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
        }
        for (_, child) in &mut self.children {
            let _ = child.wait();
        }
    }

    /// The result files of all ranks, by rank.
    pub fn results(&self) -> Result<Vec<RankResult>, String> {
        (0..self.children.len())
            .map(|rank| RankResult::read(&result_path(&self.dir, rank)))
            .collect()
    }
}

impl Drop for Launch {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Removes launch directories an earlier, killed driver left behind.
pub fn sweep_stale_dirs() {
    let Ok(root) = scratch_root() else { return };
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(rest) = name
            .to_str()
            .and_then(|n| n.strip_prefix("sar-benchmark-run-"))
        else {
            continue;
        };
        let pid = rest.split('-').next().unwrap_or("");
        // Leave the directories of drivers that are still alive.
        if !pid.is_empty() && !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}
