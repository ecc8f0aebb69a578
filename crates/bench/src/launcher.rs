//! Multi-process launching: one OS process per rank, rendezvoused
//! through a file.
//!
//! The TCP transport ([`sar_comm::TcpTransport`]) needs every rank to
//! know rank 0's rendezvous address before any socket exists. Between
//! processes on one machine the simplest reliable channel is the
//! filesystem: rank 0 binds `127.0.0.1:0` (an ephemeral port — nothing
//! is hard-coded, so parallel launches never collide), writes the
//! resulting `host:port` to a rendezvous file with an atomic
//! temp-file-plus-rename, and the other ranks poll for the file. The
//! launcher itself ([`spawn_ranks`]) execs one copy of the `sar-worker`
//! binary per rank with `--rank`/`--world`/`--rendezvous-file` prepended
//! to the shared workload flags, waits for all of them, and reports any
//! non-zero exits.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Writes `addr` to the rendezvous file atomically (temp file in the
/// same directory, then rename), so a polling reader never observes a
/// partial write.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_rendezvous_addr(path: &Path, addr: &SocketAddr) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, addr.to_string())?;
    std::fs::rename(&tmp, path)
}

/// Polls for the rendezvous file until it appears (with content) or
/// `timeout` elapses, returning the `host:port` string rank 0 wrote.
///
/// # Errors
///
/// Returns a message naming the file and the timeout if it never
/// appears — a sibling rank that fails before binding its listener must
/// surface as a clean error here, not a hang.
pub fn read_rendezvous_addr(path: &Path, timeout: Duration) -> Result<String, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            let s = s.trim();
            if !s.is_empty() {
                return Ok(s.to_string());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "rendezvous file {} did not appear within {:?} (did rank 0 start?)",
                path.display(),
                timeout
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A fresh rendezvous-file path in the system temp directory, unique per
/// process and per call so repeated launches never reuse a stale file.
pub fn temp_rendezvous_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sar-rendezvous-{}-{}.addr",
        std::process::id(),
        seq
    ))
}

/// Locates a sibling binary (e.g. `sar-worker`) in the directory of the
/// currently running executable — all workspace binaries land in the
/// same `target/<profile>/` directory (test executables one level
/// below it, in `deps/`).
///
/// # Errors
///
/// Returns a message with the build command to run if the binary is
/// missing (e.g. `repro` was built alone without `--bins`).
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let dir = me
        .parent()
        .map(|dir| match dir.parent() {
            Some(profile_dir) if dir.ends_with("deps") => profile_dir,
            _ => dir,
        })
        .ok_or_else(|| format!("{} has no parent directory", me.display()))?;
    let exe = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} not found next to {}; build it with `cargo build --release -p sar-bench --bins`",
            exe.display(),
            me.display()
        ))
    }
}

/// Spawns `world` copies of `exe`, one OS process per rank, each with
/// `--rank R --world N --rendezvous-file PATH` prepended to
/// `common_args`, and waits for all of them. Children inherit
/// stdout/stderr. The rendezvous file is created and cleaned up here.
///
/// # Errors
///
/// Returns a message listing every rank that failed to spawn or exited
/// non-zero. All children are always waited on, so no zombies remain
/// even when some ranks fail.
pub fn spawn_ranks(exe: &Path, world: usize, common_args: &[String]) -> Result<(), String> {
    assert!(world > 0, "cannot launch a zero-rank cluster");
    let rendezvous = temp_rendezvous_path();
    let _ = std::fs::remove_file(&rendezvous);

    let mut children = Vec::with_capacity(world);
    let mut failures = Vec::new();
    for rank in 0..world {
        let mut cmd = Command::new(exe);
        cmd.arg("--rank")
            .arg(rank.to_string())
            .arg("--world")
            .arg(world.to_string())
            .arg("--rendezvous-file")
            .arg(&rendezvous)
            .args(common_args);
        match cmd.spawn() {
            Ok(child) => children.push((rank, child)),
            Err(e) => failures.push(format!("rank {rank}: spawn failed: {e}")),
        }
    }
    for (rank, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failures.push(format!("rank {rank} exited with {status}")),
            Err(e) => failures.push(format!("rank {rank}: wait failed: {e}")),
        }
    }
    let _ = std::fs::remove_file(&rendezvous);
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    #[test]
    fn rendezvous_file_round_trips_atomically() {
        let path = temp_rendezvous_path();
        let addr = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 43210);
        write_rendezvous_addr(&path, &addr).unwrap();
        let read = read_rendezvous_addr(&path, Duration::from_secs(1)).unwrap();
        assert_eq!(read, "127.0.0.1:43210");
        // The temp file must not linger next to the real one.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_rendezvous_file_times_out_with_context() {
        let path = temp_rendezvous_path();
        let err = read_rendezvous_addr(&path, Duration::from_millis(50)).unwrap_err();
        assert!(err.contains("rendezvous file"), "unhelpful error: {err}");
        assert!(
            err.contains("rank 0"),
            "error should hint at the cause: {err}"
        );
    }

    #[test]
    fn temp_paths_are_unique_per_call() {
        assert_ne!(temp_rendezvous_path(), temp_rendezvous_path());
    }

    #[test]
    fn sibling_binary_reports_missing_with_build_hint() {
        let err = sibling_binary("definitely-not-a-real-binary").unwrap_err();
        assert!(err.contains("cargo build"), "no build hint in: {err}");
    }
}
