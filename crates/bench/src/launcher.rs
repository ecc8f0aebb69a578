//! Multi-process launching: one OS process per rank, rendezvoused
//! through a file. Everything about *being* or *spawning* a rank that
//! `sar-worker` and `sar-serve` share lives here: the rank flags
//! ([`RankFlags`], parsed beside [`Workload::apply_flag`] and resolved
//! once into "re-exec N children" or "be rank r"), the self-re-exec
//! ([`SpawnLocal::run`]), the mesh join ([`RankSeat::join_mesh`]) and the
//! child processes ([`RankChildren`], spawned without blocking so a
//! driver can talk to the cluster while it runs).
//!
//! The TCP transport ([`sar_comm::TcpTransport`]) needs every rank to
//! know rank 0's rendezvous address before any socket exists. Between
//! processes on one machine the simplest reliable channel is the
//! filesystem: rank 0 binds `127.0.0.1:0` (an ephemeral port — nothing
//! is hard-coded, so parallel launches never collide), writes the
//! resulting `host:port` to a rendezvous file with an atomic
//! temp-file-plus-rename, and the other ranks poll for the file.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sar_comm::{CostModel, TcpOpts, TcpTransport, WorkerCtx};

use crate::cli::Args;
use crate::distrun::Workload;

/// How long a rank waits on a mesh message before declaring the cluster
/// dead. Serving ranks legitimately idle between requests, but the
/// engine's idle poll (which is *not* an error) uses a much shorter
/// internal timeout; this bound only fences genuinely lost peers.
const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// The rank flags every rank binary accepts: `--spawn-local N`, or
/// `--rank R --world N --rendezvous-file PATH`, plus
/// `--rendezvous-timeout-secs N` (60) in either form.
#[derive(Debug, Clone, Default)]
pub struct RankFlags {
    spawn_local: Option<usize>,
    rank: Option<usize>,
    world: Option<usize>,
    rendezvous_file: Option<PathBuf>,
    rendezvous_timeout_secs: Option<u64>,
}

/// What the rank flags ask this process to do.
#[derive(Debug)]
pub enum Launch {
    /// `--spawn-local N`: re-exec this binary once per rank and wait.
    Spawn(SpawnLocal),
    /// `--rank R --world N --rendezvous-file PATH`: be rank `R`.
    Rank(RankSeat),
}

/// A resolved `--spawn-local N`.
#[derive(Debug)]
pub struct SpawnLocal {
    exe: PathBuf,
    world: usize,
}

/// This process's place in the mesh.
#[derive(Debug, Clone)]
pub struct RankSeat {
    /// This process's rank.
    pub rank: usize,
    /// Total rank count.
    pub world: usize,
    rendezvous_file: PathBuf,
    rendezvous_timeout: Duration,
}

impl RankFlags {
    /// Applies one rank flag, pulling its value from `args`. Returns
    /// `Ok(false)` when `flag` is not a rank flag.
    ///
    /// # Errors
    ///
    /// A one-line diagnostic naming the flag for a missing or unparseable
    /// value.
    pub fn apply_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--spawn-local" => self.spawn_local = Some(args.parsed(flag)?),
            "--rank" => self.rank = Some(args.parsed(flag)?),
            "--world" => self.world = Some(args.parsed(flag)?),
            "--rendezvous-file" => self.rendezvous_file = Some(args.value(flag)?.into()),
            "--rendezvous-timeout-secs" => self.rendezvous_timeout_secs = Some(args.parsed(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks that the flags name exactly one of the two launch forms.
    ///
    /// # Errors
    ///
    /// A usage message: the forms mixed, a zero-rank cluster, or a
    /// missing `--rank` / `--world` / `--rendezvous-file`.
    pub fn resolve(&self) -> Result<Launch, String> {
        if let Some(world) = self.spawn_local {
            if self.rank.is_some() || self.rendezvous_file.is_some() {
                return Err("--spawn-local is exclusive with --rank/--rendezvous-file".into());
            }
            if world == 0 {
                return Err("--spawn-local needs at least one rank".into());
            }
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot locate own executable: {e}"))?;
            return Ok(Launch::Spawn(SpawnLocal { exe, world }));
        }
        Ok(Launch::Rank(RankSeat {
            rank: self
                .rank
                .ok_or("--rank is required (or use --spawn-local N)")?,
            world: self.world.ok_or("--world is required")?,
            rendezvous_file: self
                .rendezvous_file
                .clone()
                .ok_or("--rendezvous-file is required")?,
            rendezvous_timeout: Duration::from_secs(self.rendezvous_timeout_secs.unwrap_or(60)),
        }))
    }
}

impl SpawnLocal {
    /// Re-execs the running binary once per rank with this process's own
    /// arguments minus `--spawn-local N` — so a flag the binary accepts
    /// reaches every child without being listed again — waits for all of
    /// them, and returns the process exit code: 0, or 1 after naming on
    /// stderr every rank that failed. `name` labels the progress lines.
    #[must_use]
    pub fn run(&self, name: &str, workload: &Workload) -> i32 {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        while let Some(at) = args.iter().position(|a| a == "--spawn-local") {
            args.drain(at..(at + 2).min(args.len()));
        }
        let n = self.world;
        eprintln!(
            "[{name}] spawning {n} local rank processes ({} / {} on {} nodes) ...",
            workload.arch, workload.mode, workload.nodes
        );
        match spawn_ranks(&self.exe, n, &args) {
            Ok(()) => {
                eprintln!("[{name}] all {n} ranks completed");
                0
            }
            Err(e) => {
                eprintln!("[{name}] launch failed: {e}");
                1
            }
        }
    }
}

impl RankSeat {
    /// Forms the TCP mesh — rank 0 hosts and publishes its address
    /// through the rendezvous file, the others poll the file and join —
    /// and wraps it in this rank's [`WorkerCtx`].
    ///
    /// The wire codec in `opts` is negotiated here: every rank advertises
    /// it in its hello and rank 0 rejects mismatches, so a heterogeneous
    /// launch fails fast with a named diagnostic instead of decoding
    /// garbage mid-epoch.
    ///
    /// # Errors
    ///
    /// Listener, rendezvous-file and handshake errors, each naming this
    /// rank.
    pub fn join_mesh(&self, opts: TcpOpts) -> Result<WorkerCtx, String> {
        let rank = self.rank;
        let transport = if rank == 0 {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| format!("rank 0: cannot bind rendezvous listener: {e}"))?;
            let addr = listener
                .local_addr()
                .map_err(|e| format!("rank 0: cannot read listener address: {e}"))?;
            write_rendezvous_addr(&self.rendezvous_file, &addr)
                .map_err(|e| format!("rank 0: cannot write rendezvous file: {e}"))?;
            TcpTransport::host(listener, self.world, opts).map_err(|e| format!("rank 0: {e}"))?
        } else {
            let addr = read_rendezvous_addr(&self.rendezvous_file, self.rendezvous_timeout)
                .map_err(|e| format!("rank {rank}: {e}"))?;
            TcpTransport::join(addr.as_str(), rank, self.world, opts)
                .map_err(|e| format!("rank {rank}: {e}"))?
        };
        Ok(WorkerCtx::new(
            Box::new(transport),
            CostModel::default(),
            RECV_TIMEOUT,
        ))
    }
}

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

/// The running rank processes of one launch.
#[derive(Debug)]
pub struct RankChildren {
    children: Vec<(usize, Child)>,
    rendezvous: PathBuf,
}

impl RankChildren {
    /// Spawns `world` copies of `exe`, one OS process per rank, each with
    /// `--rank R --world N --rendezvous-file PATH` prepended to
    /// `common_args`, and returns without waiting. Children inherit
    /// stdout/stderr. The rendezvous file is fresh per call.
    ///
    /// # Errors
    ///
    /// A message listing every rank that failed to spawn; the ranks that
    /// did start are killed and reaped first, since a partial mesh can
    /// only time out.
    pub fn spawn(exe: &Path, world: usize, common_args: &[String]) -> Result<Self, String> {
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
        if failures.is_empty() {
            return Ok(RankChildren {
                children,
                rendezvous,
            });
        }
        for (_, mut child) in children {
            let _ = child.kill();
            let _ = child.wait();
        }
        Err(failures.join("; "))
    }

    /// Waits for every child and removes the rendezvous file.
    ///
    /// # Errors
    ///
    /// A message listing every rank that exited non-zero. All children
    /// are always waited on, so no zombies remain even when some fail.
    pub fn wait(self) -> Result<(), String> {
        let mut failures = Vec::new();
        for (rank, mut child) in self.children {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => failures.push(format!("rank {rank} exited with {status}")),
                Err(e) => failures.push(format!("rank {rank}: wait failed: {e}")),
            }
        }
        let _ = std::fs::remove_file(&self.rendezvous);
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }
}

/// Runs `world` copies of `exe` to completion: [`RankChildren::spawn`],
/// then [`RankChildren::wait`].
///
/// # Errors
///
/// Every rank that failed to spawn or exited non-zero.
pub fn spawn_ranks(exe: &Path, world: usize, common_args: &[String]) -> Result<(), String> {
    RankChildren::spawn(exe, world, common_args)?.wait()
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

    fn flags(list: &[&str]) -> Result<RankFlags, String> {
        let mut flags = RankFlags::default();
        let mut args = Args::new(list.iter().map(|s| s.to_string()).collect());
        while let Some(flag) = args.next_flag() {
            if !flags.apply_flag(&flag, &mut args)? {
                return Err(format!("unknown flag {flag}"));
            }
        }
        Ok(flags)
    }

    #[test]
    fn rank_flags_resolve_into_exactly_one_launch_form() {
        let seat = flags(&[
            "--rank",
            "1",
            "--world",
            "2",
            "--rendezvous-file",
            "/tmp/x.addr",
            "--rendezvous-timeout-secs",
            "7",
        ])
        .and_then(|f| f.resolve());
        match seat {
            Ok(Launch::Rank(seat)) => {
                assert_eq!((seat.rank, seat.world), (1, 2));
                assert_eq!(seat.rendezvous_file, Path::new("/tmp/x.addr"));
                assert_eq!(seat.rendezvous_timeout, Duration::from_secs(7));
            }
            other => panic!("expected a rank seat, got {other:?}"),
        }
        match flags(&["--spawn-local", "3"]).and_then(|f| f.resolve()) {
            Ok(Launch::Spawn(s)) => assert_eq!(s.world, 3),
            other => panic!("expected a local spawn, got {other:?}"),
        }
        let usage = |list: &[&str]| flags(list).and_then(|f| f.resolve()).unwrap_err();
        assert!(usage(&["--spawn-local", "2", "--rank", "0"]).contains("exclusive"));
        assert!(usage(&["--spawn-local", "0"]).contains("at least one rank"));
        assert!(usage(&[]).contains("--rank is required"));
        assert!(usage(&["--rank", "0"]).contains("--world is required"));
        assert!(usage(&["--rank", "0", "--world", "1"]).contains("--rendezvous-file"));
        assert!(flags(&["--rank", "x"]).unwrap_err().contains("--rank"));
        assert_eq!(
            flags(&["--nodes", "3"]).unwrap_err(),
            "unknown flag --nodes"
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
