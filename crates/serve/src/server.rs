//! The rank-0 front-end: request batching, backpressure, and graceful
//! shutdown over a resident [`ServeEngine`].
//!
//! Threading model: the engine owns the worker-mesh context, which is not
//! `Send`, so all cluster work happens on the thread that calls
//! [`serve`]. Around it:
//!
//! - an **accept thread** admits client connections (non-blocking accept
//!   polled against the closing flag, so it always joins cleanly);
//! - one **reader thread per connection** decodes request frames and
//!   pushes jobs into a *bounded* queue — when the queue is full the
//!   blocking push stalls that reader, which stops draining its socket:
//!   backpressure reaches the client as TCP flow control, and nothing in
//!   the server grows without bound;
//! - **responses** go back over a mutex-guarded clone of the connection,
//!   so the engine thread and a reader rejecting a malformed frame never
//!   interleave partial frames.
//!
//! Batching ([`next_work`]): a query opens a window, and the engine
//! thread keeps coalescing until `max_batch` queries are aboard or
//! `max_delay` has elapsed since the first one — one MFG build and one
//! restricted rotation answer the whole batch, and each client gets its
//! own rows back. A non-query operation never waits: outside a window it
//! runs at once, inside one it closes the window, runs right after the
//! queries that arrived before it and before any that arrived after — so
//! the engine executes every job in arrival order, across connections.
//!
//! Graceful shutdown: a `Shutdown` request flips the closing flag (new
//! queries are refused at the reader), the queue is drained to the last
//! job, the rotation runs the final barrier, and only then does the
//! shutdown requester get its acknowledgement — by the time the client
//! sees the ack, every in-flight request has been answered.

use std::io::Write;
use std::net::{Shutdown as SockShutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sar_comm::wire::{self, FrameKind, WireError};
use sar_comm::Payload;

use crate::engine::{ServeEngine, StatsSnapshot, WorkerStep};
use crate::error::ServeError;
use crate::proto::{self, Request};

/// Front-end knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most queries coalesced into one MFG execution.
    pub max_batch: usize,
    /// Longest a query waits for batch-mates before executing.
    pub max_delay: Duration,
    /// Bounded job-queue depth; beyond it, readers stall (backpressure).
    pub queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            queue_cap: 256,
        }
    }
}

/// What the front-end did over its lifetime.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Client connections admitted.
    pub connections: u64,
    /// Requests answered (all opcodes, including errors).
    pub requests: u64,
    /// Final engine counters.
    pub stats: StatsSnapshot,
}

/// One client's write half plus the request id to echo.
#[derive(Clone)]
struct Responder {
    stream: Arc<Mutex<TcpStream>>,
    tag: u64,
}

impl Responder {
    fn send(&self, body: Vec<u8>) {
        // A poisoned lock just means another thread died mid-write; the
        // stream is unusable either way, so best-effort is correct here.
        let mut guard = match self.stream.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let _ = wire::write_frame(
            &mut *guard,
            FrameKind::Response,
            0,
            self.tag,
            &Payload::Bytes(body),
        );
        let _ = guard.flush();
    }
}

/// A decoded request bound to where its answer goes.
struct Job {
    req: Request,
    resp: Responder,
}

impl Job {
    fn is_query(&self) -> bool {
        matches!(self.req, Request::Query(_))
    }
}

/// How long the engine thread waits for a first job before polling again.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// What the engine thread runs next.
#[derive(Debug, PartialEq, Eq)]
enum Work<J> {
    /// Coalesced queries, in arrival order.
    Batch(Vec<J>),
    /// One non-query job.
    Control(J),
    /// Nothing arrived within the idle poll.
    Idle,
    /// Every sender is gone and the queue is empty.
    Closed,
}

/// Takes the next unit of work off `rx`. A query opens a coalescing
/// window that later queries join until `max_batch` are aboard or
/// `max_delay` has passed since the first; a non-query job arriving inside
/// the window closes it and is `held` to be returned by the next call,
/// right after the batch it cut short. A non-query job outside a window is
/// returned at once.
fn next_work<J>(
    rx: &Receiver<J>,
    held: &mut Option<J>,
    is_query: impl Fn(&J) -> bool,
    max_batch: usize,
    max_delay: Duration,
) -> Work<J> {
    if let Some(job) = held.take() {
        return Work::Control(job);
    }
    let first = match rx.recv_timeout(IDLE_POLL) {
        Ok(job) => job,
        Err(RecvTimeoutError::Timeout) => return Work::Idle,
        Err(RecvTimeoutError::Disconnected) => return Work::Closed,
    };
    if !is_query(&first) {
        return Work::Control(first);
    }
    let mut batch = vec![first];
    let deadline = Instant::now() + max_delay;
    while batch.len() < max_batch {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match rx.recv_timeout(deadline - now) {
            Ok(job) if is_query(&job) => batch.push(job),
            Ok(job) => {
                *held = Some(job);
                break;
            }
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
        }
    }
    Work::Batch(batch)
}

/// Runs the resident worker loop on a non-zero rank: wait for control
/// operations, execute them, leave after the shutdown barrier. Returns
/// the rank's final counters.
///
/// # Errors
///
/// [`ServeError`] if the mesh fails or a control message is malformed —
/// an idle receive timeout is not an error, the loop just polls again.
pub fn worker_loop(engine: &mut ServeEngine) -> Result<StatsSnapshot, ServeError> {
    loop {
        match engine.step()? {
            WorkerStep::Shutdown => return Ok(engine.snapshot()),
            WorkerStep::Idle | WorkerStep::Served => {}
        }
    }
}

/// Runs the rank-0 front-end until a client requests shutdown. Consumes
/// the listener; the engine must be rank 0's.
///
/// # Errors
///
/// [`ServeError`] on listener setup failure or a mesh failure mid-batch.
/// Client-level problems (malformed frames, bad node ids, unsupported
/// ops) are answered with error responses and never end the loop.
pub fn serve(
    engine: &mut ServeEngine,
    listener: TcpListener,
    cfg: &ServerConfig,
) -> Result<ServeSummary, ServeError> {
    if engine.rank() != 0 {
        return Err(ServeError::Protocol(format!(
            "serve() started on rank {}, the front-end is rank 0",
            engine.rank()
        )));
    }
    let max_batch = cfg.max_batch.max(1);
    let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));
    let closing = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<Arc<Mutex<TcpStream>>>>> = Arc::new(Mutex::new(Vec::new()));
    let connections = Arc::new(std::sync::atomic::AtomicU64::new(0));

    listener.set_nonblocking(true)?;
    let accept_thread = {
        let tx = tx.clone();
        let closing = Arc::clone(&closing);
        let conns = Arc::clone(&conns);
        let connections = Arc::clone(&connections);
        std::thread::spawn(move || {
            let mut readers = Vec::new();
            while !closing.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        connections.fetch_add(1, Ordering::SeqCst);
                        stream.set_nodelay(true).ok();
                        stream.set_nonblocking(false).ok();
                        let write_half = match stream.try_clone() {
                            Ok(clone) => Arc::new(Mutex::new(clone)),
                            Err(_) => continue,
                        };
                        if let Ok(mut reg) = conns.lock() {
                            reg.push(Arc::clone(&write_half));
                        }
                        let tx = tx.clone();
                        let closing = Arc::clone(&closing);
                        readers.push(std::thread::spawn(move || {
                            reader_loop(stream, &write_half, &tx, &closing);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
            for r in readers {
                let _ = r.join();
            }
        })
    };
    drop(tx); // The engine thread only receives.

    let mut requests: u64 = 0;
    let mut mesh_failure: Option<ServeError> = None;
    let mut held: Option<Job> = None;
    loop {
        let job = match next_work(&rx, &mut held, Job::is_query, max_batch, cfg.max_delay) {
            Work::Idle => continue,
            Work::Closed => break,
            Work::Batch(batch) => {
                requests += batch.len() as u64;
                if let Err(e) = run_query_batch(engine, &batch) {
                    mesh_failure = Some(e);
                    break;
                }
                continue;
            }
            Work::Control(job) => job,
        };
        requests += 1;
        match run_other(engine, &job) {
            Ok(false) => {}
            Ok(true) => {
                // Drain: answer everything already queued (readers have
                // stopped admitting queries), then quiesce the rotation.
                closing.store(true, Ordering::SeqCst);
                let mut rest: Vec<Job> = rx.try_iter().collect();
                while !rest.is_empty() {
                    let tail: Vec<Job> = rest.drain(..).filter(Job::is_query).collect();
                    if !tail.is_empty() {
                        requests += tail.len() as u64;
                        if let Err(e) = run_query_batch(engine, &tail) {
                            mesh_failure = Some(e);
                            break;
                        }
                    }
                    rest = rx.try_iter().collect();
                }
                if mesh_failure.is_none() {
                    if let Err(e) = engine.shutdown() {
                        mesh_failure = Some(e);
                    }
                }
                job.resp.send(proto::encode_ack(proto::OP_SHUTDOWN));
                break;
            }
            Err(e) => {
                mesh_failure = Some(e);
                break;
            }
        }
    }

    closing.store(true, Ordering::SeqCst);
    // Unblock readers parked on their sockets so their threads join.
    if let Ok(reg) = conns.lock() {
        for conn in reg.iter() {
            if let Ok(s) = conn.lock() {
                let _ = s.shutdown(SockShutdown::Both);
            }
        }
    }
    let _ = accept_thread.join();
    match mesh_failure {
        Some(e) => Err(e),
        None => Ok(ServeSummary {
            connections: connections.load(Ordering::SeqCst),
            requests,
            stats: engine.snapshot(),
        }),
    }
}

/// Per-connection read loop: decode frames, answer cheap failures
/// locally, hand real work to the engine thread through the bounded
/// queue.
fn reader_loop(
    mut stream: TcpStream,
    write_half: &Arc<Mutex<TcpStream>>,
    tx: &SyncSender<Job>,
    closing: &AtomicBool,
) {
    loop {
        let frame = match wire::read_frame(&mut stream) {
            Ok(f) => f,
            Err(WireError::Eof) => break,
            Err(WireError::Io(_)) => break,
            Err(e) => {
                // Corrupt frame: the stream may be desynchronized, so
                // report and hang up rather than guess at a resync.
                Responder {
                    stream: Arc::clone(write_half),
                    tag: 0,
                }
                .send(proto::encode_error(&format!("bad frame: {e}")));
                break;
            }
        };
        let resp = Responder {
            stream: Arc::clone(write_half),
            tag: frame.tag,
        };
        if frame.kind != FrameKind::Request {
            resp.send(proto::encode_error(&format!(
                "unexpected {:?} frame on a client connection",
                frame.kind
            )));
            continue;
        }
        let body = match frame.payload {
            Payload::Bytes(b) => b,
            other => {
                resp.send(proto::encode_error(&format!(
                    "request payload must be bytes, got {}",
                    other.kind()
                )));
                continue;
            }
        };
        let req = match proto::decode_request(&body) {
            Ok(r) => r,
            Err(e) => {
                resp.send(proto::encode_error(&e.to_string()));
                continue;
            }
        };
        if closing.load(Ordering::SeqCst) && !matches!(req, Request::Shutdown) {
            resp.send(proto::encode_error("server is shutting down"));
            continue;
        }
        // Blocking push = backpressure; but bail out promptly if the
        // engine thread is gone.
        let mut job = Job { req, resp };
        loop {
            match tx.try_send(job) {
                Ok(()) => break,
                Err(TrySendError::Full(j)) => {
                    if closing.load(Ordering::SeqCst) {
                        j.resp.send(proto::encode_error("server is shutting down"));
                        break;
                    }
                    job = j;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(TrySendError::Disconnected(j)) => {
                    j.resp.send(proto::encode_error("server is shutting down"));
                    return;
                }
            }
        }
    }
}

/// Executes one coalesced query batch and scatters per-client answers.
/// Client-level errors (bad ids) are answered per-job; only a mesh
/// failure propagates.
fn run_query_batch(engine: &mut ServeEngine, jobs: &[Job]) -> Result<(), ServeError> {
    // Validate per job so one bad id rejects one client, not the batch.
    let mut live: Vec<(&Job, &[u32])> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if let Request::Query(ids) = &job.req {
            match ids.iter().find(|&&id| (id as usize) >= engine.num_nodes()) {
                Some(&bad) => job.resp.send(proto::encode_error(&format!(
                    "node {bad} out of range (graph has {} nodes)",
                    engine.num_nodes()
                ))),
                None => live.push((job, ids)),
            }
        }
    }
    if live.is_empty() {
        return Ok(());
    }
    let all: Vec<u32> = live
        .iter()
        .flat_map(|(_, ids)| ids.iter().copied())
        .collect();
    match engine.execute_query(&all) {
        Ok((logits, _stats)) => {
            let cols = engine.num_classes();
            let mut offset = 0usize;
            for (job, ids) in live {
                let rows = ids.len();
                let values = &logits.data()[offset * cols..(offset + rows) * cols];
                job.resp.send(proto::encode_logits(rows, cols, values));
                offset += rows;
            }
            Ok(())
        }
        Err(e @ ServeError::Comm(_)) => {
            for (job, _) in live {
                job.resp.send(proto::encode_error("worker mesh failure"));
            }
            Err(e)
        }
        Err(e) => {
            let msg = e.to_string();
            for (job, _) in live {
                job.resp.send(proto::encode_error(&msg));
            }
            Ok(())
        }
    }
}

/// Executes one non-query operation. Returns whether it was a shutdown
/// (whose ack is deferred until the drain completes).
fn run_other(engine: &mut ServeEngine, job: &Job) -> Result<bool, ServeError> {
    match &job.req {
        Request::Query(_) => Ok(false),
        Request::Update { node, values } => {
            match engine.update_feature(*node, values) {
                Ok(()) => job.resp.send(proto::encode_ack(proto::OP_UPDATE)),
                Err(e @ ServeError::Comm(_)) => {
                    job.resp.send(proto::encode_error("worker mesh failure"));
                    return Err(e);
                }
                Err(e) => job.resp.send(proto::encode_error(&e.to_string())),
            }
            Ok(false)
        }
        Request::Reload => {
            match engine.reload() {
                Ok(()) => job.resp.send(proto::encode_ack(proto::OP_RELOAD)),
                Err(e @ ServeError::Comm(_)) => {
                    job.resp.send(proto::encode_error("worker mesh failure"));
                    return Err(e);
                }
                Err(e) => job.resp.send(proto::encode_error(&e.to_string())),
            }
            Ok(false)
        }
        Request::Stats => {
            job.resp
                .send(proto::encode_stats(&engine.snapshot().to_counters()));
            Ok(false)
        }
        Request::Shutdown => Ok(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in job: a query or a named control op.
    #[derive(Debug, PartialEq, Eq)]
    enum T {
        Q(u32),
        C(&'static str),
    }

    fn is_query(t: &T) -> bool {
        matches!(t, T::Q(_))
    }

    fn queue(jobs: Vec<T>) -> Receiver<T> {
        let (tx, rx) = std::sync::mpsc::sync_channel(jobs.len().max(1));
        for job in jobs {
            tx.send(job).expect("queue has room");
        }
        rx
    }

    #[test]
    fn a_control_job_closes_the_window_and_runs_before_later_queries() {
        let rx = queue(vec![T::Q(1), T::C("update"), T::Q(2)]);
        let mut held = None;
        let delay = Duration::from_millis(5);
        let mut next = || next_work(&rx, &mut held, is_query, 32, delay);
        assert_eq!(next(), Work::Batch(vec![T::Q(1)]));
        assert_eq!(next(), Work::Control(T::C("update")));
        assert_eq!(next(), Work::Batch(vec![T::Q(2)]));
        assert_eq!(next(), Work::Closed);
    }

    #[test]
    fn a_window_holds_at_most_max_batch_queries() {
        let rx = queue(vec![T::Q(1), T::Q(2), T::Q(3)]);
        let mut held = None;
        let delay = Duration::from_secs(2);
        assert_eq!(
            next_work(&rx, &mut held, is_query, 2, delay),
            Work::Batch(vec![T::Q(1), T::Q(2)])
        );
        assert_eq!(held, None);
    }

    #[test]
    fn a_lone_control_job_does_not_wait_out_the_window() {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        tx.send(T::C("stats")).expect("queue has room");
        let mut held = None;
        let start = Instant::now();
        let work = next_work(&rx, &mut held, is_query, 32, Duration::from_secs(2));
        let waited = start.elapsed();
        assert_eq!(work, Work::Control(T::C("stats")));
        assert!(
            waited < Duration::from_millis(500),
            "stats waited {waited:?} for a window it never opened"
        );
        drop(tx);
    }
}
