//! The TCP transport backend: a real wire under the SAR runtime.
//!
//! One OS process per rank, one duplex TCP connection per peer pair, and
//! the checksummed frame format of [`wire`](crate::wire). The backend is
//! assembled in two steps:
//!
//! 1. **Rendezvous** — every rank binds a *data* listener on an ephemeral
//!    port (`port 0`; nothing in the protocol assumes fixed ports, so
//!    parallel CI jobs never collide). Rank 0 additionally serves the
//!    rendezvous point: ranks `1..N` connect to it, announce
//!    `(rank, data_address)`, and receive the full roster of all `N` data
//!    addresses in exchange.
//! 2. **Mesh** — rank `p` connects to the data listener of every rank
//!    `q > p` (with retry + exponential backoff) and accepts one
//!    connection from every rank `q < p`. Each accepted/established stream
//!    is identified by a one-frame hello carrying the peer's rank.
//!
//! After the mesh is up, one reader thread per peer decodes frames and
//! demultiplexes them: data frames flow to the inbox consumed by
//! [`Transport::recv_any`]; barrier frames feed the barrier accountant;
//! a shutdown frame (or clean EOF after [`TcpTransport`] starts closing)
//! ends the thread. A corrupt frame or an unexpected EOF is surfaced
//! *through the inbox* as a typed [`TransportError`], so a blocked
//! receiver learns about a dead peer immediately instead of hanging.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::codec::Codec;
use crate::le;
use crate::message::{Message, Payload};
use crate::transport::{Clock, Transport, TransportError};
use crate::wire::{read_frame, write_frame, Frame, FrameKind, WireError};

/// Connection and I/O tuning for [`TcpTransport`].
#[derive(Debug, Clone, Copy)]
pub struct TcpOpts {
    /// Connection attempts per peer before giving up.
    pub connect_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt, capped at
    /// one second, with deterministic rank-seeded jitter of up to half the
    /// current backoff so a world of ranks retrying a slow rendezvous does
    /// not hammer it in lock-step.
    pub connect_backoff: Duration,
    /// Socket write timeout, and the deadline for handshake reads and
    /// barrier formation.
    pub io_timeout: Duration,
    /// Depth of each per-peer writer queue: how many outgoing frames may
    /// wait for the writer thread before `send` exerts backpressure
    /// (briefly blocking the caller). Large enough for a full pipelined
    /// rotation at any practical prefetch depth; small enough to bound
    /// in-flight send memory.
    pub writer_queue: usize,
    /// The wire codec this rank will run (see [`crate::codec`]). Carried
    /// in the rendezvous hello; rank 0 rejects the cluster unless every
    /// rank negotiated the same codec, and reader threads reject encoded
    /// frames carrying any other codec id.
    pub codec: Codec,
}

impl Default for TcpOpts {
    fn default() -> Self {
        TcpOpts {
            connect_attempts: 25,
            connect_backoff: Duration::from_millis(20),
            io_timeout: Duration::from_secs(120),
            writer_queue: 64,
            codec: Codec::Raw,
        }
    }
}

impl TcpOpts {
    /// Short-fuse options for failure-path tests.
    pub fn impatient() -> Self {
        TcpOpts {
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(5),
            io_timeout: Duration::from_millis(500),
            ..TcpOpts::default()
        }
    }
}

/// What a reader thread forwards to the consuming worker.
type InboxItem = Result<Message, TransportError>;

/// One outgoing unit of work for a per-peer writer thread.
enum WriterMsg {
    /// Encode and write one frame.
    Frame {
        kind: FrameKind,
        tag: u64,
        payload: Payload,
    },
    /// Write a shutdown frame, half-close the socket, and exit.
    Close,
}

/// The sending side of one peer connection: a bounded queue feeding a
/// dedicated writer thread, so frame encoding and the socket write happen
/// off the worker's critical path. The worker's `send` is an enqueue — it
/// only blocks when the queue is full (backpressure).
struct WriterHandle {
    tx: std::sync::mpsc::SyncSender<WriterMsg>,
    /// Socket clone used solely by [`TcpTransport::abort`] to hard-close
    /// the connection out from under a possibly mid-write writer thread.
    sock: TcpStream,
    /// The first error the writer thread hit, for a diagnostic richer than
    /// "queue closed" on the next send.
    err: Arc<Mutex<Option<TransportError>>>,
    join: Option<std::thread::JoinHandle<()>>,
}

/// A TCP-backed [`Transport`]: per-peer framed streams, wall-clock time
/// accounting, clean shutdown on drop.
pub struct TcpTransport {
    rank: usize,
    world: usize,
    /// Per-peer writer threads, indexed by peer rank (`None` at `rank`).
    writers: Vec<Option<WriterHandle>>,
    inbox_rx: Receiver<InboxItem>,
    /// Kept alive so `inbox_rx` never reports a closed channel while the
    /// transport itself is alive.
    _inbox_tx: Sender<InboxItem>,
    barrier_rx: Receiver<(usize, u64)>,
    barrier_seq: Mutex<u64>,
    /// Barrier arrivals per sequence number: which peers have announced
    /// reaching a barrier this rank may not have entered yet. Tracking the
    /// rank *set* (not a count) lets a timed-out barrier name exactly who
    /// never showed up.
    barrier_ranks: Mutex<HashMap<u64, HashSet<usize>>>,
    /// Deadline for barrier formation, from [`TcpOpts::io_timeout`].
    io_timeout: Duration,
    closing: Arc<AtomicBool>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .finish()
    }
}

// ----------------------------------------------------------------------
// Rendezvous
// ----------------------------------------------------------------------

/// Rendezvous hello: `rank` announces its data listener address and the
/// wire codec it intends to run.
fn send_hello(
    stream: &mut TcpStream,
    rank: usize,
    codec: Codec,
    data_addr: SocketAddr,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    le::put_u32(&mut buf, rank as u32);
    buf.push(codec.code());
    put_addr(&mut buf, data_addr);
    stream.write_all(&buf)
}

/// Appends a length-prefixed socket address.
fn put_addr(out: &mut Vec<u8>, addr: SocketAddr) {
    let s = addr.to_string().into_bytes();
    le::put_u32(out, s.len() as u32);
    out.extend_from_slice(&s);
}

/// Reads exactly `N` handshake bytes.
fn recv_bytes<const N: usize>(stream: &mut TcpStream) -> Result<[u8; N], TransportError> {
    let mut buf = [0u8; N];
    stream.read_exact(&mut buf).map_err(TransportError::Io)?;
    Ok(buf)
}

/// Reads the `len`-byte socket address a handshake length prefix
/// announced; `what` names the message for the diagnostic.
fn recv_addr(stream: &mut TcpStream, len: u32, what: &str) -> Result<SocketAddr, TransportError> {
    if len > 256 {
        return Err(TransportError::Handshake(format!(
            "{what} claims a {len}-byte address"
        )));
    }
    let mut addr = vec![0u8; len as usize];
    stream.read_exact(&mut addr).map_err(TransportError::Io)?;
    let addr = String::from_utf8(addr)
        .map_err(|e| TransportError::Handshake(format!("non-utf8 address: {e}")))?;
    addr.parse()
        .map_err(|e| TransportError::Handshake(format!("bad address {addr:?}: {e}")))
}

fn recv_hello(stream: &mut TcpStream) -> Result<(usize, Codec, SocketAddr), TransportError> {
    let head = recv_bytes::<9>(stream)?;
    let mut c = le::Cursor::new(&head);
    // `head` is exactly these three fields, so the cursor cannot run out;
    // if it ever did, that is a handshake error like any other.
    let short_field = |e: le::CursorError| TransportError::Handshake(e.to_string());
    let rank = c.u32().map_err(short_field)? as usize;
    let codec_id = c.u8().map_err(short_field)?;
    let codec = Codec::from_code(codec_id).ok_or_else(|| {
        TransportError::Handshake(format!(
            "rendezvous hello from rank {rank} names unknown codec id {codec_id}"
        ))
    })?;
    let len = c.u32().map_err(short_field)?;
    Ok((rank, codec, recv_addr(stream, len, "rendezvous hello")?))
}

fn send_roster(stream: &mut TcpStream, roster: &[SocketAddr]) -> std::io::Result<()> {
    let mut buf = Vec::new();
    le::put_u32(&mut buf, roster.len() as u32);
    for &a in roster {
        put_addr(&mut buf, a);
    }
    stream.write_all(&buf)
}

fn recv_u32(stream: &mut TcpStream) -> Result<u32, TransportError> {
    Ok(u32::from_le_bytes(recv_bytes(stream)?))
}

fn recv_roster(stream: &mut TcpStream, world: usize) -> Result<Vec<SocketAddr>, TransportError> {
    let n = recv_u32(stream)? as usize;
    if n != world {
        return Err(TransportError::Handshake(format!(
            "roster lists {n} ranks, expected {world}"
        )));
    }
    (0..n)
        .map(|_| {
            let len = recv_u32(stream)?;
            recv_addr(stream, len, "roster entry")
        })
        .collect()
}

/// SplitMix64 — the deterministic jitter generator for connection
/// backoff. Seeded from `(rank, attempt)` so retries are reproducible per
/// rank but decorrelated across ranks.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Connects to `addr` with retry + jittered exponential backoff. `peer`
/// only labels the error; `rank` seeds the jitter, so every rank sleeps a
/// deterministic but distinct schedule instead of the whole world
/// retrying in lock-step. The final error reports how many attempts were
/// made and the total time spent backing off.
fn connect_with_retry(
    addr: SocketAddr,
    peer: usize,
    rank: usize,
    opts: &TcpOpts,
) -> Result<TcpStream, TransportError> {
    let mut backoff = opts.connect_backoff;
    let mut waited = Duration::ZERO;
    let mut last = None;
    for attempt in 0..opts.connect_attempts {
        match TcpStream::connect_timeout(&addr, opts.io_timeout.max(Duration::from_millis(250))) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < opts.connect_attempts {
            // Up to +50% of the current backoff, drawn deterministically
            // from (rank, attempt).
            let r = splitmix64((rank as u64) << 32 | u64::from(attempt));
            let half = backoff.as_nanos() as u64 / 2;
            let jitter_ns = if half == 0 { 0 } else { r % half };
            let sleep = backoff + Duration::from_nanos(jitter_ns);
            std::thread::sleep(sleep);
            waited += sleep;
            backoff = (backoff * 2).min(Duration::from_secs(1));
        }
    }
    Err(TransportError::ConnectFailed {
        peer,
        attempts: opts.connect_attempts,
        waited,
        last: last.unwrap_or_else(|| std::io::Error::other("no attempt made")),
    })
}

/// Accepts one connection with a deadline (the listener is switched to
/// non-blocking and polled).
fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Instant,
) -> Result<(TcpStream, SocketAddr), TransportError> {
    listener.set_nonblocking(true).map_err(TransportError::Io)?;
    loop {
        match listener.accept() {
            Ok(pair) => {
                listener
                    .set_nonblocking(false)
                    .map_err(TransportError::Io)?;
                pair.0.set_nonblocking(false).map_err(TransportError::Io)?;
                return Ok(pair);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(TransportError::Timeout {
                        waited: Duration::from_secs(0),
                        detail: None,
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
}

impl TcpTransport {
    /// Rank 0: binds the data listener, serves the rendezvous on
    /// `rendezvous` (commonly bound to port 0 by the caller), and meshes.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `world - 1` peers join before the deadline, a
    /// rank joins twice, or the mesh cannot form.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0` (a caller bug, not a network failure).
    pub fn host(
        rendezvous: TcpListener,
        world: usize,
        opts: TcpOpts,
    ) -> Result<TcpTransport, TransportError> {
        if world == 0 {
            panic!("cluster needs at least one rank");
        }
        let host_ip = rendezvous.local_addr().map_err(TransportError::Io)?.ip();
        let data_listener = TcpListener::bind((host_ip, 0)).map_err(TransportError::Io)?;
        let my_addr = data_listener.local_addr().map_err(TransportError::Io)?;

        let mut roster: Vec<Option<SocketAddr>> = vec![None; world];
        roster[0] = Some(my_addr);
        let deadline = Instant::now() + opts.io_timeout;
        let mut joined: Vec<(usize, TcpStream)> = Vec::with_capacity(world - 1);
        while joined.len() + 1 < world {
            let (mut stream, _) =
                accept_with_deadline(&rendezvous, deadline).map_err(|e| match e {
                    TransportError::Timeout { .. } => TransportError::Handshake(format!(
                        "only {} of {world} ranks joined the rendezvous within {:?}",
                        joined.len() + 1,
                        opts.io_timeout
                    )),
                    other => other,
                })?;
            stream
                .set_read_timeout(Some(opts.io_timeout))
                .map_err(TransportError::Io)?;
            let (rank, codec, addr) = recv_hello(&mut stream)?;
            if rank == 0 || rank >= world {
                return Err(TransportError::Handshake(format!(
                    "rendezvous hello from out-of-range rank {rank} (world {world})"
                )));
            }
            if codec != opts.codec {
                return Err(TransportError::Handshake(format!(
                    "codec negotiation failed: rank {rank} runs codec {}, rank 0 runs {}",
                    codec.name(),
                    opts.codec.name()
                )));
            }
            if roster[rank].is_some() {
                return Err(TransportError::Handshake(format!(
                    "rank {rank} joined the rendezvous twice"
                )));
            }
            roster[rank] = Some(addr);
            joined.push((rank, stream));
        }
        let roster: Vec<SocketAddr> = roster.into_iter().flatten().collect();
        if roster.len() != world {
            return Err(TransportError::Handshake(format!(
                "rendezvous closed with only {} of {world} ranks known",
                roster.len()
            )));
        }
        for (_, stream) in &mut joined {
            send_roster(stream, &roster).map_err(TransportError::Io)?;
        }
        drop(joined);
        Self::mesh(0, world, data_listener, &roster, opts)
    }

    /// Ranks `1..world`: joins the rendezvous served by rank 0 at `addr`,
    /// receives the roster, and meshes.
    ///
    /// # Errors
    ///
    /// [`TransportError::ConnectFailed`] (naming rank 0) if the rendezvous
    /// never answers; handshake or mesh errors otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is 0 or `>= world` (a caller bug — rank 0 hosts).
    pub fn join(
        addr: impl ToSocketAddrs,
        rank: usize,
        world: usize,
        opts: TcpOpts,
    ) -> Result<TcpTransport, TransportError> {
        if rank == 0 || rank >= world {
            panic!("join is for ranks 1..world, got rank {rank} of world {world}");
        }
        let addr = addr
            .to_socket_addrs()
            .map_err(TransportError::Io)?
            .next()
            .ok_or_else(|| {
                TransportError::Handshake("rendezvous address resolves to nothing".into())
            })?;
        let data_listener = TcpListener::bind((addr.ip(), 0)).map_err(TransportError::Io)?;
        let my_addr = data_listener.local_addr().map_err(TransportError::Io)?;

        let mut stream = connect_with_retry(addr, 0, rank, &opts)?;
        stream
            .set_read_timeout(Some(opts.io_timeout))
            .map_err(TransportError::Io)?;
        send_hello(&mut stream, rank, opts.codec, my_addr).map_err(TransportError::Io)?;
        let roster = recv_roster(&mut stream, world)?;
        drop(stream);
        Self::mesh(rank, world, data_listener, &roster, opts)
    }

    /// Builds the full mesh from a known roster: connect to every higher
    /// rank, accept from every lower rank, then start the reader threads.
    fn mesh(
        rank: usize,
        world: usize,
        data_listener: TcpListener,
        roster: &[SocketAddr],
        opts: TcpOpts,
    ) -> Result<TcpTransport, TransportError> {
        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();

        // Outbound: to every higher rank. A one-frame hello identifies us.
        for (q, &peer_addr) in roster.iter().enumerate().skip(rank + 1) {
            let mut s = connect_with_retry(peer_addr, q, rank, &opts)?;
            s.set_nodelay(true).ok();
            write_frame(
                &mut s,
                FrameKind::Data,
                rank as u32,
                HELLO_TAG,
                &Payload::Empty,
            )
            .map_err(TransportError::Io)?;
            streams[q] = Some(s);
        }
        // Inbound: one connection from every lower rank.
        let deadline = Instant::now() + opts.io_timeout;
        for _ in 0..rank {
            let (mut s, _) = accept_with_deadline(&data_listener, deadline).map_err(|e| {
                if matches!(e, TransportError::Timeout { .. }) {
                    TransportError::Handshake(format!(
                        "rank {rank}: not all lower ranks connected within {:?}",
                        opts.io_timeout
                    ))
                } else {
                    e
                }
            })?;
            s.set_nodelay(true).ok();
            s.set_read_timeout(Some(opts.io_timeout))
                .map_err(TransportError::Io)?;
            let hello = read_frame(&mut s).map_err(|e| {
                TransportError::Handshake(format!("rank {rank}: bad mesh hello: {e}"))
            })?;
            let q = hello.src as usize;
            if hello.tag != HELLO_TAG || q >= rank {
                return Err(TransportError::Handshake(format!(
                    "rank {rank}: unexpected mesh hello from rank {q} (tag {})",
                    hello.tag
                )));
            }
            if streams[q].is_some() {
                return Err(TransportError::Handshake(format!(
                    "rank {rank}: rank {q} connected twice"
                )));
            }
            s.set_read_timeout(None).map_err(TransportError::Io)?;
            streams[q] = Some(s);
        }

        // Demux plumbing + reader and writer threads.
        // sar-check: allow(no-unbounded-channel) — reader threads must never
        // block handing frames to the inbox, or a slow consumer would stall
        // the socket and break the non-blocking-send model the protocol
        // verifier assumes; depth is bounded by pipeline residency.
        let (inbox_tx, inbox_rx) = unbounded::<InboxItem>();
        // sar-check: allow(no-unbounded-channel) — barrier notifications are
        // at most one per peer per barrier sequence number.
        let (barrier_tx, barrier_rx) = unbounded::<(usize, u64)>();
        let closing = Arc::new(AtomicBool::new(false));
        let mut writers: Vec<Option<WriterHandle>> = (0..world).map(|_| None).collect();
        for (q, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else { continue };
            stream
                .set_write_timeout(Some(opts.io_timeout))
                .map_err(TransportError::Io)?;
            let read_half = stream.try_clone().map_err(TransportError::Io)?;
            let abort_half = stream.try_clone().map_err(TransportError::Io)?;
            let tx = inbox_tx.clone();
            let btx = barrier_tx.clone();
            let closing_r = Arc::clone(&closing);
            let negotiated = opts.codec;
            std::thread::Builder::new()
                .name(format!("sar-tcp-r{rank}-p{q}"))
                .spawn(move || reader_loop(read_half, q, negotiated, tx, btx, closing_r))
                .map_err(TransportError::Io)?;
            let (wtx, wrx) = std::sync::mpsc::sync_channel::<WriterMsg>(opts.writer_queue.max(1));
            let err = Arc::new(Mutex::new(None));
            let werr = Arc::clone(&err);
            let join = std::thread::Builder::new()
                .name(format!("sar-tcp-w{rank}-p{q}"))
                .spawn(move || writer_loop(stream, rank as u32, q, wrx, werr))
                .map_err(TransportError::Io)?;
            writers[q] = Some(WriterHandle {
                tx: wtx,
                sock: abort_half,
                err,
                join: Some(join),
            });
        }
        Ok(TcpTransport {
            rank,
            world,
            writers,
            inbox_rx,
            _inbox_tx: inbox_tx,
            barrier_rx,
            barrier_seq: Mutex::new(0),
            barrier_ranks: Mutex::new(HashMap::new()),
            io_timeout: opts.io_timeout,
            closing,
        })
    }

    /// The typed error for a barrier that never formed: names the barrier
    /// sequence number and the ranks not yet heard from, so one worker's
    /// log line identifies the wedged peers.
    fn barrier_timeout(&self, seq: u64) -> TransportError {
        let heard = self
            .barrier_ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&seq)
            .cloned()
            .unwrap_or_default();
        let mut missing: Vec<usize> = (0..self.world)
            .filter(|&q| q != self.rank && !heard.contains(&q))
            .collect();
        missing.sort_unstable();
        TransportError::Timeout {
            waited: self.io_timeout,
            detail: Some(format!(
                "barrier seq {seq} never formed; still waiting on ranks {missing:?}"
            )),
        }
    }

    /// Why `dst`'s writer queue is closed: the writer thread exited, so
    /// report what killed it if it left a diagnostic (handed out once),
    /// else a plain disconnect.
    fn writer_failure(&self, dst: usize) -> TransportError {
        self.writers[dst]
            .as_ref()
            .and_then(|w| w.err.lock().ok()?.take())
            .unwrap_or(TransportError::Disconnected { peer: dst })
    }

    /// Simulates a crash for fault-injection tests: closes every peer
    /// socket immediately, without shutdown frames. Peers observe an
    /// unexpected EOF and surface [`TransportError::Disconnected`]; this
    /// rank's writer threads fail their next write and exit.
    pub fn abort(&self) {
        self.closing.store(true, Ordering::SeqCst);
        for w in self.writers.iter().flatten() {
            let _ = w.sock.shutdown(Shutdown::Both);
        }
    }
}

/// Drains one peer's outgoing queue onto its socket. Exits on a `Close`
/// message (clean shutdown), a write error (recorded in `err` for the next
/// `send` to report), or all senders dropping. Every sent `F32` payload is
/// offered back to [`crate::buffer`], which keeps the ones it lent (the
/// serve side's gather buffers) and lets the rest drop.
fn writer_loop(
    mut stream: TcpStream,
    src: u32,
    peer: usize,
    rx: std::sync::mpsc::Receiver<WriterMsg>,
    err: Arc<Mutex<Option<TransportError>>>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Frame { kind, tag, payload } => {
                let res = write_frame(&mut stream, kind, src, tag, &payload);
                if let Payload::F32(v) = payload {
                    crate::buffer::recycle_f32(v);
                }
                if let Err(e) = res {
                    let mapped = if matches!(
                        e.kind(),
                        std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                    ) {
                        TransportError::Disconnected { peer }
                    } else {
                        TransportError::Io(e)
                    };
                    if let Ok(mut slot) = err.lock() {
                        *slot = Some(mapped);
                    }
                    // Dropping `rx` disconnects the queue; the next send
                    // observes the failure.
                    return;
                }
            }
            WriterMsg::Close => {
                let _ = write_frame(&mut stream, FrameKind::Shutdown, src, 0, &Payload::Empty);
                let _ = stream.shutdown(Shutdown::Write);
                return;
            }
        }
    }
}

/// Mesh-hello marker tag (never collides with worker tags, which the
/// runtime allocates far below `u64::MAX`).
const HELLO_TAG: u64 = u64::MAX;

fn reader_loop(
    mut stream: TcpStream,
    peer: usize,
    negotiated: Codec,
    inbox: Sender<InboxItem>,
    barriers: Sender<(usize, u64)>,
    closing: Arc<AtomicBool>,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(Frame {
                kind: FrameKind::Data,
                src,
                tag,
                payload,
            }) => {
                let item = if src as usize != peer {
                    Err(TransportError::Corrupt {
                        peer,
                        detail: format!("frame claims src rank {src}"),
                    })
                } else if let Payload::Encoded { codec, .. } = &payload {
                    if *codec == negotiated {
                        Ok(Message { src, tag, payload })
                    } else {
                        Err(TransportError::Corrupt {
                            peer,
                            detail: format!(
                                "{}-coded frame from rank {src}, but this cluster \
                                 negotiated codec {}",
                                codec.name(),
                                negotiated.name()
                            ),
                        })
                    }
                } else {
                    Ok(Message { src, tag, payload })
                };
                let failed = item.is_err();
                if inbox.send(item).is_err() || failed {
                    return;
                }
            }
            Ok(Frame {
                kind: FrameKind::Barrier,
                tag,
                ..
            }) => {
                if barriers.send((peer, tag)).is_err() {
                    return;
                }
            }
            Ok(Frame {
                kind: FrameKind::Shutdown,
                ..
            }) => return,
            Ok(Frame { kind, .. }) => {
                // Serving-tier frames (Request/Response) belong on a
                // client connection, never inside the worker mesh.
                let _ = inbox.send(Err(TransportError::Corrupt {
                    peer,
                    detail: format!("unexpected {kind:?} frame on the worker mesh"),
                }));
                return;
            }
            Err(WireError::Eof) => {
                if !closing.load(Ordering::SeqCst) {
                    let _ = inbox.send(Err(TransportError::Disconnected { peer }));
                }
                return;
            }
            Err(WireError::ChecksumMismatch {
                expected,
                actual,
                codec,
            }) => {
                let coded = codec
                    .map(|c| format!(" on a {}-coded frame", c.name()))
                    .unwrap_or_default();
                let _ = inbox.send(Err(TransportError::Corrupt {
                    peer,
                    detail: format!(
                        "checksum mismatch{coded} (frame {expected:#010x}, computed {actual:#010x})"
                    ),
                }));
                return;
            }
            Err(WireError::BadHeader(d)) => {
                let _ = inbox.send(Err(TransportError::Corrupt { peer, detail: d }));
                return;
            }
            Err(WireError::Io(e)) => {
                if !closing.load(Ordering::SeqCst) {
                    let _ = inbox.send(Err(TransportError::Io(e)));
                }
                return;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn clock(&self) -> Clock {
        Clock::Wall
    }

    fn send(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        let writer = self.writers[dst]
            .as_ref()
            .ok_or(TransportError::Disconnected { peer: dst })?;
        writer
            .tx
            .send(WriterMsg::Frame {
                kind: FrameKind::Data,
                tag,
                payload,
            })
            .map_err(|_| self.writer_failure(dst))
    }

    fn recv_any(&self, timeout: Duration) -> Result<Message, TransportError> {
        match self.inbox_rx.recv_timeout(timeout) {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout {
                waited: timeout,
                detail: None,
            }),
            Err(RecvTimeoutError::Disconnected) => {
                Err(TransportError::Disconnected { peer: self.rank })
            }
        }
    }

    fn try_recv_any(&self) -> Result<Option<Message>, TransportError> {
        match self.inbox_rx.try_recv() {
            Ok(item) => item.map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => {
                Err(TransportError::Disconnected { peer: self.rank })
            }
        }
    }

    fn barrier(&self) -> Result<(), TransportError> {
        if self.world == 1 {
            return Ok(());
        }
        let seq = {
            // Lock poisoning only means another barrier call panicked midway;
            // the counter itself is still coherent, so keep going.
            let mut s = self.barrier_seq.lock().unwrap_or_else(|e| e.into_inner());
            let v = *s;
            *s += 1;
            v
        };
        for (q, w) in self.writers.iter().enumerate() {
            let Some(w) = w else { continue };
            // Barrier frames ride the same per-peer queue as data frames,
            // so a barrier never overtakes an already-enqueued message.
            w.tx.send(WriterMsg::Frame {
                kind: FrameKind::Barrier,
                tag: seq,
                payload: Payload::Empty,
            })
            .map_err(|_| self.writer_failure(q))?;
        }
        // Barrier formation shares the configured I/O deadline — a barrier
        // that outlives `io_timeout` means a peer is dead or wedged, and
        // waiting a hardcoded ten minutes on top would only delay the
        // diagnosis.
        let deadline = Instant::now() + self.io_timeout;
        loop {
            {
                let mut ranks = self.barrier_ranks.lock().unwrap_or_else(|e| e.into_inner());
                if ranks.get(&seq).is_some_and(|r| r.len() == self.world - 1) {
                    ranks.remove(&seq);
                    return Ok(());
                }
            }
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| self.barrier_timeout(seq))?;
            match self
                .barrier_rx
                .recv_timeout(left.min(Duration::from_millis(200)))
            {
                Ok((peer, s)) => {
                    self.barrier_ranks
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .entry(s)
                        .or_default()
                        .insert(peer);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TransportError::Disconnected { peer: self.rank })
                }
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.closing.store(true, Ordering::SeqCst);
        // Ask every writer thread to flush its queue, emit a shutdown
        // frame, and half-close the socket. The send blocks only while the
        // queue drains; a wedged socket is bounded by the write timeout.
        for w in self.writers.iter().flatten() {
            let _ = w.tx.send(WriterMsg::Close);
        }
        for w in self.writers.iter_mut().flatten() {
            if let Some(join) = w.join.take() {
                let _ = join.join();
            }
        }
        // Reader threads exit on the peers' shutdown frames or EOFs; they
        // are detached, so no join (a blocked join could deadlock with a
        // peer that drops later).
    }
}

/// Spawns a localhost TCP cluster with one *thread* per rank — the
/// harness used by parity and protocol tests (real sockets, no process
/// management). Rank 0 hosts the rendezvous on an ephemeral port; the
/// other ranks learn the address through a channel, exactly as external
/// launchers learn it through the rendezvous file.
///
/// # Panics
///
/// Panics if any rank fails to establish its transport, or if a worker
/// closure panics.
pub fn run_tcp_threads<T, F>(world: usize, opts: TcpOpts, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(TcpTransport) -> T + Send + Sync + 'static,
{
    let rendezvous = TcpListener::bind(("127.0.0.1", 0))
        .unwrap_or_else(|e| panic!("failed to bind the rendezvous listener: {e}"));
    let addr = rendezvous
        .local_addr()
        .unwrap_or_else(|e| panic!("failed to read the rendezvous address: {e}"));
    let f = Arc::new(f);
    let mut handles = Vec::with_capacity(world);
    for rank in 0..world {
        let f = Arc::clone(&f);
        let rendezvous = (rank == 0).then(|| {
            rendezvous
                .try_clone()
                .unwrap_or_else(|e| panic!("rank 0: failed to clone the rendezvous listener: {e}"))
        });
        handles.push(
            std::thread::Builder::new()
                .name(format!("sar-tcp-worker-{rank}"))
                .spawn(move || {
                    let transport = match rendezvous {
                        Some(l) => TcpTransport::host(l, world, opts),
                        None => TcpTransport::join(addr, rank, world, opts),
                    }
                    .unwrap_or_else(|e| panic!("rank {rank}: transport setup failed: {e}"));
                    f(transport)
                })
                .unwrap_or_else(|e| panic!("failed to spawn tcp worker for rank {rank}: {e}")),
        );
    }
    handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_ranks_exchange_over_loopback() {
        let out = run_tcp_threads(2, TcpOpts::default(), |t| {
            let peer = 1 - t.rank();
            t.send(peer, 7, Payload::U32(vec![t.rank() as u32 * 10]))
                .unwrap();
            let m = t.recv_any(Duration::from_secs(10)).unwrap();
            assert_eq!(m.src as usize, peer);
            assert_eq!(m.tag, 7);
            m.payload.into_u32()[0]
        });
        assert_eq!(out, vec![10, 0]);
    }

    #[test]
    fn four_rank_mesh_routes_all_pairs() {
        let out = run_tcp_threads(4, TcpOpts::default(), |t| {
            let n = t.world_size();
            for q in 0..n {
                if q != t.rank() {
                    t.send(q, 1, Payload::U32(vec![t.rank() as u32])).unwrap();
                }
            }
            let mut got = vec![false; n];
            got[t.rank()] = true;
            for _ in 0..n - 1 {
                let m = t.recv_any(Duration::from_secs(10)).unwrap();
                got[m.payload.into_u32()[0] as usize] = true;
            }
            got.iter().all(|&b| b)
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn per_peer_order_is_preserved() {
        let out = run_tcp_threads(2, TcpOpts::default(), |t| {
            let peer = 1 - t.rank();
            for i in 0..50u32 {
                t.send(peer, i as u64, Payload::U32(vec![i])).unwrap();
            }
            let mut seen = Vec::with_capacity(50);
            for _ in 0..50 {
                let m = t.recv_any(Duration::from_secs(10)).unwrap();
                seen.push(m.payload.into_u32()[0]);
            }
            seen
        });
        let expect: Vec<u32> = (0..50).collect();
        assert_eq!(out[0], expect);
        assert_eq!(out[1], expect);
    }

    #[test]
    fn barriers_synchronize_and_stay_off_the_inbox() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static ENTERED: AtomicUsize = AtomicUsize::new(0);
        let out = run_tcp_threads(3, TcpOpts::default(), |t| {
            ENTERED.fetch_add(1, Ordering::SeqCst);
            t.barrier().unwrap();
            let seen = ENTERED.load(Ordering::SeqCst);
            // A second barrier immediately after: sequence numbers keep
            // consecutive barriers apart.
            t.barrier().unwrap();
            assert!(
                t.try_recv_any().unwrap().is_none(),
                "barrier leaked a frame"
            );
            seen
        });
        assert!(out.iter().all(|&s| s == 3));
    }

    #[test]
    fn connect_failure_names_the_peer_rank() {
        // Nothing listens here: grab an ephemeral port and release it.
        let addr = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let Err(err) = TcpTransport::join(addr, 1, 2, TcpOpts::impatient()) else {
            panic!("join must fail with no rendezvous");
        };
        let msg = err.to_string();
        assert!(
            msg.contains("rank 0") && msg.contains("attempts"),
            "error must name the unreachable rank and the retry count: {msg}"
        );
    }

    #[test]
    fn mid_stream_disconnect_surfaces_typed_error_without_hanging() {
        let out = run_tcp_threads(2, TcpOpts::default(), |t| {
            if t.rank() == 1 {
                // Crash without a shutdown frame.
                t.abort();
                return "aborted".to_string();
            }
            match t.recv_any(Duration::from_secs(10)) {
                Err(TransportError::Disconnected { peer }) => format!("disconnected:{peer}"),
                other => format!("unexpected: {other:?}"),
            }
        });
        assert_eq!(out[0], "disconnected:1");
    }

    /// A real rank 0 against a hand-rolled "rank 1" that completes the
    /// handshake and then never reads: a dead process whose socket lingers.
    /// A block larger than the loopback buffers makes rank 0's writer
    /// thread run into its write timeout — an `Io` cause, which a plain
    /// `Disconnected` would not be told apart from. Returns the error of
    /// `call`, made once the writer thread has exited.
    fn error_after_writer_failed(
        call: impl FnOnce(&TcpTransport) -> Result<(), TransportError>,
    ) -> String {
        let rendezvous = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let rdv_addr = rendezvous.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let dead = std::thread::spawn(move || {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let mut s = TcpStream::connect(rdv_addr).unwrap();
            send_hello(&mut s, 1, Codec::Raw, listener.local_addr().unwrap()).unwrap();
            let _roster = recv_roster(&mut s, 2).unwrap();
            let (mut data, _) = listener.accept().unwrap();
            assert_eq!(read_frame(&mut data).unwrap().src, 0);
            // Hold the socket open, unread, until rank 0 has its answer.
            let _ = done_rx.recv();
        });
        let t = TcpTransport::host(rendezvous, 2, TcpOpts::impatient()).unwrap();
        t.send(1, 3, Payload::F32(vec![0.5; 4 << 20])).unwrap();
        let writer = t.writers[1].as_ref().unwrap().join.as_ref().unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !writer.is_finished() {
            assert!(Instant::now() < deadline, "the writer never timed out");
            std::thread::sleep(Duration::from_millis(10));
        }
        let err = call(&t).expect_err("the writer queue is closed");
        done_tx.send(()).unwrap();
        dead.join().unwrap();
        format!("{err:?}")
    }

    #[test]
    fn barrier_on_a_dead_writer_reports_the_cause_send_reports() {
        let from_send = error_after_writer_failed(|t| t.send(1, 4, Payload::Empty));
        let from_barrier = error_after_writer_failed(|t| t.barrier());
        assert!(from_send.starts_with("Io("), "send: {from_send}");
        assert_eq!(from_barrier, from_send);
    }

    #[test]
    fn corrupted_frame_is_rejected_with_checksum_error() {
        // A real rank 0 against a hand-rolled "rank 1" that completes the
        // rendezvous + mesh handshake and then sends a bit-flipped frame.
        let rendezvous = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let rdv_addr = rendezvous.local_addr().unwrap();
        let evil = std::thread::spawn(move || {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let my_addr = listener.local_addr().unwrap();
            let mut s = TcpStream::connect(rdv_addr).unwrap();
            send_hello(&mut s, 1, Codec::Raw, my_addr).unwrap();
            let _roster = recv_roster(&mut s, 2).unwrap();
            // Rank 0 connects to us (lower rank dials higher).
            let (mut data, _) = listener.accept().unwrap();
            let hello = read_frame(&mut data).unwrap();
            assert_eq!(hello.src, 0);
            let mut frame =
                crate::wire::encode_frame(FrameKind::Data, 1, 9, &Payload::F32(vec![1.0, 2.0]));
            let last = frame.len() - 1;
            frame[last] ^= 0x40;
            data.write_all(&frame).unwrap();
            data.flush().unwrap();
            // Hold the socket open so EOF cannot race the corrupt frame.
            std::thread::sleep(Duration::from_millis(300));
        });
        let t = TcpTransport::host(rendezvous, 2, TcpOpts::default()).unwrap();
        match t.recv_any(Duration::from_secs(5)) {
            Err(TransportError::Corrupt { peer: 1, detail }) => {
                assert!(detail.contains("checksum"), "detail: {detail}");
            }
            other => panic!("expected checksum rejection, got {other:?}"),
        }
        evil.join().unwrap();
    }

    #[test]
    fn connect_failure_reports_total_backoff_time() {
        let addr = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let err = connect_with_retry(addr, 3, 1, &TcpOpts::impatient())
            .expect_err("nothing listens there");
        let TransportError::ConnectFailed {
            peer,
            attempts,
            waited,
            ..
        } = &err
        else {
            panic!("expected ConnectFailed, got {err:?}");
        };
        assert_eq!(*peer, 3);
        assert_eq!(*attempts, 3);
        // Two backoff sleeps happened (5ms + jitter, 10ms + jitter).
        assert!(*waited >= Duration::from_millis(15), "waited {waited:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("backing off") && msg.contains("attempts"),
            "error must surface the retry budget: {msg}"
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_rank_and_distinct_across_ranks() {
        // The jitter draw for (rank, attempt) is a pure function.
        assert_eq!(splitmix64(42), splitmix64(42));
        let draws: Vec<u64> = (0..8u64).map(|rank| splitmix64(rank << 32)).collect();
        let mut unique = draws.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            draws.len(),
            "ranks must not retry in lock-step"
        );
    }

    #[test]
    fn barrier_timeout_names_the_seq_and_missing_ranks() {
        let opts = TcpOpts {
            io_timeout: Duration::from_millis(400),
            ..TcpOpts::default()
        };
        let out = run_tcp_threads(2, opts, |t| {
            if t.rank() == 1 {
                // Never enter the barrier; stay alive long enough that
                // rank 0 times out rather than observing a disconnect.
                std::thread::sleep(Duration::from_millis(1500));
                return "slept".to_string();
            }
            match t.barrier() {
                Err(TransportError::Timeout { waited, detail }) => {
                    let d = detail.unwrap_or_default();
                    assert!(
                        d.contains("barrier seq 0") && d.contains("[1]"),
                        "diagnostic must name the seq and the absent ranks: {d}"
                    );
                    // The deadline came from io_timeout, not a hardcoded
                    // 600 s.
                    assert!(waited <= Duration::from_secs(1));
                    "timed-out".to_string()
                }
                other => format!("unexpected: {other:?}"),
            }
        });
        assert_eq!(out[0], "timed-out");
    }

    #[test]
    fn codec_negotiation_rejects_a_mismatched_rank() {
        let rendezvous = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let rdv_addr = rendezvous.local_addr().unwrap();
        let joiner = std::thread::spawn(move || {
            let opts = TcpOpts {
                codec: Codec::Int8,
                ..TcpOpts::impatient()
            };
            TcpTransport::join(rdv_addr, 1, 2, opts).err()
        });
        let host_opts = TcpOpts {
            codec: Codec::F16,
            ..TcpOpts::impatient()
        };
        let err = TcpTransport::host(rendezvous, 2, host_opts)
            .expect_err("host must reject a codec mismatch");
        let msg = err.to_string();
        assert!(
            msg.contains("codec negotiation failed")
                && msg.contains("int8")
                && msg.contains("f16")
                && msg.contains("rank 1"),
            "diagnostic must name both codecs and the rank: {msg}"
        );
        // The joiner fails too (the roster never arrives).
        assert!(joiner.join().unwrap().is_some());
    }

    #[test]
    fn negotiated_codec_frames_cross_the_mesh() {
        let opts = TcpOpts {
            codec: Codec::Delta,
            ..TcpOpts::default()
        };
        let out = run_tcp_threads(2, opts, |t| {
            let peer = 1 - t.rank();
            let bytes = Codec::Delta.encode_block(
                crate::phase::Phase::ForwardFetch,
                Some(0),
                &[1.0, 2.0, 3.0],
                None,
            );
            t.send(
                peer,
                5,
                Payload::Encoded {
                    codec: Codec::Delta,
                    bytes,
                },
            )
            .unwrap();
            let m = t.recv_any(Duration::from_secs(10)).unwrap();
            matches!(
                m.payload,
                Payload::Encoded {
                    codec: Codec::Delta,
                    ..
                }
            )
        });
        assert!(out[0] && out[1]);
    }

    #[test]
    fn unnegotiated_codec_frame_is_rejected_by_the_reader() {
        // Cluster negotiated raw; a peer ships an int8-coded frame anyway.
        let out = run_tcp_threads(2, TcpOpts::default(), |t| {
            if t.rank() == 1 {
                let bytes = Codec::Int8.encode_block(
                    crate::phase::Phase::ForwardFetch,
                    None,
                    &[1.0; 64],
                    None,
                );
                t.send(
                    0,
                    4,
                    Payload::Encoded {
                        codec: Codec::Int8,
                        bytes,
                    },
                )
                .unwrap();
                std::thread::sleep(Duration::from_millis(300));
                return "sent".to_string();
            }
            match t.recv_any(Duration::from_secs(5)) {
                Err(TransportError::Corrupt { peer: 1, detail }) => {
                    assert!(
                        detail.contains("int8") && detail.contains("raw"),
                        "detail must name both codecs: {detail}"
                    );
                    "rejected".to_string()
                }
                other => format!("unexpected: {other:?}"),
            }
        });
        assert_eq!(out[0], "rejected");
    }

    #[test]
    fn corrupted_encoded_frame_names_the_codec_on_tcp() {
        // Like corrupted_frame_is_rejected_with_checksum_error, but the
        // bit-flipped frame is codec-encoded: the checksum diagnostic must
        // say which codec the frame claimed.
        let rendezvous = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let rdv_addr = rendezvous.local_addr().unwrap();
        let evil = std::thread::spawn(move || {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let my_addr = listener.local_addr().unwrap();
            let mut s = TcpStream::connect(rdv_addr).unwrap();
            send_hello(&mut s, 1, Codec::Delta, my_addr).unwrap();
            let _roster = recv_roster(&mut s, 2).unwrap();
            let (mut data, _) = listener.accept().unwrap();
            let hello = read_frame(&mut data).unwrap();
            assert_eq!(hello.src, 0);
            let bytes = Codec::Delta.encode_block(
                crate::phase::Phase::GradRouting,
                None,
                &[4.0, 5.0],
                None,
            );
            let mut frame = crate::wire::encode_frame(
                FrameKind::Data,
                1,
                9,
                &Payload::Encoded {
                    codec: Codec::Delta,
                    bytes,
                },
            );
            let last = frame.len() - 1;
            frame[last] ^= 0x40;
            data.write_all(&frame).unwrap();
            data.flush().unwrap();
            std::thread::sleep(Duration::from_millis(300));
        });
        let opts = TcpOpts {
            codec: Codec::Delta,
            ..TcpOpts::default()
        };
        let t = TcpTransport::host(rendezvous, 2, opts).unwrap();
        match t.recv_any(Duration::from_secs(5)) {
            Err(TransportError::Corrupt { peer: 1, detail }) => {
                assert!(
                    detail.contains("checksum") && detail.contains("delta"),
                    "detail: {detail}"
                );
            }
            other => panic!("expected checksum rejection, got {other:?}"),
        }
        evil.join().unwrap();
    }

    #[test]
    fn bytes_payload_round_trips_on_the_wire() {
        let out = run_tcp_threads(2, TcpOpts::default(), |t| {
            let peer = 1 - t.rank();
            let blob: Vec<u8> = (0..=255).collect();
            t.send(peer, 3, Payload::Bytes(blob.clone())).unwrap();
            let m = t.recv_any(Duration::from_secs(10)).unwrap();
            m.payload.into_bytes() == blob
        });
        assert!(out[0] && out[1]);
    }
}
