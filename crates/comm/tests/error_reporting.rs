//! Error-reporting contract tests: a dead or corrupt cluster must be
//! debuggable from a single worker's log line, so every surfaced error
//! names the peer rank involved and (for integrity failures) the byte
//! sizes that disagreed — on both the channel and the TCP backend.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::tcp::run_tcp_threads;
use sar_comm::wire::{encode_frame, read_frame, Crc32, FrameKind, WIRE_MAX_PAYLOAD};
use sar_comm::{
    ChannelTransport, Clock, Cluster, CostModel, Message, Payload, TcpOpts, TcpTransport,
    Transport, TransportError, WorkerCtx,
};
use sar_core::{gat_aggregate, DistGraph, FakMode, Worker};
use sar_graph::generators::erdos_renyi;
use sar_tensor::{Tensor, Var};

/// The Display contract: `Corrupt` must name the peer rank and pass the
/// decoder's byte-size diagnostic through verbatim.
#[test]
fn corrupt_display_names_peer_rank_and_byte_sizes() {
    let e = TransportError::Corrupt {
        peer: 3,
        detail: "gradient block carried 12 f32s (48 bytes), expected 16 (64 bytes)".into(),
    };
    let msg = e.to_string();
    assert!(msg.contains("rank 3"), "must name the peer rank: {msg}");
    assert!(
        msg.contains("48 bytes") && msg.contains("64 bytes"),
        "must carry both byte sizes: {msg}"
    );
}

/// Channel backend: a receive that times out panics with a message naming
/// the waiting worker, the peer it waited on, and the tag.
#[test]
#[should_panic(expected = "worker 0 waiting on (src=1, tag=99)")]
fn channel_recv_timeout_names_worker_peer_and_tag() {
    let _ = Cluster::new(2, CostModel::default())
        .recv_timeout(Duration::from_millis(100))
        .run(|ctx| {
            if ctx.rank() == 0 {
                // Wait for a message nobody sends.
                let _ = ctx.recv(1, 99);
            }
        });
}

/// TCP backend: the same receive-timeout report, through a `WorkerCtx`
/// running over real sockets.
#[test]
#[should_panic(expected = "worker 0 waiting on (src=1, tag=7)")]
fn tcp_recv_timeout_names_worker_peer_and_tag() {
    let _ = run_tcp_threads(2, TcpOpts::default(), |t| {
        let ctx = WorkerCtx::new(
            Box::new(t),
            CostModel::default(),
            Duration::from_millis(200),
        );
        if ctx.rank() == 0 {
            // Rank 1 exits immediately; nothing ever arrives under tag 7.
            let _ = ctx.recv(1, 7);
        }
    });
}

/// Completes the rendezvous + mesh handshake as a fake rank 1, then runs
/// `frame_bytes` through the returned closure and writes the result to
/// rank 0's data socket.
fn evil_rank_1(
    rdv_addr: std::net::SocketAddr,
    make_frame: impl FnOnce() -> Vec<u8> + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let my_addr = listener.local_addr().unwrap().to_string().into_bytes();
        let mut s = TcpStream::connect(rdv_addr).unwrap();
        // Hello: rank, address length, address.
        let mut hello = Vec::new();
        hello.extend_from_slice(&1u32.to_le_bytes());
        hello.extend_from_slice(&(my_addr.len() as u32).to_le_bytes());
        hello.extend_from_slice(&my_addr);
        s.write_all(&hello).unwrap();
        // Roster: count, then per-entry length-prefixed addresses.
        let mut count = [0u8; 4];
        s.read_exact(&mut count).unwrap();
        for _ in 0..u32::from_le_bytes(count) {
            let mut len = [0u8; 4];
            s.read_exact(&mut len).unwrap();
            let mut addr = vec![0u8; u32::from_le_bytes(len) as usize];
            s.read_exact(&mut addr).unwrap();
        }
        // Rank 0 dials us (lower ranks dial higher) and says hello.
        let (mut data, _) = listener.accept().unwrap();
        let hello = read_frame(&mut data).unwrap();
        assert_eq!(hello.src, 0);
        data.write_all(&make_frame()).unwrap();
        data.flush().unwrap();
        // Hold the socket open so EOF cannot race the bad frame.
        std::thread::sleep(Duration::from_millis(300));
    })
}

/// TCP backend: a frame whose header claims an impossible payload length
/// surfaces `Corrupt` naming the peer rank, the claimed size, and the
/// frame limit — both byte sizes, straight from the decoder.
#[test]
fn tcp_oversized_frame_names_peer_rank_and_byte_sizes() {
    let rendezvous = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let rdv_addr = rendezvous.local_addr().unwrap();
    let evil = evil_rank_1(rdv_addr, || {
        let mut frame = encode_frame(FrameKind::Data, 1, 9, &Payload::Empty);
        // Overwrite the length field (bytes 20..28) with limit + 1.
        frame[20..28].copy_from_slice(&(WIRE_MAX_PAYLOAD + 1).to_le_bytes());
        frame
    });
    let t = TcpTransport::host(rendezvous, 2, TcpOpts::default()).unwrap();
    match t.recv_any(Duration::from_secs(5)) {
        Err(e @ TransportError::Corrupt { peer: 1, .. }) => {
            let msg = e.to_string();
            assert!(msg.contains("rank 1"), "must name the peer rank: {msg}");
            assert!(
                msg.contains(&(WIRE_MAX_PAYLOAD + 1).to_string())
                    && msg.contains(&WIRE_MAX_PAYLOAD.to_string()),
                "must name the claimed size and the frame limit: {msg}"
            );
        }
        other => panic!("expected a corrupt-frame rejection, got {other:?}"),
    }
    evil.join().unwrap();
}

/// TCP backend: a bit-flipped payload surfaces `Corrupt` naming the peer
/// rank and both checksums (sent vs computed).
#[test]
fn tcp_checksum_mismatch_names_peer_rank_and_checksums() {
    let rendezvous = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let rdv_addr = rendezvous.local_addr().unwrap();
    let evil = evil_rank_1(rdv_addr, || {
        let mut frame = encode_frame(FrameKind::Data, 1, 9, &Payload::F32(vec![1.0, 2.0]));
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        frame
    });
    let t = TcpTransport::host(rendezvous, 2, TcpOpts::default()).unwrap();
    match t.recv_any(Duration::from_secs(5)) {
        Err(e @ TransportError::Corrupt { peer: 1, .. }) => {
            let msg = e.to_string();
            assert!(msg.contains("rank 1"), "must name the peer rank: {msg}");
            assert!(
                msg.contains("checksum") && msg.contains("0x"),
                "must show the disagreeing checksums: {msg}"
            );
        }
        other => panic!("expected a checksum rejection, got {other:?}"),
    }
    evil.join().unwrap();
}

/// TCP backend: a frame whose checksum holds but whose reserved header
/// bytes (6 and 7) are set, or whose dtype is the retired encoded block
/// (4), surfaces `Corrupt` naming the peer rank and the header offset.
#[test]
fn tcp_reserved_header_bytes_and_retired_dtype_name_peer_rank_and_offset() {
    for (at, value) in [(6, 1u8), (7, 0x80), (5, 4)] {
        let rendezvous = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let rdv_addr = rendezvous.local_addr().unwrap();
        let evil = evil_rank_1(rdv_addr, move || {
            let mut frame = encode_frame(FrameKind::Data, 1, 9, &Payload::F32(vec![1.0, 2.0]));
            frame[at] = value;
            // Re-seal the checksum so only the edited byte is at fault.
            let mut crc = Crc32::new();
            crc.update(&frame[..28]);
            crc.update(&frame[32..]);
            frame[28..32].copy_from_slice(&crc.finish().to_le_bytes());
            frame
        });
        let t = TcpTransport::host(rendezvous, 2, TcpOpts::default()).unwrap();
        match t.recv_any(Duration::from_secs(5)) {
            Err(e @ TransportError::Corrupt { peer: 1, .. }) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("rank 1") && msg.contains(&format!("offset {at}")),
                    "byte {at} = {value} must name the peer rank and the offset: {msg}"
                );
            }
            other => panic!("byte {at} = {value}: expected a bad header, got {other:?}"),
        }
        evil.join().unwrap();
    }
}

/// A channel transport that drops the last row's worth of floats from the
/// `nth` point-to-point `F32` payload it sends (collectives pass through).
struct TruncatingTransport {
    inner: ChannelTransport,
    countdown: AtomicUsize,
    cut: usize,
}

impl Transport for TruncatingTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn clock(&self) -> Clock {
        self.inner.clock()
    }
    fn send(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        let payload = match payload {
            Payload::F32(mut v)
                if tag < (1 << 62) && self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 =>
            {
                v.truncate(v.len() - self.cut);
                Payload::F32(v)
            }
            other => other,
        };
        self.inner.send(dst, tag, payload)
    }
    fn recv_any(&self, timeout: Duration) -> Result<Message, TransportError> {
        self.inner.recv_any(timeout)
    }
    fn try_recv_any(&self) -> Result<Option<Message>, TransportError> {
        self.inner.try_recv_any()
    }
    fn barrier(&self) -> Result<(), TransportError> {
        self.inner.barrier()
    }
}

/// The rematerializing (GAT) backward pass receives routed gradient
/// blocks through the same fallible, size-checked path as every other
/// block of the rotation: a short block is `Corrupt`, reported under a
/// message naming the receiving rank, the sending peer, and the expected
/// `rows × cols` next to what arrived — never a bare assertion.
#[test]
fn short_gat_gradient_block_names_both_ranks_and_the_expected_shape() {
    const HEADS: usize = 2;
    const WIDTH: usize = 4; // HEADS × head_dim
    let g = erdos_renyi(40, 240, &mut StdRng::seed_from_u64(3)).symmetrize();
    let part = sar_partition::random(&g, 2, 3);
    let graphs: Vec<Arc<DistGraph>> = DistGraph::build_all(&g, &part)
        .into_iter()
        .map(Arc::new)
        .collect();
    let served_rows = graphs[0].serves_to(1).len();
    assert!(served_rows > 1, "fixture must route a multi-row block");

    let handles: Vec<_> = ChannelTransport::mesh(2)
        .into_iter()
        .zip(graphs)
        .map(|(inner, graph)| {
            std::thread::spawn(move || {
                // Rank 1's point-to-point F32 sends, in order: its forward
                // serve, its refetch serve, then the gradient block for
                // the rows it fetched from rank 0 — cut that one short.
                let transport = TruncatingTransport {
                    countdown: AtomicUsize::new(if inner.rank() == 1 { 3 } else { usize::MAX }),
                    cut: WIDTH,
                    inner,
                };
                let ctx = WorkerCtx::new(
                    Box::new(transport),
                    CostModel::default(),
                    Duration::from_millis(500),
                );
                let w = Worker::new(ctx, graph);
                let n = w.graph.num_local();
                let z = Var::parameter(Tensor::full(&[n, WIDTH], 0.5));
                let s_dst = Var::parameter(Tensor::full(&[n, HEADS], 0.1));
                let a_src = Var::parameter(Tensor::full(&[WIDTH], 0.2));
                let agg = gat_aggregate(
                    &w,
                    &w.view(),
                    &z,
                    &s_dst,
                    &a_src,
                    HEADS,
                    0.2,
                    FakMode::Fused,
                )
                .expect("the forward exchange is intact");
                agg.sum().backward();
            })
        })
        .collect();
    let mut outcomes = handles.into_iter().map(std::thread::JoinHandle::join);
    let rank0 = outcomes
        .next()
        .expect("two ranks")
        .expect_err("rank 0 must fail");
    // Rank 1 times out in the parameter all-reduce once rank 0 is gone.
    drop(outcomes.next());
    let msg = rank0
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(
        msg.contains("worker 0"),
        "must name the receiving rank: {msg}"
    );
    assert!(msg.contains("rank 1"), "must name the peer: {msg}");
    let expected = format!(
        "expected {served_rows} rows × {WIDTH} cols = {}",
        served_rows * WIDTH
    );
    assert!(
        msg.contains(&expected) && msg.contains(&format!("has {} f32", (served_rows - 1) * WIDTH)),
        "must carry the expected shape and what arrived: {msg}"
    );
}
