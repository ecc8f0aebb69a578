//! Per-worker communication context: tagged point-to-point messaging.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

use sar_tensor::MemScope;

use crate::message::Payload;
use crate::net::{CommStats, CostModel};
use crate::phase::Phase;
use crate::time::thread_cpu_secs;
use crate::transport::{Clock, Transport, TransportError};

/// Out-of-order arrivals for one `(src, tag)` pair, in arrival order.
type PendingQueue = VecDeque<Payload>;

/// A worker's handle to the cluster.
///
/// Each worker owns exactly one `WorkerCtx`, wrapping one
/// [`Transport`] backend (in-process channels or TCP — the algorithms
/// above never see the difference). Point-to-point messages are tagged;
/// [`WorkerCtx::recv`] matches on `(src, tag)` and buffers out-of-order
/// arrivals, so independent protocols (per-layer feature fetches, gradient
/// pushes, collectives) can interleave safely.
///
/// All traffic is accounted in [`Payload::wire_len`] bytes — raw payload
/// plus the framed-message header — so byte ledgers are identical across
/// backends. Communication *time* follows the backend's [`Clock`]:
/// simulated α–β cost on the channel backend, measured wall-clock
/// blocking time on TCP.
///
/// `WorkerCtx` is intentionally not `Clone`: SAR's algorithms are
/// bulk-synchronous SPMD, one context per worker.
pub struct WorkerCtx {
    transport: Box<dyn Transport>,
    cost: CostModel,
    recv_timeout: Duration,
    stats: Rc<RefCell<CommStats>>,
    pending: RefCell<HashMap<(u32, u64), PendingQueue>>,
    coll_seq: Cell<u64>,
    phase: Cell<Phase>,
    layer: Cell<Option<u16>>,
    // Thread CPU clock at the last phase/layer switch; NaN until the first
    // switch on the worker thread (the context is created on the spawning
    // thread, whose CPU clock is unrelated).
    cpu_mark: Cell<f64>,
    // Wall clock at the last phase/layer switch; None until the first
    // switch, mirroring `cpu_mark`'s warm-up.
    wall_mark: Cell<Option<Instant>>,
}

/// Tags at or above this value are reserved for collectives.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 62;

impl WorkerCtx {
    /// Wraps a transport backend in a worker context.
    ///
    /// `recv_timeout` bounds how long a blocked [`WorkerCtx::recv`] waits
    /// before declaring the protocol dead.
    pub fn new(transport: Box<dyn Transport>, cost: CostModel, recv_timeout: Duration) -> Self {
        let world = transport.world_size();
        WorkerCtx {
            transport,
            cost,
            recv_timeout,
            stats: Rc::new(RefCell::new(CommStats::new(world))),
            pending: RefCell::new(HashMap::new()),
            coll_seq: Cell::new(0),
            phase: Cell::new(Phase::Other),
            layer: Cell::new(None),
            cpu_mark: Cell::new(f64::NAN),
            wall_mark: Cell::new(None),
        }
    }

    /// Allocates the next collective tag. Relies on SPMD execution: all
    /// workers must invoke collectives in the same order.
    pub(crate) fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        COLLECTIVE_TAG_BASE + seq
    }

    /// This worker's rank in `0..world_size`.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of workers in the cluster.
    pub fn world_size(&self) -> usize {
        self.transport.world_size()
    }

    /// How the underlying transport accounts communication time.
    pub fn clock(&self) -> Clock {
        self.transport.clock()
    }

    /// The cluster's α–β cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Snapshot of this worker's communication statistics.
    pub fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    /// A shared handle to the live statistics, readable after the context
    /// has been consumed (used by [`Cluster::run`](crate::Cluster::run)).
    pub fn share_stats(&self) -> Rc<RefCell<CommStats>> {
        Rc::clone(&self.stats)
    }

    /// The phase currently attributed traffic and CPU time.
    pub fn current_phase(&self) -> Phase {
        self.phase.get()
    }

    /// The model layer currently attributed traffic and CPU time, if any.
    pub fn current_layer(&self) -> Option<u16> {
        self.layer.get()
    }

    /// Attributes the thread CPU time elapsed since the last attribution
    /// point to the current `(phase, layer)` cell and restarts the mark.
    /// Scope guards call this on entry and exit, making CPU attribution
    /// *exclusive*: a nested scope's time is charged to the nested cell
    /// only. Call directly before reading [`WorkerCtx::stats`] at a
    /// measurement boundary (e.g. the end of an epoch) so trailing time is
    /// not lost.
    pub fn flush_phase_timing(&self) {
        let now = thread_cpu_secs();
        // sar-check: deterministic(metering: wall/CPU marks feed the
        // phase-timing stats only, never payload bytes or digests)
        let wall_now = Instant::now();
        let mark = self.cpu_mark.get();
        // CPU burned by intra-worker pool helpers since the last flush.
        // Drained unconditionally so a warm-up flush (non-finite mark)
        // discards helper time from before attribution started, exactly as
        // it discards the spawning thread's own CPU time.
        let helper_us = sar_tensor::pool::take_helper_cpu_us();
        if mark.is_finite() {
            let mut s = self.stats.borrow_mut();
            let entry = s.ledger.entry_mut(self.phase.get(), self.layer.get());
            if now > mark {
                entry.cpu_us += (now - mark) * 1e6;
            }
            entry.cpu_us += helper_us;
            if let Some(w) = self.wall_mark.get() {
                entry.wall_us += wall_now.duration_since(w).as_secs_f64() * 1e6;
            }
        }
        self.cpu_mark.set(now);
        self.wall_mark.set(Some(wall_now));
    }

    /// Enters `phase` until the returned guard drops (scopes nest; the
    /// previous phase is restored). While active, every send/receive on a
    /// non-collective tag, all CPU time, and the tensor-memory high-water
    /// mark are attributed to `(phase, current layer)` in the ledger.
    pub fn phase_scope(&self, phase: Phase) -> PhaseScope<'_> {
        self.flush_phase_timing();
        let prev = self.phase.replace(phase);
        PhaseScope {
            ctx: self,
            prev,
            mem: Some(MemScope::begin()),
        }
    }

    /// Attributes traffic and CPU time to model layer `layer` until the
    /// returned guard drops (the previous layer is restored).
    pub fn layer_scope(&self, layer: u16) -> LayerScope<'_> {
        self.layer_scope_opt(Some(layer))
    }

    /// Like [`WorkerCtx::layer_scope`] with an optional layer — used by
    /// backward-pass functions restoring the layer they were recorded
    /// under (which may be none).
    pub fn layer_scope_opt(&self, layer: Option<u16>) -> LayerScope<'_> {
        self.flush_phase_timing();
        let prev = self.layer.replace(layer);
        LayerScope { ctx: self, prev }
    }

    /// The ledger phase a message on `tag` belongs to: collective tags are
    /// classified as [`Phase::Collective`] regardless of the active scope,
    /// everything else goes to the current phase.
    fn traffic_phase(&self, tag: u64) -> Phase {
        if tag >= COLLECTIVE_TAG_BASE {
            Phase::Collective
        } else {
            self.phase.get()
        }
    }

    /// Sends `payload` to worker `dst` under `tag`.
    ///
    /// Sending to self is allowed (the message loops back through the
    /// pending buffer, never touching the transport) but never charged
    /// communication time. Neither backend's `send` blocks on a quiet
    /// network — protocols where every worker sends before receiving
    /// cannot deadlock (TCP can block briefly if a socket buffer fills,
    /// which is backpressure, not a protocol stall).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or the destination worker is gone
    /// (its channel is disconnected / its connection dropped). Callers
    /// that must survive a dead peer use [`WorkerCtx::try_send`].
    pub fn send(&self, dst: usize, tag: u64, payload: Payload) {
        self.try_send(dst, tag, payload).unwrap_or_else(|e| {
            panic!(
                "worker {} sending to (dst={dst}, tag={tag}): {e} — \
                 the destination worker hung up (panicked?)",
                self.rank()
            )
        });
    }

    /// Fallible [`WorkerCtx::send`]: identical byte/message accounting,
    /// but a transport failure comes back as an error instead of a panic,
    /// so the caller can exit its rank cleanly with context.
    ///
    /// The send is ledgered before the transport is touched (mirroring the
    /// panicking path, where the process dies before the ledger could be
    /// read), so a failed send still appears in the sent counters.
    ///
    /// # Errors
    ///
    /// Whatever the transport reports — typically
    /// [`TransportError::Disconnected`].
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range (a programming error, not a
    /// cluster-health condition).
    pub fn try_send(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        if dst >= self.world_size() {
            panic!(
                "worker {}: send destination {dst} out of range for world {}",
                self.rank(),
                self.world_size()
            );
        }
        let bytes = payload.wire_len() as u64;
        {
            let mut s = self.stats.borrow_mut();
            s.sent_bytes[dst] += bytes;
            s.sent_messages += 1;
            let entry = s
                .ledger
                .entry_mut(self.traffic_phase(tag), self.layer.get());
            entry.sent_bytes += bytes;
            entry.wire_sent_bytes += bytes;
            entry.sent_messages += 1;
        }
        if dst == self.rank() {
            self.pending
                .borrow_mut()
                .entry((self.rank() as u32, tag))
                .or_default()
                .push_back(payload);
            return Ok(());
        }
        self.transport.send(dst, tag, payload)
    }

    /// Receives the next payload from `src` under `tag`, blocking until it
    /// arrives. Out-of-order messages for other `(src, tag)` pairs are
    /// buffered.
    ///
    /// Charges this worker's ledger communication time unless
    /// `src == rank`: `alpha + wire_len/beta` of simulated time under
    /// [`Clock::Simulated`], the measured wall-clock time spent blocked on
    /// the transport under [`Clock::Wall`].
    ///
    /// # Panics
    ///
    /// Panics if nothing arrives within the receive timeout (a peer died
    /// or the protocol deadlocked) or the transport reports a peer
    /// failure. Callers that must survive a dead peer use
    /// [`WorkerCtx::try_recv`].
    pub fn recv(&self, src: usize, tag: u64) -> Payload {
        self.try_recv(src, tag).unwrap_or_else(|e| {
            panic!(
                "worker {} waiting on (src={src}, tag={tag}): {e} — \
                 a peer likely panicked, died, or the protocol deadlocked",
                self.rank()
            )
        })
    }

    /// Fallible [`WorkerCtx::recv`]: identical matching, buffering and
    /// ledger accounting, but a timeout or peer failure comes back as an
    /// error instead of a panic, so the caller can exit its rank cleanly
    /// naming what it was waiting for.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] if nothing arrived within the receive
    /// timeout; otherwise whatever the transport reports (disconnect,
    /// corrupt frame, …). Nothing is charged to the ledger on failure.
    pub fn try_recv(&self, src: usize, tag: u64) -> Result<Payload, TransportError> {
        let key = (src as u32, tag);
        let mut blocked_us = 0.0f64;
        let payload = loop {
            // A drained queue leaves the map with its last message: tags
            // are never reused, so an emptied entry would stay for the
            // life of the process.
            if let Entry::Occupied(mut queue) = self.pending.borrow_mut().entry(key) {
                let p = queue.get_mut().pop_front();
                if queue.get().is_empty() {
                    queue.remove();
                }
                if let Some(p) = p {
                    break p;
                }
            }
            // sar-check: deterministic(metering: blocked-time accounting
            // only; the delivered payload is untouched)
            let start = Instant::now();
            let msg = self.transport.recv_any(self.recv_timeout)?;
            blocked_us += start.elapsed().as_secs_f64() * 1e6; // sar-check: deterministic(metering)
            if (msg.src, msg.tag) == key {
                break msg.payload;
            }
            self.pending
                .borrow_mut()
                .entry((msg.src, msg.tag))
                .or_default()
                .push_back(msg.payload);
        };
        self.charge_recv(src, tag, &payload, blocked_us);
        Ok(payload)
    }

    /// Ledgers one received message: its bytes and message count always,
    /// communication time per the backend clock, and the measured parked
    /// time as [`blocked_us`](crate::PhaseEntry::blocked_us). Self-sends
    /// loop through the pending buffer and are never charged.
    // sar-check: deterministic(metering: every accumulation here is a
    // ledger charge counter — bytes, messages, microseconds — charged once
    // per delivery in program order; payload data is never touched)
    fn charge_recv(&self, src: usize, tag: u64, payload: &Payload, blocked_us: f64) {
        if src == self.rank() {
            return;
        }
        let bytes = payload.wire_len() as u64;
        let cost_us = if self.transport.clock() == Clock::Wall {
            blocked_us
        } else {
            self.cost.message_cost_us(bytes as usize)
        };
        let mut s = self.stats.borrow_mut();
        s.recv_bytes += bytes;
        s.comm_us += cost_us;
        let entry = s
            .ledger
            .entry_mut(self.traffic_phase(tag), self.layer.get());
        entry.recv_bytes += bytes;
        entry.wire_recv_bytes += bytes;
        entry.recv_messages += 1;
        entry.comm_us += cost_us;
        entry.blocked_us += blocked_us;
    }

    /// Blocks until all workers have reached the barrier. Barrier traffic
    /// is transport-internal: it appears in no byte ledger on any backend.
    ///
    /// # Panics
    ///
    /// Panics if a peer dies while the barrier is forming. Callers that
    /// must survive a dead peer use [`WorkerCtx::try_barrier`].
    pub fn barrier(&self) {
        self.try_barrier()
            .unwrap_or_else(|e| panic!("worker {} barrier failed: {e}", self.rank()));
    }

    /// Fallible [`WorkerCtx::barrier`]: a peer dying while the barrier is
    /// forming comes back as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Whatever the transport reports (disconnect, timeout, …).
    pub fn try_barrier(&self) -> Result<(), TransportError> {
        self.transport.barrier()
    }
}

/// Guard returned by [`WorkerCtx::phase_scope`]. On drop it flushes CPU
/// attribution, folds the scope's tensor-memory high-water mark into the
/// phase's ledger cell, and restores the previous phase.
#[must_use = "the phase ends when this guard drops"]
pub struct PhaseScope<'a> {
    ctx: &'a WorkerCtx,
    prev: Phase,
    mem: Option<MemScope>,
}

impl Drop for PhaseScope<'_> {
    fn drop(&mut self) {
        self.ctx.flush_phase_timing();
        let peak = self
            .mem
            .take()
            .map(|m| m.finish().peak_bytes as u64)
            .unwrap_or(0);
        {
            let mut s = self.ctx.stats.borrow_mut();
            let entry = s
                .ledger
                .entry_mut(self.ctx.phase.get(), self.ctx.layer.get());
            entry.peak_tensor_bytes = entry.peak_tensor_bytes.max(peak);
        }
        self.ctx.phase.set(self.prev);
    }
}

/// Guard returned by [`WorkerCtx::layer_scope`]. On drop it flushes CPU
/// attribution and restores the previous layer.
#[must_use = "the layer attribution ends when this guard drops"]
pub struct LayerScope<'a> {
    ctx: &'a WorkerCtx,
    prev: Option<u16>,
}

impl Drop for LayerScope<'_> {
    fn drop(&mut self) {
        self.ctx.flush_phase_timing();
        self.ctx.layer.set(self.prev);
    }
}

impl std::fmt::Debug for WorkerCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx")
            .field("rank", &self.rank())
            .field("world", &self.world_size())
            .field("clock", &self.clock())
            .field("phase", &self.phase.get())
            .field("layer", &self.layer.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WIRE_HEADER_LEN;
    use crate::{Cluster, CostModel};

    const H: u64 = WIRE_HEADER_LEN as u64;

    #[test]
    fn traffic_lands_in_the_active_phase() {
        let out = Cluster::new(2, CostModel::default()).run(|ctx| {
            let peer = 1 - ctx.rank();
            {
                let _p = ctx.phase_scope(Phase::ForwardFetch);
                ctx.send(peer, 0, Payload::F32(vec![0.0; 250]));
                let _ = ctx.recv(peer, 0);
            }
            {
                let _p = ctx.phase_scope(Phase::GradRouting);
                ctx.send(peer, 1, Payload::F32(vec![0.0; 125]));
                let _ = ctx.recv(peer, 1);
            }
            ctx.stats()
        });
        for o in &out {
            let fetch = o.result.ledger.phase_total(Phase::ForwardFetch);
            let route = o.result.ledger.phase_total(Phase::GradRouting);
            assert_eq!(fetch.sent_bytes, 1000 + H);
            assert_eq!(fetch.recv_bytes, 1000 + H);
            assert_eq!(fetch.recv_messages, 1);
            assert_eq!(route.sent_bytes, 500 + H);
            assert_eq!(route.recv_bytes, 500 + H);
            // Ledger splits exactly the totals.
            assert_eq!(fetch.sent_bytes + route.sent_bytes, o.result.total_sent());
            assert!((fetch.comm_us + route.comm_us - o.result.comm_us).abs() < 1e-9);
        }
    }

    #[test]
    fn collective_tags_classify_automatically() {
        let out = Cluster::new(2, CostModel::default()).run(|ctx| {
            // Even inside a ForwardFetch scope, collective traffic must be
            // ledgered as Collective.
            let _p = ctx.phase_scope(Phase::ForwardFetch);
            let s = ctx.all_reduce_sum_scalar(1.0);
            assert_eq!(s, 2.0);
            ctx.stats()
        });
        for o in &out {
            let coll = o.result.ledger.phase_total(Phase::Collective);
            assert!(coll.sent_bytes > 0);
            assert_eq!(
                o.result.ledger.phase_total(Phase::ForwardFetch).sent_bytes,
                0
            );
            assert_eq!(coll.sent_bytes, o.result.total_sent());
        }
    }

    #[test]
    fn nested_scopes_restore_and_attribute_exclusively() {
        let out = Cluster::new(1, CostModel::default()).run(|ctx| {
            assert_eq!(ctx.current_phase(), Phase::Other);
            {
                let _outer = ctx.phase_scope(Phase::BackwardRefetch);
                assert_eq!(ctx.current_phase(), Phase::BackwardRefetch);
                {
                    let _inner = ctx.phase_scope(Phase::GradRouting);
                    assert_eq!(ctx.current_phase(), Phase::GradRouting);
                    // Burn CPU inside the inner scope.
                    let mut acc = 0u64;
                    for i in 0..5_000_000u64 {
                        acc = acc.wrapping_add(i * i);
                    }
                    assert!(acc != 1);
                }
                assert_eq!(ctx.current_phase(), Phase::BackwardRefetch);
            }
            assert_eq!(ctx.current_phase(), Phase::Other);
            ctx.stats()
        });
        let ledger = &out[0].result.ledger;
        assert!(ledger.phase_total(Phase::GradRouting).cpu_us > 0.0);
    }

    #[test]
    fn layer_scopes_split_the_ledger_by_layer() {
        let out = Cluster::new(2, CostModel::default()).run(|ctx| {
            let peer = 1 - ctx.rank();
            for layer in 0..2u16 {
                let _l = ctx.layer_scope(layer);
                let _p = ctx.phase_scope(Phase::ForwardFetch);
                ctx.send(
                    peer,
                    layer as u64,
                    Payload::F32(vec![0.0; 100 * (layer as usize + 1)]),
                );
                let _ = ctx.recv(peer, layer as u64);
            }
            assert_eq!(ctx.current_layer(), None);
            ctx.stats()
        });
        for o in &out {
            let l0 = o.result.ledger.get(Phase::ForwardFetch, Some(0));
            let l1 = o.result.ledger.get(Phase::ForwardFetch, Some(1));
            assert_eq!(l0.recv_bytes, 400 + H);
            assert_eq!(l1.recv_bytes, 800 + H);
        }
    }

    #[test]
    fn phase_scope_records_memory_peak() {
        use sar_tensor::Tensor;
        let out = Cluster::new(1, CostModel::default()).run(|ctx| {
            {
                let _p = ctx.phase_scope(Phase::ForwardFetch);
                let t = Tensor::zeros(&[1000, 10]);
                drop(t);
            }
            ctx.stats()
        });
        let peak = out[0]
            .result
            .ledger
            .phase_total(Phase::ForwardFetch)
            .peak_tensor_bytes;
        assert!(peak >= 1000 * 10 * 4, "peak {peak}");
    }

    #[test]
    fn self_sends_count_bytes_but_not_receives() {
        let out = Cluster::new(1, CostModel::default()).run(|ctx| {
            let _p = ctx.phase_scope(Phase::GradRouting);
            ctx.send(0, 0, Payload::F32(vec![0.0; 10]));
            let _ = ctx.recv(0, 0);
            ctx.stats()
        });
        let route = out[0].result.ledger.phase_total(Phase::GradRouting);
        assert_eq!(route.sent_bytes, 40 + H);
        assert_eq!(route.recv_bytes, 0);
        assert_eq!(route.comm_us, 0.0);
    }

    #[test]
    fn tcp_backed_ctx_measures_wall_clock_and_same_bytes() {
        use crate::tcp::{run_tcp_threads, TcpOpts};
        let out = run_tcp_threads(2, TcpOpts::default(), |t| {
            let ctx = WorkerCtx::new(Box::new(t), CostModel::default(), Duration::from_secs(30));
            assert_eq!(ctx.clock(), Clock::Wall);
            let peer = 1 - ctx.rank();
            let _p = ctx.phase_scope(Phase::ForwardFetch);
            ctx.send(peer, 0, Payload::F32(vec![0.0; 250]));
            let _ = ctx.recv(peer, 0);
            ctx.stats()
        });
        for stats in &out {
            let fetch = stats.ledger.phase_total(Phase::ForwardFetch);
            // Byte ledger identical to the sim backend...
            assert_eq!(fetch.sent_bytes, 1000 + H);
            assert_eq!(fetch.recv_bytes, 1000 + H);
            // ...but time is measured, not modeled.
            assert!(stats.comm_us >= 0.0);
        }
    }

    /// Tags are never reused (training allocates them from a counter,
    /// `sar-serve` per batch), so a queue left behind once drained is a
    /// leak for the life of a resident rank.
    #[test]
    fn pending_forgets_a_key_once_its_queue_drains() {
        const ROUNDS: u64 = 200;
        Cluster::new(2, CostModel::default()).run(|ctx| {
            let peer = 1 - ctx.rank();
            for round in 0..ROUNDS {
                // Two tags per round, received in the opposite order: the
                // first arrival is always parked.
                let (a, b) = (2 * round, 2 * round + 1);
                ctx.send(peer, a, Payload::U32(vec![a as u32]));
                ctx.send(peer, b, Payload::U32(vec![b as u32]));
                assert_eq!(ctx.recv(peer, b).into_u32(), [b as u32]);
                assert_eq!(ctx.recv(peer, a).into_u32(), [a as u32]);
                // A self-send parks one message under its own tag.
                let own = 2 * ROUNDS + round;
                ctx.send(ctx.rank(), own, Payload::U32(vec![7]));
                assert_eq!(ctx.recv(ctx.rank(), own).into_u32(), [7]);
            }
            assert_eq!(ctx.pending.borrow().len(), 0, "drained queues stay");
            // Delivery within one (src, tag) is still FIFO, parked or not.
            let (tag, other) = (4 * ROUNDS, 4 * ROUNDS + 1);
            for i in 0..3 {
                ctx.send(peer, tag, Payload::U32(vec![i]));
            }
            ctx.send(peer, other, Payload::U32(vec![9]));
            assert_eq!(ctx.recv(peer, other).into_u32(), [9]);
            for i in 0..3 {
                assert_eq!(ctx.recv(peer, tag).into_u32(), [i]);
            }
            assert!(ctx.pending.borrow().is_empty());
        });
    }
}
