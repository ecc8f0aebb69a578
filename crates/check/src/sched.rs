//! Pass 2: the exhaustive interleaving checker.
//!
//! A loom-style deterministic scheduler: each concurrency model exposes
//! its threads as sequences of *atomic steps* (one step = one critical
//! section or one atomic RMW, exactly the granularity the real code gets
//! from its `Mutex`/`AtomicUsize`), and [`explore`] runs a depth-first
//! search over **every** interleaving of those steps, pruning states it
//! has already visited. Each reached state is checked against the model's
//! invariant; a state where no thread can run but the system is not done
//! is a stall — a deadlock or lost wakeup. Violations come back with the
//! exact thread schedule that produced them, so they reproduce.
//!
//! Three models mirror the workspace's hand-rolled concurrency:
//!
//! * [`BufferPool`] — `sar_comm::buffer`: TCP writer threads recycling
//!   pooled send buffers concurrently with the worker taking them.
//!   Invariant: a buffer is never in the pool twice and never both owned
//!   and pooled (no double-recycle).
//! * [`WriterQueue`] — the bounded TCP writer queue: producer blocks when
//!   full, consumer blocks when empty, close drains. Invariants: FIFO
//!   delivery, nothing lost at close, and no stall (a blocked producer
//!   and blocked consumer at once would be a lost wakeup).
//! * [`ChunkClaim`] — `pool::parallel_for`'s atomic chunk claiming that
//!   makes `SharedSlice` writes disjoint. Invariant: every chunk written
//!   exactly once (no aliased rows, none skipped).
//!
//! Each model carries a `seed_*` switch that injects the bug its
//! invariant exists to catch, so tests can prove the checker actually
//! finds it.

use std::collections::HashSet;
use std::hash::Hash;

use crate::{Finding, PassReport};

/// A small concurrent state machine whose interleavings are explored
/// exhaustively.
pub trait Model {
    /// Global state: thread program counters plus shared memory. Must be
    /// hashable so visited states are pruned.
    type State: Clone + Eq + Hash;

    /// Model name used in report locations.
    fn name(&self) -> &'static str;
    /// The initial state.
    fn init(&self) -> Self::State;
    /// Number of threads.
    fn threads(&self) -> usize;
    /// Whether thread `t` can take its next atomic step in `state`. A
    /// thread that has finished is not enabled.
    fn enabled(&self, state: &Self::State, t: usize) -> bool;
    /// Executes thread `t`'s next atomic step. Only called when enabled.
    fn step(&self, state: &mut Self::State, t: usize);
    /// Whether every thread has run to completion.
    fn done(&self, state: &Self::State) -> bool;
    /// The safety invariant, checked at every reached state; `Err`
    /// describes the violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    fn check(&self, state: &Self::State) -> Result<(), String>;
}

/// Outcome of exhaustively exploring one model.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Distinct states reached.
    pub states: u64,
    /// Complete interleavings (paths reaching `done`).
    pub complete_runs: u64,
    /// Violations, each with the schedule that produced it.
    pub findings: Vec<Finding>,
}

/// Explores every interleaving of `model` (bounded by `max_steps` per
/// path as a runaway backstop) and returns what it found. The search is
/// depth-first with visited-state pruning, so it terminates on any
/// finite-state model and still covers *all* reachable states.
#[must_use]
pub fn explore<M: Model>(model: &M, max_steps: usize) -> Exploration {
    let mut result = Exploration {
        states: 0,
        complete_runs: 0,
        findings: Vec::new(),
    };
    let mut visited: HashSet<M::State> = HashSet::new();
    // DFS stack of (state, schedule-so-far).
    let mut stack: Vec<(M::State, Vec<usize>)> = vec![(model.init(), Vec::new())];

    while let Some((state, trace)) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        result.states += 1;

        if let Err(violation) = model.check(&state) {
            result.findings.push(Finding {
                rule: "invariant".into(),
                location: format!("{} after schedule {trace:?}", model.name()),
                message: violation,
            });
            // Don't explore past a broken state — its successors would
            // re-report the same root cause.
            continue;
        }

        if model.done(&state) {
            result.complete_runs += 1;
            continue;
        }

        if trace.len() >= max_steps {
            result.findings.push(Finding {
                rule: "bounded-depth".into(),
                location: format!("{} after schedule {trace:?}", model.name()),
                message: format!("path exceeded {max_steps} steps without completing"),
            });
            continue;
        }

        let enabled: Vec<usize> = (0..model.threads())
            .filter(|&t| model.enabled(&state, t))
            .collect();
        if enabled.is_empty() {
            result.findings.push(Finding {
                rule: "no-stall".into(),
                location: format!("{} after schedule {trace:?}", model.name()),
                message: "no thread can make progress but the system is not done \
                          (deadlock or lost wakeup)"
                    .into(),
            });
            continue;
        }
        for t in enabled {
            let mut next = state.clone();
            model.step(&mut next, t);
            let mut next_trace = trace.clone();
            next_trace.push(t);
            stack.push((next, next_trace));
        }
    }
    result
}

// ---------------------------------------------------------------------
// Model 1: the recycled buffer pool.
// ---------------------------------------------------------------------

/// Models `sar_comm::buffer`: `recyclers` threads (the TCP writer
/// threads) each recycle one distinct buffer into the shared pool while a
/// taker thread takes `takes` buffers. Every pool operation is one atomic
/// step, matching the real code's single `Mutex` around the pool.
#[derive(Debug, Clone)]
pub struct BufferPool {
    /// Writer threads recycling one buffer each.
    pub recyclers: usize,
    /// Buffers the taker thread takes.
    pub takes: usize,
    /// Pool capacity (`MAX_POOLED` in the real code).
    pub capacity: usize,
    /// Seed the double-recycle bug: each recycler recycles its buffer
    /// *twice* (as if a writer thread recycled a buffer it no longer
    /// owned). The invariant must catch it.
    pub seed_double_recycle: bool,
}

/// State of [`BufferPool`]: which buffers sit in the pool, how far each
/// thread has progressed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BufferPoolState {
    /// Buffer ids currently in the pool (push/pop order preserved).
    pool: Vec<usize>,
    /// Per-recycler progress: how many recycle calls it has made (0, 1,
    /// or 2 when seeded).
    recycled: Vec<u8>,
    /// Buffers the taker has taken so far.
    taken: u8,
}

impl Model for BufferPool {
    type State = BufferPoolState;

    fn name(&self) -> &'static str {
        "buffer-pool"
    }

    fn init(&self) -> BufferPoolState {
        BufferPoolState {
            pool: Vec::new(),
            recycled: vec![0; self.recyclers],
            taken: 0,
        }
    }

    fn threads(&self) -> usize {
        // Recyclers plus the taker.
        self.recyclers + 1
    }

    fn enabled(&self, s: &BufferPoolState, t: usize) -> bool {
        if t < self.recyclers {
            let target: u8 = if self.seed_double_recycle { 2 } else { 1 };
            s.recycled[t] < target
        } else {
            // The taker never blocks: an empty pool means a fresh
            // allocation (a pool miss), exactly like `take_f32`.
            (s.taken as usize) < self.takes
        }
    }

    fn step(&self, s: &mut BufferPoolState, t: usize) {
        if t < self.recyclers {
            s.recycled[t] += 1;
            // `recycle_f32` drops the buffer when the pool is full.
            if s.pool.len() < self.capacity {
                s.pool.push(t);
            }
        } else {
            s.taken += 1;
            // Pool hit pops; a miss allocates fresh (no state change).
            s.pool.pop();
        }
    }

    fn done(&self, s: &BufferPoolState) -> bool {
        (0..self.threads()).all(|t| !self.enabled(s, t))
    }

    fn check(&self, s: &BufferPoolState) -> Result<(), String> {
        for (i, &id) in s.pool.iter().enumerate() {
            if s.pool[i + 1..].contains(&id) {
                return Err(format!(
                    "buffer {id} is in the pool twice (double-recycle): pool={:?}",
                    s.pool
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Model 2: the bounded writer queue.
// ---------------------------------------------------------------------

/// Models a TCP peer's bounded writer queue (`sync_channel` in
/// `tcp.rs`): the sender thread enqueues `items` frames then closes; the
/// writer thread dequeues until the queue is closed *and* drained. Steps
/// are atomic queue operations (the channel's internal lock).
#[derive(Debug, Clone)]
pub struct WriterQueue {
    /// Frames the producer sends before closing.
    pub items: usize,
    /// Queue bound (`WRITER_QUEUE` in `tcp.rs`).
    pub capacity: usize,
    /// Seed the drain bug: the consumer exits as soon as it observes
    /// `closed`, even with frames still queued — frames are lost.
    pub seed_drop_on_close: bool,
}

/// State of [`WriterQueue`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WriterQueueState {
    /// Frames in the queue (by sequence number).
    queue: Vec<u8>,
    /// Frames produced so far.
    produced: u8,
    /// Whether the producer has closed the queue.
    closed: bool,
    /// Frames consumed, in consumption order.
    consumed: Vec<u8>,
    /// Whether the consumer has exited.
    consumer_exited: bool,
}

impl Model for WriterQueue {
    type State = WriterQueueState;

    fn name(&self) -> &'static str {
        "writer-queue"
    }

    fn init(&self) -> WriterQueueState {
        WriterQueueState {
            queue: Vec::new(),
            produced: 0,
            closed: false,
            consumed: Vec::new(),
            consumer_exited: false,
        }
    }

    fn threads(&self) -> usize {
        2
    }

    fn enabled(&self, s: &WriterQueueState, t: usize) -> bool {
        match t {
            // Producer: send while below capacity, then close once.
            0 => {
                if (s.produced as usize) < self.items {
                    s.queue.len() < self.capacity
                } else {
                    !s.closed
                }
            }
            // Consumer: pop when non-empty; observe close when empty.
            _ => {
                if s.consumer_exited {
                    false
                } else if self.seed_drop_on_close && s.closed {
                    // Seeded bug: ready to bail out regardless of queue
                    // contents.
                    true
                } else {
                    !s.queue.is_empty() || s.closed
                }
            }
        }
    }

    fn step(&self, s: &mut WriterQueueState, t: usize) {
        match t {
            0 => {
                if (s.produced as usize) < self.items {
                    s.queue.push(s.produced);
                    s.produced += 1;
                } else {
                    s.closed = true;
                }
            }
            _ => {
                if self.seed_drop_on_close && s.closed {
                    s.consumer_exited = true;
                } else if s.queue.is_empty() {
                    // Closed and drained: exit.
                    s.consumer_exited = true;
                } else {
                    s.consumed.push(s.queue.remove(0));
                }
            }
        }
    }

    fn done(&self, s: &WriterQueueState) -> bool {
        s.closed && s.consumer_exited
    }

    fn check(&self, s: &WriterQueueState) -> Result<(), String> {
        // FIFO: consumed sequence numbers are 0, 1, 2, …
        for (i, &seq) in s.consumed.iter().enumerate() {
            if seq as usize != i {
                return Err(format!(
                    "frames reordered: consumed {:?}, expected FIFO",
                    s.consumed
                ));
            }
        }
        // Nothing lost at close: once the consumer exits, every produced
        // frame must have been consumed.
        if s.consumer_exited && s.consumed.len() != self.items {
            return Err(format!(
                "writer exited with {} of {} frames delivered ({} lost in the queue)",
                s.consumed.len(),
                self.items,
                self.items - s.consumed.len()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Model 3: atomic chunk claiming over a SharedSlice.
// ---------------------------------------------------------------------

/// Models `pool::parallel_for`'s dispatch: `threads` workers claim chunk
/// indices from a shared counter and write disjoint ranges of a
/// `SharedSlice`. With `seed_racy_claim`, the claim is split into a
/// non-atomic read + write-back pair — the textbook lost-update race —
/// and the aliased-write invariant must catch two threads writing one
/// chunk.
#[derive(Debug, Clone)]
pub struct ChunkClaim {
    /// Worker threads.
    pub threads: usize,
    /// Chunks to claim and write.
    pub chunks: usize,
    /// Seed the race: claim via separate load and store instead of one
    /// atomic fetch-add.
    pub seed_racy_claim: bool,
}

/// State of [`ChunkClaim`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChunkClaimState {
    /// The shared claim counter (`Dispatch.next`).
    next: u8,
    /// How many times each chunk has been written.
    written: Vec<u8>,
    /// Per-thread: claim loaded but not yet stored back (seeded mode).
    loaded: Vec<Option<u8>>,
    /// Per-thread: finished.
    finished: Vec<bool>,
}

impl Model for ChunkClaim {
    type State = ChunkClaimState;

    fn name(&self) -> &'static str {
        "chunk-claim"
    }

    fn init(&self) -> ChunkClaimState {
        ChunkClaimState {
            next: 0,
            written: vec![0; self.chunks],
            loaded: vec![None; self.threads],
            finished: vec![false; self.threads],
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn enabled(&self, s: &ChunkClaimState, t: usize) -> bool {
        !s.finished[t]
    }

    fn step(&self, s: &mut ChunkClaimState, t: usize) {
        if self.seed_racy_claim {
            match s.loaded[t] {
                // Step A of the seeded race: load the counter.
                None => {
                    if (s.next as usize) < self.chunks {
                        s.loaded[t] = Some(s.next);
                    } else {
                        s.finished[t] = true;
                    }
                }
                // Step B: store back the increment and write the chunk —
                // another thread may have loaded the same value between A
                // and B.
                Some(claim) => {
                    s.next = claim + 1;
                    s.written[claim as usize] += 1;
                    s.loaded[t] = None;
                }
            }
        } else {
            // One atomic fetch-add claims the chunk; the subsequent write
            // is to a range no other thread can claim.
            if (s.next as usize) < self.chunks {
                let claim = s.next;
                s.next += 1;
                s.written[claim as usize] += 1;
            } else {
                s.finished[t] = true;
            }
        }
    }

    fn done(&self, s: &ChunkClaimState) -> bool {
        s.finished.iter().all(|&f| f)
    }

    fn check(&self, s: &ChunkClaimState) -> Result<(), String> {
        if let Some(chunk) = s.written.iter().position(|&w| w > 1) {
            return Err(format!(
                "chunk {chunk} written {} times — two threads claimed the same \
                 SharedSlice range (aliased row writes)",
                s.written[chunk]
            ));
        }
        if self.done(s) {
            if let Some(chunk) = s.written.iter().position(|&w| w == 0) {
                return Err(format!("chunk {chunk} never written"));
            }
        }
        Ok(())
    }
}

/// Runs all three production models exhaustively and folds the results
/// into one [`PassReport`].
#[must_use]
pub fn check_all() -> PassReport {
    let mut report = PassReport::new("sched");
    let pool = BufferPool {
        recyclers: 3,
        takes: 3,
        capacity: 2,
        seed_double_recycle: false,
    };
    let queue = WriterQueue {
        items: 4,
        capacity: 2,
        seed_drop_on_close: false,
    };
    let claim = ChunkClaim {
        threads: 3,
        chunks: 4,
        seed_racy_claim: false,
    };
    for exploration in [explore(&pool, 64), explore(&queue, 64), explore(&claim, 64)] {
        report.bump("states_explored", exploration.states);
        report.bump("complete_interleavings", exploration.complete_runs);
        report.findings.extend(exploration.findings);
    }
    report.bump("models_checked", 3);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_models_are_clean() {
        let report = check_all();
        assert!(report.clean(), "sched found: {:#?}", report.findings);
        let states = report
            .stats
            .iter()
            .find(|(name, _)| name == "states_explored")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(states > 100, "suspiciously small exploration: {states}");
    }

    #[test]
    fn seeded_double_recycle_is_caught_with_schedule() {
        let model = BufferPool {
            recyclers: 2,
            takes: 2,
            capacity: 4,
            seed_double_recycle: true,
        };
        let result = explore(&model, 64);
        let finding = result
            .findings
            .iter()
            .find(|f| f.message.contains("double-recycle"))
            .expect("double-recycle must be caught");
        assert!(
            finding.location.contains("schedule"),
            "finding should carry the reproducing schedule: {finding}"
        );
    }

    #[test]
    fn seeded_drop_on_close_loses_frames() {
        let model = WriterQueue {
            items: 3,
            capacity: 2,
            seed_drop_on_close: true,
        };
        let result = explore(&model, 64);
        assert!(
            result.findings.iter().any(|f| f.message.contains("lost")),
            "lost frames must be caught: {:#?}",
            result.findings
        );
    }

    #[test]
    fn seeded_racy_claim_aliases_chunks() {
        let model = ChunkClaim {
            threads: 2,
            chunks: 2,
            seed_racy_claim: true,
        };
        let result = explore(&model, 64);
        assert!(
            result
                .findings
                .iter()
                .any(|f| f.message.contains("aliased")),
            "aliased writes must be caught: {:#?}",
            result.findings
        );
    }

    #[test]
    fn exploration_visits_multiple_interleavings() {
        let model = WriterQueue {
            items: 2,
            capacity: 1,
            seed_drop_on_close: false,
        };
        let result = explore(&model, 64);
        assert!(result.findings.is_empty());
        assert!(result.complete_runs >= 1);
        assert!(result.states > 5);
    }
}
