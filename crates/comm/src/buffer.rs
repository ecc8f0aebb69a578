//! A process-wide recycling pool for `f32` block buffers.
//!
//! Every rotation round of Algorithm 1 moves one gathered feature block
//! per peer, and a ~6 MB block that is allocated, page-faulted in and
//! unmapped again per round × layer × epoch costs more than the copy that
//! fills it. Both ends of a block's trip take their buffer here:
//!
//! * **serve side** — `Worker::serve` takes the buffer it gathers rows
//!   into. On TCP the per-peer writer thread returns it once the frame is
//!   on the socket; on the in-process channel backend the vector itself
//!   moves to the receiver, who returns it after consuming the block.
//! * **receive side** — [`wire::read_frame`](crate::wire::read_frame)
//!   takes the buffer it reads an `F32` body into, and whoever consumes
//!   the block (the rotation walker, the gradient router) returns it.
//!
//! One discipline holds the loop closed: **the pool keeps only what it
//! lent**. [`take_f32`] notes the length asked for, and [`recycle_f32`]
//! retains a vector only against such a note, so a return site may be
//! handed buffers that never came from here (the TCP writer also sends
//! gradient blocks and collective operands that kernels allocated) without
//! the pool filling up with sizes nobody will ask for again.
//!
//! The pool is deliberately dumb otherwise: a mutexed list of cleared
//! vectors, capped so a burst cannot pin unbounded memory. A taken buffer
//! is empty — the taker's own writes fill it, so no stale contents can
//! reach a payload and nothing is zeroed only to be overwritten.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Most vectors the pool retains; excess recycles are simply dropped.
const MAX_POOLED: usize = 64;

struct Pool {
    /// Idle buffers, cleared.
    free: Vec<Vec<f32>>,
    /// Takes not yet returned, counted per requested length. Entries
    /// leave at zero; one only stays behind for a taken buffer that is
    /// dropped instead of returned.
    lent: BTreeMap<usize, usize>,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    free: Vec::new(),
    lent: BTreeMap::new(),
});
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLES: AtomicU64 = AtomicU64::new(0);
static RECYCLE_DROPS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide pool counters, as surfaced in the
/// `buffer_pool` object of the run-report JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `take_f32` calls served by a pooled allocation that already holds
    /// the requested length.
    pub hits: u64,
    /// `take_f32` calls the pool could not serve: the caller allocates (or
    /// grows) its own buffer.
    pub misses: u64,
    /// Lent buffers returned and retained by the pool.
    pub recycles: u64,
    /// Lent buffers returned but dropped because the pool was full.
    pub recycle_drops: u64,
}

/// Takes an empty buffer whose capacity already holds `len` elements —
/// the smallest pooled one that does — or `None` on a miss, leaving
/// smaller vectors pooled: the caller then allocates, or (for a length an
/// untrusted frame header merely claims) grows as data arrives. Hit or
/// miss, the take is noted so the filled buffer can come back through
/// [`recycle_f32`].
pub fn take_f32(len: usize) -> Option<Vec<f32>> {
    if len == 0 {
        return Some(Vec::new());
    }
    let mut guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let Pool { free, lent } = &mut *guard;
    *lent.entry(len).or_default() += 1;
    let best = (0..free.len())
        .filter(|&i| free[i].capacity() >= len)
        .min_by_key(|&i| free[i].capacity());
    let counter = if best.is_some() { &HITS } else { &MISSES };
    counter.fetch_add(1, Ordering::Relaxed);
    best.map(|i| free.swap_remove(i))
}

/// Returns a buffer still holding the `len` elements it was taken for.
/// Anything else — a vector the pool never lent, or one whose take has
/// already been answered — is not the pool's and is dropped like any
/// other value. Callable from any thread: the TCP writer threads return
/// sent payloads here.
pub fn recycle_f32(mut v: Vec<f32>) {
    let mut guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let Pool { free, lent } = &mut *guard;
    let Some(outstanding) = lent.get_mut(&v.len()) else {
        return;
    };
    *outstanding -= 1;
    if *outstanding == 0 {
        lent.remove(&v.len());
    }
    if free.len() < MAX_POOLED {
        v.clear();
        free.push(v);
        RECYCLES.fetch_add(1, Ordering::Relaxed);
    } else {
        RECYCLE_DROPS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Full counter snapshot since process start: hits, misses, retained
/// recycles and capacity-dropped recycles.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycles: RECYCLES.load(Ordering::Relaxed),
        recycle_drops: RECYCLE_DROPS.load(Ordering::Relaxed),
    }
}
