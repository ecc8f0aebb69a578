//! A process-wide recycling pool for `f32` payload buffers.
//!
//! Every rotation round of Algorithm 1 ships one gathered feature block
//! per peer; without reuse that is a fresh `Vec<f32>` allocation per
//! round × layer × epoch on the send side. The pool closes the loop on
//! the TCP backend: the serve path takes a buffer, fills it and sends it,
//! and the per-peer writer thread returns the vector here after the frame
//! hits the socket. On the in-process channel backend the vector moves to
//! the receiver intact (zero-copy), so there is nothing to recycle and
//! `take` simply allocates on a miss.
//!
//! The pool is deliberately dumb: a mutexed stack of vectors, capped so a
//! burst cannot pin unbounded memory. Buffers are handed out fully
//! zeroed-length-adjusted (`resize`), never carrying stale capacity
//! contents into a payload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Most vectors the pool retains; excess recycles are simply dropped.
const MAX_POOLED: usize = 64;

static POOL: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLES: AtomicU64 = AtomicU64::new(0);
static RECYCLE_DROPS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide pool counters, as surfaced in the
/// `buffer_pool` object of the run-report JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `take_f32` calls served from a pooled allocation.
    pub hits: u64,
    /// `take_f32` calls that had to allocate fresh.
    pub misses: u64,
    /// Buffers returned and retained by the pool.
    pub recycles: u64,
    /// Buffers returned but dropped because the pool was full.
    pub recycle_drops: u64,
}

/// Takes a zeroed buffer of exactly `len` elements, reusing a pooled
/// allocation when one with sufficient capacity exists.
pub fn take_f32(len: usize) -> Vec<f32> {
    let reused = {
        let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        // Prefer the last vector with enough capacity; fall back to any.
        match pool.iter().rposition(|v| v.capacity() >= len) {
            Some(i) => Some(pool.swap_remove(i)),
            None => pool.pop(),
        }
    };
    match reused {
        Some(mut v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v.resize(len, 0.0);
            v
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            vec![0.0; len]
        }
    }
}

/// Returns a buffer to the pool (dropped if the pool is full). Callable
/// from any thread — the TCP writer threads recycle sent payloads here.
pub fn recycle_f32(v: Vec<f32>) {
    if v.capacity() == 0 {
        return;
    }
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if pool.len() < MAX_POOLED {
        pool.push(v);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffers_are_reused() {
        let v = take_f32(1000);
        let cap = v.capacity();
        recycle_f32(v);
        let h0 = pool_stats().hits;
        let v2 = take_f32(500);
        assert!(v2.capacity() >= cap.min(1000));
        assert_eq!(v2.len(), 500);
        let h1 = pool_stats().hits;
        assert!(h1 > h0, "second take must be a pool hit");
        recycle_f32(v2);
    }

    #[test]
    fn take_returns_exact_len_and_zeroed_contents() {
        recycle_f32(vec![7.0; 64]);
        let v = take_f32(16);
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|&x| x == 0.0), "pooled buffer not zeroed");
        recycle_f32(v);
        let v = take_f32(128);
        assert_eq!(v.len(), 128);
        assert!(v.iter().all(|&x| x == 0.0));
        recycle_f32(v);
    }

    #[test]
    fn recycle_counters_track_retention() {
        let before = pool_stats();
        recycle_f32(vec![0.0; 8]);
        let after = pool_stats();
        // Either the pool had room (recycles grew) or it was full
        // (recycle_drops grew) — exactly one of the two.
        assert_eq!(
            after.recycles + after.recycle_drops,
            before.recycles + before.recycle_drops + 1
        );
        // Zero-capacity vectors are rejected before either counter.
        recycle_f32(Vec::new());
        let last = pool_stats();
        assert_eq!(
            last.recycles + last.recycle_drops,
            after.recycles + after.recycle_drops
        );
    }
}
