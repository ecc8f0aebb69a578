//! A small scoped thread pool for intra-worker kernel parallelism.
//!
//! SAR's workers are single processes that should use every core of
//! their socket (the paper's baselines lean on intra-socket parallelism).
//! This pool parallelizes kernels over *output rows*: [`parallel_for`]
//! splits `0..n` into contiguous chunks and each chunk — and therefore
//! each output row — is processed by exactly one thread. Because every
//! row's reduction runs the same code in the same order regardless of how
//! rows are assigned to threads, results are **bitwise identical** across
//! thread counts (asserted by the kernel parity tests in `sar-graph`).
//!
//! The pool is deliberately thread-local: each simulated worker thread
//! (or each `sar-worker` process) owns its own helpers, sized by
//! [`set_threads`], so workers never share a pool and the per-thread
//! memory tracker in [`crate::memory`] stays coherent. Helper threads
//! must never construct [`Tensor`](crate::Tensor)s — kernels hand them
//! row ranges of pre-allocated buffers via [`split_rows`].
//!
//! Helper CPU time is metered with the per-thread CPU clock and
//! accumulated on the dispatching thread; the observability layer drains
//! it with [`take_helper_cpu_us`] and folds it into the phase ledger's
//! `cpu_us`, while the separately recorded wall time exposes the
//! parallel speedup (`cpu_us / wall_us`).

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Thread count configured for the calling thread (1 = sequential).
    static CONFIGURED: Cell<usize> = const { Cell::new(1) };
    /// The calling thread's helper pool, present when `CONFIGURED > 1`.
    static POOL: RefCell<Option<Pool>> = const { RefCell::new(None) };
    /// `true` while the calling thread is inside a `parallel_for` body;
    /// nested calls then run inline (the helpers are already busy).
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// Helper CPU nanoseconds accumulated on behalf of this thread since
    /// the last [`take_helper_cpu_us`].
    static HELPER_CPU_NS: Cell<u64> = const { Cell::new(0) };
}

/// Sets the number of threads (including the caller) that kernels
/// dispatched **from the calling thread** may use. `1` (the default)
/// tears the pool down and runs everything inline. Idempotent.
pub fn set_threads(n: usize) {
    let n = n.max(1);
    CONFIGURED.with(|c| c.set(n));
    POOL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let have = slot.as_ref().map_or(1, |p| p.helpers.len() + 1);
        if have != n {
            *slot = if n == 1 { None } else { Some(Pool::new(n - 1)) };
        }
    });
}

/// The thread count configured for the calling thread.
pub fn threads() -> usize {
    CONFIGURED.with(Cell::get)
}

/// Drains the helper CPU microseconds accumulated on behalf of the
/// calling thread since the previous call. The phase ledger adds this to
/// its own thread-CPU delta so `cpu_us` counts *total* compute.
pub fn take_helper_cpu_us() -> f64 {
    HELPER_CPU_NS.with(|c| c.replace(0)) as f64 / 1e3
}

/// Runs `f(lo, hi)` over disjoint sub-ranges covering `0..n`, possibly
/// concurrently on the calling thread plus its pool helpers.
///
/// Chunks are contiguous and at least `grain` items long, so with
/// `n <= grain` (or a thread count of 1, or when called from inside
/// another `parallel_for` body) the call degenerates to the inline
/// `f(0, n)` — the exact sequential loop. Row-parallel kernels rely on
/// this: any output row is written by exactly one invocation of `f`, and
/// each invocation performs the same per-row work as the sequential
/// path, so results do not depend on the thread count.
///
/// `f` must not construct tensors (helper threads have their own memory
/// tracker) and must not panic-recover across rows; a panic in any chunk
/// is re-raised on the calling thread after all helpers have quiesced.
pub fn parallel_for<F>(n: usize, grain: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let inline = CONFIGURED.with(Cell::get) <= 1
        || n <= grain.max(1)
        || IN_PARALLEL.with(Cell::get)
        || POOL.with(|slot| slot.borrow().is_none());
    if inline {
        f(0, n);
        return;
    }
    POOL.with(|slot| {
        let slot = slot.borrow();
        // Checked non-None above; set_threads cannot run concurrently on
        // this thread.
        let pool = slot.as_ref().expect("pool torn down mid-dispatch");
        let workers = pool.helpers.len() + 1;
        // Up to 4 chunks per worker so stragglers (skewed row degrees)
        // rebalance, but never chunks shorter than `grain`.
        let chunk = n.div_ceil(workers * 4).max(grain.max(1));
        // SAFETY: lifetime erasure only — the `WaitGuard` below blocks
        // (even on unwind) until every helper has left `f`, so the
        // `'static` reference never outlives the borrow it was cast from.
        let f_erased: &'static (dyn Fn(usize, usize) + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                &'static (dyn Fn(usize, usize) + Sync),
            >(&f)
        };
        let dispatch = Arc::new(Dispatch {
            f: f_erased,
            n,
            chunk,
            next: AtomicUsize::new(0),
            remaining: Mutex::new(pool.helpers.len()),
            done: Condvar::new(),
            helper_cpu_ns: AtomicU64::new(0),
            panicked: Mutex::new(None),
        });
        for _ in &pool.helpers {
            let d = Arc::clone(&dispatch);
            pool.submit(Box::new(move || d.run_as_helper()));
        }
        let guard = WaitGuard(&dispatch);
        IN_PARALLEL.with(|c| c.set(true));
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch.run_chunks();
        }));
        IN_PARALLEL.with(|c| c.set(false));
        drop(guard); // blocks until every helper finished its chunks
        HELPER_CPU_NS.with(|c| {
            c.set(
                c.get()
                    .saturating_add(dispatch.helper_cpu_ns.load(Ordering::Acquire)),
            )
        });
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        let helper_panic = lock_ignore_poison(&dispatch.panicked).take();
        if let Some(payload) = helper_panic {
            std::panic::resume_unwind(payload);
        }
    });
}

/// One `parallel_for` call's shared work-stealing state. The `'static`
/// on `f` is a lie told by `parallel_for` and backed by its `WaitGuard`:
/// no helper touches `f` after the dispatching frame unwinds.
struct Dispatch {
    f: &'static (dyn Fn(usize, usize) + Sync),
    n: usize,
    chunk: usize,
    next: AtomicUsize,
    remaining: Mutex<usize>,
    done: Condvar,
    helper_cpu_ns: AtomicU64,
    panicked: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Dispatch {
    fn run_chunks(&self) {
        let f = self.f;
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            let lo = c * self.chunk;
            if lo >= self.n {
                return;
            }
            f(lo, (lo + self.chunk).min(self.n));
        }
    }

    fn run_as_helper(&self) {
        let t0 = thread_cpu_ns();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_chunks()));
        self.helper_cpu_ns
            .fetch_add(thread_cpu_ns().saturating_sub(t0), Ordering::Release);
        if let Err(payload) = outcome {
            lock_ignore_poison(&self.panicked).get_or_insert(payload);
        }
        let mut rem = lock_ignore_poison(&self.remaining);
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }
}

/// Blocks until every helper has left `f`, *even if the caller's own
/// chunk panicked* — otherwise unwinding would drop `f` while helpers
/// still hold the lifetime-erased pointer to it.
struct WaitGuard<'a>(&'a Dispatch);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        let mut rem = lock_ignore_poison(&self.0.remaining);
        while *rem > 0 {
            rem = self.0.done.wait(rem).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The calling thread's CPU clock in nanoseconds (monotonic fallback off
/// Linux) — mirrors `sar_comm::time::thread_cpu_secs`, which lives above
/// this crate in the dependency order.
fn thread_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = libc::timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, initialized timespec on this frame and
        // `clock_gettime` writes only into it; the return code is checked.
        // sar-check: deterministic(metering: per-thread CPU clock feeds the
        // pool's timing stats only, never tensor data)
        let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    use std::time::{SystemTime, UNIX_EPOCH};
    // sar-check: deterministic(metering: wall-clock fallback for the same
    // timing stats when the thread CPU clock is unavailable)
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Persistent helper threads fed through one shared queue.
struct Pool {
    sender: Option<Sender<Job>>,
    helpers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(helpers: usize) -> Pool {
        // sar-check: allow(no-unbounded-channel) — the job queue holds at
        // most one dispatch per helper (submit is called once per helper
        // per parallel_for), so it is bounded by construction.
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let helpers = (0..helpers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("sar-pool-{i}"))
                    .spawn(move || helper_main(&rx))
                    .expect("spawning pool helper thread")
            })
            .collect();
        Pool {
            sender: Some(tx),
            helpers,
        }
    }

    fn submit(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool sender present until drop")
            .send(job)
            .expect("pool helper threads outlive the sender");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.sender.take(); // closes the queue; helpers drain and exit
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

fn helper_main(rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let rx = lock_ignore_poison(rx);
            rx.recv()
        };
        match job {
            Ok(job) => job(),
            Err(_) => return, // pool dropped
        }
    }
}

/// One output buffer of a [`split_rows`] call, and the way rows own it.
pub struct Output<'a> {
    data: SharedSlice<'a>,
    width: usize,
    /// `Some(ptr)` for an edge-owned buffer.
    ptr: Option<&'a [usize]>,
}

impl<'a> Output<'a> {
    /// A `[n, width]` buffer: row `r` owns elements
    /// `r·width..(r + 1)·width`.
    pub fn row_owned(data: &'a mut [f32], width: usize) -> Self {
        Output {
            data: SharedSlice::new(data),
            width,
            ptr: None,
        }
    }

    /// A `[ptr[n], width]` buffer laid out by a CSR pointer array: row `r`
    /// owns the `width`-wide entries `ptr[r]..ptr[r + 1]` (its edges).
    pub fn edge_owned(data: &'a mut [f32], ptr: &'a [usize], width: usize) -> Self {
        Output {
            data: SharedSlice::new(data),
            width,
            ptr: Some(ptr),
        }
    }

    /// Element offset at which row `r`'s share starts (`r == n`: where the
    /// last one ends).
    fn offset(&self, r: usize) -> usize {
        self.ptr.map_or(r, |p| p[r]) * self.width
    }

    /// Panics unless `offset` is monotone over `0..=n` and ends exactly at
    /// the buffer's length — what [`split_rows`]'s `unsafe` relies on.
    fn check(&self, n: usize) {
        let entries = match self.ptr {
            None => n,
            Some(ptr) => {
                assert_eq!(ptr.len(), n + 1, "pointer array must have n + 1 entries");
                assert!(
                    ptr[0] == 0 && ptr.windows(2).all(|w| w[0] <= w[1]),
                    "pointer array must start at 0 and be monotone"
                );
                ptr[n]
            }
        };
        assert_eq!(
            entries.checked_mul(self.width),
            Some(self.data.len),
            "output length must be {entries} x {}",
            self.width
        );
    }
}

/// Runs `body(lo, hi, parts)` over disjoint row ranges covering `0..n` on
/// the pool ([`parallel_for`] with grain 1), where `parts[k]` is exactly
/// the share of `outs[k]` that rows `lo..hi` own — the safe form of the
/// one-writer-per-row discipline every row-parallel kernel follows. A
/// chunk's share of an output is contiguous because rows are (row-owned:
/// fixed stride; edge-owned: a row's edges are contiguous in CSR order and
/// rows ascend), so it is one sub-slice, and the body carves single rows
/// out of it by plain indexing relative to `lo`.
///
/// Hot bodies are `move` closures over `Copy` captures: a slice held in
/// the closure's own environment stays in registers across the opaque
/// SIMD / `expf` calls of a per-edge loop, while one reached through a
/// captured reference is reloaded after every call (−10 % … +20 % on the
/// fused attention kernels at the benchmark's shapes).
///
/// # Panics
///
/// Panics, before any body runs, if an output's length does not match its
/// declared shape or a pointer array is not `n + 1` monotone entries
/// starting at 0.
pub fn split_rows<const K: usize>(
    n: usize,
    outs: [Output<'_>; K],
    body: impl Fn(usize, usize, [&mut [f32]; K]) + Sync,
) {
    for out in &outs {
        out.check(n);
    }
    parallel_for(n, 1, |lo, hi| {
        let parts = std::array::from_fn(|k| {
            let out = &outs[k];
            // SAFETY: `parallel_for` (this module) runs its closure on
            // chunks `lo..hi` that are pairwise disjoint and cover `0..n`
            // (each chunk index is claimed once; the inline call is `0..n`).
            // `offset` is monotone for both shapes (`r·width`; `ptr[r]·width`
            // with `ptr` checked non-decreasing), so disjoint chunks map to
            // disjoint element ranges inside the checked length, and
            // distinct outputs are distinct `&mut` borrows: no element is
            // reachable from two chunks, nor can `body` retain a part.
            unsafe { out.data.range_mut(out.offset(lo), out.offset(hi)) }
        });
        body(lo, hi, parts);
    });
}

/// A `Send + Sync` view of a mutable buffer whose **disjoint** ranges are
/// written concurrently by the chunks of one [`split_rows`] call.
struct SharedSlice<'a> {
    ptr: *mut f32,
    len: usize,
    _life: PhantomData<&'a mut [f32]>,
}

// SAFETY: SharedSlice is a raw view of a `&mut [f32]` whose concurrent
// writers take disjoint ranges (the `range_mut` contract), so sending the
// view or sharing it across parallel_for chunks never aliases an element.
unsafe impl Send for SharedSlice<'_> {}
// SAFETY: as above — &SharedSlice only exposes `range_mut`, whose
// disjointness contract is what makes cross-thread sharing sound.
unsafe impl Sync for SharedSlice<'_> {}

impl<'a> SharedSlice<'a> {
    fn new(data: &'a mut [f32]) -> SharedSlice<'a> {
        SharedSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _life: PhantomData,
        }
    }

    /// The mutable sub-slice `lo..hi`.
    ///
    /// # Safety
    ///
    /// Concurrent callers must request disjoint ranges; the borrow is
    /// unchecked aliasing-wise (bounds are asserted).
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's contract
    unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [f32] {
        assert!(
            lo <= hi && hi <= self.len,
            "range {lo}..{hi} of {}",
            self.len
        );
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_when_single_threaded() {
        set_threads(1);
        let mut out = vec![0.0f32; 16];
        split_rows(16, [Output::row_owned(&mut out, 1)], |lo, hi, [rows]| {
            assert_eq!((lo, hi), (0, 16), "one inline call over the whole range");
            for (k, r) in rows.iter_mut().enumerate() {
                *r = (lo + k) as f32;
            }
        });
        assert_eq!(out, (0..16).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn pool_covers_every_index_exactly_once() {
        set_threads(4);
        let n = 10_007;
        let mut out = vec![0.0f32; n];
        split_rows(n, [Output::row_owned(&mut out, 1)], |lo, _hi, [rows]| {
            for (k, r) in rows.iter_mut().enumerate() {
                *r += (lo + k) as f32 + 1.0;
            }
        });
        set_threads(1);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 + 1.0, "index {i} written wrongly");
        }
    }

    #[test]
    fn edge_owned_parts_follow_the_pointer_array() {
        // Rows 0..4 own 2, 0, 3 and 1 entries of width 2; the row-owned
        // twin has width 3. Every chunk must see exactly its rows' share
        // of both, whatever the chunking.
        let ptr = [0usize, 2, 2, 5, 6];
        for threads in [1, 4] {
            set_threads(threads);
            let mut edges = vec![0.0f32; 6 * 2];
            let mut rows = vec![0.0f32; 4 * 3];
            split_rows(
                4,
                [
                    Output::edge_owned(&mut edges, &ptr, 2),
                    Output::row_owned(&mut rows, 3),
                ],
                |lo, hi, [e, r]| {
                    assert_eq!(e.len(), (ptr[hi] - ptr[lo]) * 2);
                    assert_eq!(r.len(), (hi - lo) * 3);
                    for i in lo..hi {
                        e[(ptr[i] - ptr[lo]) * 2..(ptr[i + 1] - ptr[lo]) * 2].fill(i as f32 + 1.0);
                        r[(i - lo) * 3..(i - lo + 1) * 3].fill(i as f32 + 1.0);
                    }
                },
            );
            set_threads(1);
            assert_eq!(edges, [1., 1., 1., 1., 3., 3., 3., 3., 3., 3., 4., 4.]);
            assert_eq!(rows, [1., 1., 1., 2., 2., 2., 3., 3., 3., 4., 4., 4.]);
        }
    }

    #[test]
    fn grain_forces_inline_for_small_inputs() {
        set_threads(4);
        let hits = AtomicUsize::new(0);
        parallel_for(8, 64, |lo, hi| {
            assert_eq!((lo, hi), (0, 8));
            hits.fetch_add(1, Ordering::Relaxed);
        });
        set_threads(1);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_calls_run_inline() {
        set_threads(2);
        let n = 256;
        let mut out = vec![0.0f32; n];
        split_rows(n, [Output::row_owned(&mut out, 1)], |lo, hi, [rows]| {
            // A nested dispatch from inside a chunk must not deadlock and
            // must still cover its range.
            split_rows(hi - lo, [Output::row_owned(rows, 1)], |_, _, [inner]| {
                for r in inner {
                    *r += 1.0;
                }
            });
        });
        set_threads(1);
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn helper_cpu_is_accumulated_and_drained() {
        set_threads(4);
        let _ = take_helper_cpu_us();
        let sink = AtomicU64::new(0);
        parallel_for(4096, 1, |lo, hi| {
            let mut acc = 0u64;
            for i in lo as u64..hi as u64 {
                for j in 0..2000 {
                    acc = acc.wrapping_add(i * j);
                }
            }
            sink.fetch_add(acc, Ordering::Relaxed);
        });
        let us = take_helper_cpu_us();
        assert!(us > 0.0, "helpers should have burned CPU: {us}");
        assert_eq!(take_helper_cpu_us(), 0.0, "drain must reset");
        set_threads(1);
    }

    #[test]
    fn chunk_panic_propagates_to_the_caller() {
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            parallel_for(1024, 1, |lo, _hi| {
                if lo > 0 {
                    panic!("boom in chunk {lo}");
                }
            });
        });
        set_threads(1);
        assert!(result.is_err(), "the chunk panic must surface");
    }

    #[test]
    fn set_threads_is_idempotent_and_resizable() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(3);
        set_threads(2);
        assert_eq!(threads(), 2);
        let total = AtomicUsize::new(0);
        parallel_for(100, 1, |lo, hi| {
            total.fetch_add(hi - lo, Ordering::Relaxed);
        });
        set_threads(1);
        assert_eq!(total.load(Ordering::Relaxed), 100);
        assert_eq!(threads(), 1);
    }
}
