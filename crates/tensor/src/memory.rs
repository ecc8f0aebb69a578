//! Thread-local accounting of live tensor bytes.
//!
//! Every [`Tensor`](crate::Tensor) registers its payload bytes with the
//! tracker of the thread it was created on and deregisters them when
//! dropped. Because the SAR reproduction runs each simulated cluster worker
//! on its own thread, the per-thread peak directly yields the per-worker
//! peak memory the paper reports in its figures.
//!
//! Tensors must not be moved across threads while tracked (the bookkeeping
//! would land on the wrong thread). Cross-worker messages therefore carry
//! raw `Vec<f32>` payloads obtained via
//! [`Tensor::into_data`](crate::Tensor::into_data), which detaches the
//! bytes from the tracker first.

use std::cell::{Cell, RefCell};

/// A snapshot of the current thread's tensor-memory counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Bytes of tensor payloads currently alive on this thread.
    pub current_bytes: usize,
    /// High-water mark of `current_bytes` since the last
    /// [`MemoryTracker::reset_peak`].
    pub peak_bytes: usize,
    /// Number of tensor allocations registered since thread start.
    pub allocations: u64,
    /// Where `peak_bytes` was reached: the [site](MemoryTracker::at_site)
    /// running when the high-water mark last rose.
    pub peak_site: PeakSite,
}

/// A label for what the calling thread is running, recorded beside the
/// high-water mark when it rises — so a report can say where its peak
/// was set, not only how high it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeakSite {
    /// Outside every labelled region: setup, the loss, the optimizer.
    #[default]
    Other,
    /// The forward pass of GNN layer `l`, including the batch norm and
    /// dropout that follow it.
    Forward(u16),
    /// The backward of the tape operation with this
    /// [`Function::name`](crate::Function::name).
    Backward(&'static str),
}

impl std::fmt::Display for PeakSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeakSite::Other => f.write_str("other"),
            PeakSite::Forward(l) => write!(f, "layer {l} forward"),
            PeakSite::Backward(op) => write!(f, "{op} backward"),
        }
    }
}

impl MemoryStats {
    /// Peak memory in mebibytes, convenient for reports.
    pub fn peak_mib(&self) -> f64 {
        self.peak_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Current memory in mebibytes.
    pub fn current_mib(&self) -> f64 {
        self.current_bytes as f64 / (1024.0 * 1024.0)
    }
}

thread_local! {
    static CURRENT: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static SITE: Cell<PeakSite> = const { Cell::new(PeakSite::Other) };
    static PEAK_SITE: Cell<PeakSite> = const { Cell::new(PeakSite::Other) };
    static SCOPES: RefCell<Vec<ScopeSlot>> = const { RefCell::new(Vec::new()) };
    static NEXT_SCOPE_ID: Cell<u64> = const { Cell::new(0) };
}

struct ScopeSlot {
    id: u64,
    start_bytes: usize,
    peak_bytes: usize,
}

/// Handle to the calling thread's tensor-memory accountant.
///
/// The tracker is always active; `MemoryTracker` is a zero-sized handle that
/// names the thread-local counters.
///
/// # Example
///
/// ```
/// use sar_tensor::{MemoryTracker, Tensor};
///
/// MemoryTracker::reset_peak();
/// let before = MemoryTracker::stats().peak_bytes;
/// let t = Tensor::zeros(&[1024, 64]);
/// assert!(MemoryTracker::stats().peak_bytes >= before + 1024 * 64 * 4);
/// drop(t);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryTracker;

impl MemoryTracker {
    /// Returns the calling thread's counters.
    pub fn stats() -> MemoryStats {
        MemoryStats {
            current_bytes: CURRENT.with(Cell::get),
            peak_bytes: PEAK.with(Cell::get),
            allocations: ALLOCS.with(Cell::get),
            peak_site: PEAK_SITE.with(Cell::get),
        }
    }

    /// Resets the peak to the current live byte count, reached at the
    /// current site.
    ///
    /// Call at the start of a measured region; read
    /// [`MemoryTracker::stats`] at the end.
    pub fn reset_peak() {
        let cur = CURRENT.with(Cell::get);
        PEAK.with(|p| p.set(cur));
        PEAK_SITE.with(|p| p.set(SITE.with(Cell::get)));
    }

    /// Labels what the calling thread runs with `site` until the returned
    /// guard drops, which restores the previous label. A rising high-water
    /// mark records the label (two `Cell` writes, no allocation).
    pub fn at_site(site: PeakSite) -> SiteGuard {
        SiteGuard {
            prev: SITE.with(|s| s.replace(site)),
        }
    }

    /// Registers `bytes` of a freshly allocated tensor payload.
    pub(crate) fn register(bytes: usize) {
        let cur = CURRENT.with(|c| {
            let cur = c.get() + bytes;
            c.set(cur);
            PEAK.with(|p| {
                if cur > p.get() {
                    p.set(cur);
                    PEAK_SITE.with(|ps| ps.set(SITE.with(Cell::get)));
                }
            });
            cur
        });
        SCOPES.with(|s| {
            for slot in s.borrow_mut().iter_mut() {
                if cur > slot.peak_bytes {
                    slot.peak_bytes = cur;
                }
            }
        });
        ALLOCS.with(|a| a.set(a.get() + 1));
    }

    /// Deregisters `bytes` of a dropped tensor payload.
    ///
    /// Saturates at zero so that a tensor erroneously moved across threads
    /// corrupts statistics rather than panicking in a destructor.
    pub(crate) fn deregister(bytes: usize) {
        CURRENT.with(|c| c.set(c.get().saturating_sub(bytes)));
    }
}

/// Restores the previous [`PeakSite`] label on drop (see
/// [`MemoryTracker::at_site`]).
#[derive(Debug)]
#[must_use = "the label lasts only while the guard lives"]
pub struct SiteGuard {
    prev: PeakSite,
}

impl Drop for SiteGuard {
    fn drop(&mut self) {
        SITE.with(|s| s.set(self.prev));
    }
}

/// Runs `f` and returns its result together with the peak tensor bytes that
/// were live at any point during the call (including tensors that were
/// already alive when the call started).
///
/// # Example
///
/// ```
/// use sar_tensor::{memory::measure_peak, Tensor};
///
/// let (_, peak) = measure_peak(|| Tensor::ones(&[256, 256]).sum());
/// assert!(peak >= 256 * 256 * 4);
/// ```
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    MemoryTracker::reset_peak();
    let out = f();
    (out, MemoryTracker::stats().peak_bytes)
}

/// The high-water mark observed by one [`MemScope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopePeak {
    /// Live tensor bytes when the scope was opened.
    pub start_bytes: usize,
    /// Highest live byte count seen while the scope was open (at least
    /// `start_bytes`).
    pub peak_bytes: usize,
}

impl ScopePeak {
    /// Bytes the scope added on top of what was already live — the
    /// *incremental* high-water mark.
    pub fn delta_bytes(&self) -> usize {
        self.peak_bytes - self.start_bytes
    }
}

/// A watermark scope: records the peak live tensor bytes on this thread
/// between [`MemScope::begin`] and [`MemScope::finish`] (or drop).
///
/// Unlike [`MemoryTracker::reset_peak`], scopes nest: any number can be
/// open at once, each observing its own high-water mark. Per-phase memory
/// peaks in the observability ledger are measured this way without
/// disturbing the run-wide peak.
///
/// # Example
///
/// ```
/// use sar_tensor::{memory::MemScope, Tensor};
///
/// let scope = MemScope::begin();
/// let t = Tensor::zeros(&[256, 4]);
/// drop(t);
/// let peak = scope.finish();
/// assert!(peak.delta_bytes() >= 256 * 4 * 4);
/// ```
#[derive(Debug)]
pub struct MemScope {
    id: u64,
}

impl MemScope {
    /// Opens a scope on the calling thread.
    pub fn begin() -> MemScope {
        let id = NEXT_SCOPE_ID.with(|n| {
            let id = n.get();
            n.set(id + 1);
            id
        });
        let cur = CURRENT.with(Cell::get);
        SCOPES.with(|s| {
            s.borrow_mut().push(ScopeSlot {
                id,
                start_bytes: cur,
                peak_bytes: cur,
            })
        });
        MemScope { id }
    }

    /// Closes the scope and returns its high-water mark. Must be called on
    /// the thread that opened the scope (elsewhere it returns zeros).
    pub fn finish(self) -> ScopePeak {
        let out = close_scope(self.id);
        std::mem::forget(self);
        out
    }
}

impl Drop for MemScope {
    fn drop(&mut self) {
        let _ = close_scope(self.id);
    }
}

fn close_scope(id: u64) -> ScopePeak {
    SCOPES.with(|s| {
        let mut slots = s.borrow_mut();
        match slots.iter().position(|slot| slot.id == id) {
            Some(i) => {
                let slot = slots.remove(i);
                ScopePeak {
                    start_bytes: slot.start_bytes,
                    peak_bytes: slot.peak_bytes,
                }
            }
            None => ScopePeak::default(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn tracks_alloc_and_drop() {
        let base = MemoryTracker::stats().current_bytes;
        let t = Tensor::zeros(&[10, 10]);
        assert_eq!(MemoryTracker::stats().current_bytes, base + 400);
        drop(t);
        assert_eq!(MemoryTracker::stats().current_bytes, base);
    }

    #[test]
    fn peak_is_high_water_mark() {
        MemoryTracker::reset_peak();
        let base = MemoryTracker::stats().current_bytes;
        {
            let _a = Tensor::zeros(&[100]);
            let _b = Tensor::zeros(&[100]);
        }
        let stats = MemoryTracker::stats();
        assert_eq!(stats.current_bytes, base);
        assert!(stats.peak_bytes >= base + 800);
    }

    #[test]
    fn clone_registers_again() {
        let base = MemoryTracker::stats().current_bytes;
        let t = Tensor::zeros(&[25]);
        let u = t.clone();
        assert_eq!(MemoryTracker::stats().current_bytes, base + 200);
        drop(t);
        drop(u);
        assert_eq!(MemoryTracker::stats().current_bytes, base);
    }

    #[test]
    fn into_data_detaches() {
        let base = MemoryTracker::stats().current_bytes;
        let t = Tensor::zeros(&[25]);
        let v = t.into_data();
        assert_eq!(MemoryTracker::stats().current_bytes, base);
        drop(v);
        assert_eq!(MemoryTracker::stats().current_bytes, base);
    }

    #[test]
    fn measure_peak_reports_inner_alloc() {
        let (_, peak) = measure_peak(|| {
            let t = Tensor::zeros(&[1000]);
            t.sum()
        });
        assert!(peak >= 4000);
    }

    #[test]
    fn peak_never_below_current() {
        MemoryTracker::reset_peak();
        let _t = Tensor::zeros(&[123]);
        let s = MemoryTracker::stats();
        assert!(s.peak_bytes >= s.current_bytes);
    }

    #[test]
    fn scope_observes_transient_peak() {
        let base = MemoryTracker::stats().current_bytes;
        let scope = MemScope::begin();
        {
            let _a = Tensor::zeros(&[500]);
            let _b = Tensor::zeros(&[250]);
        }
        let peak = scope.finish();
        assert_eq!(peak.start_bytes, base);
        assert!(peak.peak_bytes >= base + 3000);
        assert!(peak.delta_bytes() >= 3000);
    }

    #[test]
    fn scopes_nest_independently() {
        let outer = MemScope::begin();
        let _held = Tensor::zeros(&[100]); // 400 bytes, live across inner
        let inner = MemScope::begin();
        let t = Tensor::zeros(&[100]);
        drop(t);
        let inner_peak = inner.finish();
        let outer_peak = outer.finish();
        // Inner saw only its own 400-byte allocation on top of the held one.
        assert!(inner_peak.delta_bytes() >= 400);
        assert!(outer_peak.delta_bytes() >= inner_peak.delta_bytes() + 400);
    }

    #[test]
    fn scope_drop_without_finish_is_clean() {
        let scope = MemScope::begin();
        drop(scope);
        // A later scope still works (the slot was removed).
        let s = MemScope::begin();
        let _t = Tensor::zeros(&[10]);
        assert!(s.finish().delta_bytes() >= 40);
    }

    #[test]
    fn the_peak_records_the_site_where_it_rose() {
        MemoryTracker::reset_peak();
        assert_eq!(MemoryTracker::stats().peak_site, PeakSite::Other);
        let a = {
            let _site = MemoryTracker::at_site(PeakSite::Forward(2));
            Tensor::zeros(&[300])
        };
        assert_eq!(MemoryTracker::stats().peak_site, PeakSite::Forward(2));
        drop(a);
        {
            let _outer = MemoryTracker::at_site(PeakSite::Forward(0));
            let _inner = MemoryTracker::at_site(PeakSite::Backward("matmul"));
            // Below the mark: the site does not move.
            drop(Tensor::zeros(&[100]));
            assert_eq!(MemoryTracker::stats().peak_site, PeakSite::Forward(2));
            drop(Tensor::zeros(&[400]));
            assert_eq!(
                MemoryTracker::stats().peak_site,
                PeakSite::Backward("matmul")
            );
        }
        // Both guards restored the outer label.
        MemoryTracker::reset_peak();
        assert_eq!(MemoryTracker::stats().peak_site, PeakSite::Other);
        assert_eq!(PeakSite::Backward("matmul").to_string(), "matmul backward");
        assert_eq!(PeakSite::Forward(1).to_string(), "layer 1 forward");
    }

    #[test]
    fn scope_ignores_prior_peak() {
        // A big allocation before the scope must not leak into it.
        let t = Tensor::zeros(&[10_000]);
        drop(t);
        let scope = MemScope::begin();
        let peak = scope.finish();
        assert_eq!(peak.delta_bytes(), 0);
    }
}
