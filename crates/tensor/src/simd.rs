//! Runtime-dispatched SIMD primitives with a bitwise-identical portable
//! fallback.
//!
//! Every kernel in the workspace funnels its innermost contiguous-`f32`
//! loop through this module. Each primitive has one specification and up
//! to three bodies that all compute it:
//!
//! * the portable [`scalar`] body, which *is* the specification: it is
//!   written as the sequence of IEEE-754 operations every body performs
//!   per output element (eight independent accumulator lanes for
//!   reductions, a fixed horizontal-reduction tree, a sequential tail);
//! * one generic vector body per primitive, written once over a register
//!   of `W` lanes (`x86::Lanes`) and `#[inline(always)]`, instantiated
//!   twice: under `#[target_feature(enable = "avx2")]` with 8 lanes and
//!   under `#[target_feature(enable = "avx512f")]` with 16. Which body
//!   runs is decided at run time (`is_x86_feature_detected!`), capped by
//!   [`set_mode`].
//!
//! The determinism argument, per primitive class (DESIGN.md §11):
//!
//! * **Elementwise maps** (`add_assign`, `add_into`, `axpy`, `scale`,
//!   `div_assign`, `div_scalar`, `leaky_relu`): each output element is a
//!   fixed IEEE-754 expression of its inputs with no reassociation, so
//!   lane width is irrelevant. The vector bodies use a separate multiply
//!   and add (never fused multiply-add — it rounds once instead of twice
//!   and would change bits).
//! * **Reductions** (`dot`): every body accumulates into eight lanes —
//!   lane `l` sums `a[8i+l] * b[8i+l]` over `i` — then reduces the lanes
//!   with one fixed tree (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`) and
//!   finally folds the ragged tail in sequentially. A 16-lane register
//!   would split each lane's sum in two, so `dot` and `head_dots` stay
//!   8-lane in both vector bodies. `dot_block` is many such dots at once:
//!   its vector bodies run them side by side on shared operand loads —
//!   the 16-lane body two independent 8-lane dots per register, one per
//!   row of `a` — and fold four at a time with `hadd, hadd, lo128 +
//!   hi128`, which is that tree.
//! * **Row-panel accumulate** (`panel_axpy`): the vector bodies keep a
//!   register tile of output rows across a whole k-panel — one row × 64
//!   columns in AVX2's sixteen registers, four rows × 64 columns in
//!   AVX-512's thirty-two, where each load of a B-panel row serves all
//!   four rows. Per output element the operations are still one multiply
//!   then one add per non-zero `a[row][kk]`, `kk` ascending — the tile
//!   changes which register holds a running sum, not what is added to it
//!   or in which order. The four-row tile skips a zero `a[row][kk]` with
//!   a lane mask instead of a branch: the masked-off lanes keep their
//!   sum, exactly as a skipped step does.
//! * **Row gather** (`gather_sum`): the same register strip with the rows
//!   an index list names streamed past it — per output element one add
//!   per index, in list order, which is one `add_assign` per index with
//!   the running sum kept in a register.
//! * **Weighted row gather** (`weighted_gather`): the same strip cut into
//!   segments (attention heads; a 16-float head is one AVX-512 register),
//!   each index carrying one [`Step`] per segment — skip, `+ w · x`, or
//!   `· scale` then `+ w · x` — which is one `scale` and one `axpy` per
//!   step, the running sums in registers.
//!
//! [`set_mode`] installs a process-global cap used by the `--simd` flag
//! of the binaries (`scalar`, `avx2`, `auto`) to prove end-to-end digest
//! parity across the bodies. Because every body is bitwise identical,
//! flipping the mode mid-run can never change a result — only
//! throughput.

use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------
// Dispatch mode
// ---------------------------------------------------------------------

/// Global SIMD dispatch policy: the widest body calls may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Use the widest body the CPU supports (default).
    Auto,
    /// Take the AVX2 body even on a CPU with AVX-512F (the scalar one on
    /// a CPU without AVX2).
    Avx2,
    /// Always take the portable scalar body, even on capable CPUs.
    ForceScalar,
}

/// The bodies, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Body {
    Scalar = 1,
    Avx2 = 2,
    Avx512 = 3,
}

impl Body {
    fn from_u8(v: u8) -> Body {
        match v {
            3 => Body::Avx512,
            2 => Body::Avx2,
            _ => Body::Scalar,
        }
    }
}

/// The mode's cap, as a [`Body`].
static MODE: AtomicU8 = AtomicU8::new(Body::Avx512 as u8);

/// Detection cache: 0 = not yet probed, else the widest [`Body`] the CPU
/// supports.
static DETECTED: AtomicU8 = AtomicU8::new(0);

/// Sets the process-global dispatch mode.
///
/// Safe to call at any time from any thread: every body is bitwise
/// identical, so a mode change can never alter numeric results.
pub fn set_mode(mode: SimdMode) {
    let cap = match mode {
        SimdMode::Auto => Body::Avx512,
        SimdMode::Avx2 => Body::Avx2,
        SimdMode::ForceScalar => Body::Scalar,
    };
    MODE.store(cap as u8, Ordering::Relaxed);
}

/// Returns the current dispatch mode.
pub fn mode() -> SimdMode {
    match Body::from_u8(MODE.load(Ordering::Relaxed)) {
        Body::Scalar => SimdMode::ForceScalar,
        Body::Avx2 => SimdMode::Avx2,
        Body::Avx512 => SimdMode::Auto,
    }
}

/// Parses a `--simd` flag value (`auto`, `avx2` or `scalar`).
pub fn parse_mode(s: &str) -> Option<SimdMode> {
    match s {
        "auto" => Some(SimdMode::Auto),
        "avx2" => Some(SimdMode::Avx2),
        "scalar" => Some(SimdMode::ForceScalar),
        _ => None,
    }
}

#[cfg(target_arch = "x86_64")]
fn detected() -> Body {
    match DETECTED.load(Ordering::Relaxed) {
        0 => {
            let widest = if std::arch::is_x86_feature_detected!("avx512f") {
                Body::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                Body::Avx2
            } else {
                Body::Scalar
            };
            DETECTED.store(widest as u8, Ordering::Relaxed);
            widest
        }
        v => Body::from_u8(v),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detected() -> Body {
    Body::Scalar
}

/// The body calls take now: the widest the CPU supports, capped by the
/// mode.
fn body() -> Body {
    Body::from_u8(MODE.load(Ordering::Relaxed)).min(detected())
}

/// Which body calls take now (`"avx512"` / `"avx2"` / `"scalar"`).
/// Reported by `repro kernelbench` and the benchmark so every artifact
/// records which path was measured.
pub fn dispatch_label() -> &'static str {
    match body() {
        Body::Avx512 => "avx512",
        Body::Avx2 => "avx2",
        Body::Scalar => "scalar",
    }
}

// ---------------------------------------------------------------------
// Portable scalar paths (also the reference semantics)
// ---------------------------------------------------------------------

/// Portable implementations, public so parity tests can compare the
/// dispatching entry points against them directly.
pub mod scalar {
    /// `dst[i] += src[i]`.
    pub fn add_assign(dst: &mut [f32], src: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    /// `dst[i] = a[i] + b[i]`.
    pub fn add_into(dst: &mut [f32], a: &[f32], b: &[f32]) {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = x + y;
        }
    }

    /// `dst[i] += a * x[i]` (two roundings: mul then add — no FMA).
    pub fn axpy(a: f32, x: &[f32], dst: &mut [f32]) {
        for (d, &v) in dst.iter_mut().zip(x) {
            *d += a * v;
        }
    }

    /// `dst[i] *= a`.
    pub fn scale(dst: &mut [f32], a: f32) {
        for d in dst.iter_mut() {
            *d *= a;
        }
    }

    /// `dst[i] /= den[i]`.
    pub fn div_assign(dst: &mut [f32], den: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(den) {
            *d /= s;
        }
    }

    /// In-place LeakyReLU: `x if x > 0 else slope * x`.
    // `!(x > 0.0)` (not `x <= 0.0`) so NaN takes the slope branch, exactly
    // matching the vector path's `_CMP_GT_OQ` + blend.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn leaky_relu(dst: &mut [f32], slope: f32) {
        for d in dst.iter_mut() {
            if !(*d > 0.0) {
                *d *= slope;
            }
        }
    }

    /// Dot product with the fixed eight-lane accumulation tree.
    ///
    /// Lane `l` accumulates `a[8i+l] * b[8i+l]`; lanes reduce as
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`; the tail (< 8 elements)
    /// folds in sequentially afterwards. The vector bodies perform
    /// exactly these operations in exactly this order.
    // sar-check: deterministic(fixed-lane-order: 8 partial sums reduced in
    // a fixed tree, scalar tail folded sequentially — same sequence on
    // every rank and every run)
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let main = n - n % 8;
        let mut lanes = [0.0f32; 8];
        let mut i = 0;
        while i < main {
            for l in 0..8 {
                lanes[l] += a[i + l] * b[i + l];
            }
            i += 8;
        }
        let mut acc = super::reduce_lanes(&lanes);
        for j in main..n {
            acc += a[j] * b[j];
        }
        acc
    }

    /// Every row of `a` dotted with every row of `b`: with `b` holding
    /// `n` rows of `k = b.len() / n` floats, `out[i · n + j]` becomes the
    /// [`dot`] of row `i` of `a` (`k` floats) and row `j` of `b`.
    pub fn dot_block(out: &mut [f32], n: usize, a: &[f32], b: &[f32]) {
        let (k, rows) = super::block_dims(out.len(), n, a.len(), b.len());
        if rows == 0 {
            return;
        }
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for (j, o) in o_row.iter_mut().enumerate() {
                *o = dot(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// Row-panel accumulate: `out` holds rows of `n` floats and `b` a
    /// `[b.len() / n, n]` panel; for every row `r` of `out` and every row
    /// `kk` of the panel, `kk` ascending, `out[r][j] += a[r · a_row +
    /// kk · a_kk] * b[kk][j]` — one [`axpy`] per `(r, kk)`, and none for
    /// one whose `a` is exactly zero (so `0 · inf` never reaches the sum).
    pub fn panel_axpy(
        out: &mut [f32],
        n: usize,
        a: &[f32],
        (a_row, a_kk): (usize, usize),
        b: &[f32],
    ) {
        if super::check_panel(out.len(), n, a.len(), (a_row, a_kk), b.len()).is_none() {
            return;
        }
        for (r, o_row) in out.chunks_exact_mut(n).enumerate() {
            for (kk, b_row) in b.chunks_exact(n).enumerate() {
                let av = a[r * a_row + kk * a_kk];
                if av == 0.0 {
                    continue;
                }
                axpy(av, b_row, o_row);
            }
        }
    }

    /// Row gather-accumulate: `out[j] += x[idx[k] · n + j]` over the rows
    /// of `x` (`n = out.len()` floats each) that `idx` names, `k`
    /// ascending — one [`add_assign`] per index.
    pub fn gather_sum(out: &mut [f32], x: &[f32], idx: &[u32]) {
        let n = out.len();
        super::check_gather("gather_sum", n, x.len(), idx);
        for &i in idx {
            let i = i as usize;
            add_assign(out, &x[i * n..(i + 1) * n]);
        }
    }

    /// Weighted row gather: `out` is `segs` segments of `d` floats, and
    /// for every index `k` ascending and every segment `s`,
    /// `steps[k · segs + s]` applies to segment `s` of `out` what it says
    /// with segment `s` of row `idx[k]` of `x` — one [`scale`] and one
    /// [`axpy`] for a [`Step::RescaleAdd`](super::Step::RescaleAdd), one
    /// [`axpy`] for an [`Step::Add`](super::Step::Add), nothing for a
    /// [`Step::Skip`](super::Step::Skip).
    pub fn weighted_gather(
        out: &mut [f32],
        segs: usize,
        x: &[f32],
        idx: &[u32],
        steps: &[super::Step],
    ) {
        let n = out.len();
        if !super::check_weighted(n, segs, x.len(), idx, steps.len()) {
            return;
        }
        let d = n / segs;
        for (&i, row_steps) in idx.iter().zip(steps.chunks_exact(segs)) {
            let row = &x[i as usize * n..(i as usize + 1) * n];
            for ((o, xs), &step) in out
                .chunks_exact_mut(d)
                .zip(row.chunks_exact(d))
                .zip(row_steps)
            {
                match step {
                    super::Step::Skip => {}
                    super::Step::Add(w) => axpy(w, xs, o),
                    super::Step::RescaleAdd { scale: c, w } => {
                        scale(o, c);
                        axpy(w, xs, o);
                    }
                }
            }
        }
    }

    /// Segment-wise dots: with `a` and `b` cut into `out.len()` segments
    /// of `d` floats, `out[s]` becomes the [`dot`] of segment `s` of `a`
    /// and segment `s` of `b`.
    pub fn head_dots(out: &mut [f32], a: &[f32], b: &[f32]) {
        let d = super::check_head_dots(out.len(), a.len(), b.len());
        for (s, o) in out.iter_mut().enumerate() {
            *o = dot(&a[s * d..(s + 1) * d], &b[s * d..(s + 1) * d]);
        }
    }

    /// `dst[i] /= den`.
    pub fn div_scalar(dst: &mut [f32], den: f32) {
        for d in dst.iter_mut() {
            *d /= den;
        }
    }

    /// Runs `steps` rounds of `acc[v] += x[v / 4] * m[v % 4]` (multiply,
    /// then add — two roundings) over eight independent 8-lane
    /// accumulators and returns their lane sum: `128 · steps` FLOPs that
    /// never leave registers. As in the matmul kernels the multiply is
    /// off the add's dependency chain; `x` flips sign after every round,
    /// so no product is loop-invariant and every accumulator alternates
    /// between 0 and its first product, exactly.
    // sar-check: deterministic(sequential: each lane is one fixed chain
    // of adds in step order; the closing sum runs in index order)
    pub fn peak_probe(steps: usize) -> f32 {
        let mut x = super::PEAK_PROBE_X;
        let mut acc = [[0.0f32; 8]; 8];
        for _ in 0..steps {
            for (v, lanes) in acc.iter_mut().enumerate() {
                let m = super::PEAK_PROBE_M[v % 4];
                for (a, xl) in lanes.iter_mut().zip(x[v / 4]) {
                    *a += xl * m;
                }
            }
            x = x.map(|lanes| lanes.map(|xl| -xl));
        }
        acc.iter().flatten().sum()
    }
}

/// [`peak_probe`]'s two multiplicand vectors. Their lanes differ so the
/// scalar body cannot share one product across a vector's lanes.
const PEAK_PROBE_X: [[f32; 8]; 2] = [
    [1.0, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 1.875],
    [2.0, 2.125, 2.25, 2.375, 2.5, 2.625, 2.75, 2.875],
];
/// [`peak_probe`]'s four broadcast multipliers: with the two vectors
/// above, one distinct product per accumulator, all exact in `f32`.
const PEAK_PROBE_M: [f32; 4] = [1.0, 0.5, 0.25, 0.125];

/// `(k, rows)` of a [`dot_block`] call, after checking that its slices
/// are `[rows, n]`, `[rows, k]` and `[n, k]` — the bounds every body
/// indexes by. An empty `out` (`n == 0` included) is zero rows.
fn block_dims(out: usize, n: usize, a: usize, b: usize) -> (usize, usize) {
    if out == 0 {
        return (0, 0);
    }
    assert!(
        n > 0 && out.is_multiple_of(n),
        "dot_block: {out} outputs in rows of {n}"
    );
    let (k, rows) = (b / n, out / n);
    assert!(
        b == n * k && a == rows * k,
        "dot_block: a has {a} floats and b {b}, expected [{rows}, k] and [{n}, k]"
    );
    (k, rows)
}

/// `(rows, cnt)` of a [`panel_axpy`] call with work to do, after checking
/// what every body indexes by: `out` and `b` are whole rows of `n`
/// floats, and `a` reaches `a[(rows − 1) · a_row + (cnt − 1) · a_kk]`.
/// `None` when there is nothing to compute (no row, column or panel row).
fn check_panel(
    out: usize,
    n: usize,
    a: usize,
    (a_row, a_kk): (usize, usize),
    b: usize,
) -> Option<(usize, usize)> {
    if n == 0 {
        return None;
    }
    assert!(
        out.is_multiple_of(n) && b.is_multiple_of(n),
        "panel_axpy: out has {out} floats and b {b}, not whole rows of {n}"
    );
    let (rows, cnt) = (out / n, b / n);
    if rows == 0 || cnt == 0 {
        return None;
    }
    let last = (rows - 1)
        .checked_mul(a_row)
        .zip((cnt - 1).checked_mul(a_kk))
        .and_then(|(r, k)| r.checked_add(k));
    assert!(
        last.is_some_and(|last| last < a),
        "panel_axpy: `a` has {a} floats, too few for {rows} rows at stride {a_row} \
         and {cnt} panel rows at stride {a_kk}"
    );
    Some((rows, cnt))
}

/// Checks a [`gather_sum`] or [`weighted_gather`] call (`what`) before
/// any body indexes anything: `x` is whole rows of `n` floats and every
/// index names one of them. A zero-width `x` has no rows, so any index
/// into it is out of range.
fn check_gather(what: &str, n: usize, x: usize, idx: &[u32]) {
    assert!(
        x.is_multiple_of(n),
        "{what}: x has {x} floats, not a multiple of the row width {n}"
    );
    let rows = x.checked_div(n).unwrap_or(0);
    if let Some(i) = idx.iter().find(|&&i| i as usize >= rows) {
        panic!("{what}: index {i} out of range for {rows} rows of width {n}");
    }
}

/// What one entry of a [`weighted_gather`] does to one segment of the
/// output row, with the same segment of the entry's row of `x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Nothing: the segment keeps what it holds.
    Skip,
    /// `seg += w · x_seg` (mul then add, never fused).
    Add(f32),
    /// `seg *= scale`, then `seg += w · x_seg` — the online softmax's
    /// rescale of its running numerator before the entry's own term.
    RescaleAdd {
        /// Factor applied to the running segment first.
        scale: f32,
        /// Weight of the entry's row.
        w: f32,
    },
}

/// Checks a [`weighted_gather`] call before any body indexes anything
/// and says whether it has anything to do: the `n`-float output row is
/// `segs > 0` whole segments, there is one step per (index, segment),
/// and — unless the row is empty, when nothing is read — `x` and `idx`
/// pass [`check_gather`].
fn check_weighted(n: usize, segs: usize, x: usize, idx: &[u32], steps: usize) -> bool {
    assert!(
        segs > 0 && n.is_multiple_of(segs),
        "weighted_gather: a row of {n} floats is not {segs} whole segments"
    );
    assert_eq!(
        Some(steps),
        idx.len().checked_mul(segs),
        "weighted_gather: {steps} steps for {} indices of {segs} segments",
        idx.len()
    );
    if n == 0 {
        return false;
    }
    check_gather("weighted_gather", n, x, idx);
    true
}

/// Checks a [`head_dots`] call: `a` and `b` have the same length, cut
/// into `out` whole segments. Returns the segment width.
fn check_head_dots(out: usize, a: usize, b: usize) -> usize {
    assert!(
        a == b && a.checked_rem(out).unwrap_or(a) == 0,
        "head_dots: {a} and {b} floats are not {out} equal segments each"
    );
    a.checked_div(out).unwrap_or(0)
}

/// Fixed horizontal-reduction tree shared by every dot body.
#[inline]
fn reduce_lanes(l: &[f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

// ---------------------------------------------------------------------
// Vector bodies: written once over a lane width, instantiated per ISA
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod x86 {
    use std::arch::x86_64::*;

    /// Defines `Lanes` methods whose whole body is one expression over
    /// intrinsics of the implementor's feature.
    macro_rules! lane_ops {
        ($($name:ident($($a:ident: $t:ty),*) $(-> $r:ty)? = $body:expr;)*) => {$(
            #[inline(always)]
            unsafe fn $name($($a: $t),*) $(-> $r)? {
                // SAFETY: the implementor's CPU feature, and for a pointer
                // operand the lanes the method documents, are the
                // caller's contract (the trait's).
                unsafe { $body }
            }
        )*};
    }

    /// A register of `W` `f32` lanes: the only operations the bodies
    /// below are written in. Every method is `#[inline(always)]`, so a
    /// body compiles into the `#[target_feature]` function instantiating
    /// it (`avx2::*`, `avx512::*`) as if written there.
    ///
    /// Every method is `unsafe`: the CPU must support the implementor's
    /// feature, and a pointer must be valid for the lanes the method
    /// reads or writes — all `W`, only the live ones of a `*_part` mask.
    pub(super) trait Lanes {
        /// Lanes per register.
        const W: usize;
        /// Output rows a [`panel_axpy`] tile keeps in registers at once:
        /// the rows that share each load of a B-panel row.
        const ROWS: usize;
        /// The register.
        type V: Copy;
        /// Which lanes of a ragged strip's last register are live.
        type M: Copy;
        /// Which lanes an [`Lanes::add_where`] adds in.
        type K: Copy;
        /// All lanes `+0.0`.
        unsafe fn zero() -> Self::V;
        /// All lanes `x`.
        unsafe fn splat(x: f32) -> Self::V;
        /// `W` floats from `p`.
        unsafe fn load(p: *const f32) -> Self::V;
        /// `W` floats to `p`.
        unsafe fn store(p: *mut f32, v: Self::V);
        /// Lanes `0..live` live, `live` in `0..W`.
        unsafe fn mask(live: usize) -> Self::M;
        /// The live lanes from `p`, the dead ones `0.0` (never read).
        unsafe fn load_part(p: *const f32, m: Self::M) -> Self::V;
        /// The live lanes to `p` (the dead ones never written).
        unsafe fn store_part(p: *mut f32, m: Self::M, v: Self::V);
        /// `a + b`.
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        /// `a * b`.
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
        /// `a / b`.
        unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
        /// `v` with every sign bit flipped.
        unsafe fn neg(v: Self::V) -> Self::V;
        /// `v` where `v > 0` (ordered: false for NaN), `slope * v`
        /// elsewhere.
        unsafe fn leaky(v: Self::V, slope: Self::V) -> Self::V;
        /// The lanes where `v != 0.0` (unordered: true for NaN).
        unsafe fn nonzero(v: Self::V) -> Self::K;
        /// `acc + x` in the lanes `k` holds, `acc` in the others.
        unsafe fn add_where(k: Self::K, acc: Self::V, x: Self::V) -> Self::V;
        /// Eight floats from each of `W / 8` rows `stride` apart: lanes
        /// `8h..8h + 8` hold `p + h·stride ..`.
        unsafe fn load8_rows(p: *const f32, stride: usize) -> Self::V;
        /// The eight floats at `p`, in every 8-lane group.
        unsafe fn bcast8(p: *const f32) -> Self::V;
        /// Folds four registers of 8-lane dot accumulators: lane `c` of
        /// result `h` is the `reduce_lanes` tree over lane group `h` of
        /// `acc[c]` (groups past `W / 8` are unspecified).
        unsafe fn fold4(acc: [Self::V; 4]) -> [__m128; 2];
    }

    /// AVX2's 256-bit register.
    pub(super) struct F32x8;

    impl Lanes for F32x8 {
        const W: usize = 8;
        // A 64-column strip is eight accumulators; with a B vector and the
        // broadcast `a` that is ten of sixteen registers, and a second
        // row would spill. So no AVX2 tile runs `nonzero` / `add_where`
        // (the multi-row tiles' zero skip); they exist for the one
        // generic body to compile at both widths.
        const ROWS: usize = 1;
        type V = __m256;
        type M = __m256i;
        type K = __m256;
        lane_ops! {
            zero() -> __m256 = _mm256_setzero_ps();
            splat(x: f32) -> __m256 = _mm256_set1_ps(x);
            load(p: *const f32) -> __m256 = _mm256_loadu_ps(p);
            store(p: *mut f32, v: __m256) = _mm256_storeu_ps(p, v);
            mask(live: usize) -> __m256i = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(live as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            load_part(p: *const f32, m: __m256i) -> __m256 = _mm256_maskload_ps(p, m);
            store_part(p: *mut f32, m: __m256i, v: __m256) = _mm256_maskstore_ps(p, m, v);
            add(a: __m256, b: __m256) -> __m256 = _mm256_add_ps(a, b);
            mul(a: __m256, b: __m256) -> __m256 = _mm256_mul_ps(a, b);
            div(a: __m256, b: __m256) -> __m256 = _mm256_div_ps(a, b);
            neg(v: __m256) -> __m256 = _mm256_xor_ps(v, _mm256_set1_ps(-0.0));
            leaky(v: __m256, slope: __m256) -> __m256 = _mm256_blendv_ps(
                _mm256_mul_ps(slope, v),
                v,
                _mm256_cmp_ps::<_CMP_GT_OQ>(v, _mm256_setzero_ps()),
            );
            nonzero(v: __m256) -> __m256 = _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps());
            add_where(k: __m256, acc: __m256, x: __m256) -> __m256 =
                _mm256_blendv_ps(acc, _mm256_add_ps(acc, x), k);
            load8_rows(p: *const f32, _stride: usize) -> __m256 = _mm256_loadu_ps(p);
            bcast8(p: *const f32) -> __m256 = _mm256_loadu_ps(p);
            // hadd(x, y) = [x0+x1, x2+x3, y0+y1, y2+y3 | x4+x5, x6+x7,
            // y4+y5, y6+y7], so two rounds leave ((l0+l1)+(l2+l3)) of
            // register c in lane c of the low half and ((l4+l5)+(l6+l7))
            // in lane c of the high half; low + high is `reduce_lanes`'
            // last add.
            fold4(acc: [__m256; 4]) -> [__m128; 2] = {
                let h01 = _mm256_hadd_ps(acc[0], acc[1]);
                let h23 = _mm256_hadd_ps(acc[2], acc[3]);
                let h = _mm256_hadd_ps(h01, h23);
                let lo = _mm256_castps256_ps128(h);
                [_mm_add_ps(lo, _mm256_extractf128_ps::<1>(h)), _mm_setzero_ps()]
            };
        }
    }

    /// AVX-512F's 512-bit register, used with AVX-512F instructions only.
    pub(super) struct F32x16;

    impl Lanes for F32x16 {
        const W: usize = 16;
        // Four rows of a 64-column strip are sixteen accumulators; with
        // the strip's four B vectors and the four rows' broadcast `a`
        // that is twenty-four of thirty-two registers.
        const ROWS: usize = 4;
        type V = __m512;
        type M = __mmask16;
        type K = __mmask16;
        #[inline(always)]
        unsafe fn mask(live: usize) -> __mmask16 {
            ((1u32 << live) - 1) as __mmask16
        }
        lane_ops! {
            zero() -> __m512 = _mm512_setzero_ps();
            splat(x: f32) -> __m512 = _mm512_set1_ps(x);
            load(p: *const f32) -> __m512 = _mm512_loadu_ps(p);
            store(p: *mut f32, v: __m512) = _mm512_storeu_ps(p, v);
            load_part(p: *const f32, m: __mmask16) -> __m512 = _mm512_maskz_loadu_ps(m, p);
            store_part(p: *mut f32, m: __mmask16, v: __m512) = _mm512_mask_storeu_ps(p, m, v);
            add(a: __m512, b: __m512) -> __m512 = _mm512_add_ps(a, b);
            mul(a: __m512, b: __m512) -> __m512 = _mm512_mul_ps(a, b);
            div(a: __m512, b: __m512) -> __m512 = _mm512_div_ps(a, b);
            neg(v: __m512) -> __m512 = _mm512_castsi512_ps(_mm512_xor_si512(
                _mm512_castps_si512(v),
                _mm512_set1_epi32(i32::MIN),
            ));
            // `mask_blend(k, a, b)` takes `b` where `k` is set.
            leaky(v: __m512, slope: __m512) -> __m512 = _mm512_mask_blend_ps(
                _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, _mm512_setzero_ps()),
                _mm512_mul_ps(slope, v),
                v,
            );
            nonzero(v: __m512) -> __mmask16 =
                _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_ps());
            add_where(k: __mmask16, acc: __m512, x: __m512) -> __m512 =
                _mm512_mask_add_ps(acc, k, acc, x);
            load8_rows(p: *const f32, stride: usize) -> __m512 = {
                let lo = _mm256_castps_pd(_mm256_loadu_ps(p));
                let hi = _mm256_castps_pd(_mm256_loadu_ps(p.add(stride)));
                _mm512_castpd_ps(_mm512_insertf64x4::<1>(_mm512_castpd256_pd512(lo), hi))
            };
            bcast8(p: *const f32) -> __m512 =
                _mm512_castpd_ps(_mm512_broadcast_f64x4(_mm256_castps_pd(_mm256_loadu_ps(p))));
            // `hadd` per 128-bit lane, as `_mm256_hadd_ps` is: the even
            // lanes of x and y plus their odd lanes, `[x0+x1, x2+x3,
            // y0+y1, y2+y3]` in every lane, so the AVX2 fold's two rounds
            // leave ((l0+l1)+(l2+l3)) of register c, group h in lane c of
            // 128-bit lane 2h and ((l4+l5)+(l6+l7)) in lane c of lane
            // 2h + 1.
            fold4(acc: [__m512; 4]) -> [__m128; 2] = {
                let hadd = |x: __m512, y: __m512| {
                    let even = _mm512_shuffle_ps::<0b10_00_10_00>(x, y);
                    _mm512_add_ps(even, _mm512_shuffle_ps::<0b11_01_11_01>(x, y))
                };
                let h = hadd(hadd(acc[0], acc[1]), hadd(acc[2], acc[3]));
                [
                    _mm_add_ps(_mm512_castps512_ps128(h), _mm512_extractf32x4_ps::<1>(h)),
                    _mm_add_ps(_mm512_extractf32x4_ps::<2>(h), _mm512_extractf32x4_ps::<3>(h)),
                ]
            };
        }
    }

    /// Calls `$call` with the const items `$f: usize` and `$t: bool` set
    /// to the one `(FULL, TAIL)` covering a strip of `$full` whole
    /// registers of `$lanes` plus `$tail` columns: `1..=64` columns, so
    /// at most eight registers of eight lanes or four of sixteen, the
    /// last of them masked when `$tail != 0`.
    macro_rules! strip_tile {
        ($lanes:ty, $full:expr, $tail:expr, |$f:ident, $t:ident| $call:expr) => {
            strip_tile!(@arms $lanes, ($full, $tail != 0), $f, $t, $call, [
                (0, true), (1, false), (1, true), (2, false), (2, true), (3, false),
                (3, true), (4, false), (4, true), (5, false), (5, true), (6, false),
                (6, true), (7, false), (7, true), (8, false)
            ])
        };
        (@arms $lanes:ty, $key:expr, $f:ident, $t:ident, $call:expr,
            [$(($fv:literal, $tv:literal)),*]) => {
            match $key {
                $(($fv, $tv) if $fv * <$lanes as Lanes>::W + $tv as usize <= 64 => {
                    const $f: usize = $fv;
                    const $t: bool = $tv;
                    $call
                })*
                _ => unreachable!("a strip is 1..=64 columns wide"),
            }
        };
    }

    // -----------------------------------------------------------------
    // Elementwise maps: W lanes at a time, then the same per-element
    // operation on the ragged tail.
    // -----------------------------------------------------------------

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    // sar-check: deterministic(elementwise: each dst[j] gets exactly one
    // add; vector and scalar tails apply the same per-element operation)
    pub(super) unsafe fn add_assign<L: Lanes>(dst: &mut [f32], src: &[f32]) {
        let n = dst.len().min(src.len());
        let main = n - n % L::W;
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        for i in (0..main).step_by(L::W) {
            // SAFETY: `L`'s feature is the caller's contract; i + W <=
            // main <= the length of both slices.
            unsafe { L::store(dp.add(i), L::add(L::load(dp.add(i)), L::load(sp.add(i)))) };
        }
        for j in main..n {
            dst[j] += src[j];
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    pub(super) unsafe fn add_into<L: Lanes>(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len().min(a.len()).min(b.len());
        let main = n - n % L::W;
        let (dp, ap, bp) = (dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        for i in (0..main).step_by(L::W) {
            // SAFETY: `L`'s feature is the caller's contract; i + W <=
            // main <= the length of all three slices.
            unsafe { L::store(dp.add(i), L::add(L::load(ap.add(i)), L::load(bp.add(i)))) };
        }
        for j in main..n {
            dst[j] = a[j] + b[j];
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    // sar-check: deterministic(elementwise: each dst[j] gets exactly one
    // multiply then one add; vector and scalar tails match per element)
    pub(super) unsafe fn axpy<L: Lanes>(a: f32, x: &[f32], dst: &mut [f32]) {
        let n = dst.len().min(x.len());
        let main = n - n % L::W;
        let (dp, xp) = (dst.as_mut_ptr(), x.as_ptr());
        // SAFETY: `L`'s feature is the caller's contract.
        let av = unsafe { L::splat(a) };
        for i in (0..main).step_by(L::W) {
            // SAFETY: as above; i + W <= main <= the length of both
            // slices. mul and add stay separate (two roundings), as the
            // scalar `d += a * v`.
            unsafe {
                let prod = L::mul(av, L::load(xp.add(i)));
                L::store(dp.add(i), L::add(L::load(dp.add(i)), prod));
            }
        }
        for j in main..n {
            dst[j] += a * x[j];
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    pub(super) unsafe fn scale<L: Lanes>(dst: &mut [f32], a: f32) {
        let n = dst.len();
        let main = n - n % L::W;
        let dp = dst.as_mut_ptr();
        // SAFETY: `L`'s feature is the caller's contract.
        let av = unsafe { L::splat(a) };
        for i in (0..main).step_by(L::W) {
            // SAFETY: as above; i + W <= main <= dst.len().
            unsafe { L::store(dp.add(i), L::mul(L::load(dp.add(i)), av)) };
        }
        for d in &mut dst[main..n] {
            *d *= a;
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    pub(super) unsafe fn div_assign<L: Lanes>(dst: &mut [f32], den: &[f32]) {
        let n = dst.len().min(den.len());
        let main = n - n % L::W;
        let (dp, sp) = (dst.as_mut_ptr(), den.as_ptr());
        for i in (0..main).step_by(L::W) {
            // SAFETY: `L`'s feature is the caller's contract; i + W <=
            // main <= the length of both slices. IEEE division is
            // correctly rounded, so vector divide == scalar divide.
            unsafe { L::store(dp.add(i), L::div(L::load(dp.add(i)), L::load(sp.add(i)))) };
        }
        for (d, s) in dst[main..n].iter_mut().zip(&den[main..n]) {
            *d /= *s;
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    pub(super) unsafe fn div_scalar<L: Lanes>(dst: &mut [f32], den: f32) {
        let n = dst.len();
        let main = n - n % L::W;
        let dp = dst.as_mut_ptr();
        // SAFETY: `L`'s feature is the caller's contract.
        let dv = unsafe { L::splat(den) };
        for i in (0..main).step_by(L::W) {
            // SAFETY: as above; i + W <= main <= dst.len().
            unsafe { L::store(dp.add(i), L::div(L::load(dp.add(i)), dv)) };
        }
        for d in &mut dst[main..n] {
            *d /= den;
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    // Tail uses `!(x > 0.0)` (not `x <= 0.0`) so NaN takes the slope
    // branch, exactly matching `Lanes::leaky`'s ordered compare.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    pub(super) unsafe fn leaky_relu<L: Lanes>(dst: &mut [f32], slope: f32) {
        let n = dst.len();
        let main = n - n % L::W;
        let dp = dst.as_mut_ptr();
        // SAFETY: `L`'s feature is the caller's contract.
        let sv = unsafe { L::splat(slope) };
        for i in (0..main).step_by(L::W) {
            // SAFETY: as above; i + W <= main <= dst.len(). The multiply
            // is the same single IEEE multiply the scalar path performs.
            unsafe { L::store(dp.add(i), L::leaky(L::load(dp.add(i)), sv)) };
        }
        for d in &mut dst[main..n] {
            if !(*d > 0.0) {
                *d *= slope;
            }
        }
    }

    // -----------------------------------------------------------------
    // Dots: always eight lanes per dot
    // -----------------------------------------------------------------

    /// # Safety
    /// The CPU must support AVX2.
    #[inline(always)]
    // sar-check: deterministic(fixed-lane-order: the scalar `dot`
    // sequence — 8 lanes over ascending i, the `reduce_lanes` tree, then
    // the sequential tail)
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let main = n - n % 8;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut lanes = [0.0f32; 8];
        // SAFETY: AVX2 is the caller's contract; i + 8 <= main <= the
        // length of both slices, and `lanes` is one register of storage.
        // mul + add kept separate (no FMA) so lane `l` accumulates exactly
        // the scalar path's `lanes[l] += a[8i+l] * b[8i+l]` sequence.
        unsafe {
            let mut acc = F32x8::zero();
            for i in (0..main).step_by(8) {
                acc = F32x8::add(
                    acc,
                    F32x8::mul(F32x8::load(ap.add(i)), F32x8::load(bp.add(i))),
                );
            }
            F32x8::store(lanes.as_mut_ptr(), acc);
        }
        let mut out = super::reduce_lanes(&lanes);
        for j in main..n {
            out += a[j] * b[j];
        }
        out
    }

    /// Stores four dots to `out` after adding to each its sequential tail:
    /// lane `c` of `dots` is dot `c` before columns `main..k`, and takes
    /// `+ a_c[j] * b_c[j]` for each `j` there — `a_c` and `b_c` the rows
    /// `a + c·a_step` and `b + c·b_step`.
    ///
    /// # Safety
    /// The CPU must support AVX2; for every `c < 4` the rows `a + c·a_step`
    /// and `b + c·b_step` must be valid for reads of `k` floats, and `out`
    /// for writes of 4.
    #[inline(always)]
    unsafe fn finish4(
        out: *mut f32,
        mut dots: __m128,
        (a, a_step): (*const f32, usize),
        (b, b_step): (*const f32, usize),
        main: usize,
        k: usize,
    ) {
        // SAFETY: the caller's contract; j < k stays inside every row.
        unsafe {
            for j in main..k {
                let at = |p: *const f32, step: usize, c: usize| *p.add(c * step + j);
                let x = _mm_setr_ps(
                    at(a, a_step, 0),
                    at(a, a_step, 1),
                    at(a, a_step, 2),
                    at(a, a_step, 3),
                );
                let y = _mm_setr_ps(
                    at(b, b_step, 0),
                    at(b, b_step, 1),
                    at(b, b_step, 2),
                    at(b, b_step, 3),
                );
                dots = _mm_add_ps(dots, _mm_mul_ps(x, y));
            }
            _mm_storeu_ps(out, dots);
        }
    }

    /// One register tile of [`dot_block`]: the dots of `P · W / 8`
    /// consecutive rows of `a` with rows `0..4` of `b` (all `k` long),
    /// written to `out[r · n + c]`. A register holds `W / 8` of them —
    /// one 8-lane dot per row — so each broadcast load of a `b` row feeds
    /// `P` registers and each load of `a` rows four, and the `4 · P`
    /// independent add chains hide the add latency one dot alone is bound
    /// by.
    ///
    /// # Safety
    /// The CPU must support `L`'s feature. `a` must be valid for reads of
    /// `P · W / 8 · k` floats, `b` of `4 · k`, and `out + r · n` for
    /// writes of 4 floats for every `r < P · W / 8`.
    #[inline(always)]
    // sar-check: deterministic(fixed-lane-order: every dot of the tile
    // accumulates its own 8 lanes over ascending i, folds them in the
    // `reduce_lanes` tree, then adds its tail sequentially — the scalar
    // `dot` sequence; the tile only runs 4·P·W/8 of them side by side)
    unsafe fn dot_tile<L: Lanes, const P: usize>(
        out: *mut f32,
        n: usize,
        a: *const f32,
        b: *const f32,
        k: usize,
    ) {
        let g = L::W / 8;
        let main = k - k % 8;
        // SAFETY: `L`'s feature and the `k`-long rows are the caller's
        // contract; i + 8 <= main <= k keeps every 8-float load inside its
        // row. mul + add kept separate (no FMA): lane `l` of group `h` of
        // `acc[p][c]` sees the scalar path's `lanes[l] += a[p·g + h][8i+l]
        // * b[c][8i+l]` sequence.
        unsafe {
            let mut acc = [[L::zero(); 4]; P];
            for i in (0..main).step_by(8) {
                let mut y = [L::zero(); 4];
                for (c, yc) in y.iter_mut().enumerate() {
                    *yc = L::bcast8(b.add(c * k + i));
                }
                for (p, acc_p) in acc.iter_mut().enumerate() {
                    let x = L::load8_rows(a.add(p * g * k + i), k);
                    for (s, &yc) in acc_p.iter_mut().zip(&y) {
                        *s = L::add(*s, L::mul(x, yc));
                    }
                }
            }
            for (p, &acc_p) in acc.iter().enumerate() {
                let dots = L::fold4(acc_p);
                for (h, &d) in dots.iter().enumerate().take(g) {
                    let r = p * g + h;
                    finish4(out.add(r * n), d, (a.add(r * k), 0), (b, k), main, k);
                }
            }
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    pub(super) unsafe fn dot_block<L: Lanes>(out: &mut [f32], n: usize, a: &[f32], b: &[f32]) {
        let (k, rows) = super::block_dims(out.len(), n, a.len(), b.len());
        let g = L::W / 8;
        let n4 = n - n % 4;
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < rows {
            // Two registers of rows, then one, then (16 lanes) a last row
            // in an 8-lane register.
            let step = match rows - i {
                left if left >= 2 * g => 2 * g,
                left if left >= g => g,
                _ => 1,
            };
            for j in (0..n4).step_by(4) {
                // SAFETY: `L`'s feature (which includes AVX2) is the
                // caller's contract. By `block_dims` rows `i..i + step` of
                // `a` (i + step <= rows) and rows `j..j + 4` of `b`
                // (j + 4 <= n4 <= n) are whole `k`-float rows of their
                // slices, and `out[r·n + j..][..4]` lies in row `r` of
                // `out` for those `r`.
                unsafe {
                    let (o, a_rows, b_rows) = (op.add(i * n + j), ap.add(i * k), bp.add(j * k));
                    if step == 2 * g {
                        dot_tile::<L, 2>(o, n, a_rows, b_rows, k);
                    } else if step == g {
                        dot_tile::<L, 1>(o, n, a_rows, b_rows, k);
                    } else {
                        dot_tile::<F32x8, 1>(o, n, a_rows, b_rows, k);
                    }
                }
            }
            for r in i..i + step {
                for j in n4..n {
                    // SAFETY: AVX2 is part of the caller's contract.
                    out[r * n + j] = unsafe { dot(&a[r * k..(r + 1) * k], &b[j * k..(j + 1) * k]) };
                }
            }
            i += step;
        }
    }

    /// One register tile of [`head_dots`]: the four dots of segments
    /// `0..4` of `a` with segments `0..4` of `b` (`k` floats each,
    /// consecutive), written to `out[0..4]`. Four independent add chains
    /// where one segment's `dot` has one, and one horizontal fold for all
    /// four — `dot_tile`'s.
    ///
    /// # Safety
    /// The CPU must support AVX2. `a` and `b` must be valid for reads of
    /// `4 · k` floats and `out` for writes of 4.
    #[inline(always)]
    // sar-check: deterministic(fixed-lane-order: every dot of the tile
    // accumulates its own 8 lanes over ascending i, folds them in the
    // `reduce_lanes` tree, then adds its tail sequentially — the scalar
    // `dot` sequence, four of them side by side)
    unsafe fn head_dot_tile(out: *mut f32, a: *const f32, b: *const f32, k: usize) {
        let main = k - k % 8;
        // SAFETY: AVX2 and the `4 · k` floats are the caller's contract;
        // i + 8 <= main <= k keeps every load inside its segment. mul +
        // add kept separate (no FMA): lane `l` of `acc[c]` sees the scalar
        // path's `lanes[l] += a[c][8i+l] * b[c][8i+l]` sequence.
        unsafe {
            let mut acc = [F32x8::zero(); 4];
            for i in (0..main).step_by(8) {
                for (c, s) in acc.iter_mut().enumerate() {
                    let x = F32x8::load(a.add(c * k + i));
                    let y = F32x8::load(b.add(c * k + i));
                    *s = F32x8::add(*s, F32x8::mul(x, y));
                }
            }
            finish4(out, F32x8::fold4(acc)[0], (a, k), (b, k), main, k);
        }
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[inline(always)]
    pub(super) unsafe fn head_dots(out: &mut [f32], a: &[f32], b: &[f32]) {
        let d = super::check_head_dots(out.len(), a.len(), b.len());
        let h4 = out.len() - out.len() % 4;
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        for s in (0..h4).step_by(4) {
            // SAFETY: AVX2 is the caller's contract; `check_head_dots`
            // made `a` and `b` `out.len()` whole `d`-float segments, and
            // segments `s..s + 4` (s + 4 <= h4) are `4 · d` of their
            // floats, `out[s..s + 4]` four of `out`'s.
            unsafe { head_dot_tile(op.add(s), ap.add(s * d), bp.add(s * d), d) };
        }
        for s in h4..out.len() {
            // SAFETY: AVX2 is the caller's contract.
            out[s] = unsafe { dot(&a[s * d..(s + 1) * d], &b[s * d..(s + 1) * d]) };
        }
    }

    // -----------------------------------------------------------------
    // Register strips: a row's columns held in registers while a list of
    // rows streams past them
    // -----------------------------------------------------------------

    /// One register tile of [`panel_axpy`]: columns `0..W·FULL + tail` of
    /// `R` output rows (`ldo` floats apart) stay in `FULL` full registers
    /// per row plus, when `TAIL`, one whose lanes `>= tail` are dead; the
    /// panel's `cnt` rows stream past them, each B vector loaded once for
    /// all `R` rows.
    ///
    /// # Safety
    /// The CPU must support `L`'s feature. For every `r < R`, `out +
    /// r·ldo` must be valid for reads and writes of `W·FULL + tail`
    /// floats; `b + kk·ldb` for reads of as many and `a + r·a_row +
    /// kk·a_kk` for a read of one, for every `kk < cnt`. `tail` must be
    /// in `1..W` when `TAIL` (it is unused otherwise).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    // sar-check: deterministic(one writer per element, fixed ascending-kk
    // order: acc lane j of row r takes `+ a[r][kk] * b[kk][j]` for kk = 0,
    // 1, … with the same zero skips as the scalar loop — a skip is a
    // branch for one row and a lane mask for four — the running sum lives
    // in a register instead of `out[r][j]`, nothing is reassociated; dead
    // tail lanes are never stored)
    unsafe fn panel_tile<L: Lanes, const R: usize, const FULL: usize, const TAIL: bool>(
        (out, ldo): (*mut f32, usize),
        tail: usize,
        (a, a_row, a_kk): (*const f32, usize, usize),
        cnt: usize,
        (b, ldb): (*const f32, usize),
    ) {
        // SAFETY: `L`'s feature and the pointer ranges are the caller's
        // contract: per row the `FULL` unmasked loads and stores cover
        // floats `0..W·FULL`, and the masked ones only the live lanes,
        // floats `W·FULL..W·FULL + tail` (dead lanes read as 0.0 and
        // cannot fault); kk < cnt keeps every `a` and `b` read inside
        // its row. mul and add stay separate instructions (no FMA): two
        // roundings, as `scalar::axpy`.
        unsafe {
            let mask = L::mask(if TAIL { tail } else { 0 });
            let mut acc = [[L::zero(); FULL]; R];
            let mut acc_t = [L::zero(); R];
            for (r, (acc_r, t)) in acc.iter_mut().zip(&mut acc_t).enumerate() {
                let o = out.add(r * ldo);
                for (v, s) in acc_r.iter_mut().enumerate() {
                    *s = L::load(o.add(L::W * v));
                }
                if TAIL {
                    *t = L::load_part(o.add(L::W * FULL), mask);
                }
            }
            for kk in 0..cnt {
                let row = b.add(kk * ldb);
                let a_at = a.add(kk * a_kk);
                if R == 1 {
                    // One row: skip the step outright.
                    let av = *a_at;
                    if av == 0.0 {
                        continue;
                    }
                    let avv = L::splat(av);
                    for (v, s) in acc[0].iter_mut().enumerate() {
                        *s = L::add(*s, L::mul(avv, L::load(row.add(L::W * v))));
                    }
                    if TAIL {
                        let x = L::load_part(row.add(L::W * FULL), mask);
                        acc_t[0] = L::add(acc_t[0], L::mul(avv, x));
                    }
                    continue;
                }
                // Several rows share the B vectors; a row whose `a` is
                // zero keeps its sums through the lane mask.
                let mut x = [L::zero(); FULL];
                for (v, xv) in x.iter_mut().enumerate() {
                    *xv = L::load(row.add(L::W * v));
                }
                let xt = if TAIL {
                    L::load_part(row.add(L::W * FULL), mask)
                } else {
                    L::zero()
                };
                for (r, (acc_r, t)) in acc.iter_mut().zip(&mut acc_t).enumerate() {
                    let avv = L::splat(*a_at.add(r * a_row));
                    let keep = L::nonzero(avv);
                    for (s, &xv) in acc_r.iter_mut().zip(&x) {
                        *s = L::add_where(keep, *s, L::mul(avv, xv));
                    }
                    if TAIL {
                        *t = L::add_where(keep, *t, L::mul(avv, xt));
                    }
                }
            }
            for (r, (acc_r, &t)) in acc.iter().zip(&acc_t).enumerate() {
                let o = out.add(r * ldo);
                for (v, &s) in acc_r.iter().enumerate() {
                    L::store(o.add(L::W * v), s);
                }
                if TAIL {
                    L::store_part(o.add(L::W * FULL), mask, t);
                }
            }
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    pub(super) unsafe fn panel_axpy<L: Lanes>(
        out: &mut [f32],
        n: usize,
        a: &[f32],
        (a_row, a_kk): (usize, usize),
        b: &[f32],
    ) {
        let Some((rows, cnt)) = super::check_panel(out.len(), n, a.len(), (a_row, a_kk), b.len())
        else {
            return;
        };
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        // One pass over the panel per strip of up to 64 columns and
        // `L::ROWS` rows; the last one to three rows take one pass
        // together, since each pass streams the whole panel.
        for c0 in (0..n).step_by(64) {
            let w = (n - c0).min(64);
            let (full, tail) = (w / L::W, w % L::W);
            let mut r = 0;
            while r < rows {
                let tile_rows = (rows - r).min(L::ROWS);
                // SAFETY: `L`'s feature is the caller's contract. Columns
                // `c0..c0 + w` (w = W·full + tail) lie inside every
                // `n`-float row of `out` and of `b`, rows `r..r +
                // tile_rows` are rows of `out`, and `check_panel` bounds
                // `(rows − 1)·a_row + (cnt − 1)·a_kk` inside `a`.
                unsafe {
                    let o = (op.add(r * n + c0), n);
                    let av = (ap.add(r * a_row), a_row, a_kk);
                    let bv = (bp.add(c0), n);
                    match tile_rows {
                        1 => strip_tile!(L, full, tail, |F, T| panel_tile::<L, 1, F, T>(
                            o, tail, av, cnt, bv
                        )),
                        2 => strip_tile!(L, full, tail, |F, T| panel_tile::<L, 2, F, T>(
                            o, tail, av, cnt, bv
                        )),
                        3 => strip_tile!(L, full, tail, |F, T| panel_tile::<L, 3, F, T>(
                            o, tail, av, cnt, bv
                        )),
                        _ => strip_tile!(L, full, tail, |F, T| panel_tile::<L, 4, F, T>(
                            o, tail, av, cnt, bv
                        )),
                    }
                }
                r += tile_rows;
            }
        }
    }

    /// One register tile of [`gather_sum`]: columns `0..W·FULL + tail` of
    /// the row at `out` stay in registers exactly as in [`panel_tile`],
    /// and the rows of `x` that `idx` names stream past them.
    ///
    /// # Safety
    /// The CPU must support `L`'s feature. `out` must be valid for reads
    /// and writes of `W·FULL + tail` floats and `x + i·n` for reads of as
    /// many for every `i` in `idx`; `tail` must be in `1..W` when `TAIL`
    /// (it is unused otherwise).
    #[inline(always)]
    // sar-check: deterministic(one writer per element, fixed list order:
    // acc lane j takes `+ x[idx[k]][j]` for k = 0, 1, … — the additions of
    // one scalar `add_assign` per index, with the running sum in a
    // register instead of `out[j]`; dead tail lanes are never stored)
    unsafe fn gather_tile<L: Lanes, const FULL: usize, const TAIL: bool>(
        out: *mut f32,
        tail: usize,
        x: *const f32,
        n: usize,
        idx: &[u32],
    ) {
        // SAFETY: `L`'s feature and the pointer ranges are the caller's
        // contract: the `FULL` unmasked loads and stores cover floats
        // `0..W·FULL` of each row, the masked ones only the live lanes,
        // floats `W·FULL..W·FULL + tail` (dead lanes read as 0.0 and
        // cannot fault), and every `i` is in `idx`.
        unsafe {
            let mask = L::mask(if TAIL { tail } else { 0 });
            let mut acc = [L::zero(); FULL];
            for (v, s) in acc.iter_mut().enumerate() {
                *s = L::load(out.add(L::W * v));
            }
            let mut acc_t = if TAIL {
                L::load_part(out.add(L::W * FULL), mask)
            } else {
                L::zero()
            };
            for &i in idx {
                let row = x.add(i as usize * n);
                for (v, s) in acc.iter_mut().enumerate() {
                    *s = L::add(*s, L::load(row.add(L::W * v)));
                }
                if TAIL {
                    acc_t = L::add(acc_t, L::load_part(row.add(L::W * FULL), mask));
                }
            }
            for (v, &s) in acc.iter().enumerate() {
                L::store(out.add(L::W * v), s);
            }
            if TAIL {
                L::store_part(out.add(L::W * FULL), mask, acc_t);
            }
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    pub(super) unsafe fn gather_sum<L: Lanes>(out: &mut [f32], x: &[f32], idx: &[u32]) {
        let n = out.len();
        super::check_gather("gather_sum", n, x.len(), idx);
        let (op, xp) = (out.as_mut_ptr(), x.as_ptr());
        // One pass over the index list per strip of up to 64 columns.
        for c0 in (0..n).step_by(64) {
            let w = (n - c0).min(64);
            let (full, tail) = (w / L::W, w % L::W);
            // SAFETY: `L`'s feature is the caller's contract. Columns
            // `c0..c0 + w` (w = W·full + tail) lie inside the `n`-long
            // `out`, and `check_gather` found `x` to be whole `n`-float
            // rows with every index of `idx` naming one, so the same
            // columns lie inside row `i` of `x` for every `i` in `idx`.
            unsafe {
                strip_tile!(L, full, tail, |F, T| gather_tile::<L, F, T>(
                    op.add(c0),
                    tail,
                    xp.add(c0),
                    n,
                    idx
                ))
            }
        }
    }

    /// One register tile of [`weighted_gather`]: `G` segments, `seg`
    /// floats apart, each with the `W·FULL + tail` columns of its strip in
    /// `FULL` full registers plus, when `TAIL`, one whose lanes `>= tail`
    /// are dead — at most twelve in all. The rows of `x` that `idx` names
    /// stream past them, and each index's step for each segment (steps
    /// `s0..s0 + G` of its `segs`) is applied to that segment's
    /// registers.
    ///
    /// # Safety
    /// The CPU must support `L`'s feature. For every `g < G`, `out +
    /// g·seg` must be valid for reads and writes of `W·FULL + tail` floats
    /// and `x + i·n + g·seg` for reads of as many for every `i` in `idx`;
    /// `tail` must be in `1..W` when `TAIL` (it is unused otherwise).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    // sar-check: deterministic(one writer per element, fixed list order:
    // acc lane j of segment g takes, for k = 0, 1, …, `* scale` then
    // `+ w * x[idx[k]][j]` as step (k, g) says — the operations of one
    // scalar `scale` and one `axpy` per step, with the running sum in a
    // register instead of `out[j]`; dead tail lanes are never stored)
    unsafe fn weighted_tile<L: Lanes, const FULL: usize, const TAIL: bool, const G: usize>(
        out: *mut f32,
        seg: usize,
        tail: usize,
        x: *const f32,
        n: usize,
        idx: &[u32],
        steps: &[super::Step],
        (s0, segs): (usize, usize),
    ) {
        // SAFETY: `L`'s feature and the pointer ranges are the caller's
        // contract: for each segment the `FULL` unmasked loads and stores
        // cover floats `0..W·FULL` of its strip, the masked ones only the
        // live lanes, floats `W·FULL..W·FULL + tail` (dead lanes read as
        // 0.0 and cannot fault), and every `i` is in `idx`.
        unsafe {
            let mask = L::mask(if TAIL { tail } else { 0 });
            let mut acc = [[L::zero(); FULL]; G];
            let mut acc_t = [L::zero(); G];
            for (g, (a, t)) in acc.iter_mut().zip(&mut acc_t).enumerate() {
                let o = out.add(g * seg);
                for (v, r) in a.iter_mut().enumerate() {
                    *r = L::load(o.add(L::W * v));
                }
                if TAIL {
                    *t = L::load_part(o.add(L::W * FULL), mask);
                }
            }
            for (&i, row_steps) in idx.iter().zip(steps.chunks_exact(segs)) {
                let accs = acc.iter_mut().zip(&mut acc_t);
                for (g, (&step, (a, t))) in row_steps[s0..s0 + G].iter().zip(accs).enumerate() {
                    // mul and add stay separate instructions (no FMA), and
                    // each keeps the scalar body's operand order: `acc * c`
                    // as `scale`, `acc + w * x` as `axpy`.
                    let w = match step {
                        super::Step::Skip => continue,
                        super::Step::Add(w) => w,
                        super::Step::RescaleAdd { scale, w } => {
                            let c = L::splat(scale);
                            for r in a.iter_mut() {
                                *r = L::mul(*r, c);
                            }
                            if TAIL {
                                *t = L::mul(*t, c);
                            }
                            w
                        }
                    };
                    let wv = L::splat(w);
                    let xs = x.add(i as usize * n + g * seg);
                    for (v, r) in a.iter_mut().enumerate() {
                        *r = L::add(*r, L::mul(wv, L::load(xs.add(L::W * v))));
                    }
                    if TAIL {
                        let xt = L::load_part(xs.add(L::W * FULL), mask);
                        *t = L::add(*t, L::mul(wv, xt));
                    }
                }
            }
            for (g, (a, &t)) in acc.iter().zip(&acc_t).enumerate() {
                let o = out.add(g * seg);
                for (v, &r) in a.iter().enumerate() {
                    L::store(o.add(L::W * v), r);
                }
                if TAIL {
                    L::store_part(o.add(L::W * FULL), mask, t);
                }
            }
        }
    }

    /// Calls `$call` with the const items `$f: usize`, `$t: bool` and
    /// `$g: usize` set to the one `(FULL, TAIL, G)` that `$key` names, out
    /// of those [`weighted_gather`] asks for: `G` segments whose strips of
    /// `FULL` registers of `$lanes` plus a masked tail take at most twelve
    /// registers together (a 64-column strip for `G = 1`).
    macro_rules! seg_tile {
        ($lanes:ty, $key:expr, |$f:ident, $t:ident, $g:ident| $call:expr) => {
            seg_tile!(@arms $lanes, $key, $f, $t, $g, $call, [
                (0, true, 4), (1, false, 4), (1, true, 4), (2, false, 4), (2, true, 4),
                (3, false, 4),
                (0, true, 2), (1, false, 2), (1, true, 2), (2, false, 2), (2, true, 2),
                (3, false, 2), (3, true, 2), (4, false, 2), (4, true, 2), (5, false, 2),
                (5, true, 2), (6, false, 2),
                (0, true, 1), (1, false, 1), (1, true, 1), (2, false, 1), (2, true, 1),
                (3, false, 1), (3, true, 1), (4, false, 1), (4, true, 1), (5, false, 1),
                (5, true, 1), (6, false, 1), (6, true, 1), (7, false, 1), (7, true, 1),
                (8, false, 1)
            ])
        };
        (@arms $lanes:ty, $key:expr, $f:ident, $t:ident, $g:ident, $call:expr,
            [$(($fv:literal, $tv:literal, $gv:literal)),*]) => {
            match $key {
                $(($fv, $tv, $gv) if $fv * <$lanes as Lanes>::W + $tv as usize <= 64 => {
                    const $f: usize = $fv;
                    const $t: bool = $tv;
                    const $g: usize = $gv;
                    $call
                })*
                _ => unreachable!("no tile for this segment shape"),
            }
        };
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    pub(super) unsafe fn weighted_gather<L: Lanes>(
        out: &mut [f32],
        segs: usize,
        x: &[f32],
        idx: &[u32],
        steps: &[super::Step],
    ) {
        let n = out.len();
        if !super::check_weighted(n, segs, x.len(), idx, steps.len()) {
            return;
        }
        let seg = n / segs;
        // Segments of up to three registers go four at a time, of up to
        // six two at a time, wider ones one at a time; a segment wider
        // than 64 columns is cut into 64-column strips (one pass over the
        // list per strip).
        let widest = match seg.div_ceil(L::W) {
            ..=3 => 4,
            4..=6 => 2,
            _ => 1,
        };
        let (op, xp) = (out.as_mut_ptr(), x.as_ptr());
        let mut s0 = 0;
        while s0 < segs {
            let g = [4, 2, 1]
                .into_iter()
                .find(|&g| g <= widest && s0 + g <= segs)
                .unwrap_or(1);
            for c0 in (0..seg).step_by(64) {
                let w = (seg - c0).min(64);
                let (full, tail) = (w / L::W, w % L::W);
                let at = s0 * seg + c0;
                // SAFETY: `L`'s feature is the caller's contract. Columns
                // `c0..c0 + w` of segments `s0..s0 + g` (`s0 + g <= segs`)
                // lie inside the `n`-long `out`, and `check_weighted` found
                // `x` to be whole `n`-float rows with every index of `idx`
                // naming one, so the same columns lie inside row `i` of `x`
                // for every `i` in `idx`. `w = W·full + tail` is at most 64,
                // and at most three registers when `g == 4`, six when
                // `g == 2` (`widest`), which the tile list covers.
                unsafe {
                    seg_tile!(
                        L,
                        (full, tail != 0, g),
                        |F, T, G| weighted_tile::<L, F, T, G>(
                            op.add(at),
                            seg,
                            tail,
                            xp.add(at),
                            n,
                            idx,
                            steps,
                            (s0, segs)
                        )
                    )
                }
            }
            s0 += g;
        }
    }

    /// # Safety
    /// The CPU must support `L`'s feature.
    #[inline(always)]
    pub(super) unsafe fn peak_probe<L: Lanes>(steps: usize) -> f32 {
        // The scalar body's eight 8-lane accumulators, `W / 8` of them per
        // register: register `u` holds accumulators `u`, `u + 4`, … in its
        // lane groups, so lane group `h` multiplies `x[u / 4 + h]` by
        // `m[u % 4]` — one `x` register for every four accumulator
        // registers, as the scalar body has one `x` row for every four
        // accumulators.
        let regs = 64 / L::W;
        let mut lanes = [[0.0f32; 8]; 8];
        // SAFETY: `L`'s feature is the caller's contract; every load and
        // store covers one `[f32; 16]` buffer's first W <= 16 floats.
        unsafe {
            let mut x = [L::zero(); 2];
            for (xi, xr) in x.iter_mut().enumerate().take(regs / 4) {
                let mut buf = [0.0f32; 16];
                for (q, b) in buf.iter_mut().enumerate().take(L::W) {
                    *b = super::PEAK_PROBE_X[xi + q / 8][q % 8];
                }
                *xr = L::load(buf.as_ptr());
            }
            let m = super::PEAK_PROBE_M.map(|ml| L::splat(ml));
            let mut acc = [L::zero(); 8];
            for _ in 0..steps {
                for (u, r) in acc.iter_mut().enumerate().take(regs) {
                    // mul then add, never fused: the scalar body's
                    // `*a += xl * m`.
                    *r = L::add(*r, L::mul(x[u / 4], m[u % 4]));
                }
                // Flipping the sign bit is the scalar body's `-xl`.
                for xr in x.iter_mut().take(regs / 4) {
                    *xr = L::neg(*xr);
                }
            }
            for (u, &r) in acc.iter().enumerate().take(regs) {
                let mut buf = [0.0f32; 16];
                L::store(buf.as_mut_ptr(), r);
                for (q, &v) in buf.iter().enumerate().take(L::W) {
                    lanes[u + 4 * (q / 8)][q % 8] = v;
                }
            }
        }
        lanes.iter().flatten().sum()
    }
}

/// The public kernel set of a vector body: each one a `#[target_feature]`
/// function that instantiates the generic body of the same name in
/// `x86` with this module's lane type `L` (the 8-lane dots with `F32x8`
/// whatever `L` is).
macro_rules! isa_body {
    ($feature:literal) => {
        isa_body!(@wrap $feature;
            add_assign(dst: &mut [f32], src: &[f32]) = add_assign::<L>;
            add_into(dst: &mut [f32], a: &[f32], b: &[f32]) = add_into::<L>;
            axpy(a: f32, x: &[f32], dst: &mut [f32]) = axpy::<L>;
            scale(dst: &mut [f32], a: f32) = scale::<L>;
            div_assign(dst: &mut [f32], den: &[f32]) = div_assign::<L>;
            div_scalar(dst: &mut [f32], den: f32) = div_scalar::<L>;
            leaky_relu(dst: &mut [f32], slope: f32) = leaky_relu::<L>;
            dot(a: &[f32], b: &[f32]) -> f32 = dot;
            dot_block(out: &mut [f32], n: usize, a: &[f32], b: &[f32]) = dot_block::<L>;
            head_dots(out: &mut [f32], a: &[f32], b: &[f32]) = head_dots;
            panel_axpy(
                out: &mut [f32], n: usize, a: &[f32], strides: (usize, usize), b: &[f32]
            ) = panel_axpy::<L>;
            gather_sum(out: &mut [f32], x: &[f32], idx: &[u32]) = gather_sum::<L>;
            weighted_gather(
                out: &mut [f32], segs: usize, x: &[f32], idx: &[u32], steps: &[super::Step]
            ) = weighted_gather::<L>;
            peak_probe(steps: usize) -> f32 = peak_probe::<L>;
        );
    };
    (@wrap $feature:literal; $(
        $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $f:ident $(::<$g:ty>)?;
    )*) => {$(
        /// # Safety
        /// The CPU must support this module's target feature.
        #[target_feature(enable = $feature)]
        pub unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
            // SAFETY: the feature this function is compiled for is its
            // caller's contract, and it covers `L`'s (and AVX2, for the
            // 8-lane dots).
            unsafe { super::x86::$f $(::<$g>)?($($arg),*) }
        }
    )*};
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    type L = super::x86::F32x8;
    isa_body!("avx2");
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    type L = super::x86::F32x16;
    isa_body!("avx512f");
}

// ---------------------------------------------------------------------
// Dispatching entry points
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($name:ident, $($arg:expr),*) => {{
        #[cfg(target_arch = "x86_64")]
        match body() {
            // SAFETY: `body()` names a vector body only where
            // `detected()` found the CPU to support its feature.
            Body::Avx512 => return unsafe { avx512::$name($($arg),*) },
            // SAFETY: as above.
            Body::Avx2 => return unsafe { avx2::$name($($arg),*) },
            Body::Scalar => {}
        }
        scalar::$name($($arg),*)
    }};
}

/// `dst[i] += src[i]`, vectorized when available.
#[inline]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    dispatch!(add_assign, dst, src)
}

/// `dst[i] = a[i] + b[i]`, vectorized when available.
#[inline]
pub fn add_into(dst: &mut [f32], a: &[f32], b: &[f32]) {
    dispatch!(add_into, dst, a, b)
}

/// `dst[i] += a * x[i]` (mul then add, never fused), vectorized when
/// available.
#[inline]
pub fn axpy(a: f32, x: &[f32], dst: &mut [f32]) {
    dispatch!(axpy, a, x, dst)
}

/// `dst[i] *= a`, vectorized when available.
#[inline]
pub fn scale(dst: &mut [f32], a: f32) {
    dispatch!(scale, dst, a)
}

/// `dst[i] /= den[i]`, vectorized when available.
#[inline]
pub fn div_assign(dst: &mut [f32], den: &[f32]) {
    dispatch!(div_assign, dst, den)
}

/// In-place LeakyReLU, vectorized when available.
#[inline]
pub fn leaky_relu(dst: &mut [f32], slope: f32) {
    dispatch!(leaky_relu, dst, slope)
}

/// Fixed-tree dot product, vectorized when available. Bitwise identical
/// to [`scalar::dot`] on every input.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(dot, a, b)
}

/// A block of fixed-tree dot products, the inner kernel of `matmul_nt`:
/// with `b` holding `n` rows of `k = b.len() / n` floats and `a` as many
/// `k`-float rows as `out` has `n`-float rows, `out[i · n + j]` becomes
/// the dot of row `i` of `a` and row `j` of `b`. The vector bodies
/// compute them in register tiles of 2 (AVX2) or 4 (AVX-512) rows × 4
/// dots that share their operand loads; every dot keeps its own 8 lanes,
/// the `reduce_lanes` tree and the sequential tail, so the result is
/// bitwise identical to one [`scalar::dot`] per element on every input.
///
/// # Panics
///
/// Panics if the three lengths are not `[r, n]`, `[r, k]`, `[n, k]`.
#[inline]
pub fn dot_block(out: &mut [f32], n: usize, a: &[f32], b: &[f32]) {
    dispatch!(dot_block, out, n, a, b)
}

/// Row-panel accumulate, the inner kernel of `matmul` and `matmul_tn`:
/// `out` holds rows of `n` floats, `b` is a `[b.len() / n, n]` panel, and
/// row `r` of `out` takes `Σ a[r · a_row + kk · a_kk] * b[kk][j]` over
/// the panel's rows `kk` ascending, skipping every `(r, kk)` whose `a` is
/// exactly zero. The vector bodies hold a tile of output rows in
/// registers across the whole panel — one row at a time in AVX2, four in
/// AVX-512 sharing each load of `b` — and each element sees the same
/// separately-rounded multiply-then-add sequence as one [`scalar::axpy`]
/// per `(r, kk)`, so the result is bitwise identical to
/// [`scalar::panel_axpy`] on every input.
///
/// # Panics
///
/// Panics if `out` or `b` is not whole rows of `n` floats, or if `a` is
/// shorter than `(rows − 1) · a_row + (b.len() / n − 1) · a_kk + 1`.
#[inline]
pub fn panel_axpy(out: &mut [f32], n: usize, a: &[f32], strides: (usize, usize), b: &[f32]) {
    dispatch!(panel_axpy, out, n, a, strides, b)
}

/// Row gather-accumulate, the inner kernel of `spmm_sum` forward and
/// backward: `out[j] += Σ x[idx[k] · n + j]` over the rows of `x`
/// (`n = out.len()` floats each) that `idx` names, `k` ascending, repeats
/// included. The vector bodies hold the output row in registers across
/// the whole list — loaded once, stored once — and each element sees the
/// same additions in the same order as one [`scalar::add_assign`] per
/// index, so the result is bitwise identical to [`scalar::gather_sum`]
/// on every input.
///
/// # Panics
///
/// Panics, before anything is read or written, if `x.len()` is not a
/// multiple of `n` or an index names no row of `x` (any index does when
/// `n` is zero).
#[inline]
pub fn gather_sum(out: &mut [f32], x: &[f32], idx: &[u32]) {
    dispatch!(gather_sum, out, x, idx)
}

/// Weighted row gather, the inner kernel of the attention kernels' row
/// numerator (with rescales) and source-side gradient (with skips):
/// `out` is `segs` segments of `d = out.len() / segs` floats, `x` rows of
/// `out.len()`, and for every index `k` ascending and every segment `s`
/// the step `steps[k · segs + s]` applies to segment `s` of `out` what it
/// says with segment `s` of row `idx[k]` of `x`. The vector bodies hold
/// the output row in registers across the whole list — segments of up
/// to 64 columns several at a time, wider ones in 64-column strips — and
/// each element sees the same separately-rounded multiplies and adds in
/// the same order as one [`scalar::scale`] / [`scalar::axpy`] per step,
/// so the result is bitwise identical to [`scalar::weighted_gather`] on
/// every input.
///
/// # Panics
///
/// Panics, before anything is read or written, if `segs` is zero or
/// does not divide `out.len()`, if there is not one step per (index,
/// segment), or — for a non-empty `out` — on a `gather_sum` violation:
/// `x` not whole rows, or an index naming no row of `x`.
#[inline]
pub fn weighted_gather(out: &mut [f32], segs: usize, x: &[f32], idx: &[u32], steps: &[Step]) {
    dispatch!(weighted_gather, out, segs, x, idx, steps)
}

/// Segment-wise fixed-tree dots: `out[s]` becomes the [`dot`] of segment
/// `s` of `a` and segment `s` of `b`, both cut into `out.len()` equal
/// segments — `⟨g, x⟩` per attention head. The vector bodies compute four
/// segments at a time in one register tile, each keeping its own 8 lanes,
/// the `reduce_lanes` tree and the sequential tail, so the result is
/// bitwise identical to one [`scalar::dot`] per segment on every input.
///
/// # Panics
///
/// Panics if `a` and `b` differ in length or are not `out.len()` whole
/// segments.
#[inline]
pub fn head_dots(out: &mut [f32], a: &[f32], b: &[f32]) {
    dispatch!(head_dots, out, a, b)
}

/// `dst[i] /= den`, vectorized when available.
#[inline]
pub fn div_scalar(dst: &mut [f32], den: f32) {
    dispatch!(div_scalar, dst, den)
}

/// Compute-peak probe for `repro kernelbench`'s calibration: `steps`
/// rounds of an unfused multiply + add into eight register-resident
/// 8-lane accumulators (`128 · steps` FLOPs, no memory traffic, the
/// multiply off the add's dependency chain as in the matmul kernels) —
/// eight registers in the AVX2 body, four in the AVX-512 one — through
/// the same dispatch as every kernel, so each `--simd` mode measures the
/// body its kernels run. Returns the accumulators' sum.
#[inline]
pub fn peak_probe(steps: usize) -> f32 {
    dispatch!(peak_probe, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the mode flips of this binary's tests, which run
    /// concurrently: a flip never changes a result, but would change
    /// which body another test's label names.
    static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `f` once under every body this CPU has (scalar, AVX2,
    /// AVX-512), with the body's label.
    fn for_each_body(mut f: impl FnMut(&str)) {
        let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut seen = Vec::new();
        for mode in [SimdMode::ForceScalar, SimdMode::Avx2, SimdMode::Auto] {
            set_mode(mode);
            let label = dispatch_label();
            if !seen.contains(&label) {
                seen.push(label);
                f(label);
            }
        }
        set_mode(SimdMode::Auto);
    }

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        // Deterministic, poorly-conditioned values so reassociation
        // differences would actually show up in the bits.
        let a: Vec<f32> = (0..n)
            .map(|i| ((i * 2654435761 % 1000) as f32 - 500.0) * 1.0e-3 * (1.0 + i as f32))
            .collect();
        let b: Vec<f32> = (0..n)
            .map(|i| ((i * 40503 % 997) as f32 - 498.0) * 2.5e-4 * (1.0 + (i % 17) as f32))
            .collect();
        (a, b)
    }

    #[test]
    fn every_flag_value_names_its_mode() {
        for (name, mode) in [
            ("auto", SimdMode::Auto),
            ("avx2", SimdMode::Avx2),
            ("scalar", SimdMode::ForceScalar),
        ] {
            assert_eq!(parse_mode(name), Some(mode), "--simd {name}");
        }
        assert_eq!(parse_mode("off"), None);
        assert_eq!(parse_mode("sse"), None);
        assert_eq!(parse_mode("avx512"), None);
    }

    #[test]
    fn dispatched_matches_scalar_bitwise_all_lengths() {
        let mut ran = Vec::new();
        for_each_body(|body| {
            ran.push(body.to_string());
            for n in [
                0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 47, 63, 64, 65, 100, 1023,
            ] {
                let (a, b) = vecs(n);
                let what = |op: &str| format!("{op} n={n} body={body}");

                let mut d1 = a.clone();
                let mut d2 = a.clone();
                add_assign(&mut d1, &b);
                scalar::add_assign(&mut d2, &b);
                assert_eq!(bits(&d1), bits(&d2), "{}", what("add_assign"));

                let mut d1 = vec![0.0; n];
                let mut d2 = vec![0.0; n];
                add_into(&mut d1, &a, &b);
                scalar::add_into(&mut d2, &a, &b);
                assert_eq!(bits(&d1), bits(&d2), "{}", what("add_into"));

                let mut d1 = a.clone();
                let mut d2 = a.clone();
                axpy(0.37, &b, &mut d1);
                scalar::axpy(0.37, &b, &mut d2);
                assert_eq!(bits(&d1), bits(&d2), "{}", what("axpy"));

                let mut d1 = a.clone();
                let mut d2 = a.clone();
                scale(&mut d1, -1.7);
                scalar::scale(&mut d2, -1.7);
                assert_eq!(bits(&d1), bits(&d2), "{}", what("scale"));

                let den: Vec<f32> = b.iter().map(|x| x.abs() + 0.5).collect();
                let mut d1 = a.clone();
                let mut d2 = a.clone();
                div_assign(&mut d1, &den);
                scalar::div_assign(&mut d2, &den);
                assert_eq!(bits(&d1), bits(&d2), "{}", what("div_assign"));

                let mut d1 = a.clone();
                let mut d2 = a.clone();
                div_scalar(&mut d1, 0.37);
                scalar::div_scalar(&mut d2, 0.37);
                assert_eq!(bits(&d1), bits(&d2), "{}", what("div_scalar"));

                // NaN and ±0 take the slope branch, +inf keeps its value.
                let mut src = a.clone();
                for (i, x) in src.iter_mut().enumerate() {
                    match i % 11 {
                        3 => *x = f32::NAN,
                        5 => *x = -0.0,
                        7 => *x = f32::INFINITY,
                        _ => {}
                    }
                }
                let mut d1 = src.clone();
                let mut d2 = src.clone();
                leaky_relu(&mut d1, 0.2);
                scalar::leaky_relu(&mut d2, 0.2);
                assert_eq!(bits(&d1), bits(&d2), "{}", what("leaky_relu"));

                assert_eq!(
                    dot(&a, &b).to_bits(),
                    scalar::dot(&a, &b).to_bits(),
                    "{}",
                    what("dot")
                );
            }
        });
        eprintln!("simd bodies exercised: {}", ran.join(", "));
        assert_eq!(ran[0], "scalar");
    }

    #[test]
    fn peak_probe_matches_scalar_bitwise() {
        for_each_body(|body| {
            for steps in [0usize, 1, 2, 41] {
                assert_eq!(
                    peak_probe(steps).to_bits(),
                    scalar::peak_probe(steps).to_bits(),
                    "peak_probe steps={steps} body={body}"
                );
            }
        });
        // Every accumulator alternates between 0 and its first product.
        let first: f32 = (0..8)
            .flat_map(|v| PEAK_PROBE_X[v / 4].map(|x| x * PEAK_PROBE_M[v % 4]))
            .sum();
        assert_eq!(scalar::peak_probe(40), 0.0);
        assert_eq!(scalar::peak_probe(41), first);
    }

    /// Asserts the scalar body of `gather_sum` refuses the call with
    /// `expected` in its message, then makes the same call through the
    /// dispatching entry point, whose panic the calling `#[should_panic]`
    /// test expects to carry the same text.
    fn refused_by_both_bodies(n: usize, x: &[f32], idx: &[u32], expected: &str) {
        let scalar = std::panic::catch_unwind(|| scalar::gather_sum(&mut vec![0.0; n], x, idx))
            .expect_err("the scalar body accepted the call");
        let msg = scalar.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains(expected), "the scalar body said: {msg}");
        gather_sum(&mut vec![0.0; n], x, idx);
    }

    #[test]
    #[should_panic(expected = "index 3 out of range for 3 rows")]
    fn gather_sum_refuses_an_index_past_the_last_row() {
        refused_by_both_bodies(4, &[1.0; 12], &[0, 3, 1], "index 3 out of range for 3 rows");
    }

    #[test]
    #[should_panic(expected = "x has 13 floats, not a multiple of the row width 4")]
    fn gather_sum_refuses_a_ragged_operand() {
        let expected = "x has 13 floats, not a multiple of the row width 4";
        refused_by_both_bodies(4, &[1.0; 13], &[0], expected);
    }

    #[test]
    #[should_panic(expected = "index 5 out of range for 0 rows of width 0")]
    fn gather_sum_refuses_any_index_into_zero_width_rows() {
        // Nothing to index and nothing to check an index against; an
        // empty list is the one call a zero-width row accepts.
        gather_sum(&mut [], &[], &[]);
        refused_by_both_bodies(0, &[], &[5], "index 5 out of range for 0 rows of width 0");
    }

    #[test]
    #[should_panic(expected = "too few for 3 rows at stride 10 and 4 panel rows at stride 1")]
    fn panel_axpy_refuses_a_short_left_operand() {
        // Rows 0..3 at stride 10 and panel rows 0..4 at stride 1 reach
        // a[23]; 23 floats are one short.
        let (n, b) = (2usize, vec![1.0f32; 8]);
        let short = vec![1.0f32; 23];
        let s = std::panic::catch_unwind(|| {
            scalar::panel_axpy(&mut vec![0.0; 3 * n], n, &short, (10, 1), &b)
        });
        assert!(s.is_err(), "the scalar body accepted the call");
        panel_axpy(&mut vec![0.0; 3 * n], n, &short, (10, 1), &b);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
