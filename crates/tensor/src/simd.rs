//! Runtime-dispatched `f32x8` SIMD primitives with a bitwise-identical
//! portable fallback.
//!
//! Every kernel in the workspace funnels its innermost contiguous-`f32`
//! loop through this module. Two implementations exist per primitive:
//!
//! * an AVX2 path using `std::arch` intrinsics (x86-64 only, selected at
//!   runtime via `is_x86_feature_detected!`), and
//! * a portable scalar path structured as the *same* computation: the
//!   scalar code mirrors the vector lane layout exactly (eight independent
//!   accumulator lanes for reductions, identical horizontal-reduction
//!   tree, identical tail handling), so the two paths produce
//!   bitwise-identical results for every input.
//!
//! The determinism argument, per primitive class:
//!
//! * **Elementwise maps** (`add_assign`, `add_into`, `axpy`, `scale`,
//!   `div_assign`, `div_scalar`, `leaky_relu`): each output element is a fixed IEEE-754
//!   expression of its inputs with no reassociation, so lane width is
//!   irrelevant. The AVX2 paths use separate `_mm256_mul_ps` +
//!   `_mm256_add_ps` (never `_mm256_fmadd_ps` — fused multiply-add rounds
//!   once instead of twice and would change bits).
//! * **Reductions** (`dot`): both paths accumulate into eight lanes —
//!   lane `l` sums `a[8i+l] * b[8i+l]` over `i` — then reduce the lanes
//!   with one fixed tree (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`) and
//!   finally fold the ragged tail in sequentially. Same additions, same
//!   order, on both paths. `dot_block` is many such dots at once: its
//!   vector path runs 2 × 4 of them side by side on shared operand
//!   loads, each in its own accumulator, and folds four accumulators
//!   with `hadd, hadd, lo128 + hi128` — which is that tree. `head_dots`
//!   is one such dot per segment of two rows, four segments per tile
//!   through the same fold.
//! * **Row-panel accumulate** (`panel_axpy`): the vector path keeps the
//!   output row in registers across a whole k-panel instead of loading
//!   and storing it once per `kk`. Per output element the operations are
//!   still one multiply then one add per non-zero `a[kk]`, `kk`
//!   ascending — the register tile changes where the running sum lives,
//!   not what is added to it or in which order.
//! * **Row gather** (`gather_sum`): the same register tile with the rows
//!   an index list names streamed past it — per output element one add
//!   per index, in list order, which is one `add_assign` per index with
//!   the running sum kept in a register.
//! * **Weighted row gather** (`weighted_gather`): the same tile cut into
//!   segments (attention heads), each index carrying one [`Step`] per
//!   segment — skip, `+ w · x`, or `· scale` then `+ w · x` — which is one
//!   `scale` and one `axpy` per step, the running sums in registers.
//!
//! [`set_mode`] installs a process-global override (`ForceScalar`) used by
//! the `--simd` flag of the repro binary to prove end-to-end digest parity
//! with vectorization on vs. off. Because the two paths are bitwise
//! identical, flipping the mode mid-run can never change a result — only
//! throughput.

use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------
// Dispatch mode
// ---------------------------------------------------------------------

/// Global SIMD dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Use the vector path whenever the CPU supports it (default).
    Auto,
    /// Always take the portable scalar path, even on capable CPUs.
    ForceScalar,
}

const MODE_AUTO: u8 = 0;
const MODE_SCALAR: u8 = 1;
static MODE: AtomicU8 = AtomicU8::new(MODE_AUTO);

/// Detection cache: 0 = unknown, 1 = AVX2 available, 2 = not available.
static DETECTED: AtomicU8 = AtomicU8::new(0);

/// Sets the process-global dispatch mode.
///
/// Safe to call at any time from any thread: both paths are bitwise
/// identical, so a mode change can never alter numeric results.
pub fn set_mode(mode: SimdMode) {
    let v = match mode {
        SimdMode::Auto => MODE_AUTO,
        SimdMode::ForceScalar => MODE_SCALAR,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Returns the current dispatch mode.
pub fn mode() -> SimdMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_SCALAR => SimdMode::ForceScalar,
        _ => SimdMode::Auto,
    }
}

/// Parses a `--simd` flag value (`auto` or `scalar`).
pub fn parse_mode(s: &str) -> Option<SimdMode> {
    match s {
        "auto" => Some(SimdMode::Auto),
        "scalar" | "off" => Some(SimdMode::ForceScalar),
        _ => None,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_avx2() -> bool {
    match DETECTED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let has = std::arch::is_x86_feature_detected!("avx2");
            DETECTED.store(if has { 1 } else { 2 }, Ordering::Relaxed);
            has
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx2() -> bool {
    false
}

/// True when calls will take the AVX2 path (CPU capable and not forced
/// scalar). Reported by `repro kernelbench` so BENCH artifacts record
/// which path was measured.
pub fn active() -> bool {
    MODE.load(Ordering::Relaxed) == MODE_AUTO && detect_avx2()
}

/// Human-readable dispatch description for reports ("avx2" / "scalar").
pub fn dispatch_label() -> &'static str {
    if active() {
        "avx2"
    } else {
        "scalar"
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
    /// folds in sequentially afterwards. The AVX2 path performs exactly
    /// these operations in exactly this order.
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

    /// Row-panel accumulate: `out[j] += a[kk · a_stride] * b[kk · n + j]`
    /// for every row `kk` of the `[b.len() / n, n]` panel `b`
    /// (`n = out.len()`), `kk` ascending, one [`axpy`] per `kk` and none
    /// for a `kk` whose `a` is exactly zero (so `0 · inf` never reaches
    /// the sum).
    pub fn panel_axpy(out: &mut [f32], a: &[f32], a_stride: usize, b: &[f32]) {
        let n = out.len();
        if n == 0 {
            return;
        }
        for (kk, b_row) in b.chunks_exact(n).enumerate() {
            let av = a[kk * a_stride];
            if av == 0.0 {
                continue;
            }
            axpy(av, b_row, out);
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
/// are `[rows, n]`, `[rows, k]` and `[n, k]` — the bounds both bodies
/// index by. An empty `out` (`n == 0` included) is zero rows.
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

/// Checks a [`gather_sum`] or [`weighted_gather`] call (`what`) before
/// either body indexes anything: `x` is whole rows of `n` floats and every
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

/// Checks a [`weighted_gather`] call before either body indexes anything
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

/// Fixed horizontal-reduction tree shared by both dot paths.
#[inline]
fn reduce_lanes(l: &[f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

// ---------------------------------------------------------------------
// AVX2 paths
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    // sar-check: deterministic(elementwise: each dst[j] gets exactly one
    // add; vector and scalar tails apply the same per-element operation)
    pub unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
        let n = dst.len().min(src.len());
        let main = n - n % 8;
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= len of both slices; unaligned
            // loads/stores are explicitly `_mm256_loadu/storeu_ps`.
            unsafe {
                let d = _mm256_loadu_ps(dp.add(i));
                let s = _mm256_loadu_ps(sp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, s));
            }
            i += 8;
        }
        for j in main..n {
            dst[j] += src[j];
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_into(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len().min(a.len()).min(b.len());
        let main = n - n % 8;
        let (dp, ap, bp) = (dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= len of all three slices.
            unsafe {
                let x = _mm256_loadu_ps(ap.add(i));
                let y = _mm256_loadu_ps(bp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_add_ps(x, y));
            }
            i += 8;
        }
        for j in main..n {
            dst[j] = a[j] + b[j];
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    // sar-check: deterministic(elementwise: each dst[j] gets exactly one
    // fused multiply-add; vector and scalar tails match per element)
    pub unsafe fn axpy(a: f32, x: &[f32], dst: &mut [f32]) {
        let n = dst.len().min(x.len());
        let main = n - n % 8;
        let (dp, xp) = (dst.as_mut_ptr(), x.as_ptr());
        let av = _mm256_set1_ps(a);
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= len of both slices. mul + add kept
            // separate (two roundings) to match the scalar `d += a * v`.
            unsafe {
                let d = _mm256_loadu_ps(dp.add(i));
                let v = _mm256_loadu_ps(xp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, _mm256_mul_ps(av, v)));
            }
            i += 8;
        }
        for j in main..n {
            dst[j] += a * x[j];
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(dst: &mut [f32], a: f32) {
        let n = dst.len();
        let main = n - n % 8;
        let dp = dst.as_mut_ptr();
        let av = _mm256_set1_ps(a);
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= dst.len().
            unsafe {
                let d = _mm256_loadu_ps(dp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, av));
            }
            i += 8;
        }
        for d in &mut dst[main..n] {
            *d *= a;
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn div_assign(dst: &mut [f32], den: &[f32]) {
        let n = dst.len().min(den.len());
        let main = n - n % 8;
        let (dp, sp) = (dst.as_mut_ptr(), den.as_ptr());
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= len of both slices. IEEE division
            // is correctly rounded, so vector divide == scalar divide.
            unsafe {
                let d = _mm256_loadu_ps(dp.add(i));
                let s = _mm256_loadu_ps(sp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_div_ps(d, s));
            }
            i += 8;
        }
        for (d, s) in dst[main..n].iter_mut().zip(&den[main..n]) {
            *d /= *s;
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    // Tail uses `!(x > 0.0)` (not `x <= 0.0`) so NaN takes the slope
    // branch, exactly matching `_CMP_GT_OQ` + blend.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn leaky_relu(dst: &mut [f32], slope: f32) {
        let n = dst.len();
        let main = n - n % 8;
        let dp = dst.as_mut_ptr();
        let (sv, zero) = (_mm256_set1_ps(slope), _mm256_setzero_ps());
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= dst.len(). The blend keeps `v`
            // where `v > 0` (ordered, non-signaling compare — false for
            // NaN, matching the scalar `!(v > 0.0)` branch) and takes
            // `slope * v` elsewhere; the multiply is the same single
            // IEEE multiply the scalar path performs.
            unsafe {
                let v = _mm256_loadu_ps(dp.add(i));
                let neg = _mm256_mul_ps(sv, v);
                let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
                _mm256_storeu_ps(dp.add(i), _mm256_blendv_ps(neg, v, gt));
            }
            i += 8;
        }
        for d in &mut dst[main..n] {
            if !(*d > 0.0) {
                *d *= slope;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    // sar-check: deterministic(fixed-lane-order: the scalar `dot`
    // sequence — 8 lanes over ascending i, the `reduce_lanes` tree, then
    // the sequential tail)
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let main = n - n % 8;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= len of both slices. mul + add kept
            // separate (no FMA) so lane `l` accumulates exactly the
            // scalar path's `lanes[l] += a[8i+l] * b[8i+l]` sequence.
            unsafe {
                let x = _mm256_loadu_ps(ap.add(i));
                let y = _mm256_loadu_ps(bp.add(i));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(x, y));
            }
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is 8 f32s — exactly one __m256 of storage.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
        let mut out = super::reduce_lanes(&lanes);
        for j in main..n {
            out += a[j] * b[j];
        }
        out
    }

    /// One register tile of [`dot_block`]: the `R × 4` dots of rows
    /// `0..R` of `a` with rows `0..4` of `b` (all `k` long, consecutive),
    /// written to `out[r · n + c]`. Each load of a `b` vector feeds `R`
    /// accumulators and each load of an `a` vector four, and the `4 · R`
    /// independent add chains hide the add latency one dot alone is bound
    /// by.
    ///
    /// # Safety
    /// The CPU must support AVX2. `a` must be valid for reads of `R · k`
    /// floats, `b` of `4 · k`, and `out + r · n` for writes of 4 floats
    /// for every `r < R`.
    #[target_feature(enable = "avx2")]
    // sar-check: deterministic(fixed-lane-order: every dot of the tile
    // accumulates its own 8 lanes over ascending i, folds them in the
    // `reduce_lanes` tree, then adds its tail sequentially — the scalar
    // `dot` sequence; the tile only runs 4·R of them side by side)
    unsafe fn dot_tile<const R: usize>(
        out: *mut f32,
        n: usize,
        a: *const f32,
        b: *const f32,
        k: usize,
    ) {
        let main = k - k % 8;
        let mut acc = [[_mm256_setzero_ps(); 4]; R];
        let mut i = 0;
        while i < main {
            // SAFETY: AVX2 and the `k`-long rows are the caller's
            // contract; i + 8 <= main <= k keeps every 8-float load
            // inside its row. mul + add kept separate (no FMA): lane `l`
            // of `acc[r][c]` sees the scalar path's
            // `lanes[l] += a[r][8i+l] * b[c][8i+l]` sequence.
            unsafe {
                let y: [__m256; 4] = std::array::from_fn(|c| _mm256_loadu_ps(b.add(c * k + i)));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let x = _mm256_loadu_ps(a.add(r * k + i));
                    for (s, &yc) in acc_r.iter_mut().zip(&y) {
                        *s = _mm256_add_ps(*s, _mm256_mul_ps(x, yc));
                    }
                }
            }
            i += 8;
        }
        for (r, acc_r) in acc.iter().enumerate() {
            // hadd(x, y) = [x0+x1, x2+x3, y0+y1, y2+y3 | x4+x5, x6+x7,
            // y4+y5, y6+y7], so two rounds leave ((l0+l1)+(l2+l3)) of dot
            // c in lane c of the low half and ((l4+l5)+(l6+l7)) in lane c
            // of the high half; low + high is `reduce_lanes`' last add.
            let h01 = _mm256_hadd_ps(acc_r[0], acc_r[1]);
            let h23 = _mm256_hadd_ps(acc_r[2], acc_r[3]);
            let h = _mm256_hadd_ps(h01, h23);
            let mut dots = _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps::<1>(h));
            // SAFETY: j < k stays inside row r of `a` and every row of
            // `b`; the store covers the 4 floats at `out + r·n` (caller's
            // contract). Lane c takes `+ a[r][j] * b[c][j]`: the four
            // sequential tails of the scalar path, advanced together.
            unsafe {
                for j in main..k {
                    let x = _mm_set1_ps(*a.add(r * k + j));
                    let y = _mm_setr_ps(
                        *b.add(j),
                        *b.add(k + j),
                        *b.add(2 * k + j),
                        *b.add(3 * k + j),
                    );
                    dots = _mm_add_ps(dots, _mm_mul_ps(x, y));
                }
                _mm_storeu_ps(out.add(r * n), dots);
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_block(out: &mut [f32], n: usize, a: &[f32], b: &[f32]) {
        let (k, rows) = super::block_dims(out.len(), n, a.len(), b.len());
        let n4 = n - n % 4;
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < rows {
            let pair = i + 2 <= rows;
            for j in (0..n4).step_by(4) {
                // SAFETY: AVX2 is the caller's contract. By the assert
                // above rows `i` (and `i + 1` when `pair`) of `a` and
                // rows `j..j + 4` of `b` (j + 4 <= n4 <= n) are whole
                // `k`-float rows of their slices, and `out[r·n + j..][..4]`
                // lies in row `r` of `out` for those `r`.
                unsafe {
                    let (o, a_rows, b_rows) = (op.add(i * n + j), ap.add(i * k), bp.add(j * k));
                    if pair {
                        dot_tile::<2>(o, n, a_rows, b_rows, k);
                    } else {
                        dot_tile::<1>(o, n, a_rows, b_rows, k);
                    }
                }
            }
            let step = if pair { 2 } else { 1 };
            for r in i..i + step {
                for j in n4..n {
                    // SAFETY: AVX2 is the caller's contract.
                    out[r * n + j] = unsafe { dot(&a[r * k..(r + 1) * k], &b[j * k..(j + 1) * k]) };
                }
            }
            i += step;
        }
    }

    /// Lane `l` is live (sign bit set) iff `l < live`; `live` in `0..=8`.
    #[target_feature(enable = "avx2")]
    fn lane_mask(live: usize) -> __m256i {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(live as i32), lanes)
    }

    /// One register tile of [`panel_axpy`]: columns `0..8·FULL + tail` of
    /// the row at `out` stay in `FULL` full accumulators plus, when
    /// `TAIL`, one whose lanes `>= tail` are dead; the panel's `cnt` rows
    /// stream past them.
    ///
    /// # Safety
    /// The CPU must support AVX2. `out` must be valid for reads and
    /// writes of `8·FULL + tail` floats, `b + kk·ldb` for reads of as
    /// many for every `kk < cnt`, and `a + kk·a_stride` for a read of
    /// one; `tail` must be in `1..8` when `TAIL` (it is unused otherwise).
    #[target_feature(enable = "avx2")]
    // sar-check: deterministic(one writer per element, fixed ascending-kk
    // order: acc lane j takes `+ a[kk] * b[kk][j]` for kk = 0, 1, … with
    // the same zero skips as the scalar loop — the running sum lives in a
    // register instead of `out[j]`, nothing is reassociated; dead tail
    // lanes are never stored)
    unsafe fn panel_tile<const FULL: usize, const TAIL: bool>(
        out: *mut f32,
        tail: usize,
        a: *const f32,
        a_stride: usize,
        cnt: usize,
        b: *const f32,
        ldb: usize,
    ) {
        let mask = lane_mask(if TAIL { tail } else { 0 });
        let mut acc = [_mm256_setzero_ps(); FULL];
        let mut acc_t = _mm256_setzero_ps();
        // SAFETY: AVX2 and the pointer ranges are the caller's contract:
        // the `FULL` unmasked loads cover floats `0..8·FULL` of the row,
        // and `maskload` touches only its live lanes, floats
        // `8·FULL..8·FULL + tail` (dead lanes read as 0.0 and cannot
        // fault).
        unsafe {
            for (v, r) in acc.iter_mut().enumerate() {
                *r = _mm256_loadu_ps(out.add(8 * v));
            }
            if TAIL {
                acc_t = _mm256_maskload_ps(out.add(8 * FULL), mask);
            }
        }
        for kk in 0..cnt {
            // SAFETY: kk < cnt, so `a + kk·a_stride` is readable and the
            // same column ranges as above are readable at `b + kk·ldb`
            // (caller's contract). mul and add stay separate
            // instructions (no FMA): two roundings, as `scalar::axpy`.
            unsafe {
                let av = *a.add(kk * a_stride);
                if av == 0.0 {
                    continue;
                }
                let avv = _mm256_set1_ps(av);
                let row = b.add(kk * ldb);
                for (v, r) in acc.iter_mut().enumerate() {
                    let x = _mm256_loadu_ps(row.add(8 * v));
                    *r = _mm256_add_ps(*r, _mm256_mul_ps(avv, x));
                }
                if TAIL {
                    let x = _mm256_maskload_ps(row.add(8 * FULL), mask);
                    acc_t = _mm256_add_ps(acc_t, _mm256_mul_ps(avv, x));
                }
            }
        }
        // SAFETY: the ranges loaded from `out` above, now stored;
        // `maskstore` writes only the live lanes.
        unsafe {
            for (v, r) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.add(8 * v), *r);
            }
            if TAIL {
                _mm256_maskstore_ps(out.add(8 * FULL), mask, acc_t);
            }
        }
    }

    /// Calls `$tile::<FULL, TAIL>(…)` with the one `(FULL, TAIL)` that
    /// covers a strip of `8·$full + $tail` columns, `1..=64` wide: at
    /// most eight accumulators, the last of them masked when `$tail != 0`.
    macro_rules! strip_tile {
        ($full:expr, $tail:expr, $tile:ident($($arg:expr),*)) => {
            match ($full, $tail != 0) {
                (0, true) => $tile::<0, true>($($arg),*),
                (1, false) => $tile::<1, false>($($arg),*),
                (1, true) => $tile::<1, true>($($arg),*),
                (2, false) => $tile::<2, false>($($arg),*),
                (2, true) => $tile::<2, true>($($arg),*),
                (3, false) => $tile::<3, false>($($arg),*),
                (3, true) => $tile::<3, true>($($arg),*),
                (4, false) => $tile::<4, false>($($arg),*),
                (4, true) => $tile::<4, true>($($arg),*),
                (5, false) => $tile::<5, false>($($arg),*),
                (5, true) => $tile::<5, true>($($arg),*),
                (6, false) => $tile::<6, false>($($arg),*),
                (6, true) => $tile::<6, true>($($arg),*),
                (7, false) => $tile::<7, false>($($arg),*),
                (7, true) => $tile::<7, true>($($arg),*),
                (8, false) => $tile::<8, false>($($arg),*),
                _ => unreachable!("a strip is 1..=64 columns wide"),
            }
        };
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn panel_axpy(out: &mut [f32], a: &[f32], a_stride: usize, b: &[f32]) {
        let n = out.len();
        if n == 0 {
            return;
        }
        let cnt = b.len() / n;
        let last = cnt.saturating_sub(1).checked_mul(a_stride);
        assert!(
            cnt == 0 || last.is_some_and(|last| last < a.len()),
            "panel_axpy: `a` is too short for {cnt} panel rows at stride {a_stride}"
        );
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        // One pass over the panel per strip of up to 64 columns.
        let mut c0 = 0;
        while c0 < n {
            let w = (n - c0).min(64);
            let (full, tail) = (w / 8, w % 8);
            // SAFETY: AVX2 is the caller's contract. Columns
            // `c0..c0 + w` (w = 8·full + tail) lie inside the `n`-long
            // `out` and inside each of the `cnt` rows of `b`
            // (`cnt · n <= b.len()`), and the assert above bounds
            // `(cnt − 1) · a_stride` inside `a`.
            unsafe {
                strip_tile!(
                    full,
                    tail,
                    panel_tile(op.add(c0), tail, ap, a_stride, cnt, bp.add(c0), n)
                )
            }
            c0 += w;
        }
    }

    /// One register tile of [`gather_sum`]: columns `0..8·FULL + tail` of
    /// the row at `out` stay in accumulators exactly as in
    /// [`panel_tile`], and the rows of `x` that `idx` names stream past
    /// them.
    ///
    /// # Safety
    /// The CPU must support AVX2. `out` must be valid for reads and
    /// writes of `8·FULL + tail` floats and `x + i·n` for reads of as
    /// many for every `i` in `idx`; `tail` must be in `1..8` when `TAIL`
    /// (it is unused otherwise).
    #[target_feature(enable = "avx2")]
    // sar-check: deterministic(one writer per element, fixed list order:
    // acc lane j takes `+ x[idx[k]][j]` for k = 0, 1, … — the additions of
    // one scalar `add_assign` per index, with the running sum in a
    // register instead of `out[j]`; dead tail lanes are never stored)
    unsafe fn gather_tile<const FULL: usize, const TAIL: bool>(
        out: *mut f32,
        tail: usize,
        x: *const f32,
        n: usize,
        idx: &[u32],
    ) {
        let mask = lane_mask(if TAIL { tail } else { 0 });
        let mut acc = [_mm256_setzero_ps(); FULL];
        let mut acc_t = _mm256_setzero_ps();
        // SAFETY: AVX2 and the pointer ranges are the caller's contract:
        // the `FULL` unmasked loads cover floats `0..8·FULL` of the row,
        // and `maskload` touches only its live lanes, floats
        // `8·FULL..8·FULL + tail` (dead lanes read as 0.0 and cannot
        // fault).
        unsafe {
            for (v, r) in acc.iter_mut().enumerate() {
                *r = _mm256_loadu_ps(out.add(8 * v));
            }
            if TAIL {
                acc_t = _mm256_maskload_ps(out.add(8 * FULL), mask);
            }
        }
        for &i in idx {
            // SAFETY: `i` is in `idx`, so the same column ranges as above
            // are readable at `x + i·n` (caller's contract).
            unsafe {
                let row = x.add(i as usize * n);
                for (v, r) in acc.iter_mut().enumerate() {
                    *r = _mm256_add_ps(*r, _mm256_loadu_ps(row.add(8 * v)));
                }
                if TAIL {
                    acc_t = _mm256_add_ps(acc_t, _mm256_maskload_ps(row.add(8 * FULL), mask));
                }
            }
        }
        // SAFETY: the ranges loaded from `out` above, now stored;
        // `maskstore` writes only the live lanes.
        unsafe {
            for (v, r) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.add(8 * v), *r);
            }
            if TAIL {
                _mm256_maskstore_ps(out.add(8 * FULL), mask, acc_t);
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_sum(out: &mut [f32], x: &[f32], idx: &[u32]) {
        let n = out.len();
        super::check_gather("gather_sum", n, x.len(), idx);
        let (op, xp) = (out.as_mut_ptr(), x.as_ptr());
        // One pass over the index list per strip of up to 64 columns.
        let mut c0 = 0;
        while c0 < n {
            let w = (n - c0).min(64);
            let (full, tail) = (w / 8, w % 8);
            // SAFETY: AVX2 is the caller's contract. Columns
            // `c0..c0 + w` (w = 8·full + tail) lie inside the `n`-long
            // `out`, and `check_gather` found `x` to be whole `n`-float
            // rows with every index of `idx` naming one, so the same
            // columns lie inside row `i` of `x` for every `i` in `idx`.
            unsafe {
                strip_tile!(
                    full,
                    tail,
                    gather_tile(op.add(c0), tail, xp.add(c0), n, idx)
                )
            }
            c0 += w;
        }
    }

    /// One register tile of [`weighted_gather`]: `G` segments, `seg`
    /// floats apart, each with the `8·FULL + tail` columns of its strip in
    /// `FULL` full accumulators plus, when `TAIL`, one whose lanes
    /// `>= tail` are dead — at most twelve in all. The rows of `x` that
    /// `idx` names stream past them, and each index's step for each
    /// segment (steps `s0..s0 + G` of its `segs`) is applied to that
    /// segment's accumulators.
    ///
    /// # Safety
    /// The CPU must support AVX2. For every `g < G`, `out + g·seg` must
    /// be valid for reads and writes of `8·FULL + tail` floats and
    /// `x + i·n + g·seg` for reads of as many for every `i` in `idx`;
    /// `tail` must be in `1..8` when `TAIL` (it is unused otherwise).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    // sar-check: deterministic(one writer per element, fixed list order:
    // acc lane j of segment g takes, for k = 0, 1, …, `* scale` then
    // `+ w * x[idx[k]][j]` as step (k, g) says — the operations of one
    // scalar `scale` and one `axpy` per step, with the running sum in a
    // register instead of `out[j]`; dead tail lanes are never stored)
    unsafe fn weighted_tile<const FULL: usize, const TAIL: bool, const G: usize>(
        out: *mut f32,
        seg: usize,
        tail: usize,
        x: *const f32,
        n: usize,
        idx: &[u32],
        steps: &[super::Step],
        (s0, segs): (usize, usize),
    ) {
        let mask = lane_mask(if TAIL { tail } else { 0 });
        let mut acc = [[_mm256_setzero_ps(); FULL]; G];
        let mut acc_t = [_mm256_setzero_ps(); G];
        // SAFETY: AVX2 and the pointer ranges are the caller's contract:
        // for each segment the `FULL` unmasked loads cover floats
        // `0..8·FULL` of its strip, and `maskload` touches only its live
        // lanes, floats `8·FULL..8·FULL + tail` (dead lanes read as 0.0
        // and cannot fault).
        unsafe {
            for (g, (a, t)) in acc.iter_mut().zip(&mut acc_t).enumerate() {
                let o = out.add(g * seg);
                for (v, r) in a.iter_mut().enumerate() {
                    *r = _mm256_loadu_ps(o.add(8 * v));
                }
                if TAIL {
                    *t = _mm256_maskload_ps(o.add(8 * FULL), mask);
                }
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
                        let c = _mm256_set1_ps(scale);
                        for r in a.iter_mut() {
                            *r = _mm256_mul_ps(*r, c);
                        }
                        if TAIL {
                            *t = _mm256_mul_ps(*t, c);
                        }
                        w
                    }
                };
                let wv = _mm256_set1_ps(w);
                // SAFETY: `i` is in `idx`, so the same column ranges as
                // above are readable at `x + i·n + g·seg` (caller's
                // contract).
                unsafe {
                    let xs = x.add(i as usize * n + g * seg);
                    for (v, r) in a.iter_mut().enumerate() {
                        *r = _mm256_add_ps(*r, _mm256_mul_ps(wv, _mm256_loadu_ps(xs.add(8 * v))));
                    }
                    if TAIL {
                        let xt = _mm256_maskload_ps(xs.add(8 * FULL), mask);
                        *t = _mm256_add_ps(*t, _mm256_mul_ps(wv, xt));
                    }
                }
            }
        }
        // SAFETY: the ranges loaded from `out` above, now stored;
        // `maskstore` writes only the live lanes.
        unsafe {
            for (g, (a, t)) in acc.iter().zip(&acc_t).enumerate() {
                let o = out.add(g * seg);
                for (v, r) in a.iter().enumerate() {
                    _mm256_storeu_ps(o.add(8 * v), *r);
                }
                if TAIL {
                    _mm256_maskstore_ps(o.add(8 * FULL), mask, *t);
                }
            }
        }
    }

    /// Calls `$tile::<FULL, TAIL, G> $args` for the one `(FULL, TAIL, G)`
    /// that `$key` names, out of those [`weighted_gather`] asks for:
    /// `G` segments whose strips of `8·FULL` columns plus a masked tail
    /// take at most twelve accumulators together (eight for `G = 1`, a
    /// 64-column strip).
    macro_rules! seg_tile {
        ($key:expr, $tile:ident $args:tt, [$(($full:literal, $tail:literal, $g:literal)),* $(,)?]) => {
            match $key {
                $(($full, $tail, $g) => $tile::<$full, $tail, $g> $args,)*
                _ => unreachable!("no tile for this segment shape"),
            }
        };
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn weighted_gather(
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
        // Segments of up to 64 columns go in groups of as many as fit
        // twelve accumulators, capped at four; wider ones one at a time,
        // in 64-column strips (one pass over the list per strip).
        let widest = match seg.div_ceil(8) {
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
            let mut c0 = 0;
            while c0 < seg {
                let w = (seg - c0).min(64);
                let (full, tail) = (w / 8, w % 8);
                let at = s0 * seg + c0;
                // SAFETY: AVX2 is the caller's contract. Columns
                // `c0..c0 + w` of segments `s0..s0 + g` (`s0 + g <= segs`)
                // lie inside the `n`-long `out`, and `check_weighted` found
                // `x` to be whole `n`-float rows with every index of `idx`
                // naming one, so the same columns lie inside row `i` of `x`
                // for every `i` in `idx`. `w = 8·full + tail` is at most
                // 64, and at most 48 when `g == 2`, 24 when `g == 4`
                // (`widest`), which the tile list below covers.
                unsafe {
                    seg_tile!(
                        (full, tail != 0, g),
                        weighted_tile(op.add(at), seg, tail, xp.add(at), n, idx, steps, (s0, segs)),
                        [
                            (0, true, 4),
                            (1, false, 4),
                            (1, true, 4),
                            (2, false, 4),
                            (2, true, 4),
                            (3, false, 4),
                            (0, true, 2),
                            (1, false, 2),
                            (1, true, 2),
                            (2, false, 2),
                            (2, true, 2),
                            (3, false, 2),
                            (3, true, 2),
                            (4, false, 2),
                            (4, true, 2),
                            (5, false, 2),
                            (5, true, 2),
                            (6, false, 2),
                            (0, true, 1),
                            (1, false, 1),
                            (1, true, 1),
                            (2, false, 1),
                            (2, true, 1),
                            (3, false, 1),
                            (3, true, 1),
                            (4, false, 1),
                            (4, true, 1),
                            (5, false, 1),
                            (5, true, 1),
                            (6, false, 1),
                            (6, true, 1),
                            (7, false, 1),
                            (7, true, 1),
                            (8, false, 1),
                        ]
                    )
                }
                c0 += w;
            }
            s0 += g;
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
    #[target_feature(enable = "avx2")]
    // sar-check: deterministic(fixed-lane-order: every dot of the tile
    // accumulates its own 8 lanes over ascending i, folds them in the
    // `reduce_lanes` tree, then adds its tail sequentially — the scalar
    // `dot` sequence, four of them side by side)
    unsafe fn head_dot_tile(out: *mut f32, a: *const f32, b: *const f32, k: usize) {
        let main = k - k % 8;
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i < main {
            // SAFETY: AVX2 and the `4 · k` floats are the caller's
            // contract; i + 8 <= main <= k keeps every load inside its
            // segment. mul + add kept separate (no FMA): lane `l` of
            // `acc[c]` sees the scalar path's
            // `lanes[l] += a[c][8i+l] * b[c][8i+l]` sequence.
            unsafe {
                for (c, s) in acc.iter_mut().enumerate() {
                    let x = _mm256_loadu_ps(a.add(c * k + i));
                    let y = _mm256_loadu_ps(b.add(c * k + i));
                    *s = _mm256_add_ps(*s, _mm256_mul_ps(x, y));
                }
            }
            i += 8;
        }
        // The `dot_tile` fold: two rounds of `hadd` leave
        // ((l0+l1)+(l2+l3)) of dot c in lane c of the low half and
        // ((l4+l5)+(l6+l7)) in lane c of the high half.
        let h01 = _mm256_hadd_ps(acc[0], acc[1]);
        let h23 = _mm256_hadd_ps(acc[2], acc[3]);
        let h = _mm256_hadd_ps(h01, h23);
        let mut dots = _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps::<1>(h));
        // SAFETY: j < k stays inside every segment of `a` and `b`; the
        // store covers `out[0..4]` (caller's contract). Lane c takes
        // `+ a[c][j] * b[c][j]`: the four sequential tails, advanced
        // together.
        unsafe {
            for j in main..k {
                let x = _mm_setr_ps(
                    *a.add(j),
                    *a.add(k + j),
                    *a.add(2 * k + j),
                    *a.add(3 * k + j),
                );
                let y = _mm_setr_ps(
                    *b.add(j),
                    *b.add(k + j),
                    *b.add(2 * k + j),
                    *b.add(3 * k + j),
                );
                dots = _mm_add_ps(dots, _mm_mul_ps(x, y));
            }
            _mm_storeu_ps(out, dots);
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn head_dots(out: &mut [f32], a: &[f32], b: &[f32]) {
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

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn div_scalar(dst: &mut [f32], den: f32) {
        let n = dst.len();
        let main = n - n % 8;
        let dp = dst.as_mut_ptr();
        let dv = _mm256_set1_ps(den);
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= dst.len(). IEEE division is
            // correctly rounded, so vector divide == scalar divide.
            unsafe {
                let d = _mm256_loadu_ps(dp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_div_ps(d, dv));
            }
            i += 8;
        }
        for d in &mut dst[main..n] {
            *d /= den;
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn peak_probe(steps: usize) -> f32 {
        // SAFETY: each row of `PEAK_PROBE_X` is 8 f32s — exactly one
        // __m256 of storage.
        let mut x = super::PEAK_PROBE_X.map(|lanes| unsafe { _mm256_loadu_ps(lanes.as_ptr()) });
        let m = super::PEAK_PROBE_M.map(|ml| _mm256_set1_ps(ml));
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = [_mm256_setzero_ps(); 8];
        for _ in 0..steps {
            for (v, r) in acc.iter_mut().enumerate() {
                // mul then add, never fused: the scalar body's
                // `*a += xl * m`.
                *r = _mm256_add_ps(*r, _mm256_mul_ps(x[v / 4], m[v % 4]));
            }
            // Flipping the sign bit is the scalar body's `-xl`.
            x = x.map(|xv| _mm256_xor_ps(xv, sign));
        }
        let mut lanes = [[0.0f32; 8]; 8];
        for (l, r) in lanes.iter_mut().zip(acc) {
            // SAFETY: each `l` is 8 f32s — exactly one __m256 of storage.
            unsafe { _mm256_storeu_ps(l.as_mut_ptr(), r) };
        }
        lanes.iter().flatten().sum()
    }
}

// ---------------------------------------------------------------------
// Dispatching entry points
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($name:ident, $($arg:expr),*) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if active() {
                // SAFETY: `active()` verified AVX2 support at runtime.
                return unsafe { avx2::$name($($arg),*) };
            }
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
/// the dot of row `i` of `a` and row `j` of `b`. The vector path computes
/// them in register tiles of 2 × 4 dots that share their operand loads;
/// every dot keeps its own 8 lanes, the `reduce_lanes` tree and the
/// sequential tail, so the result is bitwise identical to one
/// [`scalar::dot`] per element on every input.
///
/// # Panics
///
/// Panics if the three lengths are not `[r, n]`, `[r, k]`, `[n, k]`.
#[inline]
pub fn dot_block(out: &mut [f32], n: usize, a: &[f32], b: &[f32]) {
    dispatch!(dot_block, out, n, a, b)
}

/// Row-panel accumulate, the inner kernel of `matmul` and `matmul_tn`:
/// `out[j] += Σ a[kk · a_stride] * b[kk · n + j]` over the rows `kk` of
/// the `[b.len() / n, n]` panel `b` (`n = out.len()`), `kk` ascending,
/// skipping every `kk` whose `a` is exactly zero. The vector path holds
/// the output row in registers across the whole panel; each element sees
/// the same separately-rounded multiply-then-add sequence as one
/// [`scalar::axpy`] per `kk`, so the result is bitwise identical to
/// [`scalar::panel_axpy`] on every input.
///
/// # Panics
///
/// Panics if `a` is shorter than `(b.len() / n − 1) · a_stride + 1`.
#[inline]
pub fn panel_axpy(out: &mut [f32], a: &[f32], a_stride: usize, b: &[f32]) {
    dispatch!(panel_axpy, out, a, a_stride, b)
}

/// Row gather-accumulate, the inner kernel of `spmm_sum` forward and
/// backward: `out[j] += Σ x[idx[k] · n + j]` over the rows of `x`
/// (`n = out.len()` floats each) that `idx` names, `k` ascending, repeats
/// included. The vector path holds the output row in registers across
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
/// says with segment `s` of row `idx[k]` of `x`. The vector path holds
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
/// segments — `⟨g, x⟩` per attention head. The vector path computes four
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
/// multiply off the add's dependency chain as in the matmul kernels),
/// through the same dispatch as every kernel so `--simd scalar` measures
/// the scalar body. Returns the accumulators' sum.
#[inline]
pub fn peak_probe(steps: usize) -> f32 {
    dispatch!(peak_probe, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn dispatched_matches_scalar_bitwise_all_lengths() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 1023] {
            let (a, b) = vecs(n);

            let mut d1 = a.clone();
            let mut d2 = a.clone();
            add_assign(&mut d1, &b);
            scalar::add_assign(&mut d2, &b);
            assert_eq!(bits(&d1), bits(&d2), "add_assign n={n}");

            let mut d1 = vec![0.0; n];
            let mut d2 = vec![0.0; n];
            add_into(&mut d1, &a, &b);
            scalar::add_into(&mut d2, &a, &b);
            assert_eq!(bits(&d1), bits(&d2), "add_into n={n}");

            let mut d1 = a.clone();
            let mut d2 = a.clone();
            axpy(0.37, &b, &mut d1);
            scalar::axpy(0.37, &b, &mut d2);
            assert_eq!(bits(&d1), bits(&d2), "axpy n={n}");

            let mut d1 = a.clone();
            let mut d2 = a.clone();
            scale(&mut d1, -1.7);
            scalar::scale(&mut d2, -1.7);
            assert_eq!(bits(&d1), bits(&d2), "scale n={n}");

            let den: Vec<f32> = b.iter().map(|x| x.abs() + 0.5).collect();
            let mut d1 = a.clone();
            let mut d2 = a.clone();
            div_assign(&mut d1, &den);
            scalar::div_assign(&mut d2, &den);
            assert_eq!(bits(&d1), bits(&d2), "div_assign n={n}");

            let mut d1 = a.clone();
            let mut d2 = a.clone();
            div_scalar(&mut d1, 0.37);
            scalar::div_scalar(&mut d2, 0.37);
            assert_eq!(bits(&d1), bits(&d2), "div_scalar n={n}");

            let mut d1 = a.clone();
            let mut d2 = a.clone();
            leaky_relu(&mut d1, 0.2);
            scalar::leaky_relu(&mut d2, 0.2);
            assert_eq!(bits(&d1), bits(&d2), "leaky_relu n={n}");

            assert_eq!(
                dot(&a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "dot n={n}"
            );
        }
    }

    #[test]
    fn peak_probe_matches_scalar_bitwise() {
        for steps in [0usize, 1, 2, 41] {
            assert_eq!(
                peak_probe(steps).to_bits(),
                scalar::peak_probe(steps).to_bits(),
                "peak_probe steps={steps}"
            );
        }
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
