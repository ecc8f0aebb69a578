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
//!   `div_assign`, `leaky_relu`): each output element is a fixed IEEE-754
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
//!   with `hadd, hadd, lo128 + hi128` — which is that tree.
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
        super::check_gather(n, x.len(), idx);
        for &i in idx {
            let i = i as usize;
            add_assign(out, &x[i * n..(i + 1) * n]);
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

/// Checks a [`gather_sum`] call before either body indexes anything:
/// `x` is whole rows of `n` floats and every index names one of them. A
/// zero-width `x` has no rows, so any index into it is out of range.
fn check_gather(n: usize, x: usize, idx: &[u32]) {
    assert!(
        x.is_multiple_of(n),
        "gather_sum: x has {x} floats, not a multiple of the row width {n}"
    );
    let rows = x.checked_div(n).unwrap_or(0);
    if let Some(i) = idx.iter().find(|&&i| i as usize >= rows) {
        panic!("gather_sum: index {i} out of range for {rows} rows of width {n}");
    }
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
        super::check_gather(n, x.len(), idx);
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
