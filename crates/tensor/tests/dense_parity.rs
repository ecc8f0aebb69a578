//! Bitwise parity of the three dense matmul layouts — and the two SIMD
//! primitives under them, and the row gather under `spmm_sum` — against
//! references that share no code with the kernels (DESIGN.md §11).
//!
//! The references are naive triple loops written here in the order the
//! kernels promise per output element:
//!
//! * `matmul` / `matmul_tn`: `out = +0.0; for kk ascending { if a != 0.0
//!   { out += a * b } }` — one separately rounded multiply, then one
//!   add, and nothing at all for an exactly-zero `a`.
//! * `matmul_nt`: lane `l` of eight accumulates `a[8i+l] * b[8i+l]` over
//!   ascending `i`, the lanes fold as `((l0+l1)+(l2+l3)) +
//!   ((l4+l5)+(l6+l7))`, then the `k % 8` tail is added sequentially.
//! * `gather_sum`: `for i in idx { out[j] += x[i][j] }`, onto whatever
//!   the row held.
//!
//! Every comparison is by `f32::to_bits`, at every `{threads} × {simd}`
//! combination. The SIMD mode is process-global and tests in one binary
//! run concurrently, so every mode flip happens under [`MODE_LOCK`].

use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_tensor::simd::{self, SimdMode};
use sar_tensor::{pool, Tensor};

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per `{threads 1, 2, 4} × {simd auto, scalar}` and hands
/// it a label for assertion messages.
fn for_each_config(mut f: impl FnMut(&str)) {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1usize, 2, 4] {
        for (mode, name) in [(SimdMode::Auto, "auto"), (SimdMode::ForceScalar, "scalar")] {
            simd::set_mode(mode);
            pool::set_threads(threads);
            f(&format!("threads={threads} simd={name}"));
        }
    }
    simd::set_mode(SimdMode::Auto);
    pool::set_threads(1);
}

// ----------------------------------------------------------------------
// References
// ----------------------------------------------------------------------

/// `a[i][kk]` is read at `a[i * row_stride + kk * kk_stride]`, so one
/// loop serves `matmul` (`k`, 1) and `matmul_tn` (1, `m`).
fn ref_axpy_layout(
    a: &[f32],
    (row_stride, kk_stride): (usize, usize),
    b: &[f32],
    (m, k, n): (usize, usize, usize),
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let av = a[i * row_stride + kk * kk_stride];
                if av != 0.0 {
                    acc += av * b[kk * n + j];
                }
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn ref_dot(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    let main = k - k % 8;
    let mut l = [0.0f32; 8];
    for i in (0..main).step_by(8) {
        for lane in 0..8 {
            l[lane] += a[i + lane] * b[i + lane];
        }
    }
    let mut acc = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    for i in main..k {
        acc += a[i] * b[i];
    }
    acc
}

/// `a` is `[m, k]`, `b` is `[n, k]`.
fn ref_nt(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = ref_dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
        }
    }
    out
}

// ----------------------------------------------------------------------
// Inputs
// ----------------------------------------------------------------------

/// Ordinary values in `[-2, 2)` with widely varying magnitudes, so a
/// reassociated sum shows up in the low bits.
fn values(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            rng.random_range(-2.0f32..2.0) * [1.0f32, 1.0e-3, 37.0][rng.random_range(0usize..3)]
        })
        .collect()
}

/// [`values`] with exact zeros, `-0.0` and denormals sprinkled in: what
/// the zero skip must (and must not) react to.
fn left_operand(len: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut v = values(len, rng);
    for x in &mut v {
        match rng.random_range(0u32..10) {
            0 | 1 => *x = 0.0,
            2 => *x = -0.0,
            3 => *x = f32::from_bits(rng.random_range(1u32..0x0080_0000)),
            _ => {}
        }
    }
    v
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (e, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {e} is {g:e}, reference {w:e}"
        );
    }
}

/// All three layouts against their references at one shape, every config.
fn check_all_layouts(seed: u64, (m, k, n): (usize, usize, usize)) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = left_operand(m * k, &mut rng); // [m, k] for nn / nt
    let at = left_operand(k * m, &mut rng); // [k, m] for tn
    let b = values(k * n, &mut rng); // [k, n]
    let bt = values(n * k, &mut rng); // [n, k]
    let dims = (m, k, n);
    let want_nn = ref_axpy_layout(&a, (k, 1), &b, dims);
    let want_tn = ref_axpy_layout(&at, (1, m), &b, dims);
    let want_nt = ref_nt(&a, &bt, dims);
    let (ta, tat) = (Tensor::from_vec(&[m, k], a), Tensor::from_vec(&[k, m], at));
    let (tb, tbt) = (Tensor::from_vec(&[k, n], b), Tensor::from_vec(&[n, k], bt));
    for_each_config(|cfg| {
        let shape = format!("{m}x{k}x{n} seed {seed} {cfg}");
        assert_bits(ta.matmul(&tb).data(), &want_nn, &format!("matmul {shape}"));
        assert_bits(
            tat.matmul_tn(&tb).data(),
            &want_tn,
            &format!("matmul_tn {shape}"),
        );
        assert_bits(
            ta.matmul_nt(&tbt).data(),
            &want_nt,
            &format!("matmul_nt {shape}"),
        );
    });
}

// ----------------------------------------------------------------------
// Tests
// ----------------------------------------------------------------------

/// Output widths on every side of the register tile: below one vector, a
/// ragged vector, exactly one, one plus a ragged tail, the class count of
/// the benchmark's dataset, a full 64-column strip, a strip plus one
/// column, two strips plus a ragged tail.
const WIDTHS: [usize; 9] = [1, 7, 8, 9, 13, 47, 64, 65, 130];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_layouts_equal_the_naive_loops(
        seed in 0u64..1_000_000,
        m in 1usize..40,
        k in 0usize..70,
        w in 0usize..WIDTHS.len(),
    ) {
        check_all_layouts(seed, (m, k, WIDTHS[w]));
    }
}

#[test]
fn a_long_reduction_crosses_k_panel_boundaries() {
    // n = 64 makes a k-panel 1024 rows, so k = 2500 is cut at 1024 and
    // 2048: the output row leaves the registers and comes back twice.
    check_all_layouts(17, (5, 2500, 64));
}

#[test]
fn a_zero_left_entry_skips_its_row_of_b_entirely() {
    // Row `kk = 3` of B is inf / NaN and every `a[.][3]` is a zero of
    // either sign: a kernel that multiplies instead of skipping turns the
    // whole output into NaN, the reference leaves it finite.
    let (m, k, n) = (6usize, 9usize, 21usize);
    let mut rng = StdRng::seed_from_u64(3);
    let mut a = values(m * k, &mut rng);
    let mut at = values(k * m, &mut rng);
    let mut b = values(k * n, &mut rng);
    for i in 0..m {
        let zero = if i % 2 == 0 { 0.0 } else { -0.0 };
        a[i * k + 3] = zero;
        at[3 * m + i] = zero;
    }
    for (j, x) in b[3 * n..4 * n].iter_mut().enumerate() {
        *x = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
    }
    let want_nn = ref_axpy_layout(&a, (k, 1), &b, (m, k, n));
    let want_tn = ref_axpy_layout(&at, (1, m), &b, (m, k, n));
    assert!(want_nn.iter().chain(&want_tn).all(|x| x.is_finite()));
    let (ta, tat) = (Tensor::from_vec(&[m, k], a), Tensor::from_vec(&[k, m], at));
    let tb = Tensor::from_vec(&[k, n], b);
    for_each_config(|cfg| {
        assert_bits(ta.matmul(&tb).data(), &want_nn, &format!("matmul {cfg}"));
        assert_bits(
            tat.matmul_tn(&tb).data(),
            &want_tn,
            &format!("matmul_tn {cfg}"),
        );
    });
}

#[test]
fn dot_block_covers_every_tile_remainder() {
    // Rows 1..=3 reach the 2-row tile, the 1-row tile and both; n % 4
    // in 0..4 reaches the 4-dot tile with 0..=3 single dots after it;
    // k % 8 in {0, 5} runs with and without the sequential tail.
    let mut rng = StdRng::seed_from_u64(11);
    for rows in 1usize..=3 {
        for n in [4usize, 5, 6, 7, 8, 3] {
            for k in [0usize, 16, 21] {
                let a = left_operand(rows * k, &mut rng);
                let b = values(n * k, &mut rng);
                let want = ref_nt(&a, &b, (rows, k, n));
                for_each_config(|cfg| {
                    let mut out = vec![f32::NAN; rows * n];
                    simd::dot_block(&mut out, n, &a, &b);
                    assert_bits(
                        &out,
                        &want,
                        &format!("dot_block rows={rows} n={n} k={k} {cfg}"),
                    );
                });
            }
        }
    }
}

#[test]
fn panel_axpy_accumulates_onto_what_the_row_already_holds() {
    // The primitive as `matmul_tn` calls it (strided `a`) on a row that
    // is not zero to begin with — `-0.0` included, which only a skipped
    // `kk` leaves alone (`-0.0 + 0.0` is `+0.0`).
    let mut rng = StdRng::seed_from_u64(5);
    for n in WIDTHS {
        let (cnt, stride) = (19usize, 3usize);
        let mut a = left_operand(cnt * stride, &mut rng);
        a[0] = 0.0;
        let b = values(cnt * n, &mut rng);
        let mut start = values(n, &mut rng);
        start[0] = -0.0;
        if n > 8 {
            start[n - 1] = -0.0;
        }
        let mut want = start.clone();
        for (j, w) in want.iter_mut().enumerate() {
            for kk in 0..cnt {
                let av = a[kk * stride];
                if av != 0.0 {
                    *w += av * b[kk * n + j];
                }
            }
        }
        for_each_config(|cfg| {
            let mut out = start.clone();
            simd::panel_axpy(&mut out, &a, stride, &b);
            assert_bits(&out, &want, &format!("panel_axpy n={n} {cfg}"));
        });
    }
}

#[test]
fn gather_sum_equals_one_add_per_index_in_list_order() {
    // Every width across two strips and a ragged tail; lists that are
    // empty, shorter than anything worth a tile, a benchmark row (≈ 55
    // neighbours) and a hub, in random order with repeats, descending,
    // and one row over and over. Row 2 is all `-0.0` (only a sum that
    // starts from what the row held keeps a `-0.0` there), row 5 holds
    // NaN, rows 11 and 17 `inf` and `-inf` — in disjoint column classes,
    // so no sum ever meets two different NaN payloads, whose winner is
    // the one thing operand order may decide.
    const ROWS: usize = 41;
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(23);
    for n in 1usize..=130 {
        let mut x = values(ROWS * n, &mut rng);
        for j in 0..n {
            x[2 * n + j] = -0.0;
            match j % 7 {
                1 => x[5 * n + j] = f32::NAN,
                2 => (x[11 * n + j], x[17 * n + j]) = (f32::INFINITY, f32::NEG_INFINITY),
                3 => x[11 * n + j] = f32::INFINITY,
                _ => {}
            }
        }
        let mut start = values(n, &mut rng);
        (start[0], start[n - 1]) = (-0.0, -0.0);
        for len in [0usize, 1, 2, 55, 5000] {
            let random: Vec<u32> = (0..len).map(|_| rng.random_range(0..ROWS as u32)).collect();
            let mut descending = random.clone();
            descending.sort_unstable_by(|a, b| b.cmp(a));
            for (idx, order) in [
                (&random, "random"),
                (&descending, "descending"),
                (&vec![2u32; len], "row 2 repeated"),
            ] {
                let mut want = start.clone();
                for &i in idx {
                    for (j, w) in want.iter_mut().enumerate() {
                        *w += x[i as usize * n + j];
                    }
                }
                for (mode, name) in [(SimdMode::Auto, "auto"), (SimdMode::ForceScalar, "scalar")] {
                    simd::set_mode(mode);
                    let mut out = start.clone();
                    simd::gather_sum(&mut out, &x, idx);
                    assert_bits(
                        &out,
                        &want,
                        &format!("gather_sum n={n} len={len} {order} simd={name}"),
                    );
                }
            }
        }
    }
    simd::set_mode(SimdMode::Auto);
}

#[test]
fn weighted_gather_equals_one_scale_and_axpy_per_step() {
    // Segment widths on every side of the tiles — up to three vectors
    // (four segments a pass), up to six (two), seven and eight (one), and
    // past a 64-column strip — at every segment count 1..=9, which reaches
    // each group size with each remainder. Steps mix skips, adds and
    // rescales (scale 0 and weight ±0 included) over rows that hold
    // `-0.0` (row 2) and `inf` (rows 5 and 11): a skip that adds anything
    // moves a `-0.0` start, a lost rescale or a reordered add moves the
    // low bits, and `0 · inf` only ever yields the one default NaN.
    const ROWS: usize = 13;
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(29);
    let widths = (1usize..=24).chain([31, 33, 40, 47, 48, 49, 56, 57, 63, 64, 65, 100, 130]);
    for seg in widths {
        for segs in 1usize..=9 {
            let n = seg * segs;
            let mut x = values(ROWS * n, &mut rng);
            x[2 * n..3 * n].fill(-0.0);
            for j in (0..n).step_by(3) {
                (x[5 * n + j], x[11 * n + j]) = (f32::INFINITY, f32::NEG_INFINITY);
            }
            let mut start = values(n, &mut rng);
            for j in (0..n).step_by(seg) {
                start[j] = -0.0;
            }
            for len in [0usize, 1, 3, 40] {
                let idx: Vec<u32> = (0..len).map(|_| rng.random_range(0..ROWS as u32)).collect();
                let steps: Vec<simd::Step> = (0..len * segs)
                    .map(|_| {
                        let w = [0.0, -0.0, rng.random_range(-2.0f32..2.0)]
                            [rng.random_range(0usize..3)];
                        let scale =
                            [0.0, 1.0, rng.random_range(0.0f32..1.0)][rng.random_range(0usize..3)];
                        match rng.random_range(0u32..4) {
                            0 => simd::Step::Skip,
                            1 => simd::Step::RescaleAdd { scale, w },
                            _ => simd::Step::Add(w),
                        }
                    })
                    .collect();
                let mut want = start.clone();
                for (k, &i) in idx.iter().enumerate() {
                    for s in 0..segs {
                        let (w, scale) = match steps[k * segs + s] {
                            simd::Step::Skip => continue,
                            simd::Step::Add(w) => (w, None),
                            simd::Step::RescaleAdd { scale, w } => (w, Some(scale)),
                        };
                        for j in s * seg..(s + 1) * seg {
                            if let Some(c) = scale {
                                want[j] *= c;
                            }
                            want[j] += w * x[i as usize * n + j];
                        }
                    }
                }
                for (mode, name) in [(SimdMode::Auto, "auto"), (SimdMode::ForceScalar, "scalar")] {
                    simd::set_mode(mode);
                    let mut out = start.clone();
                    simd::weighted_gather(&mut out, segs, &x, &idx, &steps);
                    assert_bits(
                        &out,
                        &want,
                        &format!("weighted_gather seg={seg} segs={segs} len={len} simd={name}"),
                    );
                }
            }
        }
    }
    simd::set_mode(SimdMode::Auto);
}

#[test]
fn head_dots_equal_one_dot_per_segment() {
    // Segment counts reaching the 4-segment tile with 0..=3 single dots
    // after it (and none at all), widths with and without a tail.
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(31);
    for segs in 0usize..=9 {
        for d in (0usize..=24).chain([47, 64, 65]) {
            let a = left_operand(segs * d, &mut rng);
            let b = values(segs * d, &mut rng);
            let want: Vec<f32> = (0..segs)
                .map(|s| ref_dot(&a[s * d..(s + 1) * d], &b[s * d..(s + 1) * d]))
                .collect();
            for (mode, name) in [(SimdMode::Auto, "auto"), (SimdMode::ForceScalar, "scalar")] {
                simd::set_mode(mode);
                let mut out = vec![f32::NAN; segs];
                simd::head_dots(&mut out, &a, &b);
                assert_bits(
                    &out,
                    &want,
                    &format!("head_dots segs={segs} d={d} simd={name}"),
                );
            }
        }
    }
    simd::set_mode(SimdMode::Auto);
}
