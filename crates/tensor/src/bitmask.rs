//! One tracked bit per element of a row-major `[rows, cols]` matrix.
//!
//! A backward that reads only whether an element passed a test — ReLU's
//! `out > 0`, dropout's keep draw — keeps a [`BitMask`] instead of the
//! `[rows, cols]` `f32`s it was derived from: 1/32 of the bytes. Each row
//! owns its own `⌈cols / 64⌉` words (bit `j` of a row is bit `j % 64` of
//! word `j / 64`), so rows never share a word and a row pass writes a mask
//! under [`pool::split_rows`]'s one-writer-per-row rule. Like a
//! [`Tensor`]'s, a mask's bytes are registered with the [`MemoryTracker`]
//! of the thread that built it, so the peak it reports stays what is
//! resident.

use crate::pool::{self, Output};
use crate::{MemoryTracker, Tensor};

/// `LANE[l] = 1 << l`: bit `l` of a half-word, as a per-lane constant so
/// the loops that test or set bits vectorize (a shift by the lane index
/// does not at the baseline instruction set).
const LANE: [u32; 32] = {
    let mut lane = [0u32; 32];
    let mut l = 0;
    while l < 32 {
        lane[l] = 1 << l;
        l += 1;
    }
    lane
};

/// Bit `l` set where `x[l] > 0`, for up to 32 elements.
fn positive_bits(x: &[f32]) -> u32 {
    let lanes = x.iter().zip(&LANE);
    lanes.fold(0, |bits, (&v, &l)| bits | if v > 0.0 { l } else { 0 })
}

/// One bit per element of a `[rows, cols]` matrix, rows word-aligned.
#[derive(Debug)]
pub struct BitMask {
    rows: usize,
    cols: usize,
    words: Vec<u64>,
}

impl BitMask {
    /// Words one row of `cols` bits takes: `⌈cols / 64⌉`.
    pub fn words_per_row(cols: usize) -> usize {
        cols.div_ceil(64)
    }

    fn from_words(rows: usize, cols: usize, words: Vec<u64>) -> BitMask {
        debug_assert_eq!(words.len(), rows * Self::words_per_row(cols));
        let mask = BitMask { rows, cols, words };
        MemoryTracker::register(mask.bytes());
        mask
    }

    /// The mask of `x > 0` for a 2-D `x`, one row-parallel pass.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 2-D.
    // sar-check: deterministic(one-writer-per-row: each row's words are set
    // from that row alone)
    pub fn positive(x: &Tensor) -> BitMask {
        let (n, f) = (x.rows(), x.cols());
        let wpr = Self::words_per_row(f);
        let mut words = vec![0u64; n * wpr];
        let x = x.data();
        pool::split_rows(
            n,
            [Output::row_owned(&mut words, wpr)],
            move |lo, hi, [words]| {
                for i in lo..hi {
                    let row = x[i * f..(i + 1) * f].chunks(64);
                    for (w, chunk) in words[(i - lo) * wpr..].iter_mut().zip(row) {
                        let (low, high) = chunk.split_at(chunk.len().min(32));
                        *w = u64::from(positive_bits(low)) | u64::from(positive_bits(high)) << 32;
                    }
                }
            },
        );
        Self::from_words(n, f, words)
    }

    /// A mask whose bits are drawn from `bit()` in row-major order, one
    /// call per element — the order a serial random stream is consumed in.
    pub(crate) fn from_fn(rows: usize, cols: usize, mut bit: impl FnMut() -> bool) -> BitMask {
        let wpr = Self::words_per_row(cols);
        let mut words = vec![0u64; rows * wpr];
        for i in 0..rows {
            for j in 0..cols {
                words[i * wpr + j / 64] |= u64::from(bit()) << (j % 64);
            }
        }
        Self::from_words(rows, cols, words)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bits per row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i`'s words.
    fn row(&self, i: usize) -> &[u64] {
        let wpr = Self::words_per_row(self.cols);
        &self.words[i * wpr..(i + 1) * wpr]
    }

    /// Bit `(i, j)`.
    #[cfg(test)]
    fn get(&self, i: usize, j: usize) -> bool {
        assert!(j < self.cols, "column {j} of {}", self.cols);
        (self.row(i)[j / 64] >> (j % 64)) & 1 == 1
    }

    /// `out[j] = x[j] · (bit (i, j) · on)` over row `i`: each element times
    /// exactly `on` or `0.0` — with `on = 1.0`, the ReLU gate `g · [o > 0]`
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is not `cols` long.
    pub fn gate_row(&self, i: usize, x: &[f32], out: &mut [f32], on: f32) {
        assert!(
            x.len() == self.cols && out.len() == self.cols,
            "row is not {} wide",
            self.cols
        );
        let words = out.chunks_mut(64).zip(x.chunks(64));
        for (&w, (out, x)) in self.row(i).iter().zip(words) {
            let halves = [w as u32, (w >> 32) as u32];
            let halves = out.chunks_mut(32).zip(x.chunks(32)).zip(halves);
            for ((out, x), bits) in halves {
                for ((o, &x), &l) in out.iter_mut().zip(x).zip(&LANE) {
                    *o = x * ((bits & l != 0) as u32 as f32 * on);
                }
            }
        }
    }

    /// Bytes the mask holds (and the tracker counts).
    fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// `x ⊙ (bit · on)`, one row-parallel pass over `x` read as this
    /// mask's `[rows, cols]`: every element is multiplied by exactly `on`
    /// or `0.0`, so a mask of `m ≠ 0` keeps the bits of `x ⊙ m` where `m`
    /// is `on` or `0.0` (`g · 0.0` stays `−0.0` for a negative `g`, NaN for
    /// a non-finite one). The result has `x`'s shape.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have `rows · cols` elements.
    // sar-check: deterministic(one-writer-per-row: element-wise, no accumulation)
    pub(crate) fn gate(&self, x: &Tensor, on: f32) -> Tensor {
        let (n, f) = (self.rows, self.cols);
        assert_eq!(
            x.numel(),
            n * f,
            "mask is [{n}, {f}], tensor has {} elements",
            x.numel()
        );
        let mut out = vec![0.0f32; n * f];
        let (xs, me) = (x.data(), self);
        pool::split_rows(n, [Output::row_owned(&mut out, f)], move |lo, hi, [out]| {
            for i in lo..hi {
                let out = &mut out[(i - lo) * f..(i - lo + 1) * f];
                me.gate_row(i, &xs[i * f..(i + 1) * f], out, on);
            }
        });
        Tensor::from_vec(x.shape(), out)
    }
}

impl Drop for BitMask {
    fn drop(&mut self) {
        MemoryTracker::deregister(self.bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_word_aligned_and_bytes_are_tracked() {
        let (n, f) = (5, 65);
        let data: Vec<f32> = (0..n * f)
            .map(|k| if k % 3 == 0 { 1.0 } else { -0.0 })
            .collect();
        let x = Tensor::from_vec(&[n, f], data);
        let base = MemoryTracker::stats().current_bytes;
        let m = BitMask::positive(&x);
        assert_eq!(m.bytes(), n * 2 * 8, "two words a row at width 65");
        assert_eq!(MemoryTracker::stats().current_bytes, base + m.bytes());
        for i in 0..n {
            for j in 0..f {
                assert_eq!(m.get(i, j), (i * f + j) % 3 == 0, "bit ({i}, {j})");
            }
            assert_eq!(m.row(i)[1] >> 1, 0, "bits past the width stay clear");
        }
        drop(m);
        assert_eq!(MemoryTracker::stats().current_bytes, base);
    }

    #[test]
    fn from_fn_draws_in_row_major_order() {
        let mut k = 0;
        let m = BitMask::from_fn(3, 70, || {
            k += 1;
            k % 4 == 0
        });
        assert_eq!(k, 3 * 70);
        for i in 0..3 {
            for j in 0..70 {
                assert_eq!(m.get(i, j), (i * 70 + j + 1) % 4 == 0);
            }
        }
    }

    #[test]
    fn gate_multiplies_by_exactly_on_or_zero() {
        let g = Tensor::from_vec(&[2, 3], vec![-2.0, f32::NAN, 3.0, f32::INFINITY, -1.0, 0.5]);
        let on = [true, false, true, false, false, true];
        let mut k = 0;
        let m = BitMask::from_fn(2, 3, || {
            k += 1;
            on[k - 1]
        });
        let got = m.gate(&g, 2.5);
        for (k, (&x, &y)) in g.data().iter().zip(got.data()).enumerate() {
            let want = x * if on[k] { 2.5 } else { 0.0 };
            assert_eq!(y.to_bits(), want.to_bits(), "element {k}");
        }
    }
}
