//! The dense tensor type and its raw (non-differentiable) operations.

use crate::memory::MemoryTracker;
use crate::pool;
use crate::simd;

/// Bytes of the streamed `other` operand a k-panel may touch before the
/// panel is cut: sized to sit comfortably inside a per-core L2 cache.
const K_PANEL_BYTES: usize = 256 * 1024;

/// Number of `kk` rows of the `[k, n]` operand that fit in one cache
/// panel. Panels are visited in ascending order per output row, so the
/// accumulation order (and therefore every output bit) is independent of
/// the panel size.
fn k_panel(k: usize, n: usize) -> usize {
    let row_bytes = (n.max(1)) * std::mem::size_of::<f32>();
    (K_PANEL_BYTES / row_bytes).clamp(8, k.max(8))
}

/// A dense, row-major `f32` tensor with 1 to 3 dimensions.
///
/// `Tensor` is a plain value type: operations return new tensors and never
/// record gradients. Differentiable computation is built on top of it by
/// [`Var`](crate::Var).
///
/// Every tensor's payload bytes are registered with the creating thread's
/// [`MemoryTracker`](crate::MemoryTracker) and deregistered on drop, which
/// is how the SAR reproduction measures per-worker peak memory.
///
/// # Example
///
/// ```
/// use sar_tensor::Tensor;
///
/// let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// let b = a.transpose();
/// assert_eq!(b.shape(), &[3, 2]);
/// assert_eq!(b.at(&[0, 1]), 4.0);
/// ```
#[derive(Debug)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
    /// Bytes registered with this thread's memory tracker.
    tracked_bytes: usize,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from a shape and a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if the number of elements implied by `shape` does not match
    /// `data.len()`, or if `shape` has zero or more than three dimensions.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert!(
            !shape.is_empty() && shape.len() <= 3,
            "tensor rank must be 1..=3, got {}",
            shape.len()
        );
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} implies {numel} elements but data has {}",
            data.len()
        );
        let tracked_bytes = data.len() * std::mem::size_of::<f32>();
        MemoryTracker::register(tracked_bytes);
        Self {
            shape: shape.to_vec(),
            data,
            tracked_bytes,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Self::from_vec(shape, vec![value; numel])
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a zero tensor with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Self::zeros(&self.shape)
    }

    /// Creates a 1-element tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(&[1], vec![value])
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions (1..=3).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of rows. For a 1-D tensor this is its length.
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, detaching its bytes from the memory tracker and
    /// returning the raw data. Use this before sending a payload to another
    /// worker thread.
    pub fn into_data(mut self) -> Vec<f32> {
        MemoryTracker::deregister(self.tracked_bytes);
        self.tracked_bytes = 0;
        std::mem::take(&mut self.data)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Single scalar value of a 1-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a 1-element tensor");
        self.data[0]
    }

    /// Row `i` of a 2-D tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable row `i` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[i * c..(i + 1) * c]
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut flat = 0;
        for (d, (&i, &s)) in index.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
            flat = flat * s + i;
        }
        flat
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data viewed under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(&[c, r], out)
    }

    /// Stacks `tensors` vertically (along rows). All inputs must be 2-D with
    /// equal column counts.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or column counts differ.
    pub fn vstack(tensors: &[&Tensor]) -> Tensor {
        assert!(!tensors.is_empty(), "vstack of zero tensors");
        let c = tensors[0].cols();
        let mut data = Vec::new();
        let mut rows = 0;
        for t in tensors {
            assert_eq!(t.cols(), c, "vstack column mismatch");
            data.extend_from_slice(&t.data);
            rows += t.rows();
        }
        Tensor::from_vec(&[rows, c], data)
    }

    /// Copies rows `range` of a 2-D tensor into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Tensor {
        let c = self.cols();
        assert!(range.end <= self.rows(), "slice_rows out of bounds");
        let rows = range.len();
        Tensor::from_vec(
            &[rows, c],
            self.data[range.start * c..range.end * c].to_vec(),
        )
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(&self.shape, self.data.iter().map(|&x| f(x)).collect())
    }

    /// Applies `f` pairwise. Shapes must match exactly.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Tensor::from_vec(
            &self.shape,
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Adds a 1-D row vector to every row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `bias` length differs from the column
    /// count.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        let c = self.cols();
        assert_eq!(bias.numel(), c, "bias length must match columns");
        let mut out = self.data.clone();
        for row in out.chunks_mut(c) {
            for (x, &b) in row.iter_mut().zip(bias.data()) {
                *x += b;
            }
        }
        Tensor::from_vec(&self.shape, out)
    }

    /// Multiplies every row of a 2-D tensor elementwise by a 1-D row vector.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `scale` length differs from the
    /// column count.
    pub fn mul_row_broadcast(&self, scale: &Tensor) -> Tensor {
        let c = self.cols();
        assert_eq!(scale.numel(), c, "scale length must match columns");
        let mut out = self.data.clone();
        for row in out.chunks_mut(c) {
            for (x, &s) in row.iter_mut().zip(scale.data()) {
                *x *= s;
            }
        }
        Tensor::from_vec(&self.shape, out)
    }

    /// Multiplies each row `i` of a 2-D tensor by `col[i]` (a per-row
    /// scalar held in a 1-D tensor).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `col` length differs from the row
    /// count.
    pub fn mul_col_broadcast(&self, col: &Tensor) -> Tensor {
        let c = self.cols();
        assert_eq!(col.numel(), self.rows(), "col length must match rows");
        let mut out = self.data.clone();
        for (i, row) in out.chunks_mut(c).enumerate() {
            let s = col.data()[i];
            for x in row.iter_mut() {
                *x *= s;
            }
        }
        Tensor::from_vec(&self.shape, out)
    }

    // ------------------------------------------------------------------
    // Matrix multiplication
    // ------------------------------------------------------------------

    /// Matrix product `self × other` of 2-D tensors.
    ///
    /// Uses an i-k-j loop order and blocks the k dimension into
    /// cache-sized panels so the touched rows of `other` stay resident
    /// while a chunk of output rows sweeps over them; a chunk of output
    /// rows times one panel is one [`crate::simd::panel_axpy`] call,
    /// whose vector bodies keep a tile of rows (one in AVX2, four in
    /// AVX-512) in registers across the panel. Output rows are computed
    /// in parallel on the worker's thread pool ([`crate::pool`]); per
    /// output row the k panels are visited in ascending order, so every
    /// element sees the same ascending-`kk` sequence of multiply-then-add
    /// steps (none for an exactly-zero left entry) as the unblocked
    /// scalar product — results are bitwise identical at any thread
    /// count, panel size, or SIMD mode.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let panel = k_panel(k, n);
        let mut out = vec![0.0f32; m * n];
        pool::split_rows(
            m,
            [pool::Output::row_owned(&mut out, n)],
            |lo, _, [rows]| {
                let mut p0 = 0;
                while p0 < k {
                    let p1 = (p0 + panel).min(k);
                    let b_panel = &other.data[p0 * n..p1 * n];
                    // `a[r][kk]` is row `lo + r`, column `p0 + kk` of `self`.
                    simd::panel_axpy(rows, n, &self.data[lo * k + p0..], (k, 1), b_panel);
                    p0 = p1;
                }
            },
        );
        Tensor::from_vec(&[m, n], out)
    }

    /// Matrix product `selfᵀ × other` without materializing the transpose.
    ///
    /// Parallel over output rows with the same k-panel blocking and
    /// [`crate::simd::panel_axpy`] inner kernel as [`Tensor::matmul`],
    /// reading column `i` of `self` at a stride (a four-row tile reads
    /// four adjacent columns); per row the reduction
    /// still runs over `kk` ascending with the same zero-skips as the
    /// sequential k-outer sweep did, so each element sees the identical
    /// sequence of adds.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or row counts differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn leading dimension mismatch: {k} vs {k2}");
        let panel = k_panel(k, n);
        let mut out = vec![0.0f32; m * n];
        pool::split_rows(
            m,
            [pool::Output::row_owned(&mut out, n)],
            |lo, _, [rows]| {
                let mut p0 = 0;
                while p0 < k {
                    let p1 = (p0 + panel).min(k);
                    let b_panel = &other.data[p0 * n..p1 * n];
                    // `a[r][kk]` is row `p0 + kk`, column `lo + r` of `self`.
                    simd::panel_axpy(rows, n, &self.data[p0 * m + lo..], (1, m), b_panel);
                    p0 = p1;
                }
            },
        );
        Tensor::from_vec(&[m, n], out)
    }

    /// Matrix product `self × otherᵀ` without materializing the transpose.
    ///
    /// Each output element is an independent fixed-tree dot product; a
    /// chunk of output rows is one [`crate::simd::dot_block`] call, whose
    /// vector bodies compute 2 × 4 (AVX2) or 4 × 4 (AVX-512) of them at a
    /// time on shared operand loads and are bitwise identical to its
    /// scalar path. The k dimension
    /// is not panelled here because splitting a dot's accumulator would
    /// change its reduction tree.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or column counts differ.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_nt inner dimension mismatch: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        pool::split_rows(
            m,
            [pool::Output::row_owned(&mut out, n)],
            |lo, hi, [rows]| {
                simd::dot_block(rows, n, &self.data[lo * k..hi * k], &other.data);
            },
        );
        Tensor::from_vec(&[m, n], out)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(self.numel() > 0, "mean of empty tensor");
        self.sum() / self.numel() as f32
    }

    /// Column sums of a 2-D tensor, as a 1-D tensor of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_axis0(&self) -> Tensor {
        let c = self.cols();
        let mut out = vec![0.0f32; c];
        for row in self.data.chunks(c) {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        Tensor::from_vec(&[c], out)
    }

    /// Row sums of a 2-D tensor, as a 1-D tensor of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_axis1(&self) -> Tensor {
        let c = self.cols();
        let out: Vec<f32> = self.data.chunks(c).map(|r| r.iter().sum()).collect();
        Tensor::from_vec(&[self.rows()], out)
    }

    /// Index of the maximum entry in each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<u32> {
        let c = self.cols();
        assert!(c > 0, "argmax over zero columns");
        self.data
            .chunks(c)
            .map(|row| {
                let mut best = 0usize;
                for (j, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = j;
                    }
                }
                best as u32
            })
            .collect()
    }

    /// Largest absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    // ------------------------------------------------------------------
    // Gather / scatter
    // ------------------------------------------------------------------

    /// Gathers rows of a 2-D tensor by index: `out[k] = self[idx[k]]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or any index is out of bounds.
    pub fn gather_rows(&self, idx: &[u32]) -> Tensor {
        let c = self.cols();
        let r = self.rows();
        let mut out = Vec::with_capacity(idx.len() * c);
        for &i in idx {
            let i = i as usize;
            assert!(i < r, "gather_rows index {i} out of bounds ({r} rows)");
            out.extend_from_slice(&self.data[i * c..(i + 1) * c]);
        }
        Tensor::from_vec(&[idx.len(), c], out)
    }

    /// Scatter-adds rows of `src` into `self`: `self[idx[k]] += src[k]`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or any index is out of bounds.
    pub fn scatter_add_rows(&mut self, idx: &[u32], src: &Tensor) {
        let c = self.cols();
        assert_eq!(src.cols(), c, "scatter_add_rows column mismatch");
        assert_eq!(
            src.rows(),
            idx.len(),
            "scatter_add_rows index count mismatch"
        );
        let r = self.rows();
        for (k, &i) in idx.iter().enumerate() {
            let i = i as usize;
            assert!(i < r, "scatter_add_rows index {i} out of bounds ({r} rows)");
            let dst = &mut self.data[i * c..(i + 1) * c];
            for (d, &s) in dst.iter_mut().zip(src.row(k)) {
                *d += s;
            }
        }
    }

    // ------------------------------------------------------------------
    // Row-wise softmax
    // ------------------------------------------------------------------

    /// Numerically-stable row-wise softmax of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn softmax_rows(&self) -> Tensor {
        let c = self.cols();
        let mut out = self.data.clone();
        for row in out.chunks_mut(c) {
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut denom = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                denom += *x;
            }
            for x in row.iter_mut() {
                *x /= denom;
            }
        }
        Tensor::from_vec(&self.shape, out)
    }

    /// Returns `true` when every pairwise difference is within `tol`.
    ///
    /// Shapes must match; a shape mismatch returns `false`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor::from_vec(&self.shape, self.data.clone())
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        MemoryTracker::deregister(self.tracked_bytes);
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: [[f32; 2]; 2]) -> Tensor {
        Tensor::from_vec(&[2, 2], data.concat())
    }

    #[test]
    fn from_vec_and_accessors() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "implies")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = t2([[1., 2.], [3., 4.]]);
        let b = t2([[5., 6.], [7., 8.]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let a = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![1., 0., 0., 1., 1., 1.]);
        let c = a.matmul_tn(&b);
        let c_ref = a.transpose().matmul(&b);
        assert!(c.allclose(&c_ref, 1e-6));
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[4, 3], (0..12).map(|x| x as f32).collect());
        let c = a.matmul_nt(&b);
        let c_ref = a.matmul(&b.transpose());
        assert!(c.allclose(&c_ref, 1e-6));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn broadcast_ops() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let bias = Tensor::from_vec(&[2], vec![10., 20.]);
        assert_eq!(a.add_row_broadcast(&bias).data(), &[11., 22., 13., 24.]);
        assert_eq!(a.mul_row_broadcast(&bias).data(), &[10., 40., 30., 80.]);
        let col = Tensor::from_vec(&[2], vec![2., 3.]);
        assert_eq!(a.mul_col_broadcast(&col).data(), &[2., 4., 9., 12.]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.sum_axis0().data(), &[5., 7., 9.]);
        assert_eq!(a.sum_axis1().data(), &[6., 15.]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 5., 5., 7., 2., 3.]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let a = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.data(), &[5., 6., 1., 2.]);
        let mut z = Tensor::zeros(&[3, 2]);
        z.scatter_add_rows(&[2, 0], &g);
        assert_eq!(z.data(), &[1., 2., 0., 0., 5., 6.]);
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let mut z = Tensor::zeros(&[2, 1]);
        let src = Tensor::from_vec(&[3, 1], vec![1., 2., 4.]);
        z.scatter_add_rows(&[0, 0, 1], &src);
        assert_eq!(z.data(), &[3., 4.]);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let a = Tensor::from_vec(&[2, 3], vec![1000., 1001., 1002., -5., 0., 5.]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(i).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn stack_and_slice() {
        let a = Tensor::from_vec(&[1, 2], vec![1., 2.]);
        let b = Tensor::from_vec(&[2, 2], vec![3., 4., 5., 6.]);
        let v = Tensor::vstack(&[&a, &b]);
        assert_eq!(v.shape(), &[3, 2]);
        assert_eq!(v.slice_rows(1..3), b);
    }

    #[test]
    fn allclose_tolerates_small_differences() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2], vec![1.0 + 1e-7, 2.0 - 1e-7]);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&Tensor::from_vec(&[2], vec![1.1, 2.0]), 1e-5));
    }
}
