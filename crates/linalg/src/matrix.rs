//! Row-major dense `f64` matrix.
//!
//! The storage layout is a single contiguous `Vec<f64>` so that row slices
//! are cache-friendly; every hot kernel in the workspace (MLP forward
//! passes, pairwise distances, tree-ensemble scoring) iterates rows.

use crate::error::LinalgError;
use crate::Result;

/// A dense row-major matrix of `f64` values.
///
/// Rows are samples and columns are features throughout this workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from nested row vectors.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (rows.len(), cols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self { rows: rows.len(), cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the raw row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        debug_assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Iterator over row slices. Always yields exactly [`Matrix::rows`]
    /// items — a `rows × 0` matrix yields `rows` empty slices, not zero
    /// rows (chunking the empty backing buffer would disagree with the
    /// declared shape and make e.g. `matvec` drop rows).
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        let cols = self.cols;
        (0..self.rows).map(move |r| &self.data[r * cols..(r + 1) * cols])
    }

    /// Returns a new matrix with the selected rows, in the given order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix { rows: indices.len(), cols: self.cols, data }
    }

    /// Returns a new matrix with the selected columns, in the given order.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (j, &c) in indices.iter().enumerate() {
                dst[j] = src[c];
            }
        }
        out
    }

    /// Transposed copy (see [`transpose_into`]).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        transpose_into(self.rows, self.cols, &self.data, &mut out.data);
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Thin allocating wrapper over [`Matrix::matmul_into`], which runs
    /// the cache-blocked kernel in [`crate::gemm`]. Per-element `k`
    /// accumulation stays sequential, so results are bit-identical to
    /// the historic naive i/k/j kernel.
    ///
    /// Follows IEEE-754 semantics: a NaN or infinity in *either* operand
    /// poisons every product element it participates in. Zero left-hand
    /// coefficients (common: ReLU activations are about half zeros) may
    /// only skip their rank-1 update when the matching `rhs` row is all
    /// finite — `0.0 * NaN` and `0.0 * inf` are NaN, so an unconditional
    /// skip would let a corrupted operand score clean. The per-row
    /// finiteness mask is built lazily on the first zero coefficient hit
    /// (dense multiplies pay nothing for it) and can be cached across
    /// calls via [`crate::gemm::GemmScratch`].
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        // Validate before allocating: a mismatched pair must cost an
        // error, not an m×n zero buffer.
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let mut scratch = crate::gemm::GemmScratch::new();
        self.matmul_into(rhs, &mut scratch, out.as_mut_slice())?;
        Ok(out)
    }

    /// Matrix-vector product `self * v` — the `n = 1` case of the
    /// blocked kernel, with `v` read as a `k×1` column.
    ///
    /// Shares `matmul`'s exact semantics (ascending-`k` accumulation
    /// from `+0.0`, zero-coefficient skip gated on `v[k]` finiteness).
    /// One observable delta from the pre-kernel implementation, which
    /// folded from `-0.0` (std's `Sum` identity): a result that is
    /// exactly zero is always `+0.0` now, where the old code could
    /// return `-0.0`. The two compare equal; only `to_bits` differs.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        crate::gemm::gemm_into(
            self.rows,
            self.cols,
            1,
            &self.data,
            crate::gemm::Rhs::RowMajor(v),
            |r| v[r].is_finite(),
            &mut out,
        );
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Scales every element by `s`, in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_inplace(s);
        m
    }

    /// Appends the rows of `other` below `self`.
    ///
    /// Widths must agree; only a completely empty `0 × 0` operand (the
    /// neutral element) is width-agnostic. A `0 × k` matrix still has a
    /// definite width `k` and stacking it against a different width is a
    /// shape error — previously that mismatch was silently accepted and
    /// produced a matrix whose claimed width disagreed with its buffer.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        let lhs_any = self.rows == 0 && self.cols == 0;
        let rhs_any = other.rows == 0 && other.cols == 0;
        if self.cols != other.cols && !lhs_any && !rhs_any {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = if lhs_any { other.cols } else { self.cols };
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix { rows: self.rows + other.rows, cols, data })
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element-wise difference to `rhs` (`inf` norm of the
    /// difference); useful in tests.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        debug_assert_eq!(self.shape(), rhs.shape());
        self.data.iter().zip(&rhs.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

/// Writes the transpose of the row-major `rows × cols` buffer `src`
/// into `dst` (row-major `cols × rows`), allocating nothing.
///
/// Works in 32 × 32 tiles, so the strided reads of one tile stay in L1
/// while its output rows are written contiguously. On a 2-vCPU AVX-512
/// Xeon a 128 × 128 transpose took 13 µs this way against 60 µs for the
/// row-by-row loop.
///
/// # Panics
/// If either buffer's length is not `rows * cols`.
// audit: no_alloc
pub fn transpose_into(rows: usize, cols: usize, src: &[f64], dst: &mut [f64]) {
    const TILE: usize = 32;
    assert_eq!(src.len(), rows * cols, "src length must be rows*cols");
    assert_eq!(dst.len(), rows * cols, "dst length must be rows*cols");
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            for c in c0..(c0 + TILE).min(cols) {
                for (slot, r) in dst[c * rows + r0..c * rows + r1].iter_mut().zip(r0..r1) {
                    *slot = src[r * cols + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn zeros_identity_filled() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
        let f = Matrix::filled(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(Matrix::from_rows(&rows).is_err());
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.get(1, 0), 3.0);
    }

    #[test]
    fn row_and_col_access() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.row(1), &[4., 5., 6.]);
        assert_eq!(a.col(2), vec![3., 6.]);
        let rows: Vec<&[f64]> = a.row_iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[1., 2., 3.]);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5., 6.]);
        assert_eq!(s.row(1), &[1., 2.]);
        let c = a.select_cols(&[1]);
        assert_eq!(c.shape(), (3, 1));
        assert_eq!(c.col(0), vec![2., 4., 6.]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn transpose_crosses_tile_edges() {
        // Shapes straddling the 32-wide tile on either axis, plus
        // vectors and an empty matrix.
        for (rows, cols) in [(33, 70), (1, 40), (40, 1), (64, 64), (0, 5)] {
            let a =
                Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| i as f64).collect()).unwrap();
            let t = a.transpose();
            assert_eq!(t.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r), a.get(r, c), "{rows}x{cols} at ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch { op: "matmul", .. })));
    }

    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_coefficients() {
        // IEEE-754: 0.0 * NaN = NaN and 0.0 * inf = NaN, so a zero in the
        // left operand must NOT shortcut past a poisoned right operand.
        let a = m(1, 2, &[0.0, 1.0]);
        let mut b = m(2, 2, &[f64::NAN, f64::INFINITY, 5.0, 6.0]);
        let c = a.matmul(&b).unwrap();
        assert!(c.get(0, 0).is_nan(), "0*NaN + 1*5 must be NaN, got {}", c.get(0, 0));
        assert!(c.get(0, 1).is_nan(), "0*inf + 1*6 must be NaN, got {}", c.get(0, 1));
        // Infinity in the right operand against a non-zero coefficient
        // propagates as ±inf.
        b = m(2, 2, &[f64::INFINITY, 1.0, 5.0, 6.0]);
        let a = m(1, 2, &[2.0, 1.0]);
        assert_eq!(a.matmul(&b).unwrap().get(0, 0), f64::INFINITY);
        // And NaN/inf in the *left* operand poisons its whole output row.
        let a = m(1, 2, &[f64::NAN, 0.0]);
        let b = m(2, 1, &[1.0, 1.0]);
        assert!(a.matmul(&b).unwrap().get(0, 0).is_nan());
    }

    #[test]
    fn zero_width_matrix_keeps_its_rows() {
        let z = Matrix::zeros(3, 0);
        assert_eq!(z.rows(), 3);
        // row_iter must agree with rows(): 3 empty rows, not 0 rows.
        let rows: Vec<&[f64]> = z.row_iter().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
        // matvec on a rows×0 matrix is `rows` empty dot products = zeros.
        assert_eq!(z.matvec(&[]).unwrap(), vec![0.0; 3]);
        // matmul against a 0×k operand likewise keeps the row count.
        let c = z.matmul(&Matrix::zeros(0, 4)).unwrap();
        assert_eq!(c.shape(), (3, 4));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let v = vec![1.0, 0.5, -1.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 2, &[4., 3., 2., 1.]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5., 5., 5., 5.]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-3., -1., 1., 3.]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2., 4., 6., 8.]);
        assert!(a.add(&Matrix::zeros(1, 1)).is_err());
        assert!(a.sub(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn vstack_appends_rows() {
        let a = m(1, 2, &[1., 2.]);
        let b = m(2, 2, &[3., 4., 5., 6.]);
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5., 6.]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn vstack_zero_row_operands_still_check_width() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        // A 0×2 matrix has width 2; stacking it with width 3 is an error
        // in both orders (previously accepted, corrupting the layout).
        assert!(a.vstack(&Matrix::zeros(0, 2)).is_err());
        assert!(Matrix::zeros(0, 2).vstack(&a).is_err());
        // Matching zero-row width is fine and preserves the width.
        assert_eq!(a.vstack(&Matrix::zeros(0, 3)).unwrap(), a);
        assert_eq!(Matrix::zeros(0, 3).vstack(&a).unwrap(), a);
        // The truly empty 0×0 matrix is the neutral element on either side.
        assert_eq!(a.vstack(&Matrix::zeros(0, 0)).unwrap(), a);
        let s = Matrix::zeros(0, 0).vstack(&a).unwrap();
        assert_eq!(s, a);
        assert_eq!(Matrix::zeros(0, 0).vstack(&Matrix::zeros(0, 0)).unwrap().shape(), (0, 0));
    }

    #[test]
    fn norms() {
        let a = m(1, 2, &[3., 4.]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        let b = m(1, 2, &[3., 6.]);
        assert!((a.max_abs_diff(&b) - 2.0).abs() < 1e-12);
    }
}
