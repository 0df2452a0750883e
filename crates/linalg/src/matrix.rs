//! Row-major dense matrix.

use crate::vector;
use crate::{LinalgError, Result};
use stembed_runtime::rng::Rng;

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// This is the work-horse type of the workspace: FoRWaRD's `ψ(s,A)` inner
/// product matrices, the dynamic-phase system matrix `C`, and the Gram
/// matrices of the downstream kernel SVM are all `Matrix` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer. Panics if the buffer length is not
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer has {} elements, expected {}",
            data.len(),
            rows * cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from a slice of equally-long rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, std::vec::Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Matrix with i.i.d. entries drawn uniformly from `[-bound, bound]`.
    ///
    /// Used for the random initialisation of `ϕ` and `ψ` (paper §V-D).
    pub fn random_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        bound: f64,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-bound..=bound))
            .collect();
        Matrix { rows, cols, data }
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

    /// `true` iff the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Apply a Givens rotation to **columns** `p` and `q` in place: for
    /// every row `k`,
    /// `(a[k,p], a[k,q]) ← (c·a[k,p] − s·a[k,q], s·a[k,p] + c·a[k,q])`.
    ///
    /// One streaming pass over the row-major buffer — this is the inner
    /// loop of the Jacobi eigensolver, where per-element `(r, c)` indexing
    /// would pay an offset multiply and a bounds check per access.
    pub fn rotate_cols(&mut self, p: usize, q: usize, c: f64, s: f64) {
        debug_assert!(p < self.cols && q < self.cols && p != q);
        for row in self.data.chunks_exact_mut(self.cols) {
            let a = row[p];
            let b = row[q];
            row[p] = c * a - s * b;
            row[q] = s * a + c * b;
        }
    }

    /// Apply a Givens rotation to **rows** `p < q` in place: for every
    /// column `k`,
    /// `(a[p,k], a[q,k]) ← (c·a[p,k] − s·a[q,k], s·a[p,k] + c·a[q,k])`.
    pub fn rotate_rows(&mut self, p: usize, q: usize, c: f64, s: f64) {
        debug_assert!(p < q && q < self.rows);
        let cols = self.cols;
        let (head, tail) = self.data.split_at_mut(q * cols);
        let rp = &mut head[p * cols..(p + 1) * cols];
        let rq = &mut tail[..cols];
        for (a, b) in rp.iter_mut().zip(rq.iter_mut()) {
            let (x, y) = (*a, *b);
            *a = c * x - s * y;
            *b = s * x + c * y;
        }
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `A·x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matvec: {}x{} times vector of length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows)
            .map(|r| vector::dot(self.row(r), x))
            .collect())
    }

    /// Transposed matrix–vector product `Aᵀ·x`.
    #[allow(clippy::needless_range_loop)] // dual-indexed numeric kernel
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "matvec_t: {}x{} transposed times vector of length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            vector::axpy(x[r], self.row(r), &mut out);
        }
        Ok(out)
    }

    /// Matrix product `A·B`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "matmul: {}x{} times {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: stream through `other`'s rows for cache locality.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                vector::axpy(aik, brow, orow);
            }
        }
        Ok(out)
    }

    /// Gram matrix `AᵀA` (always square `cols × cols`, symmetric).
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for (j, &rj) in row.iter().enumerate().skip(i) {
                    g[(i, j)] += ri * rj;
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Bilinear form `xᵀ A y` — the core FoRWaRD prediction
    /// `ϕ(f)ᵀ ψ(s,A) ϕ(f′)` (paper Eq. 3).
    pub fn bilinear(&self, x: &[f64], y: &[f64]) -> Result<f64> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "bilinear: xᵀ({}) A({}x{}) y({})",
                x.len(),
                self.rows,
                self.cols,
                y.len()
            )));
        }
        let mut acc = 0.0;
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            acc += xr * vector::dot(self.row(r), y);
        }
        Ok(acc)
    }

    /// Element-wise `A ← A + alpha·B`.
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "add_scaled: {}x{} += {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        vector::axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        vector::scale(alpha, &mut self.data);
    }

    /// Replace `A` by its symmetric part `(A + Aᵀ)/2`. FoRWaRD keeps every
    /// `ψ(s,A)` symmetric; after each rank-one SGD step we re-symmetrize.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize: matrix must be square");
        for i in 0..self.rows {
            for j in 0..i {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Maximum absolute entry (∞-ish norm used in convergence checks).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(&self.data)
    }

    /// Largest absolute off-diagonal element — Jacobi sweep termination.
    pub fn max_off_diagonal(&self) -> f64 {
        let mut m = 0.0_f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    m = m.max(self[(i, j)].abs());
                }
            }
        }
        m
    }

    /// `true` iff `‖A − Aᵀ‖∞ ≤ tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..i {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Append a row. Panics if the length does not match the column count
    /// (for an empty matrix the first push fixes the column count).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "push_row: wrong length");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn indexing_and_shape() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(2, 1)], 6.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_known() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0, 1.0]).unwrap(), vec![9.0, 12.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let m = sample();
        let i2 = Matrix::identity(2);
        assert_eq!(m.matmul(&i2).unwrap(), m);
        let i3 = Matrix::identity(3);
        assert_eq!(i3.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let ab = a.matmul(&b).unwrap();
        assert_eq!(ab, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn gram_matches_explicit_product() {
        let m = sample();
        let g = m.gram();
        let explicit = m.transpose().matmul(&m).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn bilinear_matches_matvec() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = [1.0, 2.0];
        let y = [3.0, -1.0];
        let ay = a.matvec(&y).unwrap();
        let expect = x[0] * ay[0] + x[1] * ay[1];
        assert!((a.bilinear(&x, &y).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 3.0]]);
        a.symmetrize();
        assert!(a.is_symmetric(0.0));
        assert_eq!(a[(0, 1)], 3.0);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn random_uniform_within_bounds() {
        use stembed_runtime::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(7);
        let m = Matrix::random_uniform(10, 10, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.5));
        // Not all identical (sanity that the RNG is actually used).
        let first = m.as_slice()[0];
        assert!(m.as_slice().iter().any(|&v| v != first));
    }
}
