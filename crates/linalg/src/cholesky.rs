//! Cholesky decomposition of symmetric positive-definite matrices.
//!
//! Used as the fast path of [`crate::pinv_solve_gram`]: when the Gram
//! matrix `CᵀC` of the FoRWaRD dynamic phase is comfortably positive
//! definite, one factorisation solves the normal equations
//! `CᵀC x = Cᵀ b` exactly as the pseudoinverse would.

use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (callers in this workspace construct Gram
    /// matrices, which are symmetric by construction).
    pub fn decompose(a: &Matrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch(format!(
                "cholesky: matrix is {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` via forward/back substitution.
    #[allow(clippy::needless_range_loop)] // dual-indexed numeric kernel
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "cholesky solve: rhs has length {}, expected {}",
                b.len(),
                n
            )));
        }
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// log-determinant of `A` (numerically stable: `2·Σ log L_ii`).
    pub fn log_det(&self) -> f64 {
        let n = self.l.rows();
        (0..n).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for a fixed B is SPD.
        Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::decompose(&a).unwrap();
        let l = ch.factor();
        let llt = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (llt[(i, j)] - a[(i, j)]).abs() < 1e-10,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd3();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let ch = Cholesky::decompose(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert_eq!(
            Cholesky::decompose(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn rejects_non_square_and_bad_rhs() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::decompose(&a).is_err());
        let ch = Cholesky::decompose(&Matrix::identity(2)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn log_det_identity_is_zero() {
        let ch = Cholesky::decompose(&Matrix::identity(4)).unwrap();
        assert!(ch.log_det().abs() < 1e-12);
    }
}
