//! High-level least-squares front door.
//!
//! FoRWaRD's dynamic phase builds an overdetermined system `C x = b`
//! (paper Eq. 9) and solves it approximately. The paper uses the
//! pseudoinverse; we expose that as the default and additionally provide a
//! ridge-regularised Cholesky path (useful as an ablation: the bench crate
//! compares quality/runtime of both).

use crate::{pinv::pinv_solve_gram, Cholesky, LinalgError, Matrix, Result};

/// Strategy used by [`lstsq`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LstsqMethod {
    /// Minimum-norm solution through the SVD pseudoinverse (paper Eq. 10).
    /// Handles rank deficiency. This is the default.
    #[default]
    PseudoInverse,
    /// Ridge-regularised normal equations `(AᵀA + λI)x = Aᵀb`, solved by
    /// Cholesky. Always succeeds for λ > 0.
    Ridge(f64),
}

/// Solve `min ‖Ax − b‖₂` with the requested method.
pub fn lstsq(a: &Matrix, b: &[f64], method: LstsqMethod) -> Result<Vec<f64>> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch(format!(
            "lstsq: rhs has length {}, matrix is {}x{}",
            b.len(),
            a.rows(),
            a.cols()
        )));
    }
    match method {
        LstsqMethod::PseudoInverse => pinv_solve_gram(a, b),
        LstsqMethod::Ridge(lambda) => ridge_solve(a, b, lambda),
    }
}

/// Ridge regression solve `(AᵀA + λI) x = Aᵀ b` via Cholesky.
pub fn ridge_solve(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>> {
    if lambda < 0.0 {
        return Err(LinalgError::DimensionMismatch(
            "ridge_solve: lambda must be nonnegative".into(),
        ));
    }
    let mut gram = a.gram();
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda;
    }
    let rhs = a.matvec_t(b)?;
    match Cholesky::decompose(&gram) {
        Ok(ch) => ch.solve(&rhs),
        // λ = 0 with a singular Gram matrix: fall back to the pseudoinverse
        // so the caller still gets the minimum-norm answer.
        Err(LinalgError::NotPositiveDefinite) => pinv_solve_gram(a, b),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stembed_runtime::rng::DetRng;

    fn well_conditioned() -> (Matrix, Vec<f64>, Vec<f64>) {
        let mut rng = DetRng::seed_from_u64(5);
        let a = Matrix::random_uniform(20, 4, 1.0, &mut rng);
        let x_true = vec![0.5, -1.0, 2.0, 0.25];
        let b = a.matvec(&x_true).unwrap();
        (a, x_true, b)
    }

    #[test]
    fn all_methods_agree_on_consistent_system() {
        let (a, x_true, b) = well_conditioned();
        for method in [LstsqMethod::PseudoInverse, LstsqMethod::Ridge(1e-10)] {
            let x = lstsq(&a, &b, method).unwrap();
            for (xi, ti) in x.iter().zip(x_true.iter()) {
                assert!((xi - ti).abs() < 1e-6, "{method:?} off: {xi} vs {ti}");
            }
        }
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let (a, _, b) = well_conditioned();
        let x0 = ridge_solve(&a, &b, 0.0).unwrap();
        let x_big = ridge_solve(&a, &b, 1e6).unwrap();
        let n0: f64 = x0.iter().map(|v| v * v).sum();
        let nb: f64 = x_big.iter().map(|v| v * v).sum();
        assert!(nb < n0, "large lambda must shrink the solution norm");
    }

    #[test]
    fn pinv_and_ridge_handle_rank_deficiency() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let b = vec![2.0, 4.0, 6.0];
        let x = lstsq(&a, &b, LstsqMethod::PseudoInverse).unwrap();
        // Minimum-norm solution of x0 + x1 = 2: (1, 1).
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
        // Ridge with zero lambda silently falls back to pinv.
        let xr = lstsq(&a, &b, LstsqMethod::Ridge(0.0)).unwrap();
        assert!((xr[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_bad_rhs_and_negative_lambda() {
        let (a, _, _) = well_conditioned();
        assert!(lstsq(&a, &[1.0], LstsqMethod::PseudoInverse).is_err());
        assert!(ridge_solve(&a, &[0.0; 20], -1.0).is_err());
    }
}
