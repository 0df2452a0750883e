//! Dense linear-algebra substrate for the stable-tuple-embedding workspace.
//!
//! The FoRWaRD algorithm (paper §V) needs exactly the following numerical
//! machinery, all of which is implemented here from scratch:
//!
//! * small dense [`Matrix`] arithmetic for the bilinear forms
//!   `ϕ(f)ᵀ ψ(s,A) ϕ(f′)`,
//! * a **pseudoinverse** (`C⁺`) for the dynamic-phase linear system
//!   `C · ϕ(f_new) = b` (paper Eq. 10), built on a symmetric Jacobi
//!   eigendecomposition of `CᵀC`,
//! * basic descriptive statistics for reporting accuracy ± std.
//!
//! Everything operates on `f64`. Matrices are row-major. The implementations
//! favour clarity and robustness over raw speed; the dimensions in this
//! workspace are small (embedding dimension `d ≤ 200`, systems with a few
//! thousand rows), so cubic algorithms with good constants are entirely
//! adequate — this mirrors the paper, which solves the same systems with
//! NumPy on CPU.

pub mod cholesky;
pub mod jacobi;
pub mod matrix;
pub mod pinv;
pub mod stats;
pub mod vector;

pub use cholesky::Cholesky;
pub use jacobi::SymmetricEigen;
pub use matrix::Matrix;
pub use pinv::{pinv, pinv_solve, pinv_solve_gram, Svd};
pub use stats::{mean, mean_std, std_dev};

/// Numerical tolerance used throughout the crate when deciding whether a
/// pivot / singular value is effectively zero.
pub const EPS: f64 = 1e-12;

/// Errors surfaced by the decomposition routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Dimensions of the operands do not line up; the payload describes the
    /// offending operation.
    DimensionMismatch(String),
    /// The matrix handed to Cholesky was not (numerically) positive definite.
    NotPositiveDefinite,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch(what) => {
                write!(f, "dimension mismatch: {what}")
            }
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            LinalgError::NoConvergence(which) => {
                write!(f, "{which} did not converge")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
