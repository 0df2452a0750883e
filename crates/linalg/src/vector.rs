//! Free functions on `&[f64]` slices.
//!
//! These are the hot kernels of both embedding trainers: every SGD step of
//! FoRWaRD and every skip-gram update of Node2Vec bottoms out in dot
//! products and axpy updates on embedding vectors.
//!
//! `dot` and `axpy` are thin forwarding wrappers over the shared
//! vectorised kernels in [`stembed_runtime::kernel`] (fixed-lane f64
//! accumulation, runtime-dispatched wide/scalar paths), so every solver
//! caller — matvec, Cholesky, the FoRWaRD minibatch step — picks up
//! the vectorised path without touching its call sites. Note the lane
//! split reassociates the reduction relative to the old serial chain:
//! results changed at the last-ulp level when this landed (see
//! PRECISION.md), deterministically.

use stembed_runtime::kernel;

/// Dot product `xᵀy`, on the shared fixed-lane kernel. Lengths must
/// match (programmer error otherwise).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    kernel::dot(x, y)
}

/// `y ← y + alpha * x` (BLAS `axpy`), on the shared kernel.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    kernel::axpy(alpha, x, y);
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow.
pub fn norm2(x: &[f64]) -> f64 {
    let mut scale_acc = 0.0_f64;
    let mut ssq = 1.0_f64;
    for &xi in x {
        if xi != 0.0 {
            let absxi = xi.abs();
            if scale_acc < absxi {
                let r = scale_acc / absxi;
                ssq = 1.0 + ssq * r * r;
                scale_acc = absxi;
            } else {
                let r = absxi / scale_acc;
                ssq += r * r;
            }
        }
    }
    scale_acc * ssq.sqrt()
}

/// Squared Euclidean distance `‖x − y‖₂²`.
#[inline]
pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        let d = a - b;
        acc += d * d;
    }
    acc
}

/// Cosine similarity; returns 0 when either vector is (numerically) zero.
pub fn cosine(x: &[f64], y: &[f64]) -> f64 {
    let nx = norm2(x);
    let ny = norm2(y);
    if nx < crate::EPS || ny < crate::EPS {
        return 0.0;
    }
    dot(x, y) / (nx * ny)
}

/// Element-wise sum of two vectors into a fresh allocation.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a + b).collect()
}

/// Element-wise difference `x − y` into a fresh allocation.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a - b).collect()
}

/// Normalize `x` to unit length in place; leaves the zero vector untouched.
pub fn normalize(x: &mut [f64]) {
    let n = norm2(x);
    if n > crate::EPS {
        scale(1.0 / n, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norm_is_scale_safe() {
        // Naive sum of squares would overflow here.
        let big = vec![1e200, 1e200];
        let n = norm2(&big);
        assert!((n - 1e200 * 2.0_f64.sqrt()).abs() / n < 1e-12);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_bounds_and_degenerate() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn normalize_unit_length() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = vec![1.0, 2.0];
        let y = vec![0.5, -0.5];
        assert_eq!(sub(&add(&x, &y), &y), x);
    }

    #[test]
    fn dist2_sq_matches_norm_of_diff() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![4.0, 6.0, 3.0];
        let d = sub(&x, &y);
        assert!((dist2_sq(&x, &y) - dot(&d, &d)).abs() < 1e-12);
    }
}
