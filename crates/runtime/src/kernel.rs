//! Shared mixed-precision SGD kernels: **f32 storage, f64 accumulation**.
//!
//! Both embedding trainers bottom out in the same handful of dense row
//! operations — dot products, axpy updates and the fused SGNS gradient
//! step. This module is their single home. Embedding rows are stored as
//! `f32` (half the memory traffic, twice the SIMD lanes); every
//! **reduction** — the dot logit, the per-group center-gradient
//! accumulation — rounds its per-element product once in `f32` and
//! accumulates exactly in `f64`, while **elementwise** row updates run
//! in `f32` (no cross-element accumulation to protect, and the
//! per-element f64 round-trip measures slower than the old all-f64
//! rows). All reductions use a **fixed-lane, fixed-order** schedule so
//! results are bit-identical regardless of how the compiler vectorises
//! the loops:
//!
//! * element `i` always accumulates into lane `i % LANES`;
//! * within a lane, elements are added in increasing `i`;
//! * lanes are combined by one fixed binary reduction tree.
//!
//! Three implementations of every kernel exist: a **wide** path written
//! as `chunks_exact(LANES)` array loops (bounds-check-free, reliably
//! autovectorised — no intrinsics), an **AVX2** path that is the same
//! wide code compiled under `#[target_feature(enable = "avx2")]` and
//! picked by runtime CPU detection (256-bit registers double the lanes
//! per instruction; rustc never contracts `a*b + c` into FMA, so the
//! IEEE ops are unchanged), and a portable **scalar reference** written
//! as the plainest indexed loop that realises the same schedule. All
//! three perform the identical sequence of IEEE-754 operations, so
//! their outputs agree bit for bit — `scalar_and_wide_agree_bitwise`
//! in this module proves it across the awkward dimensions. The active
//! path is chosen once per process: `STEMBED_KERNEL=scalar` forces the
//! reference, `STEMBED_KERNEL=wide` the baseline-target wide loops, and
//! anything else (including unset) selects AVX2 when the CPU has it,
//! wide otherwise — so CI can run the whole test suite on the fallback.
//!
//! The determinism contract of the workspace (seed determinism, shard
//! invariance, retained ≡ fresh) is untouched: these kernels are pure
//! functions of their operands, and the fixed schedule means the shard
//! count and the dispatch path never change a single bit.

use std::sync::OnceLock;

/// Accumulator lanes. Eight f64 lanes = one AVX-512 register or two
/// AVX2 registers; also the widest chunk the f32→f64 convert-and-fma
/// loop fills exactly.
pub const LANES: usize = 8;

/// Which kernel implementation is active for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// `chunks_exact` array loops the compiler autovectorises, compiled
    /// for the build's baseline target (portable).
    Wide,
    /// The same wide loops compiled with AVX2 enabled, selected by
    /// runtime CPU detection (x86-64 only). Identical IEEE op sequence,
    /// so identical bits — just wider registers.
    Avx2,
    /// The portable indexed-loop reference (`STEMBED_KERNEL=scalar`).
    Scalar,
}

impl KernelPath {
    fn from_env() -> KernelPath {
        match std::env::var("STEMBED_KERNEL").as_deref() {
            Ok("scalar") => KernelPath::Scalar,
            // Explicit opt-out of ISA dispatch (the baseline wide path).
            Ok("wide") => KernelPath::Wide,
            _ => {
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    return KernelPath::Avx2;
                }
                KernelPath::Wide
            }
        }
    }
}

/// The dispatch decision, made once per process.
#[inline]
pub fn active_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(KernelPath::from_env)
}

/// A concrete kernel implementation family, for callers that own a hot
/// loop and want dispatch **hoisted out of it**. The module-level
/// functions ([`dot_f32`] & co.) re-check [`active_path`] and cross a
/// non-inlinable `#[target_feature]` boundary on *every* call — fine
/// for coarse operations, measurable overhead at a few dozen
/// nanoseconds per call. A loop owner instead monomorphises its body
/// over a `Kernels` type, matches on [`active_path`] **once**, and —
/// for the AVX2 path — wraps the [`WideKernels`] instantiation in its
/// own `#[target_feature(enable = "avx2")]` function: the
/// `#[inline(always)]` kernel bodies then inline into that context and
/// revectorise at 256 bits, with no per-call dispatch left. (See
/// `SgnsModel::train` for the pattern.) Every implementation executes
/// the identical fixed-lane schedule, so the choice never changes bits.
pub trait Kernels {
    /// See [`dot`].
    fn dot(x: &[f64], y: &[f64]) -> f64;
    /// See [`axpy`].
    fn axpy(alpha: f64, x: &[f64], y: &mut [f64]);
    /// See [`dot_f32`].
    fn dot_f32(x: &[f32], y: &[f32]) -> f64;
    /// See [`axpy_f32`].
    fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f32]);
    /// See [`axpy_f32_acc`].
    fn axpy_f32_acc(alpha: f64, x: &[f32], acc: &mut [f64]);
    /// See [`sgns_pair_step`].
    fn sgns_pair_step(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]);
    /// See [`apply_center_grad`].
    fn apply_center_grad(cgrad: &[f64], row: &mut [f32]);
}

/// The autovectorised wide loops ([`KernelPath::Wide`]); also the
/// bodies the AVX2 path recompiles when instantiated under a caller's
/// `#[target_feature(enable = "avx2")]` function.
pub struct WideKernels;

/// The portable scalar reference loops ([`KernelPath::Scalar`]).
pub struct ScalarKernels;

macro_rules! impl_kernels {
    ($ty:ty: $dot:ident, $axpy:ident, $dot_f32:ident, $axpy_f32:ident,
     $axpy_f32_acc:ident, $sgns:ident, $apply:ident) => {
        impl Kernels for $ty {
            #[inline(always)]
            fn dot(x: &[f64], y: &[f64]) -> f64 {
                $dot(x, y)
            }
            #[inline(always)]
            fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
                $axpy(alpha, x, y);
            }
            #[inline(always)]
            fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
                $dot_f32(x, y)
            }
            #[inline(always)]
            fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f32]) {
                $axpy_f32(alpha, x, y);
            }
            #[inline(always)]
            fn axpy_f32_acc(alpha: f64, x: &[f32], acc: &mut [f64]) {
                $axpy_f32_acc(alpha, x, acc);
            }
            #[inline(always)]
            fn sgns_pair_step(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]) {
                $sgns(g, in_row, out_row, cgrad);
            }
            #[inline(always)]
            fn apply_center_grad(cgrad: &[f64], row: &mut [f32]) {
                $apply(cgrad, row);
            }
        }
    };
}

impl_kernels!(WideKernels: dot_wide, axpy_wide, dot_f32_wide, axpy_f32_wide,
    axpy_f32_acc_wide, sgns_pair_step_wide, apply_center_grad_wide);
impl_kernels!(ScalarKernels: dot_scalar, axpy_scalar, dot_f32_scalar, axpy_f32_scalar,
    axpy_f32_acc_scalar, sgns_pair_step_scalar, apply_center_grad_scalar);

/// Fixed binary reduction tree over the lane accumulators. Shared by
/// both paths — this order is part of the kernel contract.
#[inline(always)]
fn reduce(acc: &[f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// The wide kernel bodies recompiled with AVX2 code generation. Each
/// wrapper just calls the corresponding `*_wide` function; `#[inline]`
/// lets it inline *into* the `#[target_feature]` wrapper, where LLVM
/// revectorises the same loops with 256-bit registers (packed `vmulps`,
/// `vcvtps2pd`, `vaddpd`). The IEEE operation sequence per element is
/// exactly the wide path's, so outputs are bit-identical — dispatch
/// only ever changes speed.
///
/// Safety: every function here requires AVX2; [`KernelPath::from_env`]
/// selects [`KernelPath::Avx2`] only after
/// `is_x86_feature_detected!("avx2")` succeeds, and the dispatchers are
/// the sole callers.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    // SAFETY: caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        dot_wide(x, y)
    }

    // SAFETY: caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        axpy_wide(alpha, x, y);
    }

    // SAFETY: caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
        dot_f32_wide(x, y)
    }

    // SAFETY: caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f32]) {
        axpy_f32_wide(alpha, x, y);
    }

    // SAFETY: caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_f32_acc(alpha: f64, x: &[f32], acc: &mut [f64]) {
        axpy_f32_acc_wide(alpha, x, acc);
    }

    // SAFETY: caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sgns_pair_step(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]) {
        sgns_pair_step_wide(g, in_row, out_row, cgrad);
    }

    // SAFETY: caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn apply_center_grad(cgrad: &[f64], row: &mut [f32]) {
        apply_center_grad_wide(cgrad, row);
    }
}

/// Non-x86-64 stand-in: [`KernelPath::Avx2`] is never selected on these
/// targets, but the dispatch arms still need a callee. Plain forwards to
/// the portable wide path (the `unsafe` mirrors the x86-64 signatures).
#[cfg(not(target_arch = "x86_64"))]
mod avx2 {
    use super::*;

    // SAFETY: no requirement — safe forward kept `unsafe` only to
    // mirror the x86-64 signature.
    pub unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        dot_wide(x, y)
    }

    // SAFETY: no requirement — safe forward mirroring the x86-64 signature.
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        axpy_wide(alpha, x, y);
    }

    // SAFETY: no requirement — safe forward mirroring the x86-64 signature.
    pub unsafe fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
        dot_f32_wide(x, y)
    }

    // SAFETY: no requirement — safe forward mirroring the x86-64 signature.
    pub unsafe fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f32]) {
        axpy_f32_wide(alpha, x, y);
    }

    // SAFETY: no requirement — safe forward mirroring the x86-64 signature.
    pub unsafe fn axpy_f32_acc(alpha: f64, x: &[f32], acc: &mut [f64]) {
        axpy_f32_acc_wide(alpha, x, acc);
    }

    // SAFETY: no requirement — safe forward mirroring the x86-64 signature.
    pub unsafe fn sgns_pair_step(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]) {
        sgns_pair_step_wide(g, in_row, out_row, cgrad);
    }

    // SAFETY: no requirement — safe forward mirroring the x86-64 signature.
    pub unsafe fn apply_center_grad(cgrad: &[f64], row: &mut [f32]) {
        apply_center_grad_wide(cgrad, row);
    }
}

// ---------------------------------------------------------------------
// f64 kernels (FoRWaRD rows, solver internals via linalg::vector)
// ---------------------------------------------------------------------

/// Dot product `xᵀy` over `f64` rows, fixed-lane accumulation.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
    match active_path() {
        KernelPath::Wide => dot_wide(x, y),
        // SAFETY: `Avx2` is only selected after runtime AVX2 detection.
        KernelPath::Avx2 => unsafe { avx2::dot(x, y) },
        KernelPath::Scalar => dot_scalar(x, y),
    }
}

/// Scalar reference for [`dot`]: element `i` into lane `i % LANES`.
#[inline(always)]
pub fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
        acc[i % LANES] += a * b;
    }
    reduce(&acc)
}

/// Wide path for [`dot`]: same schedule, chunked for vectorisation.
#[inline(always)]
pub fn dot_wide(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let xc = x.chunks_exact(LANES);
    let yc = y.chunks_exact(LANES);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (cx, cy) in xc.zip(yc) {
        for j in 0..LANES {
            acc[j] += cx[j] * cy[j];
        }
    }
    // The remainder starts at a multiple of LANES, so its `j`-th element
    // belongs to lane `j` — identical to the reference schedule.
    for (j, (&a, &b)) in xr.iter().zip(yr).enumerate() {
        acc[j] += a * b;
    }
    reduce(&acc)
}

/// `y ← y + alpha·x` over `f64` rows (BLAS `axpy`).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match active_path() {
        KernelPath::Wide => axpy_wide(alpha, x, y),
        // SAFETY: `Avx2` is only selected after runtime AVX2 detection.
        KernelPath::Avx2 => unsafe { avx2::axpy(alpha, x, y) },
        KernelPath::Scalar => axpy_scalar(alpha, x, y),
    }
}

/// Scalar reference for [`axpy`].
#[inline(always)]
pub fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yk, &xk) in y.iter_mut().zip(x) {
        *yk += alpha * xk;
    }
}

/// Wide path for [`axpy`]. Elementwise, so bit-identity to the
/// reference needs no lane schedule — each output is one independent
/// expression.
///
/// Each chunk's products are staged in a local array before `y` is
/// touched, so all of the chunk's `x` loads precede its `y` stores. Once
/// this body is inlined into a caller, nothing tells LLVM that `x` and
/// `y` do not overlap; interleaved loads and stores would then have to
/// stay scalar, while the staged form vectorises either way. The IEEE
/// operations per element are unchanged.
#[inline(always)]
pub fn axpy_wide(alpha: f64, x: &[f64], y: &mut [f64]) {
    let xc = x.chunks_exact(LANES);
    let xr = xc.remainder();
    let mut yc = y.chunks_exact_mut(LANES);
    for (cy, cx) in (&mut yc).zip(xc) {
        let mut p = [0.0f64; LANES];
        for j in 0..LANES {
            p[j] = alpha * cx[j];
        }
        for j in 0..LANES {
            cy[j] += p[j];
        }
    }
    for (yk, &xk) in yc.into_remainder().iter_mut().zip(xr) {
        *yk += alpha * xk;
    }
}

// ---------------------------------------------------------------------
// f32-storage kernels (SGNS embedding arenas)
// ---------------------------------------------------------------------

/// Dot product over `f32` rows with `f64` accumulators.
#[inline]
pub fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot_f32: length mismatch");
    match active_path() {
        KernelPath::Wide => dot_f32_wide(x, y),
        // SAFETY: `Avx2` is only selected after runtime AVX2 detection.
        KernelPath::Avx2 => unsafe { avx2::dot_f32(x, y) },
        KernelPath::Scalar => dot_f32_scalar(x, y),
    }
}

/// Scalar reference for [`dot_f32`]. The per-element product is an
/// **f32 multiply** widened into the f64 lane accumulator: one f32
/// rounding per element, exact accumulation across elements. (Widening
/// both operands and multiplying in f64 needs two converts per element,
/// and LLVM only emits packed `cvtps2pd` for the single post-multiply
/// convert — the two-convert form costs ~1.6× more per dot.)
#[inline(always)]
pub fn dot_f32_scalar(x: &[f32], y: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
        acc[i % LANES] += f64::from(a * b);
    }
    reduce(&acc)
}

/// Wide path for [`dot_f32`]: the f32 products are staged through a
/// `[f32; LANES]` array (packed `mulps`), then widened and accumulated
/// (packed `cvtps2pd` + `addpd`). Identical op sequence per element to
/// the reference — multiply in f32, convert, add to lane — so
/// bit-identity is unaffected.
#[inline(always)]
pub fn dot_f32_wide(x: &[f32], y: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let xc = x.chunks_exact(LANES);
    let yc = y.chunks_exact(LANES);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (cx, cy) in xc.zip(yc) {
        let mut p = [0.0f32; LANES];
        for j in 0..LANES {
            p[j] = cx[j] * cy[j];
        }
        for j in 0..LANES {
            acc[j] += f64::from(p[j]);
        }
    }
    for (j, (&a, &b)) in xr.iter().zip(yr).enumerate() {
        acc[j] += f64::from(a * b);
    }
    reduce(&acc)
}

/// `y ← y + alpha·x` over `f32` rows, arithmetic in **f32** (`alpha`
/// narrowed once, exactly — negation and the narrow commute).
///
/// Elementwise row updates deliberately stay f32: there is no
/// cross-element accumulation to protect, SGD is insensitive to the
/// per-element rounding, and the f64 round-trip (widen, multiply, add,
/// narrow per element) measures ~3× slower than packed f32 — it costs
/// more than the old all-f64 rows did. The f64 accumulators live where
/// accumulation actually happens: [`dot_f32`], [`axpy_f32_acc`], and
/// the `cgrad` side of [`sgns_pair_step`].
#[inline]
pub fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len(), "axpy_f32: length mismatch");
    match active_path() {
        KernelPath::Wide => axpy_f32_wide(alpha, x, y),
        // SAFETY: `Avx2` is only selected after runtime AVX2 detection.
        KernelPath::Avx2 => unsafe { avx2::axpy_f32(alpha, x, y) },
        KernelPath::Scalar => axpy_f32_scalar(alpha, x, y),
    }
}

/// Scalar reference for [`axpy_f32`].
#[inline(always)]
pub fn axpy_f32_scalar(alpha: f64, x: &[f32], y: &mut [f32]) {
    let a = alpha as f32;
    for (yk, &xk) in y.iter_mut().zip(x) {
        *yk += a * xk;
    }
}

/// Wide path for [`axpy_f32`].
#[inline(always)]
pub fn axpy_f32_wide(alpha: f64, x: &[f32], y: &mut [f32]) {
    let a = alpha as f32;
    let xc = x.chunks_exact(LANES);
    let xr = xc.remainder();
    let mut yc = y.chunks_exact_mut(LANES);
    for (cy, cx) in (&mut yc).zip(xc) {
        for j in 0..LANES {
            cy[j] += a * cx[j];
        }
    }
    for (yk, &xk) in yc.into_remainder().iter_mut().zip(xr) {
        *yk += a * xk;
    }
}

/// `acc ← acc + alpha·x` accumulating an `f32` row into an `f64`
/// gradient buffer. Like [`dot_f32`], the per-element product
/// `alpha_f32 · x[k]` rounds once in f32 and the cross-element (and
/// cross-pair) accumulation is exact in f64 — the buffer is the
/// accumulator.
#[inline]
pub fn axpy_f32_acc(alpha: f64, x: &[f32], acc: &mut [f64]) {
    debug_assert_eq!(x.len(), acc.len(), "axpy_f32_acc: length mismatch");
    match active_path() {
        KernelPath::Wide => axpy_f32_acc_wide(alpha, x, acc),
        // SAFETY: `Avx2` is only selected after runtime AVX2 detection.
        KernelPath::Avx2 => unsafe { avx2::axpy_f32_acc(alpha, x, acc) },
        KernelPath::Scalar => axpy_f32_acc_scalar(alpha, x, acc),
    }
}

/// Scalar reference for [`axpy_f32_acc`].
#[inline(always)]
pub fn axpy_f32_acc_scalar(alpha: f64, x: &[f32], acc: &mut [f64]) {
    let af = alpha as f32;
    for (ak, &xk) in acc.iter_mut().zip(x) {
        *ak += f64::from(af * xk);
    }
}

/// Wide path for [`axpy_f32_acc`]: f32 products staged like
/// [`dot_f32_wide`], one packed convert into the f64 buffer.
#[inline(always)]
pub fn axpy_f32_acc_wide(alpha: f64, x: &[f32], acc: &mut [f64]) {
    let af = alpha as f32;
    let xc = x.chunks_exact(LANES);
    let xr = xc.remainder();
    let mut ac = acc.chunks_exact_mut(LANES);
    for (ca, cx) in (&mut ac).zip(xc) {
        let mut p = [0.0f32; LANES];
        for j in 0..LANES {
            p[j] = af * cx[j];
        }
        for j in 0..LANES {
            ca[j] += f64::from(p[j]);
        }
    }
    for (ak, &xk) in ac.into_remainder().iter_mut().zip(xr) {
        *ak += f64::from(af * xk);
    }
}

/// The fused SGNS pair step for an unfrozen (center, context) pair with
/// sigmoid gradient `g`:
///
/// ```text
/// cgrad[k] += f64(gf · out[k])   (f32 product of the pre-update value,
///                                 f64 accumulation; gf = g as f32)
/// out[k]   −= gf · in[k]         (f32 elementwise)
/// ```
///
/// The center-gradient side is a true accumulator (summed over the
/// whole positive+negatives group): its products round once in f32 and
/// accumulate exactly in f64, matching [`axpy_f32_acc`] bit for bit.
/// The context-row update is elementwise f32 (see [`axpy_f32`]).
#[inline]
pub fn sgns_pair_step(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]) {
    debug_assert_eq!(in_row.len(), out_row.len(), "sgns_pair_step: length");
    debug_assert_eq!(in_row.len(), cgrad.len(), "sgns_pair_step: length");
    match active_path() {
        KernelPath::Wide => sgns_pair_step_wide(g, in_row, out_row, cgrad),
        // SAFETY: `Avx2` is only selected after runtime AVX2 detection.
        KernelPath::Avx2 => unsafe { avx2::sgns_pair_step(g, in_row, out_row, cgrad) },
        KernelPath::Scalar => sgns_pair_step_scalar(g, in_row, out_row, cgrad),
    }
}

/// Scalar reference for [`sgns_pair_step`].
#[inline(always)]
pub fn sgns_pair_step_scalar(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]) {
    let gf = g as f32;
    for ((ok, &ik), gk) in out_row.iter_mut().zip(in_row).zip(cgrad.iter_mut()) {
        *gk += f64::from(gf * *ok);
        *ok -= gf * ik;
    }
}

/// Wide path for [`sgns_pair_step`]. Per chunk: stage the f32 products
/// of the pre-update context values, widen-accumulate them into cgrad,
/// then the pure-f32 row update; per element the op sequence matches
/// the reference (cgrad sees the pre-update context value in both).
#[inline(always)]
pub fn sgns_pair_step_wide(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]) {
    let gf = g as f32;
    let n = in_row.len();
    let split = n - n % LANES;
    let ic = in_row[..split].chunks_exact(LANES);
    let mut oc = out_row[..split].chunks_exact_mut(LANES);
    let mut gc = cgrad[..split].chunks_exact_mut(LANES);
    for ((co, ci), cg) in (&mut oc).zip(ic).zip(&mut gc) {
        let mut p = [0.0f32; LANES];
        for j in 0..LANES {
            p[j] = gf * co[j];
        }
        for j in 0..LANES {
            cg[j] += f64::from(p[j]);
        }
        for j in 0..LANES {
            co[j] -= gf * ci[j];
        }
    }
    for ((ok, &ik), gk) in out_row[split..]
        .iter_mut()
        .zip(&in_row[split..])
        .zip(cgrad[split..].iter_mut())
    {
        *gk += f64::from(gf * *ok);
        *ok -= gf * ik;
    }
}

/// Apply an accumulated `f64` center gradient to an `f32` row:
/// `row[k] −= cgrad[k] as f32` (the word2vec once-per-group center
/// write). The accumulation already happened in f64; the single
/// application per group is elementwise, so it narrows the gradient
/// once and subtracts in f32.
#[inline]
pub fn apply_center_grad(cgrad: &[f64], row: &mut [f32]) {
    debug_assert_eq!(cgrad.len(), row.len(), "apply_center_grad: length");
    match active_path() {
        KernelPath::Wide => apply_center_grad_wide(cgrad, row),
        // SAFETY: `Avx2` is only selected after runtime AVX2 detection.
        KernelPath::Avx2 => unsafe { avx2::apply_center_grad(cgrad, row) },
        KernelPath::Scalar => apply_center_grad_scalar(cgrad, row),
    }
}

/// Scalar reference for [`apply_center_grad`].
#[inline(always)]
pub fn apply_center_grad_scalar(cgrad: &[f64], row: &mut [f32]) {
    for (rk, &gk) in row.iter_mut().zip(cgrad) {
        *rk -= gk as f32;
    }
}

/// Wide path for [`apply_center_grad`] (staged narrow, f32 subtract).
#[inline(always)]
pub fn apply_center_grad_wide(cgrad: &[f64], row: &mut [f32]) {
    let gc = cgrad.chunks_exact(LANES);
    let gr = gc.remainder();
    let mut rc = row.chunks_exact_mut(LANES);
    for (cr, cg) in (&mut rc).zip(gc) {
        let mut gn = [0.0f32; LANES];
        for j in 0..LANES {
            gn[j] = cg[j] as f32;
        }
        for j in 0..LANES {
            cr[j] -= gn[j];
        }
    }
    for (rk, &gk) in rc.into_remainder().iter_mut().zip(gr) {
        *rk -= gk as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_rng;

    /// The dimensions the bit-identity properties run at: 1 (all
    /// remainder), 7 (sub-chunk), 8 (exactly one chunk), 33 (chunks +
    /// remainder), 64 (many chunks, no remainder).
    const DIMS: [usize; 5] = [1, 7, 8, 33, 64];
    const CASES: u64 = 64;

    fn rand_f64(rng: &mut crate::DetRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.random_range(-3.0..3.0)).collect()
    }

    fn rand_f32(rng: &mut crate::DetRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.random_range(-3.0..3.0) as f32).collect()
    }

    /// The core contract: for every kernel, the wide path and the scalar
    /// reference produce bit-identical outputs, across dims that cover
    /// every chunk/remainder shape.
    #[test]
    fn scalar_and_wide_agree_bitwise() {
        for &dim in &DIMS {
            for case in 0..CASES {
                let mut rng = stream_rng(xkernel_seed(), case * 131 + dim as u64);
                let a64 = rand_f64(&mut rng, dim);
                let b64 = rand_f64(&mut rng, dim);
                let a32 = rand_f32(&mut rng, dim);
                let b32 = rand_f32(&mut rng, dim);
                let g = rng.random_range(-0.5..0.5);

                assert_eq!(
                    dot_scalar(&a64, &b64).to_bits(),
                    dot_wide(&a64, &b64).to_bits(),
                    "dot dim={dim} case={case}"
                );
                assert_eq!(
                    dot_f32_scalar(&a32, &b32).to_bits(),
                    dot_f32_wide(&a32, &b32).to_bits(),
                    "dot_f32 dim={dim} case={case}"
                );

                let mut y1 = b64.clone();
                let mut y2 = b64.clone();
                axpy_scalar(g, &a64, &mut y1);
                axpy_wide(g, &a64, &mut y2);
                assert_eq!(bits64(&y1), bits64(&y2), "axpy dim={dim} case={case}");

                let mut z1 = b32.clone();
                let mut z2 = b32.clone();
                axpy_f32_scalar(g, &a32, &mut z1);
                axpy_f32_wide(g, &a32, &mut z2);
                assert_eq!(bits32(&z1), bits32(&z2), "axpy_f32 dim={dim} case={case}");

                let mut c1 = b64.clone();
                let mut c2 = b64.clone();
                axpy_f32_acc_scalar(g, &a32, &mut c1);
                axpy_f32_acc_wide(g, &a32, &mut c2);
                assert_eq!(
                    bits64(&c1),
                    bits64(&c2),
                    "axpy_f32_acc dim={dim} case={case}"
                );

                let (mut o1, mut g1) = (b32.clone(), b64.clone());
                let (mut o2, mut g2) = (b32.clone(), b64.clone());
                sgns_pair_step_scalar(g, &a32, &mut o1, &mut g1);
                sgns_pair_step_wide(g, &a32, &mut o2, &mut g2);
                assert_eq!(
                    (bits32(&o1), bits64(&g1)),
                    (bits32(&o2), bits64(&g2)),
                    "sgns_pair_step dim={dim} case={case}"
                );

                let mut r1 = a32.clone();
                let mut r2 = a32.clone();
                apply_center_grad_scalar(&b64, &mut r1);
                apply_center_grad_wide(&b64, &mut r2);
                assert_eq!(
                    bits32(&r1),
                    bits32(&r2),
                    "apply_center_grad dim={dim} case={case}"
                );

                // The AVX2 recompilation must realise the same schedule
                // bit for bit (only checkable where the CPU has AVX2).
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 presence checked just above.
                    unsafe {
                        assert_eq!(
                            dot_scalar(&a64, &b64).to_bits(),
                            avx2::dot(&a64, &b64).to_bits(),
                            "avx2 dot dim={dim} case={case}"
                        );
                        assert_eq!(
                            dot_f32_scalar(&a32, &b32).to_bits(),
                            avx2::dot_f32(&a32, &b32).to_bits(),
                            "avx2 dot_f32 dim={dim} case={case}"
                        );
                        let mut y3 = b64.clone();
                        avx2::axpy(g, &a64, &mut y3);
                        assert_eq!(bits64(&y1), bits64(&y3), "avx2 axpy dim={dim}");
                        let mut z3 = b32.clone();
                        avx2::axpy_f32(g, &a32, &mut z3);
                        assert_eq!(bits32(&z1), bits32(&z3), "avx2 axpy_f32 dim={dim}");
                        let mut c3 = b64.clone();
                        avx2::axpy_f32_acc(g, &a32, &mut c3);
                        assert_eq!(bits64(&c1), bits64(&c3), "avx2 axpy_f32_acc dim={dim}");
                        let (mut o3, mut g3) = (b32.clone(), b64.clone());
                        avx2::sgns_pair_step(g, &a32, &mut o3, &mut g3);
                        assert_eq!(
                            (bits32(&o1), bits64(&g1)),
                            (bits32(&o3), bits64(&g3)),
                            "avx2 sgns_pair_step dim={dim} case={case}"
                        );
                        let mut r3 = a32.clone();
                        avx2::apply_center_grad(&b64, &mut r3);
                        assert_eq!(bits32(&r1), bits32(&r3), "avx2 apply_center_grad dim={dim}");
                    }
                }
            }
        }
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    // A stable test-stream seed (no Date/random: determinism by design).
    fn xkernel_seed() -> u64 {
        0x6b65_726e_656c_5f31
    }

    /// Kernels agree with a naive plain-`f64` evaluation to within
    /// accumulation-order noise (sanity against a schedule bug that is
    /// internally consistent but wrong).
    #[test]
    fn dot_matches_naive_within_tolerance() {
        for &dim in &DIMS {
            let mut rng = stream_rng(99, dim as u64);
            let a = rand_f64(&mut rng, dim);
            let b = rand_f64(&mut rng, dim);
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got = dot_wide(&a, &b);
            assert!(
                (got - naive).abs() <= 1e-12 * (1.0 + naive.abs()),
                "dim={dim}: {got} vs {naive}"
            );
        }
    }

    #[test]
    fn empty_rows_are_zero_or_noop() {
        assert_eq!(dot_wide(&[], &[]), 0.0);
        assert_eq!(dot_f32_scalar(&[], &[]), 0.0);
        let mut y: Vec<f64> = vec![];
        axpy_wide(2.0, &[], &mut y);
        let mut z: Vec<f32> = vec![];
        axpy_f32_wide(2.0, &[], &mut z);
    }

    #[test]
    fn axpy_variants_update_exact_cases() {
        // axpy_f32 is pure-f32 elementwise: alpha narrows once, then
        // y += alpha_f32 * x in f32. Exactly representable case:
        let x = [1.0f32];
        let mut y = [1.5f32];
        axpy_f32(0.25, &x, &mut y);
        assert_eq!(y[0], 1.75);
        // axpy_f32_acc keeps a true f64 accumulator (cgrad path).
        let mut acc = [0.1f64];
        axpy_f32_acc(0.5, &[2.0f32], &mut acc);
        assert!((acc[0] - 1.1).abs() < 1e-15);
    }

    #[test]
    fn sgns_pair_step_matches_unfused_ops() {
        let mut rng = stream_rng(7, 3);
        let dim = 33;
        let inr = rand_f32(&mut rng, dim);
        let out0 = rand_f32(&mut rng, dim);
        let g = 0.125f64;

        let mut out_fused = out0.clone();
        let mut grad_fused = vec![0.0f64; dim];
        sgns_pair_step(g, &inr, &mut out_fused, &mut grad_fused);

        let mut grad_ref = vec![0.0f64; dim];
        axpy_f32_acc(g, &out0, &mut grad_ref);
        let mut out_ref = out0;
        axpy_f32(-g, &inr, &mut out_ref);

        assert_eq!(bits64(&grad_fused), bits64(&grad_ref));
        assert_eq!(bits32(&out_fused), bits32(&out_ref));
    }

    #[test]
    fn dispatch_path_is_stable() {
        // Whatever the environment says, the answer must not change
        // between calls (OnceLock).
        assert_eq!(active_path(), active_path());
    }
}
