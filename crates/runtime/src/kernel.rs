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
//! in this module proves it across the awkward dimensions.
//!
//! ## One entry point
//!
//! A caller writes its loop body once, as a [`KernelTask`] generic over
//! the [`Kernels`] family, and hands it to [`dispatch`], which runs it on
//! the process's [`active_path`]. This module is the only place that
//! picks a path and the only place that enters AVX2: the AVX2 path runs
//! the task inside one `#[target_feature(enable = "avx2")]` function,
//! into which the `#[inline(always)]` task body and kernels inline and
//! revectorise at 256 bits. Callers carry no path match, no
//! `#[target_feature]` wrapper and no `unsafe`, and a task started on a
//! worker thread gets AVX2 exactly like one on the main thread. A
//! dispatch costs a path check and one call that cannot be inlined, so a
//! task should own a whole loop (an SGNS `train` call, a FoRWaRD epoch, a
//! gradient chunk) rather than one row operation; [`dot`] and [`axpy`],
//! the one-operation tasks behind `linalg::vector`, are the exception.
//! Tests run a task on every path of [`available_paths`] with [`run_on`].
//!
//! The active path is chosen once per process from `STEMBED_KERNEL`:
//! `scalar` forces the reference, `wide` the baseline-target wide loops,
//! and unset or empty selects AVX2 when the CPU has it, wide otherwise —
//! so CI can run the whole test suite on the fallback. Any other value
//! panics rather than silently running the default path.
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
    /// The path a `STEMBED_KERNEL` value selects on a CPU with (`avx2`)
    /// or without AVX2: unset or empty picks the fastest path the CPU
    /// runs, `scalar` and `wide` force theirs.
    ///
    /// # Panics
    ///
    /// On any other value: a typo such as `scalr` must not quietly run
    /// the default path in a job meant to test the reference.
    fn parse(value: Option<&str>, avx2: bool) -> KernelPath {
        match value {
            Some("scalar") => KernelPath::Scalar,
            Some("wide") => KernelPath::Wide,
            None | Some("") if avx2 => KernelPath::Avx2,
            None | Some("") => KernelPath::Wide,
            Some(other) => panic!(
                "STEMBED_KERNEL={other:?} names no kernel path; accepted values are \
                 unset or empty (auto), `scalar` and `wide`"
            ),
        }
    }
}

/// The dispatch decision, made once per process from `STEMBED_KERNEL`
/// (see the module docs).
///
/// # Panics
///
/// If `STEMBED_KERNEL` holds anything but unset, empty, `scalar` or
/// `wide`.
#[inline]
pub fn active_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        let value = std::env::var_os("STEMBED_KERNEL").map(|v| v.to_string_lossy().into_owned());
        KernelPath::parse(value.as_deref(), avx2_detected())
    })
}

/// Every path this CPU can run: [`KernelPath::Scalar`] and
/// [`KernelPath::Wide`] always, [`KernelPath::Avx2`] where detected.
pub fn available_paths() -> &'static [KernelPath] {
    const ALL: [KernelPath; 3] = [KernelPath::Scalar, KernelPath::Wide, KernelPath::Avx2];
    if avx2_detected() {
        &ALL
    } else {
        &ALL[..2]
    }
}

fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A unit of kernel work whose body is written once, generic over the
/// [`Kernels`] family, and run by [`dispatch`] or [`run_on`]. Mark
/// `run` (and what it calls) `#[inline(always)]`: the AVX2 path
/// vectorises only the code that inlines into its `#[target_feature]`
/// runner.
pub trait KernelTask {
    /// What the task returns.
    type Output;
    /// The task body on kernel family `K`.
    fn run<K: Kernels>(self) -> Self::Output;
}

/// Run `task` on the process's [`active_path`].
///
/// # Panics
///
/// As [`active_path`].
#[inline]
pub fn dispatch<T: KernelTask>(task: T) -> T::Output {
    run_on(active_path(), task)
}

/// Run `task` on `path` (tests: one run per [`available_paths`] entry).
///
/// # Panics
///
/// If `path` is [`KernelPath::Avx2`] and the CPU lacks AVX2 — AVX2 code
/// is never entered on such a CPU.
#[inline]
pub fn run_on<T: KernelTask>(path: KernelPath, task: T) -> T::Output {
    match path {
        KernelPath::Scalar => task.run::<ScalarKernels>(),
        KernelPath::Wide => run_wide(task),
        KernelPath::Avx2 => {
            assert!(avx2_detected(), "kernel path Avx2 needs a CPU with AVX2");
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `run_avx2` only requires the CPU to support AVX2,
            // which the assertion above has just detected.
            unsafe {
                run_avx2(task)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("no AVX2 off x86-64")
        }
    }
}

/// [`KernelPath::Wide`]: the task on [`WideKernels`], compiled for the
/// build's baseline target.
#[inline(always)]
fn run_wide<T: KernelTask>(task: T) -> T::Output {
    task.run::<WideKernels>()
}

/// [`KernelPath::Avx2`]: [`run_wide`] compiled with AVX2 code generation,
/// the workspace's one `#[target_feature]` function. The task body and
/// the kernels inline into it, where LLVM revectorises the same loops
/// with 256-bit registers (packed `vmulps`, `vcvtps2pd`, `vaddpd`); the
/// IEEE operation sequence per element is the wide path's, so outputs are
/// bit-identical. Calling it needs AVX2, hence `unsafe` outside an AVX2
/// context.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<T: KernelTask>(task: T) -> T::Output {
    run_wide(task)
}

/// Dot product `xᵀy` over `f64` rows on the active path (see
/// [`Kernels::dot`]).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
    dispatch(Dot(x, y))
}

/// `y ← y + alpha·x` over `f64` rows on the active path (see
/// [`Kernels::axpy`]).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    dispatch(Axpy(alpha, x, y));
}

struct Dot<'a>(&'a [f64], &'a [f64]);

impl KernelTask for Dot<'_> {
    type Output = f64;
    #[inline(always)]
    fn run<K: Kernels>(self) -> f64 {
        K::dot(self.0, self.1)
    }
}

struct Axpy<'a>(f64, &'a [f64], &'a mut [f64]);

impl KernelTask for Axpy<'_> {
    type Output = ();
    #[inline(always)]
    fn run<K: Kernels>(self) {
        K::axpy(self.0, self.1, self.2);
    }
}

/// Hint the CPU to fetch the row of `arena` that starts at element
/// `start` (its first two cache lines) into L1, ahead of a pass that
/// streams it. A hint only — it never faults and has no architectural
/// effect — so any `start` is sound: the address is formed with
/// `wrapping_add` and never dereferenced. A no-op off x86-64.
#[inline]
pub fn prefetch_row<T>(arena: &[T], start: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = arena.as_ptr().wrapping_add(start).cast::<i8>();
        // SAFETY: prefetch is a hint with no architectural effect, valid
        // on any address; `wrapping_add` forms the addresses without
        // pointer-offset UB. Rows are ≥ 2 cache lines for f32 dim ≥ 17:
        // fetch the second line too and let the stride prefetcher go on.
        unsafe {
            _mm_prefetch(p, _MM_HINT_T0);
            _mm_prefetch(p.wrapping_add(64), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (arena, start);
}

/// A kernel implementation family. Every family executes the identical
/// fixed-lane schedule, so the choice never changes bits; callers write
/// their loops against this trait inside a [`KernelTask`].
pub trait Kernels {
    /// Dot product `xᵀy` over `f64` rows, fixed-lane accumulation.
    fn dot(x: &[f64], y: &[f64]) -> f64;

    /// `y ← y + alpha·x` over `f64` rows (BLAS `axpy`).
    fn axpy(alpha: f64, x: &[f64], y: &mut [f64]);

    /// Dot product over `f32` rows with `f64` accumulators. The
    /// per-element product is an **f32 multiply** widened into the f64
    /// lane accumulator: one f32 rounding per element, exact accumulation
    /// across elements. (Widening both operands and multiplying in f64
    /// needs two converts per element, and LLVM only emits packed
    /// `cvtps2pd` for the single post-multiply convert — the two-convert
    /// form costs ~1.6× more per dot.)
    fn dot_f32(x: &[f32], y: &[f32]) -> f64;

    /// `y ← y + alpha·x` over `f32` rows, arithmetic in **f32** (`alpha`
    /// narrowed once, exactly — negation and the narrow commute).
    ///
    /// Elementwise row updates deliberately stay f32: there is no
    /// cross-element accumulation to protect, SGD is insensitive to the
    /// per-element rounding, and the f64 round-trip (widen, multiply, add,
    /// narrow per element) measures ~3× slower than packed f32 — it costs
    /// more than the old all-f64 rows did. The f64 accumulators live where
    /// accumulation actually happens: [`Kernels::dot_f32`],
    /// [`Kernels::axpy_f32_acc`], and the `cgrad` side of
    /// [`Kernels::sgns_pair_step`].
    fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f32]);

    /// `acc ← acc + alpha·x` accumulating an `f32` row into an `f64`
    /// gradient buffer. Like [`Kernels::dot_f32`], the per-element product
    /// `alpha_f32 · x[k]` rounds once in f32 and the cross-element (and
    /// cross-pair) accumulation is exact in f64 — the buffer is the
    /// accumulator.
    fn axpy_f32_acc(alpha: f64, x: &[f32], acc: &mut [f64]);

    /// The fused SGNS pair step for an unfrozen (center, context) pair
    /// with sigmoid gradient `g`:
    ///
    /// ```text
    /// cgrad[k] += f64(gf · out[k])   (f32 product of the pre-update value,
    ///                                 f64 accumulation; gf = g as f32)
    /// out[k]   −= gf · in[k]         (f32 elementwise)
    /// ```
    ///
    /// The center-gradient side is a true accumulator (summed over the
    /// whole positive+negatives group): its products round once in f32 and
    /// accumulate exactly in f64, matching [`Kernels::axpy_f32_acc`] bit
    /// for bit. The context-row update is elementwise f32 (see
    /// [`Kernels::axpy_f32`]).
    fn sgns_pair_step(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]);

    /// Apply an accumulated `f64` center gradient to an `f32` row:
    /// `row[k] −= cgrad[k] as f32` (the word2vec once-per-group center
    /// write). The accumulation already happened in f64; the single
    /// application per group is elementwise, so it narrows the gradient
    /// once and subtracts in f32.
    fn apply_center_grad(cgrad: &[f64], row: &mut [f32]);
}

/// The autovectorised wide loops ([`KernelPath::Wide`]); also the
/// bodies the AVX2 path recompiles.
pub struct WideKernels;

/// The portable scalar reference loops ([`KernelPath::Scalar`]): the
/// plainest indexed loops that realise the schedule, element `i` into
/// lane `i % LANES`.
pub struct ScalarKernels;

/// Fixed binary reduction tree over the lane accumulators. Shared by
/// both families — this order is part of the kernel contract.
#[inline(always)]
fn reduce(acc: &[f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

impl Kernels for ScalarKernels {
    #[inline(always)]
    fn dot(x: &[f64], y: &[f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
            acc[i % LANES] += a * b;
        }
        reduce(&acc)
    }

    #[inline(always)]
    fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yk, &xk) in y.iter_mut().zip(x) {
            *yk += alpha * xk;
        }
    }

    #[inline(always)]
    fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
            acc[i % LANES] += f64::from(a * b);
        }
        reduce(&acc)
    }

    #[inline(always)]
    fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f32]) {
        let a = alpha as f32;
        for (yk, &xk) in y.iter_mut().zip(x) {
            *yk += a * xk;
        }
    }

    #[inline(always)]
    fn axpy_f32_acc(alpha: f64, x: &[f32], acc: &mut [f64]) {
        let af = alpha as f32;
        for (ak, &xk) in acc.iter_mut().zip(x) {
            *ak += f64::from(af * xk);
        }
    }

    #[inline(always)]
    fn sgns_pair_step(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]) {
        let gf = g as f32;
        for ((ok, &ik), gk) in out_row.iter_mut().zip(in_row).zip(cgrad.iter_mut()) {
            *gk += f64::from(gf * *ok);
            *ok -= gf * ik;
        }
    }

    #[inline(always)]
    fn apply_center_grad(cgrad: &[f64], row: &mut [f32]) {
        for (rk, &gk) in row.iter_mut().zip(cgrad) {
            *rk -= gk as f32;
        }
    }
}

impl Kernels for WideKernels {
    /// Same schedule as the reference, chunked for vectorisation.
    #[inline(always)]
    fn dot(x: &[f64], y: &[f64]) -> f64 {
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

    /// Elementwise, so bit-identity to the reference needs no lane
    /// schedule — each output is one independent expression.
    ///
    /// Each chunk's products, and the remainder's, are staged in a local
    /// array before `y` is touched, so all of their `x` loads precede the
    /// `y` stores. Once this body is inlined into a caller, nothing tells
    /// LLVM that `x` and `y` do not overlap; interleaved loads and stores
    /// would then have to stay scalar, while the staged form vectorises
    /// either way. The IEEE operations per element are unchanged.
    #[inline(always)]
    fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
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
        let mut p = [0.0f64; LANES];
        for (pk, &xk) in p.iter_mut().zip(xr) {
            *pk = alpha * xk;
        }
        for (yk, &pk) in yc.into_remainder().iter_mut().zip(&p) {
            *yk += pk;
        }
    }

    /// The f32 products are staged through a `[f32; LANES]` array (packed
    /// `mulps`), then widened and accumulated (packed `cvtps2pd` +
    /// `addpd`). Identical op sequence per element to the reference —
    /// multiply in f32, convert, add to lane — so bit-identity is
    /// unaffected.
    #[inline(always)]
    fn dot_f32(x: &[f32], y: &[f32]) -> f64 {
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

    #[inline(always)]
    fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f32]) {
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

    /// f32 products staged like `dot_f32`, one packed convert into the
    /// f64 buffer.
    #[inline(always)]
    fn axpy_f32_acc(alpha: f64, x: &[f32], acc: &mut [f64]) {
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

    /// Per chunk: stage the f32 products of the pre-update context values,
    /// widen-accumulate them into cgrad, then the pure-f32 row update; per
    /// element the op sequence matches the reference (cgrad sees the
    /// pre-update context value in both).
    #[inline(always)]
    fn sgns_pair_step(g: f64, in_row: &[f32], out_row: &mut [f32], cgrad: &mut [f64]) {
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

    /// Staged narrow, f32 subtract.
    #[inline(always)]
    fn apply_center_grad(cgrad: &[f64], row: &mut [f32]) {
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

    /// Every kernel applied once to the same operands.
    #[derive(Clone, Copy)]
    struct AllKernels<'a> {
        a64: &'a [f64],
        b64: &'a [f64],
        a32: &'a [f32],
        b32: &'a [f32],
        g: f64,
    }

    /// The bits every kernel of [`AllKernels`] leaves.
    #[derive(Debug, PartialEq)]
    struct KernelBits {
        dot: u64,
        dot_f32: u64,
        axpy: Vec<u64>,
        axpy_f32: Vec<u32>,
        axpy_f32_acc: Vec<u64>,
        sgns_pair_step: (Vec<u32>, Vec<u64>),
        apply_center_grad: Vec<u32>,
    }

    impl KernelTask for AllKernels<'_> {
        type Output = KernelBits;
        #[inline(always)]
        fn run<K: Kernels>(self) -> KernelBits {
            let AllKernels {
                a64,
                b64,
                a32,
                b32,
                g,
            } = self;
            let mut y = b64.to_vec();
            K::axpy(g, a64, &mut y);
            let mut z = b32.to_vec();
            K::axpy_f32(g, a32, &mut z);
            let mut c = b64.to_vec();
            K::axpy_f32_acc(g, a32, &mut c);
            let (mut o, mut cg) = (b32.to_vec(), b64.to_vec());
            K::sgns_pair_step(g, a32, &mut o, &mut cg);
            let mut r = a32.to_vec();
            K::apply_center_grad(b64, &mut r);
            KernelBits {
                dot: K::dot(a64, b64).to_bits(),
                dot_f32: K::dot_f32(a32, b32).to_bits(),
                axpy: bits64(&y),
                axpy_f32: bits32(&z),
                axpy_f32_acc: bits64(&c),
                sgns_pair_step: (bits32(&o), bits64(&cg)),
                apply_center_grad: bits32(&r),
            }
        }
    }

    /// The core contract: for every kernel, every available path (wide,
    /// and the AVX2 recompilation where the CPU has it) produces the
    /// scalar reference's bits, across dims that cover every
    /// chunk/remainder shape.
    #[test]
    fn scalar_and_wide_agree_bitwise() {
        for &dim in &DIMS {
            for case in 0..CASES {
                let mut rng = stream_rng(xkernel_seed(), case * 131 + dim as u64);
                let a64 = rand_f64(&mut rng, dim);
                let b64 = rand_f64(&mut rng, dim);
                let a32 = rand_f32(&mut rng, dim);
                let b32 = rand_f32(&mut rng, dim);
                let task = AllKernels {
                    a64: &a64,
                    b64: &b64,
                    a32: &a32,
                    b32: &b32,
                    g: rng.random_range(-0.5..0.5),
                };
                let want = run_on(KernelPath::Scalar, task);
                for &path in available_paths() {
                    let got = run_on(path, task);
                    let at = format!("{path:?} dim={dim} case={case}");
                    assert_eq!(got.dot, want.dot, "dot {at}");
                    assert_eq!(got.dot_f32, want.dot_f32, "dot_f32 {at}");
                    assert_eq!(got.axpy, want.axpy, "axpy {at}");
                    assert_eq!(got.axpy_f32, want.axpy_f32, "axpy_f32 {at}");
                    assert_eq!(got.axpy_f32_acc, want.axpy_f32_acc, "axpy_f32_acc {at}");
                    assert_eq!(
                        got.sgns_pair_step, want.sgns_pair_step,
                        "sgns_pair_step {at}"
                    );
                    assert_eq!(
                        got.apply_center_grad, want.apply_center_grad,
                        "apply_center_grad {at}"
                    );
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
            let got = WideKernels::dot(&a, &b);
            assert!(
                (got - naive).abs() <= 1e-12 * (1.0 + naive.abs()),
                "dim={dim}: {got} vs {naive}"
            );
        }
    }

    #[test]
    fn empty_rows_are_zero_or_noop() {
        assert_eq!(WideKernels::dot(&[], &[]), 0.0);
        assert_eq!(ScalarKernels::dot_f32(&[], &[]), 0.0);
        let mut y: Vec<f64> = vec![];
        WideKernels::axpy(2.0, &[], &mut y);
        let mut z: Vec<f32> = vec![];
        WideKernels::axpy_f32(2.0, &[], &mut z);
    }

    struct ExactCases;

    impl KernelTask for ExactCases {
        type Output = ();
        fn run<K: Kernels>(self) {
            // axpy_f32 is pure-f32 elementwise: alpha narrows once, then
            // y += alpha_f32 * x in f32. Exactly representable case:
            let x = [1.0f32];
            let mut y = [1.5f32];
            K::axpy_f32(0.25, &x, &mut y);
            assert_eq!(y[0], 1.75);
            // axpy_f32_acc keeps a true f64 accumulator (cgrad path).
            let mut acc = [0.1f64];
            K::axpy_f32_acc(0.5, &[2.0f32], &mut acc);
            assert!((acc[0] - 1.1).abs() < 1e-15);
        }
    }

    #[test]
    fn axpy_variants_update_exact_cases() {
        for &path in available_paths() {
            run_on(path, ExactCases);
        }
    }

    struct FusedVsUnfused;

    impl KernelTask for FusedVsUnfused {
        type Output = ();
        fn run<K: Kernels>(self) {
            let mut rng = stream_rng(7, 3);
            let dim = 33;
            let inr = rand_f32(&mut rng, dim);
            let out0 = rand_f32(&mut rng, dim);
            let g = 0.125f64;

            let mut out_fused = out0.clone();
            let mut grad_fused = vec![0.0f64; dim];
            K::sgns_pair_step(g, &inr, &mut out_fused, &mut grad_fused);

            let mut grad_ref = vec![0.0f64; dim];
            K::axpy_f32_acc(g, &out0, &mut grad_ref);
            let mut out_ref = out0;
            K::axpy_f32(-g, &inr, &mut out_ref);

            assert_eq!(bits64(&grad_fused), bits64(&grad_ref));
            assert_eq!(bits32(&out_fused), bits32(&out_ref));
        }
    }

    #[test]
    fn sgns_pair_step_matches_unfused_ops() {
        for &path in available_paths() {
            run_on(path, FusedVsUnfused);
        }
    }

    #[test]
    fn dispatch_path_is_stable() {
        // Whatever the environment says, the answer must not change
        // between calls (OnceLock).
        assert_eq!(active_path(), active_path());
    }

    #[test]
    fn available_paths_hold_the_portable_pair_and_the_active_path() {
        let paths = available_paths();
        assert!(paths.contains(&KernelPath::Scalar));
        assert!(paths.contains(&KernelPath::Wide));
        assert!(paths.contains(&active_path()));
    }

    #[test]
    fn kernel_path_parses_exactly_the_accepted_values() {
        for avx2 in [false, true] {
            let auto = if avx2 {
                KernelPath::Avx2
            } else {
                KernelPath::Wide
            };
            assert_eq!(KernelPath::parse(None, avx2), auto);
            assert_eq!(KernelPath::parse(Some(""), avx2), auto);
            assert_eq!(KernelPath::parse(Some("scalar"), avx2), KernelPath::Scalar);
            assert_eq!(KernelPath::parse(Some("wide"), avx2), KernelPath::Wide);
        }
    }

    #[test]
    fn kernel_path_rejects_unknown_values() {
        for value in ["scalr", "avx2", "auto", "Scalar", " wide", "\u{fffd}"] {
            for avx2 in [false, true] {
                let err = std::panic::catch_unwind(|| KernelPath::parse(Some(value), avx2))
                    .expect_err(value);
                let msg = err
                    .downcast_ref::<String>()
                    .expect("formatted panic message");
                assert!(
                    msg.contains("`scalar`") && msg.contains("`wide`") && msg.contains("unset"),
                    "{value:?}: {msg}"
                );
            }
        }
    }
}
