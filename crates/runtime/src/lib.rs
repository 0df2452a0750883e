//! # stembed-runtime — deterministic parallel execution for the workspace
//!
//! Every compute layer of the reproduction (walk corpora, Monte-Carlo
//! destination sampling, FoRWaRD SGD, dynamic linear-system assembly) draws
//! random numbers and iterates over large item sets. This crate gives all of
//! them one shared substrate with two guarantees:
//!
//! 1. **Seed determinism** — a single master seed fully determines every
//!    random decision. The vendored [`rng::DetRng`] (xoshiro256++ seeded via
//!    SplitMix64) replaces the external `rand` crate workspace-wide, so the
//!    exact bit stream is owned by this repository and can never drift under
//!    a dependency upgrade.
//! 2. **Shard invariance** — parallel work is expressed as an ordered map
//!    over items or over *fixed-size* chunks ([`Runtime::par_map_ordered`],
//!    [`Runtime::par_chunks_map`]). RNG streams are derived per logical item
//!    or chunk ([`seed::stream_rng`]), never per thread, and reductions
//!    happen in chunk order. Results are therefore **bit-identical** for any
//!    shard count, including 1 — a property `tests/determinism.rs` in the
//!    workspace root asserts for all three embedding pipelines.
//!
//! The shard count defaults to the machine's available parallelism and can
//! be pinned with the `STEMBED_SHARDS` environment variable (or explicitly
//! via [`Runtime::new`]).
//!
//! The crate also hosts the shared **O(1) discrete sampler**, the alias
//! table [`alias::AliasTable`] (Walker 1977): one table built up front,
//! two array reads per draw instead of a binary search, and an in-place
//! rebuild on reused storage for distributions that change between rounds
//! (dynamic negative sampling).
//!
//! Finally, the crate hosts the workspace's **mixed-precision SGD
//! kernels** ([`kernel`]): f32-storage / f64-accumulate dot, axpy and
//! fused SGNS gradient steps with a fixed-lane, fixed-order accumulation
//! schedule, so the autovectorised wide path and the portable scalar
//! reference (`STEMBED_KERNEL=scalar`) are **bit-identical** — the
//! determinism guarantees above extend unchanged to the mixed-precision
//! hot loops.

pub mod alias;
pub mod kernel;
pub mod par;
mod pool;
pub mod rng;
pub mod seed;

pub use alias::{AliasScratch, AliasTable};
pub use par::Runtime;
pub use rng::{DetRng, Rng, SplitMix64};
pub use seed::{derive_seed, stream_rng};
