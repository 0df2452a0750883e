//! # stembed-core — stable tuple embeddings (FoRWaRD + dynamic Node2Vec)
//!
//! The primary contribution of *"Stable Tuple Embeddings for Dynamic
//! Databases"* (Tönshoff, Friedman, Grohe, Kimelfeld — ICDE 2023,
//! [arXiv:2103.06766](https://arxiv.org/abs/2103.06766)), implemented from
//! scratch:
//!
//! * **Walk schemes** (§V-A): sequences of forward/backward foreign-key
//!   steps, enumerated from the schema up to a maximum length
//!   ([`schemes`]).
//! * **Kernelized domains** (§V-B): per-attribute similarity kernels —
//!   Gaussian for numbers, equality for categoricals, and an edit-distance
//!   kernel for noisy text ([`kernel`]).
//! * **Destination distributions** `d_{s,f}[A]` (§V-A): the distribution of
//!   the walk destination's attribute value, computed exactly by
//!   probability-propagating BFS or estimated by Monte-Carlo sampling
//!   ([`walkdist`]), with null values conditioned away.
//! * **Expected kernel distance** `KD` (§V-B, Eq. 2) ([`kd`]).
//! * **FoRWaRD static training** (§V-C/D): fact vectors `ϕ` and symmetric
//!   per-(scheme, attribute) matrices `ψ` jointly trained with SGD on the
//!   bilinear ℓ2 objective of Eq. 5 ([`train`]).
//! * **FoRWaRD dynamic extension** (§V-E): embedding a newly inserted fact
//!   by solving the overdetermined linear system `C·ϕ(f_new) = b` of Eq. 9
//!   with the SVD pseudoinverse ([`dynamic`]).
//! * A **walk-distribution cache** under the KD/dynamic stack
//!   ([`distcache`]): exact distributions are memoised by
//!   `(scheme, start)` / `(scheme, attr, start)` and resumable BFS
//!   frontiers by `(prefix, start)` — all invalidated through `reldb`'s
//!   mutation journal, scoped by each scheme's (or prefix's)
//!   FK-reachability ([`schemes::SchemeReach`]) — a mutation evicts only
//!   the entries it can actually influence, so the cache stays warm
//!   across the one-by-one insertion protocol and one insert costs one
//!   linear solve, not thousands of repeated BFS runs. The cache is
//!   **invisible semantically**: results are bit-identical with and
//!   without it, at any shard count (`tests/determinism.rs` asserts
//!   both).
//! * **Scheme plans** ([`plan`]): a target set's walk schemes factored
//!   into a shared prefix trie ([`plan::SchemePlan`]); evaluated in
//!   deterministic DFS order, every scheme's BFS resumes its parent's
//!   cached frontier ([`walkdist::frontier_step`]) instead of starting
//!   from scratch.
//! * A unified [`TupleEmbedder`] trait implemented by both FoRWaRD and the
//!   Node2Vec adaptation, which the experiment harness trains and extends
//!   interchangeably ([`embedder`]).
//!
//! ## Cache + journal invalidation contract
//!
//! Exact walk distributions are pure functions of
//! `(database content, scheme, start, support_limit)`, and their supports
//! are kept in a canonical order — so caching them can never change a
//! result, only skip recomputation. Validity is tracked through
//! [`reldb::Database::db_id`] (process-unique lineage, fresh per clone),
//! [`reldb::Database::epoch`] (bumped by every insert/restore/delete), and
//! [`reldb::Database::journal_since`] (the bounded ring of what each
//! epoch bump did): a [`DistCache`] binds against the database before
//! every batch of lookups, replays the mutations it missed, and evicts
//! only the entries those mutations can reach through the FK structure of
//! the cached walk schemes — falling back to a full clear when the
//! lineage changed or the journal wrapped. Monte-Carlo estimates are
//! never cached — they consume seeded RNG streams, and caching them would
//! make results depend on cache history.
#![forbid(unsafe_code)]

pub mod config;
pub mod distcache;
pub mod dynamic;
pub mod embedder;
pub mod kd;
pub mod kernel;
pub mod plan;
pub mod sampler;
pub mod schemes;
pub mod snapshot;
pub mod train;
pub mod walkdist;

pub use config::ForwardConfig;
pub use distcache::{DistCache, DistCacheStats};
pub use dynamic::ExtendOptions;
pub use embedder::{ForwardEmbedder, Node2VecEmbedder, TupleEmbedder};
pub use kernel::{
    EditDistanceKernel, EqualityKernel, GaussianKernel, Kernel, KernelAssignment, KernelKind,
};
pub use plan::{PlanNode, SchemePlan};
pub use schemes::{
    enumerate_schemes, target_pairs, ReachScope, SchemeReach, Step, Target, WalkScheme,
};
pub use train::ForwardEmbedding;
pub use walkdist::{DestinationSampler, FrontierState, ValueDistribution};

/// Errors surfaced by the embedding algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The relation has too few facts to embed (need at least two).
    NotEnoughFacts {
        /// Relation name.
        relation: String,
        /// Live fact count.
        got: usize,
    },
    /// No usable target pair `(s, A)` exists for the relation — every
    /// reachable attribute participates in a foreign key or all destination
    /// distributions are empty.
    NoTargets {
        /// Relation name.
        relation: String,
    },
    /// The fact to extend is not live in the database.
    UnknownFact(reldb::FactId),
    /// A fact handed to `extend` does not belong to the embedded relation.
    WrongRelation(reldb::FactId),
    /// The dynamic linear system could not be assembled (no old fact yields
    /// a computable `KD` row).
    NoEquations(reldb::FactId),
    /// Numerical failure in the linear solve.
    Linalg(linalg::LinalgError),
    /// Snapshotted embedding state does not fit the database it is being
    /// restored against (wrong schema, config, or dimension).
    SnapshotMismatch(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NotEnoughFacts { relation, got } => {
                write!(f, "relation {relation} has {got} facts; need at least 2")
            }
            CoreError::NoTargets { relation } => {
                write!(f, "no target (scheme, attribute) pairs for {relation}")
            }
            CoreError::UnknownFact(id) => write!(f, "fact {id} is not live"),
            CoreError::WrongRelation(id) => {
                write!(f, "fact {id} is not in the embedded relation")
            }
            CoreError::NoEquations(id) => {
                write!(f, "no KD equations could be built for new fact {id}")
            }
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CoreError::SnapshotMismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<linalg::LinalgError> for CoreError {
    fn from(e: linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}
