//! # stembed — Stable Tuple Embeddings for Dynamic Databases
//!
//! Umbrella crate re-exporting the whole workspace: a Rust reproduction of
//! *"Stable Tuple Embeddings for Dynamic Databases"* (Tönshoff, Friedman,
//! Grohe, Kimelfeld — ICDE 2023, [arXiv:2103.06766]).
//!
//! The two embedding algorithms of the paper live in [`core`]
//! (`stembed-core`): the **FoRWaRD** algorithm (foreign-key random walk
//! embeddings trained with SGD statically, extended to new tuples by solving
//! a linear system) and a **dynamic Node2Vec** adaptation (skip-gram over a
//! bipartite fact/value graph, continued with frozen old vectors).
//!
//! [arXiv:2103.06766]: https://arxiv.org/abs/2103.06766
//!
//! ## Workspace layout
//!
//! | crate | re-export | contents |
//! |---|---|---|
//! | `stembed-runtime` | [`runtime`] | deterministic RNG streams ([`runtime::DetRng`], [`runtime::stream_rng`]) and the shard-based parallel [`runtime::Runtime`] under every compute layer |
//! | `linalg` | [`linalg`] | dense matrices, Cholesky/Jacobi-eigen, SVD pseudoinverse, least squares |
//! | `reldb` | [`reldb`] | in-memory relational database: schemas, foreign keys, cascade deletion journals, the paper's movies example |
//! | `dbgraph` | [`dbgraph`] | bipartite fact/value graph `G_D` and parallel Node2Vec walk sampling |
//! | `node2vec` | [`node2vec`] | SGNS training with frozen-vector dynamic continuation |
//! | `datasets` | [`datasets`] | synthetic generators for the paper's benchmark databases |
//! | `ml` | [`ml`] | downstream classifiers (RBF-SVM, logistic regression) and CV utilities |
//! | `stembed-core` | [`core`] | walk schemes, kernels, destination distributions, FoRWaRD training + dynamic extension, the [`core::TupleEmbedder`] trait |
//! | `repro` | — | experiment harness and `table1`–`table6`/`fig5` binaries |
//! | `bench` | — | criterion benchmarks (offline shim; see `scripts/bench.sh`) |
//!
//! Every randomised layer draws from seed-derived per-item RNG streams and
//! reduces in a fixed order, so results are **bit-identical for any shard
//! count** (`STEMBED_SHARDS`); `tests/determinism.rs` asserts this for walk
//! corpora, FoRWaRD training, dynamic extension, and Node2Vec end to end.
//!
//! ```
//! use stembed::reldb::movies::movies_database;
//! use stembed::core::{ForwardConfig, ForwardEmbedding};
//!
//! let db = movies_database();
//! let cfg = ForwardConfig { dim: 8, epochs: 3, ..ForwardConfig::small() };
//! let emb = ForwardEmbedding::train(&db, db.schema().relation_id("MOVIES").unwrap(), &cfg, 7).unwrap();
//! assert_eq!(emb.dim(), 8);
//! ```

pub use datasets;
pub use dbgraph;
pub use linalg;
pub use ml;
pub use node2vec;
pub use reldb;
pub use stembed_core as core;
pub use stembed_runtime as runtime;
