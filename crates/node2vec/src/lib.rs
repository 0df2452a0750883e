//! # node2vec — skip-gram node embeddings with a stable dynamic extension
//!
//! Implements the Node2Vec training pipeline of the paper's §IV from
//! scratch: biased random walks (provided by [`dbgraph`]) feed a
//! **skip-gram with negative sampling** (SGNS) model trained by plain SGD
//! with hand-derived gradients.
//!
//! The dynamic extension (paper §IV-A) follows the paper exactly: when new
//! nodes appear, their vectors are randomly initialised, new walks are
//! sampled **starting at the new nodes**, and training continues "while
//! performing gradient descent only on the embeddings of new nodes" — the
//! old vectors are *frozen* and provably bit-identical afterwards (see the
//! `freeze` tests).
//!
//! The whole pipeline runs on cache-friendly, O(1)-sampling substrates:
//! walks arrive as a flat token arena ([`dbgraph::WalkCorpus`]), negatives
//! come from an alias-method [`NegativeTable`] (O(1) per draw; a
//! dynamic-extension round re-smooths only the nodes its continuation
//! walks visited and rebuilds the table on reused storage), and the SGNS
//! inner loop works on contiguous embedding rows with a preallocated
//! center-gradient scratch buffer.

pub mod config;
pub mod model;
pub mod negative;
pub mod sgns;
pub mod stopwatch;

pub use config::Node2VecConfig;
pub use model::Node2VecModel;
pub use negative::{NegativeTable, NegativeTableStats};
pub use sgns::SgnsModel;
