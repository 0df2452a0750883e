//! Uniform access to the two embedding methods.

use crate::ExperimentConfig;
use datasets::Dataset;
use reldb::{Database, FactId};
use stembed_core::{
    embedder::ExtendMode, CoreError, ForwardEmbedder, Node2VecEmbedder, TupleEmbedder,
};

/// Which embedding algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The FoRWaRD algorithm (paper §V).
    Forward,
    /// The dynamic Node2Vec adaptation (paper §IV).
    Node2Vec,
}

impl Method {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::Forward => "FoRWaRD",
            Method::Node2Vec => "Node2Vec",
        }
    }

    /// Both methods, in the order the paper's tables list them.
    pub fn all() -> [Method; 2] {
        [Method::Node2Vec, Method::Forward]
    }
}

/// Type-erased embedder so the harness can treat both methods uniformly.
#[derive(Clone)]
pub enum AnyEmbedder {
    /// FoRWaRD.
    Forward(Box<ForwardEmbedder>),
    /// Node2Vec.
    Node2Vec(Box<Node2VecEmbedder>),
}

impl AnyEmbedder {
    /// Static phase on the dataset's current database state.
    pub fn train(
        method: Method,
        db: &Database,
        ds: &Dataset,
        cfg: &ExperimentConfig,
        seed: u64,
        mode: ExtendMode,
    ) -> Result<Self, CoreError> {
        match method {
            Method::Forward => Ok(AnyEmbedder::Forward(Box::new(ForwardEmbedder::train(
                db,
                ds.prediction_rel,
                &cfg.fwd,
                seed,
            )?))),
            Method::Node2Vec => Ok(AnyEmbedder::Node2Vec(Box::new(
                Node2VecEmbedder::train(db, &cfg.n2v, seed).with_mode(mode),
            ))),
        }
    }

    /// The embedding of a fact (by value — see
    /// [`TupleEmbedder::embedding`]).
    pub fn embedding(&self, fact: FactId) -> Option<Vec<f64>> {
        match self {
            AnyEmbedder::Forward(e) => e.embedding(fact),
            AnyEmbedder::Node2Vec(e) => e.embedding(fact),
        }
    }

    /// Extend to newly inserted facts (stability guaranteed by both
    /// implementations).
    pub fn extend(
        &mut self,
        db: &Database,
        new_facts: &[FactId],
        seed: u64,
    ) -> Result<(), CoreError> {
        match self {
            AnyEmbedder::Forward(e) => e.extend(db, new_facts, seed),
            AnyEmbedder::Node2Vec(e) => e.extend(db, new_facts, seed),
        }
    }

    /// Feature matrix for the given labelled facts (order preserved).
    /// Panics if a fact has no embedding — the harness only requests facts
    /// it has embedded.
    pub fn features(&self, facts: &[FactId]) -> Vec<Vec<f64>> {
        facts
            .iter()
            .map(|&f| {
                self.embedding(f)
                    .unwrap_or_else(|| panic!("fact {f} has no embedding"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::DatasetParams;

    #[test]
    fn trains_both_methods_on_tiny_world() {
        let ds = datasets::world::generate(&DatasetParams::tiny(3));
        let cfg = ExperimentConfig::quick();
        for method in Method::all() {
            let emb =
                AnyEmbedder::train(method, &ds.db, &ds, &cfg, 1, ExtendMode::OneByOne).unwrap();
            let facts: Vec<FactId> = ds.labels.iter().map(|(f, _)| *f).collect();
            let x = emb.features(&facts);
            assert_eq!(x.len(), ds.sample_count());
            assert!(x.iter().all(|row| row.iter().all(|v| v.is_finite())));
        }
    }
}
