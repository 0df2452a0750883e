//! The unified tuple-embedder interface (paper §III's two-phase problem
//! statement), implemented by FoRWaRD and by the Node2Vec adaptation.
//!
//! The experiment harness trains either embedder in the **static phase**,
//! hands the vectors of the prediction relation to a downstream classifier,
//! and in the **dynamic phase** calls [`TupleEmbedder::extend`] after each
//! insertion batch — the trait contract requires that old embeddings are
//! *never* modified by `extend`.

use crate::config::ForwardConfig;
use crate::train::ForwardEmbedding;
use crate::CoreError;
use dbgraph::DbGraph;
use node2vec::{Node2VecConfig, Node2VecModel};
use reldb::{Database, FactId, RelationId};

/// How the Node2Vec dynamic phase resamples walks (paper §VI-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtendMode {
    /// Sample walks only from the new nodes; paths through old data are not
    /// recomputed. Fast; the paper's default for tuple-at-a-time arrival.
    #[default]
    OneByOne,
    /// Recompute the full walk corpus (paths from old tuples may traverse
    /// new data), still training only the new nodes. Used by the
    /// "all-at-once" setting.
    AllAtOnce,
}

/// A tuple embedding that can be extended to newly inserted facts without
/// changing existing vectors.
pub trait TupleEmbedder {
    /// Embedding dimension.
    fn dim(&self) -> usize;

    /// The vector of `fact`, if embedded.
    ///
    /// Returned by value: FoRWaRD stores `f64` rows, but the Node2Vec
    /// arenas store `f32` (see `PRECISION.md`), so a borrowed `&[f64]`
    /// is no longer a common denominator. The widening copy is
    /// `dim`-sized and only taken on the read path.
    fn embedding(&self, fact: FactId) -> Option<Vec<f64>>;

    /// Extend the embedding to `new_facts`, which must already be inserted
    /// into `db`. MUST NOT change any existing embedding.
    fn extend(&mut self, db: &Database, new_facts: &[FactId], seed: u64) -> Result<(), CoreError>;

    /// Short display name ("FoRWaRD" / "Node2Vec").
    fn name(&self) -> &'static str;
}

/// FoRWaRD as a [`TupleEmbedder`]. Embeds only the prediction relation
/// (paper §VI-C: "we embed only the relation that contains the tuples that
/// we wish to classify"); `extend` ignores facts of other relations — their
/// contents still influence the embedding through the walk distributions.
///
/// `extend` runs on the embedding's persistent walk-distribution cache
/// (see [`crate::distcache::DistCache`]): all facts of one call share
/// every exact distribution, and the cache stays warm **across calls and
/// across database mutations** — each solve replays the database's
/// mutation journal and evicts only the entries the missed mutations can
/// reach through the FK structure of the cached walk schemes. The
/// experiment harness's one-by-one dynamic protocol therefore carries a
/// progressively warmer cache from round to round instead of starting
/// each insertion round cold.
#[derive(Debug, Clone)]
pub struct ForwardEmbedder {
    inner: ForwardEmbedding,
}

impl ForwardEmbedder {
    /// Static phase.
    pub fn train(
        db: &Database,
        rel: RelationId,
        config: &ForwardConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Ok(ForwardEmbedder {
            inner: ForwardEmbedding::train(db, rel, config, seed)?,
        })
    }

    /// Static phase on an explicit execution runtime (the trained result is
    /// the same for every shard count; only wall-clock changes).
    pub fn train_with_runtime(
        db: &Database,
        rel: RelationId,
        config: &ForwardConfig,
        seed: u64,
        runtime: stembed_runtime::Runtime,
    ) -> Result<Self, CoreError> {
        Ok(ForwardEmbedder {
            inner: ForwardEmbedding::train_with_runtime(db, rel, config, seed, runtime)?,
        })
    }

    /// The underlying embedding.
    pub fn inner(&self) -> &ForwardEmbedding {
        &self.inner
    }

    /// The embedded relation.
    pub fn relation(&self) -> RelationId {
        self.inner.relation()
    }

    /// Hit/miss/invalidation counters of the persistent walk-distribution
    /// cache driving `extend` (diagnostics) — including the prefix-frontier
    /// tier (`prefix_hits`/`prefix_misses`) and the count of exact KD
    /// evaluations (`kd_misses`; `kd_hits` is always 0).
    pub fn dist_cache_stats(&self) -> crate::distcache::DistCacheStats {
        self.inner.dist_cache().stats()
    }

    /// The targets' schemes factored into a shared prefix trie — the
    /// deterministic DFS order `extend` pre-warms distributions in (see
    /// [`crate::plan::SchemePlan`]).
    pub fn scheme_plan(&self) -> &crate::plan::SchemePlan {
        self.inner.scheme_plan()
    }
}

impl From<ForwardEmbedding> for ForwardEmbedder {
    /// Wrap an already-trained embedding — callers that train one
    /// `ForwardEmbedding` and reuse it across harness entry points (the
    /// benches' shared-training setup) lift it into the trait object
    /// without retraining.
    fn from(inner: ForwardEmbedding) -> Self {
        ForwardEmbedder { inner }
    }
}

impl TupleEmbedder for ForwardEmbedder {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn embedding(&self, fact: FactId) -> Option<Vec<f64>> {
        self.inner.embedding(fact).map(<[f64]>::to_vec)
    }

    fn extend(&mut self, db: &Database, new_facts: &[FactId], seed: u64) -> Result<(), CoreError> {
        let rel = self.inner.relation();
        let mine: Vec<FactId> = new_facts.iter().copied().filter(|f| f.rel == rel).collect();
        self.inner.extend_batch(db, &mine, seed)
    }

    fn name(&self) -> &'static str {
        "FoRWaRD"
    }
}

/// The dynamic Node2Vec adaptation as a [`TupleEmbedder`]: owns the
/// bipartite graph and the SGNS model; `extend` grows the graph with the
/// new facts, freezes all old node vectors, and continues training on walks
/// from the new nodes only (paper §IV-A).
#[derive(Debug, Clone)]
pub struct Node2VecEmbedder {
    graph: DbGraph,
    model: Node2VecModel,
    mode: ExtendMode,
}

impl Node2VecEmbedder {
    /// Static phase: build `G_D` and train SGNS over it.
    pub fn train(db: &Database, config: &Node2VecConfig, seed: u64) -> Self {
        Self::train_with_runtime(db, config, seed, stembed_runtime::Runtime::from_env())
    }

    /// Static phase on an explicit execution runtime.
    pub fn train_with_runtime(
        db: &Database,
        config: &Node2VecConfig,
        seed: u64,
        runtime: stembed_runtime::Runtime,
    ) -> Self {
        let graph = DbGraph::build(db);
        let model = Node2VecModel::train_with_runtime(graph.graph(), config, seed, runtime);
        Node2VecEmbedder {
            graph,
            model,
            mode: ExtendMode::OneByOne,
        }
    }

    /// Forwards to [`Node2VecEmbedder::train_with_runtime`]; `_rel` is
    /// ignored. Kept only because the benchmark still calls it: delete it
    /// once the benchmark switches to `train_with_runtime`.
    pub fn train_localized_with_runtime(
        db: &Database,
        _rel: RelationId,
        config: &Node2VecConfig,
        seed: u64,
        runtime: stembed_runtime::Runtime,
    ) -> Self {
        Self::train_with_runtime(db, config, seed, runtime)
    }

    /// Select the dynamic-phase walk-resampling mode.
    pub fn with_mode(mut self, mode: ExtendMode) -> Self {
        self.mode = mode;
        self
    }

    /// The bipartite graph (extended as facts arrive).
    pub fn graph(&self) -> &DbGraph {
        &self.graph
    }

    /// The SGNS model.
    pub fn model(&self) -> &Node2VecModel {
        &self.model
    }

    /// The dynamic-phase walk-resampling mode.
    pub fn mode(&self) -> ExtendMode {
        self.mode
    }

    /// Reassemble an embedder from snapshotted parts (see
    /// `crate::snapshot` for the byte encoding).
    pub fn from_parts(graph: DbGraph, model: Node2VecModel, mode: ExtendMode) -> Self {
        Node2VecEmbedder { graph, model, mode }
    }
}

impl TupleEmbedder for Node2VecEmbedder {
    fn dim(&self) -> usize {
        self.model.dim()
    }

    fn embedding(&self, fact: FactId) -> Option<Vec<f64>> {
        let node = self.graph.fact_node(fact)?;
        Some(
            self.model
                .embedding(node)
                .iter()
                .map(|&v| f64::from(v))
                .collect(),
        )
    }

    fn extend(&mut self, db: &Database, new_facts: &[FactId], seed: u64) -> Result<(), CoreError> {
        // Validate and dedup first, then grow the graph in one batch so the
        // CSR merge runs once per `extend` call, not once per fact.
        let mut to_add: Vec<FactId> = Vec::new();
        let mut queued: std::collections::HashSet<FactId> = std::collections::HashSet::new();
        for &f in new_facts {
            if db.fact(f).is_none() {
                return Err(CoreError::UnknownFact(f));
            }
            if self.graph.fact_node(f).is_some() || !queued.insert(f) {
                continue; // idempotence: already embedded (or queued)
            }
            to_add.push(f);
        }
        let new_nodes = self.graph.extend_with_facts(db, &to_add);
        match self.mode {
            ExtendMode::OneByOne => {
                // Continuation walks start at the new nodes; with none
                // there is nothing to walk from (idempotent no-op).
                if new_nodes.is_empty() {
                    return Ok(());
                }
                self.model.extend(self.graph.graph(), &new_nodes, seed);
            }
            ExtendMode::AllAtOnce => {
                // Recompute paths from *all* nodes; training still only
                // updates the (unfrozen) new nodes. This runs even when no
                // node is new — a delete-only round must still refresh the
                // surviving walks and the negative-sampling counts.
                let all: Vec<_> = self.graph.graph().node_ids().collect();
                // `extend_with_starts` freezes old nodes first, so passing
                // every node as a walk start is safe: gradients cannot
                // reach frozen ones.
                self.model
                    .extend_with_starts(self.graph.graph(), &all, seed);
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "Node2Vec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use node2vec::Node2VecConfig;
    use reldb::movies::movies_database_labeled;
    use reldb::{cascade_delete, restore_journal};

    fn fwd_cfg() -> ForwardConfig {
        ForwardConfig {
            dim: 8,
            epochs: 4,
            nsamples: 30,
            ..ForwardConfig::small()
        }
    }

    #[test]
    fn both_embedders_satisfy_the_stability_contract() {
        let (mut db, ids) = movies_database_labeled();
        let journal = cascade_delete(&mut db, ids["a5"], false).unwrap();

        let actors = db.schema().relation_id("ACTORS").unwrap();
        let mut fwd = ForwardEmbedder::train(&db, actors, &fwd_cfg(), 3).unwrap();
        let mut n2v = Node2VecEmbedder::train(&db, &Node2VecConfig::small(), 3);

        let actor_facts: Vec<FactId> = db.fact_ids(actors).into_iter().collect();
        let fwd_before: Vec<Vec<f64>> = actor_facts
            .iter()
            .map(|&f| fwd.embedding(f).unwrap())
            .collect();
        let n2v_before: Vec<Vec<f64>> = actor_facts
            .iter()
            .map(|&f| n2v.embedding(f).unwrap())
            .collect();

        let restored = restore_journal(&mut db, &journal).unwrap();
        fwd.extend(&db, &restored, 5).unwrap();
        n2v.extend(&db, &restored, 5).unwrap();

        for (i, &f) in actor_facts.iter().enumerate() {
            assert_eq!(fwd.embedding(f).unwrap(), fwd_before[i].as_slice());
            assert_eq!(n2v.embedding(f).unwrap(), n2v_before[i].as_slice());
        }
        // Both embed the restored actor.
        assert!(fwd.embedding(ids["a5"]).is_some());
        assert!(n2v.embedding(ids["a5"]).is_some());
        // Node2Vec also embeds the restored collaboration; FoRWaRD does not
        // (it embeds only the target relation).
        assert!(n2v.embedding(ids["c2"]).is_some());
        assert!(fwd.embedding(ids["c2"]).is_none());
    }

    #[test]
    fn all_at_once_mode_is_also_stable() {
        let (mut db, ids) = movies_database_labeled();
        let journal = cascade_delete(&mut db, ids["a5"], false).unwrap();
        let mut n2v = Node2VecEmbedder::train(&db, &Node2VecConfig::small(), 8)
            .with_mode(ExtendMode::AllAtOnce);
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let before: Vec<(FactId, Vec<f64>)> = db
            .fact_ids(actors)
            .into_iter()
            .map(|f| (f, n2v.embedding(f).unwrap()))
            .collect();
        let restored = restore_journal(&mut db, &journal).unwrap();
        n2v.extend(&db, &restored, 1).unwrap();
        for (f, old) in &before {
            assert_eq!(n2v.embedding(*f).unwrap(), old.as_slice());
        }
        assert!(n2v.embedding(ids["a5"]).is_some());
    }

    #[test]
    fn extend_is_idempotent_for_known_facts() {
        let (db, ids) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let mut fwd = ForwardEmbedder::train(&db, actors, &fwd_cfg(), 2).unwrap();
        let mut n2v = Node2VecEmbedder::train(&db, &Node2VecConfig::small(), 2);
        let fwd_before = fwd.embedding(ids["a1"]).unwrap();
        let n2v_before = n2v.embedding(ids["a1"]).unwrap();
        let stats_before = fwd.dist_cache_stats();
        // Extending with an already-embedded fact is a no-op.
        fwd.extend(&db, &[ids["a1"]], 9).unwrap();
        n2v.extend(&db, &[ids["a1"]], 9).unwrap();
        assert_eq!(fwd.embedding(ids["a1"]).unwrap(), fwd_before.as_slice());
        assert_eq!(n2v.embedding(ids["a1"]).unwrap(), n2v_before.as_slice());
        assert_eq!(fwd.dist_cache_stats(), stats_before, "cache touched");
    }

    #[test]
    fn names_and_dims() {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let fwd = ForwardEmbedder::train(&db, actors, &fwd_cfg(), 0).unwrap();
        let n2v = Node2VecEmbedder::train(&db, &Node2VecConfig::small(), 0);
        assert_eq!(fwd.name(), "FoRWaRD");
        assert_eq!(n2v.name(), "Node2Vec");
        assert_eq!(fwd.dim(), 8);
        assert_eq!(n2v.dim(), 16);
    }
}
