//! High-level Node2Vec model: walks + SGNS + dynamic continuation.
//!
//! Walk corpora are sampled in parallel on the shared execution runtime
//! (one derived RNG stream per start node — see [`dbgraph::Walker`]); the
//! SGNS update loop itself is a sequential in-place SGD whose every update
//! reads the previous one, so it stays single-threaded by design. The
//! trained model is therefore bit-identical at every shard count.

use crate::negative::NegativeTableStats;
use crate::stopwatch::Stopwatch;
use crate::{NegativeTable, Node2VecConfig, SgnsModel};
use dbgraph::{Graph, NodeId, WalkCorpus, Walker};
use stembed_runtime::{derive_seed, Runtime};

/// A trained Node2Vec model over a graph.
///
/// The model owns the embedding matrices but *not* the graph; the caller
/// keeps the graph (and extends it via [`dbgraph::DbGraph::extend_with_fact`]
/// before calling [`Node2VecModel::extend`]).
#[derive(Debug, Clone)]
pub struct Node2VecModel {
    config: Node2VecConfig,
    sgns: SgnsModel,
    /// Node visit counts feeding the negative-sampling distribution; kept so
    /// the dynamic phase can update them with the newly sampled walks.
    counts: Vec<usize>,
    /// The negative-sampling table, kept alive across `extend` calls and
    /// caught up by [`NegativeTable::update`]: each round's continuation
    /// walks change the counts of only the nodes they visit, only those
    /// nodes are re-smoothed, and the alias columns are rebuilt on reused
    /// storage — byte-identical to a fresh table.
    negatives: NegativeTable,
    /// Reusable walk-corpus arena for the dynamic phase's continuation
    /// walks (cleared and refilled each `extend` call).
    walk_buf: WalkCorpus,
    /// Reusable dirty-node worklist for the incremental table update.
    dirty_buf: Vec<usize>,
    /// Execution runtime for walk sampling (static and dynamic phases).
    runtime: Runtime,
    /// Wall-clock split of the most recent [`Node2VecModel::extend`]
    /// (diagnostics only — never feeds back into any computation).
    last_timing: ExtendTiming,
}

/// Wall-clock split of one `extend` call, for profiling: how much of the
/// round went to walk sampling, to the incremental negative-table
/// update, and to the SGNS continuation (the gradient-kernel hot loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtendTiming {
    /// Seconds sampling the continuation walk corpus.
    pub walk_secs: f64,
    /// Seconds catching up the negative-sampling table.
    pub table_secs: f64,
    /// Seconds in the SGNS continuation SGD (the mixed-precision
    /// kernel path).
    pub train_secs: f64,
    /// Tokens in the continuation walk corpus the SGD consumed.
    pub corpus_tokens: usize,
    /// Effective epochs after the per-extend token budget
    /// ([`crate::Node2VecConfig::dynamic_epochs_for`]).
    pub epochs: usize,
}

impl ExtendTiming {
    /// Total seconds across the three phases.
    pub fn total_secs(&self) -> f64 {
        self.walk_secs + self.table_secs + self.train_secs
    }

    /// Fraction of the round spent in the SGNS gradient kernels
    /// (0 when nothing was timed).
    pub fn kernel_share(&self) -> f64 {
        let total = self.total_secs();
        if total > 0.0 {
            self.train_secs / total
        } else {
            0.0
        }
    }
}

impl Node2VecModel {
    /// Static phase: sample a full walk corpus over `graph` and train SGNS
    /// from scratch, on the default runtime (`STEMBED_SHARDS` / available
    /// parallelism). The result depends only on `(graph, config, seed)`.
    pub fn train(graph: &Graph, config: &Node2VecConfig, seed: u64) -> Self {
        Self::train_with_runtime(graph, config, seed, Runtime::from_env())
    }

    /// [`Node2VecModel::train`] on an explicit execution runtime.
    pub fn train_with_runtime(
        graph: &Graph,
        config: &Node2VecConfig,
        seed: u64,
        runtime: Runtime,
    ) -> Self {
        let walker = Walker::with_runtime(graph, config.walk_config(), seed, runtime);
        let corpus = walker.corpus();
        let mut counts = vec![0usize; graph.node_count()];
        count_tokens(&corpus, &mut counts);
        let table = NegativeTable::new(&counts);
        let mut sgns = SgnsModel::new(
            graph.node_count(),
            config.dim,
            derive_seed(seed, STREAM_INIT),
        );
        sgns.train(
            &corpus,
            &table,
            config.window,
            config.negatives,
            config.epochs,
            config.learning_rate,
            derive_seed(seed, STREAM_TRAIN),
        );
        Node2VecModel {
            config: config.clone(),
            sgns,
            counts,
            negatives: table,
            walk_buf: WalkCorpus::default(),
            dirty_buf: Vec::new(),
            runtime,
            last_timing: ExtendTiming::default(),
        }
    }

    /// Dynamic phase (paper §IV-A): the graph has been extended with new
    /// nodes (`graph.node_count() >= self.node_count()`); freeze every old
    /// node, randomly initialise the new ones, sample walks **starting at
    /// the new nodes**, and continue training — gradients flow only into the
    /// new nodes' vectors.
    pub fn extend(&mut self, graph: &Graph, new_nodes: &[NodeId], seed: u64) {
        self.extend_with_starts(graph, new_nodes, seed);
    }

    /// Like [`Node2VecModel::extend`], but sampling the continuation walks
    /// from an explicit start set (the nodes the graph gained are implied
    /// by `graph.node_count()`). The paper's *all-at-once* setting
    /// recomputes paths from **every** node (old walks may now traverse new
    /// data) while still freezing old vectors; pass all node ids as
    /// `walk_starts` for that behaviour — including for **delete-only**
    /// rounds, where no node is new but the surviving walks (and with them
    /// the negative-sampling counts) must still be refreshed.
    pub fn extend_with_starts(&mut self, graph: &Graph, walk_starts: &[NodeId], seed: u64) {
        self.sgns.freeze_all();
        self.sgns
            .grow(graph.node_count(), derive_seed(seed, STREAM_GROW));
        self.counts.resize(graph.node_count(), 0);
        // Gate on the *walk starts*, not the new-node set: a delete-only
        // all-at-once round has no new nodes but must still re-walk from
        // every surviving start so the visit counts (and with them the
        // negative-sampling distribution) reflect the removal.
        if walk_starts.is_empty() {
            return;
        }
        // Per-round structures are *reused*, not rebuilt: the walk corpus
        // refills the model's arena, and the negative table is caught up
        // in place — the continuation walks touch only a few nodes'
        // counts, and `NegativeTable::update` re-smooths exactly those
        // nodes before rebuilding the alias columns on reused storage.
        // Both are byte-identical to fresh construction, so the continuation
        // training consumes exactly the same random streams.
        // `ExtendTiming` is wall-clock diagnostics for benches; the clock
        // reads live behind the `timing` feature (see `crate::stopwatch`),
        // so the default build has no ambient-time reads here at all.
        let mut sw = Stopwatch::start();
        let walker = Walker::with_runtime(graph, self.config.walk_config(), seed, self.runtime);
        let mut corpus = std::mem::take(&mut self.walk_buf);
        walker.corpus_from_into(walk_starts, &mut corpus);
        let walk_secs = sw.lap();
        let mut dirty = std::mem::take(&mut self.dirty_buf);
        count_tokens_dirty(&corpus, &mut self.counts, &mut dirty);
        self.negatives.update(&dirty, &self.counts);
        self.dirty_buf = dirty;
        let table_secs = sw.lap();
        // Per-extend epoch budget: continuation work scales with the
        // corpus, capped by `dynamic_token_budget` (tokens × epochs).
        let epochs = self.config.dynamic_epochs_for(corpus.total_tokens());
        self.sgns.train(
            &corpus,
            &self.negatives,
            self.config.window,
            self.config.negatives,
            epochs,
            self.config.learning_rate,
            derive_seed(seed, STREAM_EXTEND_TRAIN),
        );
        let train_secs = sw.lap();
        self.last_timing = ExtendTiming {
            walk_secs,
            table_secs,
            train_secs,
            corpus_tokens: corpus.total_tokens(),
            epochs,
        };
        self.walk_buf = corpus;
    }

    /// The embedding of a node (f32 storage; widen per element where a
    /// downstream task needs f64 features).
    pub fn embedding(&self, node: NodeId) -> &[f32] {
        self.sgns.embedding(node)
    }

    /// Wall-clock split of the most recent `extend` call (all zeros
    /// before the first extension).
    pub fn last_extend_timing(&self) -> ExtendTiming {
        self.last_timing
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.sgns.dim()
    }

    /// Number of embedded nodes.
    pub fn node_count(&self) -> usize {
        self.sgns.node_count()
    }

    /// Whether a node's vector is frozen.
    pub fn is_frozen(&self, node: NodeId) -> bool {
        self.sgns.is_frozen(node)
    }

    /// How many walk tokens have visited `node` across the static corpus
    /// and every dynamic continuation — the raw count feeding the
    /// negative-sampling distribution.
    pub fn visit_count(&self, node: NodeId) -> usize {
        self.counts.get(node.index()).copied().unwrap_or(0)
    }

    /// Maintenance counters of the negative-sampling table (rebuilds vs
    /// incremental updates, dirty nodes).
    pub fn negative_stats(&self) -> NegativeTableStats {
        self.negatives.stats()
    }

    /// Always 1: the negative-sampling table is one flat alias table.
    /// Kept only because the benchmark still divides
    /// [`NegativeTableStats::buckets_rebuilt`] by it; delete both once the
    /// benchmark retires its bucket metrics.
    pub fn negative_bucket_count(&self) -> usize {
        1
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &Node2VecConfig {
        &self.config
    }

    /// The execution runtime used for walk sampling.
    pub fn runtime(&self) -> Runtime {
        self.runtime
    }

    /// The underlying SGNS parameters (for snapshotting; see
    /// [`SgnsModel::raw_parts`]).
    pub fn sgns(&self) -> &SgnsModel {
        &self.sgns
    }

    /// Per-node walk visit counts (for snapshotting — the negative table
    /// is *derived* from these: `NegativeTable::new(&counts)` is
    /// byte-identical to the incrementally maintained table, a contract
    /// the incremental-update tests pin down).
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Rebuild a model from snapshotted state: the SGNS parameters and
    /// visit counts are the only learned state; the negative table, walk
    /// arenas, and timing are derived or transient and are reconstructed
    /// here, bit-identical to the originals.
    ///
    /// # Panics
    /// If `counts.len() != sgns.node_count()`.
    pub fn from_raw_parts(
        config: Node2VecConfig,
        sgns: SgnsModel,
        counts: Vec<usize>,
        runtime: Runtime,
    ) -> Self {
        assert_eq!(counts.len(), sgns.node_count(), "counts/node mismatch");
        let negatives = NegativeTable::new(&counts);
        Node2VecModel {
            config,
            sgns,
            counts,
            negatives,
            walk_buf: WalkCorpus::default(),
            dirty_buf: Vec::new(),
            runtime,
            last_timing: ExtendTiming::default(),
        }
    }
}

fn count_tokens(corpus: &WalkCorpus, counts: &mut [usize]) {
    // One pass over the contiguous token arena — no per-walk indirection.
    for node in corpus.tokens() {
        counts[node.index()] += 1;
    }
}

/// [`count_tokens`] that also collects the **dirty set**: the sorted,
/// deduplicated indices of every node the corpus visited — exactly the
/// counts the incremental [`NegativeTable::update`] must refresh.
fn count_tokens_dirty(corpus: &WalkCorpus, counts: &mut [usize], dirty: &mut Vec<usize>) {
    dirty.clear();
    for node in corpus.tokens() {
        counts[node.index()] += 1;
        dirty.push(node.index());
    }
    dirty.sort_unstable();
    dirty.dedup();
}

/// Named `derive_seed` sub-streams of the caller's master seed. The walker
/// consumes the master seed directly (stream of its own); everything else
/// draws a decorrelated stream by constant — hand salts (`seed ^ 0x5eed`)
/// are what the seed-arithmetic lint retired, since two xor salts can
/// collide where `derive_seed` streams cannot. The test-mod fresh-structure
/// reference uses these same constants, keeping it in lockstep by
/// construction.
const STREAM_INIT: u64 = 1;
const STREAM_TRAIN: u64 = 2;
const STREAM_GROW: u64 = 3;
const STREAM_EXTEND_TRAIN: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use dbgraph::DbGraph;
    use reldb::movies::movies_database_labeled;

    fn small_cfg() -> Node2VecConfig {
        Node2VecConfig::small()
    }

    #[test]
    fn trains_on_movie_graph() {
        let (db, _) = movies_database_labeled();
        let g = DbGraph::build(&db);
        let model = Node2VecModel::train(g.graph(), &small_cfg(), 42);
        assert_eq!(model.node_count(), g.graph().node_count());
        assert_eq!(model.dim(), 16);
        // All embeddings finite.
        for id in g.graph().node_ids() {
            assert!(model.embedding(id).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn dynamic_extension_freezes_old_and_trains_new() {
        let (mut db, ids) = movies_database_labeled();
        let journal = reldb::cascade_delete(&mut db, ids["c4"], false).unwrap();
        let mut g = DbGraph::build(&db);
        let mut model = Node2VecModel::train(g.graph(), &small_cfg(), 42);
        let old_embeddings: Vec<Vec<f32>> = g
            .graph()
            .node_ids()
            .map(|id| model.embedding(id).to_vec())
            .collect();

        reldb::restore_journal(&mut db, &journal).unwrap();
        let new_nodes = g.extend_with_fact(&db, ids["c4"]);
        model.extend(g.graph(), &new_nodes, 7);

        // Stability: every old node's vector is bit-identical.
        for (i, old) in old_embeddings.iter().enumerate() {
            let id = NodeId(i as u32);
            assert!(model.is_frozen(id));
            assert_eq!(model.embedding(id), old.as_slice(), "node {i} drifted");
        }
        // The new fact node has a trained (non-initial…, at least finite and
        // nonzero) vector.
        let v_new = g.fact_node(ids["c4"]).unwrap();
        assert!(!model.is_frozen(v_new));
        assert!(model.embedding(v_new).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn delete_only_round_still_rewalks_from_explicit_starts() {
        // Regression: `extend_with_starts` used to early-return whenever
        // `new_nodes` was empty, silently skipping the paper's all-at-once
        // re-walk for delete-only rounds. With no new nodes every vector is
        // frozen (nothing may move), but the re-walk must still refresh the
        // visit counts feeding the negative-sampling distribution.
        let (db, _) = movies_database_labeled();
        let g = DbGraph::build(&db);
        let mut model = Node2VecModel::train(g.graph(), &small_cfg(), 4);
        let before: Vec<Vec<f32>> = g
            .graph()
            .node_ids()
            .map(|id| model.embedding(id).to_vec())
            .collect();
        let total_before: usize = g.graph().node_ids().map(|n| model.visit_count(n)).sum();
        let all: Vec<NodeId> = g.graph().node_ids().collect();
        model.extend_with_starts(g.graph(), &all, 9);
        for (i, old) in before.iter().enumerate() {
            let id = NodeId(i as u32);
            assert!(model.is_frozen(id));
            assert_eq!(model.embedding(id), old.as_slice(), "node {i} moved");
        }
        let total_after: usize = g.graph().node_ids().map(|n| model.visit_count(n)).sum();
        assert!(
            total_after > total_before,
            "the delete-only re-walk must refresh visit counts \
             ({total_before} -> {total_after})"
        );
        assert_eq!(
            model.negative_stats().updates,
            1,
            "table caught up incrementally"
        );
    }

    /// Retained ≡ fresh across ≥3 extend rounds: a model whose negative
    /// table and walk arena are maintained incrementally must produce
    /// bit-identical embeddings to one that builds a fresh corpus and a
    /// fresh `NegativeTable::new` every round.
    #[test]
    fn retained_model_matches_fresh_structures_across_extend_rounds() {
        fn extend_fresh(model: &mut Node2VecModel, graph: &Graph, new_nodes: &[NodeId], seed: u64) {
            model.sgns.freeze_all();
            model
                .sgns
                .grow(graph.node_count(), derive_seed(seed, STREAM_GROW));
            model.counts.resize(graph.node_count(), 0);
            if new_nodes.is_empty() {
                return;
            }
            let walker =
                Walker::with_runtime(graph, model.config.walk_config(), seed, model.runtime);
            let corpus = walker.corpus_from(new_nodes);
            count_tokens(&corpus, &mut model.counts);
            let table = NegativeTable::new(&model.counts);
            // Same per-extend epoch budget as the production path.
            let epochs = model.config.dynamic_epochs_for(corpus.total_tokens());
            model.sgns.train(
                &corpus,
                &table,
                model.config.window,
                model.config.negatives,
                epochs,
                model.config.learning_rate,
                derive_seed(seed, STREAM_EXTEND_TRAIN),
            );
        }

        let (mut db, ids) = movies_database_labeled();
        // Three cascade groups, restored round by round in inverse order.
        let victims = ["c4", "c1", "c2"];
        let journals: Vec<_> = victims
            .iter()
            .map(|v| reldb::cascade_delete(&mut db, ids[v], false).unwrap())
            .collect();
        let mut g = DbGraph::build(&db);
        let retained0 = Node2VecModel::train(g.graph(), &small_cfg(), 21);
        let mut retained = retained0.clone();
        let mut fresh = retained0;

        for (round, journal) in journals.iter().rev().enumerate() {
            reldb::restore_journal(&mut db, journal).unwrap();
            let victim = ids[victims[victims.len() - 1 - round]];
            let new_nodes = g.extend_with_fact(&db, victim);
            assert!(!new_nodes.is_empty(), "round {round} restored nothing");
            retained.extend(g.graph(), &new_nodes, 100 + round as u64);
            extend_fresh(&mut fresh, g.graph(), &new_nodes, 100 + round as u64);
            for id in g.graph().node_ids() {
                let a: Vec<u32> = retained.embedding(id).iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = fresh.embedding(id).iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "round {round}: node {id:?} diverged");
            }
        }
        let stats = retained.negative_stats();
        assert_eq!(stats.rebuilds, 1, "only the static phase fully rebuilds");
        assert_eq!(stats.updates, 3, "each round catches up incrementally");
    }

    #[test]
    fn extend_with_no_new_nodes_is_noop() {
        let (db, _) = movies_database_labeled();
        let g = DbGraph::build(&db);
        let mut model = Node2VecModel::train(g.graph(), &small_cfg(), 1);
        let before: Vec<Vec<f32>> = g
            .graph()
            .node_ids()
            .map(|id| model.embedding(id).to_vec())
            .collect();
        model.extend(g.graph(), &[], 5);
        for (i, old) in before.iter().enumerate() {
            assert_eq!(model.embedding(NodeId(i as u32)), old.as_slice());
        }
    }
}
