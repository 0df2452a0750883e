//! FoRWaRD dynamic phase: extending the embedding to new tuples
//! (paper §V-E).
//!
//! For a newly inserted `R`-fact `f_new` we want `ϕ(f_new)` to satisfy
//! Eq. 6 against already-embedded facts:
//!
//! ```text
//! ϕ(f_new)ᵀ · ψ(s,A) · ϕ(f_old) = KD(d_{s,f_old}[A], d_{s,f_new}[A])
//! ```
//!
//! Each choice of `(f_old, s, A)` contributes one linear equation
//! `cᵀ ϕ(f_new) = y` with `c = ψ(s,A)·ϕ(f_old)` (Eq. 7) and
//! `y` the KD value (Eq. 8). Stacking `n_new_samples` equations per target
//! yields the overdetermined system `C·ϕ(f_new) = b` (Eq. 9), solved with
//! the SVD **pseudoinverse** `ϕ(f_new) = C⁺·b` (Eq. 10) — no gradient
//! descent, which is exactly why FoRWaRD's one-by-one extension is fast
//! (paper Table VI).
//!
//! Crucially, **no existing embedding changes**: the method writes exactly
//! one new vector. This is the stability guarantee of the paper's problem
//! statement, and the test below asserts bit-identity of every old vector.

use crate::distcache::DistCache;
use crate::kd::kd_cached;
use crate::train::ForwardEmbedding;
use crate::CoreError;
use linalg::{pinv_solve_gram, Matrix};
use reldb::{Database, FactId};
use stembed_runtime::{derive_seed, stream_rng};

/// Options controlling the dynamic extension.
#[derive(Debug, Clone, Copy)]
pub struct ExtendOptions {
    /// Override the per-target equation budget (`None`: use the trained
    /// config's `nnew_samples`).
    pub nnew_samples: Option<usize>,
    /// Reuse (and keep warming) the embedding's persistent
    /// [`DistCache`] across `extend` calls — the default. `false` solves
    /// against a throwaway cache instead: nothing read before the call,
    /// nothing kept after. Results are bit-identical either way (the cache
    /// memoises pure functions and never touches the RNG); the switch
    /// exists as the reference path for exactly that assertion in
    /// `tests/determinism.rs`.
    pub reuse_cache: bool,
}

impl Default for ExtendOptions {
    fn default() -> Self {
        ExtendOptions {
            nnew_samples: None,
            reuse_cache: true,
        }
    }
}

impl ForwardEmbedding {
    /// Extend the embedding to one newly inserted fact. Old embeddings are
    /// untouched; returns the new vector's L2 norm (diagnostics). A fact
    /// that is already embedded keeps its vector: nothing is solved and
    /// the cache is not touched.
    pub fn extend(&mut self, db: &Database, new_fact: FactId, seed: u64) -> Result<f64, CoreError> {
        self.extend_with(db, new_fact, seed, ExtendOptions::default())
    }

    /// [`ForwardEmbedding::extend`] with explicit options.
    pub fn extend_with(
        &mut self,
        db: &Database,
        new_fact: FactId,
        seed: u64,
        options: ExtendOptions,
    ) -> Result<f64, CoreError> {
        if new_fact.rel != self.relation() {
            return Err(CoreError::WrongRelation(new_fact));
        }
        if db.fact(new_fact).is_none() {
            return Err(CoreError::UnknownFact(new_fact));
        }
        if let Some(existing) = self.embedding(new_fact) {
            return Ok(linalg::vector::norm2(existing));
        }
        // The persistent cache is taken out of `self` for the solve (which
        // borrows `self` shared) and put back afterwards; with
        // `reuse_cache = false` a throwaway cache with the same persist
        // set stands in.
        let mut cache = if options.reuse_cache {
            self.take_dist_cache()
        } else {
            self.dist_cache().empty_like()
        };
        let solved = self.solve_new_vector(db, new_fact, seed, options, &mut cache);
        if options.reuse_cache {
            self.put_back_dist_cache(cache);
        }
        let phi_new = solved?;
        let norm = linalg::vector::norm2(&phi_new);
        self.insert_phi(new_fact, phi_new);
        Ok(norm)
    }

    /// Extend to a batch of new facts, one linear solve each, in order.
    /// Earlier-extended facts become usable as `f_old` for later ones, and
    /// the persistent [`DistCache`] carries across the inserts — the
    /// database does not change during the batch, so every distribution
    /// computed for one fact's equations is a hit for the next.
    ///
    /// Fact `i` draws from the independent stream family
    /// `derive_seed(seed, i)`. (It used to be `seed + i`, which made fact
    /// `i`'s family overlap fact `i+1`'s base seed.)
    pub fn extend_batch(
        &mut self,
        db: &Database,
        new_facts: &[FactId],
        seed: u64,
    ) -> Result<(), CoreError> {
        for (i, &f) in new_facts.iter().enumerate() {
            self.extend_with(db, f, derive_seed(seed, i as u64), ExtendOptions::default())?;
        }
        Ok(())
    }

    /// Assemble and solve the linear system for `ϕ(f_new)`.
    ///
    /// Row assembly is sharded **per target** on the embedding's runtime:
    /// target `t` shuffles its candidate pool and draws its KD values from
    /// the derived stream `stream_rng(seed, t)`, and the per-target row
    /// blocks are stacked in target order — so the system `C·ϕ = b`, and
    /// with it the solved vector, is bit-identical at every shard count.
    ///
    /// Distribution lookups go through `cache` (bound against `db` first
    /// via [`DistCache::ensure_bound`], which replays the database's
    /// mutation journal and evicts exactly the entries the missed
    /// mutations can reach — so stale entries can never leak in, and
    /// entries untouched by the mutations stay warm across inserts):
    /// the `f_new`-side distribution is resolved **once per target** rather
    /// than once per equation, the fact-level BFS of `f_new` is pre-warmed
    /// in the scheme plan's DFS order (each scheme resumes its parent's
    /// cached prefix frontier — see [`crate::plan::SchemePlan`]), and each
    /// target works against a read-only cache view whose privately
    /// computed entries are merged back in target order — keeping the
    /// result independent of the shard count.
    fn solve_new_vector(
        &self,
        db: &Database,
        new_fact: FactId,
        seed: u64,
        options: ExtendOptions,
        cache: &mut DistCache,
    ) -> Result<Vec<f64>, CoreError> {
        let config = self.config().clone();
        let per_target = options.nnew_samples.unwrap_or(config.nnew_samples);

        // Candidate old facts: everything embedded except the new fact
        // itself (covers previously extended facts too).
        let mut candidates: Vec<FactId> =
            self.embedded_facts().filter(|&f| f != new_fact).collect();
        if candidates.is_empty() {
            return Err(CoreError::NoEquations(new_fact));
        }
        candidates.sort_unstable(); // determinism independent of HashMap order

        cache.ensure_bound(db, config.kd.exact_limit);
        // Pre-warm each fact's fact-level BFS once per distinct scheme, in
        // the scheme plan's DFS order: a child scheme's BFS is "parent
        // frontier + one step" via the cache's prefix tier, and preorder
        // evaluation guarantees the parent frontier is cached (and hot)
        // when each child asks. All targets sharing a scheme marginalise
        // the same distribution to their attribute, so this belongs in the
        // shared snapshot before the sharded section starts — the
        // per-target views below then hit the fact tier instead of each
        // re-running the BFS privately (views cannot share frontiers with
        // each other mid-section). Warming is bit-invisible: every entry
        // is a pure function of `(db content, scheme, start, limit)`, so
        // only *who computes first* changes, never any value.
        let plan = self.scheme_plan();
        let dfs = plan.dfs();
        // The new fact is always warmed: every target resolves its
        // f_new-side distribution, so each scheme's BFS is computed
        // exactly once here and the views below hit the fact tier. Old
        // facts are warmed **per scheme**, and only when the per-target
        // equation budget lets the targets sharing that scheme
        // collectively sample most of the candidate pool — otherwise the
        // warm pass would compute distributions the shuffled pools never
        // draw, which is slower than letting the (few) sharers duplicate
        // the occasional entry privately.
        let warm_old: Vec<bool> = dfs
            .iter()
            .map(|&idx| {
                let node = plan.node(idx);
                node.is_scheme() && {
                    let sharers = self
                        .targets()
                        .iter()
                        .filter(|t| t.scheme == *node.prefix())
                        .count();
                    sharers * per_target >= candidates.len()
                }
            })
            .collect();
        let live_old: Vec<FactId> = if warm_old.iter().any(|&w| w) {
            candidates
                .iter()
                .copied()
                .filter(|&f| db.fact(f).is_some())
                .collect()
        } else {
            Vec::new()
        };
        // One view for the whole pass: it probes base-then-delta, so a
        // child scheme resumes the frontier its parent stored earlier in
        // the pass.
        let mut warm = cache.view();
        for (pos, &idx) in dfs.iter().enumerate() {
            let node = plan.node(idx);
            if !node.is_scheme() {
                continue;
            }
            warm.fact_distribution(db, node.prefix(), new_fact);
            if warm_old[pos] {
                for &f in &live_old {
                    warm.fact_distribution(db, node.prefix(), f);
                }
            }
        }
        cache.absorb(warm.into_delta());

        let snapshot: &DistCache = cache;
        let assembled = self
            .runtime()
            .par_map_ordered(self.targets(), |t_idx, target| {
                let mut rng = stream_rng(seed, t_idx as u64);
                // Distinct f_old per target: shuffle a copy, take a prefix.
                let mut pool = candidates.clone();
                for i in (1..pool.len()).rev() {
                    let j = rng.random_range(0..=i);
                    pool.swap(i, j);
                }
                let mut view = snapshot.view();
                // The f_new side of every equation of this target is the
                // same distribution: resolve it once, not per equation.
                let q_new = view.value_distribution(db, &target.scheme, target.attr, new_fact);
                let mut rows: Vec<Vec<f64>> = Vec::new();
                let mut ys: Vec<f64> = Vec::new();
                for &f_old in &pool {
                    if rows.len() >= per_target {
                        break;
                    }
                    // A target whose f_new-side distribution provably does
                    // not exist can never yield an equation.
                    if q_new.is_nonexistent() {
                        break;
                    }
                    // Dead f_old (deleted since training) can't contribute.
                    if db.fact(f_old).is_none() {
                        continue;
                    }
                    let Some(y) = kd_cached(
                        db,
                        self.kernels(),
                        &target.scheme,
                        target.attr,
                        f_old,
                        new_fact,
                        &q_new,
                        &config.kd,
                        &mut rng,
                        &mut view,
                    ) else {
                        continue;
                    };
                    let phi_old = self
                        .embedding(f_old)
                        // PANICS: never — candidates come from embedded_facts.
                        .expect("candidate comes from embedded_facts");
                    // PANICS: never — ϕ and ψ share the model dimension.
                    let row = self.psi(t_idx).matvec(phi_old).expect("dims agree");
                    rows.push(row);
                    ys.push(y);
                }
                (rows, ys, view.into_delta())
            });
        let mut c = Matrix::zeros(0, 0);
        let mut b = Vec::new();
        for (rows, ys, delta) in assembled {
            for row in &rows {
                c.push_row(row);
            }
            b.extend(ys);
            // Per-target caches merge in target order (shard-independent).
            cache.absorb(delta);
        }
        if c.rows() == 0 {
            // No KD equation could be built — the new fact is disconnected
            // from every embedded fact under all schemes (e.g. all its FK
            // neighbourhoods are empty). Fall back to the centroid of the
            // existing embeddings: a neutral point that keeps downstream
            // pipelines running and is the natural "no information" answer.
            let mut mean = vec![0.0; self.dim()];
            for f in &candidates {
                if let Some(v) = self.embedding(*f) {
                    linalg::vector::axpy(1.0, v, &mut mean);
                }
            }
            linalg::vector::scale(1.0 / candidates.len() as f64, &mut mean);
            return Ok(mean);
        }
        Ok(pinv_solve_gram(&c, &b)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ForwardConfig;
    use crate::kd::kd;
    use reldb::movies::movies_database_labeled;
    use reldb::{cascade_delete, restore_journal};
    use stembed_runtime::rng::DetRng;
    use stembed_runtime::Runtime;

    fn cfg() -> ForwardConfig {
        ForwardConfig {
            dim: 8,
            epochs: 5,
            nsamples: 30,
            ..ForwardConfig::small()
        }
    }

    /// Shared scenario: cascade-delete actor a5 (which takes collaboration
    /// c2 with it), train a static embedding of ACTORS on the remainder,
    /// then restore and extend.
    fn scenario() -> (
        reldb::Database,
        std::collections::HashMap<&'static str, FactId>,
        reldb::DeletionJournal,
    ) {
        let (mut db, ids) = movies_database_labeled();
        let journal = cascade_delete(&mut db, ids["a5"], false).unwrap();
        (db, ids, journal)
    }

    #[test]
    fn extend_is_stable_and_produces_a_vector() {
        let (mut db, ids, journal) = scenario();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let mut emb = ForwardEmbedding::train(&db, actors, &cfg(), 42).unwrap();
        let snapshot: Vec<(FactId, Vec<f64>)> = emb
            .embedded_facts()
            .map(|f| (f, emb.embedding(f).unwrap().to_vec()))
            .collect();

        restore_journal(&mut db, &journal).unwrap();
        let norm = emb.extend(&db, ids["a5"], 7).unwrap();
        assert!(norm.is_finite());

        // Stability: bit-identical old vectors (the paper's core promise).
        for (f, old) in &snapshot {
            assert_eq!(emb.embedding(*f).unwrap(), old.as_slice(), "{f} drifted");
        }
        let new_vec = emb.embedding(ids["a5"]).unwrap();
        assert_eq!(new_vec.len(), 8);
        assert!(new_vec.iter().all(|v| v.is_finite()));
        assert!(new_vec.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn extend_respects_bilinear_constraints_approximately() {
        // The solved vector should fit its own equations better than a
        // random vector does: compare residuals of Eq. 6 on fresh KD draws.
        let (mut db, ids, journal) = scenario();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let mut emb = ForwardEmbedding::train(&db, actors, &cfg(), 1).unwrap();
        restore_journal(&mut db, &journal).unwrap();
        emb.extend(&db, ids["a5"], 3).unwrap();

        let mut rng = DetRng::seed_from_u64(11);
        let mut resid_solved = 0.0;
        let mut resid_random = 0.0;
        let random: Vec<f64> = (0..emb.dim())
            .map(|_| rng.random_range(-0.3..0.3))
            .collect();
        let mut n = 0usize;
        for (t_idx, target) in emb.targets().iter().enumerate() {
            for old_label in ["a1", "a2", "a3", "a4"] {
                let f_old = ids[old_label];
                let Some(y) = kd(
                    &db,
                    emb.kernels(),
                    &target.scheme,
                    target.attr,
                    f_old,
                    ids["a5"],
                    &emb.config().kd,
                    &mut rng,
                ) else {
                    continue;
                };
                let c = emb
                    .psi(t_idx)
                    .matvec(emb.embedding(f_old).unwrap())
                    .unwrap();
                let pred = linalg::vector::dot(emb.embedding(ids["a5"]).unwrap(), &c);
                let pred_rand = linalg::vector::dot(&random, &c);
                resid_solved += (pred - y) * (pred - y);
                resid_random += (pred_rand - y) * (pred_rand - y);
                n += 1;
            }
        }
        assert!(n > 0);
        assert!(
            resid_solved < resid_random,
            "solved {resid_solved} must beat random {resid_random} over {n} equations"
        );
    }

    #[test]
    fn batch_extension_covers_all_new_facts() {
        let (mut db, ids) = movies_database_labeled();
        let j1 = cascade_delete(&mut db, ids["a5"], false).unwrap();
        let j2 = cascade_delete(&mut db, ids["a3"], false).unwrap();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let mut emb = ForwardEmbedding::train(&db, actors, &cfg(), 9).unwrap();
        restore_journal(&mut db, &j2).unwrap();
        restore_journal(&mut db, &j1).unwrap();
        emb.extend_batch(&db, &[ids["a3"], ids["a5"]], 13).unwrap();
        assert!(emb.embedding(ids["a3"]).is_some());
        assert!(emb.embedding(ids["a5"]).is_some());
        assert_eq!(emb.len(), 5);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn stale_cache_is_invalidated_by_database_mutations() {
        // Delete→mutate→restore cycle: the warm cache must never leak
        // entries computed against an older epoch.
        let (mut db, ids, journal) = scenario();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let emb0 = ForwardEmbedding::train(&db, actors, &cfg(), 42).unwrap();
        restore_journal(&mut db, &journal).unwrap();

        let mut emb_warm = emb0.clone();
        emb_warm.extend(&db, ids["a5"], 7).unwrap();
        let v1 = emb_warm.embedding(ids["a5"]).unwrap().to_vec();
        assert!(emb_warm.dist_cache().stats().misses > 0, "cache unused");

        // Mutate the database: cascade-delete m6 (changes the walk
        // distributions of several embedded actors).
        let j_m6 = reldb::cascade_delete(&mut db, ids["m6"], false).unwrap();
        emb_warm.forget(ids["a5"]);
        emb_warm.extend(&db, ids["a5"], 7).unwrap();
        let v2_warm = emb_warm.embedding(ids["a5"]).unwrap().to_vec();
        assert!(
            emb_warm.dist_cache().stats().replays >= 1,
            "epoch change must be caught up via journal replay"
        );
        assert!(
            emb_warm.dist_cache().stats().evicted >= 1,
            "the m6 cascade touches walk-scheme interiors; entries must go"
        );
        // Cold-cache reference on the same mutated database.
        let mut emb_cold = emb0.clone();
        emb_cold.extend(&db, ids["a5"], 7).unwrap();
        let v2_cold = emb_cold.embedding(ids["a5"]).unwrap().to_vec();
        assert_eq!(bits(&v2_warm), bits(&v2_cold), "stale cache entries leaked");
        assert_ne!(
            bits(&v1),
            bits(&v2_warm),
            "the deletion must change the solved vector — if it does not, \
             this test cannot detect stale reuse"
        );

        // Restore: database content is back to the v1 state (new epoch);
        // the re-solved vector must be exactly v1 again.
        restore_journal(&mut db, &j_m6).unwrap();
        emb_warm.forget(ids["a5"]);
        emb_warm.extend(&db, ids["a5"], 7).unwrap();
        assert_eq!(bits(emb_warm.embedding(ids["a5"]).unwrap()), bits(&v1));
    }

    #[test]
    fn batch_extension_reuses_the_cache_and_matches_uncached() {
        let (mut db, ids) = movies_database_labeled();
        let j1 = cascade_delete(&mut db, ids["a5"], false).unwrap();
        let j2 = cascade_delete(&mut db, ids["a3"], false).unwrap();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let emb0 = ForwardEmbedding::train(&db, actors, &cfg(), 9).unwrap();
        restore_journal(&mut db, &j2).unwrap();
        restore_journal(&mut db, &j1).unwrap();

        let mut cached = emb0.clone();
        cached
            .extend_batch(&db, &[ids["a3"], ids["a5"]], 13)
            .unwrap();
        let stats = cached.dist_cache().stats();
        assert!(stats.hits > 0, "the batch must reuse cached distributions");
        assert_eq!(
            stats.invalidations, 0,
            "the database does not change during a batch"
        );

        // Reference: same seeds, but every solve on a throwaway cache.
        let mut uncached = emb0.clone();
        for (i, f) in [ids["a3"], ids["a5"]].into_iter().enumerate() {
            uncached
                .extend_with(
                    &db,
                    f,
                    derive_seed(13, i as u64),
                    ExtendOptions {
                        nnew_samples: None,
                        reuse_cache: false,
                    },
                )
                .unwrap();
        }
        assert!(
            uncached.dist_cache().is_empty(),
            "throwaway caches persisted"
        );
        for f in [ids["a3"], ids["a5"]] {
            assert_eq!(
                bits(cached.embedding(f).unwrap()),
                bits(uncached.embedding(f).unwrap()),
                "cached and uncached extension diverged for {f}"
            );
        }
    }

    #[test]
    fn repeat_extension_rebuilds_no_prefix_frontier() {
        // Forget + re-extend on an unchanged database: the second solve
        // must be served by the retained cache's prefix frontiers — and
        // still produce the exact bits of a throwaway-cache solve.
        let (mut db, ids, journal) = scenario();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let emb0 = ForwardEmbedding::train(&db, actors, &cfg(), 42).unwrap();
        restore_journal(&mut db, &journal).unwrap();

        let mut warm = emb0.clone();
        warm.extend(&db, ids["a5"], 7).unwrap();
        let first = warm.embedding(ids["a5"]).unwrap().to_vec();
        let after_first = warm.dist_cache().stats();
        assert!(
            after_first.prefix_misses > 0,
            "the pre-warm pass assembles frontiers through the prefix tier"
        );

        warm.forget(ids["a5"]);
        warm.extend(&db, ids["a5"], 7).unwrap();
        let second = warm.embedding(ids["a5"]).unwrap().to_vec();
        let after_second = warm.dist_cache().stats();
        assert_eq!(
            after_second.prefix_misses, after_first.prefix_misses,
            "no frontier may be rebuilt when the database is unchanged"
        );
        assert_eq!(bits(&first), bits(&second));

        // Throwaway-cache reference: identical bits.
        let mut cold = emb0.clone();
        cold.extend_with(
            &db,
            ids["a5"],
            7,
            ExtendOptions {
                nnew_samples: None,
                reuse_cache: false,
            },
        )
        .unwrap();
        assert_eq!(bits(&first), bits(cold.embedding(ids["a5"]).unwrap()));
    }

    #[test]
    fn extension_is_shard_invariant() {
        let (db, ids, journal) = scenario();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let run = |shards: usize| {
            let mut emb =
                ForwardEmbedding::train_with_runtime(&db, actors, &cfg(), 42, Runtime::new(shards))
                    .unwrap();
            let mut db2 = db.clone();
            restore_journal(&mut db2, &journal).unwrap();
            emb.extend(&db2, ids["a5"], 7).unwrap();
            emb.embedding(ids["a5"]).unwrap().to_vec()
        };
        let base = run(1);
        for shards in [2usize, 8] {
            assert_eq!(run(shards), base, "shards={shards}: ϕ(a5) diverged");
        }
    }

    #[test]
    fn extend_rejects_wrong_relation_and_dead_facts() {
        let (mut db, ids, journal) = scenario();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let mut emb = ForwardEmbedding::train(&db, actors, &cfg(), 4).unwrap();
        // m1 is a MOVIES fact.
        assert!(matches!(
            emb.extend(&db, ids["m1"], 0),
            Err(CoreError::WrongRelation(_))
        ));
        // a5 is still deleted at this point.
        assert!(matches!(
            emb.extend(&db, ids["a5"], 0),
            Err(CoreError::UnknownFact(_))
        ));
        restore_journal(&mut db, &journal).unwrap();
        assert!(emb.extend(&db, ids["a5"], 0).is_ok());
    }
}
