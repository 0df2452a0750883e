//! Expected kernel distance `KD` (paper §V-B, Eq. 2).
//!
//! For two random variables `X ~ d_{s,f}[A]` and `Y ~ d_{s,f′}[A]` over a
//! kernelized domain, `KD = E[κ_A(X, Y)]` with `X, Y` independent. The
//! static trainer estimates it stochastically with a single sampled pair per
//! SGD step (Eq. 5); the dynamic phase needs the value itself for the
//! right-hand side `b` of the linear system (Eq. 8) and computes it either
//! exactly (small supports) or by Monte-Carlo averaging.

use crate::distcache::{CachedValueDist, DistCacheView};
use crate::kernel::KernelAssignment;
use crate::schemes::WalkScheme;
use crate::walkdist::{
    destination_value_distribution_status, DestinationSampler, DistStatus, ValueDistribution,
};
use reldb::{Database, FactId, RelationId};
use stembed_runtime::rng::DetRng;

/// How `KD` values are computed.
#[derive(Debug, Clone, Copy)]
pub struct KdOptions {
    /// Support cap for the exact path; above it we sample.
    pub exact_limit: usize,
    /// Number of sampled pairs for the Monte-Carlo path.
    pub mc_pairs: usize,
    /// Per-walk retry budget when sampling values.
    pub max_attempts: usize,
}

impl Default for KdOptions {
    fn default() -> Self {
        KdOptions {
            exact_limit: 256,
            mc_pairs: 48,
            max_attempts: 8,
        }
    }
}

/// Exact `E[κ(X,Y)]` between two explicit value distributions.
pub fn kd_exact(
    kernels: &KernelAssignment,
    end_rel: RelationId,
    attr: usize,
    p: &ValueDistribution,
    q: &ValueDistribution,
) -> f64 {
    let mut acc = 0.0;
    for (x, px) in &p.support {
        for (y, qy) in &q.support {
            acc += px * qy * kernels.eval(end_rel, attr, x, y);
        }
    }
    acc
}

/// Monte-Carlo `E[κ(X,Y)]` with up to `pairs` independent draws; `None`
/// only when **no** pair completes — i.e. either variable is (very likely)
/// nonexistent for its start fact.
///
/// A pair whose `sample_value` exhausts its retry budget is **skipped**,
/// not fatal: a reachable-but-sparse distribution (many dead-ending walk
/// prefixes or null destinations) intermittently loses individual samples,
/// and aborting on the first loss used to discard every accumulated pair
/// and bias such distributions toward `None`. The estimate simply averages
/// over the pairs that did complete.
#[allow(clippy::too_many_arguments)]
pub fn kd_monte_carlo(
    db: &Database,
    kernels: &KernelAssignment,
    scheme: &WalkScheme,
    attr: usize,
    f1: FactId,
    f2: FactId,
    opts: &KdOptions,
    rng: &mut DetRng,
) -> Option<f64> {
    let sampler = DestinationSampler::new(db);
    let end_rel = scheme.end(db.schema());
    let mut acc = 0.0;
    let mut n = 0usize;
    for _ in 0..opts.mc_pairs {
        let Some(x) = sampler.sample_value(scheme, attr, f1, opts.max_attempts, rng) else {
            continue;
        };
        let Some(y) = sampler.sample_value(scheme, attr, f2, opts.max_attempts, rng) else {
            continue;
        };
        acc += kernels.eval(end_rel, attr, &x, &y);
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(acc / n as f64)
    }
}

/// `KD(d_{s,f1}[A], d_{s,f2}[A])`: exact when both supports fit under
/// `opts.exact_limit`; `None` without touching the RNG when either side is
/// **exactly** known not to exist (the BFS proves there is no complete
/// walk, or every destination is null — sampling could only rediscover
/// that, at full pair-budget cost); Monte-Carlo only when a support is too
/// large to compute exactly.
#[allow(clippy::too_many_arguments)]
pub fn kd(
    db: &Database,
    kernels: &KernelAssignment,
    scheme: &WalkScheme,
    attr: usize,
    f1: FactId,
    f2: FactId,
    opts: &KdOptions,
    rng: &mut DetRng,
) -> Option<f64> {
    let end_rel = scheme.end(db.schema());
    let p = destination_value_distribution_status(db, scheme, attr, f1, opts.exact_limit);
    let q = destination_value_distribution_status(db, scheme, attr, f2, opts.exact_limit);
    match (p, q) {
        (DistStatus::Exists(p), DistStatus::Exists(q)) => {
            Some(kd_exact(kernels, end_rel, attr, &p, &q))
        }
        (p, q) if p.is_nonexistent() || q.is_nonexistent() => None,
        // A support too large for the exact path (but not nonexistent):
        // estimate by sampling.
        _ => kd_monte_carlo(db, kernels, scheme, attr, f1, f2, opts, rng),
    }
}

/// [`kd`] with memoised exact distributions: the `f1` side is resolved
/// through a [`DistCacheView`], the `f2` side is handed in precomputed
/// (`q2`, typically hoisted once per target for a shared `f2 = f_new`).
///
/// Bit-identical to [`kd`] by construction — cached distributions equal
/// recomputed ones (canonical support order), the `Nonexistent` short
/// circuit fires under exactly the same conditions, and the Monte-Carlo
/// fallback consumes the RNG exactly as the uncached path does; no RNG is
/// touched outside of it. The KD value itself is computed by
/// [`kd_exact`] on every call; the view only counts the evaluation
/// ([`crate::distcache::DistCacheStats::kd_misses`]).
#[allow(clippy::too_many_arguments)]
pub fn kd_cached(
    db: &Database,
    kernels: &KernelAssignment,
    scheme: &WalkScheme,
    attr: usize,
    f1: FactId,
    f2: FactId,
    q2: &CachedValueDist,
    opts: &KdOptions,
    rng: &mut DetRng,
    view: &mut DistCacheView<'_>,
) -> Option<f64> {
    if q2.is_nonexistent() {
        return None; // no point even resolving the f1 side
    }
    let p1 = view.value_distribution(db, scheme, attr, f1);
    match (p1, q2) {
        (DistStatus::Exists(p), DistStatus::Exists(q)) => {
            view.count_exact_kd();
            Some(kd_exact(kernels, scheme.end(db.schema()), attr, &p, q))
        }
        (p1, _) if p1.is_nonexistent() => None,
        _ => kd_monte_carlo(db, kernels, scheme, attr, f1, f2, opts, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::enumerate_schemes;
    use crate::walkdist::destination_value_distribution;
    use reldb::movies::movies_database_labeled;
    use reldb::Value;
    use stembed_runtime::rng::DetRng;

    fn scheme_named(db: &Database, text: &str) -> WalkScheme {
        let schema = db.schema();
        let actors = schema.relation_id("ACTORS").unwrap();
        enumerate_schemes(schema, actors, 3, false)
            .into_iter()
            .find(|s| s.display(schema).to_string() == text)
            .expect("scheme exists")
    }

    #[test]
    fn kd_of_identical_point_masses_is_one_under_equality() {
        let (db, ids) = movies_database_labeled();
        let kernels = KernelAssignment::defaults(&db);
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let trivial = WalkScheme::trivial(actors);
        // name is an equality-kernel attribute; d is a point mass per fact.
        let opts = KdOptions::default();
        let mut rng = DetRng::seed_from_u64(1);
        let same = kd(
            &db, &kernels, &trivial, 1, ids["a1"], ids["a1"], &opts, &mut rng,
        )
        .unwrap();
        assert!((same - 1.0).abs() < 1e-12);
        let diff = kd(
            &db, &kernels, &trivial, 1, ids["a1"], ids["a2"], &opts, &mut rng,
        )
        .unwrap();
        assert!(diff.abs() < 1e-12);
    }

    #[test]
    fn kd_exact_known_value() {
        // KD between a1's and a4's budget distributions along s5.
        // a1 via s5 → {150: .5, 100: .5}; a4 is actor2 only of c4 → walks
        // via actor2 … let's use a known pair instead: a1 vs a1 gives
        // E[κ(X,X')] with X,X' iid ∈ {150,100}: 0.5·κ(150,150) + ... all
        // with the fitted Gaussian kernel. Just verify against a direct
        // computation from the distribution.
        let (db, ids) = movies_database_labeled();
        let kernels = KernelAssignment::defaults(&db);
        let s5 = scheme_named(
            &db,
            "ACTORS[aid]—COLLABORATIONS[actor1], COLLABORATIONS[movie]—MOVIES[mid]",
        );
        let movies = db.schema().relation_id("MOVIES").unwrap();
        let p = destination_value_distribution(&db, &s5, 4, ids["a1"], 256).unwrap();
        let expect = {
            let mut acc = 0.0;
            for (x, px) in &p.support {
                for (y, qy) in &p.support {
                    acc += px * qy * kernels.eval(movies, 4, x, y);
                }
            }
            acc
        };
        let opts = KdOptions::default();
        let mut rng = DetRng::seed_from_u64(3);
        let got = kd(&db, &kernels, &s5, 4, ids["a1"], ids["a1"], &opts, &mut rng).unwrap();
        assert!((got - expect).abs() < 1e-12);
        // Sanity: mixture of equal and unequal pairs keeps KD in (κ_min, 1).
        assert!(got < 1.0 && got > 0.0);
    }

    #[test]
    fn monte_carlo_converges_to_exact() {
        let (db, ids) = movies_database_labeled();
        let kernels = KernelAssignment::defaults(&db);
        let s5 = scheme_named(
            &db,
            "ACTORS[aid]—COLLABORATIONS[actor1], COLLABORATIONS[movie]—MOVIES[mid]",
        );
        let opts = KdOptions {
            exact_limit: 256,
            mc_pairs: 3000,
            max_attempts: 8,
        };
        let mut rng = DetRng::seed_from_u64(5);
        let exact = kd(&db, &kernels, &s5, 4, ids["a1"], ids["a1"], &opts, &mut rng).unwrap();
        let mc =
            kd_monte_carlo(&db, &kernels, &s5, 4, ids["a1"], ids["a1"], &opts, &mut rng).unwrap();
        assert!((mc - exact).abs() < 0.05, "MC {mc} vs exact {exact}");
    }

    #[test]
    fn monte_carlo_skips_failed_pairs_instead_of_aborting() {
        // Regression: a single exhausted retry budget used to abort the
        // whole estimate via `?`, discarding every accumulated pair — a
        // reachable-but-sparse distribution intermittently came back `None`.
        //
        // Build A(aid) ← S(sid, a_ref, v) where half the S-rows carry a
        // null `v`: the backward walk A—S from a1 dead-ends (lands on ⊥)
        // about 50% of the time, so with `max_attempts = 1` individual
        // samples routinely fail even though the distribution exists.
        use crate::schemes::Step;
        use reldb::{SchemaBuilder, ValueType};
        let mut b = SchemaBuilder::new();
        b.relation("A").attr("aid", ValueType::Text).key(&["aid"]);
        b.relation("S")
            .attr("sid", ValueType::Text)
            .attr("a_ref", ValueType::Text)
            .attr("v", ValueType::Int)
            .key(&["sid"]);
        b.foreign_key("S", &["a_ref"], "A");
        let mut db = Database::new(b.build().unwrap());
        let a1 = db.insert_into("A", vec!["a1".into()]).unwrap();
        for i in 0..8 {
            let v = if i % 2 == 0 {
                Value::Int(7)
            } else {
                Value::Null
            };
            db.insert_into("S", vec![format!("s{i}").into(), "a1".into(), v])
                .unwrap();
        }
        let rel_a = db.schema().relation_id("A").unwrap();
        let fk = db.schema().fks_to(rel_a)[0];
        let scheme = WalkScheme {
            start: rel_a,
            steps: vec![Step { fk, forward: false }],
        };
        let kernels = KernelAssignment::defaults(&db);
        let opts = KdOptions {
            exact_limit: 1, // support of 8 facts > 1 ⇒ kd() must fall to MC
            mc_pairs: 48,
            max_attempts: 1,
        };
        let mut rng = DetRng::seed_from_u64(2024);
        let mc = kd_monte_carlo(&db, &kernels, &scheme, 2, a1, a1, &opts, &mut rng)
            .expect("sparse-but-reachable distribution must yield an estimate");
        // Every completed pair compares Int(7) with itself: κ = 1 exactly.
        assert!((mc - 1.0).abs() < 1e-12, "estimate {mc}");
        // And kd() (forced onto the MC path by the tiny exact limit) agrees.
        let via_kd = kd(&db, &kernels, &scheme, 2, a1, a1, &opts, &mut rng).unwrap();
        assert!((via_kd - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonexistent_distribution_yields_none() {
        let (db, ids) = movies_database_labeled();
        let kernels = KernelAssignment::defaults(&db);
        let s1_actor1 = scheme_named(&db, "ACTORS[aid]—COLLABORATIONS[actor1]");
        // COLLABORATIONS has only FK attributes; pick attr 0 anyway — from
        // a3 there are no walks at all, so KD must be None.
        let opts = KdOptions::default();
        let mut rng = DetRng::seed_from_u64(7);
        assert!(kd(&db, &kernels, &s1_actor1, 0, ids["a3"], ids["a1"], &opts, &mut rng).is_none());
    }

    #[test]
    fn kd_cached_matches_kd_bitwise_across_a_replay() {
        use crate::distcache::DistCache;
        let (mut db, ids) = movies_database_labeled();
        let s5 = scheme_named(
            &db,
            "ACTORS[aid]—COLLABORATIONS[actor1], COLLABORATIONS[movie]—MOVIES[mid]",
        );
        let kernels = KernelAssignment::defaults(&db);
        let opts = KdOptions::default();
        let mut cache = DistCache::new(std::sync::Arc::default());
        // KD(a1, a4) through a bound cache view, against the uncached
        // reference; the view's entries are absorbed so the cache is warm.
        let check = |cache: &mut DistCache, db: &Database| {
            cache.ensure_bound(db, opts.exact_limit);
            let mut view = cache.view();
            let q2 = view.value_distribution(db, &s5, 4, ids["a4"]);
            let mut rng = DetRng::seed_from_u64(99);
            let cached = kd_cached(
                db, &kernels, &s5, 4, ids["a1"], ids["a4"], &q2, &opts, &mut rng, &mut view,
            )
            .unwrap();
            cache.absorb(view.into_delta());
            let mut rng = DetRng::seed_from_u64(1);
            let reference = kd(db, &kernels, &s5, 4, ids["a1"], ids["a4"], &opts, &mut rng);
            assert_eq!(cached.to_bits(), reference.unwrap().to_bits());
            cached.to_bits()
        };
        let before = check(&mut cache, &db);
        assert_eq!(cache.stats().kd_misses, 1, "one exact evaluation");
        // A new collaboration for a4: the replay must evict a4's warm
        // entries, and the recomputed value follows the new database.
        db.insert_into(
            "COLLABORATIONS",
            vec!["a04".into(), "a03".into(), "m01".into()],
        )
        .unwrap();
        let after = check(&mut cache, &db);
        assert_eq!(cache.stats().replays, 1, "fine-grained catch-up");
        assert_ne!(after, before, "a4 gained a destination");
    }

    #[test]
    fn kd_is_symmetric() {
        let (db, ids) = movies_database_labeled();
        let kernels = KernelAssignment::defaults(&db);
        let s5 = scheme_named(
            &db,
            "ACTORS[aid]—COLLABORATIONS[actor1], COLLABORATIONS[movie]—MOVIES[mid]",
        );
        let opts = KdOptions::default();
        let mut rng = DetRng::seed_from_u64(11);
        // a1 and a4 both have s5-walks (a4 is actor1 of c2/c3).
        let ab = kd(&db, &kernels, &s5, 4, ids["a1"], ids["a4"], &opts, &mut rng);
        let ba = kd(&db, &kernels, &s5, 4, ids["a4"], ids["a1"], &opts, &mut rng);
        let (ab, ba) = (ab.unwrap(), ba.unwrap());
        assert!((ab - ba).abs() < 1e-12, "exact KD is symmetric");
        let _ = Value::Null; // silence unused import in cfg(test) builds
    }
}
