//! Destination distributions of foreign-key random walks (paper §V-A).
//!
//! A random walk with scheme `s` starting at fact `f` iteratively picks the
//! next fact uniformly among the valid continuations. `d_{f,s}` is the
//! distribution of the walk's destination fact, and `d_{f,s}[A]` the
//! distribution of the destination's value in attribute `A`, **conditioned
//! on being non-null** (the paper's posterior convention). Both are
//! computed here in two interchangeable ways:
//!
//! * **exactly**, by propagating probabilities along the scheme (a BFS over
//!   facts, as the paper suggests), with a configurable support cap, and
//! * **by Monte-Carlo sampling** of walks, used when supports grow large
//!   and during training-sample generation.

use crate::schemes::{Step, WalkScheme};
use reldb::{Database, FactId, Value};
use stembed_runtime::rng::DetRng;
use stembed_runtime::{stream_rng, Runtime};

/// Exact distribution over destination facts. Probabilities sum to 1
/// (walks that dead-end before completing the scheme are conditioned away).
#[derive(Debug, Clone, PartialEq)]
pub struct FactDistribution {
    /// `(destination, probability)` pairs; sorted by fact id, no duplicates.
    ///
    /// The canonical order makes every float reduction over the support
    /// (`KD` sums, renormalisation) reproducible bit for bit — recomputing
    /// the distribution and reading it from a cache must be
    /// indistinguishable, and `HashMap` iteration order is not stable
    /// across instances.
    pub support: Vec<(FactId, f64)>,
}

/// Exact distribution over non-null destination attribute values.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueDistribution {
    /// `(value, probability)` pairs; sorted by [`Value::canonical_cmp`], no
    /// duplicates. Canonical for the same reason as
    /// [`FactDistribution::support`].
    pub support: Vec<(Value, f64)>,
}

impl ValueDistribution {
    /// Probability of `value` (0 if outside the support).
    pub fn prob(&self, value: &Value) -> f64 {
        self.support
            .iter()
            .find(|(v, _)| v == value)
            .map_or(0.0, |(_, p)| *p)
    }

    /// Total probability mass (≈ 1 up to rounding; exposed for tests).
    pub fn total_mass(&self) -> f64 {
        self.support.iter().map(|(_, p)| p).sum()
    }
}

/// Three-way result of an exact distribution computation.
///
/// The BFS knows *why* it cannot hand back a distribution, and the KD layer
/// needs that reason: `Nonexistent` is **exact** knowledge ("no complete
/// walk exists", or "every destination is null in the queried attribute"),
/// so `KD` is undefined and Monte-Carlo sampling would only burn its whole
/// pair budget rediscovering the fact. `TooLarge` means the distribution
/// exists but an intermediate frontier exceeded the support cap — sampling
/// is the designated fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum DistStatus<T> {
    /// The distribution exists and fits under the support cap.
    Exists(T),
    /// An intermediate frontier exceeded the cap; fall back to sampling.
    TooLarge,
    /// Exactly known not to exist.
    Nonexistent,
}

impl<T> DistStatus<T> {
    /// The distribution, if it exists.
    pub fn exists(&self) -> Option<&T> {
        match self {
            DistStatus::Exists(t) => Some(t),
            _ => None,
        }
    }

    /// `true` iff exactly known not to exist.
    pub fn is_nonexistent(&self) -> bool {
        matches!(self, DistStatus::Nonexistent)
    }

    /// `true` iff an intermediate frontier exceeded the support cap.
    pub fn is_too_large(&self) -> bool {
        matches!(self, DistStatus::TooLarge)
    }

    /// Map the payload, preserving the status.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> DistStatus<U> {
        match self {
            DistStatus::Exists(t) => DistStatus::Exists(f(t)),
            DistStatus::TooLarge => DistStatus::TooLarge,
            DistStatus::Nonexistent => DistStatus::Nonexistent,
        }
    }
}

/// The facts one step leads to from `cur`.
///
/// Forward: the (unique) referenced fact — none when a referencing attribute
/// is null or the reference dangles. Backward: all facts referencing `cur`'s
/// key through the step's FK.
pub fn step_successors(db: &Database, step: &Step, cur: FactId) -> Vec<FactId> {
    let schema = db.schema();
    let fk = schema.foreign_key(step.fk);
    let Some(fact) = db.fact(cur) else {
        return Vec::new();
    };
    if step.forward {
        if fact.any_null(&fk.from_attrs) {
            return Vec::new();
        }
        let key = fact.project(&fk.from_attrs);
        db.lookup_key(fk.to_rel, &key).into_iter().collect()
    } else {
        let key = fact.project(&fk.to_attrs);
        db.referencing_slots(step.fk, &key)
            .iter()
            .map(|&row| FactId::new(fk.from_rel, row))
            .collect()
    }
}

/// The facts one step can lead *from*: predecessors of `cur` under `step`
/// — the exact reverse of [`step_successors`].
///
/// A forward step (depart by FK, arrive at the referenced key) is reversed
/// through the reference index: every fact whose FK tuple matches `cur`'s
/// key could have stepped here. A backward step (depart by key, arrive at
/// a referencing fact) is reversed by resolving the FK `cur` itself
/// carries. This powers the distribution cache's reachability-scoped
/// invalidation: walking a scheme backwards from a newly inserted fact
/// enumerates precisely the start facts whose destination distributions
/// that insertion can influence.
pub fn step_predecessors(db: &Database, step: &Step, cur: FactId) -> Vec<FactId> {
    match db.fact(cur) {
        Some(fact) => step_predecessors_of(db, step, fact),
        None => Vec::new(),
    }
}

/// [`step_predecessors`] given the arrival fact's **values** instead of a
/// live id — the variant that still works when the fact has been deleted.
/// The key/FK indexes consulted here live on the *predecessor* side, so
/// they answer for a tombstoned arrival fact exactly as they did while it
/// was live; this is what lets the distribution cache walk a walk scheme
/// backwards from a journalled **delete** record (whose payload preserves
/// the removed values) just like from an insert.
pub fn step_predecessors_of(db: &Database, step: &Step, fact: &reldb::Fact) -> Vec<FactId> {
    let schema = db.schema();
    let fk = schema.foreign_key(step.fk);
    if step.forward {
        // The fact is the referenced one; predecessors reference its key.
        let key = fact.project(&fk.to_attrs);
        db.referencing_slots(step.fk, &key)
            .iter()
            .map(|&row| FactId::new(fk.from_rel, row))
            .collect()
    } else {
        // The fact arrived by referencing its (unique) predecessor.
        if fact.any_null(&fk.from_attrs) {
            return Vec::new();
        }
        let key = fact.project(&fk.from_attrs);
        db.lookup_key(fk.to_rel, &key).into_iter().collect()
    }
}

/// The resumable state of the probability-propagating BFS after a prefix
/// of a walk scheme's steps: the **pre-renormalisation** `(fact, mass)`
/// frontier in canonical fact order.
///
/// A full distribution is [`frontier_start`], one [`frontier_step`] per
/// scheme step, then [`frontier_finish`];
/// [`destination_distribution_status`] is literally that composition. A
/// state cached after a shared prefix and extended step by step therefore
/// yields the **same bits** as the from-scratch BFS: each extension runs
/// the identical IEEE operation sequence on the identical intermediate
/// values. This is what the distribution cache's prefix tier
/// ([`crate::distcache::DistCache`]) stores, and what the scheme plan
/// ([`crate::plan::SchemePlan`]) orders evaluation around.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierState {
    /// `(fact, accumulated mass)` pairs; sorted by fact id, no duplicates.
    /// Masses are walk-completion probabilities *before* the final
    /// renormalisation — that belongs to [`frontier_finish`], because a
    /// prefix's mass keeps being split and dropped by later steps.
    pub frontier: Vec<(FactId, f64)>,
}

/// The length-0 frontier: all mass on the start fact.
/// [`DistStatus::Nonexistent`] when the start fact is not live.
pub fn frontier_start(db: &Database, start: FactId) -> DistStatus<FrontierState> {
    if db.fact(start).is_none() {
        return DistStatus::Nonexistent;
    }
    DistStatus::Exists(FrontierState {
        frontier: vec![(start, 1.0)],
    })
}

/// Extend a frontier by one scheme step: propagate each fact's mass to its
/// successors (backward steps split it uniformly over the referencing
/// slots), then sort-and-merge duplicates so masses add in fact order.
/// [`DistStatus::Nonexistent`] when every walk prefix dead-ends,
/// [`DistStatus::TooLarge`] when the merged frontier exceeds
/// `support_limit`.
///
/// The frontier is a sorted `(fact, probability)` vector, deduplicated by
/// a sort-and-merge after each step: at walk-scheme frontier sizes a
/// contiguous sort beats per-fact hashing, and it keeps the support in
/// canonical fact order at every stage (see
/// [`FactDistribution::support`]).
pub fn frontier_step(
    db: &Database,
    step: &Step,
    state: &FrontierState,
    support_limit: usize,
) -> DistStatus<FrontierState> {
    let schema = db.schema();
    let fk = schema.foreign_key(step.fk);
    let mut next: Vec<(FactId, f64)> = Vec::new();
    let mut key: Vec<Value> = Vec::new();
    for &(fact_id, prob) in &state.frontier {
        // PANICS: never — frontiers only ever hold live facts.
        let fact = db.fact(fact_id).expect("frontier facts are live");
        if step.forward {
            if fact.any_null(&fk.from_attrs) {
                continue; // null FK: this walk prefix dead-ends
            }
            fact.project_into(&fk.from_attrs, &mut key);
            if let Some(dest) = db.lookup_key(fk.to_rel, &key) {
                next.push((dest, prob));
            }
        } else {
            fact.project_into(&fk.to_attrs, &mut key);
            let slots = db.referencing_slots(step.fk, &key);
            if slots.is_empty() {
                continue;
            }
            let share = prob / slots.len() as f64;
            next.extend(
                slots
                    .iter()
                    .map(|&row| (FactId::new(fk.from_rel, row), share)),
            );
        }
    }
    if next.is_empty() {
        return DistStatus::Nonexistent;
    }
    // Merge duplicate destinations (masses add in fact order).
    next.sort_unstable_by_key(|(f, _)| *f);
    let mut merged: Vec<(FactId, f64)> = Vec::new();
    for &(f, p) in &next {
        match merged.last_mut() {
            Some((last, mass)) if *last == f => *mass += p,
            _ => merged.push((f, p)),
        }
    }
    if merged.len() > support_limit {
        return DistStatus::TooLarge;
    }
    DistStatus::Exists(FrontierState { frontier: merged })
}

/// Turn a completed frontier into a distribution: renormalise so the
/// remaining mass conditions on walk completion.
pub fn frontier_finish(state: &FrontierState) -> DistStatus<FactDistribution> {
    let mut support = state.frontier.clone();
    let total: f64 = support.iter().map(|(_, p)| p).sum();
    if total <= 0.0 {
        return DistStatus::Nonexistent;
    }
    for (_, p) in &mut support {
        *p /= total;
    }
    DistStatus::Exists(FactDistribution { support })
}

/// Exactly compute `d_{f,s}` by probability propagation, reporting *why*
/// when it cannot: [`DistStatus::Nonexistent`] when no complete walk
/// exists (exact knowledge), [`DistStatus::TooLarge`] when an intermediate
/// support exceeds `support_limit` (callers then fall back to sampling).
///
/// Built on the resumable frontier primitives — [`frontier_start`], one
/// [`frontier_step`] per scheme step, [`frontier_finish`] — so the
/// prefix-cached evaluation path shares this exact code and is bitwise
/// indistinguishable from it.
pub fn destination_distribution_status(
    db: &Database,
    scheme: &WalkScheme,
    start: FactId,
    support_limit: usize,
) -> DistStatus<FactDistribution> {
    debug_assert_eq!(start.rel, scheme.start);
    let DistStatus::Exists(mut state) = frontier_start(db, start) else {
        return DistStatus::Nonexistent;
    };
    for step in &scheme.steps {
        state = match frontier_step(db, step, &state, support_limit) {
            DistStatus::Exists(s) => s,
            DistStatus::TooLarge => return DistStatus::TooLarge,
            DistStatus::Nonexistent => return DistStatus::Nonexistent,
        };
    }
    frontier_finish(&state)
}

/// [`destination_distribution_status`] flattened to an `Option` for callers
/// that do not need the failure reason.
pub fn destination_distribution(
    db: &Database,
    scheme: &WalkScheme,
    start: FactId,
    support_limit: usize,
) -> Option<FactDistribution> {
    match destination_distribution_status(db, scheme, start, support_limit) {
        DistStatus::Exists(d) => Some(d),
        _ => None,
    }
}

/// Marginalise a fact distribution to attribute `attr` of the destination
/// relation, conditioning on non-null. `None` when all destinations are null
/// in `attr` — then `d_{f,s}[A]` "does not exist" per the paper.
///
/// Support facts that have been deleted since `dist` was computed (a stale
/// distribution over a mutated database) are **skipped and their mass
/// renormalised away**, exactly like null values: "this support entry
/// carries no value any more" must not be conflated with "the distribution
/// does not exist". Only when *no* live, non-null destination remains does
/// the marginal not exist.
pub fn value_distribution(
    db: &Database,
    dist: &FactDistribution,
    attr: usize,
) -> Option<ValueDistribution> {
    // Borrow values first and sort into canonical order (stable, so equal
    // values merge their masses in fact order — see the support docs);
    // only the distinct survivors are cloned.
    let mut pairs: Vec<(&Value, f64)> = Vec::with_capacity(dist.support.len());
    for (fact_id, prob) in &dist.support {
        let Some(fact) = db.fact(*fact_id) else {
            continue; // stale support entry: fact deleted since the BFS
        };
        let value = fact.get(attr);
        if !value.is_null() {
            pairs.push((value, *prob));
        }
    }
    pairs.sort_by(|(a, _), (b, _)| a.canonical_cmp(b));
    let mut support: Vec<(Value, f64)> = Vec::new();
    for (value, prob) in pairs {
        match support.last_mut() {
            Some((last, mass)) if last == value => *mass += prob,
            _ => support.push((value.clone(), prob)),
        }
    }
    let total: f64 = support.iter().map(|(_, p)| p).sum();
    if total <= 0.0 {
        return None;
    }
    for (_, p) in &mut support {
        *p /= total;
    }
    Some(ValueDistribution { support })
}

/// Exact `d_{f,s}[A]` with the failure reason: marginalising an existing
/// fact distribution whose destinations are all null (or dead) is
/// [`DistStatus::Nonexistent`] — exact knowledge, like an empty walk set.
pub fn destination_value_distribution_status(
    db: &Database,
    scheme: &WalkScheme,
    attr: usize,
    start: FactId,
    support_limit: usize,
) -> DistStatus<ValueDistribution> {
    match destination_distribution_status(db, scheme, start, support_limit) {
        DistStatus::Exists(facts) => match value_distribution(db, &facts, attr) {
            Some(values) => DistStatus::Exists(values),
            None => DistStatus::Nonexistent,
        },
        DistStatus::TooLarge => DistStatus::TooLarge,
        DistStatus::Nonexistent => DistStatus::Nonexistent,
    }
}

/// Convenience: exact `d_{f,s}[A]`, flattened to an `Option`.
pub fn destination_value_distribution(
    db: &Database,
    scheme: &WalkScheme,
    attr: usize,
    start: FactId,
    support_limit: usize,
) -> Option<ValueDistribution> {
    match destination_value_distribution_status(db, scheme, attr, start, support_limit) {
        DistStatus::Exists(d) => Some(d),
        _ => None,
    }
}

/// Monte-Carlo walk sampler bound to a database.
#[derive(Debug, Clone, Copy)]
pub struct DestinationSampler<'db> {
    db: &'db Database,
}

impl<'db> DestinationSampler<'db> {
    /// Sampler over `db`.
    pub fn new(db: &'db Database) -> Self {
        DestinationSampler { db }
    }

    /// Sample one walk with `scheme` from `start`; `None` when it
    /// dead-ends.
    ///
    /// Unlike the exact path (which materialises successor sets), each step
    /// here picks its continuation **without allocating**: forward steps
    /// resolve the unique referenced fact, backward steps draw a uniform
    /// index into the database's referencing-slot slice. This is the inner
    /// loop of eligibility probing, sample generation, and Monte-Carlo KD.
    pub fn sample_destination(
        &self,
        scheme: &WalkScheme,
        start: FactId,
        rng: &mut DetRng,
    ) -> Option<FactId> {
        let schema = self.db.schema();
        let mut cur = start;
        let mut owned = Vec::new();
        for step in &scheme.steps {
            let fk = schema.foreign_key(step.fk);
            let fact = self.db.fact(cur)?;
            let attrs = if step.forward {
                &fk.from_attrs
            } else {
                &fk.to_attrs
            };
            // Single-attribute keys (the common case) are borrowed in
            // place; only composite keys are projected, into one buffer
            // reused across the walk.
            let key: &[Value] = if let [a] = attrs.as_slice() {
                std::slice::from_ref(fact.get(*a))
            } else {
                fact.project_into(attrs, &mut owned);
                &owned
            };
            cur = if step.forward {
                if fact.any_null(&fk.from_attrs) {
                    return None;
                }
                self.db.lookup_key(fk.to_rel, key)?
            } else {
                let slots = self.db.referencing_slots(step.fk, key);
                if slots.is_empty() {
                    return None;
                }
                let row = slots[rng.random_range(0..slots.len())];
                FactId::new(fk.from_rel, row)
            };
        }
        Some(cur)
    }

    /// Sample a non-null destination value of `d_{f,s}[A]`, retrying dead
    /// ends and null values up to `max_attempts` times. `None` means the
    /// pair `(s, A)` is (very likely) nonexistent for this start fact.
    pub fn sample_value(
        &self,
        scheme: &WalkScheme,
        attr: usize,
        start: FactId,
        max_attempts: usize,
        rng: &mut DetRng,
    ) -> Option<Value> {
        for _ in 0..max_attempts {
            if let Some(dest) = self.sample_destination(scheme, start, rng) {
                let v = self.db.fact(dest)?.get(attr);
                if !v.is_null() {
                    return Some(v.clone());
                }
            }
        }
        None
    }

    /// Monte-Carlo batch: one [`DestinationSampler::sample_value`] per
    /// start fact, sharded over the runtime. Start `i` of the list owns the
    /// derived stream `stream_rng(master_seed, i)`, so the result vector is
    /// bit-identical at every shard count. This is the parallel substrate
    /// under eligibility probing and per-epoch sample generation.
    pub fn sample_values_batch(
        &self,
        runtime: &Runtime,
        scheme: &WalkScheme,
        attr: usize,
        starts: &[FactId],
        max_attempts: usize,
        master_seed: u64,
    ) -> Vec<Option<Value>> {
        runtime.par_map_ordered(starts, |i, &start| {
            let mut rng = stream_rng(master_seed, i as u64);
            self.sample_value(scheme, attr, start, max_attempts, &mut rng)
        })
    }

    /// The database this sampler walks over.
    pub fn database(&self) -> &'db Database {
        self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::enumerate_schemes;
    use reldb::movies::{movies_database_labeled, movies_schema};
    use stembed_runtime::rng::DetRng;

    /// The scheme of Example 5.2/5.3. The paper prints s5 with `actor2`,
    /// but its own walks `(a1,c1,m3)` and `(a1,c4,m6)` satisfy
    /// `a1[aid] = c[actor1]` (a01), not `actor2` — an evident typo; the
    /// examples' numbers correspond to the `actor1` scheme used here.
    fn scheme_s5(db: &Database) -> WalkScheme {
        let schema = db.schema();
        let actors = schema.relation_id("ACTORS").unwrap();
        enumerate_schemes(schema, actors, 3, false)
            .into_iter()
            .find(|s| {
                s.display(schema).to_string()
                    == "ACTORS[aid]—COLLABORATIONS[actor1], COLLABORATIONS[movie]—MOVIES[mid]"
            })
            .expect("s5 exists")
    }

    #[test]
    fn example_5_2_walks_from_a1() {
        // Exactly two walks follow s5 from a1: destinations m3 and m6.
        let (db, ids) = movies_database_labeled();
        let s5 = scheme_s5(&db);
        let dist = destination_distribution(&db, &s5, ids["a1"], 1024).unwrap();
        let mut support = dist.support.clone();
        support.sort_by_key(|(f, _)| *f);
        assert_eq!(support.len(), 2);
        assert!(support
            .iter()
            .any(|(f, p)| *f == ids["m3"] && (*p - 0.5).abs() < 1e-12));
        assert!(support
            .iter()
            .any(|(f, p)| *f == ids["m6"] && (*p - 0.5).abs() < 1e-12));
    }

    #[test]
    fn example_5_3_value_distributions() {
        let (db, ids) = movies_database_labeled();
        let s5 = scheme_s5(&db);
        // budget: Pr(150M) = Pr(100M) = 0.5.
        let budget = destination_value_distribution(&db, &s5, 4, ids["a1"], 1024).unwrap();
        assert!((budget.prob(&Value::Int(150)) - 0.5).abs() < 1e-12);
        assert!((budget.prob(&Value::Int(100)) - 0.5).abs() < 1e-12);
        assert!((budget.total_mass() - 1.0).abs() < 1e-12);
        // genre: m3's genre is ⊥, so the posterior is Pr(Bio) = 1.
        let genre = destination_value_distribution(&db, &s5, 3, ids["a1"], 1024).unwrap();
        assert_eq!(genre.support.len(), 1);
        assert!((genre.prob(&Value::Text("Bio".into())) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_scheme_is_a_point_mass() {
        let (db, ids) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let trivial = WalkScheme::trivial(actors);
        let dist = destination_distribution(&db, &trivial, ids["a2"], 16).unwrap();
        assert_eq!(dist.support, vec![(ids["a2"], 1.0)]);
        // Value distribution of `name` is a point mass on Watanabe.
        let names = value_distribution(&db, &dist, 1).unwrap();
        assert!((names.prob(&Value::Text("Watanabe".into())) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonexistent_distribution_when_no_walks() {
        // a3 (Cruise) is only actor2 of c3: walks via actor1-backward don't
        // exist from a3 as long as nobody lists him as actor1.
        let (db, ids) = movies_database_labeled();
        let schema = db.schema();
        let actors = schema.relation_id("ACTORS").unwrap();
        let s1_actor1 = enumerate_schemes(schema, actors, 1, false)
            .into_iter()
            .find(|s| {
                s.len() == 1
                    && s.display(schema).to_string() == "ACTORS[aid]—COLLABORATIONS[actor1]"
            })
            .unwrap();
        assert!(destination_distribution(&db, &s1_actor1, ids["a3"], 16).is_none());
        // And the sampler agrees.
        let sampler = DestinationSampler::new(&db);
        let mut rng = DetRng::seed_from_u64(1);
        assert!(sampler
            .sample_value(&s1_actor1, 0, ids["a3"], 32, &mut rng)
            .is_none());
    }

    #[test]
    fn stale_support_is_skipped_and_renormalised_after_cascade_delete() {
        // Regression: a deleted support fact used to make the *whole*
        // marginal `None` (the `?` on `db.fact`), conflating "stale support
        // entry" with "nonexistent distribution".
        let (mut db, ids) = movies_database_labeled();
        let s5 = scheme_s5(&db);
        // d_{a1,s5} = {m3: ½, m6: ½}, computed before the deletion.
        let dist = destination_distribution(&db, &s5, ids["a1"], 1024).unwrap();
        // Cascade-delete m6 (takes collaboration c4 with it).
        let journal = reldb::cascade_delete(&mut db, ids["m6"], false).unwrap();
        assert!(journal.len() >= 2, "cascade must remove m6 and c4");
        // budget: m6's mass is renormalised onto m3 → a point mass.
        let budget = value_distribution(&db, &dist, 4).unwrap();
        assert_eq!(budget.support.len(), 1);
        assert!((budget.total_mass() - 1.0).abs() < 1e-12);
        assert!((budget.prob(&db.fact(ids["m3"]).unwrap().get(4).clone()) - 1.0).abs() < 1e-12);
        // genre: m3's genre is ⊥ and m6 (the only non-null carrier) is
        // gone — now the marginal genuinely does not exist.
        assert!(value_distribution(&db, &dist, 3).is_none());
        // Restoring brings the original marginal back.
        reldb::restore_journal(&mut db, &journal).unwrap();
        let genre = value_distribution(&db, &dist, 3).unwrap();
        assert!((genre.prob(&Value::Text("Bio".into())) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn supports_come_back_in_canonical_order() {
        // The canonical order is what makes cached and recomputed
        // distributions interchangeable bit for bit (float sums over the
        // support happen in a fixed order).
        let (db, ids) = movies_database_labeled();
        let s5 = scheme_s5(&db);
        let dist = destination_distribution(&db, &s5, ids["a1"], 1024).unwrap();
        assert!(dist.support.windows(2).all(|w| w[0].0 < w[1].0));
        let vals = value_distribution(&db, &dist, 4).unwrap();
        assert!(vals
            .support
            .windows(2)
            .all(|w| w[0].0.canonical_cmp(&w[1].0) == std::cmp::Ordering::Less));
    }

    #[test]
    fn step_predecessors_inverts_step_successors() {
        // For every step of s5 and every live fact pair (g, h):
        // h ∈ successors(g) ⇔ g ∈ predecessors(h).
        let (db, _) = movies_database_labeled();
        let s5 = scheme_s5(&db);
        let schema = db.schema();
        for step in &s5.steps {
            let src = step.source(schema);
            let dst = step.destination(schema);
            for g in db.fact_ids(src) {
                for h in step_successors(&db, step, g) {
                    assert!(
                        step_predecessors(&db, step, h).contains(&g),
                        "missing reverse edge {g} -> {h}"
                    );
                }
            }
            for h in db.fact_ids(dst) {
                for g in step_predecessors(&db, step, h) {
                    assert!(
                        step_successors(&db, step, g).contains(&h),
                        "spurious reverse edge {g} -> {h}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampler_matches_exact_distribution() {
        let (db, ids) = movies_database_labeled();
        let s5 = scheme_s5(&db);
        let sampler = DestinationSampler::new(&db);
        let mut rng = DetRng::seed_from_u64(99);
        let mut m3 = 0usize;
        let mut m6 = 0usize;
        let n = 4000;
        for _ in 0..n {
            match sampler.sample_destination(&s5, ids["a1"], &mut rng) {
                Some(d) if d == ids["m3"] => m3 += 1,
                Some(d) if d == ids["m6"] => m6 += 1,
                Some(other) => panic!("unexpected destination {other}"),
                None => panic!("s5 from a1 never dead-ends"),
            }
        }
        let frac = m3 as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "empirical Pr(m3) = {frac}");
        assert_eq!(m3 + m6, n);
    }

    #[test]
    fn batch_sampling_is_shard_invariant() {
        let (db, _) = movies_database_labeled();
        let s5 = scheme_s5(&db);
        let sampler = DestinationSampler::new(&db);
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let starts = db.fact_ids(actors);
        let base = sampler.sample_values_batch(&Runtime::single(), &s5, 4, &starts, 8, 42);
        assert_eq!(base.len(), starts.len());
        for shards in [2usize, 8] {
            let got = sampler.sample_values_batch(&Runtime::new(shards), &s5, 4, &starts, 8, 42);
            assert_eq!(got, base, "shards={shards} diverged");
        }
    }

    #[test]
    fn support_limit_forces_sampling_fallback() {
        let (db, ids) = movies_database_labeled();
        let s5 = scheme_s5(&db);
        // With a support cap of 1 the two-destination distribution cannot be
        // represented exactly.
        assert!(destination_distribution(&db, &s5, ids["a1"], 1).is_none());
    }

    #[test]
    fn schema_is_the_figure_2_schema() {
        // Guard: the tests above assume attribute positions of Figure 2.
        let schema = movies_schema();
        let movies = schema.relation_id("MOVIES").unwrap();
        assert_eq!(schema.relation(movies).attributes[3].name, "genre");
        assert_eq!(schema.relation(movies).attributes[4].name, "budget");
    }
}
