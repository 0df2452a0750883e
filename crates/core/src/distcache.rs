//! Walk-distribution cache for the KD/dynamic stack.
//!
//! The dynamic phase (paper §V-E) prices one equation `cᵀ ϕ(f_new) = y`
//! per `(f_old, s, A)` triple, and every `y` is a `KD` value whose exact
//! path needs two destination distributions. Uncached, `solve_new_vector`
//! used to re-run the **same** probability-propagating BFS
//! ([`destination_distribution`]) once per equation for the `f_new` side
//! (`per_target × targets` times per insert) and once per attribute for
//! targets sharing a scheme. Both are pure functions of
//! `(database, scheme, start)` — this module memoises them.
//!
//! ## Keys and invalidation
//!
//! * [`FactDistribution`] is keyed by `(scheme, start)`;
//! * [`ValueDistribution`] by `(scheme, attr, start)`;
//! * [`FrontierState`] (the **prefix tier**) by `(prefix, start)` where
//!   `prefix` is a step sequence shared by several schemes; only the
//!   prefixes in the cache's **persist set** (fixed at construction,
//!   typically [`crate::plan::SchemePlan::persist_prefixes`]) are stored;
//! * all three are valid only for one `(db_id, epoch, support_limit)`
//!   triple.
//!
//! KD values themselves are not cached: the dynamic phase prices every
//! equation against `f2 = f_new`, which is new on every extension, so a
//! value-level tier could only hit when the same fact is solved twice on
//! an unchanged database.
//!
//! The prefix tier is what makes the scheme plan
//! ([`crate::plan::SchemePlan`]) pay off: walk schemes share step
//! prefixes heavily (enumeration is prefix-closed), and a frontier
//! cached after a shared prefix turns every sibling scheme's BFS into
//! "cached parent frontier + 1 [`crate::walkdist::frontier_step`]".
//! Negative prefix entries ([`DistStatus::TooLarge`] /
//! [`DistStatus::Nonexistent`]) are keyed by the **exact failing
//! prefix**, so they can never poison sibling schemes that diverge
//! before the failing step — a sibling probes a different key.
//!
//! `reldb::Database` carries a **mutation epoch** (bumped by every insert,
//! restore, and delete), a process-unique **lineage id** (fresh per
//! constructor *and per clone*), and a bounded **mutation journal**
//! recording what each epoch bump did. [`DistCache::ensure_bound`]
//! compares the cache's binding against the database about to be read:
//!
//! * same lineage, same epoch — nothing to do;
//! * same lineage, newer epoch — **replay** the journal records the cache
//!   missed and evict only the entries those mutations can reach. Each
//!   cached scheme carries a precomputed [`SchemeReach`]: a mutation in a
//!   relation the scheme never visits evicts nothing, one in the scheme's
//!   (non-re-entered) start relation evicts exactly the mutated fact's
//!   entry, and one in an interior relation evicts the `(scheme, start)`
//!   entries found by walking the scheme **backwards** from the mutated
//!   fact — inserts/restores from the live fact, deletes from the
//!   journalled payload ([`reldb::MutationRecord::removed`]) that stands
//!   in for the tombstone. This is what keeps the cache warm across the
//!   paper's one-by-one insertion protocol (§VI-E), where every round
//!   mutates a handful of relations and leaves most schemes untouched —
//!   and now also across workloads that interleave deletes with the
//!   insert stream;
//! * different lineage, changed support limit, or a journal that has
//!   wrapped (the cache fell behind by more than the ring holds) — **full
//!   clear**, the pre-journal behaviour and the unconditional fallback.
//!
//! Either way a bound cache can never serve entries computed against a
//! different database object that happens to share an epoch number.
//!
//! ## Determinism contract
//!
//! Cached and recomputed lookups are interchangeable **bit for bit**: the
//! distributions are deterministic in their key (supports are canonically
//! ordered — see [`FactDistribution::support`]), and no RNG is ever
//! consumed on the exact path, so a cache hit cannot shift any random
//! stream. Every lookup goes through a read-only [`DistCache::view`]:
//! it probes the shared base, then its own private [`DistCacheDelta`],
//! where it also records its misses. Callers [`DistCache::absorb`] the
//! deltas **in item order** — sharded sections after the parallel
//! section, serial passes (such as the extension pre-warm) when they
//! finish — so the shard count decides only *when* a miss is computed,
//! never *what* any caller observes.

use crate::schemes::{ReachScope, SchemeReach, Step, WalkScheme};
use crate::walkdist::{
    destination_distribution_status, frontier_finish, frontier_start, frontier_step,
    step_predecessors, step_predecessors_of, value_distribution, DistStatus, FactDistribution,
    FrontierState, ValueDistribution,
};
use reldb::{Database, Fact, FactId, MutationKind, MutationRecord};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cached fact-level entry: the distribution behind an [`Arc`], or the
/// exact reason there is none ([`DistStatus::TooLarge`] /
/// [`DistStatus::Nonexistent`] are cached as negative entries).
pub type CachedFactDist = DistStatus<Arc<FactDistribution>>;
/// Cached value-level entry (see [`CachedFactDist`]).
pub type CachedValueDist = DistStatus<Arc<ValueDistribution>>;
/// Cached prefix-tier entry: the resumable BFS frontier after a step
/// prefix, or the exact reason the prefix already failed (see
/// [`CachedFactDist`] — negative entries bind to the failing prefix
/// only).
pub type CachedFrontier = DistStatus<Arc<FrontierState>>;

// Two-level maps, outer-keyed by scheme: lookups compare the (cheap)
// borrowed scheme without cloning it and the inner key is `Copy` — the
// flat `(WalkScheme, FactId)`-keyed alternative would clone the scheme's
// step vector on every probe just to build a key. `BTreeMap` (not
// `HashMap`) because replay and eviction iterate these maps: the scheme
// order — and with it the stats counters and any eviction tie-breaks —
// must not depend on hasher state.
type FactMap = BTreeMap<WalkScheme, BTreeMap<FactId, CachedFactDist>>;
type ValueMap = BTreeMap<WalkScheme, BTreeMap<(usize, FactId), CachedValueDist>>;
// The prefix tier is keyed by the bare step sequence: `steps[0]` pins the
// start relation, so the key is unambiguous without the `WalkScheme`
// wrapper, and lookups probe with a borrowed `&[Step]` slice of the
// scheme being assembled (no allocation per probe). The empty prefix is
// never cached — rebuilding it is one `frontier_start`.
type PrefixMap = BTreeMap<Vec<Step>, BTreeMap<FactId, CachedFrontier>>;

fn map_len<K, K2, V>(map: &BTreeMap<K, BTreeMap<K2, V>>) -> usize {
    map.values().map(std::collections::BTreeMap::len).sum()
}

/// Insert `value` at `map[key][inner]`. Only the first entry under a
/// key pays for cloning it.
fn put<K, Q, K2: Ord, V>(map: &mut BTreeMap<K, BTreeMap<K2, V>>, key: &Q, inner: K2, value: V)
where
    K: Borrow<Q> + Ord,
    Q: Ord + ToOwned<Owned = K> + ?Sized,
{
    match map.get_mut(key) {
        Some(entries) => {
            entries.insert(inner, value);
        }
        None => {
            map.entry(key.to_owned()).or_default().insert(inner, value);
        }
    }
}

/// `map[key][inner]` from the shared base first, then the private delta.
fn probe<'m, K, Q, K2: Ord, V>(
    maps: [&'m BTreeMap<K, BTreeMap<K2, V>>; 2],
    key: &Q,
    inner: &K2,
) -> Option<&'m V>
where
    K: Borrow<Q> + Ord,
    Q: Ord + ?Sized,
{
    maps.into_iter().find_map(|map| map.get(key)?.get(inner))
}

/// Move `from`'s entries into `into`, keeping entries `into` already has.
fn merge<K: Ord, K2: Ord, V>(
    into: &mut BTreeMap<K, BTreeMap<K2, V>>,
    from: BTreeMap<K, BTreeMap<K2, V>>,
) {
    for (key, entries) in from {
        let target = into.entry(key).or_default();
        for (k, v) in entries {
            target.entry(k).or_insert(v);
        }
    }
}

/// Evict the entries of `map[key]` whose start fact (`start_of` the inner
/// key) is in `starts` — all of them when `starts` is `None` — and drop
/// the inner map once empty. Returns the number evicted.
fn evict<K, Q, K2: Ord, V>(
    map: &mut BTreeMap<K, BTreeMap<K2, V>>,
    key: &Q,
    starts: Option<&[FactId]>,
    start_of: impl Fn(&K2) -> FactId,
) -> u64
where
    K: Borrow<Q> + Ord,
    Q: Ord + ?Sized,
{
    let Some(entries) = map.get_mut(key) else {
        return 0;
    };
    let before = entries.len();
    match starts {
        Some(starts) => entries.retain(|k, _| starts.binary_search(&start_of(k)).is_err()),
        None => entries.clear(),
    }
    let evicted = before - entries.len();
    if entries.is_empty() {
        map.remove(key);
    }
    evicted as u64
}

/// Hit/miss/eviction counters of a [`DistCache`] (diagnostics and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistCacheStats {
    /// Fact/value-tier lookups answered from the cache (including
    /// negative entries).
    pub hits: u64,
    /// Fact/value-tier lookups that had to compute (and then stored)
    /// their result.
    pub misses: u64,
    /// Times the whole cache was dropped: lineage change, support-limit
    /// change, or a wrapped journal (fell too far behind to replay).
    pub invalidations: u64,
    /// Journal replays applied (fine-grained catch-ups instead of clears).
    pub replays: u64,
    /// Fact/value-tier entries evicted by journal replays (full clears
    /// are counted in `invalidations`, not here; prefix-tier evictions in
    /// [`DistCacheStats::prefix_evicted`]).
    pub evicted: u64,
    /// Fact-tier BFS assemblies that resumed from a cached prefix
    /// frontier (including negative prefix entries, which settle the
    /// status outright).
    pub prefix_hits: u64,
    /// Fact-tier BFS assemblies that found no usable prefix and started
    /// from scratch.
    pub prefix_misses: u64,
    /// Prefix-tier entries evicted by journal replays.
    pub prefix_evicted: u64,
    /// Always 0. It counted hits of the exact-KD value tier, which never
    /// hit on a tracked workload and was removed; the field stays until
    /// the benchmark's counter set retires it.
    pub kd_hits: u64,
    /// Exact KD evaluations ([`crate::kd::kd_exact`] calls made by
    /// [`crate::kd::kd_cached`]).
    pub kd_misses: u64,
}

impl DistCacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    ///
    /// Covers the **fact and value tiers only** — prefix-frontier reuse is
    /// [`DistCacheStats::prefix_hit_rate`].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of fact-tier BFS assemblies that resumed from a cached
    /// prefix frontier (0 when none happened). A fact-tier *hit* never
    /// reaches the prefix tier, so this measures reuse among the lookups
    /// that actually had to compute.
    pub fn prefix_hit_rate(&self) -> f64 {
        let total = self.prefix_hits + self.prefix_misses;
        if total == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / total as f64
        }
    }
}

/// Memo table for exact walk distributions, bound to one
/// `(db_id, epoch, support_limit)` snapshot at a time.
///
/// Negative results are cached too — with their exact reason: a
/// [`DistStatus::Nonexistent`] entry lets `KD` skip Monte-Carlo sampling
/// entirely (the value is exactly `None`), while [`DistStatus::TooLarge`]
/// routes to the sampling fallback. Both are as expensive to rediscover as
/// a real distribution.
#[derive(Debug, Clone)]
pub struct DistCache {
    /// Lineage of the database the entries were computed against
    /// (`0` = not yet bound).
    db_id: u64,
    epoch: u64,
    support_limit: usize,
    facts: FactMap,
    values: ValueMap,
    prefixes: PrefixMap,
    /// Per-scheme FK-reachability, computed once per scheme (the schema is
    /// immutable within a lineage) and consulted by every journal replay.
    scopes: BTreeMap<WalkScheme, SchemeReach>,
    /// The prefix tier only **stores** frontiers at these prefixes
    /// (probing is unrestricted).
    persist: Arc<BTreeSet<Vec<Step>>>,
    stats: DistCacheStats,
}

impl DistCache {
    /// Empty, unbound cache whose prefix tier **stores** frontiers only
    /// at `persist` — typically [`crate::plan::SchemePlan::persist_prefixes`],
    /// the prefixes some other scheme's evaluation will actually resume.
    /// Lookups still probe every length, and values are unaffected by the
    /// choice (a frontier is a pure function of its key); it only trims
    /// the insert-per-step bookkeeping that plain-BFS evaluation never
    /// pays, which otherwise makes low-sharing plans *slower* through the
    /// cache than without it. The first [`DistCache::ensure_bound`] binds
    /// the cache.
    pub fn new(persist: Arc<BTreeSet<Vec<Step>>>) -> Self {
        DistCache {
            db_id: 0,
            epoch: 0,
            support_limit: 0,
            facts: FactMap::new(),
            values: ValueMap::new(),
            prefixes: PrefixMap::new(),
            scopes: BTreeMap::new(),
            persist,
            stats: DistCacheStats::default(),
        }
    }

    /// Empty, unbound cache with this cache's persist set.
    pub fn empty_like(&self) -> Self {
        DistCache::new(Arc::clone(&self.persist))
    }

    /// `true` when the cache is bound to `db`'s current state.
    fn current_for(&self, db: &Database) -> bool {
        self.db_id == db.db_id() && self.epoch == db.epoch()
    }

    /// Bind the cache to `db`'s current `(db_id, epoch)` under the exact
    /// support cap `limit`. Call before a batch of lookups; a no-op while
    /// the database is unmutated.
    ///
    /// When the database has mutated within the same lineage and the
    /// mutation journal still covers the gap, the missed records are
    /// **replayed**: only entries whose scheme can reach a mutated fact
    /// (see [`SchemeReach`]) are evicted, everything else stays warm.
    /// A lineage change, a support-limit change, or a wrapped journal
    /// drops every entry (the journal is an optimisation channel, never a
    /// correctness requirement).
    pub fn ensure_bound(&mut self, db: &Database, limit: usize) {
        if self.db_id == db.db_id() && self.support_limit == limit {
            if self.epoch == db.epoch() {
                return;
            }
            let missed: Option<Vec<MutationRecord>> = db
                .journal_since(self.epoch)
                .map(|records| records.cloned().collect());
            if let Some(records) = missed {
                self.replay(db, &records);
                self.epoch = db.epoch();
                return;
            }
        }
        if !self.is_empty() {
            self.stats.invalidations += 1;
            self.facts.clear();
            self.values.clear();
            self.prefixes.clear();
        }
        // Scopes are schema-derived; a different lineage may carry a
        // different schema, so they go too (cheap to recompute).
        self.scopes.clear();
        self.db_id = db.db_id();
        self.epoch = db.epoch();
        self.support_limit = limit;
    }

    /// Apply missed journal records: per cached scheme, work out which
    /// `(scheme, start)` entries the records can influence and evict
    /// exactly those.
    ///
    /// Per record and scheme, three precision tiers:
    ///
    /// * relation unreachable for the scheme — nothing;
    /// * relation is the (non-re-entered) start — the mutated fact's own
    ///   entry;
    /// * relation interior — walk the scheme backwards from the mutated
    ///   fact ([`step_predecessors`]) to enumerate the start facts that
    ///   can reach it; only their entries go. For **inserts/restores**
    ///   the fact is live and read from the database; for **deletes** the
    ///   record's journalled payload ([`MutationRecord::payload`]) stands
    ///   in for the tombstoned fact — the indexes behind the first reverse
    ///   step live on the predecessor side, so they answer for a dead
    ///   arrival fact exactly as for a live one.
    ///
    /// Soundness against the *current* (post-batch) database: for any
    /// start `s` whose cached entry a batch mutation can influence, there
    /// was a walk `s → f₁ → … → f_j = mutated fact` valid at the
    /// mutation's epoch. Let `f_i` be the walk's first fact that a later
    /// record of the same batch deleted (possibly none). Every fact before
    /// `f_i` is live now, and `f_i`'s own delete record carries its
    /// values — so the reverse walk from *that* record reaches `s` over
    /// live facts. Every record of the gap is replayed (a wrapped journal
    /// falls back to a full clear), so no affected start escapes. A
    /// reverse frontier exceeding the cap falls back to wholesale eviction
    /// of the scheme.
    ///
    /// The **prefix tier** replays under the same machinery: a cached
    /// prefix is a walk scheme in its own right (its BFS reads exactly
    /// the facts along its own relation sequence), so [`SchemeReach`] of
    /// the prefix-as-scheme scopes its evictions with no generalisation
    /// needed.
    fn replay(&mut self, db: &Database, records: &[MutationRecord]) {
        self.stats.replays += 1;
        if records.is_empty() || self.is_empty() {
            return;
        }
        let schema = db.schema();
        let schemes: BTreeSet<WalkScheme> = self
            .facts
            .keys()
            .chain(self.values.keys())
            .cloned()
            .collect();
        // Reverse frontiers larger than this fall back to wholesale
        // eviction (a hub fact touches "everything" anyway). The forward
        // support cap is the natural yardstick.
        let reverse_cap = self.support_limit.max(64);
        for scheme in schemes {
            let reach = self
                .scopes
                .entry(scheme.clone())
                .or_insert_with(|| SchemeReach::of(schema, &scheme));
            let starts = affected_starts(db, &scheme, reach, records, reverse_cap);
            if starts.as_ref().is_some_and(Vec::is_empty) {
                continue;
            }
            self.stats.evicted += evict(&mut self.facts, &scheme, starts.as_deref(), |&f| f)
                + evict(&mut self.values, &scheme, starts.as_deref(), |&(_, f)| f);
        }
        // Prefix tier: each cached prefix scopes independently as a scheme
        // of its own (`steps[0]` pins the start relation).
        let prefix_keys: Vec<Vec<Step>> = self.prefixes.keys().cloned().collect();
        for key in prefix_keys {
            let scheme = WalkScheme {
                // PANICS: in bounds — cached prefixes are non-empty.
                start: key[0].source(schema),
                steps: key.clone(),
            };
            let reach = self
                .scopes
                .entry(scheme.clone())
                .or_insert_with(|| SchemeReach::of(schema, &scheme));
            let starts = affected_starts(db, &scheme, reach, records, reverse_cap);
            if starts.as_ref().is_some_and(Vec::is_empty) {
                continue;
            }
            self.stats.prefix_evicted += evict(&mut self.prefixes, &key, starts.as_deref(), |&f| f);
        }
    }

    /// Read-only lookup handle: one per work item of a sharded section,
    /// or one for a whole serial pass. Requires the cache to be bound
    /// against the database the view will read (debug-asserted at lookup
    /// time).
    pub fn view(&self) -> DistCacheView<'_> {
        DistCacheView {
            base: self,
            delta: DistCacheDelta::default(),
        }
    }

    /// Merge a view's privately computed entries back. Call once per work
    /// item, **in item order** — with that discipline the cache contents
    /// after a sharded section are independent of the shard count (entry
    /// values are pure in their key, so collisions carry equal data and
    /// "first item wins" is well defined).
    pub fn absorb(&mut self, delta: DistCacheDelta) {
        merge(&mut self.facts, delta.facts);
        merge(&mut self.values, delta.values);
        merge(&mut self.prefixes, delta.prefixes);
        self.stats.hits += delta.hits;
        self.stats.misses += delta.misses;
        self.stats.prefix_hits += delta.prefix_hits;
        self.stats.prefix_misses += delta.prefix_misses;
        self.stats.kd_misses += delta.kd_misses;
    }

    /// Lifetime hit/miss/eviction/invalidation counters.
    pub fn stats(&self) -> DistCacheStats {
        self.stats
    }

    /// Number of memoised entries across all three tiers (fact, value,
    /// prefix-frontier).
    pub fn len(&self) -> usize {
        map_len(&self.facts) + map_len(&self.values) + map_len(&self.prefixes)
    }

    /// `true` when nothing is memoised in any tier.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty() && self.values.is_empty() && self.prefixes.is_empty()
    }
}

/// The start facts of `scheme` whose cached entries `records` can
/// influence, sorted and deduplicated — or `None` when scoping is
/// impossible (reverse frontier over `reverse_cap`) and the caller must
/// evict the scheme wholesale. The per-record logic
/// is documented on [`DistCache::replay`]; this is shared by the
/// fact/value pass and the prefix pass.
fn affected_starts(
    db: &Database,
    scheme: &WalkScheme,
    reach: &SchemeReach,
    records: &[MutationRecord],
    reverse_cap: usize,
) -> Option<Vec<FactId>> {
    // Start facts whose entries the records touch.
    let mut starts: Vec<FactId> = Vec::new();
    for record in records {
        match reach.scope(record.rel) {
            ReachScope::AllStarts => {
                // A delete's reverse walk runs from the journalled
                // payload (the slot is a tombstone).
                let removed = match record.kind {
                    MutationKind::Insert | MutationKind::Restore => None,
                    MutationKind::Delete => Some(record.payload.as_ref()),
                };
                if record.rel == scheme.start {
                    // The scheme re-enters its start relation:
                    // position 0 is affected for this fact …
                    starts.push(record.fact);
                }
                // … and interior positions via reverse walks.
                if !reverse_reachable_starts(
                    db,
                    scheme,
                    record.fact,
                    removed,
                    reverse_cap,
                    &mut starts,
                ) {
                    return None;
                }
            }
            ReachScope::StartOnly => starts.push(record.fact),
            ReachScope::Unreachable => {}
        }
    }
    // Records and reverse walks routinely rediscover the same start;
    // dedup once so the evictions are O(starts + entries·log(starts)),
    // not O(entries·starts).
    starts.sort_unstable();
    starts.dedup();
    Some(starts)
}

/// Collect into `out` every start fact of `scheme` from which a walk can
/// reach `fact` at one of the scheme's interior positions, by walking the
/// steps backwards over the database's current content. When `removed` is
/// given, the fact is a tombstone and the first reverse step runs from
/// those recorded values instead of the (dead) slot; everything further
/// back is live. Returns `false` when a reverse frontier exceeds `cap` —
/// the caller then treats the mutation as touching every start.
fn reverse_reachable_starts(
    db: &Database,
    scheme: &WalkScheme,
    fact: FactId,
    removed: Option<&Fact>,
    cap: usize,
    out: &mut Vec<FactId>,
) -> bool {
    let schema = db.schema();
    for j in 1..=scheme.len() {
        if scheme.steps[j - 1].destination(schema) != fact.rel {
            continue;
        }
        // Walk back from position j to position 0.
        let (mut frontier, walked) = match removed {
            None => (vec![fact], 0),
            Some(values) => {
                // First step from the recorded payload, then live facts.
                let mut first = step_predecessors_of(db, &scheme.steps[j - 1], values);
                first.sort_unstable();
                first.dedup();
                if first.len() > cap {
                    return false;
                }
                (first, 1)
            }
        };
        let mut next: Vec<FactId> = Vec::new();
        for step in scheme.steps[..j - walked].iter().rev() {
            if frontier.is_empty() {
                break;
            }
            next.clear();
            for &g in &frontier {
                next.extend(step_predecessors(db, step, g));
            }
            next.sort_unstable();
            next.dedup();
            if next.len() > cap {
                return false;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        out.extend(frontier);
    }
    true
}

/// Marginalise a cached fact-level entry to `attr` ("all destinations
/// null/dead" is exact [`DistStatus::Nonexistent`] knowledge, like an
/// empty walk set).
fn marginalise(db: &Database, facts: CachedFactDist, attr: usize) -> CachedValueDist {
    match facts {
        DistStatus::Exists(fd) => match value_distribution(db, &fd, attr) {
            Some(values) => DistStatus::Exists(Arc::new(values)),
            None => DistStatus::Nonexistent,
        },
        DistStatus::TooLarge => DistStatus::TooLarge,
        DistStatus::Nonexistent => DistStatus::Nonexistent,
    }
}

/// Overlay over a shared [`DistCache`] snapshot — the cache's only lookup
/// path: reads hit the base first, misses are computed into a private
/// delta. Safe to use from any shard because the base is never written.
pub struct DistCacheView<'a> {
    base: &'a DistCache,
    delta: DistCacheDelta,
}

/// The privately computed entries of one [`DistCacheView`], to be
/// [absorbed](DistCache::absorb) in item order.
#[derive(Debug, Default)]
pub struct DistCacheDelta {
    facts: FactMap,
    values: ValueMap,
    prefixes: PrefixMap,
    hits: u64,
    misses: u64,
    prefix_hits: u64,
    prefix_misses: u64,
    kd_misses: u64,
}

impl DistCacheView<'_> {
    /// Memoised [`destination_distribution_status`] of `(scheme, start)`,
    /// probed base-then-delta.
    pub fn fact_distribution(
        &mut self,
        db: &Database,
        scheme: &WalkScheme,
        start: FactId,
    ) -> CachedFactDist {
        debug_assert!(
            self.base.current_for(db),
            "DistCacheView used against a database the base was not bound for"
        );
        if let Some(hit) = probe([&self.base.facts, &self.delta.facts], scheme, &start) {
            self.delta.hits += 1;
            return hit.clone();
        }
        self.delta.misses += 1;
        let computed = self.assemble_from_prefixes(db, scheme, start).map(Arc::new);
        put(&mut self.delta.facts, scheme, start, computed.clone());
        computed
    }

    /// Compute a fact-level miss by resuming from the **longest cached
    /// prefix frontier** (probing the shared base first, then the private
    /// delta), extending it one [`frontier_step`] at a time and storing
    /// the intermediate frontiers in the persist set in the delta.
    /// Bitwise identical to [`destination_distribution_status`]: both run
    /// the same `frontier_start → frontier_step* → frontier_finish`
    /// composition, and a cached frontier is a pure function of
    /// `(db content, prefix, start, limit)`.
    ///
    /// A cached *negative* prefix settles the status outright — the
    /// from-scratch BFS would fail at that exact step with that exact
    /// status. Schemes diverging before the failing step probe different
    /// keys and are untouched.
    fn assemble_from_prefixes(
        &mut self,
        db: &Database,
        scheme: &WalkScheme,
        start: FactId,
    ) -> DistStatus<FactDistribution> {
        if scheme.is_empty() || db.fact(start).is_none() {
            return destination_distribution_status(db, scheme, start, self.base.support_limit);
        }
        let prefixes = [&self.base.prefixes, &self.delta.prefixes];
        let found = (1..=scheme.len())
            .rev()
            .find_map(|k| Some((k, probe(prefixes, &scheme.steps[..k], &start)?.clone())));
        let (mut depth, mut state) = match found {
            Some((k, entry)) => {
                self.delta.prefix_hits += 1;
                match entry {
                    DistStatus::Exists(arc) => (k, arc),
                    DistStatus::TooLarge => return DistStatus::TooLarge,
                    DistStatus::Nonexistent => return DistStatus::Nonexistent,
                }
            }
            None => {
                self.delta.prefix_misses += 1;
                match frontier_start(db, start) {
                    DistStatus::Exists(s) => (0, Arc::new(s)),
                    _ => return DistStatus::Nonexistent,
                }
            }
        };
        while depth < scheme.len() {
            let stepped = frontier_step(db, &scheme.steps[depth], &state, self.base.support_limit)
                .map(Arc::new);
            depth += 1;
            if self.base.persist.contains(&scheme.steps[..depth]) {
                put(
                    &mut self.delta.prefixes,
                    &scheme.steps[..depth],
                    start,
                    stepped.clone(),
                );
            }
            match stepped {
                DistStatus::Exists(next) => state = next,
                DistStatus::TooLarge => return DistStatus::TooLarge,
                DistStatus::Nonexistent => return DistStatus::Nonexistent,
            }
        }
        frontier_finish(&state)
    }

    /// Count one exact KD evaluation (see [`DistCacheStats::kd_misses`]).
    pub(crate) fn count_exact_kd(&mut self) {
        self.delta.kd_misses += 1;
    }

    /// Memoised `d_{start,scheme}[attr]` (via the fact-level entry, which
    /// is shared by all attributes of the same scheme), probed
    /// base-then-delta.
    pub fn value_distribution(
        &mut self,
        db: &Database,
        scheme: &WalkScheme,
        attr: usize,
        start: FactId,
    ) -> CachedValueDist {
        debug_assert!(
            self.base.current_for(db),
            "DistCacheView used against a database the base was not bound for"
        );
        if let Some(hit) = probe(
            [&self.base.values, &self.delta.values],
            scheme,
            &(attr, start),
        ) {
            self.delta.hits += 1;
            return hit.clone();
        }
        // A value-level miss is its own miss (the marginalisation work),
        // on top of whatever the fact-level lookup below records.
        self.delta.misses += 1;
        let computed = marginalise(db, self.fact_distribution(db, scheme, start), attr);
        put(
            &mut self.delta.values,
            scheme,
            (attr, start),
            computed.clone(),
        );
        computed
    }

    /// Finish the view, handing its private entries to the caller for an
    /// in-order [`DistCache::absorb`].
    pub fn into_delta(self) -> DistCacheDelta {
        self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::enumerate_schemes;
    use reldb::movies::movies_database_labeled;
    use reldb::{cascade_delete, restore_journal, Value};

    /// A cache storing no prefix frontiers: the fact and value tiers
    /// these tests exercise do not depend on the persist set.
    fn cache() -> DistCache {
        DistCache::new(Arc::default())
    }

    /// One lookup through a view, absorbed straight back.
    fn fact(
        cache: &mut DistCache,
        db: &Database,
        scheme: &WalkScheme,
        start: FactId,
    ) -> CachedFactDist {
        let mut view = cache.view();
        let got = view.fact_distribution(db, scheme, start);
        cache.absorb(view.into_delta());
        got
    }

    /// [`fact`] for the value tier.
    fn value(
        cache: &mut DistCache,
        db: &Database,
        scheme: &WalkScheme,
        attr: usize,
        start: FactId,
    ) -> CachedValueDist {
        let mut view = cache.view();
        let got = view.value_distribution(db, scheme, attr, start);
        cache.absorb(view.into_delta());
        got
    }

    fn s5(db: &Database) -> WalkScheme {
        let schema = db.schema();
        let actors = schema.relation_id("ACTORS").unwrap();
        enumerate_schemes(schema, actors, 3, false)
            .into_iter()
            .find(|s| {
                s.display(schema).to_string()
                    == "ACTORS[aid]—COLLABORATIONS[actor1], COLLABORATIONS[movie]—MOVIES[mid]"
            })
            .unwrap()
    }

    #[test]
    fn caches_and_counts_hits() {
        let (db, ids) = movies_database_labeled();
        let scheme = s5(&db);
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        let a = value(&mut cache, &db, &scheme, 4, ids["a1"]);
        let misses = cache.stats().misses;
        let b = value(&mut cache, &db, &scheme, 4, ids["a1"]);
        let (a, b) = (a.exists().unwrap(), b.exists().unwrap());
        assert!(Arc::ptr_eq(a, b), "second lookup must be the same Arc");
        assert_eq!(cache.stats().misses, misses, "no new miss on a hit");
        assert!(cache.stats().hits >= 1);
        // A second attribute of the same scheme reuses the fact-level BFS.
        let fact_entries = map_len(&cache.facts);
        value(&mut cache, &db, &scheme, 3, ids["a1"]);
        assert_eq!(
            map_len(&cache.facts),
            fact_entries,
            "fact BFS shared across attrs"
        );
    }

    #[test]
    fn negative_results_are_cached() {
        let (db, ids) = movies_database_labeled();
        let schema = db.schema();
        let actors = schema.relation_id("ACTORS").unwrap();
        let s1 = enumerate_schemes(schema, actors, 1, false)
            .into_iter()
            .find(|s| s.display(schema).to_string() == "ACTORS[aid]—COLLABORATIONS[actor1]")
            .unwrap();
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        // a3 has no actor1 walks: a (cached) exact negative entry.
        assert!(fact(&mut cache, &db, &s1, ids["a3"]).is_nonexistent());
        let misses = cache.stats().misses;
        assert!(fact(&mut cache, &db, &s1, ids["a3"]).is_nonexistent());
        assert_eq!(cache.stats().misses, misses);
    }

    #[test]
    fn mutation_epoch_invalidates() {
        let (mut db, ids) = movies_database_labeled();
        let scheme = s5(&db);
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        let before = value(&mut cache, &db, &scheme, 4, ids["a1"]);
        let before = before.exists().unwrap().clone();
        assert_eq!(before.support.len(), 2);

        // Delete m6 (+ its collaboration c4): both mutations hit s5's
        // interior relations, and the reverse walk from c4's journalled
        // payload reaches exactly a1 — whose budget marginal collapses and
        // must not be served stale.
        let journal = cascade_delete(&mut db, ids["m6"], false).unwrap();
        cache.ensure_bound(&db, 256);
        assert!(
            cache.is_empty(),
            "an interior mutation must evict the affected scheme"
        );
        assert_eq!(cache.stats().replays, 1, "fine-grained path, not a clear");
        assert_eq!(cache.stats().invalidations, 0);
        assert!(cache.stats().evicted >= 2, "fact + value entries evicted");
        let during = value(&mut cache, &db, &scheme, 4, ids["a1"]);
        assert_eq!(during.exists().unwrap().support.len(), 1);

        // Restore: a new epoch again; the original distribution comes back.
        restore_journal(&mut db, &journal).unwrap();
        cache.ensure_bound(&db, 256);
        let after = value(&mut cache, &db, &scheme, 4, ids["a1"]);
        assert_eq!(after.exists().unwrap().support, before.support);
    }

    #[test]
    fn replay_keeps_unreachable_schemes_warm() {
        let (mut db, ids) = movies_database_labeled();
        let schema = db.schema();
        let actors = schema.relation_id("ACTORS").unwrap();
        let s5 = s5(&db);
        // A length-3 scheme reaching STUDIOS: …—MOVIES[mid], MOVIES[studio]—STUDIOS[sid].
        let studios = schema.relation_id("STUDIOS").unwrap();
        let to_studios = enumerate_schemes(schema, actors, 3, false)
            .into_iter()
            .find(|s| s.len() == 3 && s.end(schema) == studios)
            .unwrap();
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        let s5_arc = value(&mut cache, &db, &s5, 4, ids["a1"]);
        fact(&mut cache, &db, &to_studios, ids["a1"]);
        let len_before = cache.len();

        // Insert a brand-new studio. STUDIOS is interior to the studio
        // scheme, but the new fact is referenced by no movie: the reverse
        // walk finds no start that can reach it, so *nothing* is evicted —
        // not even the studio scheme's entries.
        db.insert_into("STUDIOS", vec!["s99".into(), "A24".into(), "NY".into()])
            .unwrap();
        cache.ensure_bound(&db, 256);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.stats().replays, 1);
        assert_eq!(cache.stats().evicted, 0, "nobody reaches the new studio");
        assert_eq!(cache.len(), len_before);
        // The s5 entry survived — same Arc, no recompute.
        let misses = cache.stats().misses;
        let again = value(&mut cache, &db, &s5, 4, ids["a1"]);
        assert_eq!(cache.stats().misses, misses, "must be a warm hit");
        assert!(Arc::ptr_eq(
            s5_arc.exists().unwrap(),
            again.exists().unwrap()
        ));

        // A *delete* in an interior relation is scoped the same way, via
        // the record's journalled payload: the loose studio was reachable
        // from no start, so deleting it evicts nothing either — both
        // schemes stay fully warm.
        let s99 = db.lookup_key(studios, &["s99".into()]).unwrap();
        db.delete(s99).unwrap();
        cache.ensure_bound(&db, 256);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.stats().evicted, 0, "nobody reached the studio");
        let misses = cache.stats().misses;
        value(&mut cache, &db, &s5, 4, ids["a1"]);
        fact(&mut cache, &db, &to_studios, ids["a1"]);
        assert_eq!(cache.stats().misses, misses, "both schemes still warm");
    }

    #[test]
    fn replay_scopes_interior_deletes_by_reverse_reachability() {
        // Deleting collaboration c3 (actor1 = a4) can only change walk
        // distributions of starts that reached it — the reverse walk runs
        // from the delete record's journalled payload, since the slot is a
        // tombstone by replay time. a4's entry goes, a1's stays warm.
        let (mut db, ids) = movies_database_labeled();
        let s5 = s5(&db);
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        let a1_before = fact(&mut cache, &db, &s5, ids["a1"]);
        let a4_before = fact(&mut cache, &db, &s5, ids["a4"]);
        assert_eq!(a4_before.exists().unwrap().support.len(), 2, "m4 and m5");

        db.delete(ids["c3"]).unwrap();
        cache.ensure_bound(&db, 256);
        assert_eq!(cache.stats().invalidations, 0, "replay, not a clear");
        assert_eq!(cache.stats().replays, 1);
        assert_eq!(cache.stats().evicted, 1, "exactly a4's fact entry");
        let misses = cache.stats().misses;
        let a1_after = fact(&mut cache, &db, &s5, ids["a1"]);
        assert_eq!(cache.stats().misses, misses, "a1 must stay warm");
        assert!(Arc::ptr_eq(
            a1_before.exists().unwrap(),
            a1_after.exists().unwrap()
        ));
        // a4 recomputes — m5 is gone from its support.
        let a4 = fact(&mut cache, &db, &s5, ids["a4"]);
        assert_eq!(cache.stats().misses, misses + 1);
        let support = &a4.exists().unwrap().support;
        assert_eq!(support.len(), 1);
        assert_eq!(support[0].0, ids["m4"]);
    }

    #[test]
    fn interleaved_insert_delete_restore_stays_scoped() {
        // A batch that mixes all three mutation kinds between two binds:
        // every record is replayed fine-grained (no full clear), only the
        // FK-reachable start entries go, and the recomputed values match
        // the database's final state.
        let (mut db, ids) = movies_database_labeled();
        let s5 = s5(&db);
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        let a1_arc = fact(&mut cache, &db, &s5, ids["a1"]);
        fact(&mut cache, &db, &s5, ids["a4"]);
        let a4_supp_before = fact(&mut cache, &db, &s5, ids["a4"])
            .exists()
            .unwrap()
            .support
            .clone();

        // One gap, three kinds: delete c3 (touches a4), restore it
        // (touches a4 again), insert a brand-new collaboration for a4,
        // and a delete+restore cycle of m6's cascade group (touches a1
        // through the deleted collaboration's payload and the restores).
        let c3_fact = db.delete(ids["c3"]).unwrap();
        db.restore(ids["c3"], c3_fact).unwrap();
        db.insert_into(
            "COLLABORATIONS",
            vec!["a04".into(), "a03".into(), "m01".into()],
        )
        .unwrap();
        let j_m6 = cascade_delete(&mut db, ids["m6"], false).unwrap();
        restore_journal(&mut db, &j_m6).unwrap();

        cache.ensure_bound(&db, 256);
        assert_eq!(cache.stats().invalidations, 0, "no wholesale clear");
        assert_eq!(cache.stats().replays, 1);
        assert!(cache.stats().evicted >= 2, "a1 and a4 entries evicted");
        // Both recompute against the final state: a4 gained m1, a1 is
        // back to its original distribution (delete+restore cancelled).
        let a4 = fact(&mut cache, &db, &s5, ids["a4"]);
        let a4_supp = &a4.exists().unwrap().support;
        assert_eq!(a4_supp.len(), a4_supp_before.len() + 1);
        assert!(a4_supp.iter().any(|(f, _)| *f == ids["m1"]));
        let a1 = fact(&mut cache, &db, &s5, ids["a1"]);
        assert_eq!(
            a1.exists().unwrap().support,
            a1_arc.exists().unwrap().support,
            "a1's distribution must round-trip through the delete/restore"
        );
    }

    #[test]
    fn replay_scopes_interior_inserts_by_reverse_reachability() {
        let (mut db, ids) = movies_database_labeled();
        let s5 = s5(&db);
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        let a1_before = fact(&mut cache, &db, &s5, ids["a1"]);
        fact(&mut cache, &db, &s5, ids["a4"]);

        // A new collaboration with actor1 = a4: walking s5 backwards from
        // it reaches exactly a4 — a4's entry goes, a1's survives (its
        // walks pass only through actor1 = a1 collaborations).
        db.insert_into(
            "COLLABORATIONS",
            vec!["a04".into(), "a03".into(), "m01".into()],
        )
        .unwrap();
        cache.ensure_bound(&db, 256);
        assert_eq!(cache.stats().invalidations, 0);
        assert!(cache.stats().evicted >= 1, "a4's entry must be evicted");
        let misses = cache.stats().misses;
        let a1_after = fact(&mut cache, &db, &s5, ids["a1"]);
        assert_eq!(cache.stats().misses, misses, "a1 must stay warm");
        assert!(Arc::ptr_eq(
            a1_before.exists().unwrap(),
            a1_after.exists().unwrap()
        ));
        // a4 recomputes — and now includes m1 as a destination.
        let a4 = fact(&mut cache, &db, &s5, ids["a4"]);
        assert_eq!(cache.stats().misses, misses + 1);
        assert!(a4
            .exists()
            .unwrap()
            .support
            .iter()
            .any(|(f, _)| *f == ids["m1"]));
    }

    #[test]
    fn replay_scopes_start_relation_mutations_to_the_mutated_fact() {
        let (mut db, ids) = movies_database_labeled();
        let s5 = s5(&db);
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        value(&mut cache, &db, &s5, 4, ids["a1"]);

        // A new actor with no collaborations: ACTORS is s5's start relation
        // and never re-entered, so only the new fact's (nonexistent) entry
        // could be affected — a1's entries stay warm.
        let loner = db
            .insert_into("ACTORS", vec!["a99".into(), "Riva".into(), Value::Int(5)])
            .unwrap();
        cache.ensure_bound(&db, 256);
        assert_eq!(cache.stats().invalidations, 0);
        let misses = cache.stats().misses;
        value(&mut cache, &db, &s5, 4, ids["a1"]);
        assert_eq!(cache.stats().misses, misses, "a1 must stay warm");

        // Cache the loner's entry (exactly Nonexistent: no walks), then
        // delete the loner: replay must evict precisely that entry …
        assert!(fact(&mut cache, &db, &s5, loner).is_nonexistent());
        let evicted_before = cache.stats().evicted;
        db.delete(loner).unwrap();
        cache.ensure_bound(&db, 256);
        assert_eq!(cache.stats().evicted, evicted_before + 1);
        // … while a1 is still served from the cache.
        let misses = cache.stats().misses;
        value(&mut cache, &db, &s5, 4, ids["a1"]);
        assert_eq!(cache.stats().misses, misses);
    }

    #[test]
    fn wrapped_journal_falls_back_to_a_full_clear() {
        let (mut db, ids) = movies_database_labeled();
        let s5 = s5(&db);
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        value(&mut cache, &db, &s5, 4, ids["a1"]);
        assert!(!cache.is_empty());

        // More mutations than the ring holds: the records the cache missed
        // are gone, so ensure_bound must drop everything.
        db.set_journal_capacity(2);
        for i in 0..3 {
            db.insert_into(
                "STUDIOS",
                vec![format!("sx{i}").into(), "X".into(), "LA".into()],
            )
            .unwrap();
        }
        cache.ensure_bound(&db, 256);
        assert!(cache.is_empty(), "wrap must clear the cache");
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().replays, 0);
    }

    #[test]
    fn clone_lineage_and_limit_changes_invalidate() {
        let (db, ids) = movies_database_labeled();
        let scheme = s5(&db);
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        value(&mut cache, &db, &scheme, 4, ids["a1"]);
        assert!(!cache.is_empty());
        // Same content, but a clone is a different lineage.
        let clone = db.clone();
        cache.ensure_bound(&clone, 256);
        assert!(cache.is_empty());
        value(&mut cache, &clone, &scheme, 4, ids["a1"]);
        // A different support limit changes what "over the cap" means.
        cache.ensure_bound(&clone, 1);
        assert!(cache.is_empty());
        assert_eq!(
            fact(&mut cache, &clone, &scheme, ids["a1"]),
            DistStatus::TooLarge
        );
    }

    #[test]
    fn prefix_assembled_distributions_match_direct_bfs_bitwise() {
        // Evaluating every scheme in plan-DFS order must produce, for every
        // start, byte-identical distributions to the independent
        // from-scratch BFS — and actually reuse parent frontiers doing it.
        let (db, _) = movies_database_labeled();
        let schema = db.schema();
        let actors = schema.relation_id("ACTORS").unwrap();
        let schemes = enumerate_schemes(schema, actors, 3, false);
        let plan = crate::plan::SchemePlan::build(actors, &schemes);
        let mut cache = DistCache::new(Arc::new(plan.persist_prefixes()));
        cache.ensure_bound(&db, 256);
        for &start in &db.fact_ids(actors) {
            for idx in plan.dfs() {
                let scheme = plan.node(idx).prefix();
                let cached = fact(&mut cache, &db, scheme, start);
                let direct = destination_distribution_status(&db, scheme, start, 256);
                match (cached, direct) {
                    (DistStatus::Exists(c), DistStatus::Exists(d)) => {
                        assert_eq!(c.support.len(), d.support.len());
                        for ((cf, cp), (df, dp)) in c.support.iter().zip(d.support.iter()) {
                            assert_eq!(cf, df, "{scheme:?} from {start}: support order");
                            assert_eq!(
                                cp.to_bits(),
                                dp.to_bits(),
                                "{scheme:?} from {start}: probability bits"
                            );
                        }
                    }
                    (c, d) => assert_eq!(c.is_too_large(), d.is_too_large()),
                }
            }
        }
        let stats = cache.stats();
        assert!(
            stats.prefix_hits > 0,
            "plan-order evaluation must resume cached parent frontiers"
        );
        // Each non-trivial scheme is one step past an already-evaluated
        // parent: after the trivial root, every deeper scheme's assembly
        // should hit, never re-run the full BFS.
        assert!(
            stats.prefix_hits >= stats.prefix_misses,
            "hits {} vs misses {}",
            stats.prefix_hits,
            stats.prefix_misses
        );
    }

    #[test]
    fn too_large_prefix_does_not_poison_siblings() {
        // Regression (tri-state `DistStatus` through the prefix tier): a
        // `TooLarge` frontier after prefix P must fail exactly the schemes
        // routed through P — as TooLarge, never Nonexistent — while sibling
        // schemes diverging before the failing step stay fully usable.
        use crate::schemes::Step;
        use reldb::{SchemaBuilder, ValueType};
        let mut b = SchemaBuilder::new();
        b.relation("A").attr("aid", ValueType::Text).key(&["aid"]);
        b.relation("M")
            .attr("mid", ValueType::Text)
            .attr("v", ValueType::Int)
            .key(&["mid"]);
        b.relation("J1")
            .attr("jid", ValueType::Text)
            .attr("a_ref", ValueType::Text)
            .attr("m_ref", ValueType::Text)
            .key(&["jid"]);
        b.relation("J2")
            .attr("kid", ValueType::Text)
            .attr("a_ref", ValueType::Text)
            .attr("m_ref", ValueType::Text)
            .key(&["kid"]);
        b.foreign_key("J1", &["a_ref"], "A");
        b.foreign_key("J1", &["m_ref"], "M");
        b.foreign_key("J2", &["a_ref"], "A");
        b.foreign_key("J2", &["m_ref"], "M");
        let mut db = Database::new(b.build().unwrap());
        let a1 = db.insert_into("A", vec!["a1".into()]).unwrap();
        for i in 0..2 {
            db.insert_into("M", vec![format!("m{i}").into(), reldb::Value::Int(i)])
                .unwrap();
        }
        // 5 J1 rows: the backward A—J1 frontier blows a limit of 3.
        for i in 0..5 {
            db.insert_into(
                "J1",
                vec![
                    format!("j{i}").into(),
                    "a1".into(),
                    format!("m{}", i % 2).into(),
                ],
            )
            .unwrap();
        }
        // 2 J2 rows: the sibling branch stays under the limit.
        for i in 0..2 {
            db.insert_into(
                "J2",
                vec![format!("k{i}").into(), "a1".into(), format!("m{i}").into()],
            )
            .unwrap();
        }
        let schema = db.schema();
        let rel_a = schema.relation_id("A").unwrap();
        let rel_j1 = schema.relation_id("J1").unwrap();
        let rel_m = schema.relation_id("M").unwrap();
        let back = |from_rel| {
            let fk = *schema
                .fks_to(rel_a)
                .iter()
                .find(|&&fk| schema.foreign_key(fk).from_rel == from_rel)
                .unwrap();
            Step { fk, forward: false }
        };
        let to_m = |from_rel| {
            let fk = *schema
                .fks_to(rel_m)
                .iter()
                .find(|&&fk| schema.foreign_key(fk).from_rel == from_rel)
                .unwrap();
            Step { fk, forward: true }
        };
        let rel_j2 = schema.relation_id("J2").unwrap();
        let via_j1 = WalkScheme {
            start: rel_a,
            steps: vec![back(rel_j1), to_m(rel_j1)],
        };
        let via_j1_short = WalkScheme {
            start: rel_a,
            steps: vec![back(rel_j1)],
        };
        let via_j2 = WalkScheme {
            start: rel_a,
            steps: vec![back(rel_j2), to_m(rel_j2)],
        };

        // Persist the shared J1 prefix, where the negative entry lands.
        let mut cache = DistCache::new(Arc::new(BTreeSet::from([via_j1_short.steps.clone()])));
        cache.ensure_bound(&db, 3);
        // The short scheme fails TooLarge and plants a negative prefix.
        assert!(fact(&mut cache, &db, &via_j1_short, a1).is_too_large());
        // The longer scheme through the same prefix reuses the negative
        // entry (a prefix hit, no fresh BFS) and fails the same way —
        // TooLarge, routing to sampling, not Nonexistent.
        let hits = cache.stats().prefix_hits;
        let status = fact(&mut cache, &db, &via_j1, a1);
        assert!(status.is_too_large(), "must stay tri-state: {status:?}");
        assert!(!status.is_nonexistent());
        assert_eq!(cache.stats().prefix_hits, hits + 1, "negative entry reused");
        // The sibling diverging at step 1 probes a different prefix key:
        // fully usable, with a 2-fact support.
        let sibling = fact(&mut cache, &db, &via_j2, a1);
        assert_eq!(sibling.exists().unwrap().support.len(), 2);
        // Every status equals the direct BFS's.
        for scheme in [&via_j1_short, &via_j1, &via_j2] {
            let direct = destination_distribution_status(&db, scheme, a1, 3);
            let cached = fact(&mut cache, &db, scheme, a1);
            assert_eq!(cached.is_too_large(), direct.is_too_large());
            assert_eq!(cached.is_nonexistent(), direct.is_nonexistent());
        }
    }

    #[test]
    fn views_overlay_and_absorb_in_order() {
        let (db, ids) = movies_database_labeled();
        let scheme = s5(&db);
        let mut cache = cache();
        cache.ensure_bound(&db, 256);
        value(&mut cache, &db, &scheme, 4, ids["a1"]);

        let deltas: Vec<DistCacheDelta> = (0..2)
            .map(|i| {
                let mut view = cache.view();
                // Base hit for a1, private miss for a4.
                assert!(view
                    .value_distribution(&db, &scheme, 4, ids["a1"])
                    .exists()
                    .is_some());
                view.value_distribution(&db, &scheme, 4 - i, ids["a4"]);
                view.into_delta()
            })
            .collect();
        let before = cache.len();
        for d in deltas {
            cache.absorb(d);
        }
        assert!(cache.len() > before);
        // The absorbed entries now serve as base hits.
        let misses = cache.stats().misses;
        value(&mut cache, &db, &scheme, 4, ids["a4"]);
        assert_eq!(cache.stats().misses, misses);
    }
}
