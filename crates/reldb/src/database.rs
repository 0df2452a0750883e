//! The in-memory database: fact storage, constraint enforcement, the
//! secondary indexes that power random walks, and the **mutation journal**
//! — the one log of every mutation, read both by derived caches that
//! invalidate themselves fine-grained and by the write-ahead log.
//!
//! ## The mutation journal
//!
//! Every successful mutation ([`Database::insert`], [`Database::restore`],
//! every deletion including cascades) bumps the [epoch](Database::epoch)
//! counter **and** appends a [`MutationRecord`] carrying the complete fact
//! (the live fact for inserts and restores, the removed values for
//! deletes). A consumer that remembers the epoch it last observed can
//! later ask [`Database::journal_since`] for exactly the mutations it
//! missed and invalidate only what those mutations can reach — instead of
//! dropping all derived state on any epoch change.
//!
//! The journal is a bounded window ([`Database::journal_capacity`]): when
//! a consumer has fallen further behind than the window remembers,
//! `journal_since` returns `None` and the consumer falls back to a full
//! rebuild — for caches the journal is an optimisation channel, never a
//! correctness requirement.
//!
//! ## The pin: the journal as a write-ahead log source
//!
//! [`Database::pin_journal`] keeps every record newer than a given epoch,
//! whatever the capacity. The durable pipeline (`repro::durable`) pins at
//! the epoch it last wrote to its log; after each batch of mutations it
//! appends every record of `journal_since(pinned)` as one WAL frame and
//! moves the pin forward. Because every record carries its complete fact,
//! replaying that stream onto a snapshot reconstructs the database exactly
//! — see [`Database::apply_mutation`].

use crate::{DbError, Fact, FactId, FkId, RelationId, Result, Schema, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide source of database identities (see [`Database::db_id`]).
static NEXT_DB_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_db_id() -> u64 {
    NEXT_DB_ID.fetch_add(1, Ordering::Relaxed)
}

/// What a [`MutationRecord`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// A fresh fact entered a new slot ([`Database::insert`]).
    Insert,
    /// A live fact was tombstoned ([`Database::delete`] or a cascade).
    Delete,
    /// A tombstoned slot was revived with its original fact
    /// ([`Database::restore`]).
    Restore,
}

/// One entry of the mutation journal: which fact of which relation was
/// touched, how, at which epoch, and the fact itself. `record.epoch` is
/// the value [`Database::epoch`] reached *by* this mutation — records of
/// one lineage carry consecutive epochs, which is what makes "replay
/// everything after epoch `e`" well defined.
///
/// The payload sits behind an [`Arc`], so records stay cheap to clone and
/// a cascade's [`DeletionJournal`](crate::DeletionJournal) shares the
/// removed facts with the journal instead of copying them. A delete
/// leaves only a tombstone, so its payload is the only place the removed
/// key and FK tuples survive: a consumer that scopes invalidation by
/// walking foreign keys *from* the mutated fact reads them there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationRecord {
    /// What happened.
    pub kind: MutationKind,
    /// The touched fact's stable id (slot identity survives tombstoning).
    pub fact: FactId,
    /// The touched fact's relation (redundant with `fact.rel`, kept so
    /// consumers scoping by relation never reach into `fact`).
    pub rel: RelationId,
    /// The epoch this mutation produced.
    pub epoch: u64,
    /// The complete fact: the live fact for inserts and restores, the
    /// removed values for deletes.
    pub payload: Arc<Fact>,
}

/// Default bound of the mutation window: comfortably above one dynamic-
/// experiment insertion round (a prediction tuple plus its cascade group),
/// small enough that a wrapped consumer's full rebuild is cheaper than
/// replaying the backlog would have been.
const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// The most recent [`MutationRecord`]s, oldest first: at most `capacity`
/// of them, plus every record newer than the pin.
#[derive(Debug, Clone)]
struct MutationJournal {
    records: VecDeque<MutationRecord>,
    capacity: usize,
    /// Records with an epoch above this are kept whatever `capacity` is.
    pin: Option<u64>,
}

impl MutationJournal {
    fn new(capacity: usize) -> Self {
        MutationJournal {
            records: VecDeque::with_capacity(capacity.min(DEFAULT_JOURNAL_CAPACITY)),
            capacity,
            pin: None,
        }
    }

    fn push(&mut self, record: MutationRecord) {
        // Make room first, so the buffer does not grow past `capacity`.
        self.trim_to(self.capacity.saturating_sub(1));
        self.records.push_back(record);
        self.trim_to(self.capacity);
    }

    /// Drop the oldest records beyond `limit` that the pin does not hold.
    fn trim_to(&mut self, limit: usize) {
        while self.records.len() > limit
            && self
                .records
                .front()
                .is_some_and(|r| self.pin.is_none_or(|pin| r.epoch <= pin))
        {
            self.records.pop_front();
        }
    }
}

/// Per-relation fact store.
///
/// Facts live in append-only slots; deletion leaves a tombstone (`None`) so
/// that [`FactId`]s are never silently re-bound to different facts. The
/// journal-replay path ([`Database::restore`]) may revive a tombstoned slot
/// with **the same fact** it used to hold, which preserves identity across
/// the dynamic experiment's delete/re-insert cycle.
#[derive(Debug, Clone, Default)]
struct RelationStore {
    slots: Vec<Option<Fact>>,
    live: usize,
    /// key tuple → slot.
    key_index: HashMap<Vec<Value>, u32>,
    /// Per attribute: non-null value → slots holding it (unordered).
    value_index: Vec<HashMap<Value, Vec<u32>>>,
}

/// A relational database over a fixed [`Schema`].
///
/// All mutating operations keep the key index, the per-attribute value
/// index, and the per-FK reference index transactionally consistent: either
/// the operation succeeds and all indexes reflect it, or it fails with a
/// [`DbError`] and nothing changed.
#[derive(Debug)]
pub struct Database {
    schema: Schema,
    stores: Vec<RelationStore>,
    /// Per FK: referenced key tuple → referencing slots in `fk.from_rel`.
    fk_index: Vec<HashMap<Vec<Value>, Vec<u32>>>,
    /// When true, `insert` skips FK existence checks (bulk loading of data
    /// with cyclic or forward references); call [`Database::check_all_fks`]
    /// afterwards.
    defer_fk_checks: bool,
    /// Process-unique lineage id (see [`Database::db_id`]).
    db_id: u64,
    /// Mutation epoch (see [`Database::epoch`]).
    epoch: u64,
    /// The most recent mutations (see the module docs).
    journal: MutationJournal,
}

impl Clone for Database {
    /// Cloning starts a **new lineage**: the clone gets a fresh [`db_id`]
    /// (its epoch counter restarts at 0), so caches keyed to the original's
    /// `(db_id, epoch)` can never be mistaken for valid against the clone —
    /// the two copies mutate independently from here on.
    ///
    /// [`db_id`]: Database::db_id
    fn clone(&self) -> Self {
        Database {
            schema: self.schema.clone(),
            stores: self.stores.clone(),
            fk_index: self.fk_index.clone(),
            defer_fk_checks: self.defer_fk_checks,
            db_id: fresh_db_id(),
            epoch: 0,
            // A fresh lineage starts with an empty, unpinned journal: its
            // records would describe the *original*'s history, epoch 0 of
            // the clone names the cloned content, not an empty database,
            // and the pin belongs to the original's write-ahead log.
            journal: MutationJournal::new(self.journal.capacity),
        }
    }
}

impl Database {
    /// Empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        let stores = schema
            .relations()
            .iter()
            .map(|r| RelationStore {
                slots: Vec::new(),
                live: 0,
                key_index: HashMap::new(),
                value_index: vec![HashMap::new(); r.arity()],
            })
            .collect();
        let fk_index = vec![HashMap::new(); schema.foreign_keys().len()];
        Database {
            schema,
            stores,
            fk_index,
            defer_fk_checks: false,
            db_id: fresh_db_id(),
            epoch: 0,
            journal: MutationJournal::new(DEFAULT_JOURNAL_CAPACITY),
        }
    }

    /// Rebuild a database from snapshotted slot contents — one
    /// `Vec<Option<Fact>>` per relation in [`RelationId`] order, `None`
    /// marking tombstones — exactly as read back via
    /// [`Database::slot_count`] / [`Database::fact`]. Tombstones are
    /// preserved so every [`FactId`] of the snapshotted database denotes
    /// the same slot here, which is what lets a WAL tail recorded against
    /// the original replay onto the restored copy
    /// ([`Database::apply_mutation`]).
    ///
    /// All per-fact constraints are re-validated and all indexes rebuilt;
    /// FK existence is checked once at the end (snapshot order need not be
    /// FK-topological). The restored database starts a **new lineage**
    /// (fresh [`Database::db_id`], empty journal) at the given `epoch`.
    pub fn from_snapshot_parts(
        schema: Schema,
        slots: Vec<Vec<Option<Fact>>>,
        epoch: u64,
    ) -> Result<Database> {
        if slots.len() != schema.relation_count() {
            return Err(DbError::Replay(format!(
                "snapshot has {} relations but the schema declares {}",
                slots.len(),
                schema.relation_count()
            )));
        }
        let mut db = Database::new(schema);
        // Per-fact validation with FK existence deferred to the final
        // whole-database check (`db` is dropped on any error path, so the
        // temporary flag never escapes).
        db.defer_fk_checks = true;
        for (rel_idx, rel_slots) in slots.into_iter().enumerate() {
            let rel = RelationId(rel_idx as u32);
            for (row, slot) in rel_slots.into_iter().enumerate() {
                match slot {
                    Some(fact) => {
                        db.validate_fact(rel, &fact)?;
                        db.index_fact(rel, row as u32, &fact);
                        db.stores[rel.index()].slots.push(Some(fact));
                        db.stores[rel.index()].live += 1;
                    }
                    None => db.stores[rel.index()].slots.push(None),
                }
            }
        }
        db.defer_fk_checks = false;
        db.check_all_fks()?;
        db.epoch = epoch;
        Ok(db)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Process-unique identity of this database value. Every
    /// [`Database::new`] *and every clone* gets a fresh id, so a
    /// `(db_id, epoch)` pair names one immutable snapshot of one database
    /// lineage — the key derived caches (e.g. `stembed-core`'s walk
    /// distribution cache) validate against.
    pub fn db_id(&self) -> u64 {
        self.db_id
    }

    /// Mutation epoch: incremented by every successful [`Database::insert`],
    /// [`Database::restore`], and deletion (including cascades). Two equal
    /// `(db_id, epoch)` observations therefore guarantee the database
    /// content is unchanged between them.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mutations that happened *after* epoch `since`, oldest first —
    /// exactly the records a consumer bound to `(db_id, since)` missed.
    ///
    /// Returns `None` when the journal no longer holds all of them (the
    /// consumer fell behind by more than [`Database::journal_capacity`]
    /// mutations past the [pin](Database::pin_journal), or `since` lies in
    /// the future of this lineage); the caller must then fall back to a
    /// full rebuild of whatever it derived.
    ///
    /// **Boundary contract:** the comparison is strict. A consumer lagging
    /// by *exactly* the journal's length (`missed == records.len()`, e.g. a
    /// full-capacity window whose oldest retained record is the first one
    /// missed) still replays — the whole journal is returned. Only
    /// `missed > records.len()` — at least one missed record already
    /// discarded — reports the wrap. An off-by-one here in either
    /// direction would silently serve a partial history (unsound
    /// invalidation) or force a spurious full rebuild once per exactly-
    /// capacity lag (the steady state of a consumer that catches up in
    /// capacity-sized batches).
    pub fn journal_since(&self, since: u64) -> Option<impl Iterator<Item = &MutationRecord> + '_> {
        if since > self.epoch {
            return None;
        }
        // Compare the gap in u64: `as usize` truncation on 32-bit targets
        // could otherwise alias a huge gap onto a small one and serve a
        // partial journal as if it were complete.
        let missed = self.epoch - since;
        if missed > self.journal.records.len() as u64 {
            return None; // wrapped: records since `since` were discarded
        }
        let skip = self.journal.records.len() - missed as usize;
        Some(self.journal.records.iter().skip(skip))
    }

    /// Bound of the mutation window (records retained before the oldest
    /// unpinned one is discarded).
    pub fn journal_capacity(&self) -> usize {
        self.journal.capacity
    }

    /// Change the mutation-window bound. Shrinking discards the oldest
    /// unpinned records immediately. A capacity of 0 keeps only pinned
    /// records — unpinned, [`Database::journal_since`] then answers only
    /// the trivial "nothing missed" query.
    pub fn set_journal_capacity(&mut self, capacity: usize) {
        self.journal.capacity = capacity;
        self.journal.trim_to(capacity);
    }

    /// Keep every record newer than `epoch`, whatever the capacity, until
    /// the pin moves; records at or below it fall back under the capacity
    /// bound. A consumer that must see every mutation — the durable
    /// pipeline's write-ahead log — pins the epoch it has consumed, reads
    /// [`Database::journal_since`] that epoch, and pins again. Clones start
    /// unpinned.
    pub fn pin_journal(&mut self, epoch: u64) {
        self.journal.pin = Some(epoch);
        self.journal.trim_to(self.journal.capacity);
    }

    /// Bump the epoch and journal the mutation that caused it. Called by
    /// every successful mutation, after the stores and indexes are
    /// updated. Returns the record (a cascade keeps it in its
    /// [`DeletionJournal`](crate::DeletionJournal)).
    fn record_mutation(
        &mut self,
        kind: MutationKind,
        fact: FactId,
        payload: Arc<Fact>,
    ) -> MutationRecord {
        self.epoch += 1;
        let record = MutationRecord {
            kind,
            fact,
            rel: fact.rel,
            epoch: self.epoch,
            payload,
        };
        self.journal.push(record.clone());
        record
    }

    /// Re-apply one journalled mutation (crash-recovery replay). The
    /// caller feeds back the exact stream the journal recorded — in epoch
    /// order, onto a database restored from the snapshot the
    /// stream follows ([`Database::from_snapshot_parts`]).
    ///
    /// Inserts re-run full validation and must land in the slot the log
    /// recorded (guaranteed by slot-exact snapshots plus in-order replay —
    /// a mismatch means the log and snapshot disagree and fails with
    /// [`DbError::Replay`]). Deletes skip the dangling-reference check:
    /// the original sequence interleaved cascade members in execution
    /// order, which may pass through transiently dangling states that the
    /// later records of the same cascade repair.
    pub fn apply_mutation(&mut self, kind: MutationKind, id: FactId, fact: &Fact) -> Result<()> {
        match kind {
            MutationKind::Insert => {
                let got = self.insert(id.rel, fact.values().to_vec())?;
                if got != id {
                    return Err(DbError::Replay(format!(
                        "insert replayed into slot {got}, log recorded {id}"
                    )));
                }
            }
            MutationKind::Restore => self.restore(id, Arc::new(fact.clone()))?,
            MutationKind::Delete => {
                self.delete_unchecked(id)?;
            }
        }
        Ok(())
    }

    /// Enable/disable deferred FK checking. With deferral on, `insert`
    /// validates everything *except* FK existence; run
    /// [`Database::check_all_fks`] once loading completes.
    pub fn set_defer_fk_checks(&mut self, defer: bool) {
        self.defer_fk_checks = defer;
    }

    /// Number of live facts in `rel`.
    pub fn live_count(&self, rel: RelationId) -> usize {
        self.stores[rel.index()].live
    }

    /// Number of slots ever allocated in `rel` — live facts *plus*
    /// tombstones. Snapshots iterate `0..slot_count` and read each slot
    /// via [`Database::fact`] (`None` = tombstone) so a restored database
    /// preserves slot identity ([`Database::from_snapshot_parts`]).
    pub fn slot_count(&self, rel: RelationId) -> usize {
        self.stores[rel.index()].slots.len()
    }

    /// Total number of live facts (Table I's "#Tuples").
    pub fn total_facts(&self) -> usize {
        self.stores.iter().map(|s| s.live).sum()
    }

    /// The live fact behind `id`, if any.
    pub fn fact(&self, id: FactId) -> Option<&Fact> {
        self.stores
            .get(id.rel.index())?
            .slots
            .get(id.row as usize)?
            .as_ref()
    }

    /// Like [`Database::fact`] but with a typed error.
    pub fn fact_required(&self, id: FactId) -> Result<&Fact> {
        self.fact(id).ok_or(DbError::UnknownFact)
    }

    /// Iterate over the live facts of `rel` in slot order.
    pub fn facts(&self, rel: RelationId) -> impl Iterator<Item = (FactId, &Fact)> {
        self.stores[rel.index()]
            .slots
            .iter()
            .enumerate()
            .filter_map(move |(row, slot)| slot.as_ref().map(|f| (FactId::new(rel, row as u32), f)))
    }

    /// Collect the live fact ids of `rel`.
    pub fn fact_ids(&self, rel: RelationId) -> Vec<FactId> {
        self.facts(rel).map(|(id, _)| id).collect()
    }

    /// Find the fact of `rel` with the given key tuple.
    pub fn lookup_key(&self, rel: RelationId, key: &[Value]) -> Option<FactId> {
        self.stores[rel.index()]
            .key_index
            .get(key)
            .map(|&row| FactId::new(rel, row))
    }

    /// Slots of facts in `rel` whose attribute `attr` equals `value`
    /// (unordered). Nulls are never indexed.
    pub fn facts_with_value(&self, rel: RelationId, attr: usize, value: &Value) -> &[u32] {
        self.stores[rel.index()].value_index[attr]
            .get(value)
            .map_or(&[], |v| v.as_slice())
    }

    /// The active domain `adom(A)`: distinct non-null values of `rel.attr`,
    /// in canonical order ([`Value::canonical_cmp`]).
    ///
    /// The backing index is hash-ordered; the sort here keeps consumers —
    /// notably kernel variance fitting, whose float sums run in this
    /// order — independent of hasher state.
    pub fn active_domain(&self, rel: RelationId, attr: usize) -> Vec<&Value> {
        // lint: nondeterministic-iter-ok(keys are collected and canonically sorted before exposure)
        let mut vals: Vec<&Value> = self.stores[rel.index()].value_index[attr].keys().collect();
        vals.sort_unstable_by(|a, b| a.canonical_cmp(b));
        vals
    }

    /// Facts of `fk.from_rel` whose FK tuple references the key tuple
    /// `key` of `fk.to_rel` (the *backward* step of a walk scheme).
    pub fn referencing_slots(&self, fk: FkId, key: &[Value]) -> &[u32] {
        self.fk_index[fk.index()]
            .get(key)
            .map_or(&[], |v| v.as_slice())
    }

    /// Facts referencing `target` via `fk`.
    pub fn referencing_facts(&self, fk: FkId, target: FactId) -> Vec<FactId> {
        let fk_def = self.schema.foreign_key(fk);
        debug_assert_eq!(fk_def.to_rel, target.rel);
        let Some(fact) = self.fact(target) else {
            return Vec::new();
        };
        let key = fact.project(&fk_def.to_attrs);
        self.referencing_slots(fk, &key)
            .iter()
            .map(|&row| FactId::new(fk_def.from_rel, row))
            .collect()
    }

    /// Total number of live facts referencing `target` over all FKs into its
    /// relation. Drives both dangling-reference protection and orphan
    /// collection during cascade deletion.
    pub fn reference_count(&self, target: FactId) -> usize {
        self.schema
            .fks_to(target.rel)
            .iter()
            .map(|&fk| {
                let fk_def = self.schema.foreign_key(fk);
                match self.fact(target) {
                    Some(fact) => {
                        let key = fact.project(&fk_def.to_attrs);
                        self.referencing_slots(fk, &key).len()
                    }
                    None => 0,
                }
            })
            .sum()
    }

    /// The fact referenced by `source` via `fk`, or `None` when any
    /// referencing attribute is null (the FK is then ignored, per §II).
    pub fn resolve_fk(&self, fk: FkId, source: FactId) -> Result<Option<FactId>> {
        let fk_def = self.schema.foreign_key(fk);
        if fk_def.from_rel != source.rel {
            return Err(DbError::BadRelationId(source.rel));
        }
        let fact = self.fact_required(source)?;
        if fact.any_null(&fk_def.from_attrs) {
            return Ok(None);
        }
        let key = fact.project(&fk_def.from_attrs);
        Ok(self.lookup_key(fk_def.to_rel, &key))
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Insert a fact into `rel`, enforcing arity, types, non-null unique
    /// keys, NaN rejection, and (unless deferred) FK existence.
    pub fn insert(&mut self, rel: RelationId, values: Vec<Value>) -> Result<FactId> {
        let fact = Fact::new(values);
        self.validate_fact(rel, &fact)?;
        let row = self.stores[rel.index()].slots.len() as u32;
        self.index_fact(rel, row, &fact);
        let payload = Arc::new(fact.clone());
        self.stores[rel.index()].slots.push(Some(fact));
        self.stores[rel.index()].live += 1;
        let id = FactId::new(rel, row);
        self.record_mutation(MutationKind::Insert, id, payload);
        Ok(id)
    }

    /// Insert by relation name (convenience for examples and loaders).
    pub fn insert_into(&mut self, rel_name: &str, values: Vec<Value>) -> Result<FactId> {
        let rel = self
            .schema
            .relation_id(rel_name)
            .ok_or_else(|| DbError::UnknownRelation(rel_name.to_string()))?;
        self.insert(rel, values)
    }

    /// Re-insert `fact` into the tombstoned slot `id` (journal replay).
    /// Validates the same constraints as [`Database::insert`]. The journal
    /// record shares `fact`; the slot holds its own copy.
    pub fn restore(&mut self, id: FactId, fact: Arc<Fact>) -> Result<()> {
        let store = self
            .stores
            .get(id.rel.index())
            .ok_or(DbError::BadRelationId(id.rel))?;
        match store.slots.get(id.row as usize) {
            Some(None) => {}
            // Slot does not exist or is live: restoring would corrupt.
            _ => return Err(DbError::UnknownFact),
        }
        self.validate_fact(id.rel, &fact)?;
        self.index_fact(id.rel, id.row, &fact);
        self.stores[id.rel.index()].slots[id.row as usize] = Some(Fact::clone(&fact));
        self.stores[id.rel.index()].live += 1;
        self.record_mutation(MutationKind::Restore, id, fact);
        Ok(())
    }

    /// Delete a fact. Fails with [`DbError::WouldDangle`] when other live
    /// facts still reference it — use [`crate::cascade`] for cascading
    /// semantics. Returns the removed fact.
    pub fn delete(&mut self, id: FactId) -> Result<Arc<Fact>> {
        let refs = self.reference_count(id);
        if refs > 0 {
            return Err(DbError::WouldDangle {
                relation: self.schema.relation(id.rel).name.clone(),
                referencing: refs,
            });
        }
        Ok(self.delete_unchecked(id)?.payload)
    }

    /// Delete without the dangling-reference check. `pub(crate)`: only the
    /// cascade module may create temporary dangling states, and it repairs
    /// them before returning. Returns the journal record, whose payload is
    /// the removed fact.
    pub(crate) fn delete_unchecked(&mut self, id: FactId) -> Result<MutationRecord> {
        let slot = self
            .stores
            .get_mut(id.rel.index())
            .ok_or(DbError::BadRelationId(id.rel))?
            .slots
            .get_mut(id.row as usize)
            .ok_or(DbError::UnknownFact)?;
        let fact = slot.take().ok_or(DbError::UnknownFact)?;
        self.stores[id.rel.index()].live -= 1;
        self.unindex_fact(id.rel, id.row, &fact);
        // The journal keeps the removed values: the slot is a tombstone
        // from here on, and fine-grained invalidation and the WAL both
        // need the fact's key/FK tuples.
        Ok(self.record_mutation(MutationKind::Delete, id, Arc::new(fact)))
    }

    /// Check every FK of every live fact; first violation wins. Used after
    /// bulk loading with deferred checks.
    pub fn check_all_fks(&self) -> Result<()> {
        for (fk_idx, fk) in self.schema.foreign_keys().iter().enumerate() {
            let _ = fk_idx;
            for (_, fact) in self.facts(fk.from_rel) {
                if fact.any_null(&fk.from_attrs) {
                    continue;
                }
                let key = fact.project(&fk.from_attrs);
                if self.lookup_key(fk.to_rel, &key).is_none() {
                    return Err(DbError::FkViolation {
                        from: self.schema.relation(fk.from_rel).name.clone(),
                        to: self.schema.relation(fk.to_rel).name.clone(),
                        values: key,
                    });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn validate_fact(&self, rel: RelationId, fact: &Fact) -> Result<()> {
        let rel_schema = self
            .schema
            .relations()
            .get(rel.index())
            .ok_or(DbError::BadRelationId(rel))?;
        if fact.arity() != rel_schema.arity() {
            return Err(DbError::Arity {
                relation: rel_schema.name.clone(),
                expected: rel_schema.arity(),
                got: fact.arity(),
            });
        }
        for (i, value) in fact.values().iter().enumerate() {
            let attr = &rel_schema.attributes[i];
            if value.is_nan() {
                return Err(DbError::NanValue {
                    relation: rel_schema.name.clone(),
                    attribute: attr.name.clone(),
                });
            }
            if !value.conforms_to(attr.ty) {
                return Err(DbError::TypeMismatch {
                    relation: rel_schema.name.clone(),
                    attribute: attr.name.clone(),
                    value: value.clone(),
                });
            }
            if value.is_null() && rel_schema.is_key_attr(i) {
                return Err(DbError::NullInKey {
                    relation: rel_schema.name.clone(),
                    attribute: attr.name.clone(),
                });
            }
        }
        let key = fact.project(&rel_schema.key);
        if self.stores[rel.index()].key_index.contains_key(&key) {
            return Err(DbError::DuplicateKey {
                relation: rel_schema.name.clone(),
                key,
            });
        }
        if !self.defer_fk_checks {
            for &fk_id in self.schema.fks_from(rel) {
                let fk = self.schema.foreign_key(fk_id);
                if fact.any_null(&fk.from_attrs) {
                    continue;
                }
                let fk_key = fact.project(&fk.from_attrs);
                if self.lookup_key(fk.to_rel, &fk_key).is_none() {
                    return Err(DbError::FkViolation {
                        from: rel_schema.name.clone(),
                        to: self.schema.relation(fk.to_rel).name.clone(),
                        values: fk_key,
                    });
                }
            }
        }
        Ok(())
    }

    fn index_fact(&mut self, rel: RelationId, row: u32, fact: &Fact) {
        let key = fact.project(&self.schema.relation(rel).key);
        let store = &mut self.stores[rel.index()];
        store.key_index.insert(key, row);
        for (attr, value) in fact.values().iter().enumerate() {
            if !value.is_null() {
                store.value_index[attr]
                    .entry(value.clone())
                    .or_default()
                    .push(row);
            }
        }
        for &fk_id in self.schema.fks_from(rel) {
            let fk = self.schema.foreign_key(fk_id);
            if fact.any_null(&fk.from_attrs) {
                continue;
            }
            let fk_key = fact.project(&fk.from_attrs);
            self.fk_index[fk_id.index()]
                .entry(fk_key)
                .or_default()
                .push(row);
        }
    }

    fn unindex_fact(&mut self, rel: RelationId, row: u32, fact: &Fact) {
        let key = fact.project(&self.schema.relation(rel).key);
        let store = &mut self.stores[rel.index()];
        store.key_index.remove(&key);
        for (attr, value) in fact.values().iter().enumerate() {
            if value.is_null() {
                continue;
            }
            if let Some(rows) = store.value_index[attr].get_mut(value) {
                if let Some(pos) = rows.iter().position(|&r| r == row) {
                    rows.swap_remove(pos);
                }
                if rows.is_empty() {
                    store.value_index[attr].remove(value);
                }
            }
        }
        for &fk_id in self.schema.fks_from(rel) {
            let fk = self.schema.foreign_key(fk_id);
            if fact.any_null(&fk.from_attrs) {
                continue;
            }
            let fk_key = fact.project(&fk.from_attrs);
            if let Some(rows) = self.fk_index[fk_id.index()].get_mut(&fk_key) {
                if let Some(pos) = rows.iter().position(|&r| r == row) {
                    rows.swap_remove(pos);
                }
                if rows.is_empty() {
                    self.fk_index[fk_id.index()].remove(&fk_key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchemaBuilder, ValueType};

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.relation("S")
            .attr("sid", ValueType::Text)
            .attr("name", ValueType::Text)
            .key(&["sid"]);
        b.relation("R")
            .attr("rid", ValueType::Text)
            .attr("s_ref", ValueType::Text)
            .attr("payload", ValueType::Int)
            .key(&["rid"]);
        b.foreign_key("R", &["s_ref"], "S");
        b.build().unwrap()
    }

    fn db_with_one_s() -> (Database, FactId) {
        let mut db = Database::new(schema());
        let s = db
            .insert_into("S", vec!["s1".into(), "Acme".into()])
            .unwrap();
        (db, s)
    }

    #[test]
    fn insert_and_lookup() {
        let (mut db, s) = db_with_one_s();
        let rel_r = db.schema().relation_id("R").unwrap();
        let r = db
            .insert(rel_r, vec!["r1".into(), "s1".into(), Value::Int(5)])
            .unwrap();
        assert_eq!(db.total_facts(), 2);
        assert_eq!(db.fact(r).unwrap().get(2), &Value::Int(5));
        assert_eq!(db.lookup_key(rel_r, &["r1".into()]), Some(r));
        // FK resolution.
        let fk = db.schema().fks_from(rel_r)[0];
        assert_eq!(db.resolve_fk(fk, r).unwrap(), Some(s));
        assert_eq!(db.referencing_facts(fk, s), vec![r]);
        assert_eq!(db.reference_count(s), 1);
    }

    #[test]
    fn rejects_arity_type_and_nan() {
        let (mut db, _) = db_with_one_s();
        let rel_r = db.schema().relation_id("R").unwrap();
        assert!(matches!(
            db.insert(rel_r, vec!["r1".into()]),
            Err(DbError::Arity { .. })
        ));
        assert!(matches!(
            db.insert(rel_r, vec!["r1".into(), "s1".into(), "oops".into()]),
            Err(DbError::TypeMismatch { .. })
        ));
        let rel_s = db.schema().relation_id("S").unwrap();
        let mut b = SchemaBuilder::new();
        b.relation("F").attr("x", ValueType::Float).key(&["x"]);
        let mut fdb = Database::new(b.build().unwrap());
        let frel = fdb.schema().relation_id("F").unwrap();
        assert!(matches!(
            fdb.insert(frel, vec![Value::Float(f64::NAN)]),
            Err(DbError::NanValue { .. })
        ));
        let _ = rel_s;
    }

    #[test]
    fn rejects_null_key_and_duplicate_key() {
        let (mut db, _) = db_with_one_s();
        let rel_s = db.schema().relation_id("S").unwrap();
        assert!(matches!(
            db.insert(rel_s, vec![Value::Null, "X".into()]),
            Err(DbError::NullInKey { .. })
        ));
        assert!(matches!(
            db.insert(rel_s, vec!["s1".into(), "Other".into()]),
            Err(DbError::DuplicateKey { .. })
        ));
        assert_eq!(db.total_facts(), 1);
    }

    #[test]
    fn rejects_dangling_fk_but_allows_null_fk() {
        let (mut db, _) = db_with_one_s();
        let rel_r = db.schema().relation_id("R").unwrap();
        assert!(matches!(
            db.insert(rel_r, vec!["r1".into(), "zzz".into(), Value::Int(1)]),
            Err(DbError::FkViolation { .. })
        ));
        // Null FK attribute: the FK is ignored.
        let r = db
            .insert(rel_r, vec!["r2".into(), Value::Null, Value::Int(1)])
            .unwrap();
        let fk = db.schema().fks_from(rel_r)[0];
        assert_eq!(db.resolve_fk(fk, r).unwrap(), None);
    }

    #[test]
    fn deferred_fk_checks() {
        let mut db = Database::new(schema());
        db.set_defer_fk_checks(true);
        let rel_r = db.schema().relation_id("R").unwrap();
        // Insert the referencing fact first.
        db.insert(rel_r, vec!["r1".into(), "s1".into(), Value::Int(1)])
            .unwrap();
        assert!(db.check_all_fks().is_err());
        db.insert_into("S", vec!["s1".into(), "Acme".into()])
            .unwrap();
        assert!(db.check_all_fks().is_ok());
    }

    #[test]
    fn delete_protects_references_then_succeeds() {
        let (mut db, s) = db_with_one_s();
        let rel_r = db.schema().relation_id("R").unwrap();
        let r = db
            .insert(rel_r, vec!["r1".into(), "s1".into(), Value::Int(5)])
            .unwrap();
        assert!(matches!(db.delete(s), Err(DbError::WouldDangle { .. })));
        db.delete(r).unwrap();
        db.delete(s).unwrap();
        assert_eq!(db.total_facts(), 0);
        assert!(db.fact(r).is_none());
        assert!(matches!(db.delete(r), Err(DbError::UnknownFact)));
    }

    #[test]
    fn value_index_tracks_mutations() {
        let (mut db, _) = db_with_one_s();
        let rel_r = db.schema().relation_id("R").unwrap();
        let r1 = db
            .insert(rel_r, vec!["r1".into(), "s1".into(), Value::Int(5)])
            .unwrap();
        let _r2 = db
            .insert(rel_r, vec!["r2".into(), "s1".into(), Value::Int(5)])
            .unwrap();
        assert_eq!(db.facts_with_value(rel_r, 2, &Value::Int(5)).len(), 2);
        db.delete(r1).unwrap();
        assert_eq!(db.facts_with_value(rel_r, 2, &Value::Int(5)).len(), 1);
        assert_eq!(db.facts_with_value(rel_r, 2, &Value::Int(99)).len(), 0);
        assert_eq!(db.active_domain(rel_r, 2), vec![&Value::Int(5)]);
    }

    #[test]
    fn restore_revives_tombstone_with_same_id() {
        let (mut db, s) = db_with_one_s();
        let fact = db.delete(s).unwrap();
        assert!(db.fact(s).is_none());
        db.restore(s, fact.clone()).unwrap();
        assert_eq!(db.fact(s), Some(fact.as_ref()));
        // Restoring a live slot fails.
        assert!(db.restore(s, fact).is_err());
    }

    #[test]
    fn epoch_counts_mutations_and_clones_start_a_new_lineage() {
        let (mut db, s) = db_with_one_s();
        let e0 = db.epoch();
        let clone = db.clone();
        assert_ne!(db.db_id(), clone.db_id(), "clone must get a fresh db_id");
        assert_eq!(clone.epoch(), 0, "clone restarts its epoch counter");
        let fact = db.delete(s).unwrap();
        assert_eq!(db.epoch(), e0 + 1);
        db.restore(s, fact).unwrap();
        assert_eq!(db.epoch(), e0 + 2);
        // Failed mutations must not bump the epoch.
        assert!(db
            .insert_into("S", vec!["s1".into(), "dup".into()])
            .is_err());
        assert_eq!(db.epoch(), e0 + 2);
        // The clone mutates independently.
        assert_eq!(clone.epoch(), 0);
    }

    #[test]
    fn journal_records_every_mutation_kind_in_order() {
        let (mut db, s) = db_with_one_s();
        let e0 = db.epoch();
        let fact = db.delete(s).unwrap();
        db.restore(s, fact).unwrap();
        let r = db
            .insert_into("R", vec!["r1".into(), "s1".into(), Value::Int(1)])
            .unwrap();
        let records: Vec<MutationRecord> = db.journal_since(e0).unwrap().cloned().collect();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, MutationKind::Delete);
        assert_eq!(records[0].fact, s);
        assert_eq!(records[0].rel, s.rel);
        assert_eq!(records[0].epoch, e0 + 1);
        // Delete records carry the removed fact's values; the slot itself
        // is a tombstone by now.
        assert_eq!(records[0].payload.get(0), &Value::Text("s1".into()));
        // Insert and restore records carry the live fact.
        assert_eq!(records[1].kind, MutationKind::Restore);
        assert_eq!(records[1].fact, s);
        assert_eq!(Some(records[1].payload.as_ref()), db.fact(s));
        assert_eq!(records[2].kind, MutationKind::Insert);
        assert_eq!(records[2].fact, r);
        assert_eq!(Some(records[2].payload.as_ref()), db.fact(r));
        assert_eq!(records[2].epoch, db.epoch());
        // A consumer already at the head misses nothing.
        assert_eq!(db.journal_since(db.epoch()).unwrap().count(), 0);
        // Partial replays start mid-stream.
        assert_eq!(db.journal_since(e0 + 2).unwrap().count(), 1);
        // Failed mutations leave no record.
        assert!(db
            .insert_into("S", vec!["s1".into(), "dup".into()])
            .is_err());
        assert_eq!(db.journal_since(e0).unwrap().count(), 3);
    }

    #[test]
    fn journal_wraps_at_capacity_and_reports_it() {
        let (mut db, s) = db_with_one_s();
        db.set_journal_capacity(4);
        assert_eq!(db.journal_capacity(), 4);
        let e0 = db.epoch();
        let fact = db.delete(s).unwrap();
        db.restore(s, fact.clone()).unwrap();
        // Both records since e0 still in the ring: replayable.
        assert!(db.journal_since(e0).is_some());
        db.delete(s).unwrap();
        db.restore(s, fact.clone()).unwrap();
        db.delete(s).unwrap();
        // Five mutations since e0 exceed the ring: wrapped.
        assert!(db.journal_since(e0).is_none());
        // The most recent four are still there.
        assert_eq!(db.journal_since(e0 + 1).unwrap().count(), 4);
        // A future epoch (wrong lineage bookkeeping) is also a miss.
        assert!(db.journal_since(db.epoch() + 1).is_none());
        // Capacity 0 disables journalling entirely.
        db.set_journal_capacity(0);
        db.restore(s, fact).unwrap();
        assert!(db.journal_since(db.epoch() - 1).is_none());
        assert_eq!(db.journal_since(db.epoch()).unwrap().count(), 0);
    }

    #[test]
    fn journal_since_replays_an_exactly_capacity_lag() {
        // Regression for the wrap boundary: `missed == records.len()` is
        // the *largest replayable* lag, not a wrap. With capacity 4 and a
        // consumer exactly 4 mutations behind, the full ring must come
        // back; one further mutation tips it into `None`.
        let (mut db, s) = db_with_one_s();
        db.set_journal_capacity(4);
        let e0 = db.epoch();
        let fact = db.delete(s).unwrap();
        db.restore(s, fact.clone()).unwrap();
        db.delete(s).unwrap();
        db.restore(s, fact.clone()).unwrap();
        // Four mutations since e0, ring holds exactly four: replayable.
        let replayed: Vec<u64> = db
            .journal_since(e0)
            .expect("missed == len must replay, not fall back")
            .map(|r| r.epoch)
            .collect();
        assert_eq!(replayed, vec![e0 + 1, e0 + 2, e0 + 3, e0 + 4]);
        db.delete(s).unwrap();
        // Five missed, oldest discarded: wrapped.
        assert!(db.journal_since(e0).is_none());
        assert_eq!(db.journal_since(e0 + 1).unwrap().count(), 4);
    }

    #[test]
    fn pinned_journal_keeps_every_record_past_capacity() {
        let (mut db, s) = db_with_one_s();
        db.set_journal_capacity(0);
        let e0 = db.epoch();
        db.pin_journal(e0);
        let fact = db.delete(s).unwrap();
        db.restore(s, fact.clone()).unwrap();
        db.delete(s).unwrap();
        // Three records past a capacity of 0, all held by the pin, with
        // their payloads.
        let kept: Vec<(u64, Fact)> = db
            .journal_since(e0)
            .expect("pinned records are never discarded")
            .map(|r| (r.epoch, Fact::clone(&r.payload)))
            .collect();
        let f = Fact::clone(&fact);
        assert_eq!(
            kept,
            vec![(e0 + 1, f.clone()), (e0 + 2, f.clone()), (e0 + 3, f)]
        );
        // Moving the pin releases the older records to the capacity bound.
        db.pin_journal(e0 + 2);
        assert!(db.journal_since(e0).is_none());
        assert_eq!(db.journal_since(e0 + 2).unwrap().count(), 1);
        // Raising the capacity keeps released records again.
        db.set_journal_capacity(8);
        db.restore(s, fact).unwrap();
        db.pin_journal(db.epoch());
        assert_eq!(db.journal_since(e0 + 2).unwrap().count(), 2);
    }

    #[test]
    fn clones_start_unpinned() {
        let (mut db, s) = db_with_one_s();
        db.set_journal_capacity(0);
        db.pin_journal(db.epoch());
        let mut clone = db.clone();
        clone.delete(s).unwrap();
        // The clone's capacity of 0 applies: nothing was kept.
        assert!(clone.journal_since(0).is_none());
        db.delete(s).unwrap();
        assert_eq!(db.journal_since(db.epoch() - 1).unwrap().count(), 1);
    }

    #[test]
    fn snapshot_parts_round_trip_preserves_slots_and_replays() {
        let (mut db, s) = db_with_one_s();
        let rel_s = s.rel;
        let s2 = db
            .insert_into("S", vec!["s2".into(), "Globex".into()])
            .unwrap();
        let r = db
            .insert_into("R", vec!["r1".into(), "s2".into(), Value::Int(1)])
            .unwrap();
        // Tombstone in the middle of S: s is deleted, s2 stays.
        let removed = db.delete(s).unwrap();
        // Capture slot-exact snapshot parts.
        let slots: Vec<Vec<Option<Fact>>> = db
            .schema()
            .relation_ids()
            .map(|rel| {
                (0..db.slot_count(rel))
                    .map(|row| db.fact(FactId::new(rel, row as u32)).cloned())
                    .collect()
            })
            .collect();
        let restored =
            Database::from_snapshot_parts(db.schema().clone(), slots, db.epoch()).unwrap();
        assert_eq!(restored.epoch(), db.epoch());
        assert_eq!(restored.total_facts(), db.total_facts());
        assert_eq!(restored.slot_count(rel_s), db.slot_count(rel_s));
        assert!(restored.fact(s).is_none(), "tombstone preserved");
        assert_eq!(restored.fact(s2), db.fact(s2));
        // Replay the original's continued history onto the restored copy:
        // the tombstoned slot revives under its old id and a fresh insert
        // lands in the same slot on both sides.
        let mut db2 = restored;
        db.restore(s, removed.clone()).unwrap();
        db2.apply_mutation(MutationKind::Restore, s, &removed)
            .unwrap();
        let next = db
            .insert_into("S", vec!["s3".into(), "Initech".into()])
            .unwrap();
        db2.apply_mutation(
            MutationKind::Insert,
            next,
            &Fact::new(vec!["s3".into(), "Initech".into()]),
        )
        .unwrap();
        db.delete(r).unwrap();
        db2.apply_mutation(MutationKind::Delete, r, &Fact::new(Vec::new()))
            .unwrap();
        assert_eq!(db2.epoch(), db.epoch());
        for rel in db.schema().relation_ids() {
            assert_eq!(db2.slot_count(rel), db.slot_count(rel));
            for row in 0..db.slot_count(rel) {
                let id = FactId::new(rel, row as u32);
                assert_eq!(db2.fact(id), db.fact(id));
            }
        }
    }

    #[test]
    fn replayed_insert_must_match_the_logged_slot() {
        let (mut db, _) = db_with_one_s();
        // The log claims the insert landed in slot 5; an empty restored
        // database would assign slot 1 — divergence must be typed.
        let rel_s = db.schema().relation_id("S").unwrap();
        let err = db
            .apply_mutation(
                MutationKind::Insert,
                FactId::new(rel_s, 5),
                &Fact::new(vec!["s9".into(), "Hooli".into()]),
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Replay(_)));
    }

    #[test]
    fn clones_start_with_an_empty_journal() {
        let (mut db, s) = db_with_one_s();
        db.delete(s).unwrap();
        let clone = db.clone();
        assert_eq!(clone.epoch(), 0);
        assert_eq!(clone.journal_since(0).unwrap().count(), 0);
        assert_eq!(clone.journal_capacity(), db.journal_capacity());
    }

    #[test]
    fn fact_ids_are_not_reused_after_delete() {
        let (mut db, s) = db_with_one_s();
        db.delete(s).unwrap();
        let s2 = db
            .insert_into("S", vec!["s1".into(), "Acme".into()])
            .unwrap();
        assert_ne!(s, s2, "slots must not be silently reused by insert");
    }
}
