//! On-delete-cascade deletion with a replayable journal.
//!
//! The paper's dynamic experiment (§VI-E) partitions a database by deleting
//! prediction tuples "with an *On Delete Cascade* deletion, which will
//! automatically fix the foreign-key constraints throughout the database. In
//! particular, data that is only referenced by the tuple that is being
//! deleted is also removed from the database." Re-insertion then happens
//! "one-by-one in the inverse order of their deletion", each prediction
//! tuple together with the facts its deletion cascaded to.
//!
//! Two cascade directions are therefore involved:
//!
//! 1. **Downstream** (classic `ON DELETE CASCADE`): every fact *referencing*
//!    the deleted fact must go too, recursively — otherwise the database
//!    would violate its FK constraints.
//! 2. **Orphan collection**: every fact the deleted fact *referenced* that
//!    is left with zero referencers is garbage-collected, recursively
//!    (Example 6.1 of the paper: deleting a collaboration removes the actor
//!    that only it referenced).
//!
//! [`cascade_delete`] performs both and keeps the database journal's
//! delete record of every removal (in removal order) in a
//! [`DeletionJournal`]. Replaying a journal in reverse restores the exact
//! prior state — parents re-appear before the facts referencing them, so
//! every intermediate state satisfies the constraints.

use crate::{Database, FactId, MutationRecord, Result};
use std::collections::HashSet;

/// All facts removed by one cascading deletion, in removal order: referencing
/// facts first, then the root, then collected orphans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeletionJournal {
    /// The delete records, in removal order. Each record's `fact` is the
    /// slot the fact had (and will have again after restoration); its
    /// `payload` is the removed fact, shared with the database's journal.
    pub entries: Vec<MutationRecord>,
}

impl DeletionJournal {
    /// Number of removed facts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing was removed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ids of all removed facts, in removal order.
    pub fn ids(&self) -> impl Iterator<Item = FactId> + '_ {
        self.entries.iter().map(|e| e.fact)
    }

    /// Merge another journal into this one (batch experiments accumulate
    /// per-tuple journals).
    pub fn extend(&mut self, other: DeletionJournal) {
        self.entries.extend(other.entries);
    }
}

/// Delete `root` with full cascade semantics and journal the removals.
///
/// * `collect_orphans = true` additionally garbage-collects facts that the
///   removed facts referenced and that end up unreferenced (the paper's
///   experiment behaviour).
/// * Every removed fact keeps its slot as a tombstone, so
///   [`restore_journal`] can revive identical [`FactId`]s.
pub fn cascade_delete(
    db: &mut Database,
    root: FactId,
    collect_orphans: bool,
) -> Result<DeletionJournal> {
    db.fact_required(root)?; // fail fast on dead ids
    let mut journal = DeletionJournal::default();
    let mut removed: HashSet<FactId> = HashSet::new();

    delete_with_children(db, root, &mut journal, &mut removed)?;

    if collect_orphans {
        // Repeatedly sweep: a parent may become orphaned only when one of
        // the facts removed so far referenced it. Process as a worklist.
        let mut frontier: Vec<FactId> = journal.ids().collect();
        while let Some(id) = frontier.pop() {
            // Parents this fact referenced. The fact is already deleted, so
            // read its values from the journal.
            let fact = journal
                .entries
                .iter()
                .find(|e| e.fact == id)
                // PANICS: never — the frontier was seeded from this journal.
                .expect("frontier ids come from the journal")
                .payload
                .clone();
            let fk_ids: Vec<_> = db.schema().fks_from(id.rel).to_vec();
            for fk_id in fk_ids {
                let fk = db.schema().foreign_key(fk_id).clone();
                if fact.any_null(&fk.from_attrs) {
                    continue;
                }
                let key = fact.project(&fk.from_attrs);
                let Some(parent) = db.lookup_key(fk.to_rel, &key) else {
                    continue; // parent already removed
                };
                if removed.contains(&parent) {
                    continue;
                }
                if db.reference_count(parent) == 0 {
                    // Orphaned by this cascade: remove (it has no children
                    // left by definition of reference_count == 0).
                    journal.entries.push(db.delete_unchecked(parent)?);
                    removed.insert(parent);
                    frontier.push(parent);
                }
            }
        }
    }
    Ok(journal)
}

/// Post-order deletion: all facts referencing `id` first, then `id` itself.
fn delete_with_children(
    db: &mut Database,
    id: FactId,
    journal: &mut DeletionJournal,
    removed: &mut HashSet<FactId>,
) -> Result<()> {
    if removed.contains(&id) {
        return Ok(());
    }
    // Mark before recursing so reference cycles terminate.
    removed.insert(id);
    let fk_ids: Vec<_> = db.schema().fks_to(id.rel).to_vec();
    for fk_id in fk_ids {
        loop {
            // Re-query each round: recursive deletions mutate the index.
            let children = db.referencing_facts(fk_id, id);
            let Some(&child) = children.iter().find(|c| !removed.contains(c)) else {
                break;
            };
            delete_with_children(db, child, journal, removed)?;
        }
    }
    journal.entries.push(db.delete_unchecked(id)?);
    Ok(())
}

/// Replay a journal in reverse, restoring every fact into its original slot.
/// Returns the restored ids in restoration order.
pub fn restore_journal(db: &mut Database, journal: &DeletionJournal) -> Result<Vec<FactId>> {
    let mut restored = Vec::with_capacity(journal.len());
    for entry in journal.entries.iter().rev() {
        db.restore(entry.fact, entry.payload.clone())?;
        restored.push(entry.fact);
    }
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movies::{movies_database, movies_database_labeled};

    #[test]
    fn example_6_1_semantics() {
        // Paper Example 6.1 (with the paper's evident typo fixed: the movie
        // referenced by c1 is m3/Godzilla, not m4): deleting c1 removes a2
        // (Watanabe, only referenced by c1) and m3 (only referenced by c1),
        // but keeps a1 (DiCaprio, still referenced by c4).
        let (mut db, ids) = movies_database_labeled();
        let journal = cascade_delete(&mut db, ids["c1"], true).unwrap();
        let removed: Vec<FactId> = journal.ids().collect();
        assert!(removed.contains(&ids["c1"]));
        assert!(removed.contains(&ids["a2"]), "Watanabe must be collected");
        assert!(removed.contains(&ids["m3"]), "Godzilla must be collected");
        assert!(db.fact(ids["a1"]).is_some(), "DiCaprio must survive");
        assert!(
            db.fact(ids["m6"]).is_some(),
            "Wolf of Wall St. must survive"
        );
        // c1 removed first (root has no children), orphans after.
        assert_eq!(journal.entries[0].fact, ids["c1"]);
    }

    #[test]
    fn downstream_cascade_removes_referencing_facts() {
        // Deleting actor a4 must remove collaborations c2, c3, c4.
        let (mut db, ids) = movies_database_labeled();
        let journal = cascade_delete(&mut db, ids["a4"], false).unwrap();
        let removed: Vec<FactId> = journal.ids().collect();
        for label in ["c2", "c3", "c4", "a4"] {
            assert!(removed.contains(&ids[label]), "{label} must be removed");
        }
        // Without orphan collection nothing else goes.
        assert!(db.fact(ids["a5"]).is_some());
        assert!(db.fact(ids["m4"]).is_some());
        db.check_all_fks().unwrap();
    }

    #[test]
    fn orphan_collection_recurses_through_chains() {
        // Deleting a4 with orphan collection: the collaborations c2, c3, c4
        // cascade away; the actors/movies only they referenced (a5, a3, m4,
        // m5, m6) are collected; m5's studio s2 (Universal) was referenced
        // only by m5 and is collected transitively. a1 (DiCaprio) survives
        // because c1 still references it; s3 survives via m1.
        let (mut db, ids) = movies_database_labeled();
        let journal = cascade_delete(&mut db, ids["a4"], true).unwrap();
        let removed: Vec<FactId> = journal.ids().collect();
        for label in ["a4", "c2", "c3", "c4", "a5", "a3", "m4", "m5", "m6", "s2"] {
            assert!(
                removed.contains(&ids[label]),
                "{label} should be collected, removed = {removed:?}"
            );
        }
        assert!(
            db.fact(ids["a1"]).is_some(),
            "DiCaprio still referenced by c1"
        );
        assert!(db.fact(ids["s3"]).is_some(), "s3 still referenced by m1");
        assert!(db.fact(ids["s1"]).is_some(), "s1 still referenced by m2/m3");
        assert!(db.fact(ids["m1"]).is_some());
        db.check_all_fks().unwrap();
    }

    #[test]
    fn journal_restores_exact_state() {
        let (mut db, ids) = movies_database_labeled();
        let before = db.clone();
        let journal = cascade_delete(&mut db, ids["a4"], true).unwrap();
        assert!(db.total_facts() < before.total_facts());
        let restored = restore_journal(&mut db, &journal).unwrap();
        assert_eq!(restored.len(), journal.len());
        assert_eq!(db.total_facts(), before.total_facts());
        // Every original fact is back under its original id.
        for (label, id) in &ids {
            assert_eq!(
                db.fact(*id),
                before.fact(*id),
                "fact {label} differs after restore"
            );
        }
        db.check_all_fks().unwrap();
    }

    #[test]
    fn intermediate_states_respect_fks() {
        // Restore step by step; after each single restoration the database
        // must satisfy all FK constraints (this is what makes one-by-one
        // re-insertion well-defined).
        let (mut db, ids) = movies_database_labeled();
        let journal = cascade_delete(&mut db, ids["a4"], true).unwrap();
        for entry in journal.entries.iter().rev() {
            db.restore(entry.fact, entry.payload.clone()).unwrap();
            db.check_all_fks().unwrap();
        }
    }

    #[test]
    fn deleting_dead_fact_fails() {
        let mut db = movies_database();
        let rel = db.schema().relation_id("ACTORS").unwrap();
        let bogus = FactId::new(rel, 999);
        assert!(cascade_delete(&mut db, bogus, true).is_err());
    }
}
