//! # reldb — relational database substrate
//!
//! A small in-memory relational database engine purpose-built for the
//! stable-tuple-embedding workspace. It implements exactly the data model of
//! the paper's §II ("Preliminaries"):
//!
//! * a **schema** is a collection of relation schemas `R(A₁,…,A_k)`, each
//!   with a unique **key** `key(R) ⊆ {A₁,…,A_k}`,
//! * **foreign-key constraints** `R[B₁,…,B_ℓ] ⊆ S[C₁,…,C_ℓ]` where
//!   `{C₁,…,C_ℓ} = key(S)`,
//! * a **database** is a finite set of **facts** `R(a₁,…,a_k)` whose values
//!   may be the distinguished null `⊥`; key attributes must be non-null and
//!   unique, and every fact with non-null FK attributes must reference an
//!   existing fact (an FK with a null referencing attribute is ignored, as
//!   in the paper).
//!
//! On top of that data model the engine maintains the secondary indexes the
//! embedding algorithms need (value index `(R, A, a) → facts` for random
//! walks, and reverse-reference indexes for backward FK steps), and
//! implements the **on-delete-cascade** deletion with a replayable journal
//! that the paper's dynamic experiment protocol (§VI-E) requires.
//!
//! ## Change tracking for derived caches
//!
//! Two complementary mechanisms let consumers keep derived state (walk
//! distribution caches, graph views) consistent with a mutating database:
//!
//! * the **epoch counter** ([`Database::epoch`]) plus the process-unique
//!   **lineage id** ([`Database::db_id`]) name an immutable content
//!   snapshot — equal pairs guarantee unchanged content;
//! * the **mutation journal** ([`Database::journal_since`]) records *what*
//!   changed between two epochs of one lineage, as a bounded window of
//!   [`MutationRecord`]s (`Insert`/`Delete`/`Restore`, per fact, each with
//!   the complete fact). A cache that fell behind replays the records it
//!   missed and evicts only the entries those mutations can reach; when
//!   the window has wrapped, the journal says so and the cache falls back
//!   to a full rebuild.
//!
//! `stembed-core`'s `DistCache` is the canonical cache consumer: it scopes
//! each record by FK-reachability of the walk schemes it caches, which is
//! what keeps it warm across the one-by-one insertion protocol. The
//! journal is also the only mutation log: `repro`'s durable pipeline
//! [pins](Database::pin_journal) it and drains every record into its
//! write-ahead log, and a [`DeletionJournal`] holds the same records.

pub mod cascade;
pub mod database;
pub mod error;
pub mod fact;
pub mod movies;
pub mod schema;
pub mod text;
pub mod value;

pub use cascade::{cascade_delete, restore_journal, DeletionJournal};
pub use database::{Database, MutationKind, MutationRecord};
pub use error::DbError;
pub use fact::{Fact, FactId};
pub use schema::{Attribute, FkId, ForeignKey, RelationId, RelationSchema, Schema, SchemaBuilder};
pub use value::{Value, ValueType};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DbError>;
