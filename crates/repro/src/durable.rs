//! The durable embedding pipeline: a [`reldb::Database`] plus both
//! embedders (FoRWaRD and dynamic Node2Vec) on top of `stembed-wal`'s
//! write-ahead log and snapshots, with deterministic crash recovery.
//!
//! ## What is logged
//!
//! * Every journalled database mutation — inserts, deletes, restores,
//!   **including every member of a cascade group** — is appended to the
//!   WAL by [`DurablePipeline::mutate`] when its closure returns: one
//!   `Mutation` frame per record of the database's own journal since the
//!   last logged epoch, in epoch order. The pipeline
//!   [pins](reldb::Database::pin_journal) the journal at that epoch, so
//!   no record is discarded before it is logged, however many mutations
//!   one closure makes.
//! * Every completed embedding extension is appended by the pipeline as
//!   one `Extend{seed, facts}` frame. The frame does **not** carry the
//!   computed vectors: the workspace's determinism contract
//!   (`PRECISION.md` — bit-identical at any shard count, cached ≡
//!   uncached, retained ≡ fresh) means re-running
//!   `extend(db, facts, seed)` during replay reproduces them bit for
//!   bit, so the log stays proportional to the mutation stream, not to
//!   the embedding dimension.
//!
//! ## Recovery
//!
//! [`DurablePipeline::recover`] loads the newest valid snapshot (schema,
//! slot-exact facts, both embedding blobs — see `stembed_core::snapshot`),
//! replays the WAL tail in LSN order (mutations via
//! [`reldb::Database::apply_mutation`] with epoch verification, extends by
//! re-running both embedders), and reopens the log at the recovered LSN.
//! A recovered pipeline is **byte-identical** to the uninterrupted run at
//! the same LSN — `tests/crash_recovery.rs` kills the pipeline at every
//! single simulated I/O operation and asserts exactly that via
//! [`DurablePipeline::state_bytes`].
//!
//! ## Crash semantics inside a process
//!
//! The first WAL I/O error latches inside the pipeline: nothing more is
//! appended (the log must not skip an LSN and keep going), and that call
//! and every later one fails with the latched error. Callers must treat
//! it as a process death — drop the pipeline and `recover`.

use reldb::{Database, DbError, FactId};
use std::sync::Arc;
use stembed_core::embedder::{ForwardEmbedder, Node2VecEmbedder};
use stembed_core::snapshot::{
    decode_forward, decode_node2vec, encode_forward, encode_node2vec, FORWARD_BLOB, NODE2VEC_BLOB,
};
use stembed_core::TupleEmbedder;
use stembed_wal::frame::FramePayload;
use stembed_wal::{
    latest_snapshot, read_wal_tail, write_snapshot, Snapshot, Vfs, WalError, WalStats, WalWriter,
};

/// Default fsync batching: frames per fsync. One fsync per cascade-sized
/// mutation group keeps the one-by-one protocol's WAL overhead in the
/// single-digit percent range (see `examples/profile_extend.rs`); crash
/// durability is still bounded — at most one batch of frames can be lost,
/// never torn mid-frame.
pub const DEFAULT_SYNC_EVERY: usize = 64;

/// A database + FoRWaRD + Node2Vec pipeline with a WAL underneath.
#[derive(Debug)]
pub struct DurablePipeline {
    vfs: Arc<dyn Vfs>,
    dir: String,
    sync_every: usize,
    wal: WalWriter,
    /// First WAL error. Latched: once set, nothing more is written.
    poisoned: Option<WalError>,
    /// Epoch of the newest mutation in the log; the journal is pinned here.
    logged_epoch: u64,
    db: Database,
    fwd: ForwardEmbedder,
    n2v: Node2VecEmbedder,
}

impl DurablePipeline {
    /// Put a freshly trained pipeline under WAL protection: open the log
    /// in `dir` (which must be empty of segments), pin the database's
    /// journal, and commit the initial snapshot so recovery has a floor.
    pub fn create(
        vfs: Arc<dyn Vfs>,
        dir: &str,
        db: Database,
        fwd: ForwardEmbedder,
        n2v: Node2VecEmbedder,
        sync_every: usize,
    ) -> Result<Self, WalError> {
        let wal = WalWriter::open(vfs.clone(), dir, sync_every, 0)?;
        let mut this = Self::assemble(vfs, dir, sync_every, wal, db, fwd, n2v);
        this.snapshot()?;
        Ok(this)
    }

    /// A pipeline whose log holds every mutation up to `db`'s epoch.
    fn assemble(
        vfs: Arc<dyn Vfs>,
        dir: &str,
        sync_every: usize,
        wal: WalWriter,
        mut db: Database,
        fwd: ForwardEmbedder,
        n2v: Node2VecEmbedder,
    ) -> Self {
        let logged_epoch = db.epoch();
        db.pin_journal(logged_epoch);
        DurablePipeline {
            vfs,
            dir: dir.to_string(),
            sync_every,
            wal,
            poisoned: None,
            logged_epoch,
            db,
            fwd,
            n2v,
        }
    }

    /// The live database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The FoRWaRD embedder.
    pub fn forward(&self) -> &ForwardEmbedder {
        &self.fwd
    }

    /// The Node2Vec embedder.
    pub fn node2vec(&self) -> &Node2VecEmbedder {
        &self.n2v
    }

    /// Write-side WAL counters (frames, bytes, fsyncs).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// LSN of the last appended frame.
    pub fn last_lsn(&self) -> Result<u64, WalError> {
        match &self.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(self.wal.last_lsn()),
        }
    }

    /// Run `f` on the log unless an earlier error latched; latch the error
    /// `f` returns, if any.
    fn with_wal<T>(
        &mut self,
        f: impl FnOnce(&mut WalWriter, &Database) -> Result<T, WalError>,
    ) -> Result<T, WalError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let out = f(&mut self.wal, &self.db);
        if let Err(e) = &out {
            self.poisoned = Some(e.clone());
        }
        out
    }

    /// Run a database mutation under the WAL, then append one frame per
    /// journal record it produced — also when `f` fails, since a failing
    /// closure may have mutated before it failed. `f`'s own error comes
    /// first; a WAL error surfaces here or, behind `f`'s error, at the
    /// next call — after which the pipeline must be treated as dead
    /// (recover from `dir`).
    pub fn mutate<T>(
        &mut self,
        f: impl FnOnce(&mut Database) -> Result<T, DbError>,
    ) -> Result<T, WalError> {
        let out = f(&mut self.db);
        let logged = self.log_journal();
        let out = out?;
        logged?;
        Ok(out)
    }

    /// Append every journal record after `logged_epoch` and move the pin
    /// past them.
    fn log_journal(&mut self) -> Result<(), WalError> {
        let since = self.logged_epoch;
        self.with_wal(|wal, db| {
            let records = db.journal_since(since).ok_or_else(|| {
                WalError::Corrupt(format!("journal lost mutations after epoch {since}"))
            })?;
            for r in records {
                wal.append(FramePayload::Mutation {
                    kind: r.kind,
                    id: r.fact,
                    epoch: r.epoch,
                    fact: r.payload.as_ref().clone(),
                })?;
            }
            Ok(())
        })?;
        self.logged_epoch = self.db.epoch();
        self.db.pin_journal(self.logged_epoch);
        Ok(())
    }

    /// Extend both embedders to `facts` (which must already be live) and
    /// log one `Extend` frame. The frame is appended *after* the
    /// extensions succeed: a crash mid-extension recovers to the
    /// pre-extension state and the in-memory progress is discarded with
    /// the process, exactly as if the extension never ran.
    pub fn extend(&mut self, facts: &[FactId], seed: u64) -> Result<(), WalError> {
        self.fwd
            .extend(&self.db, facts, seed)
            .map_err(|e| WalError::Corrupt(format!("forward extend: {e}")))?;
        self.n2v
            .extend(&self.db, facts, seed)
            .map_err(|e| WalError::Corrupt(format!("node2vec extend: {e}")))?;
        let facts = facts.to_vec();
        self.with_wal(|wal, _| wal.append(FramePayload::Extend { seed, facts }))?;
        Ok(())
    }

    /// Force every appended frame durable (an explicit fsync outside the
    /// batching cadence).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.with_wal(|wal, _| wal.sync())
    }

    /// Commit a snapshot of the complete pipeline state and rotate the
    /// WAL: sync the log, capture `(db, ϕ/ψ, SGNS)` at the current LSN,
    /// write it atomically (tmp → fsync → rename → dir fsync), then drop
    /// the now-superseded segments. Returns the snapshot LSN.
    pub fn snapshot(&mut self) -> Result<u64, WalError> {
        // The cursor is the last appended LSN, synced first: a snapshot
        // must never point past the durable tail.
        let cursor = self.with_wal(|wal, _| {
            wal.sync()?;
            Ok(wal.last_lsn())
        })?;
        let snap = Snapshot::capture(
            &self.db,
            cursor,
            vec![
                (FORWARD_BLOB.to_string(), encode_forward(&self.fwd)),
                (NODE2VEC_BLOB.to_string(), encode_node2vec(&self.n2v)),
            ],
        );
        write_snapshot(self.vfs.as_ref(), &self.dir, &snap)?;
        self.with_wal(|wal, _| wal.rotate(cursor))?;
        Ok(cursor)
    }

    /// Size in bytes of the newest committed snapshot, if one exists.
    pub fn latest_snapshot_bytes(&self) -> Result<Option<u64>, WalError> {
        Ok(latest_snapshot(self.vfs.as_ref(), &self.dir)?.map(|s| s.encode().len() as u64))
    }

    /// Rebuild the pipeline from `dir`: newest valid snapshot, then
    /// deterministic replay of the WAL tail. The recovered pipeline is
    /// byte-identical (per [`DurablePipeline::state_bytes`]) to the
    /// pre-crash pipeline at the last durable LSN, and recovering twice
    /// from the same directory yields identical bytes.
    pub fn recover(vfs: Arc<dyn Vfs>, dir: &str, sync_every: usize) -> Result<Self, WalError> {
        let snap = latest_snapshot(vfs.as_ref(), dir)?.ok_or_else(|| {
            WalError::Corrupt(format!("no valid snapshot in {dir}; cannot recover"))
        })?;
        let mut db = snap.restore_database()?;
        let fwd_blob = snap
            .blob(FORWARD_BLOB)
            .ok_or_else(|| WalError::Corrupt("snapshot lacks the forward blob".into()))?;
        let n2v_blob = snap
            .blob(NODE2VEC_BLOB)
            .ok_or_else(|| WalError::Corrupt("snapshot lacks the node2vec blob".into()))?;
        let mut fwd = decode_forward(&db, fwd_blob)?;
        let mut n2v = decode_node2vec(&db, n2v_blob)?;

        for frame in read_wal_tail(vfs.as_ref(), dir, snap.lsn)? {
            match frame.payload {
                FramePayload::Mutation {
                    kind,
                    id,
                    epoch,
                    fact,
                } => {
                    db.apply_mutation(kind, id, &fact)?;
                    if db.epoch() != epoch {
                        return Err(WalError::Corrupt(format!(
                            "replay of lsn {} reached epoch {}, log recorded {epoch}",
                            frame.lsn,
                            db.epoch()
                        )));
                    }
                }
                FramePayload::Extend { seed, facts } => {
                    fwd.extend(&db, &facts, seed)
                        .map_err(|e| WalError::Corrupt(format!("replay forward extend: {e}")))?;
                    n2v.extend(&db, &facts, seed)
                        .map_err(|e| WalError::Corrupt(format!("replay node2vec extend: {e}")))?;
                }
            }
        }

        // Reopen the log — `open` rescans the newest segment, truncates
        // any torn tail, and resumes the LSN sequence after the last
        // intact frame.
        let wal = WalWriter::open(vfs.clone(), dir, sync_every, 0)?;
        Ok(Self::assemble(vfs, dir, sync_every, wal, db, fwd, n2v))
    }

    /// Canonical byte serialization of the complete logical state —
    /// database (schema, slots, epoch) and both embedders — used by the
    /// fault-injection suite to compare a recovered pipeline against the
    /// uninterrupted reference with plain `==`. The WAL cursor is *not*
    /// part of the logical state and is pinned to 0 in the bytes.
    pub fn state_bytes(&self) -> Vec<u8> {
        Snapshot::capture(
            &self.db,
            0,
            vec![
                (FORWARD_BLOB.to_string(), encode_forward(&self.fwd)),
                (NODE2VEC_BLOB.to_string(), encode_node2vec(&self.n2v)),
            ],
        )
        .encode()
    }

    /// The configured fsync batching (frames per fsync).
    pub fn sync_every(&self) -> usize {
        self.sync_every
    }
}
