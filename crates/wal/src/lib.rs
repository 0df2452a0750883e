//! # stembed-wal — durability for the embedding workspace
//!
//! Turns `reldb`'s mutation journal into real durability: an
//! **append-only write-ahead log** of [`reldb::MutationRecord`]s, **atomic snapshots** of database plus
//! embedding state, and **deterministic crash recovery** that replays the
//! WAL tail onto the newest valid snapshot. The workspace's determinism
//! contract (bit-identical results at any shard count, retained≡fresh,
//! cached≡uncached — see `PRECISION.md`) is what upgrades recovery from
//! "plausible" to **byte-checkable**: a recovered process must equal an
//! uninterrupted reference run bit for bit, and the fault-injection suite
//! asserts exactly that at every possible crash point.
//!
//! The crate layers bottom-up (the `storage/` vs `storage_engine/` split
//! of classic database engines):
//!
//! * [`crc`] — CRC-32/IEEE, the frame and section checksum;
//! * [`codec`] — bit-exact little-endian encoding of `reldb` values,
//!   facts, and mutation records (floats as `to_bits`), with total,
//!   bounds-checked decoding;
//! * [`vfs`] — the injectable I/O layer: [`Vfs`]/[`WalFile`] traits, the
//!   real [`StdVfs`], and the in-memory [`SimVfs`] whose [`FailPoint`]s
//!   model short writes, crashes before/after fsync, crashes
//!   mid-snapshot-rename, and post-crash corruption;
//! * [`frame`] — length-prefixed, CRC-checksummed, LSN/epoch-stamped
//!   frames and the torn-tail scan;
//! * [`wal`] — the segmented log: [`WalWriter`] with fsync batching,
//!   segment rotation at snapshots, and the multi-segment tail reader;
//! * [`snapshot`] — the snapshot container (schema + slot-exact facts +
//!   opaque embedding blobs) and its write-tmp → fsync → rename → fsync-dir
//!   atomicity protocol.
//!
//! What this crate deliberately does **not** know about: embedding
//! internals, and when mutations happen. Snapshots carry embedding state
//! as tagged opaque byte blobs; `stembed-core::snapshot` owns their
//! encoding. `repro::durable` owns the end-to-end pipeline: it drains the
//! pinned database journal into a [`WalWriter`] after each batch of
//! mutations, and owns `recover()`.

pub mod codec;
pub mod crc;
pub mod frame;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use frame::{Frame, FramePayload};
pub use snapshot::{latest_snapshot, write_snapshot, Snapshot};
pub use vfs::{FailPoint, SimVfs, StdVfs, Vfs, WalFile};
pub use wal::{read_wal_tail, segment_name, WalWriter, WalWriterStats as WalStats};

use std::fmt;

/// Everything that can go wrong in the durability layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// Underlying I/O failure (message carries the OS error text).
    Io(String),
    /// Checksum mismatch, bad magic, truncation mid-structure, or any
    /// other decode failure. Recovery treats a corrupt *tail* frame as the
    /// end of the log; a corrupt snapshot falls back to the previous one.
    Corrupt(String),
    /// A fault-injected crash: the simulated process died at this I/O
    /// operation. All subsequent operations on the same [`SimVfs`] fail
    /// with this too, until [`SimVfs::crash`] starts the "next process".
    Crashed,
    /// Replaying the log diverged from the database's own validation.
    Db(reldb::DbError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal i/o error: {msg}"),
            WalError::Corrupt(msg) => write!(f, "wal corruption: {msg}"),
            WalError::Crashed => write!(f, "simulated crash (fault injection)"),
            WalError::Db(e) => write!(f, "wal replay: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<reldb::DbError> for WalError {
    fn from(e: reldb::DbError) -> Self {
        WalError::Db(e)
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WalError>;
