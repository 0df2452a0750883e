//! The segmented append-only log: writer with fsync batching, torn-tail
//! repair on open, segment rotation at snapshots, and the multi-segment
//! tail reader.
//!
//! A WAL directory holds segments `wal-<base>.log` where `<base>` is the
//! LSN of the first frame the segment may contain. The writer appends to
//! the highest-based segment; a snapshot at LSN `S` rotates to
//! `wal-<S+1>.log` and deletes the older segments — but only *after* the
//! snapshot is durably committed, so every LSN any surviving snapshot
//! might need is always on disk (see `DURABILITY.md` for the invariant).
//!
//! **Fsync batching**: `sync_every = n` fsyncs once per `n` appended
//! frames (plus on explicit [`WalWriter::sync`]). A crash can lose at
//! most the unsynced suffix — which recovery then truncates as a torn
//! tail; what it can never do is lose a *synced* frame or resurrect half
//! of one.

use crate::frame::{scan, Frame, FramePayload, SEGMENT_MAGIC};
use crate::vfs::{join, Vfs, WalFile};
use crate::{Result, WalError};
use std::sync::Arc;

/// Name of the segment whose first frame is `base_lsn`.
pub fn segment_name(base_lsn: u64) -> String {
    format!("wal-{base_lsn:016}.log")
}

/// Parse a segment file name back into its base LSN.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 16 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Sorted `(base_lsn, name)` of the segments in `dir`.
fn segments(vfs: &dyn Vfs, dir: &str) -> Result<Vec<(u64, String)>> {
    let mut out: Vec<(u64, String)> = vfs
        .list(dir)?
        .into_iter()
        .filter_map(|name| parse_segment_name(&name).map(|base| (base, name)))
        .collect();
    out.sort_unstable();
    Ok(out)
}

/// Write-side counters (the durability-overhead numbers `profile_extend`
/// reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalWriterStats {
    /// Frames appended.
    pub frames: u64,
    /// Encoded bytes appended (framing included).
    pub bytes: u64,
    /// File fsyncs issued by the writer.
    pub fsyncs: u64,
}

/// Appender over the current tail segment.
#[derive(Debug)]
pub struct WalWriter {
    vfs: Arc<dyn Vfs>,
    dir: String,
    file: Box<dyn WalFile>,
    /// LSN the next appended frame receives.
    next_lsn: u64,
    /// Frames per fsync (≥ 1).
    sync_every: usize,
    /// Frames appended since the last fsync.
    unsynced: usize,
    stats: WalWriterStats,
}

impl WalWriter {
    /// Open the log in `dir`, creating it if absent and truncating any
    /// torn tail of the newest segment. `resume_from` seeds the LSN
    /// sequence when the directory has no segments yet (a fresh log after
    /// recovery resumes at the recovered LSN + 1; pass 0 for a brand-new
    /// pipeline).
    pub fn open(vfs: Arc<dyn Vfs>, dir: &str, sync_every: usize, resume_from: u64) -> Result<Self> {
        vfs.create_dir_all(dir)?;
        let segs = segments(vfs.as_ref(), dir)?;
        let (base, name) = match segs.last() {
            Some((base, name)) => (*base, name.clone()),
            None => {
                // Fresh log: create the first segment and make both its
                // magic and its directory entry durable before any frame.
                let base = resume_from + 1;
                let name = segment_name(base);
                let path = join(dir, &name);
                let mut file = vfs.create(&path)?;
                file.append(SEGMENT_MAGIC)?;
                file.sync()?;
                vfs.sync_dir(dir)?;
                return Ok(WalWriter {
                    vfs,
                    dir: dir.to_string(),
                    file,
                    next_lsn: base,
                    sync_every: sync_every.max(1),
                    unsynced: 0,
                    stats: WalWriterStats::default(),
                });
            }
        };
        let path = join(dir, &name);
        let bytes = vfs.read(&path)?;
        let scanned = scan(&bytes);
        let next_lsn = scanned.frames.last().map_or(base, |f| f.lsn + 1);
        if scanned.valid_len == 0 {
            // Torn before the magic completed: rewrite the header.
            vfs.truncate(&path, 0)?;
            let mut file = vfs.open_append(&path)?;
            file.append(SEGMENT_MAGIC)?;
            file.sync()?;
        } else if (scanned.valid_len as usize) < bytes.len() {
            // Torn tail: drop the incomplete suffix.
            vfs.truncate(&path, scanned.valid_len)?;
        }
        let file = vfs.open_append(&path)?;
        Ok(WalWriter {
            vfs,
            dir: dir.to_string(),
            file,
            next_lsn,
            sync_every: sync_every.max(1),
            unsynced: 0,
            stats: WalWriterStats::default(),
        })
    }

    /// LSN the next frame will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN of the last appended frame (0 if none ever).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Write-side counters.
    pub fn stats(&self) -> WalWriterStats {
        self.stats
    }

    /// Append one frame, assigning it the next LSN; fsyncs when the batch
    /// is full. Returns the assigned LSN.
    pub fn append(&mut self, payload: FramePayload) -> Result<u64> {
        let frame = Frame {
            lsn: self.next_lsn,
            payload,
        };
        let bytes = frame.encode();
        self.file.append(&bytes)?;
        self.next_lsn += 1;
        self.stats.frames += 1;
        self.stats.bytes += bytes.len() as u64;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(frame.lsn)
    }

    /// Force the appended frames durable.
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced > 0 {
            self.file.sync()?;
            self.stats.fsyncs += 1;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Rotate after a snapshot at `snapshot_lsn` (which must cover every
    /// frame written so far): start segment `wal-<snapshot_lsn+1>`, make
    /// it durable, then delete the older segments. Must be called only
    /// once the snapshot itself is durably committed — the deleted
    /// segments are unreadable afterwards.
    pub fn rotate(&mut self, snapshot_lsn: u64) -> Result<()> {
        if snapshot_lsn + 1 != self.next_lsn {
            return Err(WalError::Corrupt(format!(
                "rotate at lsn {snapshot_lsn} but the log is at {}",
                self.next_lsn - 1
            )));
        }
        self.sync()?;
        let name = segment_name(self.next_lsn);
        let path = join(&self.dir, &name);
        let mut file = self.vfs.create(&path)?;
        file.append(SEGMENT_MAGIC)?;
        file.sync()?;
        self.vfs.sync_dir(&self.dir)?;
        self.file = file;
        // The snapshot supersedes everything up to snapshot_lsn; older
        // segments only hold frames ≤ snapshot_lsn (rotation always
        // happens right after the snapshot, before any new frame).
        for (base, old) in segments(self.vfs.as_ref(), &self.dir)? {
            if base <= snapshot_lsn {
                self.vfs.remove(&join(&self.dir, &old))?;
            }
        }
        self.vfs.sync_dir(&self.dir)?;
        Ok(())
    }
}

/// Read every intact frame with `lsn > since_lsn` across all segments of
/// `dir`, in LSN order.
///
/// A torn or corrupt tail is tolerated only in the **newest** segment
/// (that is the expected shape of a crash); corruption in an older
/// segment, or a gap in the LSN sequence, means frames a snapshot may
/// depend on are gone and recovery must fail loudly rather than replay a
/// hole.
pub fn read_wal_tail(vfs: &dyn Vfs, dir: &str, since_lsn: u64) -> Result<Vec<Frame>> {
    let segs = segments(vfs, dir)?;
    let mut frames: Vec<Frame> = Vec::new();
    let last_index = segs.len().saturating_sub(1);
    for (i, (base, name)) in segs.iter().enumerate() {
        let bytes = vfs.read(&join(dir, name))?;
        let scanned = scan(&bytes);
        if let Some(err) = scanned.tail_error {
            if i != last_index {
                return Err(WalError::Corrupt(format!(
                    "segment {name} is corrupt mid-log: {err}"
                )));
            }
        }
        for frame in scanned.frames {
            if frame.lsn < *base {
                return Err(WalError::Corrupt(format!(
                    "segment {name} contains lsn {} below its base {base}",
                    frame.lsn
                )));
            }
            if let Some(prev) = frames.last() {
                if frame.lsn != prev.lsn + 1 {
                    return Err(WalError::Corrupt(format!(
                        "lsn gap: {} follows {}",
                        frame.lsn, prev.lsn
                    )));
                }
            }
            frames.push(frame);
        }
    }
    frames.retain(|f| f.lsn > since_lsn);
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::SimVfs;
    use reldb::{Fact, FactId, MutationKind, RelationId, Value};

    fn payload(i: i64) -> FramePayload {
        FramePayload::Mutation {
            kind: MutationKind::Insert,
            id: FactId::new(RelationId(0), i as u32),
            epoch: i as u64,
            fact: Fact::new(vec![Value::Int(i)]),
        }
    }

    #[test]
    fn appends_assign_consecutive_lsns_and_batch_fsyncs() {
        let vfs = Arc::new(SimVfs::new());
        let mut wal = WalWriter::open(vfs.clone(), "w", 4, 0).unwrap();
        for i in 0..10 {
            assert_eq!(wal.append(payload(i)).unwrap(), i as u64 + 1);
        }
        // 10 frames at sync_every=4: two batch fsyncs (frames 4 and 8).
        assert_eq!(wal.stats().fsyncs, 2);
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 3);
        let tail = read_wal_tail(vfs.as_ref(), "w", 0).unwrap();
        assert_eq!(tail.len(), 10);
        assert_eq!(tail.first().unwrap().lsn, 1);
        assert_eq!(tail.last().unwrap().lsn, 10);
        // Tail reads respect the cursor.
        assert_eq!(read_wal_tail(vfs.as_ref(), "w", 7).unwrap().len(), 3);
    }

    #[test]
    fn reopen_truncates_the_unsynced_tail() {
        let vfs = Arc::new(SimVfs::new());
        let mut wal = WalWriter::open(vfs.clone(), "w", 100, 0).unwrap();
        for i in 0..3 {
            wal.append(payload(i)).unwrap();
        }
        wal.sync().unwrap();
        for i in 3..5 {
            wal.append(payload(i)).unwrap();
        }
        // Crash with two frames unsynced.
        vfs.crash();
        let wal = WalWriter::open(vfs.clone(), "w", 100, 0).unwrap();
        assert_eq!(wal.last_lsn(), 3);
        let tail = read_wal_tail(vfs.as_ref(), "w", 0).unwrap();
        assert_eq!(tail.len(), 3);
    }

    #[test]
    fn reopen_repairs_a_mid_frame_tear() {
        let vfs = Arc::new(SimVfs::new());
        let mut wal = WalWriter::open(vfs.clone(), "w", 1, 0).unwrap();
        for i in 0..3 {
            wal.append(payload(i)).unwrap();
        }
        let path = "w/".to_string() + &segment_name(1);
        let full = vfs.durable_len(&path).unwrap();
        // Tear the last durable frame in half.
        assert!(vfs.truncate_durable(&path, full - 5));
        vfs.crash();
        let mut wal = WalWriter::open(vfs.clone(), "w", 1, 0).unwrap();
        assert_eq!(wal.last_lsn(), 2);
        // The log keeps going after the repair.
        assert_eq!(wal.append(payload(99)).unwrap(), 3);
        let tail = read_wal_tail(vfs.as_ref(), "w", 0).unwrap();
        assert_eq!(tail.len(), 3);
        assert!(matches!(
            &tail[2].payload,
            FramePayload::Mutation { fact, .. } if fact.get(0) == &Value::Int(99)
        ));
    }

    #[test]
    fn rotation_starts_a_new_segment_and_removes_old_ones() {
        let vfs = Arc::new(SimVfs::new());
        let mut wal = WalWriter::open(vfs.clone(), "w", 1, 0).unwrap();
        for i in 0..4 {
            wal.append(payload(i)).unwrap();
        }
        wal.rotate(4).unwrap();
        assert_eq!(
            segments(vfs.as_ref(), "w").unwrap(),
            vec![(5, segment_name(5))]
        );
        assert_eq!(wal.append(payload(9)).unwrap(), 5);
        // A reader holding the snapshot cursor sees only the new frames.
        let tail = read_wal_tail(vfs.as_ref(), "w", 4).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].lsn, 5);
    }

    #[test]
    fn rotation_refuses_a_stale_cursor() {
        let vfs = Arc::new(SimVfs::new());
        let mut wal = WalWriter::open(vfs.clone(), "w", 1, 0).unwrap();
        wal.append(payload(0)).unwrap();
        wal.append(payload(1)).unwrap();
        assert!(wal.rotate(1).is_err());
    }

    #[test]
    fn mid_log_corruption_fails_loudly() {
        let vfs = Arc::new(SimVfs::new());
        let mut wal = WalWriter::open(vfs.clone(), "w", 1, 0).unwrap();
        for i in 0..3 {
            wal.append(payload(i)).unwrap();
        }
        // Keep the old segment around by writing a newer one manually
        // (rotation would delete it); then corrupt the old one mid-body.
        let new_path = "w/".to_string() + &segment_name(4);
        let mut f = vfs.create(&new_path).unwrap();
        f.append(SEGMENT_MAGIC).unwrap();
        let frame = Frame {
            lsn: 4,
            payload: payload(4),
        };
        f.append(&frame.encode()).unwrap();
        f.sync().unwrap();
        let old_path = "w/".to_string() + &segment_name(1);
        assert!(vfs.corrupt_durable(&old_path, 20, 3));
        vfs.crash();
        assert!(matches!(
            read_wal_tail(vfs.as_ref(), "w", 0),
            Err(WalError::Corrupt(_))
        ));
    }
}
