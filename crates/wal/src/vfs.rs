//! The injectable I/O layer under the WAL and snapshots.
//!
//! Everything the durability subsystem does to stable storage goes
//! through the [`Vfs`] trait — append, fsync, rename, remove, directory
//! sync — so the whole subsystem can run against either real files
//! ([`StdVfs`]) or the deterministic in-memory simulator ([`SimVfs`])
//! that powers the fault-injection suite.
//!
//! ## The simulator's crash model
//!
//! [`SimVfs`] keeps **two** filesystem images:
//!
//! * the **live** image — what the running process observes; every write
//!   lands here immediately;
//! * the **durable** image — what would survive a power cut. File *data*
//!   becomes durable only at [`WalFile::sync`]; *namespace* operations
//!   (rename, remove) become durable only at [`Vfs::sync_dir`], matching
//!   the POSIX reality that a rename is a directory mutation needing its
//!   own fsync.
//!
//! [`SimVfs::crash`] discards the live image and restarts the "process"
//! from the durable one — exactly a kill -9. [`FailPoint`]s schedule that
//! crash at a precise I/O operation (counted across the whole VFS), can
//! tear the triggering append (short write), and can flip durable bytes
//! to model media corruption. After a fail point fires, every further
//! operation fails with [`WalError::Crashed`] (a dead process does no
//! I/O) until `crash()` begins the next incarnation — so a test can kill
//! the pipeline at operation *k*, recover, and assert byte-equality, for
//! every *k*.

use crate::{Result, WalError};
use std::collections::BTreeMap;
use std::io::{Read, Seek, Write};
use std::sync::{Arc, Mutex};

/// One open append-only file.
pub trait WalFile: Send + std::fmt::Debug {
    /// Append bytes at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    /// Make the file's *content* durable (fsync).
    fn sync(&mut self) -> Result<()>;
    /// Current file length in bytes.
    fn len(&self) -> Result<u64>;
    /// Whether the file is empty.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// Filesystem abstraction for the durability layer. Paths are plain
/// `/`-separated strings; implementations resolve them however they like.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Open for appending, creating the file if absent.
    fn open_append(&self, path: &str) -> Result<Box<dyn WalFile>>;
    /// Create (or truncate) a file.
    fn create(&self, path: &str) -> Result<Box<dyn WalFile>>;
    /// Read a whole file.
    fn read(&self, path: &str) -> Result<Vec<u8>>;
    /// Whether the file exists.
    fn exists(&self, path: &str) -> bool;
    /// Names (not paths) of the files directly inside `dir`, sorted.
    fn list(&self, dir: &str) -> Result<Vec<String>>;
    /// Rename a file (both paths inside the same directory).
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Remove a file.
    fn remove(&self, path: &str) -> Result<()>;
    /// Truncate a file to `len` bytes (torn-tail repair on open).
    fn truncate(&self, path: &str, len: u64) -> Result<()>;
    /// Create a directory (and parents).
    fn create_dir_all(&self, dir: &str) -> Result<()>;
    /// Make `dir`'s namespace mutations (renames, removes, creations)
    /// durable.
    fn sync_dir(&self, dir: &str) -> Result<()>;
}

/// Join a directory and a file name.
pub fn join(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_string()
    } else {
        format!("{}/{name}", dir.trim_end_matches('/'))
    }
}

// ---------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------

/// [`Vfs`] over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

#[derive(Debug)]
struct StdFile {
    file: std::fs::File,
}

impl WalFile for StdFile {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

impl Vfs for StdVfs {
    fn open_append(&self, path: &str) -> Result<Box<dyn WalFile>> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Box::new(StdFile { file }))
    }

    fn create(&self, path: &str) -> Result<Box<dyn WalFile>> {
        let file = std::fs::File::create(path)?;
        Ok(Box::new(StdFile { file }))
    }

    fn read(&self, path: &str) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn exists(&self, path: &str) -> bool {
        std::path::Path::new(path).exists()
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<()> {
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()?;
        Ok(())
    }

    fn create_dir_all(&self, dir: &str) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        Ok(())
    }

    fn sync_dir(&self, dir: &str) -> Result<()> {
        // Directory fsync is how POSIX makes renames durable; on platforms
        // where opening a directory for read fails, the rename is the best
        // we can do.
        if let Ok(file) = std::fs::File::open(dir) {
            let _ = file.sync_all();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fault-injecting simulator
// ---------------------------------------------------------------------

/// Where (and how) the next simulated crash happens. Operations are
/// numbered from 0 in the order they reach the VFS — counting *all*
/// mutating calls: appends, syncs, renames, removes, truncates, dir
/// syncs. A dry run with no fail point yields the op count to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailPoint {
    /// Die *before* op `k` takes any effect — e.g. crash before the fsync
    /// that would have made the tail durable.
    CrashBeforeOp(u64),
    /// Die right *after* op `k` completed — e.g. crash after fsync, or
    /// after the rename landed in the live image but before the directory
    /// sync makes it durable.
    CrashAfterOp(u64),
    /// If op `k` is an append: write only `keep` bytes of it into the
    /// live image, then die (a torn/short write). For non-append ops this
    /// behaves like [`FailPoint::CrashBeforeOp`].
    ShortWrite {
        /// The operation to tear.
        op: u64,
        /// Bytes of the append that make it to the live image.
        keep: usize,
    },
}

impl FailPoint {
    fn op(&self) -> u64 {
        match *self {
            FailPoint::CrashBeforeOp(k)
            | FailPoint::CrashAfterOp(k)
            | FailPoint::ShortWrite { op: k, .. } => k,
        }
    }
}

/// A namespace mutation not yet made durable by a directory sync.
#[derive(Debug, Clone)]
enum NsOp {
    Rename { from: String, to: String },
    Remove { path: String },
}

impl NsOp {
    fn touches(&self, dir_prefix: &str) -> bool {
        match self {
            NsOp::Rename { from, to } => from.starts_with(dir_prefix) || to.starts_with(dir_prefix),
            NsOp::Remove { path } => path.starts_with(dir_prefix),
        }
    }
}

#[derive(Debug, Default)]
struct SimState {
    /// What the running process sees.
    live: BTreeMap<String, Vec<u8>>,
    /// What survives a crash. Namespace ops (rename/remove) reach this
    /// map only via `sync_dir`; file data only via `sync`.
    durable: BTreeMap<String, Vec<u8>>,
    /// Renames/removes applied to `live` but not yet to `durable`.
    pending_ns: Vec<NsOp>,
    ops: u64,
    fail: Option<FailPoint>,
    /// Set once a fail point fired; every op fails until `crash()`.
    dead: bool,
    /// Fsyncs observed (stats for the overhead report).
    syncs: u64,
    /// Bytes appended (stats).
    bytes_appended: u64,
}

impl SimState {
    /// Gate an operation: count it, fire the fail point. Returns what the
    /// op must do: `Proceed` (and whether to die after), or an error.
    fn gate(&mut self) -> Result<Gate> {
        if self.dead {
            return Err(WalError::Crashed);
        }
        let op = self.ops;
        self.ops += 1;
        match self.fail {
            Some(fp) if fp.op() == op => match fp {
                FailPoint::CrashBeforeOp(_) => {
                    self.dead = true;
                    Err(WalError::Crashed)
                }
                FailPoint::CrashAfterOp(_) => Ok(Gate::ProceedThenDie),
                FailPoint::ShortWrite { keep, .. } => Ok(Gate::Tear(keep)),
            },
            _ => Ok(Gate::Proceed),
        }
    }
}

enum Gate {
    Proceed,
    ProceedThenDie,
    /// Append only this many bytes, then die.
    Tear(usize),
}

/// Deterministic in-memory filesystem with scheduled crashes. Cloning
/// shares the underlying state (it is the same "machine").
#[derive(Debug, Clone, Default)]
pub struct SimVfs {
    state: Arc<Mutex<SimState>>,
}

impl SimVfs {
    /// Fresh empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the shared machine image.
    ///
    /// # Panics
    ///
    /// Propagates mutex poisoning. A panic while holding the image lock
    /// leaves the simulated machine half-written; under the durability
    /// layer's poisoned-WAL discipline that is process death, and every
    /// accessor dying with it is exactly the semantics the fault-injection
    /// sweeps rely on.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, SimState> {
        self.state.lock().expect("sim state poisoned by panic")
    }

    /// Schedule a fail point for this incarnation.
    pub fn set_fail_point(&self, fp: FailPoint) {
        self.lock_state().fail = Some(fp);
    }

    /// Total mutating operations observed so far (dry-run sweep bound).
    pub fn op_count(&self) -> u64 {
        self.lock_state().ops
    }

    /// Whether a scheduled fail point has fired.
    pub fn is_dead(&self) -> bool {
        self.lock_state().dead
    }

    /// Fsync count (file and dir syncs).
    pub fn sync_count(&self) -> u64 {
        self.lock_state().syncs
    }

    /// Total bytes appended across all files.
    pub fn bytes_appended(&self) -> u64 {
        self.lock_state().bytes_appended
    }

    /// Power-cycle: discard the live image, restart from the durable one,
    /// clear the fail point. The next incarnation starts counting ops
    /// where the previous one stopped (op numbers stay unique per
    /// machine-lifetime, so sweeps can schedule points past recovery).
    pub fn crash(&self) {
        let mut st = self.lock_state();
        st.live = st.durable.clone();
        st.pending_ns.clear();
        st.fail = None;
        st.dead = false;
    }

    /// Flip one bit of a file in the **durable** image (media corruption
    /// surfacing after the next crash). No-op if the file or offset does
    /// not exist; returns whether a bit was flipped.
    pub fn corrupt_durable(&self, path: &str, offset: usize, bit: u8) -> bool {
        let mut st = self.lock_state();
        match st.durable.get_mut(path) {
            Some(bytes) if offset < bytes.len() => {
                bytes[offset] ^= 1 << (bit % 8);
                true
            }
            _ => false,
        }
    }

    /// Truncate a file in the **durable** image (torn tail at the block
    /// layer). Returns whether the file existed.
    pub fn truncate_durable(&self, path: &str, len: usize) -> bool {
        let mut st = self.lock_state();
        match st.durable.get_mut(path) {
            Some(bytes) => {
                bytes.truncate(len);
                true
            }
            None => false,
        }
    }

    /// Size of a durable file, if present.
    pub fn durable_len(&self, path: &str) -> Option<usize> {
        self.lock_state().durable.get(path).map(Vec::len)
    }

    /// Paths present in the durable image (diagnostics).
    pub fn durable_paths(&self) -> Vec<String> {
        self.lock_state().durable.keys().cloned().collect()
    }
}

#[derive(Debug)]
struct SimFile {
    vfs: SimVfs,
    path: String,
}

impl WalFile for SimFile {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let mut st = self.vfs.lock_state();
        let gate = st.gate()?;
        let keep = match gate {
            Gate::Proceed | Gate::ProceedThenDie => bytes.len(),
            Gate::Tear(keep) => keep.min(bytes.len()),
        };
        st.bytes_appended += keep as u64;
        st.live
            .entry(self.path.clone())
            .or_default()
            .extend_from_slice(&bytes[..keep]);
        match gate {
            Gate::Proceed => Ok(()),
            Gate::ProceedThenDie | Gate::Tear(_) => {
                st.dead = true;
                Err(WalError::Crashed)
            }
        }
    }

    fn sync(&mut self) -> Result<()> {
        let mut st = self.vfs.lock_state();
        let gate = st.gate()?;
        if !matches!(gate, Gate::Tear(_)) {
            st.syncs += 1;
            if let Some(content) = st.live.get(&self.path).cloned() {
                st.durable.insert(self.path.clone(), content);
            }
        }
        match gate {
            Gate::Proceed => Ok(()),
            Gate::ProceedThenDie => {
                st.dead = true;
                Err(WalError::Crashed)
            }
            Gate::Tear(_) => {
                st.dead = true;
                Err(WalError::Crashed)
            }
        }
    }

    fn len(&self) -> Result<u64> {
        let st = self.vfs.lock_state();
        if st.dead {
            return Err(WalError::Crashed);
        }
        Ok(st.live.get(&self.path).map_or(0, |b| b.len() as u64))
    }
}

impl Vfs for SimVfs {
    fn open_append(&self, path: &str) -> Result<Box<dyn WalFile>> {
        let mut st = self.lock_state();
        if st.dead {
            return Err(WalError::Crashed);
        }
        st.live.entry(path.to_string()).or_default();
        drop(st);
        Ok(Box::new(SimFile {
            vfs: self.clone(),
            path: path.to_string(),
        }))
    }

    fn create(&self, path: &str) -> Result<Box<dyn WalFile>> {
        let mut st = self.lock_state();
        if st.dead {
            return Err(WalError::Crashed);
        }
        st.live.insert(path.to_string(), Vec::new());
        drop(st);
        Ok(Box::new(SimFile {
            vfs: self.clone(),
            path: path.to_string(),
        }))
    }

    fn read(&self, path: &str) -> Result<Vec<u8>> {
        let st = self.lock_state();
        if st.dead {
            return Err(WalError::Crashed);
        }
        st.live
            .get(path)
            .cloned()
            .ok_or_else(|| WalError::Io(format!("no such file: {path}")))
    }

    fn exists(&self, path: &str) -> bool {
        self.lock_state().live.contains_key(path)
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        let st = self.lock_state();
        if st.dead {
            return Err(WalError::Crashed);
        }
        let prefix = format!("{}/", dir.trim_end_matches('/'));
        Ok(st
            .live
            .keys()
            .filter_map(|p| p.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut st = self.lock_state();
        let gate = st.gate()?;
        let content = st
            .live
            .remove(from)
            .ok_or_else(|| WalError::Io(format!("no such file: {from}")))?;
        st.live.insert(to.to_string(), content);
        // Durability of the new *name* waits for `sync_dir`; until then
        // the durable image keeps the pre-rename state (crashing here
        // must surface the old name with the old content).
        st.pending_ns.push(NsOp::Rename {
            from: from.to_string(),
            to: to.to_string(),
        });
        match gate {
            Gate::Proceed => Ok(()),
            Gate::ProceedThenDie | Gate::Tear(_) => {
                st.dead = true;
                Err(WalError::Crashed)
            }
        }
    }

    fn remove(&self, path: &str) -> Result<()> {
        let mut st = self.lock_state();
        let gate = st.gate()?;
        st.live.remove(path);
        st.pending_ns.push(NsOp::Remove {
            path: path.to_string(),
        });
        match gate {
            Gate::Proceed => Ok(()),
            Gate::ProceedThenDie | Gate::Tear(_) => {
                st.dead = true;
                Err(WalError::Crashed)
            }
        }
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let mut st = self.lock_state();
        let gate = st.gate()?;
        if let Some(bytes) = st.live.get_mut(path) {
            bytes.truncate(len as usize);
        }
        // Torn-tail repair is immediately made durable (the repairing
        // process fsyncs right after truncating).
        if let Some(content) = st.live.get(path).cloned() {
            if st.durable.contains_key(path) {
                st.durable.insert(path.to_string(), content);
            }
        }
        match gate {
            Gate::Proceed => Ok(()),
            Gate::ProceedThenDie | Gate::Tear(_) => {
                st.dead = true;
                Err(WalError::Crashed)
            }
        }
    }

    fn create_dir_all(&self, _dir: &str) -> Result<()> {
        if self.lock_state().dead {
            return Err(WalError::Crashed);
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &str) -> Result<()> {
        let mut st = self.lock_state();
        let gate = st.gate()?;
        if !matches!(gate, Gate::Tear(_)) {
            st.syncs += 1;
            // Replay the directory's pending namespace ops against the
            // durable image, in the order they were issued. A rename
            // moves whatever content was durable under the old name (if
            // the data was never fsynced there is nothing to move — the
            // name appears durable only once its data does); a remove
            // drops the durable entry.
            let prefix = format!("{}/", dir.trim_end_matches('/'));
            let mut remaining = Vec::new();
            for op in std::mem::take(&mut st.pending_ns) {
                if !op.touches(&prefix) {
                    remaining.push(op);
                    continue;
                }
                match op {
                    NsOp::Rename { from, to } => {
                        if let Some(content) = st.durable.remove(&from) {
                            st.durable.insert(to, content);
                        }
                    }
                    NsOp::Remove { path } => {
                        st.durable.remove(&path);
                    }
                }
            }
            st.pending_ns = remaining;
        }
        match gate {
            Gate::Proceed => Ok(()),
            Gate::ProceedThenDie | Gate::Tear(_) => {
                st.dead = true;
                Err(WalError::Crashed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_vfs_append_sync_read_round_trip() {
        let vfs = SimVfs::new();
        vfs.create_dir_all("d").unwrap();
        let mut f = vfs.create("d/a").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.read("d/a").unwrap(), b"hello world");
        assert_eq!(f.len().unwrap(), 11);
        assert_eq!(vfs.list("d").unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn unsynced_data_does_not_survive_a_crash() {
        let vfs = SimVfs::new();
        let mut f = vfs.create("d/a").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" volatile").unwrap();
        vfs.crash();
        assert_eq!(vfs.read("d/a").unwrap(), b"durable");
    }

    #[test]
    fn rename_is_durable_only_after_sync_dir() {
        let vfs = SimVfs::new();
        let mut f = vfs.create("d/tmp").unwrap();
        f.append(b"snapshot").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename("d/tmp", "d/final").unwrap();
        // Crash before the directory sync: the rename is lost.
        vfs.crash();
        assert!(vfs.exists("d/tmp"));
        assert!(!vfs.exists("d/final"));
        // Redo with the dir sync: the rename survives.
        vfs.rename("d/tmp", "d/final").unwrap();
        vfs.sync_dir("d").unwrap();
        vfs.crash();
        assert!(!vfs.exists("d/tmp"));
        assert_eq!(vfs.read("d/final").unwrap(), b"snapshot");
    }

    #[test]
    fn fail_points_kill_the_process_stickily() {
        let vfs = SimVfs::new();
        let mut f = vfs.create("d/a").unwrap();
        f.append(b"one").unwrap(); // op 0
        vfs.set_fail_point(FailPoint::CrashBeforeOp(1));
        assert_eq!(f.append(b"two").unwrap_err(), WalError::Crashed);
        // Dead until the next incarnation.
        assert_eq!(f.append(b"three").unwrap_err(), WalError::Crashed);
        assert_eq!(vfs.read("d/a").unwrap_err(), WalError::Crashed);
        vfs.crash();
        // Nothing was synced, so the durable image is empty.
        assert!(!vfs.exists("d/a"));
    }

    #[test]
    fn short_write_tears_the_append() {
        let vfs = SimVfs::new();
        let mut f = vfs.create("d/a").unwrap();
        f.append(b"intact|").unwrap();
        f.sync().unwrap();
        vfs.set_fail_point(FailPoint::ShortWrite { op: 2, keep: 3 });
        assert_eq!(f.append(b"torn-frame").unwrap_err(), WalError::Crashed);
        vfs.crash();
        // The tear landed in the live image only; durable has the synced
        // prefix. (A tear *after* a sync is exercised via truncate_durable.)
        assert_eq!(vfs.read("d/a").unwrap(), b"intact|");
        assert!(vfs.truncate_durable("d/a", 3));
        vfs.crash();
        assert_eq!(vfs.read("d/a").unwrap(), b"int");
    }

    #[test]
    fn crash_after_op_completes_the_op_first() {
        let vfs = SimVfs::new();
        let mut f = vfs.create("d/a").unwrap();
        f.append(b"payload").unwrap(); // op 0
        vfs.set_fail_point(FailPoint::CrashAfterOp(1));
        assert_eq!(f.sync().unwrap_err(), WalError::Crashed); // op 1: fsync lands
        vfs.crash();
        assert_eq!(vfs.read("d/a").unwrap(), b"payload");
    }

    #[test]
    fn corrupt_durable_flips_one_bit() {
        let vfs = SimVfs::new();
        let mut f = vfs.create("d/a").unwrap();
        f.append(&[0u8; 4]).unwrap();
        f.sync().unwrap();
        assert!(vfs.corrupt_durable("d/a", 2, 0));
        vfs.crash();
        assert_eq!(vfs.read("d/a").unwrap(), vec![0, 0, 1, 0]);
        assert!(!vfs.corrupt_durable("d/a", 99, 0));
    }
}
