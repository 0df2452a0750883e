//! `durable_churn`: the dynamic protocol as writes beside reads, through
//! `repro::durable::DurablePipeline` on real files. Set-up is the same as
//! `one_by_one`'s. The stream, generated here from the seed:
//!
//! * restores the next held-out group and extends both embedders to it
//!   (`insert`);
//! * then cascade-deletes 0–2 live old prediction tuples (`delete`),
//!   drawn with probability [`HOT_SHARE`] from a fixed hot tenth of them, and
//!   restores them (`restore`) last-deleted first — cascade groups share FK
//!   targets, so any other order fails with `FkViolation`;
//! * commits a snapshot after every [`SNAPSHOT_EVERY`] operations.
//!
//! The timed unit (`op_ms_*`, `ops_per_s`) is one step: an insert with the
//! deletes and restores that follow it.
//!
//! Each pass runs the stream on a fresh pipeline in its own directory,
//! syncs, and crashes (drops the pipeline). After the last pass the run
//! recovers that directory [`RECOVERIES`] times; every recovery must
//! reproduce the live state byte for byte.

use crate::layers::{self, Counters, EmbedderStats, OpTimes};
use crate::setup::{self, Frozen, Prepared, STREAM_CHURN, STREAM_EXTEND, STREAM_HOT};
use crate::trace::Tracer;
use crate::{pass_traced, Outcome, RunConfig};
use reldb::{cascade_delete, restore_journal, DeletionJournal, FactId};
use repro::durable::{DurablePipeline, DEFAULT_SYNC_EVERY};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use stembed_runtime::{derive_seed, DetRng};
use stembed_wal::{latest_snapshot, read_wal_tail, StdVfs, Vfs};

/// Operations between snapshots.
pub const SNAPSHOT_EVERY: usize = 100;
/// Share of deletes drawn from the hot tenth of the old tuples.
pub const HOT_SHARE: f64 = 0.8;
/// Recoveries of the crashed directory (`durable.recover_s` is their
/// median).
pub const RECOVERIES: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Restore held-out group `i` (in restore order) and extend to it.
    Insert(usize),
    /// Cascade-delete a live prediction tuple.
    Delete(FactId),
    /// Restore the most recent unrestored delete.
    Restore,
    /// Commit a snapshot (not an operation: maintenance within the stream).
    Snapshot,
}

/// The seeded stream. It is generated against a scratch copy of the
/// database so that it only deletes tuples that are live at that point.
pub fn stream(prep: &Prepared, seed: u64) -> Result<Vec<Op>, String> {
    let mut db = prep.db.clone();
    let mut old = setup::old_tuples(prep);
    let mut fixed = DetRng::seed_from_u64(derive_seed(setup::DATASET_SEED, STREAM_HOT));
    setup::shuffle(&mut old, &mut fixed);
    let mut rng = DetRng::seed_from_u64(derive_seed(seed, STREAM_CHURN));
    let hot = old.len().div_ceil(10).max(1);
    let mut ops = Vec::new();
    let mut since_snapshot = 0;
    for (i, (_, journal)) in prep.held_out.iter().rev().enumerate() {
        let step_start = ops.len();
        restore_journal(&mut db, journal).map_err(|e| format!("stream restore: {e}"))?;
        ops.push(Op::Insert(i));
        let mut open: Vec<DeletionJournal> = Vec::new();
        for _ in 0..rng.random_range(0..=2usize) {
            let pool = if rng.next_f64() < HOT_SHARE {
                hot
            } else {
                old.len()
            };
            let f = old[rng.random_range(0..pool)];
            // An earlier delete of this step may have cascaded into it.
            if db.fact(f).is_none() {
                continue;
            }
            open.push(cascade_delete(&mut db, f, true).map_err(|e| format!("stream delete: {e}"))?);
            ops.push(Op::Delete(f));
        }
        while let Some(j) = open.pop() {
            restore_journal(&mut db, &j).map_err(|e| format!("stream restore: {e}"))?;
            ops.push(Op::Restore);
        }
        since_snapshot += ops.len() - step_start;
        if since_snapshot >= SNAPSHOT_EVERY {
            ops.push(Op::Snapshot);
            since_snapshot = 0;
        }
    }
    Ok(ops)
}

/// Directory the run writes its WAL directories to (inside the working
/// directory), removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(seed: u64) -> Result<Self, String> {
        let dir = Path::new(".perfbench").join(format!("churn-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run the stream once on a fresh pipeline in `dir` and sync it. Returns
/// the pipeline, still live, the latency of each step and the pass's
/// counters.
fn pass(
    prep: &Prepared,
    ops: &[Op],
    dir: &str,
    seed: u64,
    traced: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(DurablePipeline, Vec<f64>, Counters), String> {
    let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
    let mut pipe = DurablePipeline::create(
        vfs,
        dir,
        prep.db.clone(),
        prep.fwd.clone(),
        prep.n2v.clone(),
        DEFAULT_SYNC_EVERY,
    )
    .map_err(|e| format!("create pipeline: {e}"))?;
    let before = EmbedderStats::of(pipe.forward(), pipe.node2vec());
    let wal_before = pipe.wal_stats();
    let extend_seed = derive_seed(seed, STREAM_EXTEND);
    let mut open: Vec<DeletionJournal> = Vec::new();
    let (mut tokens, mut facts, mut groups) = (0usize, 0usize, 0usize);
    let mut step_s = Vec::with_capacity(prep.held_out.len());
    let mut op_count = 0usize;
    tr.set_enabled(traced);
    for op in ops {
        tr.next_op();
        let t = Instant::now();
        let result: Result<(), String> = match *op {
            Op::Insert(i) => tr.span("durable.insert", |tr| {
                let journal = &prep.held_out[prep.held_out.len() - 1 - i].1;
                let restored = tr
                    .span("durable.mutate", |tr| {
                        pipe.mutate(|db| tr.span("reldb.restore", |_| restore_journal(db, journal)))
                    })
                    .map_err(|e| format!("insert restore: {e}"))?;
                facts += restored.len();
                groups += 1;
                tr.span("durable.extend", |_| {
                    pipe.extend(&restored, derive_seed(extend_seed, i as u64))
                })
                .map_err(|e| format!("extend: {e}"))?;
                tokens += pipe.node2vec().model().last_extend_timing().corpus_tokens;
                Ok(())
            }),
            Op::Delete(f) => tr.span("durable.delete", |tr| {
                let j = tr
                    .span("durable.mutate", |tr| {
                        pipe.mutate(|db| {
                            tr.span("reldb.cascade_delete", |_| cascade_delete(db, f, true))
                        })
                    })
                    .map_err(|e| format!("delete {f}: {e}"))?;
                open.push(j);
                Ok(())
            }),
            Op::Restore => tr.span("durable.restore", |tr| {
                let j = open.pop().ok_or("restore without a delete")?;
                let restored = tr
                    .span("durable.mutate", |tr| {
                        pipe.mutate(|db| tr.span("reldb.restore", |_| restore_journal(db, &j)))
                    })
                    .map_err(|e| format!("restore: {e}"))?;
                facts += restored.len();
                groups += 1;
                Ok(())
            }),
            Op::Snapshot => tr
                .span("durable.snapshot", |_| pipe.snapshot())
                .map(drop)
                .map_err(|e| format!("snapshot: {e}")),
        };
        // A timed operation is one step: an insert with the deletes and
        // restores that follow it. Snapshots count as attempted layer calls
        // but belong to no step.
        let dt = t.elapsed().as_secs_f64();
        match op {
            Op::Insert(_) => step_s.push(dt),
            Op::Snapshot => {}
            Op::Delete(_) | Op::Restore => {
                if let Some(step) = step_s.last_mut() {
                    *step += dt;
                }
            }
        }
        if *op != Op::Snapshot {
            op_count += 1;
        }
        if out.op(result).is_none() {
            break;
        }
    }
    let synced = pipe.sync();
    tr.set_enabled(false);
    out.op(synced.map_err(|e| format!("sync: {e}")));

    let wal = pipe.wal_stats();
    let bytes = wal.bytes - wal_before.bytes;
    let mut counters = before.since(&EmbedderStats::of(pipe.forward(), pipe.node2vec()));
    counters.extend([
        ("node2vec.corpus_tokens", tokens as f64),
        ("reldb.facts_per_group", facts as f64 / groups.max(1) as f64),
        ("wal.frames", (wal.frames - wal_before.frames) as f64),
        ("wal.bytes", bytes as f64),
        ("wal.fsyncs", (wal.fsyncs - wal_before.fsyncs) as f64),
        ("wal.bytes_per_op", bytes as f64 / op_count.max(1) as f64),
    ]);
    Ok((pipe, step_s, counters))
}

/// Size of the newest snapshot and the frames a recovery replays after it.
fn recovery_shape(dir: &str) -> Result<Counters, String> {
    let vfs = StdVfs;
    let snap = latest_snapshot(&vfs, dir)
        .map_err(|e| format!("read snapshot: {e}"))?
        .ok_or("no snapshot")?;
    let tail = read_wal_tail(&vfs, dir, snap.lsn).map_err(|e| format!("read wal: {e}"))?;
    Ok(vec![
        ("durable.snapshot_bytes", snap.encode().len() as f64),
        ("wal.replay_frames", tail.len() as f64),
    ])
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let scratch = Scratch::new(cfg.seed)?;
    let mut times = OpTimes::default();
    let mut first_counters: Option<Counters> = None;
    // The last crashed directory, with the live state and LSN it must
    // recover to.
    let mut crashed: Option<(String, Vec<u8>, u64)> = None;
    let mut timed = 0.0;
    let mut n = 0;
    setup::with_setups(cfg, tr, out, |prep, rep, tr, out| {
        let ops = stream(prep, cfg.seed)?;
        let frozen = Frozen::capture(&prep.db, &prep.fwd, &prep.n2v);
        let new = setup::new_tuples(prep);
        if rep == 0 {
            layers::record(out, &layers::plan(&prep.fwd));
        }
        loop {
            let dir = scratch
                .0
                .join(format!("pass-{n}"))
                .to_string_lossy()
                .into_owned();
            let traced = pass_traced(cfg, n);
            let (pipe, step_s, counters) = pass(prep, &ops, &dir, cfg.seed, traced, tr, out)?;
            timed += step_s.iter().sum::<f64>();
            times.pass(traced, step_s);
            frozen.verify(pipe.forward(), pipe.node2vec(), out);
            setup::verify_new(pipe.forward(), pipe.node2vec(), &new, out);
            match &first_counters {
                None => {
                    let old = setup::old_tuples(prep);
                    let fwd_acc =
                        setup::new_tuple_accuracy(&prep.ds, pipe.forward(), &old, &new, cfg.seed);
                    let n2v_acc =
                        setup::new_tuple_accuracy(&prep.ds, pipe.node2vec(), &old, &new, cfg.seed);
                    out.set("quality.fwd_accuracy", fwd_acc);
                    out.set("quality.n2v_accuracy", n2v_acc);
                    layers::record(out, &recovery_shape(&dir)?);
                    first_counters = Some(counters);
                }
                Some(first) => out.check(*first == counters, || {
                    format!("pass {n} counters differ from pass 0")
                }),
            }
            let state = pipe.state_bytes();
            let lsn = pipe.last_lsn().map_err(|e| format!("last lsn: {e}"))?;
            // The crash: no shutdown, the in-memory state is simply gone.
            drop(pipe);
            if let Some((prev, _, _)) = crashed.replace((dir, state, lsn)) {
                let _ = std::fs::remove_dir_all(prev);
            }
            n += 1;
            if timed >= setup::segment_end(cfg, rep) {
                return Ok(());
            }
        }
    })?;
    if let Some(c) = &first_counters {
        layers::record(out, c);
    }

    let (dir, state, lsn) = crashed.ok_or("no pass ran")?;
    let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
    let mut recover_s = Vec::new();
    tr.set_enabled(cfg.trace);
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let rec = tr.span("durable.recover", |_| {
            DurablePipeline::recover(vfs.clone(), &dir, DEFAULT_SYNC_EVERY)
        });
        recover_s.push(t.elapsed().as_secs_f64());
        if let Some(rec) = out.op(rec.map_err(|e| format!("recover: {e}"))) {
            out.check(rec.state_bytes() == state, || {
                "recovered state differs from the live state".to_string()
            });
            out.check(rec.last_lsn().ok() == Some(lsn), || {
                "recovered to a different lsn".to_string()
            });
        }
    }
    tr.set_enabled(false);
    out.median("durable.recover_s", &recover_s, 1.0);
    times.record(out);
    Ok(())
}
