//! Fault-injection suite for the durable pipeline: kill the process at
//! **every** simulated I/O operation of the one-by-one insertion protocol
//! and assert that [`repro::durable::DurablePipeline::recover`] restores a
//! state **byte-identical** to the uninterrupted reference run at the
//! recovered LSN.
//!
//! The reference run is validated first: at every step boundary the live
//! pipeline's canonical state bytes must equal the state obtained by
//! replaying the captured WAL frames one at a time onto clones of the
//! initial (database, FoRWaRD, Node2Vec) trio — i.e. replay reproduces the
//! original execution exactly, so comparing a recovered pipeline against
//! the replayed per-LSN states is *not* a tautology.
//!
//! Crash models swept (see [`stembed_wal::FailPoint`]):
//! * `CrashBeforeOp(k)` — die before op `k` (e.g. before the fsync that
//!   would have made the tail durable), for every `k`;
//! * `CrashAfterOp(k)` — die right after op `k` (e.g. after a rename
//!   landed in the live image but before the directory sync), for every
//!   `k`;
//! * `ShortWrite{op, keep}` — tear op `k` mid-append, leaving a torn
//!   frame for open-time truncation to repair, with varying `keep`.
//!
//! Every crash is followed by *two* recoveries: both must succeed and
//! yield identical bytes (recovery is deterministic and non-destructive).

use reldb::{cascade_delete, movies, restore_journal, Database, DeletionJournal};
use repro::durable::DurablePipeline;
use std::sync::Arc;
use stembed_core::embedder::{ForwardEmbedder, Node2VecEmbedder};
use stembed_core::snapshot::{encode_forward, encode_node2vec, FORWARD_BLOB, NODE2VEC_BLOB};
use stembed_core::{ForwardConfig, TupleEmbedder};
use stembed_wal::{
    read_wal_tail, write_snapshot, FailPoint, Frame, FramePayload, SimVfs, Snapshot, Vfs, WalError,
};

const DIR: &str = "crashdir";
/// Small enough that fsync boundaries fall *inside* cascade groups and
/// extend rounds, so crashes land between a frame and its fsync.
const SYNC_EVERY: usize = 2;

/// Trained starting point shared by every run: the labeled movies
/// database with two actors cascade-deleted, then both embedders trained
/// on the reduced instance. The journals are restored one-by-one by the
/// protocol (the paper's dynamic insertion setting).
struct Fixture {
    db: Database,
    fwd: ForwardEmbedder,
    n2v: Node2VecEmbedder,
    /// In inverse deletion order, ready to restore.
    journals: Vec<DeletionJournal>,
}

fn fixture() -> Fixture {
    let (mut db, ids) = movies::movies_database_labeled();
    let j_a5 = cascade_delete(&mut db, ids["a5"], true).unwrap();
    let j_a4 = cascade_delete(&mut db, ids["a4"], true).unwrap();
    assert!(j_a5.len() > 1, "a5 must cascade into CAST rows");
    let actors = db.schema().relation_id("ACTORS").unwrap();
    let fwd = ForwardEmbedder::train(&db, actors, &ForwardConfig::small(), 41).unwrap();
    let n2v = Node2VecEmbedder::train(&db, &node2vec::Node2VecConfig::small(), 43);
    Fixture {
        db,
        fwd,
        n2v,
        journals: vec![j_a4, j_a5],
    }
}

/// Canonical state bytes of a free-standing trio — must match
/// [`DurablePipeline::state_bytes`] exactly.
fn state_of(db: &Database, fwd: &ForwardEmbedder, n2v: &Node2VecEmbedder) -> Vec<u8> {
    Snapshot::capture(
        db,
        0,
        vec![
            (FORWARD_BLOB.to_string(), encode_forward(fwd)),
            (NODE2VEC_BLOB.to_string(), encode_node2vec(n2v)),
        ],
    )
    .encode()
}

/// What the reference run records as it goes.
#[derive(Default)]
struct Log {
    /// `(lsn, state bytes)` at every step boundary of the live pipeline.
    checkpoints: Vec<(u64, Vec<u8>)>,
    /// Every frame ever appended, captured *before* rotation deletes the
    /// superseded segments.
    frames: Vec<Frame>,
    /// `vfs.op_count()` at the moment `create` returned — before this
    /// point no snapshot is durably committed, so recovery may
    /// legitimately find nothing to recover.
    ops_after_create: u64,
}

/// Append the not-yet-captured WAL tail (reads the *live* image, so
/// frames not yet fsynced are visible too).
fn capture(vfs: &SimVfs, frames: &mut Vec<Frame>) -> Result<(), WalError> {
    let since = frames.last().map_or(0, |f| f.lsn);
    frames.extend(read_wal_tail(vfs, DIR, since)?);
    Ok(())
}

/// The full protocol: create (commits the initial snapshot), then per
/// journal a restore round (one mutation frame per cascaded fact) plus an
/// embedding extension, with a snapshot + WAL rotation after the first
/// round and an explicit sync at the end. Any `Err` is a simulated
/// process death; `log` keeps whatever was recorded up to that point.
fn run_protocol(vfs: &Arc<SimVfs>, fx: &Fixture, log: &mut Log) -> Result<(), WalError> {
    let generic: Arc<dyn Vfs> = vfs.clone();
    let mut pipe = DurablePipeline::create(
        generic,
        DIR,
        fx.db.clone(),
        fx.fwd.clone(),
        fx.n2v.clone(),
        SYNC_EVERY,
    )?;
    log.ops_after_create = vfs.op_count();
    log.checkpoints.push((pipe.last_lsn()?, pipe.state_bytes()));

    for (round, journal) in fx.journals.iter().enumerate() {
        let restored = pipe.mutate(|db| restore_journal(db, journal))?;
        assert_eq!(restored.len(), journal.len());
        log.checkpoints.push((pipe.last_lsn()?, pipe.state_bytes()));

        pipe.extend(&restored, 0xD15C + round as u64)?;
        log.checkpoints.push((pipe.last_lsn()?, pipe.state_bytes()));

        if round == 0 {
            // Capture the frames before `snapshot()` rotates them away.
            capture(vfs, &mut log.frames)?;
            pipe.snapshot()?;
            log.checkpoints.push((pipe.last_lsn()?, pipe.state_bytes()));
        }
    }
    capture(vfs, &mut log.frames)?;
    pipe.sync()?;
    Ok(())
}

/// Replay the captured frames one at a time onto clones of the fixture,
/// recording the canonical state after each — `states[lsn]` is the
/// reference state at that LSN (`states[0]` = the initial trio).
fn replay_states(fx: &Fixture, frames: &[Frame]) -> Vec<Vec<u8>> {
    let mut db = fx.db.clone();
    let mut fwd = fx.fwd.clone();
    let mut n2v = fx.n2v.clone();
    let mut states = vec![state_of(&db, &fwd, &n2v)];
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(frame.lsn, i as u64 + 1, "LSN sequence must be gap-free");
        match &frame.payload {
            FramePayload::Mutation {
                kind,
                id,
                epoch,
                fact,
            } => {
                db.apply_mutation(*kind, *id, fact).unwrap();
                assert_eq!(db.epoch(), *epoch, "replay must track the logged epoch");
            }
            FramePayload::Extend { seed, facts } => {
                fwd.extend(&db, facts, *seed).unwrap();
                n2v.extend(&db, facts, *seed).unwrap();
            }
        }
        states.push(state_of(&db, &fwd, &n2v));
    }
    states
}

/// Run the protocol against a fresh filesystem armed with `fp`, crash,
/// recover twice, and check both recoveries against the reference.
fn check_crash_point(fx: &Fixture, states: &[Vec<u8>], ops_after_create: u64, fp: FailPoint) {
    let vfs = Arc::new(SimVfs::new());
    vfs.set_fail_point(fp);
    let mut scratch = Log::default();
    // The run is deterministic, so it retraces the reference history
    // exactly until the fail point kills it (a fail point on the very
    // last op can even let it finish).
    let _ = run_protocol(&vfs, fx, &mut scratch);
    vfs.crash();

    let generic: Arc<dyn Vfs> = vfs.clone();
    let first = DurablePipeline::recover(generic.clone(), DIR, SYNC_EVERY);
    let op = match fp {
        FailPoint::CrashBeforeOp(k) | FailPoint::CrashAfterOp(k) => k,
        FailPoint::ShortWrite { op, .. } => op,
    };
    let pipe = match first {
        Ok(pipe) => pipe,
        Err(e) => {
            // Only acceptable before `create` durably committed the
            // initial snapshot — there is genuinely nothing on disk yet.
            assert!(
                op < ops_after_create,
                "{fp:?}: recovery failed ({e}) although create() had completed"
            );
            return;
        }
    };
    let lsn = pipe.last_lsn().unwrap() as usize;
    assert!(
        lsn < states.len(),
        "{fp:?}: recovered to lsn {lsn}, past the reference run"
    );
    assert_eq!(
        pipe.state_bytes(),
        states[lsn],
        "{fp:?}: recovered state diverges from the reference at lsn {lsn}"
    );
    drop(pipe);

    // Recovery must be deterministic and non-destructive: a second
    // recovery from the same directory yields byte-identical state.
    let again = DurablePipeline::recover(generic, DIR, SYNC_EVERY).unwrap();
    assert_eq!(again.last_lsn().unwrap() as usize, lsn, "{fp:?}");
    assert_eq!(
        again.state_bytes(),
        states[lsn],
        "{fp:?}: second recovery diverges from the first"
    );
}

/// Reference run + replay cross-validation, then the full crash sweep.
#[test]
fn every_crash_point_recovers_byte_identical_state() {
    let fx = fixture();

    // Uninterrupted reference run.
    let vfs = Arc::new(SimVfs::new());
    let mut log = Log::default();
    run_protocol(&vfs, &fx, &mut log).expect("reference run must complete");
    let total_ops = vfs.op_count();
    assert!(
        total_ops > 30,
        "sweep needs a non-trivial op count, got {total_ops}"
    );
    assert!(!log.frames.is_empty());

    // Replay ≡ original execution: the live pipeline's state at every
    // step boundary equals the frame-by-frame replay at the same LSN.
    let states = replay_states(&fx, &log.frames);
    assert_eq!(states.len(), log.frames.len() + 1);
    for (lsn, bytes) in &log.checkpoints {
        assert_eq!(
            &states[*lsn as usize], bytes,
            "live pipeline diverges from replay at lsn {lsn}"
        );
    }

    // The sweep: every op is a crash site, under each crash model.
    for k in 0..total_ops {
        check_crash_point(
            &fx,
            &states,
            log.ops_after_create,
            FailPoint::CrashBeforeOp(k),
        );
        check_crash_point(
            &fx,
            &states,
            log.ops_after_create,
            FailPoint::CrashAfterOp(k),
        );
        check_crash_point(
            &fx,
            &states,
            log.ops_after_create,
            // Vary the tear length with the op index: 1 byte up to 13 —
            // inside the length prefix, the CRC, and the payload.
            FailPoint::ShortWrite {
                op: k,
                keep: 1 + (k as usize * 7) % 13,
            },
        );
    }
}

/// A crash that fires *inside* `Database::record_mutation` (where errors
/// cannot surface) must poison the hook so the pipeline's next operation
/// reports the death instead of silently continuing with a skipped LSN.
#[test]
fn wal_failure_inside_a_mutation_surfaces_at_the_pipeline() {
    let fx = fixture();
    let vfs = Arc::new(SimVfs::new());
    let generic: Arc<dyn Vfs> = vfs.clone();
    let mut pipe = DurablePipeline::create(
        generic,
        DIR,
        fx.db.clone(),
        fx.fwd.clone(),
        fx.n2v.clone(),
        SYNC_EVERY,
    )
    .unwrap();

    // Arm the next mutating I/O op: the append for the first restored
    // fact dies, the hook latches, and `mutate` reports it.
    vfs.set_fail_point(FailPoint::CrashBeforeOp(vfs.op_count()));
    let err = pipe
        .mutate(|db| restore_journal(db, &fx.journals[0]))
        .unwrap_err();
    assert_eq!(err, WalError::Crashed);
    // Still latched: the pipeline stays dead until recovered.
    assert_eq!(pipe.sync().unwrap_err(), WalError::Crashed);
}

/// A snapshot whose Node2Vec state sits only under the pre-`.v2` tag was
/// written in a layout this build no longer reads: recovery must refuse it
/// as corrupt rather than decode the blob with the wrong section list.
#[test]
fn snapshot_with_only_the_old_node2vec_tag_is_corrupt() {
    let fx = fixture();
    let vfs = Arc::new(SimVfs::new());
    let old = Snapshot::capture(
        &fx.db,
        0,
        vec![
            (FORWARD_BLOB.to_string(), encode_forward(&fx.fwd)),
            ("node2vec".to_string(), encode_node2vec(&fx.n2v)),
        ],
    );
    write_snapshot(vfs.as_ref(), DIR, &old).unwrap();
    let generic: Arc<dyn Vfs> = vfs.clone();
    match DurablePipeline::recover(generic, DIR, SYNC_EVERY) {
        Err(WalError::Corrupt(msg)) => assert!(msg.contains("node2vec"), "{msg}"),
        Err(e) => panic!("expected Corrupt, got {e:?}"),
        Ok(_) => panic!("recovered from a snapshot in the old Node2Vec layout"),
    }
}
