//! What the dynamic workloads share: the held-out set-up of the paper's
//! dynamic protocol (§VI-E steps 1–2), the new-tuple accuracy of step 5,
//! and the output checks on the embedders.

use crate::trace::Tracer;
use crate::{Outcome, RunConfig, Size};
use datasets::{Dataset, DatasetParams};
use ml::{accuracy, OneVsRest, RbfSvm, StandardScaler, SvmParams};
use reldb::{cascade_delete, Database, DeletionJournal, FactId, RelationId};
use repro::ExperimentConfig;
use std::time::Instant;
use stembed_core::{ForwardEmbedder, Node2VecEmbedder, TupleEmbedder};
use stembed_runtime::{derive_seed, DetRng, Runtime};

/// Shards every trainer and extension runs on (this host's `nproc`). Never
/// read from `STEMBED_SHARDS`.
pub const SHARDS: usize = 2;

/// The databases and the held-out choice are fixed — drawn from the dataset
/// crate's default seed — so that a workload's size and shape do not vary
/// with `--seed`; the workload seed drives everything done to them
/// (training seeds, extension seeds, the churn stream, CV folds).
pub const DATASET_SEED: u64 = 2023;

/// Set-ups per run of the dynamic workloads (`setup_s` is their median).
pub const SETUP_REPS: usize = 3;

/// Share of the prediction tuples held out and restored by the stream.
pub const HELD_OUT: f64 = 1.0 / 3.0;

// Streams of `DATASET_SEED` (fixed choices) and of the workload seed.
pub const STREAM_HOLD_OUT: u64 = 1;
pub const STREAM_FWD_TRAIN: u64 = 2;
pub const STREAM_N2V_TRAIN: u64 = 3;
pub const STREAM_EXTEND: u64 = 4;
pub const STREAM_CHURN: u64 = 5;
pub const STREAM_CLASSIFIER: u64 = 6;
pub const STREAM_HOT: u64 = 7;

pub fn runtime() -> Runtime {
    Runtime::new(SHARDS)
}

/// `ExperimentConfig::quick()` on the fixed database at `scale`.
pub fn config(scale: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.data = DatasetParams {
        seed: DATASET_SEED,
        scale,
        ..cfg.data
    };
    cfg
}

/// Genes scale of the dynamic workloads.
fn genes_scale(size: Size) -> f64 {
    match size {
        Size::Full => 0.25,
        Size::Short => 0.1,
    }
}

/// The database with the held-out tuples deleted, and both embedders
/// trained on it.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub ds: Dataset,
    pub db: Database,
    /// Held-out prediction tuples with their cascade journals, in deletion
    /// order; the stream restores them in reverse.
    pub held_out: Vec<(FactId, DeletionJournal)>,
    pub fwd: ForwardEmbedder,
    pub n2v: Node2VecEmbedder,
}

/// Stratified held-out choice: per class, `HELD_OUT` of its tuples (at
/// least one stays old), then shuffled into the deletion order.
fn choose_held_out(ds: &Dataset, rng: &mut DetRng) -> Vec<FactId> {
    let mut per_class: Vec<Vec<FactId>> = vec![Vec::new(); ds.class_count()];
    for (f, c) in &ds.labels {
        per_class[*c].push(*f);
    }
    let mut chosen = Vec::new();
    for bucket in &mut per_class {
        shuffle(bucket, rng);
        let take =
            ((bucket.len() as f64 * HELD_OUT).round() as usize).min(bucket.len().saturating_sub(1));
        chosen.extend_from_slice(&bucket[..take]);
    }
    shuffle(&mut chosen, rng);
    chosen
}

pub fn shuffle<T>(items: &mut [T], rng: &mut DetRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Generate genes, cascade-delete the held-out tuples, train both
/// embedders on the rest; also returns the wall-clock it took.
pub fn prepare(size: Size, seed: u64, tr: &mut Tracer) -> Result<(Prepared, f64), String> {
    let start = Instant::now();
    let cfg = config(genes_scale(size));
    let ds = tr.span("datasets.generate", |_| {
        datasets::genes::generate(&cfg.data)
    });
    let mut db = ds.db.clone();
    let mut rng = DetRng::seed_from_u64(derive_seed(DATASET_SEED, STREAM_HOLD_OUT));
    let mut held_out = Vec::new();
    for f in choose_held_out(&ds, &mut rng) {
        // Cascades share FK targets, so an earlier cascade may already
        // have removed this tuple; it then comes back with that group.
        if db.fact(f).is_none() {
            continue;
        }
        let journal = tr
            .span("reldb.cascade_delete", |_| cascade_delete(&mut db, f, true))
            .map_err(|e| format!("held-out cascade delete of {f}: {e}"))?;
        held_out.push((f, journal));
    }
    let fwd = tr
        .span("core.train", |_| {
            ForwardEmbedder::train_with_runtime(
                &db,
                ds.prediction_rel,
                &cfg.fwd,
                derive_seed(seed, STREAM_FWD_TRAIN),
                runtime(),
            )
        })
        .map_err(|e| format!("forward training: {e}"))?;
    let n2v = tr.span("node2vec.train", |_| {
        Node2VecEmbedder::train_localized_with_runtime(
            &db,
            ds.prediction_rel,
            &cfg.n2v,
            derive_seed(seed, STREAM_N2V_TRAIN),
            runtime(),
        )
    });
    Ok((
        Prepared {
            ds,
            db,
            held_out,
            fwd,
            n2v,
        },
        start.elapsed().as_secs_f64(),
    ))
}

/// Set up [`SETUP_REPS`] times and run `segment` on each set-up with its
/// index. Set-ups alternate with the timed segments, so a run's passes
/// spread over its whole length instead of its last part. Records
/// `setup_s` as the median and checks that every set-up trained
/// bit-identical embedders, which makes the passes of all segments the
/// same work.
pub fn with_setups(
    cfg: &RunConfig,
    tr: &mut Tracer,
    out: &mut Outcome,
    mut segment: impl FnMut(&Prepared, usize, &mut Tracer, &mut Outcome) -> Result<(), String>,
) -> Result<(), String> {
    let mut totals = Vec::new();
    let mut first: Option<Frozen> = None;
    for rep in 0..SETUP_REPS {
        tr.set_enabled(cfg.trace);
        let (prep, t) = prepare(cfg.size, cfg.seed, tr)?;
        tr.set_enabled(false);
        totals.push(t);
        let frozen = Frozen::capture(&prep.db, &prep.fwd, &prep.n2v);
        match &first {
            None => first = Some(frozen),
            Some(f) => out.check(*f == frozen, || {
                "repeated set-ups trained different embeddings".to_string()
            }),
        }
        segment(&prep, rep, tr, out)?;
    }
    out.median("setup_s", &totals, 1.0);
    Ok(())
}

/// Stream time by which segment `rep` ends: the run's `seconds` split
/// evenly over the set-ups.
pub fn segment_end(cfg: &RunConfig, rep: usize) -> f64 {
    cfg.seconds * (rep + 1) as f64 / SETUP_REPS as f64
}

/// Prediction-relation facts that are live in `db` and not held out: the
/// old tuples the downstream classifier trains on.
pub fn old_tuples(prep: &Prepared) -> Vec<FactId> {
    prep.ds
        .labels
        .iter()
        .map(|(f, _)| *f)
        .filter(|f| prep.db.fact(*f).is_some())
        .collect()
}

/// Every prediction tuple the stream brings back.
pub fn new_tuples(prep: &Prepared) -> Vec<FactId> {
    prep.ds
        .labels
        .iter()
        .map(|(f, _)| *f)
        .filter(|f| prep.db.fact(*f).is_none())
        .collect()
}

fn features(emb: &impl TupleEmbedder, facts: &[FactId]) -> Vec<Vec<f64>> {
    facts
        .iter()
        .map(|f| emb.embedding(*f).unwrap_or_else(|| vec![0.0; emb.dim()]))
        .collect()
}

/// The downstream classifier of `repro::harness` (one-vs-rest RBF-SVM,
/// C = 10, on standardised features).
fn svm(seed: u64) -> RbfSvm {
    RbfSvm::new(SvmParams {
        c: 10.0,
        max_passes: 5,
        max_iter: 400,
        seed,
        ..SvmParams::default()
    })
}

/// Dynamic protocol step 5: fit the classifier on the old tuples, score it
/// on the new ones.
pub fn new_tuple_accuracy(
    ds: &Dataset,
    emb: &impl TupleEmbedder,
    old: &[FactId],
    new: &[FactId],
    seed: u64,
) -> f64 {
    let label = |f: &FactId| ds.label_of(*f).unwrap_or(usize::MAX);
    let old_y: Vec<usize> = old.iter().map(label).collect();
    let (scaler, x_old) = StandardScaler::fit_transform(&features(emb, old));
    let classifier_seed = derive_seed(seed, STREAM_CLASSIFIER);
    let model = OneVsRest::fit(&x_old, &old_y, ds.class_count(), || svm(classifier_seed));
    let preds: Vec<usize> = features(emb, new)
        .into_iter()
        .map(|mut row| {
            scaler.transform_row(&mut row);
            model.predict(&row)
        })
        .collect();
    let truth: Vec<usize> = new.iter().map(label).collect();
    accuracy(&preds, &truth)
}

/// Bit patterns of every old vector of both embedders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frozen {
    fwd: Vec<(FactId, Vec<u64>)>,
    n2v: Vec<(FactId, Vec<u32>)>,
}

fn fwd_bits(fwd: &ForwardEmbedder, f: FactId) -> Option<Vec<u64>> {
    fwd.inner()
        .embedding(f)
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
}

fn n2v_bits(n2v: &Node2VecEmbedder, f: FactId) -> Option<Vec<u32>> {
    n2v.graph().fact_node(f).map(|node| {
        n2v.model()
            .embedding(node)
            .iter()
            .map(|x| x.to_bits())
            .collect()
    })
}

impl Frozen {
    /// Capture the FoRWaRD vector of every embedded fact and the Node2Vec
    /// vector of every live fact of `db`.
    pub fn capture(db: &Database, fwd: &ForwardEmbedder, n2v: &Node2VecEmbedder) -> Self {
        let mut fwd_facts: Vec<FactId> = fwd.inner().embedded_facts().collect();
        fwd_facts.sort();
        let fwd_vecs = fwd_facts
            .into_iter()
            .filter_map(|f| fwd_bits(fwd, f).map(|b| (f, b)))
            .collect();
        let n2v_vecs = (0..db.schema().relations().len())
            .flat_map(|r| db.fact_ids(RelationId(r as u32)))
            .filter_map(|f| n2v_bits(n2v, f).map(|b| (f, b)))
            .collect();
        Frozen {
            fwd: fwd_vecs,
            n2v: n2v_vecs,
        }
    }

    /// Stability (the paper's §III contract): no old vector moved.
    pub fn verify(&self, fwd: &ForwardEmbedder, n2v: &Node2VecEmbedder, out: &mut Outcome) {
        let fwd_moved = self
            .fwd
            .iter()
            .filter(|(f, bits)| fwd_bits(fwd, *f).as_ref() != Some(bits))
            .count();
        out.check(fwd_moved == 0, || {
            format!("{fwd_moved} old FoRWaRD vectors changed")
        });
        let n2v_moved = self
            .n2v
            .iter()
            .filter(|(f, bits)| n2v_bits(n2v, *f).as_ref() != Some(bits))
            .count();
        out.check(n2v_moved == 0, || {
            format!("{n2v_moved} old Node2Vec vectors changed")
        });
    }
}

/// Every restored prediction tuple has a finite vector in both embedders.
pub fn verify_new(
    fwd: &ForwardEmbedder,
    n2v: &Node2VecEmbedder,
    new: &[FactId],
    out: &mut Outcome,
) {
    let finite = |v: Option<Vec<f64>>| v.is_some_and(|v| v.iter().all(|x| x.is_finite()));
    let bad_fwd = new.iter().filter(|f| !finite(fwd.embedding(**f))).count();
    let bad_n2v = new.iter().filter(|f| !finite(n2v.embedding(**f))).count();
    out.check(bad_fwd == 0 && bad_n2v == 0, || {
        format!("restored tuples without a finite vector: FoRWaRD {bad_fwd}, Node2Vec {bad_n2v}")
    });
}
