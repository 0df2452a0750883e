//! Benchmarks behind **Table VI**: time to embed newly inserted tuples.
//! The paper's headline to reproduce: in the one-by-one regime, FoRWaRD
//! (one linear solve) beats Node2Vec (SGD continuation) on every dataset.
//!
//! Two groups over a **shared per-dataset setup** (one cascade-deleted
//! database and one trained embedding per method, reused by both groups —
//! which is what lets `world`, the largest dataset, afford a seat here):
//!
//! * `extend_one_tuple` — one cascade group re-inserted, one `extend` call,
//!   per method × dataset (the all-at-once per-tuple cost). Node2Vec's
//!   extend re-smooths only the negative-sampling weights of nodes the
//!   continuation walks visit, then rebuilds the table on reused storage.
//! * `one_by_one_rounds` — the paper's flagship protocol (§VI-E): several
//!   prediction tuples cascade-deleted, then re-inserted **one by one**,
//!   extending after every round. `FoRWaRD-warm` carries the persistent
//!   walk-distribution cache across rounds (journal-replay invalidation
//!   keeps FK-unreachable entries alive — deletes included, via the
//!   journalled fact payloads); `FoRWaRD-cold` solves every round on a
//!   throwaway cache. The two produce bit-identical vectors
//!   (`tests/determinism.rs`); the gap between them is pure cache warmth.
//!
//! Run with: `cargo bench -p bench --bench dynamic_extend`
//! (`STEMBED_BENCH_SCALE` overrides the dataset scale; see scripts/bench.sh
//! `--full`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::DatasetParams;
use reldb::{cascade_delete, restore_journal, Database, DeletionJournal, FactId, RelationId};
use repro::{one_by_one_round, AnyEmbedder, ExperimentConfig, Method};
use std::hint::black_box;
use stembed_core::embedder::ExtendMode;
use stembed_core::{ForwardEmbedding, Node2VecEmbedder};

const DATASETS: [&str; 5] = ["hepatitis", "genes", "mutagenesis", "mondial", "world"];

/// Prediction tuples removed (and re-inserted round by round).
const ROUNDS: usize = 4;

fn quick_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.data.scale = bench::bench_scale(0.08);
    cfg.fwd.epochs = 4;
    cfg.n2v.epochs = 2;
    cfg
}

/// Shared per-dataset setup: `ROUNDS` victims cascade-deleted, then **one**
/// trained embedding per method — both bench groups draw on these instead
/// of training their own.
struct Prepared {
    name: &'static str,
    /// The dataset's database with the victims removed.
    db: Database,
    prediction_rel: RelationId,
    /// Per-victim cascade journals, in deletion order.
    journals: Vec<DeletionJournal>,
    /// The last-deleted victim — the one `extend_one_tuple` re-inserts.
    victim: FactId,
    fwd: ForwardEmbedding,
    n2v: Node2VecEmbedder,
}

fn prepare(cfg: &ExperimentConfig) -> Vec<Prepared> {
    let params = DatasetParams {
        scale: cfg.data.scale,
        ..DatasetParams::default()
    };
    DATASETS
        .iter()
        .map(|&name| {
            let ds = datasets::by_name(name, &params).expect("dataset");
            let mut db = ds.db.clone();
            // Deleting in reverse label order makes `labels[0]` the
            // *last* deletion — i.e. the first cascade group restorable
            // on its own, so `extend_one_tuple` measures re-inserting the
            // same victim the pre-shared-setup revisions of this bench
            // did, and `one_by_one_rounds` restores labels[0..ROUNDS] in
            // ascending order.
            let mut journals = Vec::with_capacity(ROUNDS);
            for i in (0..ROUNDS).rev() {
                journals.push(cascade_delete(&mut db, ds.labels[i].0, true).expect("cascade"));
            }
            let fwd =
                ForwardEmbedding::train(&db, ds.prediction_rel, &cfg.fwd, 3).expect("training");
            let n2v = Node2VecEmbedder::train(&db, &cfg.n2v, 3).with_mode(ExtendMode::OneByOne);
            Prepared {
                name,
                db,
                prediction_rel: ds.prediction_rel,
                journals,
                victim: ds.labels[0].0,
                fwd,
                n2v,
            }
        })
        .collect()
}

fn bench_extend(c: &mut Criterion, prepared: &[Prepared]) {
    let mut group = c.benchmark_group("extend_one_tuple");
    group.sample_size(10);

    for p in prepared {
        // Re-insert the last-deleted cascade group outside the measured
        // loop; the measured operation is `extend` alone, on a fresh clone
        // of the shared trained embedder per iteration.
        let mut db = p.db.clone();
        let restored =
            restore_journal(&mut db, p.journals.last().expect("rounds > 0")).expect("restore");

        for method in Method::all() {
            let trained = match method {
                Method::Forward => AnyEmbedder::Forward(Box::new(p.fwd.clone().into())),
                Method::Node2Vec => AnyEmbedder::Node2Vec(Box::new(p.n2v.clone())),
            };
            group.bench_with_input(BenchmarkId::new(method.name(), p.name), &method, |b, _| {
                b.iter_batched(
                    || trained.clone(),
                    |mut emb| {
                        emb.extend(&db, &restored, 9).expect("extend");
                        black_box(emb.embedding(p.victim).map(|v| v[0]))
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

/// The one-by-one insertion protocol, warm vs cold cache. Each iteration
/// replays all rounds: restore one cascade group, extend the restored
/// prediction tuples, repeat — against a database clone so the journal/
/// epoch machinery runs exactly as in the harness.
fn bench_one_by_one(c: &mut Criterion, prepared: &[Prepared]) {
    let mut group = c.benchmark_group("one_by_one_rounds");
    group.sample_size(10);

    for p in prepared {
        for (label, warm) in [("FoRWaRD-warm", true), ("FoRWaRD-cold", false)] {
            group.bench_with_input(BenchmarkId::new(label, p.name), &warm, |b, &warm| {
                b.iter_batched(
                    || (p.fwd.clone(), p.db.clone()),
                    |(mut emb, mut db)| {
                        for (round, journal) in p.journals.iter().rev().enumerate() {
                            one_by_one_round(
                                &mut emb,
                                &mut db,
                                p.prediction_rel,
                                journal,
                                9,
                                round as u64,
                                warm,
                            );
                        }
                        black_box(emb.len())
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_dynamic(c: &mut Criterion) {
    let prepared = prepare(&quick_cfg());
    bench_extend(c, &prepared);
    bench_one_by_one(c, &prepared);
}

criterion_group!(benches, bench_dynamic);
criterion_main!(benches);
