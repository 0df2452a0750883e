//! Profile the dynamic-extension hot paths: FoRWaRD's walk-distribution
//! cache and Node2Vec's incrementally-maintained negative-sampling table
//! (mirrors `benches/dynamic_extend.rs`).
//!
//! Runs the paper's one-by-one insertion protocol (§VI-E): several
//! prediction tuples are cascade-deleted, the embeddings train on the
//! remainder, and the tuples come back round by round.
//!
//! * **FoRWaRD** extends on the **persistent** cache, whose journal-replay
//!   invalidation keeps FK-unreachable entries warm across rounds (deletes
//!   included, via the journalled fact payloads). Per round it prints the
//!   wall-clock (restore + extends, via the same `repro::one_by_one_round`
//!   the bench measures) plus the cache's hit/miss/evicted deltas and the
//!   prefix tier's reuse share (what fraction of frontier lookups resumed
//!   a cached parent instead of starting a fresh BFS); a throwaway-cache
//!   pass of the same rounds prints last for comparison.
//! * **Node2Vec** extends in insertion-order node ids, catching its
//!   negative-sampling table up per round: it prints how many nodes the
//!   continuation walks dirtied and the SGNS kernel's share of the extend.
//!
//! Run with `cargo run --release --example profile_extend`. Environment
//! knobs: `PROFILE_SCALE` (dataset scale, default 0.08), `PROFILE_ASSERT`
//! (when `1`, fail on cache/sampler stat regressions — the CI smoke mode),
//! `EXACT_LIMIT` (exact-KD support cap, default 128) and `MC_PAIRS`
//! (Monte-Carlo pair budget, default 24).

use reldb::{cascade_delete, restore_journal};
use repro::one_by_one_round;
use std::time::Instant;
use stembed_core::TupleEmbedder;

const ROUNDS: usize = 4;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let assert_mode = std::env::var("PROFILE_ASSERT").is_ok_and(|v| v == "1");
    let params = datasets::DatasetParams {
        scale: env_f64("PROFILE_SCALE", 0.08),
        ..datasets::DatasetParams::default()
    };
    for name in ["hepatitis", "genes", "mutagenesis", "mondial"] {
        let ds = datasets::by_name(name, &params).expect("dataset");
        let rounds = ROUNDS.min(ds.labels.len().saturating_sub(1));
        let mut db = ds.db.clone();
        let mut journals = Vec::with_capacity(rounds);
        for i in 0..rounds {
            journals.push(cascade_delete(&mut db, ds.labels[i].0, true).expect("cascade"));
        }
        // Mirror benches/dynamic_extend.rs: ExperimentConfig::quick() fwd
        // settings with epochs = 4.
        let cfg = stembed_core::ForwardConfig {
            dim: 32,
            max_walk_len: 2,
            nsamples: 25,
            epochs: 4,
            batch_size: 1,
            learning_rate: 0.1,
            nnew_samples: 12,
            kd: stembed_core::kd::KdOptions {
                exact_limit: env_usize("EXACT_LIMIT", 128),
                mc_pairs: env_usize("MC_PAIRS", 24),
                max_attempts: 6,
            },
            ..stembed_core::ForwardConfig::small()
        };
        let emb = stembed_core::ForwardEmbedding::train(&db, ds.prediction_rel, &cfg, 3)
            .expect("training");
        println!(
            "{name}: targets={} embedded={} rounds={rounds} nnew={}",
            emb.targets().len(),
            emb.len(),
            cfg.nnew_samples
        );

        for warm in [true, false] {
            let mut db = db.clone();
            let mut e = emb.clone();
            let mut prev = e.dist_cache().stats();
            let mut total = 0.0;
            for (round, journal) in journals.iter().rev().enumerate() {
                let t = Instant::now();
                one_by_one_round(
                    &mut e,
                    &mut db,
                    ds.prediction_rel,
                    journal,
                    9,
                    round as u64,
                    warm,
                );
                let dt = t.elapsed().as_secs_f64() * 1e3;
                total += dt;
                let s = e.dist_cache().stats();
                if warm {
                    let round_stats = stembed_core::DistCacheStats {
                        hits: s.hits - prev.hits,
                        misses: s.misses - prev.misses,
                        evicted: s.evicted - prev.evicted,
                        prefix_hits: s.prefix_hits - prev.prefix_hits,
                        prefix_misses: s.prefix_misses - prev.prefix_misses,
                        ..Default::default()
                    };
                    println!(
                        "  round {round}: {dt:6.2} ms  hits={:<5} misses={:<5} \
                         evicted={:<4} hit-rate={:4.0}%  prefix-reuse={:4.0}%  entries={}",
                        round_stats.hits,
                        round_stats.misses,
                        round_stats.evicted,
                        100.0 * round_stats.hit_rate(),
                        100.0 * round_stats.prefix_hit_rate(),
                        e.dist_cache().len()
                    );
                }
                prev = s;
            }
            println!(
                "  {} total: {total:.2} ms",
                if warm {
                    "warm (persistent cache)"
                } else {
                    "cold (throwaway caches)"
                }
            );
            if warm && assert_mode {
                let s = e.dist_cache().stats();
                assert!(s.hits > 0, "{name}: warm cache never hit");
                assert_eq!(
                    s.invalidations, 0,
                    "{name}: the restore-only protocol forced a full clear"
                );
                assert!(s.replays > 0, "{name}: no journal replay happened");
                assert!(
                    s.prefix_hits + s.prefix_misses > 0,
                    "{name}: no frontier was ever assembled through the prefix tier"
                );
                // Reuse is a property of the plan's shape: schemes that
                // share step prefixes must resume each other's frontiers.
                // (Some schemas — hepatitis at walk length 2 — branch at
                // the root only, so there is legitimately nothing to
                // share and the plan collapses to the flat scheme list.)
                let plan = e.scheme_plan();
                if plan.shared_step_count() < plan.flat_step_count() {
                    assert!(
                        s.prefix_hits > 0,
                        "{name}: the plan factors {} flat steps into {} shared ones, \
                         yet no frontier was ever resumed",
                        plan.flat_step_count(),
                        plan.shared_step_count()
                    );
                }
            }
        }

        // Node2Vec: the same rounds, catching the negative-sampling table
        // up per round (only dirty nodes re-smoothed). Per round the
        // kernel share (SGNS time / extend wall-clock, from
        // `last_extend_timing`) is printed alongside.
        let mut cfg = repro::ExperimentConfig::quick();
        cfg.n2v.epochs = 2;
        let mut db_n = db.clone();
        let mut n2v = stembed_core::Node2VecEmbedder::train(&db_n, &cfg.n2v, 3);
        let mut prev = n2v.model().negative_stats();
        let mut total = 0.0;
        for (round, journal) in journals.iter().rev().enumerate() {
            let restored = restore_journal(&mut db_n, journal).expect("restore");
            let t = Instant::now();
            n2v.extend(&db_n, &restored, 9 + round as u64)
                .expect("extend");
            let dt = t.elapsed().as_secs_f64() * 1e3;
            total += dt;
            let s = n2v.model().negative_stats();
            let timing = n2v.model().last_extend_timing();
            println!(
                "  n2v round {round}: {dt:6.2} ms  dirty-nodes={:<5} (of {} nodes)  \
                 kernel-share={:3.0}%",
                s.dirty_nodes - prev.dirty_nodes,
                n2v.model().node_count(),
                100.0 * timing.kernel_share(),
            );
            prev = s;
        }
        println!("  n2v total: {total:.2} ms");
        if assert_mode {
            // The regression this guards: the extend path silently going
            // back to full table rebuilds from the raw counts, where it
            // should re-smooth only the dirty nodes.
            let s = n2v.model().negative_stats();
            assert_eq!(s.rebuilds, 1, "{name}: only the static phase rebuilds");
            assert_eq!(
                s.updates,
                journals.len() as u64,
                "{name}: every round must catch up incrementally"
            );
            assert!(s.dirty_nodes > 0, "{name}: updates recorded no dirty nodes");
        }

        // WAL durability (`repro::durable`): the same restore+extend
        // rounds, once bare and once through the WAL-backed pipeline,
        // with per-round WAL bytes, fsync count, and committed snapshot
        // size. The delta of the two medians is the log's overhead on the
        // dynamic protocol (`DURABILITY.md` budget: ≤ 10% at the default
        // fsync batching). Snapshots are taken per round but *outside*
        // the timed window — their cadence is a policy choice, the
        // per-mutation logging is not.
        // `PROFILE_REPS` interleaved repetitions of each pass (fresh
        // clones and a fresh WAL directory per rep) keep the sub-ms
        // rounds out of the noise floor; the medians pool all reps.
        // Rep 0 is the *reporting* rep: it snapshots after every round
        // to print WAL/snapshot stats, and is excluded from the durable
        // medians — serializing megabytes between rounds trashes the
        // caches the next round would have kept warm, which would
        // charge the per-mutation log for a snapshot-cadence policy
        // choice. The timed reps run log-only, like the bare pass.
        let reps = env_usize("PROFILE_REPS", 3).max(2);
        let fwd0 = stembed_core::ForwardEmbedder::from(emb.clone());
        let n2v0 = stembed_core::Node2VecEmbedder::train(&db, &cfg.n2v, 3);
        let wal_dir = std::env::temp_dir()
            .join(format!("stembed-profile-wal-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        // Per-round sample vectors: rounds differ in magnitude (journal
        // sizes differ), so each round gets its own median across reps
        // and the protocol cost is the sum of those medians.
        let mut bare_ms = vec![Vec::with_capacity(reps); journals.len()];
        let mut durable_ms = vec![Vec::with_capacity(reps); journals.len()];
        for rep in 0..reps {
            // Open the pipeline *before* the bare rounds: `create`
            // commits the initial snapshot (megabytes of serialization),
            // and doing it here means that cache pollution is absorbed
            // by the bare pass instead of landing right before the
            // durable rounds it would otherwise penalize.
            let _ = std::fs::remove_dir_all(&wal_dir);
            let vfs: std::sync::Arc<dyn stembed_wal::Vfs> =
                std::sync::Arc::new(stembed_wal::StdVfs);
            let mut pipe = repro::durable::DurablePipeline::create(
                vfs,
                &wal_dir,
                db.clone(),
                fwd0.clone(),
                n2v0.clone(),
                repro::durable::DEFAULT_SYNC_EVERY,
            )
            .expect("durable create");

            let mut db_b = db.clone();
            let mut fwd = fwd0.clone();
            let mut n2v = n2v0.clone();
            for (round, journal) in journals.iter().rev().enumerate() {
                let t = Instant::now();
                let restored = restore_journal(&mut db_b, journal).expect("restore");
                fwd.extend(&db_b, &restored, 1000 + round as u64)
                    .expect("fwd extend");
                n2v.extend(&db_b, &restored, 1000 + round as u64)
                    .expect("n2v extend");
                if rep > 0 {
                    bare_ms[round].push(t.elapsed().as_secs_f64() * 1e3);
                }
            }

            let mut prev_wal = pipe.wal_stats();
            for (round, journal) in journals.iter().rev().enumerate() {
                let t = Instant::now();
                let restored = pipe
                    .mutate(|db| restore_journal(db, journal))
                    .expect("restore");
                pipe.extend(&restored, 1000 + round as u64).expect("extend");
                let dt = t.elapsed().as_secs_f64() * 1e3;
                if rep == 0 {
                    let lsn = pipe.snapshot().expect("snapshot");
                    let snap_bytes = pipe
                        .latest_snapshot_bytes()
                        .expect("snapshot size")
                        .unwrap_or(0);
                    let s = pipe.wal_stats();
                    println!(
                        "  wal round {round}: {dt:6.2} ms  wal-bytes={:<6} fsyncs={}  \
                         snapshot={snap_bytes} B (lsn {lsn})",
                        s.bytes - prev_wal.bytes,
                        s.fsyncs - prev_wal.fsyncs,
                    );
                    prev_wal = s;
                } else {
                    durable_ms[round].push(dt);
                }
            }
            if assert_mode && rep == 0 {
                let s = pipe.wal_stats();
                assert!(
                    s.frames > 0 && s.bytes > 0 && s.fsyncs > 0,
                    "{name}: the durable pass recorded nothing"
                );
            }
        }
        let mb: f64 = bare_ms.iter().map(|r| median(r)).sum();
        let md: f64 = durable_ms.iter().map(|r| median(r)).sum();
        println!(
            "  wal overhead ({} timed reps): bare {mb:.2} ms vs durable {md:.2} ms \
             per protocol (sum of per-round medians, {:+.1}%)",
            reps - 1,
            100.0 * (md - mb) / mb
        );
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}

/// Median of a non-empty slice (mean of the middle two for even lengths).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}
