//! Microbenchmarks of the substrate crates: the operations every
//! experiment is built from.
//!
//! Run with: `cargo bench -p bench --bench substrates`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbgraph::{DbGraph, WalkConfig, Walker};
use linalg::{lstsq, LstsqMethod, Matrix};
use std::hint::black_box;
use stembed_runtime::rng::DetRng;

fn bench_linalg(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg");
    // The FoRWaRD dynamic solve: overdetermined k×d systems.
    for (rows, cols) in [(128usize, 32usize), (512, 64), (1024, 100)] {
        let mut rng = DetRng::seed_from_u64(1);
        let a = Matrix::random_uniform(rows, cols, 1.0, &mut rng);
        let b: Vec<f64> = (0..rows).map(|i| (i % 7) as f64 * 0.1).collect();
        group.bench_with_input(
            BenchmarkId::new("pinv_solve", format!("{rows}x{cols}")),
            &(rows, cols),
            |bench, _| bench.iter(|| black_box(lstsq(&a, &b, LstsqMethod::PseudoInverse).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("ridge_solve", format!("{rows}x{cols}")),
            &(rows, cols),
            |bench, _| bench.iter(|| black_box(lstsq(&a, &b, LstsqMethod::Ridge(1e-6)).unwrap())),
        );
    }
    group.finish();
}

fn bench_kernel(c: &mut Criterion) {
    use stembed_runtime::kernel;
    let mut group = c.benchmark_group("kernel");
    // SGNS rows at the paper's dim=100.
    let d = 100usize;
    let mut rng = DetRng::seed_from_u64(7);
    let xf: Vec<f32> = (0..d).map(|_| rng.random_range(-1.0..1.0) as f32).collect();
    let yf: Vec<f32> = (0..d).map(|_| rng.random_range(-1.0..1.0) as f32).collect();
    // f32 rows, f64 accumulation — the mixed-precision hot ops.
    group.bench_function("dot_f32_d64", |b| {
        b.iter(|| black_box(kernel::dot_f32(black_box(&xf), black_box(&yf))));
    });
    group.bench_function("axpy_f32_d64", |b| {
        let mut out = yf.clone();
        b.iter(|| {
            kernel::axpy_f32(black_box(0.01), black_box(&xf), &mut out);
            black_box(out[0])
        });
    });
    group.bench_function("sgns_pair_step", |b| {
        let mut out = yf.clone();
        let mut cgrad = vec![0.0f64; d];
        b.iter(|| {
            kernel::sgns_pair_step(black_box(0.01), black_box(&xf), &mut out, &mut cgrad);
            black_box(cgrad[0])
        });
    });
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    let params = datasets::DatasetParams {
        scale: 0.15,
        ..Default::default()
    };
    let ds = datasets::hepatitis::generate(&params);
    group.bench_function("build_bipartite_graph", |b| {
        b.iter(|| black_box(DbGraph::build(&ds.db).graph().node_count()));
    });
    let graph = DbGraph::build(&ds.db);
    group.bench_function("walk_corpus_2x10", |b| {
        b.iter(|| {
            let cfg = WalkConfig {
                walks_per_node: 2,
                walk_length: 10,
                p: 1.0,
                q: 1.0,
            };
            let corpus = Walker::new(graph.graph(), cfg, 3).corpus();
            black_box(corpus.total_tokens())
        });
    });
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    use stembed_runtime::AliasTable;
    let mut group = c.benchmark_group("sampling");
    // Distribution shaped like a node-visit histogram (Zipf-ish).
    let n = 4096usize;
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + 100_000.0 / (i + 1) as f64).collect();
    // The O(1) alias path (what NegativeTable uses) vs the O(log n) CDF
    // binary search it replaced.
    let alias = AliasTable::new(&weights);
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total = *cumulative.last().unwrap();
    group.bench_function("alias_sample_4096", |b| {
        let mut rng = DetRng::seed_from_u64(1);
        b.iter(|| black_box(alias.sample(&mut rng)));
    });
    group.bench_function("cdf_sample_4096", |b| {
        let mut rng = DetRng::seed_from_u64(2);
        b.iter(|| {
            let x = rng.random_range(0.0..total);
            black_box(cumulative.partition_point(|&c| c <= x).min(n - 1))
        });
    });
    group.finish();
}

fn bench_prefix_frontier(c: &mut Criterion) {
    use stembed_core::walkdist::destination_distribution_status;
    use stembed_core::{target_pairs, DistCache, SchemePlan};
    let mut group = c.benchmark_group("prefix_frontier_reuse");
    let params = datasets::DatasetParams {
        scale: 0.15,
        ..Default::default()
    };
    let ds = datasets::mutagenesis::generate(&params);
    let rel = ds.prediction_rel;
    // The dynamic-extension access pattern: every *target* needs its
    // scheme's destination distribution for every start. Targets share
    // schemes, and schemes share step prefixes.
    let targets = target_pairs(ds.db.schema(), rel, 3);
    let plan = SchemePlan::from_targets(rel, &targets);
    let starts: Vec<reldb::FactId> = ds.db.fact_ids(rel).into_iter().take(16).collect();
    const LIMIT: usize = 256;
    // Per-target evaluation with nothing shared: a fresh ℓ-step BFS for
    // every (target, start) — what independent per-target work items do
    // without a shared warm cache.
    group.bench_function("flat_bfs", |b| {
        b.iter(|| {
            let mut live = 0usize;
            for &start in &starts {
                for t in &targets {
                    if destination_distribution_status(&ds.db, &t.scheme, start, LIMIT)
                        .exists()
                        .is_some()
                    {
                        live += 1;
                    }
                }
            }
            black_box(live)
        });
    });
    // The same lookups through a fresh cache pre-warmed in plan-DFS
    // order: each scheme's BFS resumes its parent's cached frontier
    // ("parent + 1 step"), and the per-target lookups then hit the fact
    // tier. The cache stores the plan's persist prefixes, as the dynamic
    // phase's does.
    let persist = std::sync::Arc::new(plan.persist_prefixes());
    group.bench_function("plan_cached", |b| {
        b.iter(|| {
            let mut cache = DistCache::new(std::sync::Arc::clone(&persist));
            cache.ensure_bound(&ds.db, LIMIT);
            let mut view = cache.view();
            let mut live = 0usize;
            for &start in &starts {
                for idx in plan.dfs() {
                    let node = plan.node(idx);
                    if node.is_scheme() {
                        view.fact_distribution(&ds.db, node.prefix(), start);
                    }
                }
                for t in &targets {
                    if view
                        .fact_distribution(&ds.db, &t.scheme, start)
                        .exists()
                        .is_some()
                    {
                        live += 1;
                    }
                }
            }
            black_box(live)
        });
    });
    group.finish();
}

fn bench_db(c: &mut Criterion) {
    let mut group = c.benchmark_group("reldb");
    let params = datasets::DatasetParams {
        scale: 0.15,
        ..Default::default()
    };
    let ds = datasets::hepatitis::generate(&params);
    group.bench_function("cascade_delete_and_restore", |b| {
        b.iter_batched(
            || ds.db.clone(),
            |mut db| {
                let victim = ds.labels[0].0;
                let journal = reldb::cascade_delete(&mut db, victim, true).unwrap();
                reldb::restore_journal(&mut db, &journal).unwrap();
                black_box(db.total_facts())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_svm(c: &mut Criterion) {
    use ml::{BinaryClassifier, RbfSvm, SvmParams};
    let mut group = c.benchmark_group("ml");
    let n = 200;
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![(i % 17) as f64 * 0.2, ((i * 7) % 13) as f64 * 0.3])
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            if (i % 17) + ((i * 7) % 13) > 14 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    group.bench_function("rbf_svm_fit_200", |b| {
        b.iter(|| {
            let mut svm = RbfSvm::new(SvmParams {
                c: 10.0,
                ..SvmParams::default()
            });
            svm.fit(&x, &y);
            black_box(svm.support_count())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_linalg,
    bench_kernel,
    bench_graph,
    bench_sampling,
    bench_prefix_frontier,
    bench_db,
    bench_svm
);
criterion_main!(benches);
