//! A tiny, dependency-free stand-in for the subset of the
//! [criterion](https://docs.rs/criterion) API that `crates/bench` uses.
//!
//! The build environment of this repository is fully offline, so the real
//! criterion crate (and its large dependency tree) cannot be fetched. The
//! bench sources keep criterion idiom verbatim — `criterion_group!`,
//! `criterion_main!`, `Criterion::benchmark_group`, `Bencher::iter`,
//! `iter_batched`, `BenchmarkId` — and `crates/bench/Cargo.toml` aliases
//! this package as `criterion`. Swapping back to the real harness later is
//! a one-line manifest change.
//!
//! Measurement model: per benchmark, one calibration run picks an iteration
//! count that makes a sample take ≥ ~10 ms, then `sample_size` samples are
//! timed and the mean / median / min nanoseconds-per-iteration reported.
//! When `STEMBED_BENCH_JSON` is set, all results are additionally written
//! to that path as a JSON array (consumed by `scripts/bench.sh`).
//!
//! Like criterion, the first command-line argument that does not start
//! with `-` filters benchmarks by substring of `group/id`:
//! `cargo bench -p bench --bench substrates -- sampling` runs only the
//! matching benchmarks (cargo itself passes `--bench`, hence the skip).

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target minimum wall time per timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark group name.
    pub group: String,
    /// Benchmark id within the group (function name / parameter).
    pub id: String,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

/// Collects benchmark results; the `criterion_main!`-generated `main`
/// finalizes and prints/writes the summary.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
    /// Substring a benchmark's `group/id` must contain to run.
    filter: Option<String>,
}

impl Criterion {
    /// A collector whose name filter is the first argument of `args`
    /// (program name excluded) that does not start with `-`; no such
    /// argument means every benchmark runs.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        Criterion {
            results: Vec::new(),
            filter: args.into_iter().find(|a| !a.starts_with('-')),
        }
    }

    fn selects(&self, group: &str, id: &str) -> bool {
        self.filter
            .as_deref()
            .is_none_or(|f| format!("{group}/{id}").contains(f))
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Top-level `bench_function` (criterion allows skipping the group).
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("crate");
        group.bench_function(id, f);
        group.finish();
    }

    /// All collected results (ordered by execution).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Print the summary table and, when `STEMBED_BENCH_JSON` is set, write
    /// the JSON report. Called by the `criterion_main!` expansion.
    pub fn final_summary(&self) {
        println!("\n{:<52} {:>14} {:>14}", "benchmark", "median", "mean");
        for r in &self.results {
            println!(
                "{:<52} {:>14} {:>14}",
                format!("{}/{}", r.group, r.id),
                format_ns(r.median_ns),
                format_ns(r.mean_ns),
            );
        }
        if let Ok(path) = std::env::var("STEMBED_BENCH_JSON") {
            if !path.is_empty() {
                let json = self.to_json();
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("criterion-shim: cannot write {path}: {e}");
                } else {
                    println!("\nwrote {path}");
                }
            }
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"group\": \"{}\", \"id\": \"{}\", \"mean_ns\": {:.1}, \
                 \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}, \"iters\": {}}}",
                escape(&r.group),
                escape(&r.id),
                r.mean_ns,
                r.median_ns,
                r.min_ns,
                r.samples,
                r.iters,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// A named group of benchmarks sharing a sample-size setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (criterion default: 100; shim
    /// default: 10 — these are macro-benchmarks).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Measure a closure (skipped when the name filter rejects it).
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if self.criterion.selects(&self.name, &id) {
            let mut bencher = Bencher::new(self.sample_size);
            f(&mut bencher);
            self.record(id, bencher);
        }
        self
    }

    /// Measure a closure parameterised by an input (skipped when the name
    /// filter rejects it).
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.to_string();
        if self.criterion.selects(&self.name, &id) {
            let mut bencher = Bencher::new(self.sample_size);
            f(&mut bencher, input);
            self.record(id, bencher);
        }
        self
    }

    /// Close the group (accepted for API parity; results are already
    /// recorded eagerly).
    pub fn finish(self) {}

    fn record(&mut self, id: String, bencher: Bencher) {
        let Some(summary) = bencher.summarize() else {
            return;
        };
        let (mean_ns, median_ns, min_ns, samples, iters) = summary;
        println!(
            "{}/{}: median {} (mean {}, {} samples × {} iters)",
            self.name,
            id,
            format_ns(median_ns),
            format_ns(mean_ns),
            samples,
            iters
        );
        self.criterion.results.push(BenchResult {
            group: self.name.clone(),
            id,
            mean_ns,
            median_ns,
            min_ns,
            samples,
            iters,
        });
    }
}

/// Benchmark id: function name plus a parameter, rendered `name/param`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        BenchmarkId {
            name: name.into(),
            param: param.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.name, self.param)
    }
}

/// Batch sizing hint for [`Bencher::iter_batched`]; the shim treats all
/// variants as "one routine call per measurement".
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state (cloned databases, trained models, …).
    LargeInput,
}

/// Times closures; handed to the benchmark body.
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
    iters: u64,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            samples_ns: Vec::new(),
            iters: 1,
        }
    }

    /// Time `f`, auto-calibrating the per-sample iteration count.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // Calibration run (also warms caches).
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        self.iters = iters;
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples_ns
                .push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }

    /// Time `routine` on fresh `setup` output each iteration; setup is not
    /// timed. One routine call per sample (the workloads here are ≫ timer
    /// resolution).
    pub fn iter_batched<S, O, FS, FR>(&mut self, mut setup: FS, mut routine: FR, _size: BatchSize)
    where
        FS: FnMut() -> S,
        FR: FnMut(S) -> O,
    {
        self.iters = 1;
        // Warm-up, untimed.
        black_box(routine(setup()));
        for _ in 0..self.sample_size {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples_ns.push(t.elapsed().as_nanos() as f64);
        }
    }

    fn summarize(&self) -> Option<(f64, f64, f64, usize, u64)> {
        if self.samples_ns.is_empty() {
            return None;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let median = sorted[sorted.len() / 2];
        Some((mean, median, sorted[0], sorted.len(), self.iters))
    }
}

/// Mirror of criterion's `criterion_group!`: defines a function running the
/// listed benchmarks against a shared [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Mirror of criterion's `criterion_main!`: generates `main`, which reads
/// the name filter from the command line ([`Criterion::from_args`]).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args(std::env::args().skip(1));
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_function("busy", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        g.bench_with_input(BenchmarkId::new("param", 7), &7usize, |b, &x| {
            b.iter(|| x * 2);
        });
        g.finish();
        assert_eq!(c.results().len(), 2);
        assert!(c.results()[0].mean_ns > 0.0);
        assert_eq!(c.results()[1].id, "param/7");
    }

    #[test]
    fn iter_batched_times_routine_only() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::LargeInput);
        });
        g.finish();
        assert_eq!(c.results().len(), 1);
        assert_eq!(c.results()[0].samples, 2);
    }

    #[test]
    fn first_non_flag_argument_filters_by_group_and_id() {
        let args = ["--bench", "sampling"].map(String::from);
        let mut c = Criterion::from_args(args);
        let mut g = c.benchmark_group("negative_sampling");
        g.sample_size(2);
        g.bench_function("alias", |b| b.iter(|| 1u8));
        g.finish();
        let mut g = c.benchmark_group("walks");
        g.sample_size(2);
        let mut ran = false;
        g.bench_function("corpus", |b| {
            ran = true;
            b.iter(|| 1u8);
        });
        g.bench_with_input(BenchmarkId::new("param", 3), &3u8, |b, &x| {
            ran = true;
            b.iter(|| x);
        });
        g.finish();
        assert!(!ran, "benches outside the filter must not run");
        let names: Vec<String> = c
            .results()
            .iter()
            .map(|r| format!("{}/{}", r.group, r.id))
            .collect();
        assert_eq!(names, ["negative_sampling/alias"]);

        // Flags alone select everything.
        let mut c = Criterion::from_args(["--bench".to_string()]);
        let mut g = c.benchmark_group("walks");
        g.sample_size(2);
        g.bench_function("corpus", |b| b.iter(|| 1u8));
        g.finish();
        assert_eq!(c.results().len(), 1);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let mut c = Criterion::default();
        c.results.push(BenchResult {
            group: "a\"b".into(),
            id: "x".into(),
            mean_ns: 1.0,
            median_ns: 1.0,
            min_ns: 1.0,
            samples: 1,
            iters: 1,
        });
        let j = c.to_json();
        assert!(j.contains("a\\\"b"));
        assert!(j.trim_start().starts_with('['));
        assert!(j.trim_end().ends_with(']'));
    }
}
