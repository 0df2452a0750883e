//! The repository benchmark: two workloads over the stembed pipeline,
//! measured end to end (untraced) and per layer (traced). `WORKLOADS.md`
//! says why each workload exists, which layers it stresses and bypasses,
//! and which end-to-end metric each per-layer metric should move.

pub mod durable_churn;
pub mod heap;
pub mod host;
pub mod layers;
pub mod one_by_one;
pub mod setup;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// A reported metric: name and unit. `exact` marks counters that must
/// repeat bit for bit for a fixed seed.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

/// Printed by every untraced run, for every workload.
pub const END_TO_END: [MetricDef; 5] = [
    m("setup_s", "s"),
    m("peak_heap_mb", "MiB"),
    m("ops_per_s", "1/s"),
    m("op_ms_p50", "ms"),
    m("op_ms_p95", "ms"),
];

/// Printed by every traced run, for every workload; a layer the workload
/// does not call reads 0.
pub const PER_LAYER: [MetricDef; 47] = [
    m("datasets.generate_s", "s"),
    m("reldb.cascade_delete_ms", "ms"),
    m("reldb.restore_ms", "ms"),
    exact("reldb.facts_per_group", "facts"),
    m("core.train_s", "s"),
    m("core.extend_ms", "ms"),
    m("core.extend_ms_p95", "ms"),
    exact("distcache.hits", "count"),
    exact("distcache.misses", "count"),
    exact("distcache.hit_rate", "ratio"),
    exact("distcache.evicted", "count"),
    exact("distcache.replays", "count"),
    exact("distcache.invalidations", "count"),
    exact("distcache.prefix_hits", "count"),
    exact("distcache.prefix_misses", "count"),
    exact("distcache.prefix_hit_rate", "ratio"),
    exact("distcache.kd_hits", "count"),
    exact("distcache.kd_misses", "count"),
    exact("distcache.kd_hit_rate", "ratio"),
    exact("plan.schemes", "count"),
    exact("plan.flat_steps", "count"),
    exact("plan.shared_steps", "count"),
    m("node2vec.train_s", "s"),
    m("node2vec.extend_ms", "ms"),
    m("node2vec.extend_ms_p95", "ms"),
    exact("node2vec.corpus_tokens", "count"),
    exact("node2vec.dirty_nodes", "count"),
    exact("node2vec.buckets_rebuilt", "count"),
    exact("node2vec.bucket_rebuild_ratio", "ratio"),
    m("durable.insert_ms", "ms"),
    m("durable.insert_ms_p95", "ms"),
    m("durable.delete_ms", "ms"),
    m("durable.delete_ms_p95", "ms"),
    m("durable.mutate_ms", "ms"),
    m("durable.extend_ms", "ms"),
    m("durable.snapshot_ms", "ms"),
    exact("durable.snapshot_bytes", "bytes"),
    m("durable.recover_s", "s"),
    exact("wal.frames", "count"),
    exact("wal.bytes", "bytes"),
    exact("wal.fsyncs", "count"),
    exact("wal.bytes_per_op", "bytes"),
    exact("wal.replay_frames", "count"),
    exact("quality.fwd_accuracy", "ratio"),
    exact("quality.n2v_accuracy", "ratio"),
    m("trace.overhead_pct", "%"),
    m("trace.spans", "count"),
];

/// The named workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["one_by_one", "durable_churn"];

/// How big a run is: `Full` is the benchmark, `Short` the self-test's
/// scaled-down copy of the same workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Short,
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed region, split evenly over the set-ups'
    /// segments; each segment makes at least one pass.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Whether pass `i` of a run records spans: a traced run alternates, so
/// its untraced passes measure the tracing overhead.
pub fn pass_traced(cfg: &RunConfig, pass: usize) -> bool {
    cfg.trace && pass % 2 == 1
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations of the timed stream that were attempted.
    pub attempted: u64,
    /// Of those, operations whose layer call returned `Err`.
    pub failed: u64,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    /// The first few errors of failed operations.
    pub errors: Vec<String>,
    /// Metric values by name (any metric of either catalogue).
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the timing metrics.
    pub samples: BTreeMap<&'static str, usize>,
    /// Per-span-name totals of a traced run.
    pub spans: BTreeMap<&'static str, trace::SpanSummary>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record the median of `samples_s` (seconds) under `name`, scaled by
    /// `scale` (1000 for milliseconds).
    pub fn median(&mut self, name: &'static str, samples_s: &[f64], scale: f64) {
        self.set(name, stats::median(samples_s) * scale);
        self.samples.insert(name, samples_s.len());
    }

    /// Record the median and the 95th percentile of `samples_s` in ms.
    pub fn latency(&mut self, p50: &'static str, p95: &'static str, samples_s: &[f64]) {
        self.median(p50, samples_s, 1e3);
        self.set(p95, stats::percentile(samples_s, 95.0) * 1e3);
        self.samples.insert(p95, samples_s.len());
    }

    /// Record an output check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Count one attempted operation and whether it failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e.to_string());
                }
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The `exact` metrics of the per-layer catalogue, for comparing runs.
    pub fn exact_counters(&self) -> BTreeMap<&'static str, f64> {
        PER_LAYER
            .iter()
            .filter(|d| d.exact)
            .map(|d| (d.name, self.values.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Run one named workload; returns what it measured and its spans.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<(Outcome, trace::Tracer), String> {
    let mut out = Outcome::default();
    let mut tracer = trace::Tracer::new(cfg.trace);
    match workload {
        "one_by_one" => one_by_one::run(cfg, &mut tracer, &mut out),
        "durable_churn" => durable_churn::run(cfg, &mut tracer, &mut out),
        other => return Err(format!("unknown workload {other:?}")),
    }?;
    out.set("peak_heap_mb", heap::peak_mb());
    if cfg.trace {
        layers::record_spans(&tracer, &mut out);
        out.set("trace.spans", tracer.span_count() as f64);
        out.spans = tracer.summary();
    }
    Ok((out, tracer))
}
