//! Per-layer metrics: counters read from the stats structs the layers
//! expose, latencies read from the benchmark's own spans, and the
//! operation timings every workload reports end to end.

use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use node2vec::NegativeTableStats;
use stembed_core::{DistCacheStats, ForwardEmbedder, Node2VecEmbedder};

/// Counter name → value, in catalogue order of insertion.
pub type Counters = Vec<(&'static str, f64)>;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `DistCache` activity between two snapshots of its stats.
fn distcache(before: DistCacheStats, after: DistCacheStats) -> Counters {
    let d = |a: u64, b: u64| b.saturating_sub(a);
    let hits = d(before.hits, after.hits);
    let misses = d(before.misses, after.misses);
    let prefix_hits = d(before.prefix_hits, after.prefix_hits);
    let prefix_misses = d(before.prefix_misses, after.prefix_misses);
    let kd_hits = d(before.kd_hits, after.kd_hits);
    let kd_misses = d(before.kd_misses, after.kd_misses);
    vec![
        ("distcache.hits", hits as f64),
        ("distcache.misses", misses as f64),
        ("distcache.hit_rate", ratio(hits, hits + misses)),
        ("distcache.evicted", d(before.evicted, after.evicted) as f64),
        ("distcache.replays", d(before.replays, after.replays) as f64),
        (
            "distcache.invalidations",
            d(before.invalidations, after.invalidations) as f64,
        ),
        ("distcache.prefix_hits", prefix_hits as f64),
        ("distcache.prefix_misses", prefix_misses as f64),
        (
            "distcache.prefix_hit_rate",
            ratio(prefix_hits, prefix_hits + prefix_misses),
        ),
        ("distcache.kd_hits", kd_hits as f64),
        ("distcache.kd_misses", kd_misses as f64),
        ("distcache.kd_hit_rate", ratio(kd_hits, kd_hits + kd_misses)),
    ]
}

/// Negative-table maintenance between two snapshots of its stats, and the
/// share of the buckets its updates rebuilt (`bucket_count` is the count
/// after the updates; the table grows with the graph).
fn negative_table(
    before: NegativeTableStats,
    after: NegativeTableStats,
    bucket_count: usize,
) -> Counters {
    let updates = after.updates - before.updates;
    let rebuilt = after.buckets_rebuilt - before.buckets_rebuilt;
    vec![
        (
            "node2vec.dirty_nodes",
            (after.dirty_nodes - before.dirty_nodes) as f64,
        ),
        ("node2vec.buckets_rebuilt", rebuilt as f64),
        (
            "node2vec.bucket_rebuild_ratio",
            ratio(rebuilt, updates * bucket_count as u64),
        ),
    ]
}

/// Shape of FoRWaRD's scheme plan.
pub fn plan(fwd: &ForwardEmbedder) -> Counters {
    let plan = fwd.scheme_plan();
    vec![
        ("plan.schemes", plan.scheme_count() as f64),
        ("plan.flat_steps", plan.flat_step_count() as f64),
        ("plan.shared_steps", plan.shared_step_count() as f64),
    ]
}

/// Snapshot of both embedders' counters, to diff a pass against.
#[derive(Debug, Clone, Copy)]
pub struct EmbedderStats {
    cache: DistCacheStats,
    negatives: NegativeTableStats,
    buckets: usize,
}

impl EmbedderStats {
    pub fn of(fwd: &ForwardEmbedder, n2v: &Node2VecEmbedder) -> Self {
        EmbedderStats {
            cache: fwd.dist_cache_stats(),
            negatives: n2v.model().negative_stats(),
            buckets: n2v.model().negative_bucket_count(),
        }
    }

    /// Counters of the work done since `self` was taken.
    pub fn since(&self, now: &EmbedderStats) -> Counters {
        let mut c = distcache(self.cache, now.cache);
        c.extend(negative_table(self.negatives, now.negatives, now.buckets));
        c
    }
}

pub fn record(out: &mut Outcome, counters: &Counters) {
    for (name, value) in counters {
        out.set(name, *value);
    }
}

/// Span name → per-layer metric (median per call), its 95th-percentile
/// companion if any, and the unit scale.
const SPAN_METRICS: [(&str, &str, Option<&str>, f64); 12] = [
    ("datasets.generate", "datasets.generate_s", None, 1.0),
    ("reldb.cascade_delete", "reldb.cascade_delete_ms", None, 1e3),
    ("reldb.restore", "reldb.restore_ms", None, 1e3),
    ("core.train", "core.train_s", None, 1.0),
    (
        "core.extend",
        "core.extend_ms",
        Some("core.extend_ms_p95"),
        1e3,
    ),
    ("node2vec.train", "node2vec.train_s", None, 1.0),
    (
        "node2vec.extend",
        "node2vec.extend_ms",
        Some("node2vec.extend_ms_p95"),
        1e3,
    ),
    (
        "durable.insert",
        "durable.insert_ms",
        Some("durable.insert_ms_p95"),
        1e3,
    ),
    (
        "durable.delete",
        "durable.delete_ms",
        Some("durable.delete_ms_p95"),
        1e3,
    ),
    ("durable.mutate", "durable.mutate_ms", None, 1e3),
    ("durable.extend", "durable.extend_ms", None, 1e3),
    ("durable.snapshot", "durable.snapshot_ms", None, 1e3),
];

/// Per-layer latencies from the recorded spans (names without spans are
/// left as the workload set them).
pub fn record_spans(tr: &Tracer, out: &mut Outcome) {
    for (span, name, p95, scale) in SPAN_METRICS {
        let d = tr.durations(span);
        if d.is_empty() {
            continue;
        }
        match p95 {
            Some(p95) => out.latency(name, p95, &d),
            None => out.median(name, &d, scale),
        }
    }
}

/// Latencies of a workload's timed operations, pass by pass, split by
/// whether the pass was traced. Every pass replays the identical stream,
/// so operation `i` of one pass is the same work as operation `i` of any
/// other: its latency is taken as the fastest of its repetitions, which
/// removes interference from other processes on a shared host.
#[derive(Debug, Default)]
pub struct OpTimes {
    untraced: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
}

/// Per-operation minimum over the passes that ran the whole stream.
fn fastest(passes: &[Vec<f64>]) -> Vec<f64> {
    let len = passes.iter().map(Vec::len).max().unwrap_or(0);
    let full: Vec<&Vec<f64>> = passes.iter().filter(|p| p.len() == len).collect();
    (0..len)
        .map(|i| full.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

impl OpTimes {
    /// One pass: its operation latencies in stream order.
    pub fn pass(&mut self, traced: bool, ops_s: Vec<f64>) {
        if traced {
            self.traced.push(ops_s);
        } else {
            self.untraced.push(ops_s);
        }
    }

    /// End-to-end operation metrics from the untraced passes, and the
    /// tracing overhead as traced over untraced median latency. The
    /// closed loop's throughput is one over the mean per-operation latency.
    pub fn record(&self, out: &mut Outcome) {
        let best = fastest(&self.untraced);
        out.latency("op_ms_p50", "op_ms_p95", &best);
        let busy: f64 = best.iter().sum();
        out.set("ops_per_s", best.len() as f64 / busy);
        if !self.traced.is_empty() {
            let traced = fastest(&self.traced);
            out.set(
                "trace.overhead_pct",
                (median(&traced) / median(&best) - 1.0) * 100.0,
            );
        }
    }
}
