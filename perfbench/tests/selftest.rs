//! Self-test of the benchmark: a short version of every workload, run
//! twice with one seed, must pass its output checks and repeat every
//! counter exactly; and `BENCHMARK.json` must list exactly the metrics the
//! benchmark prints. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, MetricDef, RunConfig, Size, END_TO_END, PER_LAYER, WORKLOADS};

fn short(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.0,
        trace: true,
        size: Size::Short,
    }
}

#[test]
fn counters_repeat_exactly_for_a_fixed_seed() {
    for workload in WORKLOADS {
        let (a, _) = run(workload, &short(7)).expect("first run");
        let (b, _) = run(workload, &short(7)).expect("second run");
        for out in [&a, &b] {
            assert!(out.correct(), "{workload}: {:?}", out.check_failures);
            assert_eq!(out.failed, 0, "{workload}: {:?}", out.errors);
            assert!(out.attempted > 0, "{workload} attempted nothing");
        }
        assert_eq!(a.exact_counters(), b.exact_counters(), "{workload}");
    }
}

#[test]
fn counters_depend_on_the_seed() {
    let (a, _) = run("one_by_one", &short(7)).expect("seed 7");
    let (b, _) = run("one_by_one", &short(8)).expect("seed 8");
    assert_ne!(a.exact_counters(), b.exact_counters());
}

#[test]
fn dynamic_workloads_exercise_their_layers() {
    let (obo, _) = run("one_by_one", &short(3)).expect("one_by_one");
    let (churn, _) = run("durable_churn", &short(3)).expect("durable_churn");
    for name in [
        "distcache.replays",
        "node2vec.corpus_tokens",
        "core.extend_ms",
    ] {
        assert!(obo.values[name] > 0.0, "one_by_one {name}");
    }
    for name in [
        "wal.frames",
        "wal.fsyncs",
        "durable.recover_s",
        "durable.insert_ms",
    ] {
        assert!(churn.values[name] > 0.0, "durable_churn {name}");
    }
    // one_by_one bypasses the WAL.
    assert_eq!(obo.values.get("wal.frames").copied().unwrap_or(0.0), 0.0);
}

/// `"name"` → `"unit"` pairs of one `BENCHMARK.json` section, in order.
fn section(json: &str, key: &str, next: Option<&str>) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect(key);
    let end = next.map_or(json.len(), |n| json.find(&format!("\"{n}\"")).expect(n));
    let quoted_after = |s: &str, field: &str| -> Vec<String> {
        s.split(&format!("\"{field}\""))
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted value").to_string())
            .collect()
    };
    let part = &json[start..end];
    let names = quoted_after(part, "name");
    let mut units = quoted_after(part, "unit");
    units.resize(names.len(), String::new());
    names.into_iter().zip(units).collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let workloads: Vec<String> = section(&json, "workloads", Some("end_to_end"))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        section(&json, "end_to_end", Some("per_layer")),
        catalogue(&END_TO_END)
    );
    assert_eq!(section(&json, "per_layer", None), catalogue(&PER_LAYER));
}
