//! Command line of the repository benchmark:
//!
//! ```text
//! perfbench --workload <one_by_one|durable_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one report line (`{"perfbench": …}`: host fingerprint, every
//! metric with its sample count, output-check failures, span totals),
//! then, as the last line, the result object: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A traced run also writes its spans to
//! `.perfbench/trace-<workload>-<seed>.jsonl`. Exits 1 when an output
//! check failed, 2 on a usage error.

use perfbench::setup::SHARDS;
use perfbench::{host, MetricDef, Outcome, RunConfig, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            size: Size::Full,
        },
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_list(items: &[String]) -> String {
    let items: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", items.join(","))
}

/// `{"name": {"value": v, "unit": u}, …}` over `defs`; `detailed` adds
/// sample counts and marks the counters that must repeat exactly.
fn metrics_json(out: &Outcome, defs: &[MetricDef], detailed: bool) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = out.values.get(d.name).copied().unwrap_or(0.0);
            let mut extra = String::new();
            if detailed {
                if let Some(n) = out.samples.get(d.name) {
                    let _ = write!(extra, ",\"samples\":{n}");
                }
                if d.exact {
                    extra.push_str(",\"exact\":true");
                }
            }
            format!(
                "{}:{{\"value\":{},\"unit\":{}{extra}}}",
                json_str(d.name),
                json_num(value),
                json_str(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn report_line(args: &Args, host: &host::Host, out: &Outcome) -> String {
    let host_json = format!(
        "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_sha\":{},\"kernel\":{},\"shards\":{}}}",
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.rustc),
        json_str(&host.git_sha),
        json_str(&host.kernel),
        host.shards
    );
    let spans: Vec<String> = out
        .spans
        .iter()
        .map(|(name, s)| {
            format!(
                "{}:{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                json_str(name),
                s.count,
                json_num(s.total_s),
                json_num(s.self_s)
            )
        })
        .collect();
    let all: Vec<MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    format!(
        "{{\"perfbench\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{host_json},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"check_failures\":{},\"errors\":{},\
         \"metrics\":{},\"spans\":{{{}}}}}}}",
        json_str(&args.workload),
        args.cfg.seed,
        json_num(args.cfg.seconds),
        args.cfg.trace,
        out.correct(),
        out.attempted,
        out.failed,
        json_list(&out.check_failures),
        json_list(&out.errors),
        metrics_json(out, &all, true),
        spans.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Recovery builds its runtimes from the environment; pin it to the
    // same shard count as every other runtime of the run.
    std::env::set_var("STEMBED_SHARDS", SHARDS.to_string());
    let host = host::fingerprint(SHARDS);
    let (mut out, tracer) = match perfbench::run(&args.workload, &args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let printed = if args.cfg.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for d in printed {
        let v = out.values.get(d.name).copied().unwrap_or(0.0);
        out.check(v.is_finite(), || {
            format!("{} is not a finite number", d.name)
        });
    }
    if args.cfg.trace {
        let path = std::path::Path::new(".perfbench")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.cfg.seed));
        let written =
            std::fs::create_dir_all(".perfbench").and_then(|()| tracer.write_jsonl(&path));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{}", report_line(&args, &host, &out));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics_json(&out, printed, false)
    );
    for f in &out.check_failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
