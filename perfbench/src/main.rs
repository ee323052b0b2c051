//! The ScanRaw benchmark: two workloads driven through the public API,
//! end-to-end metrics with tracing off, per-layer metrics from a traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-load --seed 1 --seconds 45 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it describe the
//! run. A traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. See `perfbench/README.md`
//! for what each metric means and which layer should move it.

#![forbid(unsafe_code)]

mod cold_load;
mod common;
mod data;
mod layers;
mod query_sequence;
mod stats;
mod trace;

use common::{Metric, Report};
use std::fmt::Write as _;
use trace::Tracer;

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tr: Tracer,
}

const WORKLOADS: [&str; 2] = ["cold-load", "query-sequence"];

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// `--workload all` runs every workload in turn in this process.
fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match WORKLOADS.iter().find(|w| **w == workload) {
        Some(w) => vec![*w],
        None if workload == "all" => WORKLOADS.to_vec(),
        None => {
            return Err(format!(
                "unknown workload {workload}; one of {WORKLOADS:?} or all"
            ))
        }
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut results = Vec::new();
    for &workload in &args.workloads {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            tr: Tracer::new(args.trace, format!("{workload}-{}", args.seed)),
        };
        match run(workload, &ctx) {
            Ok(report) => results.push((workload, report)),
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}; refusing to report");
                std::process::exit(3);
            }
        }
    }
    println!("{}", result_line(&results, args.trace));
}

/// Runs one workload, prints its description and metrics as `#` lines, and
/// writes a traced run's spans.
fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = match workload {
        "cold-load" => cold_load::run(ctx),
        _ => query_sequence::run(ctx),
    }?;
    let t = report.tally;
    report.e2e.push(Metric {
        name: "correct_frac",
        value: (t.attempted - t.failed) as f64 / t.attempted.max(1) as f64,
        unit: "fraction",
    });
    report.e2e.push(Metric {
        name: "peak_rss_mb",
        value: stats::peak_rss_mb(),
        unit: "MiB",
    });
    print_env(workload, ctx, &report);
    print_metrics("end-to-end", &report.e2e);
    if ctx.trace {
        print_metrics("per-layer", &report.layers);
        print_self_times(&ctx.tr);
        let path = format!(".bench_out/spans-{workload}-{}.jsonl", ctx.seed);
        ctx.tr
            .write_jsonl(std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("# spans written to {path}");
    }
    Ok(report)
}

/// The benchmark's one-line result: the end-to-end metrics, or with
/// tracing the per-layer ones. Several workloads prefix each metric with
/// its workload's name.
fn result_line(results: &[(&str, Report)], trace: bool) -> String {
    let mut body = String::new();
    let (mut attempted, mut failed, mut finite) = (0, 0, true);
    for (workload, report) in results {
        let prefix = if results.len() > 1 {
            format!("{workload}/")
        } else {
            String::new()
        };
        let metrics = if trace { &report.layers } else { &report.e2e };
        for m in metrics {
            let sep = if body.is_empty() { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
            finite &= m.value.is_finite();
        }
        attempted += report.tally.attempted;
        failed += report.tally.failed;
    }
    let correct = failed == 0 && finite;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// JSON has no NaN; a metric that could not be measured reads `null`.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn print_env(workload: &str, ctx: &Ctx, report: &Report) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut line = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"profile\": \"{profile}\", \"write_policy\": \"speculative-loading, safeguard on\"",
        ctx.seed, ctx.seconds, ctx.trace
    );
    for (k, v) in &report.env {
        let _ = write!(line, ", \"{k}\": {v}");
    }
    line.push('}');
    println!("# env {line}");
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title} metrics");
    for m in metrics {
        println!("#   {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Busy and self time per span name and per layer, beside the wall time of
/// the run, so blocked time shows as the gap.
fn print_self_times(tr: &Tracer) {
    let times = tr.self_times();
    println!("# traced spans: name, count, busy s, self s");
    let mut layers: std::collections::BTreeMap<&str, f64> = Default::default();
    for (name, t) in &times {
        println!(
            "#   {:<36} {:>8} {:>12.6} {:>12.6}",
            name, t.count, t.busy_s, t.self_s
        );
        let layer = name.split('.').next().unwrap_or(name);
        *layers.entry(layer).or_default() += t.self_s;
    }
    println!("# self time per layer (s)");
    for (layer, s) in layers {
        println!("#   {layer:<12} {s:>12.6}");
    }
}
