//! End-to-end benchmark of the Code Tomography loop.
//!
//! ```text
//! perfbench --workload <pipeline|faults|service> --seed <n> --seconds <s> --trace <0|1> [--passes <n>]
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the last line
//! of standard output is a JSON object carrying the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics instead. The process
//! exits non-zero when any output check fails. See `README.md`.

mod common;
mod faults;
mod pipeline;
mod service;

use common::{Budget, Report};

const USAGE: &str = "usage: perfbench --workload <pipeline|faults|service> --seed <n> \
                     --seconds <s> --trace <0|1> [--passes <n>]";

struct Args {
    workload: String,
    seed: u64,
    budget: Budget,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut passes = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--passes" => passes = Some(value.parse::<u32>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Budget { seconds, passes },
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pins `CT_THREADS` to at most the core count before any layer reads it,
/// and returns the pinned value. Unset, it defaults to 1: a single caller
/// on one core is the steadiest measurement on a shared machine.
fn pin_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("CT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1);
    let threads = asked.min(cores);
    // Single-threaded here: no other thread can be reading the environment.
    std::env::set_var("CT_THREADS", threads.to_string());
    threads
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = pin_threads();
    let shards = service::shards(threads);
    println!(
        "config: workload={} seed={} trace={} CT_THREADS={threads} cores={} shards={shards} producers=1",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut report = match args.workload.as_str() {
        "pipeline" => pipeline::run(args.seed, args.budget, args.trace),
        "faults" => faults::run(args.seed, args.budget, args.trace),
        "service" => service::run(args.seed, args.budget, args.trace, shards),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A metric that is not a finite number cannot be compared: count it as
    // a failure and report 0 so the line stays valid JSON.
    let mut bad = Vec::new();
    for (name, value, _) in report.metrics.iter_mut() {
        if !value.is_finite() {
            bad.push(format!("metric {name} is not finite"));
            *value = 0.0;
        }
    }
    bad.into_iter().for_each(|p| report.fail(p));
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "summary: attempted={} failed={} failed_frac={}",
        report.attempted,
        report.failed,
        common::ratio(report.failed as f64, report.attempted as f64)
    );
    for (name, value, unit) in &report.metrics {
        println!("metric: {name} = {value} {unit}");
    }
    println!("{}", result_json(&report));
    if report.failed > 0 {
        std::process::exit(1);
    }
}
