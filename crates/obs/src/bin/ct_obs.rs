//! `ct-obs` — the observability command line, one subcommand per view of
//! a run's telemetry.
//!
//! - `ct-obs report [TRACE.jsonl]` folds a JSONL trace stream (stdin when no
//!   path is given) into a stage/phase time breakdown. Exits non-zero if the
//!   stream contains malformed lines, so it doubles as a schema validator
//!   in CI.
//! - `ct-obs diff A.manifest.json B.manifest.json` compares two run
//!   manifests for deterministic-content agreement (counters, PMU banks,
//!   span census, audit trail). Exits 0 when they agree, 1 on any
//!   divergence, and 2 when an input cannot be read or parsed — so CI can
//!   tell "the run is nondeterministic" from "the gate is broken".
//! - `ct-obs top MANIFEST.json` renders the fleet-scale service's
//!   ingest/queue/reduce/serve breakdown with percentiles (from the
//!   manifest's `hists` section) and a per-shard table (from the
//!   `svc.shard.<i>.*` names): where the service spends its time, without
//!   replaying a trace stream. Exits 0 on success, 1 when the manifest
//!   carries no service telemetry (so CI can assert instrumented runs
//!   recorded it), and 2 when the input cannot be read or parsed.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::ExitCode;

use ct_obs::json::{self, Json};

const USAGE: &str = "usage: ct-obs report [TRACE.jsonl]   (stdin when omitted)
       ct-obs diff A.manifest.json B.manifest.json
       ct-obs top MANIFEST.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let help = |rest: &[String]| rest.iter().any(|a| a == "-h" || a == "--help");
    match args.split_first() {
        Some((cmd, rest)) if cmd == "report" => report(rest),
        Some((cmd, rest)) if cmd == "diff" => diff(rest, help(rest)),
        Some((cmd, rest)) if cmd == "top" => top(rest, help(rest)),
        Some((cmd, _)) if cmd == "-h" || cmd == "--help" => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn report(args: &[String]) -> ExitCode {
    let input = match args.first() {
        Some(flag) if flag == "-h" || flag == "--help" => {
            eprintln!("usage: ct-obs report [TRACE.jsonl]   (stdin when omitted)");
            return ExitCode::SUCCESS;
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ct-obs report: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("ct-obs report: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            buf
        }
    };
    let report = ct_obs::Report::from_jsonl(&input);
    print!("{}", report.render());
    if report.malformed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ct-obs report: {} malformed line(s) in stream",
            report.malformed.len()
        );
        ExitCode::FAILURE
    }
}

fn diff(args: &[String], help: bool) -> ExitCode {
    if help || args.len() != 2 {
        eprintln!("usage: ct-obs diff A.manifest.json B.manifest.json");
        eprintln!("exit: 0 = deterministic content agrees, 1 = divergence, 2 = bad input");
        return if args.len() == 2 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (a, b) = match (read(&args[0]), read(&args[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ct-obs diff: {e}");
            return ExitCode::from(2);
        }
    };
    match ct_obs::diff_manifests(&a, &b) {
        Ok(report) => {
            print!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ct-obs diff: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Default, Clone, Copy)]
struct HistRow {
    count: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
}

fn field(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_num).map_or(0, |n| n as u64)
}

fn hist_row(v: &Json) -> HistRow {
    HistRow {
        count: field(v, "count"),
        p50: field(v, "p50"),
        p90: field(v, "p90"),
        p99: field(v, "p99"),
        max: field(v, "max"),
    }
}

fn entries<'a>(doc: &'a Json, section: &str) -> Vec<(&'a str, &'a Json)> {
    match doc.get(section) {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

fn shard_metric(name: &str) -> Option<(u64, &str)> {
    let rest = name.strip_prefix("svc.shard.")?;
    let (idx, metric) = rest.split_once('.')?;
    Some((idx.parse().ok()?, metric))
}

fn print_hist_line(label: &str, h: HistRow) {
    println!(
        "{label:<26} {:>9} {:>12} {:>12} {:>12} {:>12}",
        h.count, h.p50, h.p90, h.p99, h.max
    );
}

fn top(args: &[String], help: bool) -> ExitCode {
    if help || args.len() != 1 {
        eprintln!("usage: ct-obs top MANIFEST.json");
        eprintln!("exit: 0 = ok, 1 = no service telemetry in manifest, 2 = bad input");
        return if args.len() == 1 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }
    let path = &args[0];
    let text = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ct-obs top: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ct-obs top: {path} is not a valid manifest: {e}");
            return ExitCode::from(2);
        }
    };

    let counters: BTreeMap<&str, u64> = entries(&doc, "counters")
        .into_iter()
        .filter(|(k, _)| k.starts_with("svc."))
        .map(|(k, v)| (k, v.as_num().map_or(0, |n| n as u64)))
        .collect();
    let hists: BTreeMap<&str, HistRow> = entries(&doc, "hists")
        .into_iter()
        .filter(|(k, _)| k.starts_with("svc."))
        .map(|(k, v)| (k, hist_row(v)))
        .collect();
    if counters.is_empty() && hists.is_empty() {
        eprintln!("ct-obs top: {path} carries no service telemetry (no svc.* metrics)");
        return ExitCode::FAILURE;
    }

    let name = doc.get("name").and_then(Json::as_str).unwrap_or("?");
    let mut shards: BTreeMap<u64, (u64, u64, Option<HistRow>)> = BTreeMap::new();
    for (k, n) in &counters {
        if let Some((idx, metric)) = shard_metric(k) {
            let row = shards.entry(idx).or_default();
            match metric {
                "accepted" => row.0 = *n,
                "dedup" => row.1 = *n,
                _ => {}
            }
        }
    }
    for (k, h) in &hists {
        if let Some((idx, "queue_depth")) = shard_metric(k) {
            shards.entry(idx).or_default().2 = Some(*h);
        }
    }

    println!("== {name}: service breakdown ==");
    let scalar = |key: &str| counters.get(key).copied().unwrap_or(0);
    println!(
        "ingested={} dedup={} backpressure={} serves={} reduce_rounds={}",
        scalar("svc.ingest.accepted"),
        scalar("svc.ingest.dedup"),
        scalar("svc.backpressure"),
        scalar("svc.serve"),
        scalar("svc.reduce.generations"),
    );
    println!(
        "{:<26} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "latency/size", "count", "p50", "p90", "p99", "max"
    );
    // The canonical service pipeline order, then anything else svc.*.
    let pipeline = [
        ("svc.ingest.enqueue_ns", "ingest enqueue (ns)"),
        ("svc.batch_samples", "batch size (samples)"),
        ("svc.reduce.latency_ns", "reduce round (ns)"),
        ("svc.serve.latency_ns", "serve (ns)"),
    ];
    for (key, label) in pipeline {
        if let Some(h) = hists.get(key) {
            print_hist_line(label, *h);
        }
    }
    for (k, h) in &hists {
        if pipeline.iter().any(|(key, _)| key == k) || shard_metric(k).is_some() {
            continue;
        }
        print_hist_line(k, *h);
    }
    if !shards.is_empty() {
        println!("-- per shard --");
        println!(
            "{:>5} {:>10} {:>10} {:>11} {:>11} {:>11}",
            "shard", "accepted", "dedup", "depth_p50", "depth_p99", "depth_max"
        );
        for (idx, (accepted, dedup, depth)) in &shards {
            let d = depth.unwrap_or_default();
            println!(
                "{idx:>5} {accepted:>10} {dedup:>10} {:>11} {:>11} {:>11}",
                d.p50, d.p99, d.max
            );
        }
    }
    ExitCode::SUCCESS
}
