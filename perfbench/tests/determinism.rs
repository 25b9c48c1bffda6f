//! The benchmark's deterministic counts must repeat exactly between two
//! runs of the same seed and between `CT_THREADS=1` and the core count.
//!
//! Runs the built benchmark for a fixed number of passes (`--passes`), so
//! the amount of work, not the clock, decides what is counted. Build with
//! optimizations: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// Counts the traced run reports that must not vary.
const TRACED_COUNTS: &[&str] = &[
    "em.iterations",
    "ladder.attempted.full_em",
    "ladder.attempted.trimmed_em",
    "ladder.attempted.gnt",
    "ladder.attempted.moments",
    "ladder.attempted.prior",
    "ladder.accepted.full_em",
    "ladder.accepted.trimmed_em",
    "ladder.accepted.gnt",
    "ladder.accepted.moments",
    "ladder.accepted.prior",
    "mote.kcycles",
    "svc.ingest.accepted",
    "svc.ingest.dedup",
];

/// Quality metrics the untraced run reports that must not vary.
const QUALITY: &[&str] = &["wmae_mean", "mispred_placed"];

/// Runs the benchmark and returns its JSON result line.
fn run(workload: &str, trace: &str, passes: &str, threads: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", trace, "--passes", passes])
        .env("CT_THREADS", threads.to_string())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} threads={threads} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The exact text of metric `name`'s value in a result line.
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let len = line[start..]
        .find(',')
        .expect("value is followed by its unit");
    &line[start..start + len]
}

fn assert_repeats(workload: &str, trace: &str, passes: &str, names: &[&str]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first = run(workload, trace, passes, 1);
    for (label, other) in [
        ("a second run", run(workload, trace, passes, 1)),
        ("CT_THREADS=cores", run(workload, trace, passes, cores)),
    ] {
        for name in names {
            assert_eq!(
                value(&first, name),
                value(&other, name),
                "{workload}: {name} differs on {label}"
            );
        }
    }
}

#[test]
fn pipeline_counts_repeat() {
    assert_repeats("pipeline", "1", "2", TRACED_COUNTS);
    assert_repeats("pipeline", "0", "1", QUALITY);
}

#[test]
fn faults_counts_repeat() {
    assert_repeats("faults", "1", "2", TRACED_COUNTS);
    assert_repeats("faults", "0", "1", QUALITY);
}

#[test]
fn service_counts_repeat() {
    assert_repeats("service", "1", "2", TRACED_COUNTS);
    assert_repeats("service", "0", "1", QUALITY);
}
