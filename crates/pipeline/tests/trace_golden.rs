//! Golden observability test: a traced full pipeline run emits parseable,
//! schema-stable JSONL covering every stage — and tracing changes **no**
//! estimation output bitwise (observer effect zero), at 1 and 4 threads.
//!
//! The whole scenario lives in one `#[test]` because it owns the process
//! globals (the ct-obs registry and `CT_THREADS`); splitting it would race
//! the harness's parallel test threads.

use ct_pipeline::{RunConfig, Session};
use ct_placement::Strategy;

/// Everything estimation produces, reduced to exact bit patterns: if any
/// f64 differs in its last ulp between runs, the fingerprints differ.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    probs: Vec<u64>,
    mae: u64,
    confidence: u64,
    layout: Vec<u32>,
    before_cycles: u64,
    after_cycles: u64,
    run_pmu: ct_pipeline::PmuSnapshot,
    before_pmu: ct_pipeline::PmuSnapshot,
    after_pmu: ct_pipeline::PmuSnapshot,
}

fn run_pipeline(traced: bool, threads: &str) -> (Fingerprint, Option<String>) {
    std::env::set_var("CT_THREADS", threads);
    ct_obs::reset();
    ct_obs::set_stream_enabled(traced);
    // The flight recorder rides along in traced runs: capture into the
    // rings must be as observer-effect-free as the stream itself.
    ct_obs::flight::set_enabled(traced);
    let report = Session::new(RunConfig::new("sense").invocations(400).seeded(7).robust())
        .run(Strategy::Best)
        .expect("sense pipeline runs");
    let fp = Fingerprint {
        probs: report
            .estimated
            .estimate
            .probs
            .as_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
        mae: report.estimated.accuracy.mae.to_bits(),
        confidence: report.estimated.confidence.to_bits(),
        layout: report.layout.order().iter().map(|b| b.0).collect(),
        before_cycles: report.before.cycles,
        after_cycles: report.after.cycles,
        run_pmu: report.run.pmu.clone(),
        before_pmu: report.before.pmu.clone(),
        after_pmu: report.after.pmu.clone(),
    };
    let jsonl = traced.then(|| ct_obs::render_jsonl(&ct_obs::snapshot()));
    ct_obs::set_stream_enabled(false);
    ct_obs::flight::set_enabled(false);
    ct_obs::reset();
    (fp, jsonl)
}

/// Drops the volatile (timing) fields from one JSONL line, leaving only
/// the content the determinism contract covers. Volatile values are plain
/// numbers, so scanning to the next `,`/`}` is exact.
fn strip_volatile(line: &str) -> String {
    let mut s = line.to_string();
    for k in ct_obs::VOLATILE_FIELDS {
        let pat = format!("\"{k}\":");
        while let Some(i) = s.find(&pat) {
            let start = s[..i].rfind([',', '{']).expect("field inside an object");
            let val_end = i
                + pat.len()
                + s[i + pat.len()..]
                    .find([',', '}'])
                    .expect("object is closed");
            if s.as_bytes()[start] == b',' {
                s.replace_range(start..val_end, "");
            } else {
                let end = if s.as_bytes()[val_end] == b',' {
                    val_end + 1
                } else {
                    val_end
                };
                s.replace_range(start + 1..end, "");
            }
        }
    }
    s
}

#[test]
fn tracing_is_schema_stable_and_observer_effect_free() {
    let (plain_1, none) = run_pipeline(false, "1");
    assert!(none.is_none());
    let (traced_1, jsonl_1) = run_pipeline(true, "1");
    let (plain_4, _) = run_pipeline(false, "4");
    let (traced_4, jsonl_4) = run_pipeline(true, "4");
    let jsonl_1 = jsonl_1.expect("traced run renders JSONL");
    let jsonl_4 = jsonl_4.expect("traced run renders JSONL");

    // Observer effect zero: tracing never changes estimation output, at
    // either thread count — and the engine itself is thread-insensitive.
    assert_eq!(plain_1, traced_1, "tracing perturbed a 1-thread run");
    assert_eq!(plain_4, traced_4, "tracing perturbed a 4-thread run");
    assert_eq!(plain_1, plain_4, "thread count perturbed estimation");

    // Every line parses, and the schema markers hold.
    let lines: Vec<&str> = jsonl_1.lines().collect();
    assert!(lines.len() > 10, "suspiciously short trace: {jsonl_1}");
    for line in &lines {
        let obj = ct_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable JSONL line {line:?}: {e}"));
        assert!(
            obj.get("event")
                .or_else(|| obj.get("span"))
                .or_else(|| obj.get("counter"))
                .or_else(|| obj.get("gauge"))
                .and_then(|v| v.as_str())
                .is_some(),
            "line without a kind marker: {line}"
        );
    }
    let meta = ct_obs::json::parse(lines[0]).expect("meta line parses");
    assert_eq!(
        meta.get("event").and_then(|v| v.as_str()),
        Some("trace.meta")
    );
    assert_eq!(
        meta.get("schema").and_then(|v| v.as_num()),
        Some(ct_obs::SCHEMA_VERSION as f64)
    );

    // The stream covers all eight pipeline stages plus the EM audit trail.
    for stage in [
        "compile", "deploy", "run", "collect", "corrupt", "estimate", "place", "evaluate",
    ] {
        let marker = format!("{{\"event\":\"stage.{stage}\"");
        assert!(
            lines.iter().any(|l| l.starts_with(&marker)),
            "no stage.{stage} event in:\n{jsonl_1}"
        );
    }
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("{\"event\":\"em.restart\"")),
        "no em.restart events in:\n{jsonl_1}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("{\"event\":\"place.decision\"")),
        "no place.decision event in:\n{jsonl_1}"
    );
    // One pmu.totals per measured layout run: the profiled run, the
    // natural layout (here the profiled run's totals recorded again, since
    // a cycle-accurate, overhead-free, fault-free run is its own
    // natural-layout replay) and the placed layout's replay.
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.starts_with("{\"event\":\"pmu.totals\""))
            .count(),
        3,
        "expected pmu.totals from the run and both evaluated layouts in:\n{jsonl_1}"
    );

    // Telemetry v2: every traced stage aggregates a wall-time histogram.
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("{\"event\":\"hist\",\"name\":\"stage.run.wall_ns\"")),
        "no stage.run.wall_ns histogram line in:\n{jsonl_1}"
    );

    // Determinism contract: with the volatile timing fields stripped and
    // the timing *histograms* dropped entirely (their bucket tables are
    // wall-clock shaped — the shared `is_volatile_hist_name` convention),
    // the 1-thread and 4-thread streams are line-for-line identical.
    let stable = |line: &&str| {
        line.strip_prefix("{\"event\":\"hist\",\"name\":\"")
            .and_then(|rest| rest.split('"').next())
            .is_none_or(|name| !ct_obs::is_volatile_hist_name(name))
    };
    let stable_1: Vec<String> = jsonl_1.lines().filter(stable).map(strip_volatile).collect();
    let stable_4: Vec<String> = jsonl_4.lines().filter(stable).map(strip_volatile).collect();
    assert_eq!(stable_1, stable_4, "trace content depends on CT_THREADS");
}
