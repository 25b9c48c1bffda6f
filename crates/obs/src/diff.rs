//! Structural comparison of two run manifests — the logic behind the
//! `ct-obs diff` subcommand and check.sh's PMU drift gate.
//!
//! Two manifests of the same workload must agree on everything the
//! determinism contract covers: schema version, every counter (PMU banks
//! included), the span census (names and counts), and the stable content
//! of the audit trail. Wall/CPU timings, timestamps, git revision, env
//! knobs and the run context are *expected* to differ between runs — they
//! are reported as notes, never as divergences.

use crate::event::VOLATILE_FIELDS;
use crate::hist::is_volatile_hist_name;
use crate::json::{self, Json};

/// Scheduling-dependent metrics: how often the service's coordinator
/// polled, how full queues got, how long a reduce took. Two correct runs
/// of the same workload legitimately disagree on these — on value and
/// even on presence (a run that never saw backpressure never creates the
/// counter) — so the differ reports them as notes, never divergences.
/// Everything else under `svc.` (accepted/dedup counts, the serve audit
/// trail) stays strict: it is part of the determinism contract.
const VOLATILE_METRICS: &[&str] = &[
    "svc.backpressure",
    "svc.queue_depth",
    "svc.reduce.generations",
    "svc.reduce.latency_us",
];

fn is_volatile_metric(name: &str) -> bool {
    VOLATILE_METRICS.contains(&name)
}

/// The outcome of comparing two manifests.
#[derive(Debug, Default, Clone)]
pub struct DiffReport {
    /// Contract violations: any entry here means the runs diverged.
    pub divergences: Vec<String>,
    /// Expected differences (timings, env), for context only.
    pub notes: Vec<String>,
}

impl DiffReport {
    /// `true` when the deterministic content of both manifests agrees.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Renders the report for terminal output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_clean() {
            let _ = writeln!(out, "manifests agree on deterministic content");
        } else {
            let _ = writeln!(out, "== divergences ({}) ==", self.divergences.len());
            for d in &self.divergences {
                let _ = writeln!(out, "  {d}");
            }
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "== notes (expected differences) ==");
            for n in &self.notes {
                let _ = writeln!(out, "  {n}");
            }
        }
        out
    }
}

/// Renders a parsed JSON value back to a canonical string, dropping
/// [`VOLATILE_FIELDS`] keys at every object level.
fn canon(v: &Json, out: &mut String) {
    use std::fmt::Write as _;
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => json::write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canon(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            let mut first = true;
            for (k, v) in fields {
                if VOLATILE_FIELDS.contains(&k.as_str()) {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                json::write_escaped(out, k);
                out.push(':');
                canon(v, out);
            }
            out.push('}');
        }
    }
}

fn obj_entries<'a>(doc: &'a Json, section: &str) -> Vec<(&'a str, &'a Json)> {
    match doc.get(section) {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

/// Compares one keyed section (counters, pmu, gauges, hists) entry by
/// entry in both directions. Keys classified volatile by `volatile`
/// downgrade to notes — both on value drift and on one-sided presence.
fn diff_keyed_section(
    section: &str,
    a: &Json,
    b: &Json,
    volatile: fn(&str) -> bool,
    report: &mut DiffReport,
) {
    let ea = obj_entries(a, section);
    let eb = obj_entries(b, section);
    for (k, va) in &ea {
        match eb.iter().find(|(kb, _)| kb == k) {
            None => {
                let msg = format!("{section}.{k}: present only in A");
                if volatile(k) {
                    report.notes.push(format!("{msg} (volatile, ignored)"));
                } else {
                    report.divergences.push(msg);
                }
            }
            Some((_, vb)) => {
                let (mut ca, mut cb) = (String::new(), String::new());
                canon(va, &mut ca);
                canon(vb, &mut cb);
                if ca != cb {
                    let msg = format!("{section}.{k}: A={ca} B={cb}");
                    if volatile(k) {
                        report.notes.push(format!("{msg} (volatile, ignored)"));
                    } else {
                        report.divergences.push(msg);
                    }
                }
            }
        }
    }
    for (k, _) in &eb {
        if !ea.iter().any(|(ka, _)| ka == k) {
            let msg = format!("{section}.{k}: present only in B");
            if volatile(k) {
                report.notes.push(format!("{msg} (volatile, ignored)"));
            } else {
                report.divergences.push(msg);
            }
        }
    }
}

/// Histogram volatility: the scalar volatile list still applies, plus the
/// naming convention for wall-time-derived distributions (`_ns`/`_us`/
/// `_ms` suffixes, queue depths) — their bucket counts are scheduling
/// artifacts. Value-shaped histograms (batch sizes) compare strictly,
/// bucket table included.
fn is_volatile_hist(name: &str) -> bool {
    is_volatile_metric(name) || is_volatile_hist_name(name)
}

/// Compares two rendered manifests for deterministic-content agreement.
///
/// Returns a [`DiffReport`]; [`DiffReport::is_clean`] is the PMU golden
/// gate's pass condition.
///
/// # Errors
///
/// Returns a human-readable message when either input is not valid JSON
/// or not a manifest-shaped object.
pub fn diff_manifests(a: &str, b: &str) -> Result<DiffReport, String> {
    let da = json::parse(a).map_err(|e| format!("manifest A: {e}"))?;
    let db = json::parse(b).map_err(|e| format!("manifest B: {e}"))?;
    for (label, d) in [("A", &da), ("B", &db)] {
        if !matches!(d, Json::Obj(_)) {
            return Err(format!("manifest {label} is not a JSON object"));
        }
    }
    let mut report = DiffReport::default();

    // Schema must agree exactly — cross-version diffs are meaningless.
    let sa = da.get("schema").and_then(Json::as_num);
    let sb = db.get("schema").and_then(Json::as_num);
    if sa != sb {
        report
            .divergences
            .push(format!("schema: A={sa:?} B={sb:?}"));
    }

    diff_keyed_section("counters", &da, &db, is_volatile_metric, &mut report);
    diff_keyed_section("pmu", &da, &db, is_volatile_metric, &mut report);
    diff_keyed_section("gauges", &da, &db, is_volatile_metric, &mut report);
    diff_keyed_section("hists", &da, &db, is_volatile_hist, &mut report);

    // Spans: the census (which spans ran, how often) is deterministic;
    // their timings are not.
    let spans_a = obj_entries(&da, "spans");
    let spans_b = obj_entries(&db, "spans");
    for (name, va) in &spans_a {
        match spans_b.iter().find(|(nb, _)| nb == name) {
            None => report
                .divergences
                .push(format!("spans.{name}: present only in A")),
            Some((_, vb)) => {
                let ca = va.get("count").and_then(Json::as_num);
                let cb = vb.get("count").and_then(Json::as_num);
                if ca != cb {
                    report
                        .divergences
                        .push(format!("spans.{name}.count: A={ca:?} B={cb:?}"));
                } else {
                    let wa = va.get("wall_ns").and_then(Json::as_num).unwrap_or(0.0);
                    let wb = vb.get("wall_ns").and_then(Json::as_num).unwrap_or(0.0);
                    if wa != wb {
                        report.notes.push(format!(
                            "spans.{name}.wall_ns: A={wa} B={wb} (timing, ignored)"
                        ));
                    }
                }
            }
        }
    }
    for (name, _) in &spans_b {
        if !spans_a.iter().any(|(na, _)| na == name) {
            report
                .divergences
                .push(format!("spans.{name}: present only in B"));
        }
    }

    // Audit trail: same multiset of stable-content events, order-free
    // (threaded runs may interleave emission differently).
    let audit = |doc: &Json| -> Vec<String> {
        let mut keys: Vec<String> = match doc.get("audit") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|e| {
                    let mut s = String::new();
                    canon(e, &mut s);
                    s
                })
                .collect(),
            _ => Vec::new(),
        };
        keys.sort();
        keys
    };
    let aa = audit(&da);
    let ab = audit(&db);
    if aa != ab {
        // Pinpoint the first asymmetric entries rather than dumping both
        // trails.
        let only_a: Vec<&String> = aa.iter().filter(|k| !ab.contains(k)).collect();
        let only_b: Vec<&String> = ab.iter().filter(|k| !aa.contains(k)).collect();
        for k in only_a.iter().take(5) {
            report.divergences.push(format!("audit only in A: {k}"));
        }
        for k in only_b.iter().take(5) {
            report.divergences.push(format!("audit only in B: {k}"));
        }
        if only_a.is_empty() && only_b.is_empty() {
            report
                .divergences
                .push("audit: same entries, different multiplicities".to_string());
        }
    }

    // Context differences are expected; note, never fail.
    for key in ["git_rev", "unix_time", "name"] {
        let va = da.get(key);
        let vb = db.get(key);
        if va != vb {
            report.notes.push(format!("{key} differs (ignored)"));
        }
    }
    if da.get("env") != db.get("env") {
        report.notes.push("env differs (ignored)".to_string());
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(counters: &str, audit: &str, wall: u64) -> String {
        format!(
            r#"{{
  "name": "e4_placement",
  "schema": 1,
  "unix_time": {wall},
  "git_rev": "abc",
  "env": {{"CT_THREADS": null}},
  "run": {{"seed": 4000}},
  "spans": {{"stage.run": {{"count": 2, "wall_ns": {wall}, "cpu_ticks": 1}}}},
  "counters": {{{counters}}},
  "pmu": {{"cond_taken": 7}},
  "audit": [{audit}]
}}"#
        )
    }

    #[test]
    fn identical_content_is_clean_despite_timing_noise() {
        let a = manifest(
            r#""pmu.cond_taken": 7"#,
            r#"{"event":"em.restart","iterations":3,"wall_ns":10}"#,
            111,
        );
        let b = manifest(
            r#""pmu.cond_taken": 7"#,
            r#"{"event":"em.restart","iterations":3,"wall_ns":99}"#,
            222,
        );
        let r = diff_manifests(&a, &b).unwrap();
        assert!(r.is_clean(), "{:?}", r.divergences);
        assert!(
            r.notes.iter().any(|n| n.contains("wall_ns")),
            "timing difference should be noted: {:?}",
            r.notes
        );
    }

    #[test]
    fn counter_drift_is_a_divergence() {
        let a = manifest(r#""pmu.cond_taken": 7"#, "", 1);
        let b = manifest(r#""pmu.cond_taken": 8"#, "", 1);
        let r = diff_manifests(&a, &b).unwrap();
        assert!(!r.is_clean());
        assert!(r.divergences[0].contains("pmu.cond_taken"));
    }

    #[test]
    fn missing_counter_and_extra_span_are_divergences() {
        let a = manifest(r#""pmu.calls": 5, "fleet.motes": 2"#, "", 1);
        let b = manifest(r#""pmu.calls": 5"#, "", 1);
        let r = diff_manifests(&a, &b).unwrap();
        assert_eq!(r.divergences.len(), 1);
        assert!(r.divergences[0].contains("only in A"));
    }

    #[test]
    fn audit_content_divergence_is_caught() {
        let a = manifest(
            "",
            r#"{"event":"place.decision","app":"sense","improved":true}"#,
            1,
        );
        let b = manifest(
            "",
            r#"{"event":"place.decision","app":"sense","improved":false}"#,
            1,
        );
        let r = diff_manifests(&a, &b).unwrap();
        assert!(!r.is_clean());
        assert!(r.divergences.iter().any(|d| d.contains("audit")));
    }

    #[test]
    fn volatile_service_metrics_note_instead_of_diverging() {
        // Backpressure count and reduce-round count are scheduling
        // artifacts: they may differ in value or exist on one side only.
        let a = manifest(
            r#""svc.backpressure": 12, "svc.ingest.accepted": 40"#,
            "",
            1,
        );
        let b = manifest(
            r#""svc.reduce.generations": 9, "svc.ingest.accepted": 40"#,
            "",
            1,
        );
        let r = diff_manifests(&a, &b).unwrap();
        assert!(r.is_clean(), "{:?}", r.divergences);
        assert!(
            r.notes.iter().any(|n| n.contains("svc.backpressure")),
            "volatile asymmetry should be noted: {:?}",
            r.notes
        );
        // The deterministic svc.* counters stay strict.
        let c = manifest(r#""svc.ingest.accepted": 41"#, "", 1);
        let r = diff_manifests(&a, &c).unwrap();
        assert!(r
            .divergences
            .iter()
            .any(|d| d.contains("svc.ingest.accepted")));
    }

    #[test]
    fn gauge_sections_are_compared_with_volatility_rules() {
        let with_gauges = |g: &str| {
            manifest("", "", 1).replace(
                "\"pmu\": {\"cond_taken\": 7}",
                &format!("\"pmu\": {{\"cond_taken\": 7}},\n  \"gauges\": {{{g}}}"),
            )
        };
        let a = with_gauges(r#""svc.queue_depth": 64, "fleet.coverage": 1.0"#);
        let b = with_gauges(r#""svc.queue_depth": 3, "fleet.coverage": 1.0"#);
        assert!(diff_manifests(&a, &b).unwrap().is_clean());
        let c = with_gauges(r#""svc.queue_depth": 3, "fleet.coverage": 0.5"#);
        let r = diff_manifests(&a, &c).unwrap();
        assert!(r
            .divergences
            .iter()
            .any(|d| d.contains("gauges.fleet.coverage")));
    }

    #[test]
    fn hist_sections_compare_bucket_tables_with_volatility_rules() {
        let with_hists = |h: &str| {
            manifest("", "", 1).replace(
                "\"pmu\": {\"cond_taken\": 7}",
                &format!("\"pmu\": {{\"cond_taken\": 7}},\n  \"hists\": {{{h}}}"),
            )
        };
        let hist = |buckets: &str| {
            format!(
                r#"{{"count": 4, "sum": 102, "min": 4, "max": 90, "p50": 4, "p90": 90, "p99": 90, "buckets": "{buckets}"}}"#
            )
        };
        // Latency histograms drift freely: noted, never a divergence.
        let a = with_hists(&format!(
            r#""svc.serve.latency_ns": {}, "svc.batch_samples": {}"#,
            hist("4:3;86:1"),
            hist("4:3;86:1")
        ));
        let b = with_hists(&format!(
            r#""svc.serve.latency_ns": {}, "svc.batch_samples": {}"#,
            hist("4:1;90:3"),
            hist("4:3;86:1")
        ));
        let r = diff_manifests(&a, &b).unwrap();
        assert!(r.is_clean(), "{:?}", r.divergences);
        assert!(
            r.notes.iter().any(|n| n.contains("svc.serve.latency_ns")),
            "latency drift should be noted: {:?}",
            r.notes
        );
        // A deterministic histogram's bucket table is contract: any drift
        // diverges, even when the summary stats agree.
        let c = with_hists(&format!(
            r#""svc.serve.latency_ns": {}, "svc.batch_samples": {}"#,
            hist("4:3;86:1"),
            hist("4:2;5:1;86:1")
        ));
        let r = diff_manifests(&a, &c).unwrap();
        assert!(r
            .divergences
            .iter()
            .any(|d| d.contains("hists.svc.batch_samples")));
    }

    #[test]
    fn schema_mismatch_diverges() {
        let a = manifest("", "", 1);
        let b = a.replace("\"schema\": 1", "\"schema\": 2");
        let r = diff_manifests(&a, &b).unwrap();
        assert!(r.divergences.iter().any(|d| d.starts_with("schema")));
    }

    #[test]
    fn garbage_inputs_error_cleanly() {
        assert!(diff_manifests("not json", "{}").is_err());
        assert!(diff_manifests("{}", "[1,2]").is_err());
        // An empty object is a degenerate but valid manifest: no sections,
        // nothing to diverge on.
        assert!(diff_manifests("{}", "{}").unwrap().is_clean());
    }
}
