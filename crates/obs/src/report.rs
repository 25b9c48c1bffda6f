//! Folds a JSONL trace stream into a human-readable stage/phase time
//! breakdown — the logic behind the `ct-obs report` subcommand.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};

/// Percentile summary folded from `hist` summary lines. Repeated lines
/// for one name merge by adding counts and keeping the largest quantile
/// estimates (exact re-merging needs the bucket tables; the report reads
/// only the summaries).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Observations recorded.
    pub count: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
}

/// Aggregates folded out of a trace stream.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Span name -> (count, wall_ns, cpu_ticks).
    pub spans: BTreeMap<String, (u64, u64, u64)>,
    /// Counter name -> value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name -> percentile summary.
    pub hists: BTreeMap<String, HistSummary>,
    /// Event name -> occurrences (excluding summary lines).
    pub event_counts: BTreeMap<String, u64>,
    /// Per-restart EM iteration counts, in stream order.
    pub em_iterations: Vec<u64>,
    /// EM restarts that converged.
    pub em_converged: u64,
    /// `warn.*` events, rendered back as JSONL.
    pub warnings: Vec<String>,
    /// Lines that failed to parse (reported, not fatal).
    pub malformed: Vec<String>,
}

/// Event-name prefixes whose integral fields fold into the counter table
/// (`<event>.<field>`), alongside plain `counter` lines.
const COUNTER_EVENT_PREFIXES: &[&str] = &["pmu.", "em.", "ladder."];

fn num(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_num).map_or(0, |n| n as u64)
}

/// Splits a `svc.shard.<i>.<metric>` name into its shard index and metric
/// suffix.
fn shard_metric(name: &str) -> Option<(u64, &str)> {
    let rest = name.strip_prefix("svc.shard.")?;
    let (idx, metric) = rest.split_once('.')?;
    Some((idx.parse().ok()?, metric))
}

impl Report {
    /// Folds a JSONL stream (one JSON object per non-empty line).
    pub fn from_jsonl(input: &str) -> Report {
        let mut r = Report::default();
        for line in input.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let doc = match json::parse(line) {
                Ok(doc) => doc,
                Err(e) => {
                    r.malformed.push(format!("{e}: {line}"));
                    continue;
                }
            };
            let Some(event) = doc.get("event").and_then(Json::as_str) else {
                r.malformed.push(format!("missing event key: {line}"));
                continue;
            };
            match event {
                "span" => {
                    if let Some(name) = doc.get("name").and_then(Json::as_str) {
                        // Saturating folds: adversarial streams carry
                        // u64-scale values that would overflow-panic in
                        // debug builds with plain `+=`.
                        let slot = r.spans.entry(name.to_string()).or_default();
                        slot.0 = slot.0.saturating_add(num(&doc, "count"));
                        slot.1 = slot.1.saturating_add(num(&doc, "wall_ns"));
                        slot.2 = slot.2.saturating_add(num(&doc, "cpu_ticks"));
                    }
                }
                "counter" => {
                    if let Some(name) = doc.get("name").and_then(Json::as_str) {
                        let slot = r.counters.entry(name.to_string()).or_default();
                        *slot = slot.saturating_add(num(&doc, "value"));
                    }
                }
                "hist" => {
                    if let Some(name) = doc.get("name").and_then(Json::as_str) {
                        let slot = r.hists.entry(name.to_string()).or_default();
                        slot.count = slot.count.saturating_add(num(&doc, "count"));
                        slot.p50 = slot.p50.max(num(&doc, "p50"));
                        slot.p90 = slot.p90.max(num(&doc, "p90"));
                        slot.p99 = slot.p99.max(num(&doc, "p99"));
                        slot.max = slot.max.max(num(&doc, "max"));
                    }
                }
                "gauge" | "trace.meta" => {}
                name => {
                    *r.event_counts.entry(name.to_string()).or_default() += 1;
                    if name == "em.restart" {
                        r.em_iterations.push(num(&doc, "iterations"));
                        if doc.get("converged") == Some(&Json::Bool(true)) {
                            r.em_converged += 1;
                        }
                    }
                    if name.starts_with("warn.") {
                        r.warnings.push(line.to_string());
                    }
                    // Counter-shaped events (PMU banks, estimator stats):
                    // fold their integral fields into the counter table so
                    // one breakdown covers timings and counts alike.
                    if COUNTER_EVENT_PREFIXES.iter().any(|p| name.starts_with(p)) {
                        if let Json::Obj(fields) = &doc {
                            for (k, v) in fields {
                                if k == "event" || crate::VOLATILE_FIELDS.contains(&k.as_str()) {
                                    continue;
                                }
                                let Some(n) = v.as_num() else { continue };
                                if n.is_finite() && n >= 0.0 && n.fract() == 0.0 {
                                    let slot = r.counters.entry(format!("{name}.{k}")).or_default();
                                    *slot = slot.saturating_add(n as u64);
                                }
                            }
                        }
                    }
                }
            }
        }
        r
    }

    /// Renders the stage-time breakdown table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total_wall: u64 = self.spans.values().map(|(_, w, _)| *w).sum();
        let _ = writeln!(out, "== stage/phase breakdown ==");
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>7} {:>10}",
            "span", "count", "wall_ms", "%", "cpu_ticks"
        );
        let mut by_wall: Vec<_> = self.spans.iter().collect();
        by_wall.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(b.0)));
        for (name, (count, wall_ns, cpu)) in by_wall {
            let pct = if total_wall > 0 {
                100.0 * *wall_ns as f64 / total_wall as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12.3} {:>6.1}% {:>10}",
                name,
                count,
                *wall_ns as f64 / 1e6,
                pct,
                cpu
            );
        }
        if !self.em_iterations.is_empty() {
            let total: u64 = self.em_iterations.iter().sum();
            let _ = writeln!(out, "== EM restarts ==");
            let _ = writeln!(
                out,
                "restarts={} converged={} iterations(total)={} iterations(per restart)={:?}",
                self.em_iterations.len(),
                self.em_converged,
                total,
                self.em_iterations
            );
        }
        self.render_service_section(&mut out);
        let plain_counters: Vec<_> = self
            .counters
            .iter()
            .filter(|(name, _)| !name.starts_with("svc."))
            .collect();
        if !plain_counters.is_empty() {
            let _ = writeln!(out, "== counters ==");
            for (name, n) in plain_counters {
                let _ = writeln!(out, "{name:<28} {n:>10}");
            }
        }
        let plain_hists: Vec<_> = self
            .hists
            .iter()
            .filter(|(name, _)| !name.starts_with("svc."))
            .collect();
        if !plain_hists.is_empty() {
            let _ = writeln!(out, "== hists ==");
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "hist", "count", "p50", "p90", "p99", "max"
            );
            for (name, h) in plain_hists {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    name, h.count, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        if !self.event_counts.is_empty() {
            let _ = writeln!(out, "== events ==");
            for (name, n) in &self.event_counts {
                let _ = writeln!(out, "{name:<28} {n:>10}");
            }
        }
        if !self.warnings.is_empty() {
            let _ = writeln!(out, "== warnings ==");
            for w in &self.warnings {
                let _ = writeln!(out, "{w}");
            }
        }
        if !self.malformed.is_empty() {
            let _ = writeln!(out, "== malformed lines ==");
            for m in &self.malformed {
                let _ = writeln!(out, "{m}");
            }
        }
        out
    }

    /// Renders the dedicated `svc.*` section: service-wide counters and
    /// histograms, then a per-shard breakdown folded from the
    /// `svc.shard.<i>.*` names. Absent entirely when the stream carries
    /// no service telemetry.
    fn render_service_section(&self, out: &mut String) {
        let svc_counters: Vec<_> = self
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("svc.") && shard_metric(n).is_none())
            .collect();
        let svc_hists: Vec<_> = self
            .hists
            .iter()
            .filter(|(n, _)| n.starts_with("svc.") && shard_metric(n).is_none())
            .collect();
        let mut shards: BTreeMap<u64, (u64, u64, Option<HistSummary>)> = BTreeMap::new();
        for (name, n) in &self.counters {
            if let Some((idx, metric)) = shard_metric(name) {
                let row = shards.entry(idx).or_default();
                match metric {
                    "accepted" => row.0 = *n,
                    "dedup" => row.1 = *n,
                    _ => {}
                }
            }
        }
        for (name, h) in &self.hists {
            if let Some((idx, "queue_depth")) = shard_metric(name) {
                shards.entry(idx).or_default().2 = Some(*h);
            }
        }
        if svc_counters.is_empty() && svc_hists.is_empty() && shards.is_empty() {
            return;
        }
        let _ = writeln!(out, "== service ==");
        for (name, n) in svc_counters {
            let _ = writeln!(out, "{name:<28} {n:>10}");
        }
        if !svc_hists.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "hist", "count", "p50", "p90", "p99", "max"
            );
            for (name, h) in svc_hists {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    name, h.count, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        if !shards.is_empty() {
            let _ = writeln!(out, "-- per shard --");
            let _ = writeln!(
                out,
                "{:>5} {:>10} {:>10} {:>10} {:>10}",
                "shard", "accepted", "dedup", "depth_p99", "depth_max"
            );
            for (idx, (accepted, dedup, depth)) in &shards {
                let (p99, max) = depth.map_or((0, 0), |h| (h.p99, h.max));
                let _ = writeln!(
                    out,
                    "{idx:>5} {accepted:>10} {dedup:>10} {p99:>10} {max:>10}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &str = r#"
{"event":"trace.meta","schema":1,"events":3}
{"event":"stage.estimate","ok":true}
{"event":"em.restart","restart":0,"iterations":12,"converged":true}
{"event":"em.restart","restart":1,"iterations":40,"converged":false}
{"event":"warn.suffstats_saturated","proc":"main"}
{"event":"span","name":"stage.estimate","count":1,"wall_ns":2000000,"cpu_ticks":3}
{"event":"span","name":"stage.run","count":1,"wall_ns":6000000,"cpu_ticks":9}
{"event":"counter","name":"fleet.motes","value":4}
"#;

    #[test]
    fn folds_spans_events_and_counters() {
        let r = Report::from_jsonl(STREAM);
        assert!(r.malformed.is_empty(), "{:?}", r.malformed);
        assert_eq!(r.spans["stage.run"], (1, 6_000_000, 9));
        assert_eq!(r.counters["fleet.motes"], 4);
        assert_eq!(r.em_iterations, vec![12, 40]);
        assert_eq!(r.em_converged, 1);
        assert_eq!(r.event_counts["stage.estimate"], 1);
        assert_eq!(r.warnings.len(), 1);
    }

    #[test]
    fn render_orders_spans_by_wall_time() {
        let r = Report::from_jsonl(STREAM);
        let table = r.render();
        let run = table.find("stage.run").unwrap_or(usize::MAX);
        let est = table.find("stage.estimate").unwrap_or(0);
        assert!(run < est, "expected stage.run (slower) first:\n{table}");
        assert!(table.contains("restarts=2 converged=1 iterations(total)=52"));
    }

    #[test]
    fn counter_events_fold_into_the_counter_table() {
        let r = Report::from_jsonl(concat!(
            "{\"event\":\"pmu.totals\",\"cond_taken\":7,\"cond_not_taken\":3,\"wall_ns\":99}\n",
            "{\"event\":\"pmu.totals\",\"cond_taken\":5,\"cond_not_taken\":5,\"rate\":0.5}\n",
            "{\"event\":\"em.restart\",\"restart\":1,\"iterations\":12,\"converged\":true}\n",
        ));
        assert_eq!(r.counters["pmu.totals.cond_taken"], 12);
        assert_eq!(r.counters["pmu.totals.cond_not_taken"], 8);
        assert_eq!(r.counters["em.restart.iterations"], 12);
        // Volatile and fractional fields stay out.
        assert!(!r.counters.contains_key("pmu.totals.wall_ns"));
        assert!(!r.counters.contains_key("pmu.totals.rate"));
        // The special-cased EM summary still works.
        assert_eq!(r.em_iterations, vec![12]);
    }

    #[test]
    fn malformed_lines_are_reported_not_fatal() {
        let r = Report::from_jsonl("not json\n{\"event\":\"x\"}\n{\"no_event\":1}\n");
        assert_eq!(r.malformed.len(), 2);
        assert_eq!(r.event_counts["x"], 1);
    }

    #[test]
    fn service_telemetry_groups_into_its_own_section() {
        let r = Report::from_jsonl(concat!(
            "{\"event\":\"counter\",\"name\":\"svc.ingest.accepted\",\"value\":40}\n",
            "{\"event\":\"counter\",\"name\":\"svc.shard.0.accepted\",\"value\":22}\n",
            "{\"event\":\"counter\",\"name\":\"svc.shard.1.accepted\",\"value\":18}\n",
            "{\"event\":\"counter\",\"name\":\"svc.shard.1.dedup\",\"value\":3}\n",
            "{\"event\":\"counter\",\"name\":\"fleet.motes\",\"value\":4}\n",
            "{\"event\":\"hist\",\"name\":\"svc.batch_samples\",\"count\":10,\"p50\":4,\"p90\":4,\"p99\":4,\"max\":4}\n",
            "{\"event\":\"hist\",\"name\":\"svc.shard.1.queue_depth\",\"count\":18,\"p50\":2,\"p90\":5,\"p99\":7,\"max\":7}\n",
        ));
        assert_eq!(r.hists["svc.batch_samples"].count, 10);
        let table = r.render();
        let svc = table.find("== service ==").expect("service section");
        let counters = table.find("== counters ==").expect("counters section");
        assert!(svc < counters, "service section renders first:\n{table}");
        // Per-shard rows carry both counters and the depth percentiles.
        let shard_row = table
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .unwrap_or_default();
        for col in ["18", "3", "7"] {
            assert!(shard_row.contains(col), "row {shard_row:?} missing {col}");
        }
        // svc.* names do not leak into the flat counter table.
        let flat = &table[counters..];
        assert!(!flat.contains("svc."), "svc.* leaked:\n{flat}");
        assert!(flat.contains("fleet.motes"));
    }

    #[test]
    fn adversarial_u64_scale_values_fold_without_panicking() {
        let big = u64::MAX;
        let r = Report::from_jsonl(&format!(
            concat!(
                "{{\"event\":\"span\",\"name\":\"s\",\"count\":{big},\"wall_ns\":{big},\"cpu_ticks\":{big}}}\n",
                "{{\"event\":\"span\",\"name\":\"s\",\"count\":{big},\"wall_ns\":{big},\"cpu_ticks\":{big}}}\n",
                "{{\"event\":\"counter\",\"name\":\"c\",\"value\":{big}}}\n",
                "{{\"event\":\"counter\",\"name\":\"c\",\"value\":{big}}}\n",
                "{{\"event\":\"pmu.totals\",\"jumps\":{big}}}\n",
                "{{\"event\":\"pmu.totals\",\"jumps\":{big}}}\n",
            ),
            big = big
        ));
        // f64 round-trip of u64::MAX lands above MAX and casts saturate,
        // so both folds clamp instead of panicking in debug builds.
        assert_eq!(r.counters["c"], u64::MAX);
        assert_eq!(r.counters["pmu.totals.jumps"], u64::MAX);
        assert_eq!(r.spans["s"].0, u64::MAX);
        let _ = r.render();
    }
}
