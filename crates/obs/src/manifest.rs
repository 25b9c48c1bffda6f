//! Per-run manifest: a single JSON document recording everything needed to
//! reproduce a results artifact — seeds and env knobs, the git revision,
//! wall/CPU time per stage, counters, and the estimator audit trail.

use std::fmt::Write as _;
use std::path::Path;

use crate::event::Value;
use crate::json::write_escaped;
use crate::recorder::Snapshot;

/// Environment knobs recorded in every manifest (value or `null`).
pub const ENV_KNOBS: &[&str] = &[
    "CT_THREADS",
    "CT_SEED",
    "CT_SMOKE",
    "E13_SMOKE",
    "CT_TRACE",
    "CT_TRACE_JSON",
    "CT_MANIFEST",
    "CT_METRICS_PATH",
    "CT_FLIGHT_RECORDER",
    "CT_FLIGHT_DEPTH",
];

/// Event-name prefixes that belong in the manifest's estimator audit trail.
const AUDIT_PREFIXES: &[&str] = &[
    "em.", "ladder.", "gnt.", "warn.", "place.", "pmu.", "fleet.", "ckpt.", "svc.",
];

/// Counter-name prefix mirrored into the manifest's dedicated `pmu`
/// section (prefix stripped), so counter drift between runs is one
/// `ct-obs diff` section away.
const PMU_PREFIX: &str = "pmu.";

/// Best-effort git revision: walks up from the current directory to a
/// `.git`, then resolves `HEAD` through refs and `packed-refs`. Returns
/// `"unknown"` when anything is missing — a manifest must never fail a run.
pub fn git_rev() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    let git = loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            break candidate;
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    };
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the hash itself.
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
        return hash.trim().to_string();
    }
    if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
        for line in packed.lines() {
            if let Some(hash) = line.strip_suffix(refname) {
                return hash.trim().to_string();
            }
        }
    }
    "unknown".to_string()
}

fn push_kv_str(out: &mut String, key: &str, value: &str) {
    write_escaped(out, key);
    out.push(':');
    write_escaped(out, value);
}

/// Renders the manifest document for `run_name` from `snap`, with
/// caller-supplied `extra` fields (e.g. per-binary seeds) inlined at the
/// top level under `"run"`.
pub fn render_manifest(run_name: &str, snap: &Snapshot, extra: &[(&str, Value)]) -> String {
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);

    let mut out = String::with_capacity(1024);
    out.push_str("{\n  ");
    push_kv_str(&mut out, "name", run_name);
    let _ = write!(out, ",\n  \"schema\": {},", crate::SCHEMA_VERSION);
    let _ = write!(out, "\n  \"unix_time\": {unix_secs},\n  ");
    push_kv_str(&mut out, "git_rev", &git_rev());

    // Environment knobs, recorded verbatim (null when unset).
    out.push_str(",\n  \"env\": {");
    for (i, knob) in ENV_KNOBS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_escaped(&mut out, knob);
        out.push_str(": ");
        match std::env::var(knob) {
            Ok(v) => write_escaped(&mut out, &v),
            Err(_) => out.push_str("null"),
        }
    }
    out.push_str("\n  }");

    // Caller context (seeds, app name, estimator choice, ...).
    out.push_str(",\n  \"run\": {");
    for (i, (k, v)) in extra.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_escaped(&mut out, k);
        out.push_str(": ");
        v.render(&mut out);
    }
    out.push_str("\n  }");

    // Stage/phase timing.
    out.push_str(",\n  \"spans\": {");
    for (i, (name, agg)) in snap.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_escaped(&mut out, name);
        let _ = write!(
            out,
            ": {{\"count\": {}, \"wall_ns\": {}, \"cpu_ticks\": {}}}",
            agg.count, agg.wall_ns, agg.cpu_ticks
        );
    }
    out.push_str("\n  }");

    out.push_str(",\n  \"counters\": {");
    for (i, (name, n)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_escaped(&mut out, name);
        let _ = write!(out, ": {n}");
    }
    out.push_str("\n  }");

    // Gauges (max-merged across threads). Additive to the schema; the
    // service's queue-depth and reduce-latency telemetry lands here.
    out.push_str(",\n  \"gauges\": {");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_escaped(&mut out, name);
        if v.is_finite() {
            let _ = write!(out, ": {v}");
        } else {
            out.push_str(": null");
        }
    }
    out.push_str("\n  }");

    // Histograms: summary stats plus the compact bucket table, so
    // `ct-obs diff` can compare distribution shape, not just extremes.
    // Additive to the schema (absent in pre-0.11 manifests).
    out.push_str(",\n  \"hists\": {");
    for (i, (name, h)) in snap.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_escaped(&mut out, name);
        let _ = write!(
            out,
            ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": ",
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.p50(),
            h.p90(),
            h.p99()
        );
        write_escaped(&mut out, &h.render_buckets());
        out.push('}');
    }
    out.push_str("\n  }");

    // Virtual-PMU bank: the `pmu.*` counters again, prefix stripped —
    // the section experiment gates diff (additive to the schema).
    out.push_str(",\n  \"pmu\": {");
    let mut first = true;
    for (name, n) in &snap.counters {
        let Some(short) = name.strip_prefix(PMU_PREFIX) else {
            continue;
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        write_escaped(&mut out, short);
        let _ = write!(out, ": {n}");
    }
    out.push_str("\n  }");

    // Estimator audit trail: the deterministic-content events that explain
    // where the estimate came from.
    out.push_str(",\n  \"audit\": [");
    let mut first = true;
    for e in &snap.events {
        if !AUDIT_PREFIXES.iter().any(|p| e.name.starts_with(p)) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        out.push_str(&e.to_jsonl());
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Takes a fresh snapshot and writes the manifest for `run_name` to
/// `path`.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn write_manifest(path: &Path, run_name: &str, extra: &[(&str, Value)]) -> std::io::Result<()> {
    let snap = crate::recorder::snapshot();
    std::fs::write(path, render_manifest(run_name, &snap, extra))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn manifest_is_valid_json_with_expected_keys() {
        let snap = Snapshot::default();
        let doc = render_manifest("e1_accuracy", &snap, &[("seed", Value::U64(42))]);
        let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert_eq!(
            parsed.get("name").and_then(json::Json::as_str),
            Some("e1_accuracy")
        );
        assert!(parsed.get("git_rev").is_some());
        assert!(parsed
            .get("env")
            .and_then(|e| e.get("CT_THREADS"))
            .is_some());
        assert_eq!(
            parsed
                .get("run")
                .and_then(|r| r.get("seed"))
                .and_then(json::Json::as_num),
            Some(42.0)
        );
        assert!(matches!(parsed.get("audit"), Some(json::Json::Arr(_))));
    }

    #[test]
    fn pmu_counters_mirror_into_their_own_section() {
        let mut snap = Snapshot::default();
        snap.counters.push(("fleet.motes".to_string(), 4));
        snap.counters.push(("pmu.cond_taken".to_string(), 7));
        snap.counters.push(("pmu.jumps".to_string(), 3));
        let doc = render_manifest("e4_placement", &snap, &[]);
        let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        let pmu = parsed.get("pmu").expect("pmu section");
        assert_eq!(
            pmu.get("cond_taken").and_then(json::Json::as_num),
            Some(7.0)
        );
        assert_eq!(pmu.get("jumps").and_then(json::Json::as_num), Some(3.0));
        assert!(pmu.get("fleet.motes").is_none(), "only pmu.* mirrored");
        // The raw counter stays in `counters` too.
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("pmu.cond_taken"))
                .and_then(json::Json::as_num),
            Some(7.0)
        );
    }

    #[test]
    fn gauges_render_with_non_finite_values_nulled() {
        let mut snap = Snapshot::default();
        snap.gauges.push(("svc.queue_depth".to_string(), 17.0));
        snap.gauges
            .push(("svc.reduce.latency_us".to_string(), f64::NEG_INFINITY));
        let doc = render_manifest("e16_fleet_scale", &snap, &[]);
        let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        let gauges = parsed.get("gauges").expect("gauges section");
        assert_eq!(
            gauges.get("svc.queue_depth").and_then(json::Json::as_num),
            Some(17.0)
        );
        assert!(
            matches!(gauges.get("svc.reduce.latency_us"), Some(json::Json::Null)),
            "non-finite gauge must render as null, not break the JSON"
        );
    }

    #[test]
    fn hists_render_with_summary_and_buckets() {
        let mut h = crate::hist::HistData::default();
        for v in [4u64, 4, 4, 90] {
            h.record(v);
        }
        let mut snap = Snapshot::default();
        snap.hists.push(("svc.batch_samples".to_string(), h));
        let doc = render_manifest("e18_telemetry", &snap, &[]);
        let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        let hist = parsed
            .get("hists")
            .and_then(|hs| hs.get("svc.batch_samples"))
            .expect("hist section entry");
        assert_eq!(hist.get("count").and_then(json::Json::as_num), Some(4.0));
        assert_eq!(hist.get("p50").and_then(json::Json::as_num), Some(4.0));
        assert_eq!(hist.get("max").and_then(json::Json::as_num), Some(90.0));
        let buckets = hist
            .get("buckets")
            .and_then(json::Json::as_str)
            .expect("compact bucket table");
        assert!(buckets.starts_with("4:3;"), "unexpected buckets {buckets}");
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        // Running inside the repository: HEAD should resolve to a 40-hex
        // commit id (or "unknown" in exotic checkouts — never panic).
        let rev = git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected rev {rev:?}"
        );
    }
}
