//! Golden pin of the degradation ladder on real workloads: every registry
//! app except `crc` and `sort` (their EM rungs cost tens of seconds per call
//! at the default options), profiled at 8 cycles/tick, once clean and once
//! per `FaultKind`. For each cell the
//! recorded outcome of `estimate_robust` — the probability bits, the
//! answering rung, the confidence bits, the trimmed count and every rung
//! attempt with its detail — must be reproduced exactly.
//!
//! The expected outcomes live in `tests/data/ladder_golden.txt`. After an
//! intended change of the ladder's output, rewrite them with
//! `cargo test --release --test ladder_golden -- --ignored` and review the
//! diff.

use ct_core::estimator::{estimate_robust, RobustEstimate, RobustOptions};
use ct_core::samples::DurationSamples;
use ct_core::stream::SuffStats;
use ct_faults::{FaultKind, FaultPlan};
use ct_pipeline::{Fleet, RunConfig, Session};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/ladder_golden.txt");

/// Apps left out of the pin: the only two whose ladder calls take seconds.
const SLOW_APPS: [&str; 2] = ["crc", "sort"];

/// Target invocations profiled per cell.
const INVOCATIONS: usize = 2_000;

/// Timer resolution of every cell (a 1 MHz timer on an 8 MHz core).
const CYCLES_PER_TICK: u64 = 8;

/// The fault rate of each kind's cell: high enough that the ladder leaves
/// full EM on most apps.
fn rate(kind: FaultKind) -> f64 {
    match kind {
        FaultKind::Duplication | FaultKind::TruncatedBatch | FaultKind::MisreportedResolution => {
            0.5
        }
        _ => 0.3,
    }
}

/// One cell's configuration and label.
fn cell_config(app: &str, fault: Option<FaultKind>, seed: u64) -> (RunConfig, String) {
    let config = RunConfig::new(app)
        .invocations(INVOCATIONS)
        .resolution(CYCLES_PER_TICK)
        .seeded(seed)
        .no_unroll();
    match fault {
        Some(kind) => (
            config.faulted(FaultPlan::single(kind, rate(kind), seed ^ 0x5EED)),
            format!("{kind} {}", rate(kind)),
        ),
        None => (config, "clean".to_string()),
    }
}

/// A ladder outcome, one fact per line.
fn outcome(r: &RobustEstimate) -> String {
    let probs: Vec<String> = r
        .estimate
        .probs
        .as_slice()
        .iter()
        .map(|p| format!("{:016x}", p.to_bits()))
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "  rung {}", r.rung);
    let _ = writeln!(out, "  confidence {:016x}", r.confidence.to_bits());
    let _ = writeln!(out, "  trimmed {}", r.trimmed);
    let _ = writeln!(out, "  probs {}", probs.join(" "));
    for a in &r.attempts {
        let verdict = if a.accepted { "accepted" } else { "rejected" };
        let _ = writeln!(out, "  attempt {} {verdict}: {}", a.rung, a.detail);
    }
    out
}

/// One cell's ladder outcome. The ladder reads only the samples'
/// statistics, so the tick vector and its `SuffStats` must walk it
/// bitwise alike.
fn cell_record(app: &str, fault: Option<FaultKind>, seed: u64) -> String {
    let (config, label) = cell_config(app, fault, seed);
    let run = Session::new(config)
        .collect()
        .unwrap_or_else(|e| panic!("{app} {label}: collection failed: {e}"));
    let ladder = |samples: &dyn DurationSamples| {
        outcome(&estimate_robust(
            run.cfg(),
            &run.block_costs,
            &run.edge_costs,
            samples,
            RobustOptions::default(),
        ))
    };
    let record = ladder(&run.samples);
    assert_eq!(
        ladder(&SuffStats::from_samples(&run.samples)),
        record,
        "{app} {label}: the vector and its statistics walk the ladder apart"
    );
    format!("cell {app} {label}\n{record}")
}

/// Every cell of the pin, in registry order; a cell's seed is `1_000` plus
/// its position.
fn grid() -> Vec<(&'static str, Option<FaultKind>)> {
    let mut cells = Vec::new();
    for app in ct_apps::all_apps() {
        if SLOW_APPS.contains(&app.name) {
            continue;
        }
        cells.push((app.name, None));
        cells.extend(FaultKind::ALL.into_iter().map(|k| (app.name, Some(k))));
    }
    cells
}

/// Every cell's record, in registry order.
fn all_records() -> String {
    let records = ct_stats::parallel::par_map(
        grid().into_iter().enumerate().collect(),
        |(i, (app, fault))| cell_record(app, fault, 1_000 + i as u64),
    );
    records.concat()
}

#[test]
fn ladder_outcomes_match_the_golden_on_every_app_and_fault() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let got = all_records();
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (want.lines().collect(), got.lines().collect());
    let mut cell = "";
    for (w, g) in want_lines.iter().zip(&got_lines) {
        if w.starts_with("cell ") {
            cell = w;
        }
        assert_eq!(w, g, "ladder outcome drifted in `{cell}`");
    }
    assert_eq!(
        want_lines.len(),
        got_lines.len(),
        "golden and run differ in length"
    );
}

/// A one-mote fleet estimates from its merged statistics exactly as its
/// mote's session does from the tick vector, on the robust ladder too. The
/// cells are the fir faults whose trimmed moments once depended on the
/// order the ticks arrived in.
#[test]
fn one_mote_fleet_walks_the_ladder_like_its_session() {
    let faults = [
        FaultKind::ClockDrift,
        FaultKind::Reordering,
        FaultKind::StuckAt,
        FaultKind::MisreportedResolution,
    ];
    let grid = grid();
    for kind in faults {
        let i = grid
            .iter()
            .position(|&cell| cell == ("fir", Some(kind)))
            .expect("fir cell in the grid");
        let (config, label) = cell_config("fir", Some(kind), 1_000 + i as u64);
        let config = config.robust();
        let session = Session::new(config.clone());
        let run = session.collect().expect("fir collects");
        let single = session.estimate(&run).expect("session estimate");
        let fleet = Fleet::new(config, 1);
        let fleet_run = fleet.run().expect("fleet runs");
        let merged = fleet.estimate(&fleet_run).expect("fleet estimate");
        let (a, b) = (
            single.robust.as_ref().expect("ladder ran"),
            merged.robust.as_ref().expect("ladder ran"),
        );
        assert_eq!(outcome(b), outcome(a), "fir {label}: fleet ladder drifted");
        assert_eq!(
            merged.confidence.to_bits(),
            single.confidence.to_bits(),
            "fir {label}: fleet confidence drifted"
        );
    }
}

#[test]
#[ignore = "rewrites the golden file; run after an intended change"]
fn regenerate_ladder_golden() {
    std::fs::write(GOLDEN, all_records()).expect("golden file written");
}
