//! `Evaluate` reads the natural layout's measurement off the profiled run
//! when that run already was the natural-layout replay (cycle-accurate
//! timer, zero timestamp overhead, no fault plan): the reused measurement
//! must equal a forced replay exactly, on every registry app. Every other
//! config must still replay.
//!
//! One `#[test]` owns the process globals (the ct-obs registry, whose
//! `stage.evaluate.replay` span count shows how many replays ran).

use ct_apps::registry::all_apps;
use ct_cfg::layout::Layout;
use ct_faults::{FaultKind, FaultPlan};
use ct_pipeline::{PipelineReport, RunConfig, Session};
use ct_placement::Strategy;

/// Runs the whole flow, returning its report and how many layouts it
/// replayed.
fn run_counting_replays(session: &Session) -> (PipelineReport, u64) {
    ct_obs::reset();
    let report = session.run(Strategy::Best).expect("pipeline runs");
    let replays = ct_obs::snapshot()
        .spans
        .iter()
        .find(|(name, _)| name == "stage.evaluate.replay")
        .map_or(0, |(_, agg)| agg.count);
    ct_obs::reset();
    (report, replays)
}

#[test]
fn evaluate_reuses_the_profiled_run_only_when_it_is_the_natural_replay() {
    for app in all_apps() {
        for seed in [7, 29] {
            let session = Session::new(RunConfig::new(app.name).invocations(150).seeded(seed));
            let (report, replays) = run_counting_replays(&session);
            assert_eq!(
                replays, 1,
                "{} seed {seed}: only the placed layout replays",
                app.name
            );
            let forced = session
                .evaluate(&Layout::natural(report.run.cfg()))
                .expect("natural replay runs");
            let label = format!("{} seed {seed}", app.name);
            assert_eq!(report.before.pmu, forced.pmu, "{label}: PMU");
            assert_eq!(report.before.cycles, forced.cycles, "{label}: cycles");
            assert_eq!(report.before.cost, forced.cost, "{label}: layout cost");
        }
    }

    let base = || RunConfig::new("sense").invocations(150).seeded(7);
    let replaying = [
        ("resolution 8", base().resolution(8)),
        ("timestamp overhead", base().overhead(12)),
        (
            "fault plan",
            base().faulted(FaultPlan::single(FaultKind::RecordLoss, 0.2, 3)),
        ),
    ];
    for (label, config) in replaying {
        let session = Session::new(config);
        let (report, replays) = run_counting_replays(&session);
        assert_eq!(replays, 2, "{label}: both layouts replay");
        let forced = session
            .evaluate(&Layout::natural(report.run.cfg()))
            .expect("natural replay runs");
        assert_eq!(report.before.pmu, forced.pmu, "{label}: PMU");
        assert_eq!(report.before.cycles, forced.cycles, "{label}: cycles");
        assert_eq!(report.before.cost, forced.cost, "{label}: layout cost");
        if label == "timestamp overhead" {
            // The profiled run paid for its timestamps; the replay did not.
            assert_ne!(report.before.cycles, report.run.cycles_used);
        }
    }
}
