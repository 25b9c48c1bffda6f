//! The `faults` workload: the degradation ladder (`estimate_robust`) plus
//! confidence-gated placement (`Session::place_gated`) on runs whose tick
//! streams crossed a faulty measurement channel, at 8 cycles/tick.
//!
//! Collection (compile, run, corrupt) is set-up, excluded from the timed
//! loop and reported as `setup_s`. One caller, closed loop.

use crate::common::{
    derive_seed, mean, ms, ratio, set_em_layers, Budget, EmCounters, Layers, PassStats, Report,
    SetupTimes,
};
use ct_cfg::layout::Layout;
use ct_core::estimator::{estimate, EstimateOptions, Method, RobustOptions, Rung};
use ct_core::{estimate_robust, TimingSamples};
use ct_faults::{FaultKind, FaultPlan};
use ct_mote::timer::VirtualTimer;
use ct_pipeline::{AppRun, RunConfig, Session};
use ct_placement::Strategy;
use std::time::{Duration, Instant};

/// Invocations collected per cell.
const INVOCATIONS: usize = 6_000;

/// Workload seeds per fault cell in one pass.
const SEEDS_PER_CELL: usize = 4;

/// The fault cells of one pass: `(app, fault, rate)`, each collected under
/// [`SEEDS_PER_CELL`] seeds. Chosen so the ladder runs every rung (see
/// `README.md`): clean cells answer at full EM, most faulted cells at
/// trimmed EM, and misreported resolution pushes the ladder through GNT to
/// moments or the prior. `crc` is left out because its trimmed-EM rung
/// costs seconds per call.
const CELLS: &[(&str, FaultKind, f64)] = &[
    ("sense", FaultKind::ClockDrift, 0.0),
    ("sense", FaultKind::ClockDrift, 0.3),
    ("sense", FaultKind::RecordLoss, 0.3),
    ("sense", FaultKind::Duplication, 0.5),
    ("sense", FaultKind::StuckAt, 0.3),
    ("oscilloscope", FaultKind::ClockDrift, 0.0),
    ("oscilloscope", FaultKind::Duplication, 0.5),
    ("oscilloscope", FaultKind::RecordLoss, 0.3),
    ("oscilloscope", FaultKind::StuckAt, 0.3),
    ("oscilloscope", FaultKind::MisreportedResolution, 0.5),
    ("event_detect", FaultKind::ClockDrift, 0.0),
    ("event_detect", FaultKind::ClockDrift, 0.3),
    ("event_detect", FaultKind::RecordLoss, 0.3),
    ("event_detect", FaultKind::Duplication, 0.5),
    ("event_detect", FaultKind::Reordering, 0.3),
    ("event_detect", FaultKind::TruncatedBatch, 0.5),
    ("event_detect", FaultKind::StuckAt, 0.3),
    ("event_detect", FaultKind::MisreportedResolution, 1.0),
    ("surge", FaultKind::ClockDrift, 0.0),
    ("surge", FaultKind::ClockDrift, 0.3),
    ("surge", FaultKind::Duplication, 0.5),
];

/// One collected, corrupted cell.
struct Cell {
    label: String,
    session: Session,
    run: AppRun,
}

fn collect(seed: u64) -> Result<Vec<Cell>, String> {
    CELLS
        .iter()
        .flat_map(|cell| std::iter::repeat_n(cell, SEEDS_PER_CELL))
        .enumerate()
        .map(|(i, &(app, kind, rate))| {
            let session = Session::new(
                RunConfig::new(app)
                    .invocations(INVOCATIONS)
                    .resolution(VirtualTimer::mhz1_at_8mhz().cycles_per_tick())
                    .seeded(derive_seed(seed, 2 * i as u64))
                    .faulted(FaultPlan::single(
                        kind,
                        rate,
                        derive_seed(seed, 2 * i as u64 + 1),
                    ))
                    .no_unroll(),
            );
            let label = format!("{app} {kind} {rate}");
            let run = session.collect().map_err(|e| format!("{label}: {e}"))?;
            Ok(Cell {
                label,
                session,
                run,
            })
        })
        .collect()
}

/// The deterministic outcome of one ladder call.
#[derive(Debug, Clone, PartialEq)]
struct CellFacts {
    wmae: f64,
    mispred_placed: f64,
    trail: Vec<(Rung, bool)>,
    confidence: f64,
    installed: bool,
    em_iterations: u64,
}

/// Per-rung standalone timings of one traced pass.
#[derive(Debug, Default)]
struct RungTimes {
    ladder: Duration,
    calls: u64,
    trim: (Duration, u64),
    full_em: (Duration, u64),
    trimmed_em: (Duration, u64),
    gnt: (Duration, u64),
    moments: (Duration, u64),
}

fn timed(slot: &mut (Duration, u64), f: impl FnOnce()) {
    let started = Instant::now();
    f();
    slot.0 += started.elapsed();
    slot.1 += 1;
}

/// Re-runs, standalone, each rung the ladder actually ran on this cell:
/// the trim through `TimingSamples::trimmed`, and each estimator through
/// the forced-`Method` front door on the samples the ladder handed it.
fn time_rungs(run: &AppRun, trail: &[ct_core::estimator::RungAttempt], t: &mut RungTimes) {
    let opts = RobustOptions::default();
    let forced = |samples: &TimingSamples, method: Method| {
        let o = EstimateOptions {
            method: Some(method),
            ..opts.base
        };
        let _ = std::hint::black_box(estimate(
            run.cfg(),
            &run.block_costs,
            &run.edge_costs,
            samples,
            o,
        ));
    };
    timed(&mut t.full_em, || forced(&run.samples, Method::Em));
    if trail.len() < 2 {
        return;
    }
    let mut trimmed = None;
    timed(&mut t.trim, || {
        trimmed = Some(run.samples.trimmed(opts.trim));
    });
    let (trimmed, dropped) = trimmed.expect("trim ran");
    let n = run.samples.len();
    let ran = |rung: Rung| {
        trail
            .iter()
            .any(|a| a.rung == rung && !a.detail.starts_with("skipped"))
    };
    if ran(Rung::TrimmedEm) && n > 0 && dropped as f64 / n as f64 <= opts.max_trimmed {
        timed(&mut t.trimmed_em, || forced(&trimmed, Method::Em));
    }
    if ran(Rung::Gnt) {
        timed(&mut t.gnt, || forced(&trimmed, Method::Gnt));
    }
    if ran(Rung::Moments) {
        timed(&mut t.moments, || forced(&trimmed, Method::Moments));
    }
}

/// The `(attempted, accepted)` metric names of a rung.
fn trail_metrics(r: Rung) -> (&'static str, &'static str) {
    match r {
        Rung::FullEm => ("ladder.attempted.full_em", "ladder.accepted.full_em"),
        Rung::TrimmedEm => ("ladder.attempted.trimmed_em", "ladder.accepted.trimmed_em"),
        Rung::Gnt => ("ladder.attempted.gnt", "ladder.accepted.gnt"),
        Rung::Moments => ("ladder.attempted.moments", "ladder.accepted.moments"),
        Rung::Prior => ("ladder.attempted.prior", "ladder.accepted.prior"),
    }
}

/// Runs the workload and returns its report.
pub fn run(seed: u64, budget: Budget, trace: bool) -> Report {
    let mut report = Report::default();
    let setup = || collect(seed);
    let (cells, mut setup_times) = SetupTimes::first(setup);
    let cells = match cells {
        Ok(c) => c,
        Err(e) => {
            report.attempted = 1;
            report.fail(format!("collection failed: {e}"));
            return report;
        }
    };

    let mut stats = PassStats::default();
    let mut reference: Option<Vec<CellFacts>> = None;
    let mut rungs = RungTimes::default();
    let (mut traced_busy, mut traced_calls) = (Duration::ZERO, 0u64);
    let (mut plain_busy, mut plain_calls) = (Duration::ZERO, 0u64);
    let mut em_pass = EmCounters::default();

    let started = Instant::now();
    let mut passes = 0u32;
    while budget.more(passes, started.elapsed()) {
        let traced = trace && passes.is_multiple_of(2);
        let mut facts = Vec::with_capacity(cells.len());
        let mut em = EmCounters::default();
        let mut pass_busy = Duration::ZERO;
        let mut latencies_ms = Vec::with_capacity(cells.len());
        for cell in &cells {
            report.attempted += 1;
            let run = &cell.run;
            let cfg = run.cfg();
            let em_before = traced.then(EmCounters::read);
            let t0 = Instant::now();
            let robust = estimate_robust(
                cfg,
                &run.block_costs,
                &run.edge_costs,
                &run.samples,
                RobustOptions::default(),
            );
            let ladder = t0.elapsed();
            let layout = cell.session.place_gated(
                run,
                &robust.estimate.probs,
                robust.confidence,
                Strategy::Best,
            );
            let elapsed = t0.elapsed();
            pass_busy += elapsed;
            latencies_ms.push(ms(elapsed));
            if traced {
                em.add(EmCounters::since(em_before.expect("read when traced")));
                traced_busy += elapsed;
                traced_calls += 1;
                rungs.ladder += ladder;
                rungs.calls += 1;
                time_rungs(run, &robust.attempts, &mut rungs);
            } else {
                plain_busy += elapsed;
                plain_calls += 1;
            }

            // The attempt trail must read strictly top-down and end in the
            // one accepted rung, which is the rung the ladder reports.
            let trail = &robust.attempts;
            let descending = trail.windows(2).all(|w| w[0].rung < w[1].rung);
            let ends_accepted = trail
                .last()
                .is_some_and(|a| a.accepted && a.rung == robust.rung)
                && trail.iter().filter(|a| a.accepted).count() == 1;
            report.check(descending && ends_accepted, || {
                format!(
                    "{}: ladder trail out of order or unaccepted: {trail:?}",
                    cell.label
                )
            });
            let acc = ct_core::compare(
                cfg,
                &robust.estimate.probs,
                &run.truth,
                &run.truth_profile,
                run.invocations,
            );
            report.check(acc.weighted_mae.is_finite(), || {
                format!("{}: non-finite wMAE", cell.label)
            });
            let penalties = cell.session.config().penalties();
            facts.push(CellFacts {
                wmae: acc.weighted_mae,
                mispred_placed: layout
                    .evaluate(cfg, &run.truth_profile, &penalties)
                    .misprediction_rate(),
                trail: trail.iter().map(|a| (a.rung, a.accepted)).collect(),
                confidence: robust.confidence,
                installed: layout != Layout::natural(cfg),
                em_iterations: robust.estimate.iterations as u64,
            });
        }
        stats.record(&latencies_ms, pass_busy.as_secs_f64());
        if traced {
            em_pass = em;
        }
        match &reference {
            None => reference = Some(facts),
            Some(first) => report.check(*first == facts, || {
                format!("pass {passes} diverged from pass 0")
            }),
        }
        passes += 1;
        setup_times.repeat_due(setup);
    }

    let facts = reference.unwrap_or_default();
    if !trace {
        stats.report(cells.len() as f64, &mut report);
        report.metric("setup_s", setup_times.seconds(), "s");
        let wmae: Vec<f64> = facts.iter().map(|f| f.wmae).collect();
        let mispred: Vec<f64> = facts.iter().map(|f| f.mispred_placed).collect();
        report.metric("wmae_mean", mean(&wmae), "ratio");
        report.metric("mispred_placed", mean(&mispred), "ratio");
        return report;
    }

    let mut layers = Layers::default();
    set_em_layers(
        &mut layers,
        facts.iter().map(|f| f.em_iterations).sum(),
        em_pass,
    );
    let per_call = |(d, n): (Duration, u64)| ratio(ms(d), n as f64);
    layers.set("ladder.calls", facts.len() as f64);
    layers.set("ladder.ms", per_call((rungs.ladder, rungs.calls)));
    layers.set("ladder.trim.ms", per_call(rungs.trim));
    layers.set("rung.full_em.ms", per_call(rungs.full_em));
    layers.set("rung.trimmed_em.ms", per_call(rungs.trimmed_em));
    layers.set("rung.gnt.ms", per_call(rungs.gnt));
    layers.set("rung.moments.ms", per_call(rungs.moments));
    let parts = rungs.trim.0 + rungs.full_em.0 + rungs.trimmed_em.0 + rungs.gnt.0 + rungs.moments.0;
    layers.set(
        "ladder.coverage",
        ratio(parts.as_secs_f64(), rungs.ladder.as_secs_f64()),
    );
    for rung in [
        Rung::FullEm,
        Rung::TrimmedEm,
        Rung::Gnt,
        Rung::Moments,
        Rung::Prior,
    ] {
        let count = |accepted_only: bool| {
            facts
                .iter()
                .flat_map(|f| &f.trail)
                .filter(|(r, a)| *r == rung && (*a || !accepted_only))
                .count() as f64
        };
        let (attempted, accepted) = trail_metrics(rung);
        layers.set(attempted, count(false));
        layers.set(accepted, count(true));
    }
    let confidences: Vec<f64> = facts.iter().map(|f| f.confidence).collect();
    layers.set("ladder.confidence_mean", mean(&confidences));
    layers.set(
        "place.installed",
        facts.iter().filter(|f| f.installed).count() as f64,
    );
    if plain_calls > 0 {
        layers.set(
            "trace.overhead_ratio",
            ratio(
                traced_busy.as_secs_f64() / traced_calls as f64,
                plain_busy.as_secs_f64() / plain_calls as f64,
            ),
        );
    }
    layers.into_report(&mut report);
    report
}
