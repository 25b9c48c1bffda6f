//! The `pipeline` workload: the whole Code Tomography loop, one typed
//! stage at a time, over every registry app and several workload seeds.
//!
//! Each flow runs `Compile → Deploy → Run → Collect → Corrupt →
//! EstimateStage → Place → Evaluate` through the public `Stage::run` (the
//! path `Session::run` composes) with a cycle-accurate timer and the naive
//! estimator. One caller, closed loop: the next flow starts when the
//! previous one returns.

use crate::common::{
    derive_seed, mean, ms, ratio, set_em_layers, Budget, EmCounters, Layers, PassStats, Report,
    SetupTimes,
};
use ct_cfg::layout::BranchPredictor;
use ct_core::estimator::Method;
use ct_pipeline::stage::{Collect, Compile, Corrupt, Deploy, EstimateStage, Evaluate, Place, Run};
use ct_pipeline::{Evaluated, PipelineError, PipelineReport, RunConfig, Stage};
use ct_placement::Strategy;
use std::time::{Duration, Instant};

/// Workload seeds per app in one pass (8 apps × this many flows).
const SEEDS_PER_APP: u64 = 6;
/// Target invocations per flow.
const INVOCATIONS: usize = 1_000;
/// Target invocations per warm-up flow in set-up.
const WARMUP_INVOCATIONS: usize = 100;

const STAGES: [&str; 8] = [
    "stage.compile.ms",
    "stage.deploy.ms",
    "stage.run.ms",
    "stage.collect.ms",
    "stage.corrupt.ms",
    "stage.estimate.ms",
    "stage.place.ms",
    "stage.evaluate.ms",
];
const RUN: usize = 2;
const EVALUATE: usize = 7;

/// Times stage calls when tracing; a no-op clock otherwise.
struct StageClock<'a> {
    per_stage: Option<&'a mut [Duration; 8]>,
}

impl StageClock<'_> {
    fn time<T>(&mut self, stage: usize, f: impl FnOnce() -> T) -> T {
        match self.per_stage.as_deref_mut() {
            Some(totals) => {
                let started = Instant::now();
                let out = f();
                totals[stage] += started.elapsed();
                out
            }
            None => f(),
        }
    }
}

/// One full flow, stage by stage.
fn flow(
    config: &RunConfig,
    per_stage: Option<&mut [Duration; 8]>,
) -> Result<PipelineReport, PipelineError> {
    let mut clock = StageClock { per_stage };
    let compiled = clock.time(0, || Compile.run(config, ()))?;
    let deployed = clock.time(1, || Deploy::default().run(config, compiled))?;
    let executed = clock.time(2, || Run.run(config, deployed))?;
    let collected = clock.time(3, || Collect.run(config, executed))?;
    let corrupted = clock.time(4, || Corrupt.run(config, collected))?;
    let estimated = clock.time(5, || EstimateStage.run(config, corrupted))?;
    let placed = clock.time(6, || {
        Place {
            strategy: Strategy::Best,
        }
        .run(config, estimated)
    })?;
    clock.time(7, || Evaluate.run(config, placed))
}

/// The deterministic outcome of one flow: what every pass must repeat.
#[derive(Debug, Clone, PartialEq)]
struct FlowFacts {
    wmae: f64,
    mispred_placed: f64,
    kcycles: u64,
    em_iterations: u64,
    unrolled: bool,
}

/// Checks one flow's outputs against references the pipeline does not
/// compute itself, returning its facts.
fn check(config: &RunConfig, report: &PipelineReport, out: &mut Report) -> FlowFacts {
    let name = config.target.name();
    let run = &report.run;
    let cfg = run.cfg();
    out.check(
        run.truth_profile.is_flow_consistent(cfg, run.invocations),
        || format!("{name}: ground-truth edge profile is not flow-consistent"),
    );
    // The virtual PMU counts the replayed transfers; the analytical
    // LayoutCost charges the ground-truth profile against the layout. They
    // describe the same execution and must agree exactly.
    for (side, e) in [("natural", &report.before), ("placed", &report.after)] {
        let c = e.pmu.proc(run.pid);
        let agree = c.cond_taken == e.cost.branches_taken
            && c.cond_not_taken == e.cost.branches_not_taken
            && c.jumps == e.cost.jumps_executed
            && c.mispredictions(BranchPredictor::AlwaysNotTaken) == e.cost.mispredicted;
        out.check(agree, || {
            format!(
                "{name} seed {}: {side} replay PMU {c:?} != LayoutCost {:?}",
                config.seed, e.cost
            )
        });
    }
    // wMAE against the GroundTruthProfiler's branch probabilities.
    let acc = ct_core::compare(
        cfg,
        &report.estimated.estimate.probs,
        &run.truth,
        &run.truth_profile,
        run.invocations,
    );
    out.check(acc.weighted_mae.is_finite(), || {
        format!("{name}: non-finite wMAE")
    });
    let measured = |e: &Evaluated| {
        e.pmu
            .proc(run.pid)
            .misprediction_rate(BranchPredictor::AlwaysNotTaken)
    };
    FlowFacts {
        wmae: acc.weighted_mae,
        mispred_placed: measured(&report.after),
        kcycles: (run.cycles_used + report.before.cycles + report.after.cycles) / 1_000,
        em_iterations: report.estimated.estimate.iterations as u64,
        unrolled: report.estimated.estimate.method == Method::EmUnrolled,
    }
}

/// The pass's job list: every registry app under several derived seeds.
fn jobs(seed: u64) -> Vec<RunConfig> {
    let mut out = Vec::new();
    for (a, app) in ct_apps::all_apps().into_iter().enumerate() {
        for s in 0..SEEDS_PER_APP {
            let job_seed = derive_seed(seed, a as u64 * SEEDS_PER_APP + s);
            out.push(
                RunConfig::for_app(app.clone())
                    .invocations(INVOCATIONS)
                    .seeded(job_seed),
            );
        }
    }
    out
}

/// Runs the workload and returns its report.
pub fn run(seed: u64, budget: Budget, trace: bool) -> Report {
    let mut report = Report::default();
    // Set-up: derive the job list and run a short warm-up flow of every
    // app, so lazy allocations and page faults land before timing.
    let setup = || {
        let configs = jobs(seed);
        let warmed = configs
            .iter()
            .step_by(SEEDS_PER_APP as usize)
            .all(|c| flow(&c.clone().invocations(WARMUP_INVOCATIONS), None).is_ok());
        (configs, warmed)
    };
    let ((configs, warmed), mut setup_times) = SetupTimes::first(setup);
    report.check(warmed, || "warm-up flow failed".into());

    let mut stats = PassStats::default();
    let mut reference: Option<Vec<FlowFacts>> = None;
    // Traced-run state: traced passes alternate with untraced ones so the
    // trace's overhead is measured in the same process.
    let mut stage_totals = [Duration::ZERO; 8];
    let (mut traced_busy, mut traced_flows) = (Duration::ZERO, 0u64);
    let (mut plain_busy, mut plain_flows) = (Duration::ZERO, 0u64);
    let mut em_pass = EmCounters::default();

    let started = Instant::now();
    let mut passes = 0u32;
    while budget.more(passes, started.elapsed()) {
        let traced = trace && passes.is_multiple_of(2);
        let mut facts = Vec::with_capacity(configs.len());
        let mut em = EmCounters::default();
        let mut pass_busy = Duration::ZERO;
        let mut latencies_ms = Vec::with_capacity(configs.len());
        for config in &configs {
            report.attempted += 1;
            let em_before = traced.then(EmCounters::read);
            let t0 = Instant::now();
            let result = flow(config, traced.then_some(&mut stage_totals));
            let elapsed = t0.elapsed();
            if let Some(before) = em_before {
                em.add(EmCounters::since(before));
            }
            pass_busy += elapsed;
            latencies_ms.push(ms(elapsed));
            if traced {
                traced_busy += elapsed;
                traced_flows += 1;
            } else {
                plain_busy += elapsed;
                plain_flows += 1;
            }
            match result {
                Ok(r) => facts.push(check(config, &r, &mut report)),
                Err(e) => report.fail(format!(
                    "{} seed {}: {e}",
                    config.target.name(),
                    config.seed
                )),
            }
        }
        stats.record(&latencies_ms, pass_busy.as_secs_f64());
        if traced {
            em_pass = em;
        }
        // Every pass runs the same inputs: its deterministic outcome must
        // repeat the first pass exactly.
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
        stats.report(configs.len() as f64, &mut report);
        report.metric("setup_s", setup_times.seconds(), "s");
        let wmae: Vec<f64> = facts.iter().map(|f| f.wmae).collect();
        let mispred: Vec<f64> = facts.iter().map(|f| f.mispred_placed).collect();
        report.metric("wmae_mean", mean(&wmae), "ratio");
        report.metric("mispred_placed", mean(&mispred), "ratio");
        return report;
    }

    let mut layers = Layers::default();
    let per_flow = |d: Duration| ratio(ms(d), traced_flows as f64);
    for (name, total) in STAGES.iter().zip(stage_totals) {
        layers.set(name, per_flow(total));
    }
    let stage_sum: Duration = stage_totals.iter().sum();
    layers.set(
        "stage.coverage",
        ratio(stage_sum.as_secs_f64(), traced_busy.as_secs_f64()),
    );
    let kcycles: u64 = facts.iter().map(|f| f.kcycles).sum();
    layers.set("mote.kcycles", kcycles as f64);
    let traced_passes = traced_flows as f64 / configs.len().max(1) as f64;
    let mote_ns = (stage_totals[RUN] + stage_totals[EVALUATE]).as_secs_f64() * 1e9;
    layers.set(
        "mote.ns_per_kcycle",
        ratio(mote_ns, kcycles as f64 * traced_passes),
    );
    set_em_layers(
        &mut layers,
        facts.iter().map(|f| f.em_iterations).sum(),
        em_pass,
    );
    layers.set(
        "estimate.unrolled",
        facts.iter().filter(|f| f.unrolled).count() as f64,
    );
    if plain_flows > 0 {
        layers.set(
            "trace.overhead_ratio",
            ratio(
                traced_busy.as_secs_f64() / traced_flows as f64,
                plain_busy.as_secs_f64() / plain_flows as f64,
            ),
        );
    }
    layers.into_report(&mut report);
    report
}
