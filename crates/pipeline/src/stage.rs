//! The typed pipeline stages. Each stage consumes the previous stage's
//! artifact and a shared [`RunConfig`]; the chain is
//!
//! ```text
//! Compile → Deploy → Run → Collect → Corrupt → Estimate → Place → Evaluate
//!   ()      Compiled Deployed Executed  AppRun    AppRun  EstimatedRun PlacedRun
//! ```
//!
//! [`Session`](crate::Session) composes them; the types make it impossible
//! to, say, estimate before collecting or place before estimating.

use crate::config::{EstimatorChoice, RunConfig, Target};
use crate::error::PipelineError;
use crate::measure;
use crate::session::{Evaluated, PipelineReport};
use ct_cfg::graph::{BlockId, Cfg};
use ct_cfg::layout::Layout;
use ct_cfg::profile::{BranchProbs, EdgeProfile};
use ct_core::accuracy::{compare, AccuracyReport};
use ct_core::estimator::{estimate, estimate_robust, Estimate as CoreEstimate, Method};
use ct_core::estimator::{EstimateError, EstimateOptions, RobustEstimate};
use ct_core::samples::{DurationSamples, TimingSamples};
use ct_core::unrolled::estimate_unrolled;
use ct_ir::instr::ProcId;
use ct_ir::program::Program;
use ct_mote::interp::Mote;
use ct_mote::timer::VirtualTimer;
use ct_mote::trace::{GroundTruth, TimingProfiler};
use ct_placement::{place_with_confidence, Strategy, MIN_PLACEMENT_CONFIDENCE};
use std::borrow::Cow;

/// One typed pipeline step: turns the previous stage's artifact into the
/// next under a shared configuration.
pub trait Stage {
    /// The artifact this stage consumes.
    type Input;
    /// The artifact this stage produces.
    type Output;

    /// The stage's name (for diagnostics).
    fn name(&self) -> &'static str;

    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// Stage-specific: traps, estimation failures, frequency-derivation
    /// failures — see [`PipelineError`].
    fn run(&self, config: &RunConfig, input: Self::Input) -> Result<Self::Output, PipelineError>;
}

/// Runs `stage` under a `stage.<name>` observability span and emits a
/// `stage.<name>` completion event (with the error text on failure).
///
/// Instrumentation only: the stage's inputs, outputs, and errors pass
/// through untouched, so tracing cannot perturb the pipeline's results.
///
/// # Errors
///
/// Exactly the wrapped stage's errors.
pub fn traced<S: Stage>(
    stage: &S,
    config: &RunConfig,
    input: S::Input,
) -> Result<S::Output, PipelineError> {
    let label = format!("stage.{}", stage.name());
    let _span = ct_obs::Span::enter(label.as_str());
    let started = std::time::Instant::now();
    let result = stage.run(config, input);
    ct_obs::hist_record(
        &format!("{label}.wall_ns"),
        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );
    match &result {
        Ok(_) => ct_obs::emit(&label, vec![("ok", true.into())]),
        Err(e) => ct_obs::emit(
            &label,
            vec![("ok", false.into()), ("error", e.to_string().into())],
        ),
    }
    result
}

// ---------------------------------------------------------------- Compile

/// The compiled target: program, profiled procedure, and workload hooks.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Target display name.
    pub name: String,
    /// The compiled program.
    pub program: Program,
    /// The profiled procedure.
    pub pid: ProcId,
    pub(crate) configure: fn(&mut Mote),
    pub(crate) per_call: Option<fn(&mut Mote, usize)>,
}

/// Compiles the configured target.
#[derive(Debug, Clone, Copy, Default)]
pub struct Compile;

impl Stage for Compile {
    type Input = ();
    type Output = Compiled;

    fn name(&self) -> &'static str {
        "compile"
    }

    fn run(&self, config: &RunConfig, _input: ()) -> Result<Compiled, PipelineError> {
        Ok(match &config.target {
            Target::App(app) => {
                let program = app.compile();
                let pid = app.target_id(&program);
                Compiled {
                    name: app.name.to_string(),
                    program,
                    pid,
                    configure: app.configure,
                    per_call: app.per_call,
                }
            }
            Target::Program {
                program,
                proc_index,
                configure,
            } => Compiled {
                name: program.name.clone(),
                program: program.clone(),
                pid: ProcId(*proc_index as u32),
                configure: *configure,
                per_call: None,
            },
        })
    }
}

// ----------------------------------------------------------------- Deploy

/// A booted, configured, seeded mote ready to drive the workload.
#[derive(Debug)]
pub struct Deployed {
    /// The booted mote.
    pub mote: Mote,
    /// The compile artifact the mote runs.
    pub compiled: Compiled,
}

/// Boots a mote with the compiled program: applies the target's device
/// configuration, the configured seed and contamination, and (optionally)
/// a code layout override for replay runs.
#[derive(Debug, Clone, Default)]
pub struct Deploy {
    /// Layout to install on the profiled procedure before running
    /// (`None` keeps the program's natural layout).
    pub layout: Option<Layout>,
}

impl Stage for Deploy {
    type Input = Compiled;
    type Output = Deployed;

    fn name(&self) -> &'static str {
        "deploy"
    }

    fn run(&self, config: &RunConfig, compiled: Compiled) -> Result<Deployed, PipelineError> {
        let mut mote = Mote::new(compiled.program.clone(), config.mcu.cost_model());
        (compiled.configure)(&mut mote);
        mote.reseed(config.seed);
        if let Some(layout) = &self.layout {
            mote.set_layout(compiled.pid, layout.clone());
        }
        if let Some(c) = config.contamination {
            mote.config.contamination_prob = c.prob;
            mote.config.contamination_cycles = c.cycles;
        }
        Ok(Deployed { mote, compiled })
    }
}

// -------------------------------------------------------------------- Run

/// A driven workload with its instrumentation state still attached.
#[derive(Debug)]
pub struct Executed {
    /// The mote after the workload (owns cycle counters and static costs).
    pub mote: Mote,
    /// The compile artifact.
    pub compiled: Compiled,
    /// The run's ground truth, read off the mote's PMU (scoring only —
    /// the estimator never sees it).
    pub truth: GroundTruth,
    /// The entry/exit timestamp instrumentation (all the estimator gets).
    pub timing: TimingProfiler,
    /// Cycles the workload consumed.
    pub cycles_used: u64,
}

/// Drives the configured number of target invocations under timing
/// instrumentation. The ground truth is what the PMU's edge hits and
/// calls counted across the run, so device set-up calls made before it
/// (fir's `init`) stay out.
#[derive(Debug, Clone, Copy, Default)]
pub struct Run;

impl Stage for Run {
    type Input = Deployed;
    type Output = Executed;

    fn name(&self) -> &'static str {
        "run"
    }

    fn run(&self, config: &RunConfig, deployed: Deployed) -> Result<Executed, PipelineError> {
        let Deployed { mut mote, compiled } = deployed;
        let mut timing = TimingProfiler::new(mote.program(), config.timer(), config.ts_overhead);
        let start = mote.ground_truth();
        let start_cycles = mote.cycles;
        for i in 0..config.invocations {
            if let Some(hook) = compiled.per_call {
                hook(&mut mote, i);
            }
            mote.call(compiled.pid, &[], &mut timing)
                .map_err(|e| PipelineError::Trap(format!("{}: {e}", compiled.name)))?;
        }
        let cycles_used = mote.cycles - start_cycles;
        Ok(Executed {
            truth: mote.ground_truth().since(&start),
            mote,
            compiled,
            timing,
            cycles_used,
        })
    }
}

// ---------------------------------------------------------------- Collect

/// Everything one measured workload run produces (the `Collect` artifact).
#[derive(Debug)]
pub struct AppRun {
    /// The compiled program.
    pub program: Program,
    /// The profiled procedure.
    pub pid: ProcId,
    /// Static block costs of the target under the run's layout.
    pub block_costs: Vec<u64>,
    /// Static edge costs of the target under the run's layout.
    pub edge_costs: Vec<u64>,
    /// Exclusive-duration samples of the target.
    pub samples: TimingSamples,
    /// Ground-truth edge profile of the target.
    pub truth_profile: EdgeProfile,
    /// Ground-truth branch probabilities.
    pub truth: BranchProbs,
    /// Statically counted loops of the target (from the compiler's
    /// trip-count analysis).
    pub counted_loops: Vec<(BlockId, u64)>,
    /// Target invocations.
    pub invocations: u64,
    /// Total cycles consumed by the run.
    pub cycles_used: u64,
    /// The mote's virtual-PMU counter bank at collection time: measured
    /// branch/jump/call counts and per-procedure cycle attribution.
    pub pmu: ct_mote::pmu::PmuSnapshot,
}

impl AppRun {
    /// The target procedure's CFG.
    pub fn cfg(&self) -> &Cfg {
        &self.program.procs[self.pid.index()].cfg
    }
}

/// Records a run's PMU totals into the always-on counter registry (and,
/// when streaming, as a `pmu.totals` event). Counters sum over every
/// `Collect` in the process — the profiled run plus both evaluated layouts,
/// the natural one recorded again from the profiled run when [`Evaluate`]
/// reuses it — so the manifest's `pmu` section is the whole pipeline's
/// transfer census, deterministic at any thread count.
fn record_pmu(pmu: &ct_mote::pmu::PmuSnapshot) {
    let t = &pmu.total;
    ct_obs::Counter::new("pmu.cond_taken").add(t.cond_taken);
    ct_obs::Counter::new("pmu.cond_not_taken").add(t.cond_not_taken);
    ct_obs::Counter::new("pmu.jumps").add(t.jumps);
    ct_obs::Counter::new("pmu.fall_throughs").add(t.fall_throughs);
    ct_obs::Counter::new("pmu.calls").add(t.calls);
    ct_obs::Counter::new("pmu.returns").add(t.returns);
    ct_obs::Counter::new("pmu.mispred_ant").add(t.mispred_ant);
    ct_obs::Counter::new("pmu.mispred_btfnt").add(t.mispred_btfnt);
    ct_obs::Counter::new("pmu.cycles").add(t.cycles);
    ct_obs::emit(
        "pmu.totals",
        vec![
            ("cond_taken", t.cond_taken.into()),
            ("cond_not_taken", t.cond_not_taken.into()),
            ("jumps", t.jumps.into()),
            ("fall_throughs", t.fall_throughs.into()),
            ("calls", t.calls.into()),
            ("returns", t.returns.into()),
            ("mispred_ant", t.mispred_ant.into()),
            ("mispred_btfnt", t.mispred_btfnt.into()),
            ("cycles", t.cycles.into()),
        ],
    );
}

/// Extracts the run artifacts: samples, ground truth, static costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Collect;

impl Stage for Collect {
    type Input = Executed;
    type Output = AppRun;

    fn name(&self) -> &'static str {
        "collect"
    }

    fn run(&self, config: &RunConfig, executed: Executed) -> Result<AppRun, PipelineError> {
        let Executed {
            mote,
            compiled,
            truth,
            timing,
            cycles_used,
        } = executed;
        let pid = compiled.pid;
        let program = compiled.program;
        let cfg = &program.procs[pid.index()].cfg;
        let pmu = mote.pmu.snapshot();
        record_pmu(&pmu);
        // The timer came from `RunConfig::timer` (a `VirtualTimer`, whose
        // invariant is cycles_per_tick ≥ 1), so the fallible constructor
        // cannot fail here — but this stage already returns Result, so a
        // broken invariant surfaces as a typed error, not a panic.
        let samples = TimingSamples::try_new(
            timing.samples(pid).to_vec(),
            config.timer().cycles_per_tick(),
        )
        .map_err(EstimateError::from)?;
        Ok(AppRun {
            pmu,
            counted_loops: program.procs[pid.index()].counted_loops.clone(),
            block_costs: mote.static_block_costs(pid).to_vec(),
            edge_costs: mote.static_edge_costs(pid).to_vec(),
            samples,
            truth_profile: truth.profile(pid).clone(),
            truth: truth.branch_probs(pid, cfg),
            invocations: truth.invocations(pid),
            cycles_used,
            program,
            pid,
        })
    }
}

// ---------------------------------------------------------------- Corrupt

/// Applies the configured measurement-channel fault plan to the run's tick
/// stream (a no-op without a plan). Ground truth is untouched: faults model
/// the record channel, not the execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Corrupt;

impl Stage for Corrupt {
    type Input = AppRun;
    type Output = AppRun;

    fn name(&self) -> &'static str {
        "corrupt"
    }

    fn run(&self, config: &RunConfig, mut run: AppRun) -> Result<AppRun, PipelineError> {
        if let Some(plan) = &config.fault {
            run.samples = plan.build().apply(&run.samples);
        }
        Ok(run)
    }
}

// --------------------------------------------------------------- Estimate

/// An estimate scored against the run's ground truth.
#[derive(Debug, Clone)]
pub struct Estimated {
    /// The estimated parameters and method diagnostics.
    pub estimate: CoreEstimate,
    /// Accuracy versus the ground truth the estimator never saw.
    pub accuracy: AccuracyReport,
    /// Placement-facing confidence: the robust ladder's confidence, or
    /// `1.0` for the naive estimator (which always trusts itself).
    pub confidence: f64,
    /// The full ladder outcome when the robust estimator ran.
    pub robust: Option<RobustEstimate>,
}

/// The `Estimate` stage's pass-through artifact: the run plus its estimate.
#[derive(Debug)]
pub struct EstimatedRun {
    /// The measured run.
    pub run: AppRun,
    /// Its scored estimate.
    pub estimated: Estimated,
}

/// Estimates branch probabilities from the run's tick samples alone and
/// scores them against ground truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimateStage;

impl Stage for EstimateStage {
    type Input = AppRun;
    type Output = EstimatedRun;

    fn name(&self) -> &'static str {
        "estimate"
    }

    fn run(&self, config: &RunConfig, run: AppRun) -> Result<EstimatedRun, PipelineError> {
        let estimated = estimate_collected(config, &run, &config.estimator)?;
        Ok(EstimatedRun { run, estimated })
    }
}

/// Estimates branch probabilities from any duration-sample view (a
/// monolithic [`TimingSamples`], merged fleet
/// [`SuffStats`](ct_core::SuffStats), …) with the naive front door,
/// trying the counted-loop unrolled model first when `unroll` is set, trip
/// counts are proved, and no explicit method is forced — exactly what a
/// profile-guided compiler with the program's IR in hand would do —
/// falling back to the plain estimator on any unrolled failure. A forced
/// [`Method::EmUnrolled`] runs the unrolled estimator whenever counted
/// loops exist, whatever `unroll` says, and does not fall back.
///
/// # Errors
///
/// [`PipelineError::Estimate`] when the plain estimator fails hard, with
/// [`EstimateError::Unrolled`] when a forced unrolled estimate fails, and
/// with [`EstimateError::UnrolledNeedsLoops`] when one is forced on a
/// procedure without counted loops.
pub fn estimate_probs<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    counted_loops: &[(BlockId, u64)],
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
    opts: EstimateOptions,
    unroll: bool,
) -> Result<CoreEstimate, PipelineError> {
    let stats = samples.suff_stats();
    let forced = opts.method == Some(Method::EmUnrolled);
    if (forced || (unroll && opts.method.is_none())) && !counted_loops.is_empty() {
        match estimate_unrolled(
            cfg,
            counted_loops,
            block_costs,
            edge_costs,
            &*stats,
            opts.em,
        ) {
            Ok(u) => return Ok(CoreEstimate::from_em(u, Method::EmUnrolled)),
            Err(e) if forced => return Err(EstimateError::Unrolled(e).into()),
            Err(_) => {}
        }
    }
    Ok(estimate(cfg, block_costs, edge_costs, &*stats, opts)?)
}

/// Estimation over a collected run: naive front door or the robust
/// degradation ladder, per `choice`, scored against the run's ground truth.
pub(crate) fn estimate_collected(
    config: &RunConfig,
    run: &AppRun,
    choice: &EstimatorChoice,
) -> Result<Estimated, PipelineError> {
    let cfg = run.cfg();
    estimate_scored(
        choice,
        config.unroll_counted,
        cfg,
        &run.counted_loops,
        &run.block_costs,
        &run.edge_costs,
        &run.samples,
        |probs| compare(cfg, probs, &run.truth, &run.truth_profile, run.invocations),
    )
}

/// The estimation both a collected run and a fleet round go through, on
/// samples in any form: `choice` picks the naive front door
/// ([`estimate_probs`], unrolled first when `unroll` allows) or the robust
/// ladder, and `score` rates the answer against the ground truth.
#[allow(clippy::too_many_arguments)]
pub(crate) fn estimate_scored<S: DurationSamples + ?Sized>(
    choice: &EstimatorChoice,
    unroll: bool,
    cfg: &Cfg,
    counted_loops: &[(BlockId, u64)],
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
    score: impl FnOnce(&BranchProbs) -> AccuracyReport,
) -> Result<Estimated, PipelineError> {
    let (estimate, confidence, robust) = match choice {
        EstimatorChoice::Naive(opts) => {
            let est = estimate_probs(
                cfg,
                counted_loops,
                block_costs,
                edge_costs,
                samples,
                *opts,
                unroll,
            )?;
            (est, 1.0, None)
        }
        EstimatorChoice::Robust(opts) => {
            let r = estimate_robust(cfg, block_costs, edge_costs, samples, *opts);
            (r.estimate.clone(), r.confidence, Some(r))
        }
    };
    let accuracy = score(&estimate.probs);
    Ok(Estimated {
        estimate,
        accuracy,
        confidence,
        robust,
    })
}

// ------------------------------------------------------------------ Place

/// The `Place` stage's pass-through artifact.
#[derive(Debug)]
pub struct PlacedRun {
    /// The measured run.
    pub run: AppRun,
    /// Its scored estimate.
    pub estimated: Estimated,
    /// The optimized layout the estimate produced.
    pub layout: Layout,
}

/// Derives edge frequencies from the estimate and computes an optimized
/// layout, gated on the estimate's confidence (a low-confidence estimate
/// keeps the natural layout — reordering on noise only wears the flash).
#[derive(Debug, Clone, Copy)]
pub struct Place {
    /// Placement strategy.
    pub strategy: Strategy,
}

impl Default for Place {
    fn default() -> Place {
        Place {
            strategy: Strategy::Best,
        }
    }
}

impl Stage for Place {
    type Input = EstimatedRun;
    type Output = PlacedRun;

    fn name(&self) -> &'static str {
        "place"
    }

    fn run(&self, config: &RunConfig, input: EstimatedRun) -> Result<PlacedRun, PipelineError> {
        let EstimatedRun { run, estimated } = input;
        let cfg = run.cfg();
        let freq = measure::edge_frequencies(cfg, &estimated.estimate.probs)
            .map_err(PipelineError::Frequency)?;
        let layout = place_with_confidence(
            cfg,
            &freq,
            estimated.confidence,
            MIN_PLACEMENT_CONFIDENCE,
            &config.penalties(),
            self.strategy,
        );
        Ok(PlacedRun {
            run,
            estimated,
            layout,
        })
    }
}

// --------------------------------------------------------------- Evaluate

/// Measures what placement bought: the natural and the optimized layout on
/// the identical workload (same seed) with a cycle-accurate timer and no
/// instrumentation overhead.
///
/// When the run was already measured that way — cycle-accurate timer,
/// zero timestamp overhead, no fault plan — its profiled run *is* the
/// natural-layout replay: the same config on the same layout executes the
/// same instructions. The natural side is then read off the profiled run
/// (its PMU bank and cycle total, and the natural layout's cost over its
/// ground-truth profile) and its PMU totals are recorded again, so the
/// counters and `pmu.totals` events match a replay's. Only the optimized
/// layout is replayed. Every other config replays both.
#[derive(Debug, Clone, Copy, Default)]
pub struct Evaluate;

impl Stage for Evaluate {
    type Input = PlacedRun;
    type Output = PipelineReport;

    fn name(&self) -> &'static str {
        "evaluate"
    }

    fn run(&self, config: &RunConfig, input: PlacedRun) -> Result<PipelineReport, PipelineError> {
        let PlacedRun {
            run,
            estimated,
            layout,
        } = input;
        let natural = Layout::natural(run.cfg());
        let before = match replay_config(config) {
            Cow::Borrowed(_) => {
                record_pmu(&run.pmu);
                Evaluated {
                    cost: natural.evaluate(run.cfg(), &run.truth_profile, &config.penalties()),
                    cycles: run.cycles_used,
                    pmu: run.pmu.clone(),
                }
            }
            Cow::Owned(_) => replay(config, natural)?,
        };
        let after = replay(config, layout.clone())?;
        Ok(PipelineReport {
            run,
            estimated,
            layout,
            before,
            after,
        })
    }
}

/// The config a replay runs under: `config` with a cycle-accurate timer, no
/// timestamp overhead and no fault plan — borrowed unchanged when `config`
/// already is one.
fn replay_config(config: &RunConfig) -> Cow<'_, RunConfig> {
    let cycle_accurate = VirtualTimer::cycle_accurate().cycles_per_tick();
    if config.cycles_per_tick == cycle_accurate && config.ts_overhead == 0 && config.fault.is_none()
    {
        return Cow::Borrowed(config);
    }
    let mut replay_config = config.clone();
    replay_config.cycles_per_tick = cycle_accurate;
    replay_config.ts_overhead = 0;
    replay_config.fault = None;
    Cow::Owned(replay_config)
}

/// Replays the configured workload on `layout` under [`replay_config`]
/// (same seed and inputs), returning the measured layout cost and cycle
/// total.
pub(crate) fn replay(config: &RunConfig, layout: Layout) -> Result<Evaluated, PipelineError> {
    let _span = ct_obs::Span::enter("stage.evaluate.replay");
    let replay_config = replay_config(config);
    let compiled = Compile.run(&replay_config, ())?;
    let deployed = Deploy {
        layout: Some(layout.clone()),
    }
    .run(&replay_config, compiled)?;
    let executed = Run.run(&replay_config, deployed)?;
    let run = Collect.run(&replay_config, executed)?;
    let cost = layout.evaluate(run.cfg(), &run.truth_profile, &config.penalties());
    Ok(Evaluated {
        cost,
        cycles: run.cycles_used,
        pmu: run.pmu,
    })
}
