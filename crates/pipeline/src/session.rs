//! The session: one [`RunConfig`], the full stage chain behind methods
//! that stop at any artifact an experiment needs.

use crate::config::{EstimatorChoice, RunConfig};
use crate::error::PipelineError;
use crate::measure;
use crate::stage::{
    self, AppRun, Collect, Compile, Corrupt, Deploy, EstimateStage, Estimated, Evaluate, Place, Run,
};
use ct_cfg::layout::{Layout, LayoutCost};
use ct_cfg::profile::BranchProbs;
use ct_placement::{place_with_confidence, Strategy, MIN_PLACEMENT_CONFIDENCE};

/// A replayed layout measurement: what the layout cost on identical inputs.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// Branch-taken/misprediction accounting under the replayed profile
    /// (analytical: truth profile × penalty arithmetic).
    pub cost: LayoutCost,
    /// Total cycles the replayed workload consumed.
    pub cycles: u64,
    /// The replay mote's virtual-PMU counters: the *measured* side of the
    /// same accounting, for predicted-vs-measured comparisons.
    pub pmu: ct_mote::pmu::PmuSnapshot,
}

/// The full pipeline's final artifact: measure → estimate → place →
/// re-measure, all under one config.
#[derive(Debug)]
pub struct PipelineReport {
    /// The measured run.
    pub run: AppRun,
    /// The scored estimate.
    pub estimated: Estimated,
    /// The optimized layout.
    pub layout: Layout,
    /// The natural layout replayed on identical inputs.
    pub before: Evaluated,
    /// The optimized layout replayed on identical inputs.
    pub after: Evaluated,
}

/// One pipeline run under one seeded configuration.
///
/// The stage methods mirror the typed [`crate::stage::Stage`] chain
/// but stop wherever an experiment needs an artifact: [`Session::collect`]
/// for the measured run, [`Session::estimate`] for a scored estimate,
/// [`Session::place`]/[`Session::evaluate`] for layouts, and
/// [`Session::run`] for the whole flow in one call.
#[derive(Debug, Clone)]
pub struct Session {
    config: RunConfig,
}

impl Session {
    /// A session over `config`.
    pub fn new(config: RunConfig) -> Session {
        Session { config }
    }

    /// The session's configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Measures one workload run:
    /// `Compile → Deploy → Run → Collect → Corrupt`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Trap`] if the workload traps.
    pub fn collect(&self) -> Result<AppRun, PipelineError> {
        let compiled = stage::traced(&Compile, &self.config, ())?;
        let deployed = stage::traced(&Deploy::default(), &self.config, compiled)?;
        let executed = stage::traced(&Run, &self.config, deployed)?;
        let run = stage::traced(&Collect, &self.config, executed)?;
        stage::traced(&Corrupt, &self.config, run)
    }

    /// Estimates the run's branch probabilities with the configured
    /// estimator and scores them against the run's ground truth.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Estimate`] when the naive estimator fails hard
    /// (the robust ladder never fails).
    pub fn estimate(&self, run: &AppRun) -> Result<Estimated, PipelineError> {
        self.estimate_as(run, &self.config.estimator)
    }

    /// Like [`Session::estimate`] but with an explicit estimator choice —
    /// for experiments comparing estimators on the *same* collected run.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Estimate`] when the naive estimator fails hard.
    pub fn estimate_as(
        &self,
        run: &AppRun,
        choice: &EstimatorChoice,
    ) -> Result<Estimated, PipelineError> {
        stage::estimate_collected(&self.config, run, choice)
    }

    /// Computes an optimized layout from a probability vector (estimated
    /// or ground-truth), trusting it fully.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Frequency`] when no edge frequencies exist under
    /// `probs` (exit unreachable).
    pub fn place(
        &self,
        run: &AppRun,
        probs: &BranchProbs,
        strategy: Strategy,
    ) -> Result<Layout, PipelineError> {
        let cfg = run.cfg();
        let freq = measure::edge_frequencies(cfg, probs).map_err(PipelineError::Frequency)?;
        Ok(place_with_confidence(
            cfg,
            &freq,
            1.0,
            MIN_PLACEMENT_CONFIDENCE,
            &self.config.penalties(),
            strategy,
        ))
    }

    /// Confidence-gated placement that never fails: a degenerate
    /// probability vector (no derivable frequencies) or a low-confidence
    /// estimate degrades to the natural layout — placement must never
    /// crash the pipeline.
    pub fn place_gated(
        &self,
        run: &AppRun,
        probs: &BranchProbs,
        confidence: f64,
        strategy: Strategy,
    ) -> Layout {
        let cfg = run.cfg();
        match measure::edge_frequencies(cfg, probs) {
            Ok(freq) => place_with_confidence(
                cfg,
                &freq,
                confidence,
                MIN_PLACEMENT_CONFIDENCE,
                &self.config.penalties(),
                strategy,
            ),
            Err(_) => Layout::natural(cfg),
        }
    }

    /// Replays the identical workload (same seed, cycle-accurate timer,
    /// zero overhead, no faults) on `layout`, measuring its cost. Always
    /// runs the workload, whatever the layout.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Trap`] if the replayed workload traps.
    pub fn evaluate(&self, layout: &Layout) -> Result<Evaluated, PipelineError> {
        stage::replay(&self.config, layout.clone())
    }

    /// The whole flow in one call, composed from the typed stages:
    /// measure, estimate, place with `strategy`, and measure the natural
    /// and the optimized layout on identical inputs. The natural layout's
    /// measurement is the profiled run itself when the config is
    /// cycle-accurate, overhead-free and fault-free (see
    /// [`Evaluate`]); otherwise it is replayed.
    ///
    /// # Errors
    ///
    /// Any stage's error; see [`PipelineError`].
    pub fn run(&self, strategy: Strategy) -> Result<PipelineReport, PipelineError> {
        let compiled = stage::traced(&Compile, &self.config, ())?;
        let deployed = stage::traced(&Deploy::default(), &self.config, compiled)?;
        let executed = stage::traced(&Run, &self.config, deployed)?;
        let collected = stage::traced(&Collect, &self.config, executed)?;
        let collected = stage::traced(&Corrupt, &self.config, collected)?;
        let estimated = stage::traced(&EstimateStage, &self.config, collected)?;
        let placed = stage::traced(&Place { strategy }, &self.config, estimated)?;
        stage::traced(&Evaluate, &self.config, placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mcu;
    use ct_cfg::unroll::UnrollError;
    use ct_core::em::EmOptions;
    use ct_core::estimator::{EstimateError, EstimateOptions, Method};
    use ct_core::unrolled::UnrolledError;

    fn sense(n: usize, seed: u64) -> Session {
        Session::new(RunConfig::new("sense").invocations(n).seeded(seed))
    }

    #[test]
    fn collect_produces_consistent_artifacts() {
        let run = sense(300, 42).collect().unwrap();
        assert_eq!(run.samples.len(), 300);
        assert_eq!(run.invocations, 300);
        assert!(run.truth_profile.is_flow_consistent(run.cfg(), 300));
        assert!(run.cycles_used > 0);
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let a = sense(100, 7).collect().unwrap();
        let b = sense(100, 7).collect().unwrap();
        assert_eq!(a.samples.ticks(), b.samples.ticks());
        assert_eq!(a.truth_profile, b.truth_profile);
        let c = sense(100, 8).collect().unwrap();
        assert_ne!(a.samples.ticks(), c.samples.ticks());
    }

    #[test]
    fn estimate_recovers_sense_branch() {
        let session = sense(2000, 1);
        let run = session.collect().unwrap();
        let est = session.estimate(&run).unwrap();
        assert!(
            est.accuracy.mae < 0.02,
            "mae {} (est {:?} truth {:?})",
            est.accuracy.mae,
            est.estimate.probs,
            run.truth
        );
        assert_eq!(est.confidence, 1.0);
        assert!(est.robust.is_none());
    }

    #[test]
    fn unrolled_estimate_reports_the_iteration_cap_honestly() {
        // crc at 8 cycles/tick is still moving when unrolled EM hits its
        // iteration cap: the estimate must say so, not claim convergence.
        let session = Session::new(
            RunConfig::new("crc")
                .invocations(600)
                .resolution(8)
                .seeded(5),
        );
        let run = session.collect().unwrap();
        let est = session.estimate(&run).unwrap().estimate;
        let opts = EmOptions::default();
        assert_eq!(est.method, Method::EmUnrolled);
        assert_eq!(est.iterations, opts.max_iter);
        assert!(!est.converged);
        assert!(
            est.final_delta >= opts.tol,
            "final delta {}",
            est.final_delta
        );
    }

    /// A session that forces the naive front door's method to em+unroll.
    fn forced_unrolled(app: &str, n: usize, seed: u64) -> Session {
        Session::new(
            RunConfig::new(app)
                .invocations(n)
                .resolution(8)
                .seeded(seed)
                .estimator(EstimatorChoice::Naive(EstimateOptions {
                    method: Some(Method::EmUnrolled),
                    ..EstimateOptions::default()
                })),
        )
    }

    #[test]
    fn forced_unrolled_runs_the_unrolled_model_on_counted_loops() {
        let session = forced_unrolled("crc", 300, 5);
        let run = session.collect().unwrap();
        assert!(!run.counted_loops.is_empty());
        let est = session.estimate(&run).unwrap().estimate;
        assert_eq!(est.method, Method::EmUnrolled);
    }

    #[test]
    fn forced_unrolled_without_counted_loops_is_refused() {
        let session = forced_unrolled("sense", 300, 5);
        let run = session.collect().unwrap();
        assert!(run.counted_loops.is_empty());
        assert_eq!(
            session.estimate(&run).unwrap_err(),
            PipelineError::Estimate(EstimateError::UnrolledNeedsLoops)
        );
    }

    #[test]
    fn forced_unrolled_surfaces_the_unrolled_error() {
        // A counted loop the unroller refuses: no fallback to plain EM.
        let session = forced_unrolled("sense", 300, 5);
        let mut run = session.collect().unwrap();
        let entry = run.cfg().entry();
        run.counted_loops = vec![(entry, 8)];
        assert_eq!(
            session.estimate(&run).unwrap_err(),
            PipelineError::Estimate(EstimateError::Unrolled(UnrolledError::Unroll(
                UnrollError::NotALoopHeader { header: entry }
            )))
        );
    }

    #[test]
    fn robust_choice_carries_ladder_outcome() {
        let session = Session::new(RunConfig::new("sense").invocations(500).seeded(3).robust());
        let run = session.collect().unwrap();
        let est = session.estimate(&run).unwrap();
        let r = est.robust.expect("robust ladder ran");
        assert!(est.confidence > 0.0);
        assert_eq!(r.estimate.probs.as_slice(), est.estimate.probs.as_slice());
    }

    #[test]
    fn estimate_as_overrides_the_configured_choice() {
        let session = sense(500, 5);
        let run = session.collect().unwrap();
        let naive = session
            .estimate_as(&run, &EstimatorChoice::Naive(EstimateOptions::default()))
            .unwrap();
        assert!(naive.robust.is_none());
    }

    #[test]
    fn full_run_improves_or_preserves_mispredictions() {
        use ct_cfg::layout::BranchPredictor;
        let report = sense(800, 11).run(Strategy::Best).unwrap();
        assert!(report.before.cycles > 0);
        assert!(
            report.after.cost.misprediction_rate()
                <= report.before.cost.misprediction_rate() + 1e-9
        );
        // The measured (PMU) rates must tell the same story as the
        // analytical ones.
        let measured = |e: &Evaluated| {
            e.pmu
                .proc(report.run.pid)
                .misprediction_rate(BranchPredictor::AlwaysNotTaken)
        };
        assert!(measured(&report.after) <= measured(&report.before) + 1e-9);
    }

    #[test]
    fn evaluate_measures_cost_on_natural_layout() {
        let session = sense(200, 3);
        let run = session.collect().unwrap();
        let e = session.evaluate(&Layout::natural(run.cfg())).unwrap();
        assert!(e.cycles > 0);
        assert_eq!(e.cost.branches_taken + e.cost.branches_not_taken, 200);
    }

    #[test]
    fn pmu_measures_exactly_what_the_cost_model_charges() {
        use ct_cfg::layout::BranchPredictor;
        // The replay's analytical cost (truth profile × penalty model) and
        // the virtual PMU count the same transfers of the same execution —
        // they must agree *exactly*, not approximately.
        let session = sense(250, 9);
        let run = session.collect().unwrap();
        for layout in [
            Layout::natural(run.cfg()),
            session.place(&run, &run.truth, Strategy::Best).unwrap(),
        ] {
            let e = session.evaluate(&layout).unwrap();
            let c = e.pmu.proc(run.pid);
            assert_eq!(c.cond_taken, e.cost.branches_taken);
            assert_eq!(c.cond_not_taken, e.cost.branches_not_taken);
            assert_eq!(c.jumps, e.cost.jumps_executed);
            assert_eq!(
                c.mispredictions(BranchPredictor::AlwaysNotTaken),
                e.cost.mispredicted
            );
            // Exclusive PMU windows partition the cycles consumed inside
            // activations; nothing outside them runs in this workload.
            assert_eq!(e.pmu.total.cycles, e.cycles);
        }
    }

    #[test]
    fn msp430_config_runs_end_to_end() {
        let session = Session::new(
            RunConfig::new("blink")
                .invocations(200)
                .seeded(1)
                .on(Mcu::Msp430)
                .resolution(8),
        );
        let run = session.collect().unwrap();
        assert_eq!(run.samples.cycles_per_tick(), 8);
        session.estimate(&run).unwrap();
    }
}
