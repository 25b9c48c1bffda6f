//! One seeded configuration drives the whole pipeline: what runs, on which
//! MCU calibration, how it is measured, what corrupts the measurement
//! channel, and how the estimate is produced.

use ct_apps::{app_by_name, App};
use ct_cfg::layout::PenaltyModel;
use ct_core::estimator::{EstimateOptions, RobustOptions};
use ct_faults::FaultPlan;
use ct_ir::program::Program;
use ct_mote::cost::{AvrCost, CostModel, Msp430Cost};
use ct_mote::interp::Mote;
use ct_mote::timer::VirtualTimer;

/// Which MCU calibration to run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mcu {
    /// ATmega128-class.
    Avr,
    /// MSP430-class.
    Msp430,
}

impl Mcu {
    /// Boxes the corresponding cost model.
    pub fn cost_model(self) -> Box<dyn CostModel> {
        match self {
            Mcu::Avr => Box::new(AvrCost),
            Mcu::Msp430 => Box::new(Msp430Cost),
        }
    }

    /// The calibration's short name.
    pub fn name(self) -> &'static str {
        match self {
            Mcu::Avr => "avr",
            Mcu::Msp430 => "msp430",
        }
    }
}

/// What the pipeline compiles and runs.
#[derive(Debug, Clone)]
pub enum Target {
    /// A registry app (its own source, configuration and workload hooks).
    App(App),
    /// An already-compiled program (e.g. a generated synthetic one).
    Program {
        /// The program to deploy.
        program: Program,
        /// Index of the procedure to profile.
        proc_index: usize,
        /// Device/workload setup applied at deploy time.
        configure: fn(&mut Mote),
    },
}

impl Target {
    /// The target's display name (app name, or the program's module name).
    pub fn name(&self) -> &str {
        match self {
            Target::App(app) => app.name,
            Target::Program { program, .. } => &program.name,
        }
    }
}

/// Interrupt contamination injected by the mote *inside* measured windows —
/// the measurement-noise knob of the robustness experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contamination {
    /// Probability that an activation is contaminated.
    pub prob: f64,
    /// Cycles stolen by one contamination burst.
    pub cycles: u64,
}

/// Which estimator the `Estimate` stage runs.
#[derive(Debug, Clone)]
pub enum EstimatorChoice {
    /// The repo front door [`ct_core::estimate`] (with the counted-loop
    /// unrolled model tried first when the compiler proved trip counts);
    /// hard errors surface as [`PipelineError`](crate::PipelineError).
    Naive(EstimateOptions),
    /// The graceful-degradation ladder [`ct_core::estimate_robust`]
    /// (full EM → trimmed EM → moments → prior); never fails, carries a
    /// placement-facing confidence.
    Robust(RobustOptions),
}

impl Default for EstimatorChoice {
    fn default() -> EstimatorChoice {
        EstimatorChoice::Naive(EstimateOptions::default())
    }
}

/// Seed-stride between fleet motes (odd, full-period under wrapping
/// multiplication): mote 0 keeps the configured seed exactly, so a
/// one-mote fleet reproduces the single-mote path bitwise.
const MOTE_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything one pipeline run depends on. Cheap to clone; every field is
/// honored by the corresponding [`stage`](crate::stage).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// What to compile and run.
    pub target: Target,
    /// MCU calibration.
    pub mcu: Mcu,
    /// Target invocations per run.
    pub invocations: usize,
    /// Measurement timer resolution in cycles per tick.
    pub cycles_per_tick: u64,
    /// Cycles charged per timestamp (instrumentation overhead).
    pub ts_overhead: u64,
    /// Seed driving all nondeterminism (inputs, radio, contamination).
    pub seed: u64,
    /// Interrupt contamination inside measured windows, if any.
    pub contamination: Option<Contamination>,
    /// Measurement-channel fault plan applied by the `Corrupt` stage.
    pub fault: Option<FaultPlan>,
    /// Which estimator the `Estimate` stage runs.
    pub estimator: EstimatorChoice,
    /// Try the counted-loop unrolled model first when trip counts are
    /// proved and no explicit method is forced (the profile-guided-compiler
    /// default). Disable to study the plain estimator in isolation.
    pub unroll_counted: bool,
}

impl RunConfig {
    /// A config for the named registry app with the standard defaults:
    /// AVR calibration, 1000 invocations, cycle-accurate timer, no
    /// instrumentation overhead, seed 0, no faults, naive estimator.
    ///
    /// # Panics
    ///
    /// Panics if no registry app has that name (mirrors the experiment
    /// binaries' contract; use [`RunConfig::for_app`] to avoid the lookup).
    pub fn new(app_name: &str) -> RunConfig {
        let app =
            app_by_name(app_name).unwrap_or_else(|| panic!("no registry app named `{app_name}`"));
        RunConfig::for_app(app)
    }

    /// A config for an already-resolved registry app.
    pub fn for_app(app: App) -> RunConfig {
        RunConfig::for_target(Target::App(app))
    }

    /// A config for an already-compiled program, profiling `proc_index`.
    pub fn for_program(program: Program, proc_index: usize, configure: fn(&mut Mote)) -> RunConfig {
        RunConfig::for_target(Target::Program {
            program,
            proc_index,
            configure,
        })
    }

    /// A config for an arbitrary target.
    pub fn for_target(target: Target) -> RunConfig {
        RunConfig {
            target,
            mcu: Mcu::Avr,
            invocations: 1_000,
            cycles_per_tick: 1,
            ts_overhead: 0,
            seed: 0,
            contamination: None,
            fault: None,
            estimator: EstimatorChoice::default(),
            unroll_counted: true,
        }
    }

    /// Sets the invocation count (builder style).
    pub fn invocations(mut self, n: usize) -> RunConfig {
        self.invocations = n;
        self
    }

    /// Sets the workload seed (builder style).
    pub fn seeded(mut self, seed: u64) -> RunConfig {
        self.seed = seed;
        self
    }

    /// Sets the MCU calibration (builder style).
    pub fn on(mut self, mcu: Mcu) -> RunConfig {
        self.mcu = mcu;
        self
    }

    /// Sets the measurement timer resolution (builder style).
    pub fn resolution(mut self, cycles_per_tick: u64) -> RunConfig {
        self.cycles_per_tick = cycles_per_tick;
        self
    }

    /// Sets the per-timestamp instrumentation overhead (builder style).
    pub fn overhead(mut self, cycles: u64) -> RunConfig {
        self.ts_overhead = cycles;
        self
    }

    /// Enables interrupt contamination (builder style).
    pub fn contaminated(mut self, prob: f64, cycles: u64) -> RunConfig {
        self.contamination = Some(Contamination { prob, cycles });
        self
    }

    /// Sets the measurement-channel fault plan (builder style).
    pub fn faulted(mut self, plan: FaultPlan) -> RunConfig {
        self.fault = Some(plan);
        self
    }

    /// Sets the estimator choice (builder style).
    pub fn estimator(mut self, choice: EstimatorChoice) -> RunConfig {
        self.estimator = choice;
        self
    }

    /// Selects the robust degradation ladder with default policy
    /// (builder style).
    pub fn robust(mut self) -> RunConfig {
        self.estimator = EstimatorChoice::Robust(RobustOptions::default());
        self
    }

    /// Disables the counted-loop unrolled-first path (builder style).
    pub fn no_unroll(mut self) -> RunConfig {
        self.unroll_counted = false;
        self
    }

    /// The configured measurement timer.
    pub fn timer(&self) -> VirtualTimer {
        VirtualTimer::new(self.cycles_per_tick)
    }

    /// The MCU's layout penalty model.
    pub fn penalties(&self) -> PenaltyModel {
        self.mcu.cost_model().penalties()
    }

    /// The workload seed of fleet mote `index`: mote 0 uses the configured
    /// seed verbatim (so a one-mote fleet equals the single-mote path),
    /// later motes stride through seed space deterministically.
    pub fn mote_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_add((index as u64).wrapping_mul(MOTE_SEED_STRIDE))
    }
}

/// Process-environment knobs shared by every experiment binary:
/// `CT_THREADS` (worker count for sweep fan-out), `CT_SEED` (workload seed
/// override), `CT_SMOKE` (tiny grids, no `results/` writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvConfig {
    /// Worker threads the parallel sweeps will use.
    pub threads: usize,
    /// Workload seed override, if `CT_SEED` is set.
    pub seed: Option<u64>,
    /// Smoke mode: shrink grids and skip `results/` writes.
    pub smoke: bool,
}

impl EnvConfig {
    /// Reads `CT_THREADS` / `CT_SEED` / `CT_SMOKE` from the process
    /// environment. Unparsable values fall back to the defaults.
    pub fn load() -> EnvConfig {
        EnvConfig::load_with_smoke_alias(None)
    }

    /// Like [`EnvConfig::load`], additionally honoring a legacy smoke-mode
    /// variable name (e.g. `E13_SMOKE`).
    pub fn load_with_smoke_alias(alias: Option<&str>) -> EnvConfig {
        let flag = |name: &str| std::env::var(name).is_ok_and(|v| v != "0");
        EnvConfig {
            threads: ct_stats::parallel::thread_count(),
            seed: std::env::var("CT_SEED").ok().and_then(|v| v.parse().ok()),
            smoke: flag("CT_SMOKE") || alias.is_some_and(flag),
        }
    }

    /// The configured seed override, or `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Picks the full-size or smoke-size variant of a knob.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// One-line configuration header for an experiment's report: which
    /// knobs this run used, so results are attributable.
    pub fn banner(&self) -> String {
        format!(
            "config: threads={} seed={} smoke={}",
            self.threads,
            match self.seed {
                Some(s) => s.to_string(),
                None => "default".to_string(),
            },
            if self.smoke { "on" } else { "off" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_standard_bench_setup() {
        let c = RunConfig::new("sense");
        assert_eq!(c.mcu, Mcu::Avr);
        assert_eq!(c.invocations, 1_000);
        assert_eq!(c.cycles_per_tick, 1);
        assert_eq!(c.seed, 0);
        assert!(c.fault.is_none());
        assert!(c.unroll_counted);
        assert!(matches!(c.estimator, EstimatorChoice::Naive(_)));
    }

    #[test]
    fn builder_composes() {
        let c = RunConfig::new("blink")
            .invocations(42)
            .seeded(7)
            .on(Mcu::Msp430)
            .resolution(8)
            .overhead(4)
            .no_unroll();
        assert_eq!(c.invocations, 42);
        assert_eq!(c.seed, 7);
        assert_eq!(c.mcu, Mcu::Msp430);
        assert_eq!(c.timer().cycles_per_tick(), 8);
        assert_eq!(c.ts_overhead, 4);
        assert!(!c.unroll_counted);
    }

    #[test]
    fn mote_zero_keeps_the_configured_seed() {
        let c = RunConfig::new("sense").seeded(12345);
        assert_eq!(c.mote_seed(0), 12345);
        assert_ne!(c.mote_seed(1), 12345);
        assert_ne!(c.mote_seed(1), c.mote_seed(2));
    }

    #[test]
    #[should_panic(expected = "no registry app named")]
    fn unknown_app_panics_with_context() {
        let _ = RunConfig::new("definitely-not-an-app");
    }

    #[test]
    fn banner_mentions_every_knob() {
        let env = EnvConfig {
            threads: 4,
            seed: Some(9),
            smoke: true,
        };
        let b = env.banner();
        assert!(b.contains("threads=4"));
        assert!(b.contains("seed=9"));
        assert!(b.contains("smoke=on"));
    }
}
