//! Measurement utilities that sit beside the stage chain: profiler
//! overhead runs, frequency derivation, baseline layouts, and the sweep
//! fan-out the experiment binaries share.

use crate::config::RunConfig;
use crate::error::PipelineError;
use crate::stage::{Compile, Deploy, Stage};
use ct_cfg::graph::Cfg;
use ct_cfg::layout::{Layout, PenaltyModel};
use ct_cfg::profile::BranchProbs;
use ct_mote::trace::Profiler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Runs the configured workload under an arbitrary profiler (for overhead
/// comparisons), returning cycles consumed. The config's timer and
/// fault plan are irrelevant here — the profiler under test brings its own
/// instrumentation.
///
/// # Errors
///
/// [`PipelineError::Trap`] if the workload traps.
pub fn run_with_profiler<P: Profiler + ?Sized>(
    config: &RunConfig,
    profiler: &mut P,
) -> Result<u64, PipelineError> {
    run_with_profiler_pmu(config, profiler).map(|(cycles, _)| cycles)
}

/// Like [`run_with_profiler`], but also returns the mote's virtual-PMU
/// snapshot — whose per-procedure cycle attribution *includes* the
/// profiler's instrumentation overhead, making overhead observable in
/// measured mote cycles rather than only as a wall-clock delta.
///
/// # Errors
///
/// [`PipelineError::Trap`] if the workload traps.
pub fn run_with_profiler_pmu<P: Profiler + ?Sized>(
    config: &RunConfig,
    profiler: &mut P,
) -> Result<(u64, ct_mote::pmu::PmuSnapshot), PipelineError> {
    let compiled = Compile.run(config, ())?;
    let deployed = Deploy::default().run(config, compiled)?;
    let mut mote = deployed.mote;
    let compiled = deployed.compiled;
    let start = mote.cycles;
    for i in 0..config.invocations {
        if let Some(hook) = compiled.per_call {
            hook(&mut mote, i);
        }
        mote.call(compiled.pid, &[], profiler)
            .map_err(|e| PipelineError::Trap(format!("{}: {e}", compiled.name)))?;
    }
    Ok((mote.cycles - start, mote.pmu.snapshot()))
}

/// Expected per-invocation edge traversal frequencies under a probability
/// vector (the placement input derived from an estimate).
///
/// # Errors
///
/// A human-readable reason when the Markov solve fails (exit unreachable
/// under `probs`).
pub fn edge_frequencies(cfg: &Cfg, probs: &BranchProbs) -> Result<Vec<f64>, String> {
    ct_markov::visits::expected_edge_traversals(cfg, probs).map_err(|e| e.to_string())
}

/// A uniformly random valid layout (entry first) — the pessimal baseline
/// for the placement experiments.
pub fn random_layout(cfg: &Cfg, seed: u64) -> Layout {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rest: Vec<_> = cfg.block_ids().skip(1).collect();
    rest.shuffle(&mut rng);
    let mut order = vec![cfg.entry()];
    order.extend(rest);
    match Layout::from_order(cfg, order) {
        Some(layout) => layout,
        None => panic!("shuffled permutation must stay a valid layout"),
    }
}

/// The default penalty model for an MCU.
pub fn penalties(mcu: crate::config::Mcu) -> PenaltyModel {
    mcu.cost_model().penalties()
}

/// Fans an experiment's configuration grid out over scoped threads
/// (`CT_THREADS` to override the worker count), returning one result per
/// cell **in cell order** — so tables assembled from the results are
/// identical to the serial loops this replaces, for any thread count.
///
/// Each cell must be self-contained (boot its own mote, own its seed):
/// pipeline sessions already work that way, which is exactly what makes
/// them safe to run concurrently.
pub fn par_sweep<T, U, F>(cells: Vec<T>, job: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    ct_stats::parallel::par_map(cells, job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mcu;
    use ct_mote::trace::NullProfiler;

    #[test]
    fn random_layout_is_valid_and_seeded() {
        let config = RunConfig::new("sense");
        let compiled = Compile.run(&config, ()).unwrap();
        let cfg = &compiled.program.procs[0].cfg;
        let a = random_layout(cfg, 1);
        let b = random_layout(cfg, 1);
        let c = random_layout(cfg, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.order()[0], cfg.entry());
    }

    #[test]
    fn profiler_runs_consume_cycles() {
        let config = RunConfig::new("blink").invocations(100).seeded(2);
        let cycles = run_with_profiler(&config, &mut NullProfiler).unwrap();
        assert!(cycles > 0);
    }

    #[test]
    fn penalty_models_differ_by_mcu() {
        let _ = penalties(Mcu::Avr);
        let _ = penalties(Mcu::Msp430);
    }
}
