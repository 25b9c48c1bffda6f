//! The Code Tomography EM estimator.
//!
//! Maximum-likelihood estimation of the Markov branch parameters from
//! end-to-end timing observations, by expectation–maximization over the
//! time-expanded chain:
//!
//! - **E-step** ([`crate::fb::e_step`]): posterior expected traversal counts
//!   of every CFG edge given the observed (quantized) durations under the
//!   current parameters.
//! - **M-step**: each branch's probability is re-estimated as expected true
//!   traversals over expected visits.
//!
//! This is Baum–Welch on a semi-Markov chain whose emissions are cycle
//! costs, observed through the timer's quantization kernel.

use crate::fb::{e_step_planned, FbError, FbParams, FbPlan, FbScratch};
use crate::samples::DurationSamples;
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;

/// Probabilities are clamped into `[MIN_PROB, 1 − MIN_PROB]` to keep
/// likelihoods finite (a branch never observed taken stays estimable).
const MIN_PROB: f64 = 1e-4;

/// EM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmOptions {
    /// Iteration cap.
    pub max_iter: usize,
    /// Convergence threshold on the max parameter change.
    pub tol: f64,
    /// Dynamic-programming controls.
    pub fb: FbParams,
}

impl Default for EmOptions {
    fn default() -> Self {
        EmOptions {
            max_iter: 100,
            tol: 1e-5,
            fb: FbParams::default(),
        }
    }
}

/// The outcome of an EM run.
#[derive(Debug, Clone, PartialEq)]
pub struct EmResult {
    /// Estimated branch probabilities.
    pub probs: BranchProbs,
    /// Iterations executed.
    pub iterations: usize,
    /// Final log-likelihood of the explained samples.
    pub loglik: f64,
    /// Whether the parameter change fell below tolerance.
    pub converged: bool,
    /// The last max parameter change observed (the convergence criterion;
    /// `0.0` when no iteration ran).
    pub final_delta: f64,
    /// Samples the model could not explain at the final parameters.
    pub unexplained: usize,
    /// Posterior expected traversal counts per edge at the final E-step,
    /// summed over samples (an unrolled estimate folds them back onto the
    /// original CFG's edges).
    pub edge_counts: Vec<f64>,
    /// Whether the likelihood watchdog rewound to an earlier iterate after
    /// detecting a material likelihood decrease (numerical trouble; the
    /// returned parameters are the last good iterate).
    pub rewound: bool,
}

/// Estimates branch probabilities by EM, starting from the uninformative
/// `θ = 0.5`.
///
/// # Errors
///
/// Propagates [`FbError`] from the dynamic programs.
pub fn estimate_em<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
    opts: EmOptions,
) -> Result<EmResult, FbError> {
    estimate_em_from(
        cfg,
        block_costs,
        edge_costs,
        samples,
        BranchProbs::uniform(cfg, 0.5),
        opts,
    )
}

/// Estimates branch probabilities by EM from an explicit starting point
/// (used for restarts and warm starts).
///
/// # Errors
///
/// Propagates [`FbError`] from the dynamic programs.
pub fn estimate_em_from<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
    init: BranchProbs,
    opts: EmOptions,
) -> Result<EmResult, FbError> {
    let stats = samples.suff_stats();
    estimate_em_planned(
        &FbPlan::new(cfg),
        &mut FbScratch::new(),
        block_costs,
        edge_costs,
        &stats.counted(),
        stats.cycles_per_tick(),
        init,
        opts,
    )
}

/// The EM loop on a caller-owned plan and scratch: every iteration's E-step
/// refills `scratch` in place, and the M-step writes the next iterate over
/// the one before last, so an iteration allocates nothing. The M-step
/// estimates one θ per parameter group of the plan ([`FbPlan::tied`]), so
/// the same loop, with the same health checks, runs untied and tied EM.
#[allow(clippy::too_many_arguments)]
pub(crate) fn estimate_em_planned(
    plan: &FbPlan,
    scratch: &mut FbScratch,
    block_costs: &[u64],
    edge_costs: &[u64],
    counted: &[(u64, usize)],
    cycles_per_tick: u64,
    init: BranchProbs,
    opts: EmOptions,
) -> Result<EmResult, FbError> {
    let e_step = |scratch: &mut FbScratch, probs: &BranchProbs| {
        e_step_planned(
            plan,
            scratch,
            block_costs,
            edge_costs,
            probs,
            counted,
            cycles_per_tick,
            opts.fb,
        )
    };
    if plan.branch_blocks().is_empty() || counted.is_empty() {
        // Nothing to estimate; still report the likelihood once.
        let (loglik, unexplained) = e_step(scratch, &init)?;
        return Ok(EmResult {
            probs: init,
            iterations: 0,
            loglik,
            converged: true,
            final_delta: 0.0,
            unexplained,
            edge_counts: scratch.counts().to_vec(),
            rewound: false,
        });
    }

    let mut probs = init;
    // The iterate whose E-step produced `loglik`/`edge_counts` — the
    // watchdog's rewind target once `probs` has moved past it.
    let mut good = probs.clone();
    let mut loglik = f64::NEG_INFINITY;
    let mut unexplained = 0;
    let mut edge_counts = vec![0.0; plan.edge_count()];
    let mut converged = false;
    let mut iterations = 0;
    let mut final_delta = 0.0;
    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        let (ll, unex) = e_step(scratch, &probs)?;

        // NaN/underflow guard: a non-finite likelihood or posterior count
        // means the DP degenerated; refuse to iterate on garbage.
        // Likelihood-monotonicity watchdog: EM guarantees ascent on the
        // explained set; a material decrease signals numerical breakdown
        // (e.g. pruning interacting with near-zero mass). Rewind rather
        // than diverge. Only comparable while the explained set is stable.
        let broken = ll.is_nan() || scratch.counts().iter().any(|c| !c.is_finite());
        let ascent_floor = loglik - 1e-6 * loglik.abs().max(1.0);
        let descended = iter > 0 && unex == unexplained && ll < ascent_floor;
        if broken || descended {
            if iter == 0 {
                // Only a breakdown can stop the first iteration.
                return Err(FbError::NonFinite {
                    iteration: iterations,
                });
            }
            // Rewind to the last good iterate and stop.
            return Ok(EmResult {
                probs: good,
                iterations,
                loglik,
                converged: false,
                final_delta,
                unexplained,
                edge_counts,
                rewound: true,
            });
        }

        loglik = ll;
        unexplained = unex;
        edge_counts.copy_from_slice(scratch.counts());
        std::mem::swap(&mut good, &mut probs);

        let mut max_delta: f64 = 0.0;
        for group in plan.groups() {
            // Tied slots are one parameter: pool their counts in slot order.
            let (mut nt, mut nf) = (0.0, 0.0);
            for &(_, slot) in group {
                let (t, f) = plan.arms()[slot];
                nt += edge_counts[t];
                nf += edge_counts[f];
            }
            let total = nt + nf;
            // A branch unreachable under the current data keeps its θ.
            let theta = (total > 0.0).then(|| (nt / total).clamp(MIN_PROB, 1.0 - MIN_PROB));
            for &(_, slot) in group {
                let bb = plan.branch_blocks()[slot];
                // `bb` came from the CFG's branch blocks, so `prob_true` is Some.
                let old = good.prob_true(bb).unwrap_or(0.5);
                let theta = theta.unwrap_or(old);
                max_delta = max_delta.max((theta - old).abs());
                probs.set_prob_true(bb, theta);
            }
        }
        final_delta = max_delta;
        if max_delta < opts.tol {
            converged = true;
            break;
        }
    }

    Ok(EmResult {
        probs,
        iterations,
        loglik,
        converged,
        final_delta,
        unexplained,
        edge_counts,
        // The watchdog's rewind paths return early above.
        rewound: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::TimingSamples;
    use ct_cfg::builder::{diamond, diamond_chain, while_loop};
    use ct_cfg::graph::BlockId;
    use ct_markov::chain_from_cfg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Generates synthetic tick samples from the true model.
    fn synth_samples(
        cfg: &ct_cfg::graph::Cfg,
        block_costs: &[u64],
        edge_costs: &[u64],
        truth: &BranchProbs,
        n: usize,
        cpt: u64,
        seed: u64,
    ) -> TimingSamples {
        // Fold edge costs into a sampling walk: easiest is a manual walk.
        let chain = chain_from_cfg(cfg, truth).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = cfg.edges();
        let mut ticks = Vec::with_capacity(n);
        for i in 0..n {
            // Walk the chain, summing block + edge costs.
            let run = ct_markov::sample_run(&chain, cfg.entry().index(), &mut rng, 100_000)
                .expect("absorbing");
            let mut d: u64 = run.iter().map(|&b| block_costs[b]).sum();
            for w in run.windows(2) {
                let e = edges
                    .iter()
                    .find(|e| e.from.index() == w[0] && e.to.index() == w[1])
                    .expect("edge");
                d += edge_costs[e.index];
            }
            // Random phase quantization.
            let phase = (i as u64 * 7919) % cpt;
            ticks.push((phase + d) / cpt - phase / cpt);
        }
        TimingSamples::new(ticks, cpt)
    }

    #[test]
    fn recovers_diamond_probability_cycle_accurate() {
        let cfg = diamond();
        let bc = vec![10, 100, 200, 5];
        let ec = vec![1, 2, 0, 0];
        let truth = BranchProbs::from_vec(&cfg, vec![0.8]);
        let samples = synth_samples(&cfg, &bc, &ec, &truth, 2000, 1, 1);
        let r = estimate_em(&cfg, &bc, &ec, &samples, EmOptions::default()).unwrap();
        let est = r.probs.as_slice()[0];
        assert!((est - 0.8).abs() < 0.03, "estimated {est}");
        assert!(r.converged);
        assert_eq!(r.unexplained, 0);
    }

    #[test]
    fn recovers_diamond_probability_under_quantization() {
        let cfg = diamond();
        let bc = vec![10, 100, 200, 5];
        let ec = vec![1, 2, 0, 0];
        let truth = BranchProbs::from_vec(&cfg, vec![0.3]);
        // cpt = 244 is coarser than both path durations (116 / 217 cycles):
        // most samples are 0 or 1 ticks, yet the fractional split still
        // identifies the mixture.
        let samples = synth_samples(&cfg, &bc, &ec, &truth, 4000, 244, 2);
        let r = estimate_em(&cfg, &bc, &ec, &samples, EmOptions::default()).unwrap();
        let est = r.probs.as_slice()[0];
        assert!((est - 0.3).abs() < 0.06, "estimated {est}");
    }

    #[test]
    fn recovers_loop_continuation_probability() {
        let cfg = while_loop();
        let bc = vec![2, 3, 10, 1];
        let ec = vec![0; cfg.edges().len()];
        let truth = BranchProbs::from_vec(&cfg, vec![0.7]);
        let samples = synth_samples(&cfg, &bc, &ec, &truth, 1500, 1, 3);
        let r = estimate_em(&cfg, &bc, &ec, &samples, EmOptions::default()).unwrap();
        let est = r.probs.prob_true(BlockId(1)).unwrap();
        assert!((est - 0.7).abs() < 0.03, "estimated {est}");
    }

    #[test]
    fn recovers_multiple_branches() {
        let cfg = diamond_chain(3);
        // Distinct arm costs make all three branches identifiable.
        let bc = vec![10, 50, 90, 8, 120, 30, 12, 200, 70, 5];
        let ec = vec![0; cfg.edges().len()];
        let truth = BranchProbs::from_vec(&cfg, vec![0.9, 0.4, 0.65]);
        let samples = synth_samples(&cfg, &bc, &ec, &truth, 4000, 1, 4);
        let r = estimate_em(&cfg, &bc, &ec, &samples, EmOptions::default()).unwrap();
        for (est, tru) in r.probs.as_slice().iter().zip(truth.as_slice()) {
            assert!((est - tru).abs() < 0.05, "{:?} vs {:?}", r.probs, truth);
        }
    }

    #[test]
    fn branchless_cfg_is_trivially_converged() {
        let cfg = ct_cfg::builder::linear(3);
        let bc = vec![5, 6, 7];
        let ec = vec![0, 0];
        let samples = TimingSamples::new(vec![18, 18], 1);
        let r = estimate_em(&cfg, &bc, &ec, &samples, EmOptions::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.probs.is_empty());
    }

    #[test]
    fn empty_samples_return_prior() {
        let cfg = diamond();
        let bc = vec![10, 100, 200, 5];
        let ec = vec![0; 4];
        let samples = TimingSamples::new(vec![], 1);
        let r = estimate_em(&cfg, &bc, &ec, &samples, EmOptions::default()).unwrap();
        assert_eq!(r.probs.as_slice()[0], 0.5);
    }

    #[test]
    fn loglik_increases_monotonically() {
        // EM guarantee: run a few fixed iteration counts and compare.
        let cfg = diamond();
        let bc = vec![10, 100, 200, 5];
        let ec = vec![0; 4];
        let truth = BranchProbs::from_vec(&cfg, vec![0.85]);
        let samples = synth_samples(&cfg, &bc, &ec, &truth, 500, 1, 5);
        let mut last = f64::NEG_INFINITY;
        for iters in [1, 2, 4, 8] {
            let opts = EmOptions {
                max_iter: iters,
                tol: 0.0,
                ..Default::default()
            };
            let r = estimate_em(&cfg, &bc, &ec, &samples, opts).unwrap();
            assert!(
                r.loglik >= last - 1e-9,
                "loglik decreased: {} -> {}",
                last,
                r.loglik
            );
            last = r.loglik;
        }
    }

    #[test]
    fn em_reads_only_the_tick_histogram() {
        // A materialized vector, the same ticks in reverse arrival order,
        // and the streaming accumulator share one histogram but not their
        // arrival-order-dependent moments: EM must not tell them apart.
        let cfg = diamond_chain(3);
        let bc = vec![10, 50, 90, 8, 120, 30, 12, 200, 70, 5];
        let ec = vec![0; cfg.edges().len()];
        let truth = BranchProbs::from_vec(&cfg, vec![0.9, 0.4, 0.65]);
        let samples = synth_samples(&cfg, &bc, &ec, &truth, 1500, 8, 13);
        let mut reversed_ticks = samples.ticks().to_vec();
        reversed_ticks.reverse();
        let reversed = TimingSamples::new(reversed_ticks, 8);
        let stats = crate::stream::SuffStats::from_samples(&samples);
        let init = BranchProbs::from_vec(&cfg, vec![0.3, 0.6, 0.5]);
        let opts = EmOptions::default();
        let run = |s: &dyn DurationSamples| {
            estimate_em_from(&cfg, &bc, &ec, s, init.clone(), opts).unwrap()
        };
        let fingerprint = |r: &EmResult| {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (
                bits(r.probs.as_slice()),
                r.loglik.to_bits(),
                r.iterations,
                bits(&r.edge_counts),
                r.unexplained,
                r.final_delta.to_bits(),
            )
        };
        let want = fingerprint(&run(&samples));
        assert!(want.2 > 1, "EM must iterate for the pin to mean anything");
        assert_eq!(fingerprint(&run(&stats)), want);
        assert_eq!(fingerprint(&run(&reversed)), want);
    }

    #[test]
    fn warm_started_rerun_stays_at_the_optimum() {
        // Re-estimating from the previous optimum lands where it started.
        let cfg = diamond();
        let bc = vec![10, 100, 200, 5];
        let ec = vec![0; 4];
        let truth = BranchProbs::from_vec(&cfg, vec![0.8]);
        let samples = synth_samples(&cfg, &bc, &ec, &truth, 800, 1, 12);
        let first = estimate_em(&cfg, &bc, &ec, &samples, EmOptions::default()).unwrap();
        let again = estimate_em_from(
            &cfg,
            &bc,
            &ec,
            &samples,
            first.probs.clone(),
            EmOptions::default(),
        )
        .unwrap();
        for (x, y) in first.probs.as_slice().iter().zip(again.probs.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_start_converges_faster() {
        let cfg = diamond();
        let bc = vec![10, 100, 200, 5];
        let ec = vec![0; 4];
        let truth = BranchProbs::from_vec(&cfg, vec![0.8]);
        let samples = synth_samples(&cfg, &bc, &ec, &truth, 1000, 1, 6);
        let cold = estimate_em(&cfg, &bc, &ec, &samples, EmOptions::default()).unwrap();
        let warm = estimate_em_from(
            &cfg,
            &bc,
            &ec,
            &samples,
            truth.clone(),
            EmOptions::default(),
        )
        .unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert!((warm.probs.as_slice()[0] - cold.probs.as_slice()[0]).abs() < 0.01);
    }
}
