//! The estimator front door: method selection, a uniform result type, and
//! the graceful-degradation ladder for samples that crossed a faulty
//! measurement channel.

use crate::chain::SWEEPS;
use crate::em::{EmOptions, EmResult};
use crate::fb::FbError;
use crate::flow_nnls::{estimate_flow, FlowError};
use crate::gnt::{estimate_gnt, GntError, GntResult};
use crate::moments::{estimate_moments, MomentsError};
use crate::samples::{DurationSamples, SampleIssue, TrimPolicy};
use crate::stream::SuffStats;
use crate::unrolled::UnrolledError;
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use std::error::Error;
use std::fmt;

/// Which estimation algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Exact EM over the time-expanded chain (default; most accurate).
    Em,
    /// EM on a counted-loop-unrolled model with tied copy parameters
    /// (compiler-assisted; see [`crate::unrolled`]).
    EmUnrolled,
    /// Mean/variance matching (cheap fallback for path-explosive CFGs).
    Moments,
    /// Generalized network tomography: characteristic-function matching
    /// (distribution-free; bounded per-sample influence).
    Gnt,
    /// Flow-constrained NNLS on the mean (linear inverse baseline).
    FlowMean,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::Em => "em",
            Method::EmUnrolled => "em+unroll",
            Method::Moments => "moments",
            Method::Gnt => "gnt",
            Method::FlowMean => "flow-mean",
        };
        f.write_str(s)
    }
}

/// Estimation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EstimateOptions {
    /// Forced method; `None` selects EM with automatic fallback to moments
    /// when the time-expanded support explodes.
    pub method: Option<Method>,
    /// EM controls.
    pub em: EmOptions,
}

/// Extra random EM restarts beyond the flow-warm start (the best final
/// likelihood wins). Coarse timers create mirror local optima when arm-cost
/// differences are sub-tick; restarts are the standard cure.
const RESTARTS: usize = 2;

/// A branch-probability estimate with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The estimated parameters.
    pub probs: BranchProbs,
    /// The method that produced them.
    pub method: Method,
    /// Iterations/sweeps the method used.
    pub iterations: usize,
    /// Whether the method's own convergence criterion was met (EM: the max
    /// parameter change fell below tolerance; moments: a sweep stopped
    /// improving before the cap; flow: always, it is a direct solve).
    pub converged: bool,
    /// The final convergence-criterion value (EM: max parameter change of
    /// the last iteration; other methods report `0.0`).
    pub final_delta: f64,
    /// Log-likelihood (EM only).
    pub loglik: Option<f64>,
    /// Samples the model could not explain (EM only).
    pub unexplained: usize,
}

impl Estimate {
    /// An EM run's outcome as an estimate by `method` (plain or unrolled
    /// EM), carrying the run's own convergence report.
    pub fn from_em(r: EmResult, method: Method) -> Estimate {
        Estimate {
            probs: r.probs,
            method,
            iterations: r.iterations,
            converged: r.converged,
            final_delta: r.final_delta,
            loglik: Some(r.loglik),
            unexplained: r.unexplained,
        }
    }
}

/// Estimation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateError {
    /// The input sample set was unusable (zero resolution, empty, or
    /// overflowing tick values).
    InvalidSamples(SampleIssue),
    /// EM failed (support explosion, shape mismatch, or the non-finite
    /// likelihood watchdog with no good iterate to rewind to).
    Em(FbError),
    /// Moments failed.
    Moments(MomentsError),
    /// GNT failed.
    Gnt(GntError),
    /// Flow failed.
    Flow(FlowError),
    /// [`Method::EmUnrolled`] was forced, but unrolling needs the
    /// program's counted loops, which [`estimate`] does not take (see
    /// [`crate::unrolled::estimate_unrolled`]).
    UnrolledNeedsLoops,
    /// A forced [`Method::EmUnrolled`] had counted loops, and the unrolled
    /// estimator failed.
    Unrolled(UnrolledError),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::InvalidSamples(i) => write!(f, "invalid samples: {i}"),
            EstimateError::Em(e) => write!(f, "em estimator: {e}"),
            EstimateError::Moments(e) => write!(f, "moments estimator: {e}"),
            EstimateError::Gnt(e) => write!(f, "gnt estimator: {e}"),
            EstimateError::Flow(e) => write!(f, "flow estimator: {e}"),
            EstimateError::UnrolledNeedsLoops => write!(
                f,
                "em+unroll needs the program's counted loops; use estimate_unrolled"
            ),
            EstimateError::Unrolled(e) => write!(f, "em+unroll estimator: {e}"),
        }
    }
}

impl Error for EstimateError {}

impl From<SampleIssue> for EstimateError {
    fn from(issue: SampleIssue) -> EstimateError {
        EstimateError::InvalidSamples(issue)
    }
}

/// Estimates a procedure's branch probabilities from end-to-end timing
/// samples — the Code Tomography entry point.
///
/// With `method: None`, runs EM and falls back to moment matching when the
/// time-expanded dynamic program exceeds its budget.
///
/// # Errors
///
/// Returns the underlying method's error, and
/// [`EstimateError::UnrolledNeedsLoops`] for a forced
/// [`Method::EmUnrolled`].
///
/// # Examples
///
/// ```
/// use ct_cfg::builder::diamond;
/// use ct_core::estimator::{estimate, EstimateOptions};
/// use ct_core::samples::TimingSamples;
///
/// let cfg = diamond();
/// let block_costs = [10, 100, 200, 5];
/// let edge_costs = [0, 0, 0, 0];
/// // 80% of runs take the fast (115-cycle) path.
/// let mut ticks = vec![115u64; 80];
/// ticks.extend(vec![215u64; 20]);
/// let samples = TimingSamples::new(ticks, 1);
/// let est = estimate(&cfg, &block_costs, &edge_costs, &samples,
///                    EstimateOptions::default()).unwrap();
/// assert!((est.probs.as_slice()[0] - 0.8).abs() < 0.01);
/// ```
pub fn estimate<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
    opts: EstimateOptions,
) -> Result<Estimate, EstimateError> {
    // The one conversion: every method below reads these statistics, so no
    // EM restart or iteration sorts the ticks again.
    let stats = samples.suff_stats();
    // Overflowing ticks would poison every downstream sum, and a zero
    // resolution reads every tick as zero cycles; reject both up front.
    // Empty samples keep their method-specific semantics (EM reports the
    // prior, moments/flow error out).
    if let Err(issue @ (SampleIssue::TickOverflow { .. } | SampleIssue::ZeroResolution)) =
        stats.validate()
    {
        return Err(issue.into());
    }
    match opts.method {
        Some(Method::Em) => {
            run_em(cfg, block_costs, edge_costs, &stats, opts).map_err(EstimateError::Em)
        }
        Some(Method::EmUnrolled) => Err(EstimateError::UnrolledNeedsLoops),
        Some(Method::Moments) => {
            run_moments(cfg, block_costs, edge_costs, &stats).map_err(EstimateError::Moments)
        }
        Some(Method::Gnt) => estimate_gnt(cfg, block_costs, edge_costs, &*stats)
            .map(gnt_estimate)
            .map_err(EstimateError::Gnt),
        Some(Method::FlowMean) => {
            let r = estimate_flow(cfg, block_costs, edge_costs, &*stats)
                .map_err(EstimateError::Flow)?;
            Ok(Estimate {
                probs: r.probs,
                method: Method::FlowMean,
                iterations: 1,
                converged: true,
                final_delta: 0.0,
                loglik: None,
                unexplained: 0,
            })
        }
        None => match run_em(cfg, block_costs, edge_costs, &stats, opts) {
            Ok(e) => Ok(e),
            Err(FbError::SupportExplosion { .. }) => {
                run_moments(cfg, block_costs, edge_costs, &stats).map_err(EstimateError::Moments)
            }
            Err(e) => Err(EstimateError::Em(e)),
        },
    }
}

/// EM from the flow warm start plus [`RESTARTS`] seeded probes, best
/// answer wins.
fn run_em(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    stats: &SuffStats,
    opts: EstimateOptions,
) -> Result<Estimate, FbError> {
    // Warm-start from a cheap mean-matching flow fit: long loops at the
    // uniform prior make long observed durations exponentially unlikely (they
    // fall below the DP's pruning threshold and EM cannot move); starting
    // near the right mean fixes that. The flow NNLS solves one small linear
    // system (microseconds) where the former moments warm start ran a full
    // coordinate-descent sweep (milliseconds) — for warm-starting, matching
    // the mean is all that matters, and EM's fixed point is unchanged. Clamp
    // away from 0 and 1 so loop supports stay finite.
    let warm_init = match estimate_flow(cfg, block_costs, edge_costs, stats) {
        Ok(f) => {
            let clamped: Vec<f64> = f
                .probs
                .as_slice()
                .iter()
                .map(|p| p.clamp(0.02, 0.98))
                .collect();
            ct_cfg::profile::BranchProbs::from_vec(cfg, clamped)
        }
        Err(_) => ct_cfg::profile::BranchProbs::uniform(cfg, 0.5),
    };

    // Candidate starting points: the flow fit plus seeded random probes.
    let n_branches = warm_init.len();
    let mut inits = vec![warm_init];
    let mut state = 0x0C0D_E70Au64;
    for _ in 0..RESTARTS {
        let probe: Vec<f64> = (0..n_branches)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                0.1 + 0.8 * u
            })
            .collect();
        inits.push(ct_cfg::profile::BranchProbs::from_vec(cfg, probe));
    }

    // All starting points are independent; fan them out. Results come back
    // in input order, so the best-of reduction below is identical to the
    // serial loop it replaces for any `CT_THREADS`.
    let indexed: Vec<(usize, ct_cfg::profile::BranchProbs)> =
        inits.into_iter().enumerate().collect();
    let attempts = ct_stats::parallel::par_map(indexed, |(restart, init)| {
        let res = crate::em::estimate_em_from(cfg, block_costs, edge_costs, stats, init, opts.em);
        match &res {
            Ok(r) => {
                // Restart 0 is the flow warm start, the rest are seeded
                // probes. All fields are deterministic engine outputs, so
                // the event content is thread-count-insensitive.
                let reason = if r.converged {
                    "tol"
                } else if r.rewound {
                    "rewound"
                } else {
                    "max_iter"
                };
                ct_obs::emit(
                    "em.restart",
                    vec![
                        ("restart", restart.into()),
                        ("iterations", r.iterations.into()),
                        ("converged", r.converged.into()),
                        ("reason", reason.into()),
                        ("final_delta", r.final_delta.into()),
                        ("loglik", r.loglik.into()),
                        ("unexplained", r.unexplained.into()),
                        ("rewound", r.rewound.into()),
                    ],
                );
            }
            Err(e) => ct_obs::emit(
                "em.restart_failed",
                vec![("restart", restart.into()), ("error", e.to_string().into())],
            ),
        }
        ct_obs::Counter::new("em.restarts").incr();
        res
    });

    let mut best: Option<crate::em::EmResult> = None;
    let mut last_err = None;
    for attempt in attempts {
        match attempt {
            Ok(r) => {
                // Fewer rejected samples first, then the higher likelihood.
                let better = match &best {
                    None => true,
                    Some(b) => {
                        (r.unexplained, std::cmp::Reverse(r.loglik))
                            < (b.unexplained, std::cmp::Reverse(b.loglik))
                    }
                };
                if better {
                    best = Some(r);
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    let r = match best {
        Some(r) => r,
        // `inits` is non-empty (the warm start is always pushed), so when no
        // attempt succeeded at least one error was recorded.
        None => {
            return Err(last_err.unwrap_or(FbError::Shape("no EM attempt ran".into())));
        }
    };
    Ok(Estimate::from_em(r, Method::Em))
}

fn run_moments(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    stats: &SuffStats,
) -> Result<Estimate, MomentsError> {
    let r = estimate_moments(cfg, block_costs, edge_costs, stats)?;
    Ok(Estimate {
        probs: r.probs,
        method: Method::Moments,
        iterations: r.sweeps,
        // The coordinate descent stops early only when a full sweep made no
        // progress; hitting the cap means it was still moving.
        converged: r.sweeps < SWEEPS,
        final_delta: 0.0,
        loglik: None,
        unexplained: 0,
    })
}

/// A GNT fit as an estimate.
fn gnt_estimate(r: GntResult) -> Estimate {
    Estimate {
        probs: r.probs,
        method: Method::Gnt,
        iterations: r.sweeps,
        // Same convention as moments: stopping before the sweep cap means a
        // full sweep made no progress.
        converged: r.sweeps < SWEEPS,
        final_delta: 0.0,
        loglik: None,
        unexplained: 0,
    }
}

/// One rung of the graceful-degradation ladder, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Exact EM on the full (validated) sample set.
    FullEm,
    /// EM after robust outlier trimming.
    TrimmedEm,
    /// Characteristic-function inversion (GNT) on the trimmed samples:
    /// distribution-free, bounded per-sample influence — stronger than raw
    /// moment matching when the channel reshaped the distribution.
    Gnt,
    /// Method-of-moments on the trimmed samples.
    Moments,
    /// The static uniform prior — always answers, carries no information.
    Prior,
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rung::FullEm => "full-em",
            Rung::TrimmedEm => "trimmed-em",
            Rung::Gnt => "gnt",
            Rung::Moments => "moments",
            Rung::Prior => "prior",
        };
        f.write_str(s)
    }
}

/// Why one rung of the ladder was rejected (or how it answered).
#[derive(Debug, Clone, PartialEq)]
pub struct RungAttempt {
    /// The rung tried.
    pub rung: Rung,
    /// Whether its answer was accepted.
    pub accepted: bool,
    /// Human-readable outcome: the acceptance diagnostics or the rejection
    /// reason.
    pub detail: String,
}

/// Policy knobs for [`estimate_robust`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustOptions {
    /// Base estimation configuration for the EM/moments rungs.
    pub base: EstimateOptions,
    /// Outlier-trimming policy of the `TrimmedEm`/`Gnt`/`Moments` rungs.
    pub trim: TrimPolicy,
    /// Largest tolerated fraction of samples removed by trimming before the
    /// trimmed rungs are considered to be estimating a different workload.
    pub max_trimmed: f64,
    /// Whether the GNT rung participates in the descent. Disabling it
    /// restores the pre-0.10 four-rung ladder exactly (the rung is recorded
    /// as policy-skipped so the audit trail stays complete).
    pub use_gnt: bool,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            base: EstimateOptions::default(),
            trim: TrimPolicy::default(),
            max_trimmed: 0.60,
            use_gnt: true,
        }
    }
}

/// A ladder estimate: the answer plus which rung produced it and why the
/// stronger rungs did not.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustEstimate {
    /// The accepted estimate.
    pub estimate: Estimate,
    /// The rung that answered.
    pub rung: Rung,
    /// Placement-facing confidence in `[0, 1]`: scaled down each rung and by
    /// the unexplained-sample fraction. `0.0` means "the prior — do not act
    /// on this".
    pub confidence: f64,
    /// Samples removed by trimming before the accepted rung ran (0 for
    /// `FullEm`/`Prior`).
    pub trimmed: usize,
    /// Every rung tried, in order, with its outcome.
    pub attempts: Vec<RungAttempt>,
}

/// Estimates branch probabilities through a degraded measurement channel by
/// walking the ladder **full EM → trimmed EM → GNT → moments → static
/// prior**, accepting the first rung whose answer passes its health checks.
///
/// Unlike [`estimate`], this never fails and never panics on hostile sample
/// sets (stuck-at ticks, merged windows, truncated batches …): every defect
/// either trims away or degrades the answer — the final rung is the uniform
/// prior with zero confidence, which downstream placement treats as "keep
/// the natural layout".
///
/// Every rung reads the samples' statistics ([`SuffStats`]), converted once
/// here: a vector and the merged statistics of the same ticks walk the
/// ladder bitwise alike.
pub fn estimate_robust<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
    opts: RobustOptions,
) -> RobustEstimate {
    let result = run_ladder(cfg, block_costs, edge_costs, &samples.suff_stats(), opts);
    // Attempts must read top-down no matter which rungs ran, were
    // policy-skipped, or short-circuited the descent.
    debug_assert!(
        result.attempts.windows(2).all(|w| w[0].rung < w[1].rung),
        "rung attempts out of descent order: {:?}",
        result.attempts
    );
    // The audit trail doubles as the observability record: one event per
    // rung attempted, one for the accepted answer. Content mirrors the
    // returned `attempts`, so it is deterministic at any `CT_THREADS`.
    for a in &result.attempts {
        ct_obs::emit(
            "ladder.rung",
            vec![
                ("rung", a.rung.to_string().into()),
                ("accepted", a.accepted.into()),
                ("detail", a.detail.as_str().into()),
            ],
        );
    }
    ct_obs::emit(
        "ladder.result",
        vec![
            ("rung", result.rung.to_string().into()),
            ("confidence", result.confidence.into()),
            ("trimmed", result.trimmed.into()),
        ],
    );
    ct_obs::Gauge::new("ladder.confidence").set(result.confidence);
    result
}

/// Largest tolerated fraction of samples the EM likelihood rejects as
/// impossible before an EM rung's answer is considered untrustworthy.
const MAX_UNEXPLAINED: f64 = 0.10;
/// Slack on EM's own convergence flag: a run that stopped at the iteration
/// cap still counts as settled when its last parameter change is below
/// this. Coarse timers produce likelihood plateaus where EM keeps polishing
/// long after the answer has stabilized; rejecting those runs would discard
/// a good estimate for an optimizer technicality.
const MAX_FINAL_DELTA: f64 = 1e-3;
/// Smallest GNT inversion confidence (fit × conditioning, the backend's own
/// `[0, 1]` scale) the ladder accepts from that rung.
const MIN_GNT_CONFIDENCE: f64 = 0.25;

fn run_ladder(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    stats: &SuffStats,
    opts: RobustOptions,
) -> RobustEstimate {
    let mut attempts = Vec::new();
    let n = stats.len();

    // A zero resolution reads every tick as zero cycles. No rung can
    // estimate from that, and the transform and moments rungs would still
    // fit something: refuse before the descent.
    if let Err(issue @ SampleIssue::ZeroResolution) = stats.validate() {
        attempts.push(RungAttempt {
            rung: Rung::FullEm,
            accepted: false,
            detail: issue.to_string(),
        });
        return prior(cfg, 0, attempts);
    }

    // Rung 1: full EM on validated samples.
    if let Ok(r) = try_em_rung(
        Rung::FullEm,
        cfg,
        block_costs,
        edge_costs,
        stats,
        0,
        &opts,
        &mut attempts,
    ) {
        return r;
    }

    // Rung 2: EM on robustly trimmed samples. When this rung fails because
    // the *trimmed* data still cannot be reconciled with the timing model
    // (unexplained fraction over budget, or trimming would have to discard
    // most of the batch), the moments rung is poisoned too: means and
    // variances of data the model cannot explain measure the corruption, not
    // the program, and a confident wrong answer is worse than the prior.
    // The trim filters the histogram: every trimmed rung reads the kept
    // ticks' statistics.
    let (trimmed, dropped) = stats.trimmed(opts.trim);
    let trim_frac = if n == 0 {
        0.0
    } else {
        dropped as f64 / n as f64
    };
    let moments_poisoned;
    if trim_frac > opts.max_trimmed {
        attempts.push(RungAttempt {
            rung: Rung::TrimmedEm,
            accepted: false,
            detail: format!(
                "trimming removed {:.0}% of samples (> {:.0}% budget)",
                100.0 * trim_frac,
                100.0 * opts.max_trimmed
            ),
        });
        moments_poisoned = true;
    } else {
        match try_em_rung(
            Rung::TrimmedEm,
            cfg,
            block_costs,
            edge_costs,
            &trimmed,
            dropped,
            &opts,
            &mut attempts,
        ) {
            Ok(r) => return r,
            Err(rejection) => moments_poisoned = matches!(rejection, EmRejection::Inconsistent),
        }
    }

    // Rung 3: GNT (characteristic-function inversion) on the trimmed
    // samples. The poisoned-moments rule applies to this rung too: GNT is
    // distribution-free but it still fits the *measured* transform, and the
    // transform of data the timing model cannot explain describes the
    // corruption, not the program. Saturated statistics are refused inside
    // the backend (`GntError::SaturatedMoments`), the same contract as the
    // moments rung.
    if !opts.use_gnt {
        attempts.push(RungAttempt {
            rung: Rung::Gnt,
            accepted: false,
            detail: "skipped: disabled by policy (use_gnt = false)".into(),
        });
    } else if moments_poisoned {
        attempts.push(RungAttempt {
            rung: Rung::Gnt,
            accepted: false,
            detail: "skipped: trimmed samples are inconsistent with the timing model, \
                     so their transform is untrustworthy"
                .into(),
        });
    } else {
        match estimate_gnt(cfg, block_costs, edge_costs, &trimmed) {
            Ok(r) if r.confidence >= MIN_GNT_CONFIDENCE => {
                attempts.push(RungAttempt {
                    rung: Rung::Gnt,
                    accepted: true,
                    detail: format!(
                        "sweeps={}, objective={:.2e}, inversion confidence {:.2}",
                        r.sweeps, r.objective, r.confidence
                    ),
                });
                let confidence = 0.55 * (1.0 - trim_frac) * r.confidence;
                return RobustEstimate {
                    estimate: gnt_estimate(r),
                    rung: Rung::Gnt,
                    confidence,
                    trimmed: dropped,
                    attempts,
                };
            }
            Ok(r) => attempts.push(RungAttempt {
                rung: Rung::Gnt,
                accepted: false,
                detail: format!(
                    "inversion confidence {:.2} below the {:.2} floor",
                    r.confidence, MIN_GNT_CONFIDENCE
                ),
            }),
            Err(e) => attempts.push(RungAttempt {
                rung: Rung::Gnt,
                accepted: false,
                detail: e.to_string(),
            }),
        }
    }

    // Rung 4: moments on the trimmed samples (mean/variance only — outlier
    // clipping is essential before trusting second moments). Routed through
    // the front door so the overflow gate still applies.
    if moments_poisoned {
        attempts.push(RungAttempt {
            rung: Rung::Moments,
            accepted: false,
            detail: "skipped: trimmed samples are inconsistent with the timing model, \
                     so their moments are untrustworthy"
                .into(),
        });
    } else {
        let forced_moments = EstimateOptions {
            method: Some(Method::Moments),
            ..opts.base
        };
        match estimate(cfg, block_costs, edge_costs, &trimmed, forced_moments) {
            Ok(est) => {
                attempts.push(RungAttempt {
                    rung: Rung::Moments,
                    accepted: true,
                    detail: format!("sweeps={}", est.iterations),
                });
                let confidence = 0.4 * (1.0 - trim_frac);
                return RobustEstimate {
                    estimate: est,
                    rung: Rung::Moments,
                    confidence,
                    trimmed: dropped,
                    attempts,
                };
            }
            Err(e) => attempts.push(RungAttempt {
                rung: Rung::Moments,
                accepted: false,
                detail: e.to_string(),
            }),
        }
    }

    // Rung 5: the static prior always answers.
    prior(cfg, dropped, attempts)
}

/// The static prior's answer, after the stronger rungs in `attempts`
/// declined.
fn prior(cfg: &Cfg, trimmed: usize, mut attempts: Vec<RungAttempt>) -> RobustEstimate {
    attempts.push(RungAttempt {
        rung: Rung::Prior,
        accepted: true,
        detail: "uniform branch probabilities".into(),
    });
    RobustEstimate {
        estimate: Estimate {
            probs: BranchProbs::uniform(cfg, 0.5),
            method: Method::Moments,
            iterations: 0,
            converged: true,
            final_delta: 0.0,
            loglik: None,
            unexplained: 0,
        },
        rung: Rung::Prior,
        confidence: 0.0,
        trimmed,
        attempts,
    }
}

/// Why an EM rung declined to answer.
enum EmRejection {
    /// The samples are irreconcilable with the timing model (unexplained
    /// fraction over budget): summary statistics of the same data are
    /// untrustworthy too.
    Inconsistent,
    /// A mechanical failure (no convergence, support explosion, bad input):
    /// weaker summaries may still extract something.
    Other,
}

/// Runs one EM rung on `stats` and applies its health checks; `Ok` when
/// accepted.
#[allow(clippy::too_many_arguments)]
fn try_em_rung(
    rung: Rung,
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    stats: &SuffStats,
    dropped: usize,
    opts: &RobustOptions,
    attempts: &mut Vec<RungAttempt>,
) -> Result<RobustEstimate, EmRejection> {
    let reject = |attempts: &mut Vec<RungAttempt>, detail: String| {
        attempts.push(RungAttempt {
            rung,
            accepted: false,
            detail,
        });
    };
    // Validation also stands in for the front door's overflow gate.
    if let Err(issue) = stats.validate() {
        reject(attempts, issue.to_string());
        return Err(EmRejection::Other);
    }
    match run_em(cfg, block_costs, edge_costs, stats, opts.base).map_err(EstimateError::Em) {
        Ok(est) => {
            let unex_frac = est.unexplained as f64 / stats.len().max(1) as f64;
            if !est.converged && est.final_delta > MAX_FINAL_DELTA {
                reject(
                    attempts,
                    format!(
                        "EM still moving at the iteration cap (delta {:.2e} > {:.0e})",
                        est.final_delta, MAX_FINAL_DELTA
                    ),
                );
                Err(EmRejection::Other)
            } else if est.loglik.map(|l| !l.is_finite()).unwrap_or(false)
                && est.unexplained < stats.len()
            {
                reject(attempts, "non-finite likelihood".into());
                Err(EmRejection::Other)
            } else if unex_frac > MAX_UNEXPLAINED {
                reject(
                    attempts,
                    format!(
                        "{:.0}% of samples unexplained (> {:.0}% budget)",
                        100.0 * unex_frac,
                        100.0 * MAX_UNEXPLAINED
                    ),
                );
                Err(EmRejection::Inconsistent)
            } else {
                attempts.push(RungAttempt {
                    rung,
                    accepted: true,
                    detail: format!(
                        "converged in {} iterations, {:.0}% unexplained",
                        est.iterations,
                        100.0 * unex_frac
                    ),
                });
                let base = match rung {
                    Rung::FullEm => 1.0,
                    _ => 0.7,
                };
                let total = stats.len() + dropped;
                let kept_frac = if total == 0 {
                    1.0
                } else {
                    stats.len() as f64 / total as f64
                };
                Ok(RobustEstimate {
                    confidence: base * (1.0 - unex_frac) * kept_frac,
                    estimate: est,
                    rung,
                    trimmed: dropped,
                    attempts: std::mem::take(attempts),
                })
            }
        }
        Err(e) => {
            reject(attempts, e.to_string());
            Err(EmRejection::Other)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fb::FbParams;
    use crate::samples::TimingSamples;
    use ct_cfg::builder::{diamond, while_loop};

    fn diamond_samples(
        p_fast: f64,
        n: usize,
    ) -> (ct_cfg::graph::Cfg, Vec<u64>, Vec<u64>, TimingSamples) {
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        let n_fast = (n as f64 * p_fast) as usize;
        let mut ticks = vec![115u64; n_fast];
        ticks.extend(vec![215u64; n - n_fast]);
        (cfg, bc, ec, TimingSamples::new(ticks, 1))
    }

    #[test]
    fn default_runs_em() {
        let (cfg, bc, ec, samples) = diamond_samples(0.6, 100);
        let e = estimate(&cfg, &bc, &ec, &samples, EstimateOptions::default()).unwrap();
        assert_eq!(e.method, Method::Em);
        assert!(e.loglik.is_some());
        assert!((e.probs.as_slice()[0] - 0.6).abs() < 0.01);
    }

    #[test]
    fn forced_methods_all_work() {
        let (cfg, bc, ec, samples) = diamond_samples(0.7, 200);
        for m in [Method::Em, Method::Moments, Method::FlowMean] {
            let opts = EstimateOptions {
                method: Some(m),
                ..Default::default()
            };
            let e = estimate(&cfg, &bc, &ec, &samples, opts).unwrap();
            assert_eq!(e.method, m);
            assert!(
                (e.probs.as_slice()[0] - 0.7).abs() < 0.05,
                "{m}: {:?}",
                e.probs
            );
        }
    }

    #[test]
    fn forced_unrolled_em_is_refused() {
        // `estimate` takes no counted loops, so it cannot unroll: a forced
        // `EmUnrolled` must be refused, not run as plain EM.
        let (cfg, bc, ec, samples) = diamond_samples(0.7, 200);
        let opts = EstimateOptions {
            method: Some(Method::EmUnrolled),
            ..Default::default()
        };
        let r = estimate(&cfg, &bc, &ec, &samples, opts);
        assert_eq!(r, Err(EstimateError::UnrolledNeedsLoops));
        assert!(r.unwrap_err().to_string().contains("counted loops"));
    }

    #[test]
    fn auto_falls_back_to_moments_on_explosion() {
        let cfg = while_loop();
        let bc = vec![2u64, 3, 10, 1];
        let ec = vec![0u64; cfg.edges().len()];
        // Long loop: q=0.9 → durations far out; strangle the DP budget so EM
        // cannot run.
        let mut ticks = Vec::new();
        for k in 0..60u64 {
            let copies = (2000.0 * 0.9f64.powi(k as i32) * 0.1) as usize;
            if copies > 0 {
                ticks.push(6 + 13 * k);
                ticks.extend(vec![6 + 13 * k; copies - 1]);
            }
        }
        let samples = TimingSamples::new(ticks, 1);
        let mut opts = EstimateOptions::default();
        opts.em.fb = FbParams {
            mass_eps: 1e-12,
            max_entries: 3,
        };
        let e = estimate(&cfg, &bc, &ec, &samples, opts).unwrap();
        assert_eq!(e.method, Method::Moments);
        let est = e.probs.prob_true(ct_cfg::graph::BlockId(1)).unwrap();
        assert!((est - 0.9).abs() < 0.05, "estimated {est}");
    }

    #[test]
    fn method_display() {
        assert_eq!(Method::Em.to_string(), "em");
        assert_eq!(Method::FlowMean.to_string(), "flow-mean");
    }

    #[test]
    fn ladder_clean_samples_answer_at_full_em() {
        let (cfg, bc, ec, samples) = diamond_samples(0.7, 200);
        let r = estimate_robust(&cfg, &bc, &ec, &samples, RobustOptions::default());
        assert_eq!(r.rung, Rung::FullEm);
        assert!(r.confidence > 0.9, "confidence {}", r.confidence);
        assert_eq!(r.trimmed, 0);
        assert!((r.estimate.probs.as_slice()[0] - 0.7).abs() < 0.05);
        assert_eq!(r.attempts.len(), 1);
        assert!(r.attempts[0].accepted);
    }

    #[test]
    fn ladder_trims_stuck_at_counters() {
        // 9% stuck-at garbage: full EM rejects the sample set (overflow
        // validation), trimming recovers the clean bulk.
        let (cfg, bc, ec, samples) = diamond_samples(0.7, 200);
        let mut ticks = samples.ticks().to_vec();
        for _ in 0..20 {
            ticks.push(u64::MAX);
        }
        let dirty = TimingSamples::new(ticks, 1);
        let r = estimate_robust(&cfg, &bc, &ec, &dirty, RobustOptions::default());
        assert_eq!(r.rung, Rung::TrimmedEm);
        assert_eq!(r.trimmed, 20);
        assert!((r.estimate.probs.as_slice()[0] - 0.7).abs() < 0.05);
        assert!(r.confidence > 0.4 && r.confidence < 1.0);
        // The full-EM rejection is on the record.
        assert!(!r.attempts[0].accepted);
        assert_eq!(r.attempts[0].rung, Rung::FullEm);
    }

    #[test]
    fn ladder_empty_samples_reach_the_prior() {
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        let empty = TimingSamples::new(vec![], 1);
        let r = estimate_robust(&cfg, &bc, &ec, &empty, RobustOptions::default());
        assert_eq!(r.rung, Rung::Prior);
        assert_eq!(r.confidence, 0.0);
        assert_eq!(r.estimate.probs.as_slice(), &[0.5]);
        // All five rungs tried, only the last accepted, in descent order.
        assert_eq!(r.attempts.len(), 5);
        assert!(r.attempts[..4].iter().all(|a| !a.accepted));
        assert!(r.attempts[4].accepted);
        assert!(r.attempts.windows(2).all(|w| w[0].rung < w[1].rung));
    }

    #[test]
    fn ladder_refuses_zero_resolution_statistics() {
        // Statistics, unlike a vector, can carry a zero resolution. Every
        // tick then reads as zero cycles, which the moments rung would
        // still fit; the ladder must answer with the prior instead.
        let (cfg, bc, ec, samples) = diamond_samples(0.7, 200);
        let mut stats = SuffStats::new(0);
        samples.ticks().iter().for_each(|&t| stats.push(t));
        let r = estimate_robust(&cfg, &bc, &ec, &stats, RobustOptions::default());
        assert_eq!(r.rung, Rung::Prior, "attempts: {:?}", r.attempts);
        assert_eq!(r.confidence, 0.0);
        assert!(r.attempts[0].detail.contains("zero"), "{:?}", r.attempts);
        // The front door refuses them for every method too.
        for m in [Method::Em, Method::Moments, Method::Gnt, Method::FlowMean] {
            let opts = EstimateOptions {
                method: Some(m),
                ..Default::default()
            };
            assert_eq!(
                estimate(&cfg, &bc, &ec, &stats, opts),
                Err(EstimateError::InvalidSamples(SampleIssue::ZeroResolution)),
                "{m}"
            );
        }
    }

    #[test]
    fn ladder_skips_moments_when_bulk_is_off_model() {
        // 20% of samples sit 3 cycles off every possible path duration —
        // inside the trimming fences (they are not outliers, the channel
        // shifted them), so trimmed EM still can't explain them. Moments of
        // such a stream measure the corruption, not the program: the ladder
        // must fall through to the prior rather than answer confidently.
        let (cfg, bc, ec, samples) = diamond_samples(1.0, 80);
        let mut ticks = samples.ticks().to_vec();
        ticks.extend(vec![118u64; 20]);
        let shifted = TimingSamples::new(ticks, 1);
        let r = estimate_robust(&cfg, &bc, &ec, &shifted, RobustOptions::default());
        assert_eq!(r.rung, Rung::Prior, "attempts: {:?}", r.attempts);
        assert_eq!(r.confidence, 0.0);
        let moments = r
            .attempts
            .iter()
            .find(|a| a.rung == Rung::Moments)
            .expect("moments rung recorded");
        assert!(!moments.accepted);
        assert!(moments.detail.contains("skipped"), "{}", moments.detail);
        // The poisoned-moments rule covers the GNT rung too: the transform
        // of off-model data measures the corruption, not the program.
        let gnt = r
            .attempts
            .iter()
            .find(|a| a.rung == Rung::Gnt)
            .expect("gnt rung recorded");
        assert!(!gnt.accepted);
        assert!(gnt.detail.contains("skipped"), "{}", gnt.detail);
        assert!(r.attempts.windows(2).all(|w| w[0].rung < w[1].rung));
    }

    /// Loop samples under a strangled DP budget: both EM rungs fail with
    /// support explosion (a mechanical rejection, not inconsistency), so the
    /// descent reaches GNT, which needs no dynamic program and recovers the
    /// loop parameter from the transform.
    fn explosive_loop_case() -> (ct_cfg::graph::Cfg, Vec<u64>, Vec<u64>, TimingSamples) {
        let cfg = while_loop();
        let bc = vec![2u64, 3, 10, 1];
        let ec = vec![0u64; cfg.edges().len()];
        let mut ticks = Vec::new();
        for k in 0..60u64 {
            let copies = (2000.0 * 0.9f64.powi(k as i32) * 0.1) as usize;
            ticks.extend(vec![6 + 13 * k; copies]);
        }
        (cfg, bc, ec, TimingSamples::new(ticks, 1))
    }

    fn strangled_options() -> RobustOptions {
        let mut opts = RobustOptions::default();
        opts.base.em.fb = FbParams {
            mass_eps: 1e-12,
            max_entries: 3,
        };
        opts
    }

    #[test]
    fn ladder_reaches_gnt_when_em_explodes() {
        let (cfg, bc, ec, samples) = explosive_loop_case();
        let r = estimate_robust(&cfg, &bc, &ec, &samples, strangled_options());
        assert_eq!(r.rung, Rung::Gnt, "attempts: {:?}", r.attempts);
        assert_eq!(r.estimate.method, Method::Gnt);
        let est = r
            .estimate
            .probs
            .prob_true(ct_cfg::graph::BlockId(1))
            .unwrap();
        assert!((est - 0.9).abs() < 0.05, "estimated {est}");
        // Between the trimmed-EM (0.7) and moments (0.4) confidence scales.
        assert!(r.confidence > 0.0 && r.confidence < 0.7, "{}", r.confidence);
        let rungs: Vec<Rung> = r.attempts.iter().map(|a| a.rung).collect();
        assert_eq!(rungs, vec![Rung::FullEm, Rung::TrimmedEm, Rung::Gnt]);
        assert!(r.attempts[2].accepted);
    }

    #[test]
    fn disabling_gnt_restores_the_four_rung_descent() {
        let (cfg, bc, ec, samples) = explosive_loop_case();
        let mut opts = strangled_options();
        opts.use_gnt = false;
        let r = estimate_robust(&cfg, &bc, &ec, &samples, opts);
        // Same scenario now answers at moments, and the policy skip is on
        // the record in descent position.
        assert_eq!(r.rung, Rung::Moments, "attempts: {:?}", r.attempts);
        let gnt = r
            .attempts
            .iter()
            .find(|a| a.rung == Rung::Gnt)
            .expect("policy-skipped gnt rung recorded");
        assert!(!gnt.accepted);
        assert!(gnt.detail.contains("policy"), "{}", gnt.detail);
        assert!(r.attempts.windows(2).all(|w| w[0].rung < w[1].rung));
    }

    #[test]
    fn rung_display_and_order() {
        assert_eq!(Rung::FullEm.to_string(), "full-em");
        assert_eq!(Rung::Gnt.to_string(), "gnt");
        assert_eq!(Rung::Prior.to_string(), "prior");
        assert!(Rung::FullEm < Rung::TrimmedEm);
        assert!(Rung::TrimmedEm < Rung::Gnt);
        assert!(Rung::Gnt < Rung::Moments);
        assert!(Rung::Moments < Rung::Prior);
    }

    #[test]
    fn error_display() {
        let e = EstimateError::Moments(MomentsError::NoSamples);
        assert!(e.to_string().contains("moments"));
    }
}
