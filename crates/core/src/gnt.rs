//! Generalized network tomography: distribution-free estimation by matching
//! the model's duration *characteristic function* to the empirical one.
//!
//! The EM backend commits to the exact quantization likelihood and the
//! moments backend commits to two summary statistics; both are parametric
//! commitments that a corrupted measurement channel can exploit. Following
//! the GNT line of work (estimation from pure end-to-end path measurements
//! without distributional assumptions), this backend matches the transform
//! of the whole distribution instead: every sample contributes one unit
//! phasor `e^{iωd}`, so a corrupted record can move the empirical transform
//! by at most `1/n` in modulus — bounded influence where a squared outlier
//! moves a variance without limit.
//!
//! The model side is closed-form: conditioning on the first edge out of each
//! block gives a linear system over the per-block characteristic functions,
//! `φ_b(ω) = Σ_e p_e·e^{iω(c_b+c_e)}·φ_target(ω)`, i.e. `(I − M(ω))φ = b(ω)`
//! over the transient blocks — the complex sibling of the moments solver's
//! `(I − Q)` system, solved here as a doubled real system so the existing LU
//! factorization applies. `|M(ω)| ≤ Q` entrywise, so the system is
//! nonsingular whenever the chain is absorbing.

use crate::samples::DurationSamples;
use ct_cfg::graph::{Cfg, Terminator};
use ct_cfg::profile::BranchProbs;
use ct_stats::matrix::Matrix;
use ct_stats::solve::Lu;
use std::error::Error;
use std::fmt;

/// Failure of the GNT estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum GntError {
    /// The chain does not reach its exit under some probed parameters.
    Divergent,
    /// Input shapes are inconsistent.
    Shape(String),
    /// No samples were provided.
    NoSamples,
    /// The sample statistics report a saturated second-moment accumulator:
    /// the variance that sets the frequency grid is a lower bound, so the
    /// fit would probe the transform at the wrong scale. Degrade instead —
    /// same contract as [`crate::moments::MomentsError::SaturatedMoments`].
    SaturatedMoments,
    /// The inversion is too ill-conditioned to trust: the objective is flat
    /// (or non-convex) along some parameter direction at the optimum, so the
    /// returned point is one of many that explain the transform equally
    /// well.
    IllConditioned {
        /// Measured curvature ratio (largest over smallest per-coordinate
        /// curvature; `inf` encodes a flat or non-convex direction).
        conditioning: f64,
        /// The configured acceptance budget.
        budget: f64,
    },
}

impl fmt::Display for GntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GntError::Divergent => write!(f, "model diverges (exit unreachable)"),
            GntError::Shape(m) => write!(f, "shape error: {m}"),
            GntError::NoSamples => write!(f, "no timing samples provided"),
            GntError::SaturatedMoments => write!(
                f,
                "sample square-sum saturated; frequency scale untrustworthy for CF matching"
            ),
            GntError::IllConditioned {
                conditioning,
                budget,
            } => write!(
                f,
                "inversion ill-conditioned (curvature ratio {conditioning:.1e} > {budget:.0e})"
            ),
        }
    }
}

impl Error for GntError {}

/// Model characteristic function `E[e^{iωT}]` of the end-to-end duration at
/// frequency `omega` (radians per cycle), returned as `(re, im)`.
///
/// # Errors
///
/// [`GntError::Divergent`] when the exit is unreachable (singular system),
/// [`GntError::Shape`] on mismatched inputs.
pub fn model_cf(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    omega: f64,
) -> Result<(f64, f64), GntError> {
    let n = cfg.len();
    if block_costs.len() != n {
        return Err(GntError::Shape("block cost length".into()));
    }
    let edges = cfg.edges();
    if edge_costs.len() != edges.len() {
        return Err(GntError::Shape("edge cost length".into()));
    }
    let edge_probs = probs.edge_probs(cfg);

    // Unknowns: φ_b(ω) for non-return blocks ("transient"); a return block's
    // CF is the known phasor of its own cost.
    let transient: Vec<usize> = cfg
        .iter()
        .filter(|(_, b)| !matches!(b.term, Terminator::Return))
        .map(|(id, _)| id.index())
        .collect();
    if transient.is_empty() {
        let c = block_costs[cfg.entry().index()] as f64;
        return Ok(((omega * c).cos(), (omega * c).sin()));
    }
    let t = transient.len();
    let pos = |b: usize| transient.iter().position(|&x| x == b);

    // (I − M(ω))φ = b(ω) over ℂ, as the doubled real system
    // [[I−Re M,  Im M], [−Im M, I−Re M]]·[Re φ; Im φ] = [Re b; Im b].
    let mut a = Matrix::identity(2 * t);
    let mut rhs = vec![0.0; 2 * t];
    for (ti, &bi) in transient.iter().enumerate() {
        for e in edges.iter().filter(|e| e.from.index() == bi) {
            let p = edge_probs[e.index];
            if p <= 0.0 {
                continue;
            }
            let s = (block_costs[bi] + edge_costs[e.index]) as f64;
            match pos(e.to.index()) {
                Some(tj) => {
                    let (re, im) = (p * (omega * s).cos(), p * (omega * s).sin());
                    a[(ti, tj)] -= re;
                    a[(ti, t + tj)] += im;
                    a[(t + ti, tj)] -= im;
                    a[(t + ti, t + tj)] -= re;
                }
                None => {
                    let full = s + block_costs[e.to.index()] as f64;
                    rhs[ti] += p * (omega * full).cos();
                    rhs[t + ti] += p * (omega * full).sin();
                }
            }
        }
    }
    let lu = Lu::factor(&a).map_err(|_| GntError::Divergent)?;
    let x = lu.solve(&rhs).map_err(|_| GntError::Divergent)?;
    let ep = pos(cfg.entry().index()).ok_or(GntError::Divergent)?;
    Ok((x[ep], x[t + ep]))
}

/// Options for the GNT characteristic-function fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GntOptions {
    /// Number of frequencies on the grid `ω_j = j·ω_max/J`, `j = 1..=J`.
    pub frequencies: usize,
    /// Top of the frequency grid as a multiple of `1/σ` (sample standard
    /// deviation in cycles): frequencies beyond a few `1/σ` probe structure
    /// finer than the data resolves.
    pub freq_scale: f64,
    /// Coordinate-descent sweeps over the parameter vector.
    pub sweeps: usize,
    /// Golden-section iterations per coordinate.
    pub line_iters: usize,
    /// Probability clamp.
    pub min_prob: f64,
    /// Largest accepted curvature ratio before the inversion is declared
    /// ill-conditioned (see [`GntError::IllConditioned`]).
    pub max_conditioning: f64,
}

impl Default for GntOptions {
    fn default() -> Self {
        GntOptions {
            frequencies: 8,
            freq_scale: 2.0,
            sweeps: 12,
            line_iters: 24,
            min_prob: 1e-3,
            max_conditioning: 1e6,
        }
    }
}

/// The outcome of a GNT fit.
#[derive(Debug, Clone, PartialEq)]
pub struct GntResult {
    /// Estimated branch probabilities.
    pub probs: BranchProbs,
    /// Final objective value (mean squared CF mismatch over the grid).
    pub objective: f64,
    /// Coordinate sweeps executed.
    pub sweeps: usize,
    /// Curvature ratio of the objective at the optimum (1.0 = perfectly
    /// conditioned; larger = some direction is much flatter than another).
    pub conditioning: f64,
    /// Inversion confidence in `[0, 1]`, combining fit quality (residual
    /// transform mismatch) and conditioning. This is the backend's *own*
    /// scale; the degradation ladder rescales it per rung.
    pub confidence: f64,
}

/// Curvature below this is indistinguishable from flat: the coordinate does
/// not influence the transform at the probed frequencies.
const MIN_CURVATURE: f64 = 1e-7;
/// RMS transform mismatch at which fit confidence reaches zero.
const RMS_SCALE: f64 = 0.15;

/// Fits branch probabilities by matching the model characteristic function
/// (quantization-corrected) to the empirical one on a data-scaled frequency
/// grid, via coordinate descent with golden-section line search.
///
/// # Errors
///
/// [`GntError::NoSamples`] for empty input, [`GntError::SaturatedMoments`]
/// when the sample statistics lost second-moment information,
/// [`GntError::IllConditioned`] when the fitted point is not trustworthy;
/// propagates model errors.
pub fn estimate_gnt<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
    opts: GntOptions,
) -> Result<GntResult, GntError> {
    estimate_gnt_counted(
        cfg,
        block_costs,
        edge_costs,
        samples,
        &samples.counted(),
        opts,
    )
}

/// [`estimate_gnt`] with the empirical transform read from `counted`, the
/// samples' pre-built distinct-tick histogram (as
/// [`DurationSamples::counted`] returns it), so a caller that already
/// holds it does not re-sort the ticks.
pub(crate) fn estimate_gnt_counted<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
    counted: &[(u64, usize)],
    opts: GntOptions,
) -> Result<GntResult, GntError> {
    if samples.is_empty() {
        return Err(GntError::NoSamples);
    }
    if samples.moments_saturated() {
        return Err(GntError::SaturatedMoments);
    }
    let cpt = samples.cycles_per_tick() as f64;
    let n = samples.len() as f64;

    // Frequency grid scaled to the sample spread: the transform carries its
    // shape information over |ω| ≲ 1/σ and pure oscillation beyond.
    let sigma = samples.variance_cycles().max(1.0).sqrt();
    let j_max = opts.frequencies.max(1);
    let omegas: Vec<f64> = (1..=j_max)
        .map(|j| opts.freq_scale * j as f64 / (j_max as f64 * sigma))
        .collect();

    // Empirical CF of the *observed* cycles (ticks × resolution) and the
    // matching quantization factor for the model side: the observed duration
    // is the true one plus a zero-mean error `cpt·(B − U)` (uniform phase,
    // Bernoulli carry), whose CF is sinc²(ω·cpt/2) — the transform-domain
    // twin of the moments backend's `cpt²/6` variance correction. At
    // cycle-exact resolution there is no error at all.
    let empirical: Vec<(f64, f64)> = omegas
        .iter()
        .map(|&w| {
            let (mut re, mut im) = (0.0, 0.0);
            for &(tick, count) in counted {
                let arg = w * (tick as f64) * cpt;
                re += count as f64 * arg.cos();
                im += count as f64 * arg.sin();
            }
            (re / n, im / n)
        })
        .collect();
    let quant: Vec<f64> = omegas
        .iter()
        .map(|&w| {
            if cpt <= 1.0 {
                1.0
            } else {
                let h = w * cpt / 2.0;
                let s = h.sin() / h;
                s * s
            }
        })
        .collect();

    let objective = |probs: &BranchProbs| -> f64 {
        let mut acc = 0.0;
        for ((&w, &(er, ei)), &q) in omegas.iter().zip(&empirical).zip(&quant) {
            match model_cf(cfg, block_costs, edge_costs, probs, w) {
                Ok((mr, mi)) => {
                    let (dr, di) = (mr * q - er, mi * q - ei);
                    acc += dr * dr + di * di;
                }
                Err(_) => return f64::INFINITY,
            }
        }
        acc / omegas.len() as f64
    };

    let mut probs = BranchProbs::uniform(cfg, 0.5);
    let blocks: Vec<_> = probs.blocks().to_vec();
    let mut best = objective(&probs);
    let mut sweeps_done = 0;

    for _ in 0..opts.sweeps {
        sweeps_done += 1;
        let mut improved = false;
        for &bb in &blocks {
            // Golden-section search on θ_bb, mirroring the moments backend.
            let phi = 0.618_033_988_75;
            let mut lo = opts.min_prob;
            let mut hi = 1.0 - opts.min_prob;
            let eval = |theta: f64, probs: &mut BranchProbs| {
                probs.set_prob_true(bb, theta);
                objective(probs)
            };
            let mut x1 = hi - phi * (hi - lo);
            let mut x2 = lo + phi * (hi - lo);
            let mut f1 = eval(x1, &mut probs);
            let mut f2 = eval(x2, &mut probs);
            for _ in 0..opts.line_iters {
                if f1 <= f2 {
                    hi = x2;
                    x2 = x1;
                    f2 = f1;
                    x1 = hi - phi * (hi - lo);
                    f1 = eval(x1, &mut probs);
                } else {
                    lo = x1;
                    x1 = x2;
                    f1 = f2;
                    x2 = lo + phi * (hi - lo);
                    f2 = eval(x2, &mut probs);
                }
            }
            let (theta, f) = if f1 <= f2 { (x1, f1) } else { (x2, f2) };
            probs.set_prob_true(bb, theta);
            if f + 1e-12 < best {
                best = f;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    // Conditioning: per-coordinate second-difference curvature at the
    // optimum. A flat (or concave) direction means the transform does not
    // pin that parameter down — refuse rather than return one point of a
    // ridge.
    let conditioning = if blocks.is_empty() {
        1.0
    } else {
        let delta = 0.02;
        let (mut min_c, mut max_c) = (f64::INFINITY, f64::NEG_INFINITY);
        for &bb in &blocks {
            let theta = probs.prob_true(bb).unwrap_or(0.5);
            let center = theta.clamp(opts.min_prob + delta, 1.0 - opts.min_prob - delta);
            let at = |t: f64, probs: &mut BranchProbs| {
                probs.set_prob_true(bb, t);
                objective(probs)
            };
            let (f_lo, f_mid, f_hi) = (
                at(center - delta, &mut probs),
                at(center, &mut probs),
                at(center + delta, &mut probs),
            );
            probs.set_prob_true(bb, theta);
            let curv = (f_lo - 2.0 * f_mid + f_hi) / (delta * delta);
            min_c = min_c.min(curv);
            max_c = max_c.max(curv);
        }
        if min_c <= MIN_CURVATURE {
            f64::INFINITY
        } else {
            max_c / min_c
        }
    };
    // NaN-safe refusal: a non-finite ratio (degenerate curvature spectrum)
    // must land here, not slip past a plain `>` comparison.
    if !conditioning.is_finite() || conditioning > opts.max_conditioning {
        return Err(GntError::IllConditioned {
            conditioning,
            budget: opts.max_conditioning,
        });
    }

    // Confidence: fit term from the residual RMS transform mismatch (bounded
    // by 2, near 0 for a good fit), conditioning term from how far the
    // curvature ratio sits below the refusal budget (log scale).
    let fit_term = (1.0 - best.max(0.0).sqrt() / RMS_SCALE).clamp(0.0, 1.0);
    let cond_term = if opts.max_conditioning > 1.0 {
        (1.0 - conditioning.max(1.0).ln() / opts.max_conditioning.ln()).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let confidence = fit_term * cond_term;

    ct_obs::emit(
        "gnt.fit",
        vec![
            ("frequencies", omegas.len().into()),
            ("objective", best.into()),
            ("conditioning", conditioning.into()),
            ("confidence", confidence.into()),
            ("sweeps", sweeps_done.into()),
        ],
    );

    Ok(GntResult {
        probs,
        objective: best,
        sweeps: sweeps_done,
        conditioning,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::TimingSamples;
    use ct_cfg::builder::{diamond, while_loop};
    use ct_cfg::graph::BlockId;

    #[test]
    fn model_cf_matches_closed_form_on_the_diamond() {
        // Two-point mixture: φ(ω) = p·e^{iω·115} + (1−p)·e^{iω·215}.
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        let p = 0.3;
        let probs = BranchProbs::from_vec(&cfg, vec![p]);
        for &w in &[0.001, 0.01, 0.05] {
            let (re, im) = model_cf(&cfg, &bc, &ec, &probs, w).unwrap();
            let want_re = p * (w * 115.0).cos() + (1.0 - p) * (w * 215.0).cos();
            let want_im = p * (w * 115.0).sin() + (1.0 - p) * (w * 215.0).sin();
            assert!((re - want_re).abs() < 1e-12, "re {re} vs {want_re} at {w}");
            assert!((im - want_im).abs() < 1e-12, "im {im} vs {want_im} at {w}");
        }
    }

    #[test]
    fn model_cf_at_zero_is_one() {
        let cfg = while_loop();
        let bc = vec![2u64, 3, 10, 1];
        let ec = vec![0u64; cfg.edges().len()];
        let probs = BranchProbs::from_vec(&cfg, vec![0.6]);
        let (re, im) = model_cf(&cfg, &bc, &ec, &probs, 0.0).unwrap();
        assert!((re - 1.0).abs() < 1e-12);
        assert!(im.abs() < 1e-12);
    }

    #[test]
    fn model_cf_derivative_matches_model_mean() {
        // φ'(0) = i·E[T]: the imaginary part at small ω recovers the mean.
        let cfg = while_loop();
        let bc = vec![2u64, 3, 10, 1];
        let ec = vec![0u64; cfg.edges().len()];
        let probs = BranchProbs::from_vec(&cfg, vec![0.6]);
        let (mean, _) = crate::moments::model_moments(&cfg, &bc, &ec, &probs).unwrap();
        let w = 1e-6;
        let (_, im) = model_cf(&cfg, &bc, &ec, &probs, w).unwrap();
        assert!((im / w - mean).abs() < 1e-3, "{} vs {mean}", im / w);
    }

    #[test]
    fn estimate_recovers_diamond_probability() {
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        let mut ticks = vec![115u64; 750];
        ticks.extend(vec![215u64; 250]);
        let samples = TimingSamples::new(ticks, 1);
        let r = estimate_gnt(&cfg, &bc, &ec, &samples, GntOptions::default()).unwrap();
        let est = r.probs.as_slice()[0];
        assert!((est - 0.75).abs() < 0.02, "estimated {est}");
        assert!(r.confidence > 0.5, "confidence {}", r.confidence);
        assert!(r.conditioning >= 1.0);
    }

    #[test]
    fn estimate_recovers_loop_parameter() {
        let cfg = while_loop();
        let bc = vec![2u64, 3, 10, 1];
        let ec = vec![0u64; cfg.edges().len()];
        // q = 0.5: durations 6 + 13k w.p. 0.5^{k+1}, tail mass folded into
        // the last bucket so the fixture holds exactly 4096 runs.
        let mut ticks = Vec::new();
        for k in 0..12u32 {
            let copies = 4096usize >> (k + 1);
            ticks.extend(vec![6 + 13 * u64::from(k); copies]);
        }
        ticks.push(6 + 13 * 12);
        assert_eq!(ticks.len(), 4096);
        let samples = TimingSamples::new(ticks, 1);
        let r = estimate_gnt(&cfg, &bc, &ec, &samples, GntOptions::default()).unwrap();
        let est = r.probs.prob_true(BlockId(1)).unwrap();
        assert!((est - 0.5).abs() < 0.04, "estimated {est}");
    }

    #[test]
    fn coarse_timer_quantization_is_corrected() {
        // 8 cycles/tick: durations 115→14, 215→26 ticks (floor). The sinc²
        // factor keeps the fit centered despite the coarse grid.
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        let mut ticks = vec![115u64 / 8; 700];
        ticks.extend(vec![215u64 / 8; 300]);
        let samples = TimingSamples::new(ticks, 8);
        let r = estimate_gnt(&cfg, &bc, &ec, &samples, GntOptions::default()).unwrap();
        let est = r.probs.as_slice()[0];
        assert!((est - 0.7).abs() < 0.05, "estimated {est}");
    }

    #[test]
    fn no_samples_is_an_error() {
        let cfg = diamond();
        let samples = TimingSamples::new(vec![], 1);
        assert_eq!(
            estimate_gnt(&cfg, &[1; 4], &[0; 4], &samples, GntOptions::default()),
            Err(GntError::NoSamples)
        );
    }

    #[test]
    fn saturated_stats_are_refused() {
        // Same contract as the moments backend: a clamped square-sum floors
        // the variance that sets the frequency grid — degrade, don't fit.
        let cfg = diamond();
        let mut stats = crate::stream::SuffStats::new(1);
        stats.push(u64::MAX - 1);
        stats.push(u64::MAX - 1);
        assert!(stats.saturated());
        assert_eq!(
            estimate_gnt(
                &cfg,
                &[10, 100, 200, 5],
                &[0; 4],
                &stats,
                GntOptions::default()
            ),
            Err(GntError::SaturatedMoments)
        );
    }

    #[test]
    fn unidentifiable_arms_are_refused_as_ill_conditioned() {
        // Equal arm costs: every p explains the (single-point) transform
        // equally well. The conditioning probe must refuse rather than
        // return an arbitrary point of the ridge.
        let cfg = diamond();
        let bc = vec![10u64, 100, 100, 5];
        let ec = vec![0u64; 4];
        let samples = TimingSamples::new(vec![115u64; 200], 1);
        match estimate_gnt(&cfg, &bc, &ec, &samples, GntOptions::default()) {
            Err(GntError::IllConditioned { conditioning, .. }) => {
                assert!(conditioning.is_infinite() || conditioning > 1e6);
            }
            other => panic!("expected IllConditioned, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_detected() {
        let cfg = diamond();
        let probs = BranchProbs::uniform(&cfg, 0.5);
        assert!(matches!(
            model_cf(&cfg, &[1, 2], &[0; 4], &probs, 0.01),
            Err(GntError::Shape(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(GntError::SaturatedMoments.to_string().contains("saturated"));
        let e = GntError::IllConditioned {
            conditioning: 1e8,
            budget: 1e6,
        };
        assert!(e.to_string().contains("ill-conditioned"));
    }
}
