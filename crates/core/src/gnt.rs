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

use crate::chain::{coordinate_descent, golden_section, ChainPlan, Target, MIN_PROB};
use crate::samples::DurationSamples;
use ct_cfg::graph::Cfg;
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
        /// The acceptance budget, [`MAX_CONDITIONING`].
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
    let plan = ChainPlan::new(cfg, block_costs, edge_costs).map_err(GntError::Shape)?;
    let theta = plan.thetas(probs);
    CfModel::new(plan, vec![omega])?.cf(0, &theta)
}

/// A complex number as `(re, im)`.
type Complex = (f64, f64);

fn cmul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// The entry's transform along one parameter at one frequency, in closed
/// form: `φ(θ₀ + h) = base + h·slope / (1 − h·lambda)`.
///
/// Moving branch parameter `k` by `h` moves only its block's row `r` of the
/// system: `C(h) = C₀ − h·e_r·dᵀ` and `b(h) = b₀ + h·δ·e_r`, where `d`
/// holds the arms' phasors into transient blocks (true minus false) and `δ`
/// their phasors into the exit. Sherman–Morrison then gives
/// `φ(h) = z₀ + h·u·κ / (1 − h·λ)` with `z₀ = C₀⁻¹b₀`, `u = C₀⁻¹e_r`,
/// `λ = dᵀu` and `κ = δ + dᵀz₀`; `base` and `slope` are the entry's
/// components of `z₀` and `u·κ`.
#[derive(Debug, Clone, Copy)]
struct Line {
    base: Complex,
    slope: Complex,
    lambda: Complex,
}

impl Line {
    /// The entry's transform `h` away from the base point, `None` where the
    /// updated system is singular (`|1 − h·λ| < 1e-12`).
    fn at(&self, h: f64) -> Option<Complex> {
        let den = (1.0 - h * self.lambda.0, -h * self.lambda.1);
        let norm2 = den.0 * den.0 + den.1 * den.1;
        if norm2 < 1e-24 {
            return None;
        }
        let num = (h * self.slope.0, h * self.slope.1);
        Some((
            self.base.0 + (num.0 * den.0 + num.1 * den.1) / norm2,
            self.base.1 + (num.1 * den.0 - num.0 * den.1) / norm2,
        ))
    }
}

/// The characteristic-function model of one CFG under fixed costs on a
/// fixed frequency grid: the chain plan, every out-edge's phasor at every
/// frequency, and the buffers of the complex system `(I − M(ω))φ = b(ω)`,
/// reused by every solve.
struct CfModel {
    plan: ChainPlan,
    omegas: Vec<f64>,
    /// `(cos, sin)` of each out-edge's duration at each frequency, edge
    /// index fastest: the step for an edge into a transient block, the step
    /// plus the return block's cost for an edge into the exit.
    phasors: Vec<Complex>,
    /// The doubled real system `[[I−Re M, Im M], [−Im M, I−Re M]]`.
    a: Matrix,
    lu: Lu,
    rhs: Vec<f64>,
    /// `[Re z; Im z]`, the solution at the last factored point.
    z: Vec<f64>,
    unit: Vec<f64>,
    u: Vec<f64>,
}

impl CfModel {
    fn new(plan: ChainPlan, omegas: Vec<f64>) -> Result<CfModel, GntError> {
        let phasors = omegas
            .iter()
            .flat_map(|&w| {
                plan.edges.iter().map(move |e| {
                    let d = match e.target {
                        Target::Row(_) => e.step,
                        Target::Exit(c) => e.step + c,
                    };
                    ((w * d).cos(), (w * d).sin())
                })
            })
            .collect();
        let n = 2 * plan.rows;
        // Any factorization serves as the buffer the first refactor reuses.
        let a = Matrix::identity(n.max(1));
        let lu = Lu::factor(&a).map_err(|_| GntError::Divergent)?;
        Ok(CfModel {
            plan,
            omegas,
            phasors,
            a,
            lu,
            rhs: vec![0.0; n],
            z: vec![0.0; n],
            unit: vec![0.0; n],
            u: vec![0.0; n],
        })
    }

    /// Assembles and factors the system at frequency `j` under `theta` and
    /// solves it into `z`.
    fn factor_at(&mut self, j: usize, theta: &[f64]) -> Result<(), GntError> {
        let t = self.plan.rows;
        let phasors = &self.phasors[j * self.plan.edges.len()..];
        for i in 0..2 * t {
            let row = self.a.row_mut(i);
            row.fill(0.0);
            row[i] = 1.0;
        }
        self.rhs.fill(0.0);
        for (e, &(cos, sin)) in self.plan.edges.iter().zip(phasors) {
            let p = e.prob(theta);
            if p <= 0.0 {
                continue;
            }
            let ti = e.row;
            match e.target {
                Target::Row(tj) => {
                    let (re, im) = (p * cos, p * sin);
                    self.a[(ti, tj)] -= re;
                    self.a[(ti, t + tj)] += im;
                    self.a[(t + ti, tj)] -= im;
                    self.a[(t + ti, t + tj)] -= re;
                }
                Target::Exit(_) => {
                    self.rhs[ti] += p * cos;
                    self.rhs[t + ti] += p * sin;
                }
            }
        }
        self.lu.refactor(&self.a).map_err(|_| GntError::Divergent)?;
        self.lu
            .solve_into(&self.rhs, &mut self.z)
            .map_err(|_| GntError::Divergent)
    }

    /// The entry's transform at frequency `j` under `theta`.
    fn cf(&mut self, j: usize, theta: &[f64]) -> Result<Complex, GntError> {
        let t = self.plan.rows;
        if t == 0 {
            let arg = self.omegas[j] * self.plan.entry_cost;
            return Ok((arg.cos(), arg.sin()));
        }
        self.factor_at(j, theta)?;
        let ep = self.plan.entry.ok_or(GntError::Divergent)?;
        Ok((self.z[ep], self.z[t + ep]))
    }

    /// The closed-form line of branch parameter `k` at frequency `j` around
    /// `theta`: one factorization and two solves.
    fn line(&mut self, k: usize, j: usize, theta: &[f64]) -> Result<Line, GntError> {
        self.factor_at(j, theta)?;
        let t = self.plan.rows;
        let ep = self.plan.entry.ok_or(GntError::Divergent)?;
        let first = self.plan.branch_edges[k];
        let r = self.plan.edges[first].row;
        self.unit[r] = 1.0;
        let solved = self.lu.solve_into(&self.unit, &mut self.u);
        self.unit[r] = 0.0;
        solved.map_err(|_| GntError::Divergent)?;

        let phasors = &self.phasors[j * self.plan.edges.len()..];
        let (mut lambda, mut kappa) = ((0.0, 0.0), (0.0, 0.0));
        for (i, sign) in [(first, 1.0), (first + 1, -1.0)] {
            let g = (sign * phasors[i].0, sign * phasors[i].1);
            match self.plan.edges[i].target {
                Target::Row(tj) => {
                    let du = cmul(g, (self.u[tj], self.u[t + tj]));
                    let dz = cmul(g, (self.z[tj], self.z[t + tj]));
                    lambda = (lambda.0 + du.0, lambda.1 + du.1);
                    kappa = (kappa.0 + dz.0, kappa.1 + dz.1);
                }
                Target::Exit(_) => kappa = (kappa.0 + g.0, kappa.1 + g.1),
            }
        }
        Ok(Line {
            base: (self.z[ep], self.z[t + ep]),
            slope: cmul((self.u[ep], self.u[t + ep]), kappa),
            lambda,
        })
    }

    /// Every frequency's line of parameter `k` around `theta` into `out`;
    /// `false` when the system is singular at `theta` for some frequency.
    fn lines(&mut self, k: usize, theta: &[f64], out: &mut Vec<Line>) -> bool {
        out.clear();
        for j in 0..self.omegas.len() {
            match self.line(k, j, theta) {
                Ok(line) => out.push(line),
                Err(_) => return false,
            }
        }
        true
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

/// Number of frequencies on the grid `ω_j = j·ω_max/J`, `j = 1..=J`.
const FREQUENCIES: usize = 8;
/// Top of the frequency grid as a multiple of `1/σ` (sample standard
/// deviation in cycles): frequencies beyond a few `1/σ` probe structure
/// finer than the data resolves.
const FREQ_SCALE: f64 = 2.0;
/// Largest accepted curvature ratio before the inversion is declared
/// ill-conditioned (see [`GntError::IllConditioned`]).
pub const MAX_CONDITIONING: f64 = 1e6;
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
) -> Result<GntResult, GntError> {
    let stats = samples.suff_stats();
    if stats.is_empty() {
        return Err(GntError::NoSamples);
    }
    if stats.saturated() {
        return Err(GntError::SaturatedMoments);
    }
    let plan = ChainPlan::new(cfg, block_costs, edge_costs).map_err(GntError::Shape)?;
    let cpt = stats.cycles_per_tick() as f64;
    let n = stats.len() as f64;

    // Frequency grid scaled to the sample spread: the transform carries its
    // shape information over |ω| ≲ 1/σ and pure oscillation beyond.
    let sigma = stats.variance_cycles().max(1.0).sqrt();
    let omegas: Vec<f64> = (1..=FREQUENCIES)
        .map(|j| FREQ_SCALE * j as f64 / (FREQUENCIES as f64 * sigma))
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
            for (tick, count) in stats.histogram() {
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

    let mismatch = |j: usize, (mr, mi): Complex| -> f64 {
        let ((er, ei), q) = (empirical[j], quant[j]);
        let (dr, di) = (mr * q - er, mi * q - ei);
        dr * dr + di * di
    };
    let mut model = CfModel::new(plan, omegas)?;
    // The objective `h` along one parameter from where its lines were
    // drawn, with no solve at all. `None` lines (singular at the base
    // point) score infinity everywhere.
    let along = |lines: Option<&[Line]>, h: f64| -> f64 {
        let Some(lines) = lines else {
            return f64::INFINITY;
        };
        let mut acc = 0.0;
        for (j, line) in lines.iter().enumerate() {
            match line.at(h) {
                Some(m) => acc += mismatch(j, m),
                None => return f64::INFINITY,
            }
        }
        acc / FREQUENCIES as f64
    };

    let mut theta = BranchProbs::uniform(cfg, 0.5).as_slice().to_vec();
    // The starting objective, by one solve per frequency.
    let start = (0..FREQUENCIES)
        .try_fold(0.0, |acc, j| {
            Ok::<_, GntError>(acc + mismatch(j, model.cf(j, &theta)?))
        })
        .map_or(f64::INFINITY, |acc| acc / FREQUENCIES as f64);
    let mut lines = Vec::with_capacity(FREQUENCIES);
    let (best, sweeps_done) = coordinate_descent(&mut theta, start, |k, theta| {
        let base = theta[k];
        let drawn = model.lines(k, theta, &mut lines).then_some(&lines[..]);
        golden_section(|x| along(drawn, x - base))
    });

    // Conditioning: per-coordinate second-difference curvature at the
    // optimum. A flat (or concave) direction means the transform does not
    // pin that parameter down — refuse rather than return one point of a
    // ridge.
    let conditioning = if theta.is_empty() {
        1.0
    } else {
        let delta = 0.02;
        let (mut min_c, mut max_c) = (f64::INFINITY, f64::NEG_INFINITY);
        for k in 0..theta.len() {
            let base = theta[k];
            let center = base.clamp(MIN_PROB + delta, 1.0 - MIN_PROB - delta);
            let drawn = model.lines(k, &theta, &mut lines).then_some(&lines[..]);
            let at = |x: f64| along(drawn, x - base);
            let (f_lo, f_mid, f_hi) = (at(center - delta), at(center), at(center + delta));
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
    if !conditioning.is_finite() || conditioning > MAX_CONDITIONING {
        ct_obs::emit(
            "gnt.fit",
            vec![
                ("verdict", "ill_conditioned".into()),
                ("frequencies", FREQUENCIES.into()),
                ("objective", best.into()),
                ("conditioning", conditioning.into()),
                ("sweeps", sweeps_done.into()),
            ],
        );
        return Err(GntError::IllConditioned {
            conditioning,
            budget: MAX_CONDITIONING,
        });
    }

    // Confidence: fit term from the residual RMS transform mismatch (bounded
    // by 2, near 0 for a good fit), conditioning term from how far the
    // curvature ratio sits below the refusal budget (log scale).
    let fit_term = (1.0 - best.max(0.0).sqrt() / RMS_SCALE).clamp(0.0, 1.0);
    let cond_term = (1.0 - conditioning.max(1.0).ln() / MAX_CONDITIONING.ln()).clamp(0.0, 1.0);
    let confidence = fit_term * cond_term;

    ct_obs::emit(
        "gnt.fit",
        vec![
            ("verdict", "ok".into()),
            ("frequencies", FREQUENCIES.into()),
            ("objective", best.into()),
            ("conditioning", conditioning.into()),
            ("confidence", confidence.into()),
            ("sweeps", sweeps_done.into()),
        ],
    );

    Ok(GntResult {
        probs: BranchProbs::from_vec(cfg, theta),
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
        let r = estimate_gnt(&cfg, &bc, &ec, &samples).unwrap();
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
        let r = estimate_gnt(&cfg, &bc, &ec, &samples).unwrap();
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
        let r = estimate_gnt(&cfg, &bc, &ec, &samples).unwrap();
        let est = r.probs.as_slice()[0];
        assert!((est - 0.7).abs() < 0.05, "estimated {est}");
    }

    #[test]
    fn no_samples_is_an_error() {
        let cfg = diamond();
        let samples = TimingSamples::new(vec![], 1);
        assert_eq!(
            estimate_gnt(&cfg, &[1; 4], &[0; 4], &samples),
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
            estimate_gnt(&cfg, &[10, 100, 200, 5], &[0; 4], &stats),
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
        match estimate_gnt(&cfg, &bc, &ec, &samples) {
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
    fn estimate_refuses_mismatched_costs_with_a_shape_error() {
        // Two block costs for the four-block diamond: a typed refusal, not
        // a fit whose every probe scored infinity.
        let cfg = diamond();
        let samples = TimingSamples::new(vec![115u64; 50], 1);
        assert_eq!(
            estimate_gnt(&cfg, &[10, 100], &[0; 4], &samples),
            Err(GntError::Shape("block cost length".into()))
        );
    }

    #[test]
    fn closed_form_line_matches_a_fresh_solve() {
        // Along every parameter of the loop CFG, the rank-one line's value
        // at a probe equals the transform solved from scratch there.
        let cfg = ct_cfg::builder::nested_loops();
        let bc: Vec<u64> = (0..cfg.len() as u64).map(|b| 3 + 7 * b).collect();
        let ec: Vec<u64> = (0..cfg.edges().len() as u64).map(|e| e % 3).collect();
        let plan = ChainPlan::new(&cfg, &bc, &ec).unwrap();
        let base: Vec<f64> = (0..cfg.branch_blocks().len())
            .map(|k| 0.3 + 0.2 * k as f64)
            .collect();
        let mut model = CfModel::new(plan, vec![0.004, 0.03]).unwrap();
        let mut lines = Vec::new();
        for k in 0..base.len() {
            assert!(model.lines(k, &base, &mut lines));
            for x in [0.05, base[k], 0.9] {
                let mut probe = base.clone();
                probe[k] = x;
                for (j, line) in lines.iter().enumerate() {
                    let (re, im) = line.at(x - base[k]).unwrap();
                    let (want_re, want_im) = model.cf(j, &probe).unwrap();
                    assert!((re - want_re).abs() < 1e-12, "k {k} x {x} j {j}");
                    assert!((im - want_im).abs() < 1e-12, "k {k} x {x} j {j}");
                }
            }
        }
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
