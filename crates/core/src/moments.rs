//! Method-of-moments estimation: match the model's duration mean/variance to
//! the sample moments.
//!
//! This is the fallback estimator for procedures whose time-expanded support
//! is too large for exact forward–backward (deeply nested or long loops). It
//! uses only two statistics of the sample, so it is cheaper but weaker than
//! EM — experiment E7 quantifies exactly how much weaker.

use crate::chain::{coordinate_descent, golden_section, ChainPlan, Target};
use crate::samples::DurationSamples;
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use ct_stats::matrix::Matrix;
use ct_stats::solve::Lu;
use std::error::Error;
use std::fmt;

/// Failure of the moments estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum MomentsError {
    /// The chain does not reach its exit under some probed parameters.
    Divergent,
    /// Input shapes are inconsistent.
    Shape(String),
    /// No samples were provided.
    NoSamples,
    /// The sample statistics report a saturated second-moment accumulator:
    /// the variance is a lower bound, so matching model moments against it
    /// would bias the fit. Degrade instead.
    SaturatedMoments,
}

impl fmt::Display for MomentsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MomentsError::Divergent => write!(f, "model diverges (exit unreachable)"),
            MomentsError::Shape(m) => write!(f, "shape error: {m}"),
            MomentsError::NoSamples => write!(f, "no timing samples provided"),
            MomentsError::SaturatedMoments => write!(
                f,
                "sample square-sum saturated; variance untrustworthy for moment matching"
            ),
        }
    }
}

impl Error for MomentsError {}

/// Model mean and variance of the end-to-end duration under `probs`, with
/// per-block and per-edge cycle costs.
///
/// # Errors
///
/// [`MomentsError::Divergent`] when the exit is unreachable (singular
/// system), [`MomentsError::Shape`] on mismatched inputs.
pub fn model_moments(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
) -> Result<(f64, f64), MomentsError> {
    let mut model = MomentsModel::new(cfg, block_costs, edge_costs)?;
    let theta = model.plan.thetas(probs);
    model.eval(&theta)
}

/// The duration moments of one CFG under fixed costs: the chain plan plus
/// the `(I − Q)` system's buffers, reused by every evaluation.
struct MomentsModel {
    plan: ChainPlan,
    a: Matrix,
    lu: Lu,
    b1: Vec<f64>,
    b2: Vec<f64>,
    m1: Vec<f64>,
    m2: Vec<f64>,
}

impl MomentsModel {
    fn new(cfg: &Cfg, block_costs: &[u64], edge_costs: &[u64]) -> Result<Self, MomentsError> {
        let plan = ChainPlan::new(cfg, block_costs, edge_costs).map_err(MomentsError::Shape)?;
        let t = plan.rows;
        // Any factorization serves as the buffer the first refactor reuses.
        let a = Matrix::identity(t.max(1));
        let lu = Lu::factor(&a).map_err(|_| MomentsError::Divergent)?;
        Ok(MomentsModel {
            plan,
            a,
            lu,
            b1: vec![0.0; t],
            b2: vec![0.0; t],
            m1: vec![0.0; t],
            m2: vec![0.0; t],
        })
    }

    /// Mean and variance under the branch parameters `theta`.
    fn eval(&mut self, theta: &[f64]) -> Result<(f64, f64), MomentsError> {
        let t = self.plan.rows;
        if t == 0 {
            return Ok((self.plan.entry_cost, 0.0));
        }

        // First moment: E[T_b] = Σ_e p_e (c_b + c_e + E[T_v]).
        for i in 0..t {
            let row = self.a.row_mut(i);
            row.fill(0.0);
            row[i] = 1.0;
        }
        self.b1.fill(0.0);
        for e in &self.plan.edges {
            let p = e.prob(theta);
            if p <= 0.0 {
                continue;
            }
            self.b1[e.row] += p * e.step;
            match e.target {
                Target::Row(tj) => self.a[(e.row, tj)] -= p,
                Target::Exit(c) => self.b1[e.row] += p * c,
            }
        }
        self.lu
            .refactor(&self.a)
            .map_err(|_| MomentsError::Divergent)?;
        self.lu
            .solve_into(&self.b1, &mut self.m1)
            .map_err(|_| MomentsError::Divergent)?;

        // Second moment: E[T_b²] = Σ_e p_e [(s)² + 2 s E[T_v] + E[T_v²]],
        // s = c_b + c_e; for return targets E[T_v] = c_v, E[T_v²] = c_v².
        self.b2.fill(0.0);
        for e in &self.plan.edges {
            let p = e.prob(theta);
            if p <= 0.0 {
                continue;
            }
            let s = e.step;
            let (ev, known_second) = match e.target {
                Target::Row(tj) => (self.m1[tj], 0.0),
                Target::Exit(c) => (c, c * c),
            };
            self.b2[e.row] += p * (s * s + 2.0 * s * ev + known_second);
        }
        // Same coefficient matrix (I − Q) as the first moment: the linear part of
        // E[T_v²] for transient targets has coefficient p_e.
        self.lu
            .solve_into(&self.b2, &mut self.m2)
            .map_err(|_| MomentsError::Divergent)?;

        let entry = self.plan.entry.ok_or(MomentsError::Divergent)?;
        let mean = self.m1[entry];
        let variance = (self.m2[entry] - mean * mean).max(0.0);
        Ok((mean, variance))
    }
}

/// Weight of the variance term relative to the mean term.
const VARIANCE_WEIGHT: f64 = 0.5;

/// The outcome of a moments fit.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentsResult {
    /// Estimated branch probabilities.
    pub probs: BranchProbs,
    /// Final objective value (normalized squared moment mismatch).
    pub objective: f64,
    /// Coordinate sweeps executed.
    pub sweeps: usize,
}

/// Fits branch probabilities by matching model mean and variance to the
/// sample moments (quantization-corrected), via coordinate descent with
/// golden-section line search.
///
/// # Errors
///
/// [`MomentsError::NoSamples`] for empty input,
/// [`MomentsError::SaturatedMoments`] when the sample statistics lost
/// second-moment information, [`MomentsError::Shape`] when the cost vectors
/// do not match the CFG.
pub fn estimate_moments<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
) -> Result<MomentsResult, MomentsError> {
    let stats = samples.suff_stats();
    if stats.is_empty() {
        return Err(MomentsError::NoSamples);
    }
    if stats.saturated() {
        return Err(MomentsError::SaturatedMoments);
    }
    let cpt = stats.cycles_per_tick() as f64;
    let sample_mean = stats.mean_cycles();
    // Quantization adds ≈ cpt²/6 variance (uniform phase); subtract it.
    let sample_var = (stats.variance_cycles() - cpt * cpt / 6.0).max(0.0);

    let mean_scale = sample_mean.abs().max(1.0);
    let var_scale = sample_var.abs().max(1.0);

    let mut model = MomentsModel::new(cfg, block_costs, edge_costs)?;
    let mut objective = |theta: &[f64]| -> f64 {
        match model.eval(theta) {
            Ok((m, v)) => {
                let dm = (m - sample_mean) / mean_scale;
                let dv = (v - sample_var) / var_scale;
                dm * dm + VARIANCE_WEIGHT * dv * dv
            }
            Err(_) => f64::INFINITY,
        }
    };

    let mut theta = BranchProbs::uniform(cfg, 0.5).as_slice().to_vec();
    let start = objective(&theta);
    let (best, sweeps) = coordinate_descent(&mut theta, start, |k, theta| {
        golden_section(|x| {
            theta[k] = x;
            objective(theta)
        })
    });

    Ok(MomentsResult {
        probs: BranchProbs::from_vec(cfg, theta),
        objective: best,
        sweeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::TimingSamples;
    use ct_cfg::builder::{diamond, while_loop};
    use ct_cfg::graph::BlockId;

    #[test]
    fn model_moments_match_markov_for_state_rewards() {
        // Edge costs zero → must agree with ct-markov's reward moments.
        let cfg = while_loop();
        let bc = vec![2u64, 3, 10, 1];
        let ec = vec![0u64; cfg.edges().len()];
        let probs = BranchProbs::from_vec(&cfg, vec![0.6]);
        let (m, v) = model_moments(&cfg, &bc, &ec, &probs).unwrap();
        let chain = ct_markov::chain_from_cfg(&cfg, &probs).unwrap();
        let rewards: Vec<f64> = bc.iter().map(|&c| c as f64).collect();
        let dm = ct_markov::duration_moments(&chain, &rewards, 0).unwrap();
        assert!((m - dm.mean).abs() < 1e-9, "{m} vs {}", dm.mean);
        assert!((v - dm.variance).abs() < 1e-6, "{v} vs {}", dm.variance);
    }

    #[test]
    fn model_moments_include_edge_costs() {
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let zero = vec![0u64; 4];
        let ec = vec![7u64, 3, 2, 4];
        let probs = BranchProbs::from_vec(&cfg, vec![0.5]);
        let (m0, _) = model_moments(&cfg, &bc, &zero, &probs).unwrap();
        let (m1, _) = model_moments(&cfg, &bc, &ec, &probs).unwrap();
        // Expected extra: 0.5(7+2) + 0.5(3+4) = 8.
        assert!((m1 - m0 - 8.0).abs() < 1e-9, "{m0} {m1}");
    }

    #[test]
    fn diamond_variance_is_bernoulli_spread() {
        let cfg = diamond();
        let bc = vec![0u64, 100, 200, 0];
        let ec = vec![0u64; 4];
        let probs = BranchProbs::from_vec(&cfg, vec![0.5]);
        let (m, v) = model_moments(&cfg, &bc, &ec, &probs).unwrap();
        assert!((m - 150.0).abs() < 1e-9);
        assert!((v - 2500.0).abs() < 1e-6);
    }

    #[test]
    fn estimate_recovers_diamond_probability() {
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        // True p = 0.75: durations 115 (p) / 215 (1-p). Synthesize exact
        // moment-consistent samples.
        let mut ticks = vec![115u64; 750];
        ticks.extend(vec![215u64; 250]);
        let samples = TimingSamples::new(ticks, 1);
        let r = estimate_moments(&cfg, &bc, &ec, &samples).unwrap();
        let est = r.probs.as_slice()[0];
        assert!((est - 0.75).abs() < 0.02, "estimated {est}");
    }

    #[test]
    fn estimate_recovers_loop_parameter() {
        let cfg = while_loop();
        let bc = vec![2u64, 3, 10, 1];
        let ec = vec![0u64; cfg.edges().len()];
        // q = 0.5: durations 6 + 13k w.p. 0.5^{k+1}. Build a sample matching
        // the distribution closely: 4096 >> (k+1) copies per bucket is exact
        // (no truncating float cast), and the geometric tail beyond k = 11 —
        // exactly one run's worth of mass — goes into an explicit k = 12
        // record so the fixture holds precisely 4096 runs.
        let mut ticks = Vec::new();
        for k in 0..12u32 {
            let copies = 4096usize >> (k + 1);
            ticks.extend(vec![6 + 13 * u64::from(k); copies]);
        }
        ticks.push(6 + 13 * 12);
        assert_eq!(ticks.len(), 4096, "fixture must carry the full mass");
        let samples = TimingSamples::new(ticks, 1);
        let r = estimate_moments(&cfg, &bc, &ec, &samples).unwrap();
        let est = r.probs.prob_true(BlockId(1)).unwrap();
        assert!((est - 0.5).abs() < 0.04, "estimated {est}");
    }

    #[test]
    fn no_samples_is_an_error() {
        let cfg = diamond();
        let bc = vec![1u64; 4];
        let ec = vec![0u64; 4];
        let samples = TimingSamples::new(vec![], 1);
        assert_eq!(
            estimate_moments(&cfg, &bc, &ec, &samples),
            Err(MomentsError::NoSamples)
        );
    }

    #[test]
    fn saturated_stats_are_refused() {
        // A square-sum that clamped at u128::MAX floors the variance; the
        // moments estimator must degrade rather than fit against it.
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        let mut stats = crate::stream::SuffStats::new(1);
        stats.push(u64::MAX - 1);
        stats.push(u64::MAX - 1);
        assert!(stats.saturated());
        assert_eq!(
            estimate_moments(&cfg, &bc, &ec, &stats),
            Err(MomentsError::SaturatedMoments)
        );
    }

    #[test]
    fn shape_mismatch_detected() {
        let cfg = diamond();
        let probs = BranchProbs::uniform(&cfg, 0.5);
        assert!(matches!(
            model_moments(&cfg, &[1, 2], &[0; 4], &probs),
            Err(MomentsError::Shape(_))
        ));
    }

    #[test]
    fn estimate_refuses_mismatched_costs_with_a_shape_error() {
        // Two block costs for the four-block diamond: a typed refusal, not
        // an `Ok` fit whose every probe scored infinity.
        let cfg = diamond();
        let samples = TimingSamples::new(vec![115u64; 50], 1);
        assert_eq!(
            estimate_moments(&cfg, &[10, 100], &[0; 4], &samples),
            Err(MomentsError::Shape("block cost length".into()))
        );
    }
}
