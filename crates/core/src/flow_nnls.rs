//! Flow-constrained nonnegative least squares — the "tomography" linear
//! inverse on mean timings.
//!
//! Unknowns are the expected per-invocation traversal counts of every CFG
//! edge. Two families of equations constrain them:
//!
//! - **flow conservation**: at every non-return block, outgoing traversals
//!   equal incoming traversals (plus 1 at the entry);
//! - **the mean timing equation**: the expected end-to-end duration is the
//!   entry block's cost plus, for every edge, its traversal count times
//!   (edge cost + destination block cost).
//!
//! The system is solved by NNLS (traversal counts cannot be negative). With
//! only the mean observed, multi-branch procedures are under-determined —
//! this estimator is the weakest of the three by construction, and
//! experiment E7 shows exactly where it breaks; it earns its keep on
//! single-decision procedures and as a sanity cross-check.

use crate::samples::DurationSamples;
use ct_cfg::graph::{Cfg, EdgeKind, Terminator};
use ct_cfg::profile::BranchProbs;
use ct_stats::matrix::Matrix;
use ct_stats::nnls::{nnls, NnlsOptions};
use std::error::Error;
use std::fmt;

/// Failure of the flow estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// No samples were provided.
    NoSamples,
    /// The NNLS solve failed.
    Numeric(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::NoSamples => write!(f, "no timing samples provided"),
            FlowError::Numeric(m) => write!(f, "numeric failure: {m}"),
        }
    }
}

impl Error for FlowError {}

/// The outcome of a flow fit.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// Estimated branch probabilities.
    pub probs: BranchProbs,
    /// Estimated per-invocation edge traversal counts.
    pub edge_traversals: Vec<f64>,
    /// NNLS residual norm.
    pub residual: f64,
}

/// Weight of the flow-conservation rows relative to the (normalized) timing
/// row. Flow must hold almost exactly; the timing row absorbs noise.
const FLOW_WEIGHT: f64 = 100.0;

/// Estimates branch probabilities from the sample mean via flow-constrained
/// NNLS.
///
/// # Errors
///
/// [`FlowError::NoSamples`] on empty input; [`FlowError::Numeric`] if NNLS
/// fails.
pub fn estimate_flow<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
) -> Result<FlowResult, FlowError> {
    let stats = samples.suff_stats();
    if stats.is_empty() {
        return Err(FlowError::NoSamples);
    }
    let edges = cfg.edges();
    let ne = edges.len();
    let mean_cycles = stats.mean_cycles();

    if ne == 0 {
        return Ok(FlowResult {
            probs: BranchProbs::uniform(cfg, 0.5),
            edge_traversals: vec![],
            residual: 0.0,
        });
    }

    // Rows: one per non-return block (flow), plus the timing row.
    let flow_blocks: Vec<_> = cfg
        .iter()
        .filter(|(_, b)| !matches!(b.term, Terminator::Return))
        .map(|(id, _)| id)
        .collect();
    let rows = flow_blocks.len() + 1;
    let mut a = Matrix::zeros(rows, ne);
    let mut b = vec![0.0; rows];

    for (ri, &blk) in flow_blocks.iter().enumerate() {
        for e in &edges {
            if e.from == blk {
                a[(ri, e.index)] += FLOW_WEIGHT;
            }
            if e.to == blk {
                a[(ri, e.index)] -= FLOW_WEIGHT;
            }
        }
        b[ri] = if blk == cfg.entry() { FLOW_WEIGHT } else { 0.0 };
    }

    // Timing row, normalized by the mean so its scale matches the flow rows.
    let scale = mean_cycles.abs().max(1.0);
    let ti = rows - 1;
    for e in &edges {
        a[(ti, e.index)] = (edge_costs[e.index] + block_costs[e.to.index()]) as f64 / scale;
    }
    b[ti] = (mean_cycles - block_costs[cfg.entry().index()] as f64) / scale;

    let sol =
        nnls(&a, &b, NnlsOptions::default()).map_err(|e| FlowError::Numeric(e.to_string()))?;

    // Branch probabilities from estimated traversals.
    let mut probs = BranchProbs::uniform(cfg, 0.5);
    for bb in cfg.branch_blocks() {
        let t = edges
            .iter()
            .find(|e| e.from == bb && e.kind == EdgeKind::BranchTrue)
            .map(|e| sol.x[e.index])
            .unwrap_or(0.0);
        let f = edges
            .iter()
            .find(|e| e.from == bb && e.kind == EdgeKind::BranchFalse)
            .map(|e| sol.x[e.index])
            .unwrap_or(0.0);
        if t + f > 1e-9 {
            probs.set_prob_true(bb, (t / (t + f)).clamp(0.0, 1.0));
        }
    }

    Ok(FlowResult {
        probs,
        edge_traversals: sol.x,
        residual: sol.residual_norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::TimingSamples;
    use ct_cfg::builder::{diamond, linear, while_loop};
    use ct_cfg::graph::BlockId;

    #[test]
    fn single_branch_is_identified_from_the_mean() {
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        // p = 0.75 → mean = 10 + 0.75·100 + 0.25·200 + 5 = 140.
        let samples = TimingSamples::new(vec![140; 100], 1);
        let r = estimate_flow(&cfg, &bc, &ec, &samples).unwrap();
        let est = r.probs.as_slice()[0];
        assert!((est - 0.75).abs() < 0.02, "estimated {est}");
    }

    #[test]
    fn flow_conservation_holds_in_solution() {
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        let samples = TimingSamples::new(vec![140; 10], 1);
        let r = estimate_flow(&cfg, &bc, &ec, &samples).unwrap();
        // cond out-flow = 1; join in-flow = 1.
        let x = &r.edge_traversals;
        assert!((x[0] + x[1] - 1.0).abs() < 0.01, "{x:?}");
        assert!((x[2] + x[3] - 1.0).abs() < 0.01, "{x:?}");
    }

    #[test]
    fn loop_iteration_count_from_mean() {
        let cfg = while_loop();
        let bc = vec![2u64, 3, 10, 1];
        let ec = vec![0u64; cfg.edges().len()];
        // q = 0.75 → visits: header 4, body 3 → mean = 2 + 12 + 30 + 1 = 45.
        let samples = TimingSamples::new(vec![45; 50], 1);
        let r = estimate_flow(&cfg, &bc, &ec, &samples).unwrap();
        let est = r.probs.prob_true(BlockId(1)).unwrap();
        assert!((est - 0.75).abs() < 0.03, "estimated {est}");
    }

    #[test]
    fn branchless_procedure_is_trivial() {
        let cfg = linear(3);
        let bc = vec![5u64, 6, 7];
        let ec = vec![0u64; 2];
        let samples = TimingSamples::new(vec![18; 5], 1);
        let r = estimate_flow(&cfg, &bc, &ec, &samples).unwrap();
        assert!(r.probs.is_empty());
        assert!((r.edge_traversals[0] - 1.0).abs() < 0.01);
    }

    #[test]
    fn empty_samples_rejected() {
        let cfg = diamond();
        let samples = TimingSamples::new(vec![], 1);
        assert_eq!(
            estimate_flow(&cfg, &[1; 4], &[0; 4], &samples),
            Err(FlowError::NoSamples)
        );
    }

    #[test]
    fn quantized_mean_still_works() {
        let cfg = diamond();
        let bc = vec![10u64, 100, 200, 5];
        let ec = vec![0u64; 4];
        // mean 140 cycles at cpt=8: ticks mostly 17/18.
        let mut ticks = vec![17u64; 50];
        ticks.extend(vec![18u64; 50]);
        let samples = TimingSamples::new(ticks, 8);
        let r = estimate_flow(&cfg, &bc, &ec, &samples).unwrap();
        let est = r.probs.as_slice()[0];
        assert!((est - 0.75).abs() < 0.1, "estimated {est}");
    }
}
