//! CFG-level expected visit counts and edge traversal frequencies.
//!
//! These connect the Markov model back to profile vocabulary: the expected
//! edge traversals per invocation are exactly what a profile-guided code
//! placement pass consumes.

use crate::absorbing::AbsorbingAnalysis;
use crate::builder::chain_from_cfg;
use crate::chain::ChainError;
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;

/// Expected number of visits to each block per invocation, under the Markov
/// model with parameters `probs`.
///
/// # Errors
///
/// Propagates [`ChainError`] (e.g. a loop with continuation probability 1
/// never reaches the exit).
pub fn expected_visits(cfg: &Cfg, probs: &BranchProbs) -> Result<Vec<f64>, ChainError> {
    let chain = chain_from_cfg(cfg, probs)?;
    let analysis = AbsorbingAnalysis::new(&chain)?;
    let mut visits = analysis.expected_visits(cfg.entry().index(), cfg.len());
    // The return block is visited exactly once per invocation; the absorbing
    // analysis reports transient visits only.
    for exit in cfg.exit_blocks() {
        visits[exit.index()] = 1.0 * absorption_share(&analysis, cfg, exit.index());
    }
    Ok(visits)
}

fn absorption_share(analysis: &AbsorbingAnalysis, cfg: &Cfg, exit: usize) -> f64 {
    let probs = analysis.absorption_probs(cfg.entry().index());
    analysis
        .absorbing()
        .iter()
        .position(|&s| s == exit)
        .map(|i| probs[i])
        .unwrap_or(0.0)
}

/// Expected traversal count of each edge per invocation (indexed by
/// [`Cfg::edges`] order): visits of the source times the edge's conditional
/// probability.
///
/// # Errors
///
/// Propagates [`ChainError`].
pub fn expected_edge_traversals(cfg: &Cfg, probs: &BranchProbs) -> Result<Vec<f64>, ChainError> {
    let visits = expected_visits(cfg, probs)?;
    let edge_probs = probs.edge_probs(cfg);
    Ok(cfg
        .edges()
        .iter()
        .map(|e| visits[e.from.index()] * edge_probs[e.index])
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_cfg::builder::{diamond, while_loop};
    use ct_cfg::graph::BlockId;

    #[test]
    fn diamond_visits() {
        let cfg = diamond();
        let probs = BranchProbs::from_vec(&cfg, vec![0.8]);
        let v = expected_visits(&cfg, &probs).unwrap();
        assert!((v[0] - 1.0).abs() < 1e-9);
        assert!((v[1] - 0.8).abs() < 1e-9);
        assert!((v[2] - 0.2).abs() < 1e-9);
        assert!((v[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loop_visits_are_geometric() {
        let cfg = while_loop();
        let mut probs = BranchProbs::uniform(&cfg, 0.5);
        probs.set_prob_true(BlockId(1), 0.75); // 3 expected body iterations
        let v = expected_visits(&cfg, &probs).unwrap();
        assert!(
            (v[1] - 4.0).abs() < 1e-9,
            "header visited 1/(1-q) times: {v:?}"
        );
        assert!(
            (v[2] - 3.0).abs() < 1e-9,
            "body visited q/(1-q) times: {v:?}"
        );
        assert!((v[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn edge_traversals_match_flow() {
        let cfg = diamond();
        let probs = BranchProbs::from_vec(&cfg, vec![0.8]);
        let e = expected_edge_traversals(&cfg, &probs).unwrap();
        // edges: cond→then (0.8), cond→else (0.2), then→join (0.8), else→join (0.2)
        assert!((e[0] - 0.8).abs() < 1e-9);
        assert!((e[1] - 0.2).abs() < 1e-9);
        assert!((e[2] - 0.8).abs() < 1e-9);
        assert!((e[3] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn infinite_loop_is_an_error() {
        let cfg = while_loop();
        let mut probs = BranchProbs::uniform(&cfg, 0.5);
        probs.set_prob_true(BlockId(1), 1.0);
        assert!(expected_visits(&cfg, &probs).is_err());
    }
}
