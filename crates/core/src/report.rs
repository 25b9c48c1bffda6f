//! Human-readable estimation reports.

use crate::accuracy::AccuracyReport;
use crate::estimator::Estimate;
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use std::fmt::Write as _;

/// Renders a per-branch comparison table (markdown) of estimated vs true
/// probabilities.
///
/// # Panics
///
/// Panics if the vectors do not match.
pub fn branch_table(cfg: &Cfg, estimated: &BranchProbs, truth: &BranchProbs) -> String {
    assert_eq!(estimated.len(), truth.len(), "branch count mismatch");
    let mut out = String::new();
    let _ = writeln!(out, "| branch | block | estimated | true | abs error |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (i, &bb) in truth.blocks().iter().enumerate() {
        let e = estimated.as_slice()[i];
        let t = truth.as_slice()[i];
        let _ = writeln!(
            out,
            "| {} | {} ({}) | {:.4} | {:.4} | {:.4} |",
            i,
            bb,
            cfg.block(bb).name,
            e,
            t,
            (e - t).abs()
        );
    }
    out
}

/// One-line summary of an estimate and its accuracy.
pub fn summary_line(name: &str, est: &Estimate, acc: &AccuracyReport) -> String {
    format!(
        "{name}: method={} iters={} branches={} mae={:.4} wmae={:.4} max={:.4}{}",
        est.method,
        est.iterations,
        acc.n_branches,
        acc.mae,
        acc.weighted_mae,
        acc.max_err,
        if est.unexplained > 0 {
            format!(" unexplained={}", est.unexplained)
        } else {
            String::new()
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Method;
    use ct_cfg::builder::diamond;

    #[test]
    fn table_contains_rows() {
        let cfg = diamond();
        let t = BranchProbs::from_vec(&cfg, vec![0.7]);
        let e = BranchProbs::from_vec(&cfg, vec![0.65]);
        let s = branch_table(&cfg, &e, &t);
        assert!(s.contains("0.6500"));
        assert!(s.contains("0.7000"));
        assert!(s.contains("cond"));
    }

    #[test]
    fn summary_line_mentions_method() {
        let cfg = diamond();
        let est = Estimate {
            probs: BranchProbs::uniform(&cfg, 0.5),
            method: Method::Em,
            iterations: 7,
            converged: true,
            final_delta: 1e-7,
            loglik: Some(-12.0),
            unexplained: 2,
        };
        let acc = AccuracyReport {
            mae: 0.01,
            ..Default::default()
        };
        let line = summary_line("sense", &est, &acc);
        assert!(line.contains("method=em"));
        assert!(line.contains("unexplained=2"));
    }
}
