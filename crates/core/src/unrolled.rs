//! Compiler-assisted estimation: EM on a counted-loop-unrolled model.
//!
//! When the compiler proves a loop's trip count (see `ct_ir::tripcount`),
//! the Markov model's geometric approximation of that loop is pure noise:
//! it widens the duration support and lets EM trade loop iterations against
//! data-dependent branches (the crc failure mode in EXPERIMENTS.md).
//! Unrolling counted loops in the *model* (`ct_cfg::unroll`) makes them
//! deterministic; the remaining branches are estimated by EM with their
//! parameters **tied across copies** (all copies of one original branch
//! share one θ, as they must — they are the same static branch).

use crate::em::EmOptions;
use crate::fb::{e_step_planned, FbError, FbPlan, FbScratch};
use crate::samples::DurationSamples;
use ct_cfg::graph::{BlockId, Cfg};
use ct_cfg::profile::BranchProbs;
use ct_cfg::unroll::{unroll, UnrollError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Failure of unrolled estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum UnrolledError {
    /// The unroll transform failed (odd loop shape, block budget).
    Unroll(UnrollError),
    /// The EM dynamic programs failed.
    Em(FbError),
}

impl fmt::Display for UnrolledError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnrolledError::Unroll(e) => write!(f, "unroll: {e}"),
            UnrolledError::Em(e) => write!(f, "em: {e}"),
        }
    }
}

impl Error for UnrolledError {}

/// Result of unrolled estimation, expressed on the **original** CFG.
#[derive(Debug, Clone, PartialEq)]
pub struct UnrolledEstimate {
    /// Branch probabilities on the original CFG. Counted-loop headers get
    /// `trips/(trips+1)` — the probability that reproduces their exact
    /// expected visit counts under the Markov semantics.
    pub probs: BranchProbs,
    /// EM iterations.
    pub iterations: usize,
    /// Final log-likelihood.
    pub loglik: f64,
    /// Samples unexplained at the final parameters.
    pub unexplained: usize,
    /// Expected per-invocation edge traversal counts on the original CFG
    /// (folded from the unrolled model; exact for counted loops).
    pub edge_counts: Vec<f64>,
}

/// Estimates branch probabilities with counted loops unrolled and copy
/// parameters tied.
///
/// # Errors
///
/// Propagates unroll and EM failures; callers typically fall back to plain
/// [`crate::estimator::estimate`].
pub fn estimate_unrolled<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    counted: &[(BlockId, u64)],
    block_costs: &[u64],
    edge_costs: &[u64],
    samples: &S,
    opts: EmOptions,
) -> Result<UnrolledEstimate, UnrolledError> {
    let u = unroll(cfg, counted).map_err(UnrolledError::Unroll)?;
    let ubc = u.map_block_values(block_costs);
    let uec = u.map_edge_values(edge_costs);

    // Group unrolled branch slots by their original branch block.
    let plan = FbPlan::new(&u.cfg);
    let mut groups: HashMap<BlockId, Vec<(BlockId, usize, usize)>> = HashMap::new();
    for (&ub, &(t, f)) in plan.branch_blocks().iter().zip(plan.arms()) {
        let orig = u.orig_block[ub.index()];
        groups.entry(orig).or_default().push((ub, t, f));
    }

    let mut scratch = FbScratch::new();
    let mut u_probs = BranchProbs::uniform(&u.cfg, 0.5);
    let mut prev = u_probs.clone();
    let mut loglik = f64::NEG_INFINITY;
    let mut unexplained = 0;
    let mut iterations = 0;
    let hist = samples.counted();
    let cpt = samples.cycles_per_tick();

    for iter in 0..opts.max_iter.max(1) {
        iterations = iter + 1;
        (loglik, unexplained) = e_step_planned(
            &plan,
            &mut scratch,
            &ubc,
            &uec,
            &u_probs,
            &hist,
            cpt,
            opts.fb,
        )
        .map_err(UnrolledError::Em)?;
        let counts = scratch.counts();
        std::mem::swap(&mut prev, &mut u_probs);

        let mut max_delta: f64 = 0.0;
        for copies in groups.values() {
            // Tie: pool counts over all copies of the original branch, with
            // the same symmetric pseudo-count prior as the plain EM M-step.
            let a = opts.prior_strength.max(0.0);
            let nt: f64 = copies.iter().map(|&(_, t, _)| counts[t]).sum::<f64>() + a;
            let nf: f64 = copies.iter().map(|&(_, _, f)| counts[f]).sum::<f64>() + a;
            let tied =
                (nt + nf > 0.0).then(|| (nt / (nt + nf)).clamp(opts.min_prob, 1.0 - opts.min_prob));
            for &(ub, _, _) in copies {
                let old = prev.prob_true(ub).expect("branch");
                let theta = tied.unwrap_or(old);
                max_delta = max_delta.max((theta - old).abs());
                u_probs.set_prob_true(ub, theta);
            }
        }
        if max_delta < opts.tol {
            break;
        }
    }
    let final_counts = scratch.counts();

    // Express the estimate on the original CFG.
    let mut probs = BranchProbs::uniform(cfg, 0.5);
    for (&orig, copies) in &groups {
        let theta = u_probs.prob_true(copies[0].0).expect("branch");
        probs.set_prob_true(orig, theta);
    }
    for &(header, trips) in counted {
        // The geometric parameter matching the exact expected visits.
        let q = trips as f64 / (trips as f64 + 1.0);
        // Orient: does the original header continue on true or false?
        if let ct_cfg::graph::Terminator::Branch { on_true, .. } = cfg.block(header).term {
            // The loop body successor is the one inside the loop.
            let forest = ct_cfg::loops::LoopForest::compute(cfg);
            let l = forest
                .loops()
                .iter()
                .find(|l| l.header == header)
                .expect("counted header heads a loop");
            let continue_on_true = l.contains(on_true);
            probs.set_prob_true(header, if continue_on_true { q } else { 1.0 - q });
        }
    }

    // Per-invocation edge counts: fold and normalize by sample count.
    let n = samples.len().max(1) as f64;
    let folded = u.fold_edge_counts(final_counts, cfg.edges().len());
    let edge_counts: Vec<f64> = folded.iter().map(|c| c / n).collect();

    Ok(UnrolledEstimate {
        probs,
        iterations,
        loglik,
        unexplained,
        edge_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::TimingSamples;
    use ct_cfg::builder::while_loop;
    use ct_cfg::graph::Terminator;

    /// A counted loop (3 trips) whose body contains a data branch.
    fn counted_loop_with_branch() -> (Cfg, Vec<u64>, Vec<u64>, BlockId) {
        let mut cfg = Cfg::new("counted_branchy");
        let entry = cfg.add_block("entry", Terminator::Return);
        let header = cfg.add_block("header", Terminator::Return);
        let bcond = cfg.add_block("bcond", Terminator::Return);
        let bthen = cfg.add_block("bthen", Terminator::Return);
        let belse = cfg.add_block("belse", Terminator::Return);
        let latch = cfg.add_block("latch", Terminator::Jump(header));
        let exit = cfg.add_block("exit", Terminator::Return);
        cfg.set_terminator(entry, Terminator::Jump(header));
        cfg.set_terminator(
            header,
            Terminator::Branch {
                on_true: bcond,
                on_false: exit,
            },
        );
        cfg.set_terminator(
            bcond,
            Terminator::Branch {
                on_true: bthen,
                on_false: belse,
            },
        );
        cfg.set_terminator(bthen, Terminator::Jump(latch));
        cfg.set_terminator(belse, Terminator::Jump(latch));
        let bc = vec![5, 3, 4, 50, 20, 2, 1];
        let ec = vec![0; cfg.edges().len()];
        (cfg, bc, ec, header)
    }

    /// Synthesizes exact durations for the counted loop: 3 iterations, the
    /// inner branch true with probability `p` i.i.d.
    fn synth(_cfg: &Cfg, bc: &[u64], p: f64, n: usize) -> TimingSamples {
        let mut state = 0x12345u64;
        let mut ticks = Vec::with_capacity(n);
        for _ in 0..n {
            let mut d = bc[0] + bc[1] + bc[6]; // entry + final header visit + exit
            for _ in 0..3 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                d += bc[1] + bc[2] + bc[5]; // header + bcond + latch
                d += if u < p { bc[3] } else { bc[4] };
            }
            // We added header 3 (iterations) + 1 (final) times: total 4 ✓.
            ticks.push(d);
        }
        TimingSamples::new(ticks, 1)
    }

    #[test]
    fn recovers_inner_branch_with_deterministic_loop() {
        let (cfg, bc, ec, header) = counted_loop_with_branch();
        let samples = synth(&cfg, &bc, 0.3, 1500);
        let r = estimate_unrolled(
            &cfg,
            &[(header, 3)],
            &bc,
            &ec,
            &samples,
            EmOptions::default(),
        )
        .unwrap();
        // Inner branch recovered.
        let inner = r.probs.prob_true(BlockId(2)).unwrap();
        assert!((inner - 0.3).abs() < 0.03, "inner {inner}");
        // Loop header pinned at 3/4 continuing.
        let q = r.probs.prob_true(header).unwrap();
        assert!((q - 0.75).abs() < 1e-9, "q {q}");
        assert_eq!(r.unexplained, 0);
    }

    #[test]
    fn edge_counts_are_exact_for_counted_edges() {
        let (cfg, bc, ec, header) = counted_loop_with_branch();
        let samples = synth(&cfg, &bc, 0.5, 800);
        let r = estimate_unrolled(
            &cfg,
            &[(header, 3)],
            &bc,
            &ec,
            &samples,
            EmOptions::default(),
        )
        .unwrap();
        let edges = cfg.edges();
        // header→bcond traversed exactly 3×/invocation; header→exit 1×.
        let h_body = edges
            .iter()
            .find(|e| e.from == header && e.to == BlockId(2))
            .unwrap()
            .index;
        let h_exit = edges
            .iter()
            .find(|e| e.from == header && e.to == BlockId(6))
            .unwrap()
            .index;
        assert!(
            (r.edge_counts[h_body] - 3.0).abs() < 1e-6,
            "{:?}",
            r.edge_counts
        );
        assert!((r.edge_counts[h_exit] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn plain_while_loop_with_no_other_branches() {
        let cfg = while_loop();
        let bc = vec![2u64, 3, 10, 1];
        let ec = vec![0u64; cfg.edges().len()];
        // Deterministic 5 trips → duration always 2 + 6·3 + 5·10 + 1 = 71.
        let samples = TimingSamples::new(vec![71; 100], 1);
        let r = estimate_unrolled(
            &cfg,
            &[(BlockId(1), 5)],
            &bc,
            &ec,
            &samples,
            EmOptions::default(),
        )
        .unwrap();
        let q = r.probs.prob_true(BlockId(1)).unwrap();
        assert!((q - 5.0 / 6.0).abs() < 1e-9);
        assert_eq!(r.unexplained, 0);
    }

    #[test]
    fn unroll_failure_is_reported() {
        let cfg = while_loop();
        let bc = vec![1u64; 4];
        let ec = vec![0u64; cfg.edges().len()];
        let samples = TimingSamples::new(vec![10], 1);
        assert!(matches!(
            estimate_unrolled(
                &cfg,
                &[(BlockId(0), 2)],
                &bc,
                &ec,
                &samples,
                EmOptions::default()
            ),
            Err(UnrolledError::Unroll(_))
        ));
    }
}
