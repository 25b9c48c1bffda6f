//! Compiler-assisted estimation: EM on a counted-loop-unrolled model.
//!
//! A counted loop (trip count proved by `ct_ir::tripcount`) is deterministic,
//! but a geometric Markov loop lets EM trade iterations against data branches.
//! Unrolling it in the model (`ct_cfg::unroll`) removes that noise; the copies
//! of one static branch share one θ through a tied EM plan (`FbPlan::tied`).

use crate::em::{estimate_em_planned, EmOptions, EmResult};
use crate::fb::{FbError, FbPlan, FbScratch};
use crate::samples::DurationSamples;
use ct_cfg::graph::{BlockId, Cfg, Terminator};
use ct_cfg::loops::LoopForest;
use ct_cfg::profile::BranchProbs;
use ct_cfg::unroll::{unroll, UnrollError};
use std::{error::Error, fmt};

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

/// EM with counted loops unrolled and copy parameters tied, from the uniform
/// start, reported on the **original** CFG: each branch gets its copies' θ,
/// each counted header `trips/(trips+1)` (its exact expected visits), and the
/// edge counts are folded back onto the original edges.
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
) -> Result<EmResult, UnrolledError> {
    let u = unroll(cfg, counted).map_err(UnrolledError::Unroll)?;
    let stats = samples.suff_stats();
    let r = estimate_em_planned(
        &FbPlan::new(&u.cfg).tied(|b| u.orig_block[b.index()]),
        &mut FbScratch::new(),
        &u.map_block_values(block_costs),
        &u.map_edge_values(edge_costs),
        &stats.counted(),
        stats.cycles_per_tick(),
        BranchProbs::uniform(&u.cfg, 0.5),
        opts,
    )
    .map_err(UnrolledError::Em)?;
    let mut probs = BranchProbs::uniform(cfg, 0.5);
    for (&ub, &theta) in r.probs.blocks().iter().zip(r.probs.as_slice()) {
        probs.set_prob_true(u.orig_block[ub.index()], theta);
    }
    let forest = LoopForest::compute(cfg);
    for &(header, trips) in counted {
        let q = trips as f64 / (trips as f64 + 1.0);
        if let Terminator::Branch { on_true, .. } = cfg.block(header).term {
            let mut loops = forest.loops().iter();
            let body_on_true = loops.any(|l| l.header == header && l.contains(on_true));
            probs.set_prob_true(header, if body_on_true { q } else { 1.0 - q });
        }
    }
    Ok(EmResult {
        probs,
        edge_counts: u.fold_edge_counts(&r.edge_counts, cfg.edges().len()),
        ..r
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
        let n = samples.len() as f64;
        let per_invocation: Vec<f64> = r.edge_counts.iter().map(|c| c / n).collect();
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
            (per_invocation[h_body] - 3.0).abs() < 1e-6,
            "{per_invocation:?}"
        );
        assert!((per_invocation[h_exit] - 1.0).abs() < 1e-6);
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
