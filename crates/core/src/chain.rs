//! The absorbing-chain layout and the coordinate search shared by the two
//! transform-side backends, [`crate::moments`] and [`crate::gnt`].
//!
//! Both backends condition on the first edge out of each non-return
//! ("transient") block and solve one linear system over the transient
//! blocks per model evaluation. [`ChainPlan`] validates the cost vectors
//! once and lays out, in the order the assembly visits them, every
//! transient block's out-edges with the parameter that weights each one, so
//! an evaluation only reads slices. [`coordinate_descent`] and
//! [`golden_section`] are the search both backends run over the branch
//! probabilities, with one fixed budget ([`SWEEPS`], [`LINE_ITERS`]) and
//! one probability clamp ([`MIN_PROB`]).

use ct_cfg::graph::{BlockId, Cfg, EdgeKind, Terminator};
use ct_cfg::profile::BranchProbs;

/// Which parameter weights an out-edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Weight {
    /// An unconditional jump: probability 1.
    One,
    /// The true side of branch parameter `k`: `θ_k`.
    True(usize),
    /// The false side of branch parameter `k`: `1 − θ_k`.
    False(usize),
}

/// Where an out-edge leads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Target {
    /// A transient block, by its row in the system.
    Row(usize),
    /// A return block, with its own cost in cycles.
    Exit(f64),
}

/// One out-edge of a transient block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OutEdge {
    /// The source block's row.
    pub(crate) row: usize,
    /// The parameter that weights the edge.
    pub(crate) weight: Weight,
    /// Cycles from entering the source block to entering the target: the
    /// source block's cost plus the edge's.
    pub(crate) step: f64,
    /// The target.
    pub(crate) target: Target,
}

impl OutEdge {
    /// The edge's probability under the branch parameters `theta` — the
    /// value [`BranchProbs::edge_probs`] assigns it, bit for bit.
    pub(crate) fn prob(&self, theta: &[f64]) -> f64 {
        match self.weight {
            Weight::One => 1.0,
            Weight::True(k) => theta[k],
            Weight::False(k) => 1.0 - theta[k],
        }
    }
}

/// Shape-checked layout of a CFG's absorbing chain under fixed costs.
#[derive(Debug, Clone)]
pub(crate) struct ChainPlan {
    /// Number of transient blocks (rows of the system).
    pub(crate) rows: usize,
    /// Every transient block's out-edges: rows ascending, edges in edge
    /// index order within a row (true before false at a branch).
    pub(crate) edges: Vec<OutEdge>,
    /// Per branch parameter (in [`Cfg::branch_blocks`] order), the index in
    /// `edges` of its true edge; the false edge follows it.
    pub(crate) branch_edges: Vec<usize>,
    /// The entry block's row, `None` when the entry returns at once.
    pub(crate) entry: Option<usize>,
    /// The entry block's own cost: the whole duration when nothing is
    /// transient.
    pub(crate) entry_cost: f64,
    /// The branch blocks, to read a [`BranchProbs`] by block.
    branches: Vec<BlockId>,
}

impl ChainPlan {
    /// Lays out `cfg`'s chain under `block_costs` and `edge_costs`.
    ///
    /// # Errors
    ///
    /// A message naming the cost vector whose length does not match the CFG.
    pub(crate) fn new(
        cfg: &Cfg,
        block_costs: &[u64],
        edge_costs: &[u64],
    ) -> Result<ChainPlan, String> {
        if block_costs.len() != cfg.len() {
            return Err("block cost length".into());
        }
        let edges = cfg.edges();
        if edge_costs.len() != edges.len() {
            return Err("edge cost length".into());
        }
        let mut row_of = vec![None; cfg.len()];
        let mut rows = 0;
        for (id, b) in cfg.iter() {
            if !matches!(b.term, Terminator::Return) {
                row_of[id.index()] = Some(rows);
                rows += 1;
            }
        }
        let branches = cfg.branch_blocks();
        let mut out = Vec::with_capacity(edges.len());
        let mut branch_edges = Vec::with_capacity(branches.len());
        for e in &edges {
            let Some(row) = row_of[e.from.index()] else {
                continue;
            };
            let weight = match e.kind {
                EdgeKind::Jump => Weight::One,
                EdgeKind::BranchTrue | EdgeKind::BranchFalse => {
                    let k = branches.partition_point(|&b| b < e.from);
                    if e.kind == EdgeKind::BranchTrue {
                        branch_edges.push(out.len());
                        Weight::True(k)
                    } else {
                        Weight::False(k)
                    }
                }
            };
            let target = match row_of[e.to.index()] {
                Some(tj) => Target::Row(tj),
                None => Target::Exit(block_costs[e.to.index()] as f64),
            };
            out.push(OutEdge {
                row,
                weight,
                step: (block_costs[e.from.index()] + edge_costs[e.index]) as f64,
                target,
            });
        }
        Ok(ChainPlan {
            rows,
            edges: out,
            branch_edges,
            entry: row_of[cfg.entry().index()],
            entry_cost: block_costs[cfg.entry().index()] as f64,
            branches,
        })
    }

    /// `probs` as a parameter vector in [`Cfg::branch_blocks`] order; a
    /// branch `probs` does not cover reads 0.5, as in
    /// [`BranchProbs::edge_probs`].
    pub(crate) fn thetas(&self, probs: &BranchProbs) -> Vec<f64> {
        self.branches
            .iter()
            .map(|&b| probs.prob_true(b).unwrap_or(0.5))
            .collect()
    }
}

/// Coordinate-descent sweeps over the parameter vector.
pub(crate) const SWEEPS: usize = 12;
/// Golden-section shrink steps per coordinate.
pub(crate) const LINE_ITERS: usize = 24;
/// Probability clamp: every coordinate is searched on
/// `[MIN_PROB, 1 − MIN_PROB]`.
pub(crate) const MIN_PROB: f64 = 1e-3;

/// Golden-section search for the minimum of `f` on
/// `[MIN_PROB, 1 − MIN_PROB]`, run for [`LINE_ITERS`] shrink steps. Returns
/// the better of the two final probes as `(x, f(x))`; a tie goes to the
/// lower probe.
pub(crate) fn golden_section(mut f: impl FnMut(f64) -> f64) -> (f64, f64) {
    let phi = 0.618_033_988_75;
    let (mut lo, mut hi) = (MIN_PROB, 1.0 - MIN_PROB);
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for _ in 0..LINE_ITERS {
        if f1 <= f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = f(x2);
        }
    }
    if f1 <= f2 {
        (x1, f1)
    } else {
        (x2, f2)
    }
}

/// Coordinate descent over `theta` from the objective value `best` at the
/// start: each sweep sets every coordinate in turn to what `search(k,
/// theta)` returns as `(θ_k, objective)`, and the descent stops after
/// [`SWEEPS`] sweeps or after the first sweep that lowers the best
/// objective by no more than 1e-12. Returns the best objective and the
/// sweeps run.
pub(crate) fn coordinate_descent(
    theta: &mut [f64],
    mut best: f64,
    mut search: impl FnMut(usize, &mut [f64]) -> (f64, f64),
) -> (f64, usize) {
    let mut sweeps_done = 0;
    for _ in 0..SWEEPS {
        sweeps_done += 1;
        let mut improved = false;
        for k in 0..theta.len() {
            let (x, f) = search(k, theta);
            theta[k] = x;
            if f + 1e-12 < best {
                best = f;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (best, sweeps_done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_cfg::builder::{diamond, while_loop};

    #[test]
    fn plan_lays_out_edges_in_assembly_order() {
        // Diamond: cond(0) → then(1)/else(2) → join(3, return).
        let cfg = diamond();
        let plan = ChainPlan::new(&cfg, &[10, 100, 200, 5], &[1, 2, 3, 4]).unwrap();
        assert_eq!(plan.rows, 3);
        assert_eq!(plan.entry, Some(0));
        assert_eq!(plan.branch_edges, vec![0]);
        let want = [
            (0, Weight::True(0), 11.0, Target::Row(1)),
            (0, Weight::False(0), 12.0, Target::Row(2)),
            (1, Weight::One, 103.0, Target::Exit(5.0)),
            (2, Weight::One, 204.0, Target::Exit(5.0)),
        ];
        for (e, &(row, weight, step, target)) in plan.edges.iter().zip(&want) {
            assert_eq!(
                (e.row, e.weight, e.step, e.target),
                (row, weight, step, target)
            );
        }
    }

    #[test]
    fn edge_probabilities_match_branch_probs_bitwise() {
        let cfg = while_loop();
        let plan = ChainPlan::new(&cfg, &[2, 3, 10, 1], &vec![0; cfg.edges().len()]).unwrap();
        let probs = BranchProbs::from_vec(&cfg, vec![0.3]);
        let theta = plan.thetas(&probs);
        let want = probs.edge_probs(&cfg);
        // Every edge leaves a transient block in this CFG.
        assert_eq!(plan.edges.len(), want.len());
        for (e, w) in plan.edges.iter().zip(&want) {
            assert_eq!(e.prob(&theta).to_bits(), w.to_bits());
        }
    }

    #[test]
    fn cost_shape_mismatches_are_named() {
        let cfg = diamond();
        assert_eq!(
            ChainPlan::new(&cfg, &[1, 2], &[0; 4]).unwrap_err(),
            "block cost length"
        );
        assert_eq!(
            ChainPlan::new(&cfg, &[1; 4], &[0; 3]).unwrap_err(),
            "edge cost length"
        );
    }

    #[test]
    fn golden_section_finds_a_parabola_minimum() {
        // 24 steps shrink the bracket to 0.618^24 ≈ 1e-5 of its width.
        let (x, f) = golden_section(|x| (x - 0.3) * (x - 0.3));
        assert!((x - 0.3).abs() < 1e-5, "{x}");
        assert!(f < 1e-10);
    }
}
