//! Execution profiles: edge counts, block visit counts and branch
//! probabilities.
//!
//! All vectors are indexed by the stable orders defined on [`Cfg`]: edge
//! profiles by [`Cfg::edges`] index, branch probabilities by
//! [`Cfg::branch_blocks`] order. Ground-truth profiles (from full
//! instrumentation) and estimated profiles (from Code Tomography) share these
//! types, so comparing them is a vector operation.

use crate::graph::{BlockId, Cfg, EdgeKind};

/// Exact traversal counts per CFG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeProfile {
    counts: Vec<u64>,
}

impl EdgeProfile {
    /// A zeroed profile shaped for `cfg`.
    pub fn zeroed(cfg: &Cfg) -> EdgeProfile {
        EdgeProfile {
            counts: vec![0; cfg.edge_count()],
        }
    }

    /// Wraps raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len()` differs from the edge count of `cfg`.
    pub fn from_counts(cfg: &Cfg, counts: Vec<u64>) -> EdgeProfile {
        assert_eq!(counts.len(), cfg.edge_count(), "edge count mismatch");
        EdgeProfile { counts }
    }

    /// Count of edge `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn count(&self, index: usize) -> u64 {
        self.counts[index]
    }

    /// Increments edge `index` by one.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn bump(&mut self, index: usize) {
        self.counts[index] += 1;
    }

    /// The raw counts, indexed by edge index.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Adds another profile elementwise (e.g. accumulating across runs).
    ///
    /// # Panics
    ///
    /// Panics if the profiles have different shapes.
    pub fn merge(&mut self, other: &EdgeProfile) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "profile shape mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The counts added since `earlier`, a reading of the same counters
    /// taken before this one (the inverse of [`EdgeProfile::merge`]).
    ///
    /// # Panics
    ///
    /// Panics if the profiles have different shapes or any count of
    /// `earlier` exceeds this one's.
    pub fn since(&self, earlier: &EdgeProfile) -> EdgeProfile {
        assert_eq!(
            self.counts.len(),
            earlier.counts.len(),
            "profile shape mismatch"
        );
        let counts = self.counts.iter().zip(&earlier.counts);
        EdgeProfile {
            counts: counts
                .map(|(a, b)| a.checked_sub(*b).expect("earlier reading exceeds this one"))
                .collect(),
        }
    }

    /// Visit count of every block implied by the edge counts, given the
    /// number of procedure invocations (which is the entry block's visit
    /// count — the entry has no incoming edges).
    pub fn block_visits(&self, cfg: &Cfg, invocations: u64) -> Vec<u64> {
        let mut visits = vec![0u64; cfg.len()];
        visits[cfg.entry().index()] = invocations;
        for e in cfg.edges() {
            visits[e.to.index()] += self.counts[e.index];
        }
        visits
    }

    /// Flow-conservation check: for every block, incoming flow (plus
    /// `invocations` at the entry) equals outgoing flow (plus returns at
    /// exits). Profiles captured from complete runs always satisfy this.
    pub fn is_flow_consistent(&self, cfg: &Cfg, invocations: u64) -> bool {
        let visits = self.block_visits(cfg, invocations);
        for (id, b) in cfg.iter() {
            let outgoing: u64 = cfg
                .edges()
                .iter()
                .filter(|e| e.from == id)
                .map(|e| self.counts[e.index])
                .sum();
            let expected_out = match b.term {
                crate::graph::Terminator::Return => 0,
                _ => visits[id.index()],
            };
            if outgoing != expected_out {
                return false;
            }
        }
        true
    }

    /// Derives branch probabilities from the counts. Branches never executed
    /// get probability 0.5 (uninformative prior).
    pub fn branch_probs(&self, cfg: &Cfg) -> BranchProbs {
        let edges = cfg.edges();
        let mut p_true = Vec::new();
        for bb in cfg.branch_blocks() {
            let t = edges
                .iter()
                .find(|e| e.from == bb && e.kind == EdgeKind::BranchTrue)
                .map(|e| self.counts[e.index])
                .unwrap_or(0);
            let f = edges
                .iter()
                .find(|e| e.from == bb && e.kind == EdgeKind::BranchFalse)
                .map(|e| self.counts[e.index])
                .unwrap_or(0);
            let total = t + f;
            p_true.push(if total == 0 {
                0.5
            } else {
                t as f64 / total as f64
            });
        }
        BranchProbs {
            blocks: cfg.branch_blocks(),
            p_true,
        }
    }
}

/// Probability of taking the *true* edge at each branch block.
///
/// This is the parameter vector of the per-procedure Markov model — the thing
/// Code Tomography estimates and full instrumentation measures.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchProbs {
    blocks: Vec<BlockId>,
    p_true: Vec<f64>,
}

impl BranchProbs {
    /// Builds a parameter vector for `cfg` with every branch at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn uniform(cfg: &Cfg, p: f64) -> BranchProbs {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let blocks = cfg.branch_blocks();
        let n = blocks.len();
        BranchProbs {
            blocks,
            p_true: vec![p; n],
        }
    }

    /// Builds from explicit per-branch probabilities in
    /// [`Cfg::branch_blocks`] order.
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches or any value is not a probability.
    pub fn from_vec(cfg: &Cfg, p_true: Vec<f64>) -> BranchProbs {
        let blocks = cfg.branch_blocks();
        assert_eq!(p_true.len(), blocks.len(), "branch count mismatch");
        assert!(
            p_true.iter().all(|p| (0.0..=1.0).contains(p)),
            "probabilities out of range"
        );
        BranchProbs { blocks, p_true }
    }

    /// The branch blocks, in the canonical order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// The probability vector, aligned with [`Self::blocks`].
    pub fn as_slice(&self) -> &[f64] {
        &self.p_true
    }

    /// Number of branches.
    pub fn len(&self) -> usize {
        self.p_true.len()
    }

    /// True when the procedure has no branches.
    pub fn is_empty(&self) -> bool {
        self.p_true.is_empty()
    }

    /// Probability of the true edge at `block`, or `None` if `block` is not a
    /// branch block.
    pub fn prob_true(&self, block: BlockId) -> Option<f64> {
        self.blocks
            .iter()
            .position(|&b| b == block)
            .map(|i| self.p_true[i])
    }

    /// Sets the probability at `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a branch block or `p` is not a probability.
    pub fn set_prob_true(&mut self, block: BlockId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let i = self
            .blocks
            .iter()
            .position(|&b| b == block)
            .expect("block is a branch block");
        self.p_true[i] = p;
    }

    /// Per-edge traversal probabilities (conditioned on reaching the source
    /// block): 1.0 for jumps, `p`/`1-p` for branch edges. Indexed by edge
    /// index.
    pub fn edge_probs(&self, cfg: &Cfg) -> Vec<f64> {
        cfg.edges()
            .iter()
            .map(|e| match e.kind {
                EdgeKind::Jump => 1.0,
                EdgeKind::BranchTrue => self.prob_true(e.from).unwrap_or(0.5),
                EdgeKind::BranchFalse => 1.0 - self.prob_true(e.from).unwrap_or(0.5),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{diamond, while_loop};

    fn diamond_profile(t: u64, f: u64) -> (crate::graph::Cfg, EdgeProfile) {
        let cfg = diamond();
        // Edge order: 0 = cond→then (true), 1 = cond→else (false),
        // 2 = then→join, 3 = else→join.
        let prof = EdgeProfile::from_counts(&cfg, vec![t, f, t, f]);
        (cfg, prof)
    }

    #[test]
    fn branch_probs_from_counts() {
        let (cfg, prof) = diamond_profile(30, 10);
        let probs = prof.branch_probs(&cfg);
        assert_eq!(probs.len(), 1);
        assert!((probs.prob_true(BlockId(0)).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unexecuted_branch_gets_half() {
        let (cfg, prof) = diamond_profile(0, 0);
        let probs = prof.branch_probs(&cfg);
        assert_eq!(probs.prob_true(BlockId(0)), Some(0.5));
    }

    #[test]
    fn block_visits_from_edges() {
        let (cfg, prof) = diamond_profile(30, 10);
        let visits = prof.block_visits(&cfg, 40);
        assert_eq!(visits, vec![40, 30, 10, 40]);
    }

    #[test]
    fn flow_consistency_detects_complete_profiles() {
        let (cfg, prof) = diamond_profile(30, 10);
        assert!(prof.is_flow_consistent(&cfg, 40));
        assert!(!prof.is_flow_consistent(&cfg, 41));
    }

    #[test]
    fn flow_consistency_rejects_corrupt_counts() {
        let cfg = diamond();
        let prof = EdgeProfile::from_counts(&cfg, vec![30, 10, 29, 10]);
        assert!(!prof.is_flow_consistent(&cfg, 40));
    }

    #[test]
    fn merge_accumulates() {
        let (cfg, mut a) = diamond_profile(1, 2);
        let b = EdgeProfile::from_counts(&cfg, vec![10, 20, 10, 20]);
        a.merge(&b);
        assert_eq!(a.counts(), &[11, 22, 11, 22]);
    }

    #[test]
    fn bump_increments_single_edge() {
        let cfg = diamond();
        let mut p = EdgeProfile::zeroed(&cfg);
        p.bump(2);
        p.bump(2);
        assert_eq!(p.count(2), 2);
        assert_eq!(p.count(0), 0);
    }

    #[test]
    fn edge_probs_partition_unity_per_branch() {
        let cfg = diamond();
        let probs = BranchProbs::from_vec(&cfg, vec![0.7]);
        let ep = probs.edge_probs(&cfg);
        assert!((ep[0] - 0.7).abs() < 1e-12);
        assert!((ep[1] - 0.3).abs() < 1e-12);
        assert_eq!(ep[2], 1.0);
        assert_eq!(ep[3], 1.0);
    }

    #[test]
    fn uniform_and_set_prob() {
        let cfg = while_loop();
        let mut probs = BranchProbs::uniform(&cfg, 0.5);
        probs.set_prob_true(BlockId(1), 0.9);
        assert_eq!(probs.prob_true(BlockId(1)), Some(0.9));
        assert_eq!(probs.prob_true(BlockId(0)), None);
    }

    #[test]
    #[should_panic(expected = "probabilities out of range")]
    fn from_vec_rejects_bad_probability() {
        let cfg = diamond();
        BranchProbs::from_vec(&cfg, vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "branch count mismatch")]
    fn from_vec_rejects_wrong_length() {
        let cfg = diamond();
        BranchProbs::from_vec(&cfg, vec![0.5, 0.5]);
    }
}
