//! Dominator analysis (Cooper–Harvey–Kennedy iterative algorithm).
//!
//! Dominators feed natural-loop detection ([`crate::loops`]) and the
//! structural decomposition used by the duration model.

use crate::graph::{BlockId, Cfg};

/// The dominator tree of a [`Cfg`].
///
/// # Examples
///
/// ```
/// use ct_cfg::builder::diamond;
/// use ct_cfg::dominators::Dominators;
/// use ct_cfg::graph::BlockId;
/// let cfg = diamond();
/// let dom = Dominators::compute(&cfg);
/// // The branch block dominates the join block.
/// assert!(dom.dominates(BlockId(0), BlockId(3)));
/// // Neither arm dominates the join.
/// assert!(!dom.dominates(BlockId(1), BlockId(3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    /// Immediate dominator of each block; `idom[entry] == entry`;
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl Dominators {
    /// Computes dominators for all blocks reachable from the entry.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let entry = cfg.entry();
        let rpo = cfg.reverse_postorder();
        let n = cfg.len();

        // Map block -> its position in reverse postorder (for intersect).
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }

        let preds = cfg.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry.index()] = Some(entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_pos[a.index()] > rpo_pos[b.index()] {
                    a = idom[a.index()].expect("processed block has idom");
                }
                while rpo_pos[b.index()] > rpo_pos[a.index()] {
                    b = idom[b.index()].expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // First processed predecessor seeds the meet.
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { idom, entry }
    }

    /// Immediate dominator of `b` (`None` for the entry and for unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == self.entry {
            return None;
        }
        self.idom[b.index()]
    }

    /// True when `a` dominates `b` (reflexive: every block dominates itself).
    ///
    /// Returns `false` if `b` is unreachable.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return cur == a,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{diamond, irreducible, linear, nested_loops, while_loop};

    #[test]
    fn linear_chain_dominators() {
        let cfg = linear(4);
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(BlockId(0)), None);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(2)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(3), BlockId(1)));
    }

    #[test]
    fn diamond_join_dominated_by_cond_only() {
        let cfg = diamond();
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(0)));
    }

    #[test]
    fn loop_header_dominates_body() {
        let cfg = while_loop();
        let dom = Dominators::compute(&cfg);
        // header (b1) dominates body (b2) and exit (b3).
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(1)));
    }

    #[test]
    fn nested_loops_dominator_nesting() {
        let cfg = nested_loops();
        let dom = Dominators::compute(&cfg);
        // outer_header (b1) dominates inner_header (b2) dominates inner_body (b3).
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert!(dom.dominates(BlockId(2), BlockId(3)));
        assert!(dom.dominates(BlockId(1), BlockId(4)));
    }

    #[test]
    fn irreducible_graph_gets_entry_as_meet() {
        let cfg = irreducible();
        let dom = Dominators::compute(&cfg);
        // Neither a nor b dominates the other; both idoms are the entry.
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(0)));
    }

    #[test]
    fn reflexive_dominance() {
        let cfg = diamond();
        let dom = Dominators::compute(&cfg);
        for b in cfg.block_ids() {
            assert!(dom.dominates(b, b));
        }
    }
}
