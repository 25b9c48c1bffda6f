//! Natural-loop detection and the loop nesting forest.
//!
//! A back edge `latch → header` where `header` dominates `latch` defines a
//! natural loop: the set of blocks that can reach the latch without passing
//! through the header. Sensor programs lowered from NLC are always reducible,
//! so every cycle is a natural loop; [`is_reducible`] verifies this and lets
//! the estimators reject pathological synthetic inputs.

use crate::dominators::Dominators;
use crate::graph::{BlockId, Cfg};

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (dominates every block in the loop).
    pub header: BlockId,
    /// Latch blocks: sources of back edges into the header.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, including the header, in id order.
    pub body: Vec<BlockId>,
}

impl NaturalLoop {
    /// True when `b` belongs to this loop (header included).
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }
}

/// The set of natural loops of a CFG plus nesting information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopForest {
    /// Loops sorted by header id; loops sharing a header are merged.
    loops: Vec<NaturalLoop>,
    /// `parent[i]` is the index of the innermost loop strictly containing
    /// loop `i`, if any.
    parent: Vec<Option<usize>>,
    /// Innermost loop index containing each block, if any.
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Detects all natural loops of `cfg`.
    pub fn compute(cfg: &Cfg) -> LoopForest {
        let dom = Dominators::compute(cfg);
        Self::compute_with(cfg, &dom)
    }

    /// Detects loops using a precomputed dominator tree.
    pub fn compute_with(cfg: &Cfg, dom: &Dominators) -> LoopForest {
        let preds = cfg.predecessors();
        // Collect back edges grouped by header.
        let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for (id, b) in cfg.iter() {
            for s in b.term.successors() {
                if dom.dominates(s, id) {
                    match by_header.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, latches)) => latches.push(id),
                        None => by_header.push((s, vec![id])),
                    }
                }
            }
        }
        by_header.sort_by_key(|(h, _)| *h);

        // For each header, gather the loop body via backward reachability
        // from the latches, stopping at the header.
        let mut loops = Vec::with_capacity(by_header.len());
        for (header, latches) in by_header {
            let mut in_loop = vec![false; cfg.len()];
            in_loop[header.index()] = true;
            let mut stack: Vec<BlockId> = Vec::new();
            for &l in &latches {
                if !in_loop[l.index()] {
                    in_loop[l.index()] = true;
                    stack.push(l);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in &preds[b.index()] {
                    if !in_loop[p.index()] {
                        in_loop[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            let body: Vec<BlockId> = cfg.block_ids().filter(|b| in_loop[b.index()]).collect();
            loops.push(NaturalLoop {
                header,
                latches,
                body,
            });
        }

        // Nesting: loop j is a parent of loop i when j's body strictly
        // contains i's body; pick the smallest such container.
        let mut parent = vec![None; loops.len()];
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for j in 0..loops.len() {
                if i == j {
                    continue;
                }
                let contains = loops[i].body.iter().all(|b| loops[j].contains(*b))
                    && loops[j].body.len() > loops[i].body.len();
                if contains {
                    best = match best {
                        None => Some(j),
                        Some(k) if loops[j].body.len() < loops[k].body.len() => Some(j),
                        other => other,
                    };
                }
            }
            parent[i] = best;
        }

        // Innermost loop per block.
        let mut innermost: Vec<Option<usize>> = vec![None; cfg.len()];
        for (i, l) in loops.iter().enumerate() {
            for &b in &l.body {
                innermost[b.index()] = match innermost[b.index()] {
                    None => Some(i),
                    Some(k) if l.body.len() < loops[k].body.len() => Some(i),
                    other => other,
                };
            }
        }

        LoopForest {
            loops,
            parent,
            innermost,
        }
    }

    /// All loops, sorted by header id.
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True when the CFG has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Nesting depth of block `b`: 0 outside any loop, 1 in a top-level loop,
    /// and so on.
    pub fn depth_of(&self, b: BlockId) -> usize {
        let mut depth = 0;
        let mut cur = self.innermost[b.index()];
        while let Some(i) = cur {
            depth += 1;
            cur = self.parent[i];
        }
        depth
    }
}

/// True when every cycle of the graph is a natural loop, i.e. every back edge
/// (in the DFS sense) targets a dominator of its source.
pub fn is_reducible(cfg: &Cfg) -> bool {
    let dom = Dominators::compute(cfg);
    // DFS classification of retreating edges.
    let n = cfg.len();
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
    let mut stack: Vec<(BlockId, usize)> = vec![(cfg.entry(), 0)];
    state[cfg.entry().index()] = 1;
    while let Some(&mut (node, ref mut child)) = stack.last_mut() {
        let succs = cfg.successors(node);
        if *child < succs.len() {
            let next = succs[*child];
            *child += 1;
            match state[next.index()] {
                0 => {
                    state[next.index()] = 1;
                    stack.push((next, 0));
                }
                1
                    // Retreating edge node→next: must be a dominator back edge.
                    if !dom.dominates(next, node) => {
                        return false;
                    }
                _ => {}
            }
        } else {
            state[node.index()] = 2;
            stack.pop();
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{diamond, irreducible, nested_loops, while_loop};

    #[test]
    fn diamond_has_no_loops() {
        let forest = LoopForest::compute(&diamond());
        assert!(forest.is_empty());
    }

    #[test]
    fn while_loop_detected() {
        let cfg = while_loop();
        let forest = LoopForest::compute(&cfg);
        assert_eq!(forest.len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert_eq!(l.body, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn nested_loops_nesting_recovered() {
        let cfg = nested_loops();
        let forest = LoopForest::compute(&cfg);
        assert_eq!(forest.len(), 2);
        // Outer loop headed at b1 contains inner loop headed at b2:
        // inner_body (b3) is at depth 2; outer_latch (b4) at depth 1.
        assert_eq!(forest.depth_of(BlockId(3)), 2);
        assert_eq!(forest.depth_of(BlockId(4)), 1);
        assert_eq!(forest.depth_of(BlockId(0)), 0);
    }

    #[test]
    fn reducibility_checks() {
        assert!(is_reducible(&diamond()));
        assert!(is_reducible(&while_loop()));
        assert!(is_reducible(&nested_loops()));
        assert!(!is_reducible(&irreducible()));
    }

    #[test]
    fn loop_contains_is_consistent() {
        let cfg = while_loop();
        let forest = LoopForest::compute(&cfg);
        let l = &forest.loops()[0];
        assert!(l.contains(BlockId(1)));
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(0)));
        assert!(!l.contains(BlockId(3)));
    }
}
