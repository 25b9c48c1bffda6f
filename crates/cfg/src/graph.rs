//! Control-flow graph core: blocks, terminators, edges and traversals.
//!
//! A [`Cfg`] is the shared program representation of the workspace. Blocks
//! carry no instruction payload here — `ct-ir` keeps per-block instruction
//! lists in a sidecar indexed by [`BlockId`], and cycle costs likewise travel
//! as a separate `Vec<u64>` sidecar. This keeps the graph reusable for
//! synthetic estimator workloads that have no instructions at all.

use std::error::Error;
use std::fmt;

/// Index of a basic block within its [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block index as a `usize` for container indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional transfer to another block.
    Jump(BlockId),
    /// Two-way conditional branch on the block's final comparison.
    Branch {
        /// Successor when the condition evaluates true.
        on_true: BlockId,
        /// Successor when the condition evaluates false.
        on_false: BlockId,
    },
    /// Procedure return (the absorbing state of the Markov model).
    Return,
}

impl Terminator {
    /// The successors of this terminator, in `[on_true, on_false]` order for
    /// branches.
    pub fn successors(&self) -> Vec<BlockId> {
        match *self {
            Terminator::Jump(t) => vec![t],
            Terminator::Branch { on_true, on_false } => vec![on_true, on_false],
            Terminator::Return => vec![],
        }
    }

    /// True for two-way conditional branches.
    pub fn is_branch(&self) -> bool {
        matches!(self, Terminator::Branch { .. })
    }
}

/// A basic block: a label plus a terminator. Instruction payloads live in
/// `ct-ir`; cycle costs live in cost sidecars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Human-readable label (e.g. `"then"`, `"loop_header"`).
    pub name: String,
    /// How control leaves the block.
    pub term: Terminator,
}

/// Classification of a CFG edge by the machine-level transfer that realizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// The true side of a conditional branch.
    BranchTrue,
    /// The false side of a conditional branch.
    BranchFalse,
    /// An unconditional jump.
    Jump,
}

/// A directed CFG edge with a stable index.
///
/// Edge indices are assigned by enumerating blocks in id order and, within a
/// branch, the true edge before the false edge. All profile vectors in the
/// workspace are indexed by this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Stable index of this edge within [`Cfg::edges`].
    pub index: usize,
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// Machine-level classification.
    pub kind: EdgeKind,
}

/// Error produced by [`Cfg::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// A terminator referenced a block index that does not exist.
    TargetOutOfRange {
        /// The block whose terminator is invalid.
        block: BlockId,
        /// The nonexistent target.
        target: BlockId,
    },
    /// The graph has no blocks.
    Empty,
    /// No block has a `Return` terminator, so the procedure never exits.
    NoExit,
    /// A block is unreachable from the entry.
    Unreachable {
        /// The unreachable block.
        block: BlockId,
    },
    /// A conditional branch has identical successors.
    DegenerateBranch {
        /// The degenerate branch block.
        block: BlockId,
    },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::TargetOutOfRange { block, target } => {
                write!(f, "block {block} targets nonexistent block {target}")
            }
            CfgError::Empty => write!(f, "control-flow graph has no blocks"),
            CfgError::NoExit => write!(f, "control-flow graph has no return block"),
            CfgError::Unreachable { block } => {
                write!(f, "block {block} is unreachable from the entry")
            }
            CfgError::DegenerateBranch { block } => {
                write!(f, "block {block} branches to the same target on both sides")
            }
        }
    }
}

impl Error for CfgError {}

/// A per-procedure control-flow graph.
///
/// The entry block is always [`BlockId`]`(0)`.
///
/// # Examples
///
/// ```
/// use ct_cfg::graph::{Cfg, Terminator, BlockId};
/// let mut cfg = Cfg::new("demo");
/// let entry = cfg.add_block("entry", Terminator::Return);
/// assert_eq!(entry, BlockId(0));
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    name: String,
    blocks: Vec<Block>,
}

impl Cfg {
    /// Creates an empty CFG with the given procedure name.
    pub fn new(name: impl Into<String>) -> Self {
        Cfg {
            name: name.into(),
            blocks: Vec::new(),
        }
    }

    /// The procedure name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a block and returns its id. The first block added is the entry.
    pub fn add_block(&mut self, name: impl Into<String>, term: Terminator) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            name: name.into(),
            term,
        });
        id
    }

    /// Replaces the terminator of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn set_terminator(&mut self, block: BlockId, term: Terminator) {
        self.blocks[block.index()].term = term;
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the graph has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The entry block id.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn entry(&self) -> BlockId {
        assert!(!self.blocks.is_empty(), "empty CFG has no entry");
        BlockId(0)
    }

    /// Borrow of block `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Iterator over `(BlockId, &Block)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// All block ids in id order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(|i| BlockId(i as u32))
    }

    /// Successors of `id`, true edge first for branches.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.block(id).term.successors()
    }

    /// Predecessor lists for every block, indexed by block id.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, b) in self.iter() {
            for s in b.term.successors() {
                if s.index() < preds.len() {
                    preds[s.index()].push(id);
                }
            }
        }
        preds
    }

    /// The number of edges [`Cfg::edges`] lists, counted without building
    /// the list.
    pub fn edge_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match b.term {
                Terminator::Jump(_) => 1,
                Terminator::Branch { .. } => 2,
                Terminator::Return => 0,
            })
            .sum()
    }

    /// Enumerates edges with stable indices (block id order; within a branch,
    /// true before false).
    pub fn edges(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for (id, b) in self.iter() {
            match b.term {
                Terminator::Jump(t) => {
                    edges.push(Edge {
                        index: edges.len(),
                        from: id,
                        to: t,
                        kind: EdgeKind::Jump,
                    });
                }
                Terminator::Branch { on_true, on_false } => {
                    edges.push(Edge {
                        index: edges.len(),
                        from: id,
                        to: on_true,
                        kind: EdgeKind::BranchTrue,
                    });
                    edges.push(Edge {
                        index: edges.len(),
                        from: id,
                        to: on_false,
                        kind: EdgeKind::BranchFalse,
                    });
                }
                Terminator::Return => {}
            }
        }
        edges
    }

    /// Ids of all blocks with a `Return` terminator.
    pub fn exit_blocks(&self) -> Vec<BlockId> {
        self.iter()
            .filter(|(_, b)| matches!(b.term, Terminator::Return))
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of all blocks with a conditional branch terminator, in id order.
    pub fn branch_blocks(&self) -> Vec<BlockId> {
        self.iter()
            .filter(|(_, b)| b.term.is_branch())
            .map(|(id, _)| id)
            .collect()
    }

    /// Blocks in reverse postorder from the entry (a topological order for
    /// acyclic graphs; loop headers precede their bodies for reducible ones).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut postorder = Vec::with_capacity(self.blocks.len());
        // Iterative DFS to avoid recursion limits on large synthetic graphs.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry(), 0)];
        visited[self.entry().index()] = true;
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            let succs = self.successors(node);
            if *child < succs.len() {
                let next = succs[*child];
                *child += 1;
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            } else {
                postorder.push(node);
                stack.pop();
            }
        }
        postorder.reverse();
        postorder
    }

    /// Set of blocks reachable from the entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        if self.blocks.is_empty() {
            return seen;
        }
        let mut stack = vec![self.entry()];
        seen[self.entry().index()] = true;
        while let Some(b) = stack.pop() {
            for s in self.successors(b) {
                if s.index() < seen.len() && !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// True when the graph contains no cycles.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over reachable nodes.
        let preds = self.predecessors();
        let reach = self.reachable();
        let mut indeg: Vec<usize> = preds
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if reach[i] {
                    p.iter().filter(|q| reach[q.index()]).count()
                } else {
                    0
                }
            })
            .collect();
        let mut queue: Vec<BlockId> = self
            .block_ids()
            .filter(|b| reach[b.index()] && indeg[b.index()] == 0)
            .collect();
        let mut removed = 0;
        while let Some(b) = queue.pop() {
            removed += 1;
            for s in self.successors(b) {
                if reach[s.index()] {
                    indeg[s.index()] -= 1;
                    if indeg[s.index()] == 0 {
                        queue.push(s);
                    }
                }
            }
        }
        removed == reach.iter().filter(|&&r| r).count()
    }

    /// Checks the structural invariants of the graph.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: nonempty, all targets in range,
    /// at least one return block, every block reachable, no branch with
    /// identical successors.
    pub fn validate(&self) -> Result<(), CfgError> {
        if self.blocks.is_empty() {
            return Err(CfgError::Empty);
        }
        for (id, b) in self.iter() {
            for t in b.term.successors() {
                if t.index() >= self.blocks.len() {
                    return Err(CfgError::TargetOutOfRange {
                        block: id,
                        target: t,
                    });
                }
            }
            if let Terminator::Branch { on_true, on_false } = b.term {
                if on_true == on_false {
                    return Err(CfgError::DegenerateBranch { block: id });
                }
            }
        }
        if self.exit_blocks().is_empty() {
            return Err(CfgError::NoExit);
        }
        let reach = self.reachable();
        if let Some(i) = reach.iter().position(|&r| !r) {
            return Err(CfgError::Unreachable {
                block: BlockId(i as u32),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{diamond, while_loop};

    fn loop_cfg() -> Cfg {
        // entry -> header; header -(true)-> body -(jump)-> header; header -(false)-> exit
        let mut cfg = Cfg::new("loop");
        let entry = cfg.add_block("entry", Terminator::Return);
        let header = cfg.add_block("header", Terminator::Return);
        let body = cfg.add_block("body", Terminator::Jump(header));
        let exit = cfg.add_block("exit", Terminator::Return);
        cfg.set_terminator(entry, Terminator::Jump(header));
        cfg.set_terminator(
            header,
            Terminator::Branch {
                on_true: body,
                on_false: exit,
            },
        );
        cfg
    }

    #[test]
    fn diamond_validates() {
        assert!(diamond().validate().is_ok());
    }

    #[test]
    fn diamond_edges_have_stable_order() {
        let cfg = diamond();
        let edges = cfg.edges();
        assert_eq!(edges.len(), 4);
        assert_eq!(cfg.edge_count(), 4);
        assert_eq!(while_loop().edge_count(), while_loop().edges().len());
        assert_eq!(edges[0].kind, EdgeKind::BranchTrue);
        assert_eq!(edges[1].kind, EdgeKind::BranchFalse);
        assert_eq!(edges[0].from, BlockId(0));
        assert_eq!(edges[2].kind, EdgeKind::Jump);
        // Indices are consecutive.
        for (i, e) in edges.iter().enumerate() {
            assert_eq!(e.index, i);
        }
    }

    #[test]
    fn predecessors_are_computed() {
        let cfg = diamond();
        let preds = cfg.predecessors();
        // Join block (id 3) has both arms as predecessors.
        assert_eq!(preds[3], vec![BlockId(1), BlockId(2)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn exit_and_branch_block_queries() {
        let cfg = diamond();
        assert_eq!(cfg.exit_blocks(), vec![BlockId(3)]);
        assert_eq!(cfg.branch_blocks(), vec![BlockId(0)]);
    }

    #[test]
    fn reverse_postorder_topologically_sorts_dag() {
        let cfg = diamond();
        let rpo = cfg.reverse_postorder();
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert_eq!(pos(BlockId(0)), 0);
        assert!(pos(BlockId(1)) < pos(BlockId(3)));
        assert!(pos(BlockId(2)) < pos(BlockId(3)));
    }

    #[test]
    fn acyclic_detection() {
        assert!(diamond().is_acyclic());
        assert!(!loop_cfg().is_acyclic());
    }

    #[test]
    fn loop_cfg_validates() {
        assert!(loop_cfg().validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(Cfg::new("x").validate(), Err(CfgError::Empty));
    }

    #[test]
    fn validate_rejects_out_of_range_target() {
        let mut cfg = Cfg::new("x");
        cfg.add_block("entry", Terminator::Jump(BlockId(9)));
        assert!(matches!(
            cfg.validate(),
            Err(CfgError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_unreachable() {
        let mut cfg = Cfg::new("x");
        cfg.add_block("entry", Terminator::Return);
        cfg.add_block("island", Terminator::Return);
        assert_eq!(
            cfg.validate(),
            Err(CfgError::Unreachable { block: BlockId(1) })
        );
    }

    #[test]
    fn validate_rejects_degenerate_branch() {
        let mut cfg = Cfg::new("x");
        let b1 = BlockId(1);
        cfg.add_block(
            "entry",
            Terminator::Branch {
                on_true: b1,
                on_false: b1,
            },
        );
        cfg.add_block("next", Terminator::Return);
        assert!(matches!(
            cfg.validate(),
            Err(CfgError::DegenerateBranch { .. })
        ));
    }

    #[test]
    fn validate_rejects_no_exit() {
        let mut cfg = Cfg::new("x");
        let e = cfg.add_block("entry", Terminator::Return);
        cfg.set_terminator(e, Terminator::Jump(e));
        assert_eq!(cfg.validate(), Err(CfgError::NoExit));
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId(4).to_string(), "b4");
    }

    #[test]
    fn error_display_is_informative() {
        let e = CfgError::Unreachable { block: BlockId(2) };
        assert!(e.to_string().contains("unreachable"));
    }
}
