//! Graphviz DOT rendering of CFGs, for documentation and debugging.

use crate::graph::{Cfg, EdgeKind};
use std::fmt::Write as _;

/// Renders `cfg` as a Graphviz `digraph`.
///
/// Branch edges are labeled `T`/`F`; jumps are unlabeled.
///
/// # Examples
///
/// ```
/// use ct_cfg::builder::diamond;
/// use ct_cfg::dot::to_dot;
/// let dot = to_dot(&diamond());
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("label=\"T\""));
/// ```
pub fn to_dot(cfg: &Cfg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", cfg.name());
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for (id, b) in cfg.iter() {
        let _ = writeln!(out, "  {} [label=\"{}\\n{}\"];", id, id, b.name);
    }
    for e in cfg.edges() {
        let _ = match e.kind {
            EdgeKind::BranchTrue => writeln!(out, "  {} -> {} [label=\"T\"];", e.from, e.to),
            EdgeKind::BranchFalse => writeln!(out, "  {} -> {} [label=\"F\"];", e.from, e.to),
            EdgeKind::Jump => writeln!(out, "  {} -> {};", e.from, e.to),
        };
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{diamond, linear};

    #[test]
    fn dot_contains_all_blocks_and_edges() {
        let cfg = diamond();
        let dot = to_dot(&cfg);
        for id in cfg.block_ids() {
            assert!(dot.contains(&format!("{id} [label=")));
        }
        assert_eq!(dot.matches("->").count(), cfg.edges().len());
    }

    #[test]
    fn jump_edges_have_no_label() {
        let dot = to_dot(&linear(3));
        assert!(!dot.contains("label=\"T\""));
        assert!(dot.contains("b0 -> b1;"));
    }
}
