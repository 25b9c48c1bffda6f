//! Property-based tests over CFG analyses using randomly generated
//! structured graphs.

use ct_cfg::builder::{diamond_chain, linear};
use ct_cfg::dominators::Dominators;
use ct_cfg::graph::{BlockId, Cfg, Terminator};
use ct_cfg::layout::{Layout, PenaltyModel};
use ct_cfg::loops::{is_reducible, LoopForest};
use ct_cfg::paths::{count_paths, enumerate_paths};
use ct_cfg::profile::EdgeProfile;
use proptest::prelude::*;

/// Generates a random structured CFG by interpreting a byte script as nested
/// if/while constructs (mirrors NLC lowering shapes).
fn structured_cfg(script: &[u8]) -> Cfg {
    #[derive(Clone, Copy)]
    enum Item {
        Straight,
        IfElse,
        Loop,
    }
    let items: Vec<Item> = script
        .iter()
        .map(|b| match b % 3 {
            0 => Item::Straight,
            1 => Item::IfElse,
            _ => Item::Loop,
        })
        .collect();

    let mut cfg = Cfg::new("generated");
    let entry = cfg.add_block("entry", Terminator::Return);
    let mut cur = entry;
    for (i, item) in items.iter().enumerate() {
        match item {
            Item::Straight => {
                let b = cfg.add_block(format!("s{i}"), Terminator::Return);
                cfg.set_terminator(cur, Terminator::Jump(b));
                cur = b;
            }
            Item::IfElse => {
                let join = cfg.add_block(format!("join{i}"), Terminator::Return);
                let t = cfg.add_block(format!("then{i}"), Terminator::Jump(join));
                let e = cfg.add_block(format!("else{i}"), Terminator::Jump(join));
                cfg.set_terminator(
                    cur,
                    Terminator::Branch {
                        on_true: t,
                        on_false: e,
                    },
                );
                cur = join;
            }
            Item::Loop => {
                let header = cfg.add_block(format!("head{i}"), Terminator::Return);
                let body = cfg.add_block(format!("body{i}"), Terminator::Jump(header));
                let exit = cfg.add_block(format!("exit{i}"), Terminator::Return);
                cfg.set_terminator(cur, Terminator::Jump(header));
                cfg.set_terminator(
                    header,
                    Terminator::Branch {
                        on_true: body,
                        on_false: exit,
                    },
                );
                cur = exit;
            }
        }
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated structured graphs validate, are reducible, and have
    /// exactly one Return block.
    #[test]
    fn structured_graphs_are_reducible_with_one_exit(script in proptest::collection::vec(0u8..=255, 0..12)) {
        let cfg = structured_cfg(&script);
        prop_assert!(cfg.validate().is_ok());
        prop_assert!(is_reducible(&cfg));
        prop_assert_eq!(cfg.exit_blocks().len(), 1);
    }

    /// The dominator of every block's predecessors set includes the idom.
    #[test]
    fn idom_dominates_block(script in proptest::collection::vec(0u8..=255, 0..10)) {
        let cfg = structured_cfg(&script);
        let dom = Dominators::compute(&cfg);
        for b in cfg.block_ids() {
            if let Some(d) = dom.idom(b) {
                prop_assert!(dom.dominates(d, b));
            }
        }
    }

    /// Loop headers dominate their bodies; depth never exceeds loop count.
    #[test]
    fn loop_invariants(script in proptest::collection::vec(0u8..=255, 0..10)) {
        let cfg = structured_cfg(&script);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::compute(&cfg);
        for l in forest.loops() {
            for &b in &l.body {
                prop_assert!(dom.dominates(l.header, b));
            }
        }
        for b in cfg.block_ids() {
            prop_assert!(forest.depth_of(b) <= forest.len());
        }
    }

    /// Path enumeration agrees with path counting on DAGs.
    #[test]
    fn path_count_consistency(k in 1usize..8) {
        let cfg = diamond_chain(k);
        let n = count_paths(&cfg);
        let paths = enumerate_paths(&cfg, 1 << 12).unwrap();
        prop_assert_eq!(paths.len() as u64, n);
    }

    /// Any valid layout's evaluated branch executions partition the total:
    /// taken + not-taken = all conditional traversals.
    #[test]
    fn layout_cost_partitions_branches(
        counts in proptest::collection::vec(0u64..1000, 4),
        swap in any::<bool>(),
    ) {
        let cfg = ct_cfg::builder::diamond();
        // Make the counts flow-consistent: then/else arm counts mirror the
        // branch edges.
        let prof = EdgeProfile::from_counts(&cfg, vec![counts[0], counts[1], counts[0], counts[1]]);
        let layout = if swap {
            Layout::from_order(&cfg, vec![BlockId(0), BlockId(2), BlockId(1), BlockId(3)]).unwrap()
        } else {
            Layout::natural(&cfg)
        };
        let cost = layout.evaluate(&cfg, &prof, &PenaltyModel::avr());
        prop_assert_eq!(cost.branches_taken + cost.branches_not_taken, counts[0] + counts[1]);
    }

    /// Linear graphs always have exactly one path and zero layout cost in
    /// natural order.
    #[test]
    fn linear_is_free(n in 1usize..30) {
        let cfg = linear(n);
        prop_assert_eq!(count_paths(&cfg), 1);
        let counts = vec![1u64; cfg.edges().len()];
        let prof = EdgeProfile::from_counts(&cfg, counts);
        let cost = Layout::natural(&cfg).evaluate(&cfg, &prof, &PenaltyModel::avr());
        prop_assert_eq!(cost.extra_cycles, 0);
    }
}
