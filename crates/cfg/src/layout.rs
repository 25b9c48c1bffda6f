//! Code layout: the flash-memory order of basic blocks and its cost model.
//!
//! A [`Layout`] decides which successor of every conditional branch is the
//! fall-through. On mote MCUs with static predict-not-taken pipelines, a
//! *taken* conditional branch is a misprediction (pipeline bubble), and an
//! unconditional jump costs cycles that a fall-through would not. The same
//! accounting is used prospectively by `ct-placement` (to choose a layout
//! from a profile) and dynamically by `ct-mote` (to charge cycles during
//! simulation), so the optimizer and the machine always agree.

use crate::graph::{BlockId, Cfg, Terminator};
use crate::profile::EdgeProfile;

/// Extra-cycle parameters for control transfers under a concrete layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PenaltyModel {
    /// Extra cycles when a conditional branch is taken (static
    /// predict-not-taken misprediction / pipeline refill).
    pub taken_branch_extra: u64,
    /// Cycles of an unconditional jump instruction that the layout failed to
    /// elide.
    pub jump_cycles: u64,
}

impl PenaltyModel {
    /// AVR-class defaults: a taken branch costs one extra cycle on ATmega,
    /// and `rjmp` costs two cycles.
    pub fn avr() -> PenaltyModel {
        PenaltyModel {
            taken_branch_extra: 1,
            jump_cycles: 2,
        }
    }

    /// MSP430-class defaults: both taken conditional jumps and `jmp` cost two
    /// cycles versus zero for straight-line fetch.
    pub fn msp430() -> PenaltyModel {
        PenaltyModel {
            taken_branch_extra: 2,
            jump_cycles: 2,
        }
    }

    /// Extra cycles of one transfer realized as `kind`: `0` for a
    /// fall-through, the taken penalty for a taken branch (over a jump or
    /// not), the jump cost for a materialized jump.
    pub fn cost(&self, kind: TransferKind) -> u64 {
        match kind {
            TransferKind::FallThrough => 0,
            TransferKind::TakenBranch | TransferKind::TakenBranchOverJump => {
                self.taken_branch_extra
            }
            TransferKind::Jump => self.jump_cycles,
        }
    }
}

impl Default for PenaltyModel {
    fn default() -> Self {
        PenaltyModel::avr()
    }
}

/// A static branch-prediction model: how the front end guesses a
/// conditional branch's direction before the condition resolves.
///
/// Mote-class MCUs have no dynamic predictor; what they do have is a fixed
/// rule baked into the pipeline. The two rules that occur in practice:
///
/// - [`BranchPredictor::AlwaysNotTaken`] — every conditional is predicted
///   to fall through, so every *taken* branch pays the refill penalty.
///   This is the rule both [`PenaltyModel`] presets charge for, and the
///   implicit model behind `branches_taken == mispredictions`.
/// - [`BranchPredictor::Btfnt`] — backward-taken/forward-not-taken: a
///   branch whose taken-target lies at or before it in flash is predicted
///   taken (loop back-edges usually are), a forward branch predicted not
///   taken.
///
/// The prediction keys off the *taken-target* of the machine branch, which
/// depends on the layout's polarity for the block — see
/// [`Layout::edge_transfers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchPredictor {
    /// Predict every conditional branch not taken (fall through).
    #[default]
    AlwaysNotTaken,
    /// Predict taken iff the branch's taken-target is backward in layout.
    Btfnt,
}

impl BranchPredictor {
    /// Whether this model predicts a branch taken, given whether the
    /// branch's taken-target lies backward (at or before the branch) in
    /// the layout.
    pub fn predicts_taken(self, backward_target: bool) -> bool {
        match self {
            BranchPredictor::AlwaysNotTaken => false,
            BranchPredictor::Btfnt => backward_target,
        }
    }

    /// Whether an execution that resolved to `taken` mispredicts under
    /// this model.
    pub fn mispredicts(self, taken: bool, backward_target: bool) -> bool {
        taken != self.predicts_taken(backward_target)
    }

    /// Human-readable model name.
    pub fn name(self) -> &'static str {
        match self {
            BranchPredictor::AlwaysNotTaken => "always-not-taken",
            BranchPredictor::Btfnt => "btfnt",
        }
    }
}

/// A permutation of a procedure's blocks — their flash order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    order: Vec<BlockId>,
    /// position[b] = index of block b within `order`.
    position: Vec<usize>,
}

impl Layout {
    /// The layout that keeps blocks in id order (the "original" compiler
    /// output before placement optimization).
    pub fn natural(cfg: &Cfg) -> Layout {
        Layout::from_order(cfg, cfg.block_ids().collect()).expect("identity order is valid")
    }

    /// Builds a layout from an explicit block order.
    ///
    /// Returns `None` unless `order` is a permutation of the blocks of `cfg`
    /// starting with the entry block (the entry must be first: the caller
    /// jumps to the procedure's first flash address).
    pub fn from_order(cfg: &Cfg, order: Vec<BlockId>) -> Option<Layout> {
        if order.len() != cfg.len() {
            return None;
        }
        if order.first() != Some(&cfg.entry()) {
            return None;
        }
        let mut position = vec![usize::MAX; cfg.len()];
        for (i, b) in order.iter().enumerate() {
            if b.index() >= cfg.len() || position[b.index()] != usize::MAX {
                return None;
            }
            position[b.index()] = i;
        }
        Some(Layout { order, position })
    }

    /// The block order.
    pub fn order(&self) -> &[BlockId] {
        &self.order
    }

    /// Flash position of `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range for this layout.
    pub fn position(&self, b: BlockId) -> usize {
        self.position[b.index()]
    }

    /// The block physically following `b`, if any.
    pub fn next_in_layout(&self, b: BlockId) -> Option<BlockId> {
        let p = self.position(b);
        self.order.get(p + 1).copied()
    }

    /// Classifies the machine-level transfer realizing CFG edge `from → to`
    /// under this layout.
    ///
    /// For a conditional branch with successors `(t, f)`:
    /// - if `f` is next in layout: `t` is a taken branch, `f` falls through;
    /// - if `t` is next in layout: the condition is inverted, so `f` is a
    ///   taken branch and `t` falls through;
    /// - otherwise the compiler emits `brcond t; jmp f`: the `t` edge is a
    ///   taken branch over the jump, and the `f` edge pays the jump.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a successor of `from`.
    pub fn transfer_kind(&self, cfg: &Cfg, from: BlockId, to: BlockId) -> TransferKind {
        let next = self.next_in_layout(from);
        match cfg.block(from).term {
            Terminator::Jump(t) => {
                assert_eq!(t, to, "to must be a successor of from");
                if next == Some(t) {
                    TransferKind::FallThrough
                } else {
                    TransferKind::Jump
                }
            }
            Terminator::Branch { on_true, on_false } => {
                assert!(
                    to == on_true || to == on_false,
                    "to must be a successor of from"
                );
                if next == Some(on_false) {
                    if to == on_true {
                        TransferKind::TakenBranch
                    } else {
                        TransferKind::FallThrough
                    }
                } else if next == Some(on_true) {
                    // Inverted polarity.
                    if to == on_false {
                        TransferKind::TakenBranch
                    } else {
                        TransferKind::FallThrough
                    }
                } else {
                    // Neither successor adjacent: brcond t; jmp f.
                    if to == on_true {
                        TransferKind::TakenBranchOverJump
                    } else {
                        TransferKind::Jump
                    }
                }
            }
            Terminator::Return => panic!("return block has no successors"),
        }
    }

    /// Classifies every CFG edge's machine-level transfer under this layout,
    /// indexed by [`Cfg::edges`] order — the per-edge facts the
    /// predictor-aware cost evaluators consume. (The mote's virtual PMU
    /// classifies its placed image on its own, so the two can check each
    /// other.)
    ///
    /// For a conditional branch the *taken-target* depends on the polarity
    /// the layout forces (see [`Layout::transfer_kind`]): the successor that
    /// is **not** the fall-through is the target the machine branch jumps to.
    /// When neither successor is adjacent (`brcond t; jmp f`), the machine
    /// conditional targets `t` and the false edge rides the jump with the
    /// conditional *not* taken.
    pub fn edge_transfers(&self, cfg: &Cfg) -> Vec<EdgeTransfer> {
        cfg.edges()
            .iter()
            .map(|e| {
                let kind = self.transfer_kind(cfg, e.from, e.to);
                match cfg.block(e.from).term {
                    Terminator::Branch { on_true, on_false } => {
                        let next = self.next_in_layout(e.from);
                        let taken_target = if next == Some(on_false) {
                            on_true
                        } else if next == Some(on_true) {
                            // Inverted polarity: the machine branch jumps to
                            // the false successor.
                            on_false
                        } else {
                            // brcond t; jmp f.
                            on_true
                        };
                        EdgeTransfer {
                            kind,
                            conditional: true,
                            taken: e.to == taken_target && kind != TransferKind::Jump,
                            backward_target: self.position(taken_target) <= self.position(e.from),
                        }
                    }
                    _ => EdgeTransfer {
                        kind,
                        conditional: false,
                        taken: false,
                        backward_target: false,
                    },
                }
            })
            .collect()
    }

    /// Evaluates this layout against an edge profile: total extra cycles and
    /// the conditional-branch misprediction statistics, under the
    /// [`BranchPredictor::AlwaysNotTaken`] model (both MCU presets' penalty
    /// semantics). See [`Layout::evaluate_under`] for other predictors.
    pub fn evaluate(
        &self,
        cfg: &Cfg,
        profile: &EdgeProfile,
        penalties: &PenaltyModel,
    ) -> LayoutCost {
        self.evaluate_under(cfg, profile, penalties, BranchPredictor::AlwaysNotTaken)
    }

    /// Evaluates this layout against an edge profile with an explicit
    /// predictor model deciding which conditional executions mispredict.
    ///
    /// The penalty arithmetic (`extra_cycles`) always charges the
    /// taken-branch penalty — that is what the layout costs on the machine;
    /// the predictor only attributes `mispredicted`.
    pub fn evaluate_under(
        &self,
        cfg: &Cfg,
        profile: &EdgeProfile,
        penalties: &PenaltyModel,
        predictor: BranchPredictor,
    ) -> LayoutCost {
        let mut cost = LayoutCost::default();
        for (e, t) in cfg.edges().iter().zip(self.edge_transfers(cfg)) {
            let n = profile.count(e.index);
            if n == 0 {
                continue;
            }
            match t.kind {
                TransferKind::FallThrough => {}
                TransferKind::TakenBranch | TransferKind::TakenBranchOverJump => {
                    cost.extra_cycles += n * penalties.taken_branch_extra;
                }
                TransferKind::Jump => {
                    cost.jumps_executed += n;
                    cost.extra_cycles += n * penalties.jump_cycles;
                }
            }
            if t.conditional {
                if t.taken {
                    cost.branches_taken += n;
                } else {
                    cost.branches_not_taken += n;
                }
                if predictor.mispredicts(t.taken, t.backward_target) {
                    cost.mispredicted += n;
                }
            }
        }
        cost
    }
}

/// The machine-level facts of one CFG edge under a concrete layout: what
/// instruction realizes it and how a static predictor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeTransfer {
    /// The transfer realizing the edge.
    pub kind: TransferKind,
    /// The source block ends in a conditional branch.
    pub conditional: bool,
    /// Control following this edge takes the machine conditional branch
    /// (always `false` for unconditional sources and for the false edge of
    /// a both-ways-displaced branch, which falls through into the jump).
    pub taken: bool,
    /// The machine branch's taken-target lies at or before the branch in
    /// layout order (what [`BranchPredictor::Btfnt`] keys off).
    pub backward_target: bool,
}

/// Machine-level realization of a CFG edge under a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// Straight-line fetch continues; no extra cost.
    FallThrough,
    /// A conditional branch that is taken (mispredicted under static
    /// not-taken prediction).
    TakenBranch,
    /// A conditional branch taken over a materialized `jmp` (branch target
    /// displaced).
    TakenBranchOverJump,
    /// An executed unconditional jump.
    Jump,
}

/// Aggregate cost of running a profile under a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayoutCost {
    /// Conditional branch executions that were taken.
    pub branches_taken: u64,
    /// Conditional branch executions that fell through.
    pub branches_not_taken: u64,
    /// Unconditional jumps executed (not elided by adjacency).
    pub jumps_executed: u64,
    /// Total extra cycles versus an ideal all-fall-through layout.
    pub extra_cycles: u64,
    /// Conditional executions the evaluating [`BranchPredictor`] got wrong.
    /// Equal to `branches_taken` under
    /// [`BranchPredictor::AlwaysNotTaken`] (the default evaluator).
    pub mispredicted: u64,
}

impl LayoutCost {
    /// Fraction of conditional branch executions the predictor got wrong;
    /// `0.0` when no conditional branches executed.
    pub fn misprediction_rate(&self) -> f64 {
        let total = self.branches_taken + self.branches_not_taken;
        if total == 0 {
            0.0
        } else {
            self.mispredicted as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{diamond, linear};

    #[test]
    fn natural_layout_is_identity() {
        let cfg = diamond();
        let l = Layout::natural(&cfg);
        assert_eq!(l.order(), &[BlockId(0), BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(l.position(BlockId(2)), 2);
    }

    #[test]
    fn from_order_rejects_non_permutations() {
        let cfg = diamond();
        assert!(Layout::from_order(&cfg, vec![BlockId(0), BlockId(1)]).is_none());
        assert!(
            Layout::from_order(&cfg, vec![BlockId(0), BlockId(1), BlockId(1), BlockId(3)])
                .is_none()
        );
        // Entry must come first.
        assert!(
            Layout::from_order(&cfg, vec![BlockId(1), BlockId(0), BlockId(2), BlockId(3)])
                .is_none()
        );
    }

    #[test]
    fn linear_natural_layout_is_all_fallthrough() {
        let cfg = linear(4);
        let l = Layout::natural(&cfg);
        for e in cfg.edges() {
            assert_eq!(
                l.transfer_kind(&cfg, e.from, e.to),
                TransferKind::FallThrough
            );
        }
    }

    #[test]
    fn diamond_natural_layout_classification() {
        let cfg = diamond();
        let l = Layout::natural(&cfg);
        // Order: cond, then, else, join.
        // cond: next is then (= on_true) → inverted polarity: true falls
        // through, false is a taken branch.
        assert_eq!(
            l.transfer_kind(&cfg, BlockId(0), BlockId(1)),
            TransferKind::FallThrough
        );
        assert_eq!(
            l.transfer_kind(&cfg, BlockId(0), BlockId(2)),
            TransferKind::TakenBranch
        );
        // then → join: else intervenes, so the jump is materialized.
        assert_eq!(
            l.transfer_kind(&cfg, BlockId(1), BlockId(3)),
            TransferKind::Jump
        );
        // else → join: adjacent, elided.
        assert_eq!(
            l.transfer_kind(&cfg, BlockId(2), BlockId(3)),
            TransferKind::FallThrough
        );
    }

    #[test]
    fn displaced_branch_uses_branch_over_jump() {
        let cfg = diamond();
        // Order: cond, join, then, else — neither successor adjacent to cond.
        let l =
            Layout::from_order(&cfg, vec![BlockId(0), BlockId(3), BlockId(1), BlockId(2)]).unwrap();
        assert_eq!(
            l.transfer_kind(&cfg, BlockId(0), BlockId(1)),
            TransferKind::TakenBranchOverJump
        );
        assert_eq!(
            l.transfer_kind(&cfg, BlockId(0), BlockId(2)),
            TransferKind::Jump
        );
    }

    #[test]
    fn evaluate_counts_mispredictions() {
        let cfg = diamond();
        let l = Layout::natural(&cfg);
        // 30 true, 10 false.
        let prof = EdgeProfile::from_counts(&cfg, vec![30, 10, 30, 10]);
        let cost = l.evaluate(&cfg, &prof, &PenaltyModel::avr());
        // true falls through (30 not taken), false is taken (10 mispredicts),
        // then→join is 30 executed jumps.
        assert_eq!(cost.branches_taken, 10);
        assert_eq!(cost.branches_not_taken, 30);
        assert_eq!(cost.jumps_executed, 30);
        assert_eq!(cost.extra_cycles, 10 + 30 * 2);
        assert!((cost.misprediction_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn better_layout_reduces_cost() {
        let cfg = diamond();
        let prof = EdgeProfile::from_counts(&cfg, vec![30, 10, 30, 10]);
        let natural = Layout::natural(&cfg);
        // Hot path cond→then→join contiguous: cond, then, join, else.
        let optimized =
            Layout::from_order(&cfg, vec![BlockId(0), BlockId(1), BlockId(3), BlockId(2)]).unwrap();
        let pen = PenaltyModel::avr();
        let c_nat = natural.evaluate(&cfg, &prof, &pen);
        let c_opt = optimized.evaluate(&cfg, &prof, &pen);
        assert!(
            c_opt.extra_cycles < c_nat.extra_cycles,
            "{c_opt:?} vs {c_nat:?}"
        );
        // Hot-path layout: true falls through, false taken (10), else→join
        // jump (10): extra = 10*1 + 10*2 = 30 < 70.
        assert_eq!(c_opt.extra_cycles, 30);
    }

    #[test]
    fn misprediction_rate_zero_when_no_branches() {
        let cfg = linear(3);
        let l = Layout::natural(&cfg);
        let prof = EdgeProfile::from_counts(&cfg, vec![5, 5]);
        let cost = l.evaluate(&cfg, &prof, &PenaltyModel::avr());
        assert_eq!(cost.misprediction_rate(), 0.0);
        assert_eq!(cost.extra_cycles, 0);
    }

    #[test]
    fn penalty_model_presets_differ() {
        assert_ne!(PenaltyModel::avr(), PenaltyModel::msp430());
        assert_eq!(PenaltyModel::default(), PenaltyModel::avr());
    }

    #[test]
    fn edge_transfers_track_polarity_and_direction() {
        let cfg = diamond();
        // Natural order [cond, then, else, join]: then (= on_true) is next,
        // so the machine branch targets else — a *forward* taken-target.
        let l = Layout::natural(&cfg);
        let t = l.edge_transfers(&cfg);
        // Edge 0: cond→then (true edge) falls through, branch not taken.
        assert!(t[0].conditional && !t[0].taken && !t[0].backward_target);
        // Edge 1: cond→else (false edge) takes the inverted branch forward.
        assert!(t[1].conditional && t[1].taken && !t[1].backward_target);
        // Edge 2: then→join is a materialized unconditional jump.
        assert!(!t[2].conditional && !t[2].taken);
        assert_eq!(t[2].kind, TransferKind::Jump);

        // Order [cond, join, then, else]: both successors displaced, so the
        // machine emits brcond then; jmp else — the taken-target (then) is
        // forward, and the false edge rides the jump with the branch NOT
        // taken.
        let d =
            Layout::from_order(&cfg, vec![BlockId(0), BlockId(3), BlockId(1), BlockId(2)]).unwrap();
        let t = d.edge_transfers(&cfg);
        assert!(t[0].conditional && t[0].taken && !t[0].backward_target);
        assert_eq!(t[0].kind, TransferKind::TakenBranchOverJump);
        assert!(t[1].conditional && !t[1].taken);
        assert_eq!(t[1].kind, TransferKind::Jump);
    }

    #[test]
    fn predictor_models_disagree_only_on_backward_targets() {
        let ant = BranchPredictor::AlwaysNotTaken;
        let btfnt = BranchPredictor::Btfnt;
        // Forward taken-target: both predict not-taken.
        assert!(ant.mispredicts(true, false));
        assert!(btfnt.mispredicts(true, false));
        assert!(!ant.mispredicts(false, false));
        assert!(!btfnt.mispredicts(false, false));
        // Backward taken-target: BTFNT predicts taken, ANT still not-taken.
        assert!(ant.mispredicts(true, true));
        assert!(!btfnt.mispredicts(true, true));
        assert!(!ant.mispredicts(false, true));
        assert!(btfnt.mispredicts(false, true));
        assert_eq!(BranchPredictor::default(), ant);
        assert_ne!(ant.name(), btfnt.name());
    }

    #[test]
    fn evaluate_under_ant_matches_evaluate_bitwise() {
        let cfg = diamond();
        let prof = EdgeProfile::from_counts(&cfg, vec![30, 10, 30, 10]);
        for order in [
            vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3)],
            vec![BlockId(0), BlockId(2), BlockId(1), BlockId(3)],
            vec![BlockId(0), BlockId(3), BlockId(1), BlockId(2)],
        ] {
            let l = Layout::from_order(&cfg, order).unwrap();
            let pen = PenaltyModel::avr();
            let plain = l.evaluate(&cfg, &prof, &pen);
            let under = l.evaluate_under(&cfg, &prof, &pen, BranchPredictor::AlwaysNotTaken);
            assert_eq!(plain, under);
            assert_eq!(plain.mispredicted, plain.branches_taken);
        }
    }

    #[test]
    fn btfnt_flips_mispredictions_on_a_backward_branch() {
        // Layout [cond, else, then, join]: else (= on_false) is next, so
        // the machine branch targets then, which sits *after* cond —
        // forward. Reverse polarity instead: [cond, then, else, join] puts
        // the taken-target (else) forward too. To get a backward target we
        // need the taken-target at or before the branch — impossible in a
        // diamond whose entry is the branch, so the branch block's own
        // position bounds it: position(target) <= position(cond) only for
        // cond itself. Build a loop shape instead: a 2-block CFG where the
        // branch jumps back to itself.
        use crate::graph::{Cfg, Terminator};
        let mut cfg = Cfg::new("self_loop");
        let head = cfg.add_block(
            "head",
            Terminator::Branch {
                on_true: BlockId(0),
                on_false: BlockId(1),
            },
        );
        cfg.add_block("exit", Terminator::Return);
        assert_eq!(head, BlockId(0));
        cfg.validate().expect("valid loop cfg");
        let l = Layout::natural(&cfg);
        let t = l.edge_transfers(&cfg);
        // True edge loops back: taken branch with a backward target.
        assert!(t[0].taken && t[0].backward_target);
        // 7 back-edge traversals, 1 exit.
        let prof = EdgeProfile::from_counts(&cfg, vec![7, 1]);
        let pen = PenaltyModel::avr();
        let ant = l.evaluate_under(&cfg, &prof, &pen, BranchPredictor::AlwaysNotTaken);
        let btfnt = l.evaluate_under(&cfg, &prof, &pen, BranchPredictor::Btfnt);
        // ANT mispredicts every taken back-edge; BTFNT predicts them and
        // only misses the final fall-through exit.
        assert_eq!(ant.mispredicted, 7);
        assert_eq!(btfnt.mispredicted, 1);
        // The machine cost is identical — prediction models only relabel.
        assert_eq!(ant.extra_cycles, btfnt.extra_cycles);
    }
}
