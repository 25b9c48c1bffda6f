//! MCU instruction-timing cost models.
//!
//! Each abstract instruction of `ct-ir` has a fixed cycle cost under a cost
//! model, so every basic block has a *static* cost — the foundation of the
//! Code Tomography duration model. Two calibrations are provided, patterned
//! after the MCU classes of the paper's platforms:
//!
//! - [`AvrCost`] — ATmega128-class (MicaZ): 8-bit core, 1-cycle ALU,
//!   software division, 1-cycle taken-branch penalty;
//! - [`Msp430Cost`] — MSP430-class (TelosB): 16-bit core, memory-to-memory
//!   ISA with slower loads/stores, 2-cycle taken-jump penalty.
//!
//! The numbers are calibrated to datasheet orders of magnitude, not exact
//! per-opcode tables; the estimation code path only requires that they are
//! fixed and known (see DESIGN.md, substitution table).

use ct_cfg::graph::Terminator;
use ct_cfg::layout::{BranchPredictor, PenaltyModel};
use ct_ir::ast::BinOp;
use ct_ir::instr::{Instr, Intrinsic};
use ct_ir::program::Procedure;

/// An MCU instruction-timing model.
///
/// Implementations must be deterministic: the same instruction always costs
/// the same number of cycles.
pub trait CostModel {
    /// Cycles of one stack-machine instruction (for `Call`, the call/return
    /// overhead only — the callee's body is charged to the callee's blocks).
    fn instr_cost(&self, instr: &Instr) -> u64;
    /// Base cycles of a conditional branch terminator (compare-and-branch,
    /// not-taken case; the taken penalty comes from [`Self::penalties`]).
    fn branch_base(&self) -> u64;
    /// Cycles of a `Return` terminator.
    fn return_cost(&self) -> u64;
    /// Layout-dependent control-transfer penalties.
    fn penalties(&self) -> PenaltyModel;
    /// The static branch-prediction rule this MCU class implements. Both
    /// presets are predict-not-taken cores — the taken-branch penalty in
    /// [`Self::penalties`] *is* the misprediction penalty — so the default
    /// is [`BranchPredictor::AlwaysNotTaken`]; the virtual PMU counts the
    /// BTFNT what-if alongside regardless.
    fn predictor(&self) -> BranchPredictor {
        BranchPredictor::AlwaysNotTaken
    }
    /// Human-readable model name.
    fn name(&self) -> &str;
}

/// ATmega128-class cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AvrCost;

impl CostModel for AvrCost {
    fn instr_cost(&self, instr: &Instr) -> u64 {
        match instr {
            Instr::PushConst(_) => 2,
            Instr::LoadLocal(_) | Instr::StoreLocal(_) => 4,
            Instr::LoadGlobal(_) | Instr::StoreGlobal(_) => 4,
            Instr::LoadElem(_) => 8,
            Instr::StoreElem(_) => 8,
            Instr::Unary(_) => 2,
            Instr::Binary(op) => match op {
                BinOp::Mul => 4,
                BinOp::Div | BinOp::Rem => 40, // software divide
                BinOp::Shl | BinOp::Shr => 6,  // loop shifts on AVR
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => 4,
                _ => 2,
            },
            Instr::Cast(_) => 2,
            Instr::Call(_) => 8,
            Instr::Intrinsic(i) => match i {
                Intrinsic::ReadAdc => 120,
                Intrinsic::LedSet | Intrinsic::LedToggle => 4,
                Intrinsic::SendMsg => 300,
                Intrinsic::RecvAvail => 10,
                Intrinsic::RecvMsg => 20,
                Intrinsic::NodeId => 4,
            },
            Instr::Pop => 2,
        }
    }

    fn branch_base(&self) -> u64 {
        2
    }

    fn return_cost(&self) -> u64 {
        8
    }

    fn penalties(&self) -> PenaltyModel {
        PenaltyModel::avr()
    }

    fn name(&self) -> &str {
        "avr"
    }
}

/// MSP430-class cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Msp430Cost;

impl CostModel for Msp430Cost {
    fn instr_cost(&self, instr: &Instr) -> u64 {
        match instr {
            Instr::PushConst(_) => 2,
            Instr::LoadLocal(_) | Instr::StoreLocal(_) => 3,
            Instr::LoadGlobal(_) | Instr::StoreGlobal(_) => 4,
            Instr::LoadElem(_) => 6,
            Instr::StoreElem(_) => 6,
            Instr::Unary(_) => 1,
            Instr::Binary(op) => match op {
                BinOp::Mul => 8, // no hardware multiplier on the base core
                BinOp::Div | BinOp::Rem => 60,
                BinOp::Shl | BinOp::Shr => 4,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => 2,
                _ => 1,
            },
            Instr::Cast(_) => 1,
            Instr::Call(_) => 10,
            Instr::Intrinsic(i) => match i {
                Intrinsic::ReadAdc => 90,
                Intrinsic::LedSet | Intrinsic::LedToggle => 5,
                Intrinsic::SendMsg => 250,
                Intrinsic::RecvAvail => 8,
                Intrinsic::RecvMsg => 16,
                Intrinsic::NodeId => 3,
            },
            Instr::Pop => 1,
        }
    }

    fn branch_base(&self) -> u64 {
        2
    }

    fn return_cost(&self) -> u64 {
        5
    }

    fn penalties(&self) -> PenaltyModel {
        PenaltyModel::msp430()
    }

    fn name(&self) -> &str {
        "msp430"
    }
}

/// Static per-block cycle costs of a procedure: instruction costs plus the
/// terminator's base cost. Layout-dependent transfer penalties are *not*
/// included — they are per-edge costs (see
/// [`Mote::static_edge_costs`](crate::interp::Mote::static_edge_costs)).
pub fn block_costs(proc: &Procedure, model: &dyn CostModel) -> Vec<u64> {
    proc.cfg
        .iter()
        .map(|(id, b)| {
            let instrs: u64 = proc
                .block_code(id)
                .iter()
                .map(|i| model.instr_cost(i))
                .sum();
            let term = match b.term {
                Terminator::Branch { .. } => model.branch_base(),
                Terminator::Jump(_) => 0,
                Terminator::Return => model.return_cost(),
            };
            instrs + term
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "module M { var a: u16; proc f(x: u16) {
        if (x > 5) { a = a + x; } else { a = 0; }
    } }";

    fn sample_proc() -> Procedure {
        let p = ct_ir::compile_source(SAMPLE).unwrap();
        p.procs.into_iter().next().unwrap()
    }

    #[test]
    fn block_costs_are_positive_and_deterministic() {
        let proc = sample_proc();
        let c1 = block_costs(&proc, &AvrCost);
        let c2 = block_costs(&proc, &AvrCost);
        assert_eq!(c1, c2);
        assert_eq!(c1.len(), proc.cfg.len());
        assert!(c1.iter().all(|&c| c > 0));
    }

    #[test]
    fn branch_block_includes_branch_base() {
        let proc = sample_proc();
        let costs = block_costs(&proc, &AvrCost);
        let bb = proc.cfg.branch_blocks()[0];
        let instr_sum: u64 = proc
            .block_code(bb)
            .iter()
            .map(|i| AvrCost.instr_cost(i))
            .sum();
        assert_eq!(costs[bb.index()], instr_sum + AvrCost.branch_base());
    }

    #[test]
    fn models_differ() {
        let proc = sample_proc();
        assert_ne!(
            block_costs(&proc, &AvrCost),
            block_costs(&proc, &Msp430Cost)
        );
        assert_eq!(AvrCost.name(), "avr");
        assert_eq!(Msp430Cost.name(), "msp430");
    }

    #[test]
    fn division_is_expensive() {
        assert!(
            AvrCost.instr_cost(&Instr::Binary(BinOp::Div))
                > 10 * AvrCost.instr_cost(&Instr::Binary(BinOp::Add))
        );
    }

    #[test]
    fn edge_costs_reflect_layout() {
        use crate::interp::Mote;
        use ct_cfg::graph::BlockId;
        use ct_cfg::layout::Layout;
        use ct_ir::instr::ProcId;
        let mut mote = Mote::new(ct_ir::compile_source(SAMPLE).unwrap(), Box::new(AvrCost));
        let cfg = mote.program().procs[0].cfg.clone();
        // Lowering emits [cond, join, then, else]; the natural layout leaves
        // both branch targets displaced, so every edge pays a transfer.
        let natural = mote.static_edge_costs(ProcId(0)).to_vec();
        assert_eq!(natural.len(), cfg.edges().len());
        assert!(natural.iter().all(|&c| c > 0), "{natural:?}");
        // Placing the then-arm right after the condition makes its edge free.
        let hot =
            Layout::from_order(&cfg, vec![BlockId(0), BlockId(2), BlockId(1), BlockId(3)]).unwrap();
        mote.set_layout(ProcId(0), hot);
        let optimized = mote.static_edge_costs(ProcId(0));
        assert!(optimized.contains(&0), "{optimized:?}");
        assert!(optimized.iter().sum::<u64>() < natural.iter().sum::<u64>());
    }

    #[test]
    fn intrinsics_dominate_alu() {
        let adc = AvrCost.instr_cost(&Instr::Intrinsic(Intrinsic::ReadAdc));
        let add = AvrCost.instr_cost(&Instr::Binary(BinOp::Add));
        assert!(adc > 20 * add);
    }
}
