//! The virtual performance-monitoring unit: a hardware-counter bank beside
//! the interpreter.
//!
//! Real MCUs in this class have no PMU — which is exactly why the paper
//! must *estimate* branch behavior from timing. The simulator, however,
//! can afford one, and it closes the measurement loop: placement decisions
//! made from estimated profiles are validated against counters with
//! hardware-grade ground truth, the way network-tomography estimates are
//! validated against per-link observations.
//!
//! Contract (the zero-observer-effect rule, extended to the PMU):
//!
//! - **Zero overhead.** Counting charges no cycles, perturbs no RNG, and
//!   touches no interpreter state — the PMU is pure bookkeeping beside the
//!   cycle counter.
//! - **Always on.** There is no gate to flip; a gated PMU would make
//!   "with counters" and "without counters" distinct configurations to
//!   keep bitwise-identical, which is a contract nobody needs.
//! - **Deterministic.** Counters are a pure function of the executed path
//!   and the installed layouts, so a seeded run reproduces them bitwise at
//!   any thread count.
//! - **Folded at snapshot.** Calls, returns and exclusive cycles count as
//!   they happen. Every other counter is linear in per-edge traversal
//!   counts, so a block exit only bumps its edge's hit count and
//!   [`Pmu::snapshot`] folds the hits through a per-edge transfer table:
//!   the mote's own reading of its placed image, so comparing the PMU with
//!   a `LayoutCost` checks two classifications against each other.
//!   `Mote::set_layout` banks a procedure's pending hits under its old
//!   table first. The hits since a [`Pmu::reset`] are the exact edge
//!   profile ([`Pmu::edge_hits`]).
//!
//! Mispredictions are counted under *both* static predictor models
//! side by side ([`BranchPredictor::AlwaysNotTaken`] — what the
//! AVR/MSP430 penalty models charge — and [`BranchPredictor::Btfnt`]),
//! so experiments can report the architectural rate and the what-if rate
//! from one run.

use ct_cfg::layout::{BranchPredictor, EdgeTransfer, TransferKind};
use ct_ir::instr::ProcId;
use std::ops::Range;

/// One procedure's (or the whole mote's) counter bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmuCounters {
    /// Conditional branch executions where the machine branch was taken.
    pub cond_taken: u64,
    /// Conditional branch executions that fell through.
    pub cond_not_taken: u64,
    /// Unconditional jump instructions executed (not elided by adjacency).
    pub jumps: u64,
    /// Straight-line transfers: fall-throughs and adjacency-elided jumps.
    pub fall_throughs: u64,
    /// Procedure activations (call events).
    pub calls: u64,
    /// Return terminators executed.
    pub returns: u64,
    /// Mispredictions under [`BranchPredictor::AlwaysNotTaken`].
    pub mispred_ant: u64,
    /// Mispredictions under [`BranchPredictor::Btfnt`].
    pub mispred_btfnt: u64,
    /// Exclusive cycles attributed to the procedure (callees' windows
    /// subtracted), including any instrumentation overhead charged inside
    /// the activation.
    pub cycles: u64,
}

impl PmuCounters {
    /// Folds `other` into `self` (plain field-wise addition — commutative
    /// and associative, the same merge discipline as `SuffStats`).
    pub fn merge(&mut self, other: &PmuCounters) {
        self.cond_taken += other.cond_taken;
        self.cond_not_taken += other.cond_not_taken;
        self.jumps += other.jumps;
        self.fall_throughs += other.fall_throughs;
        self.calls += other.calls;
        self.returns += other.returns;
        self.mispred_ant += other.mispred_ant;
        self.mispred_btfnt += other.mispred_btfnt;
        self.cycles += other.cycles;
    }

    /// Conditional branch executions observed.
    pub fn cond_total(&self) -> u64 {
        self.cond_taken + self.cond_not_taken
    }

    /// Misprediction count under `predictor`.
    pub fn mispredictions(&self, predictor: BranchPredictor) -> u64 {
        match predictor {
            BranchPredictor::AlwaysNotTaken => self.mispred_ant,
            BranchPredictor::Btfnt => self.mispred_btfnt,
        }
    }

    /// Misprediction rate under `predictor`; `0.0` when no conditional
    /// branches executed.
    pub fn misprediction_rate(&self, predictor: BranchPredictor) -> f64 {
        let total = self.cond_total();
        if total == 0 {
            0.0
        } else {
            self.mispredictions(predictor) as f64 / total as f64
        }
    }
}

/// A point-in-time copy of the counter bank: per-procedure counters plus
/// the mote-wide total.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PmuSnapshot {
    /// Counters per procedure, indexed by [`ProcId`].
    pub procs: Vec<PmuCounters>,
    /// Field-wise sum over all procedures.
    pub total: PmuCounters,
}

impl PmuSnapshot {
    /// The counters of `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range for the snapshot's program.
    pub fn proc(&self, proc: ProcId) -> &PmuCounters {
        &self.procs[proc.index()]
    }

    /// Folds `other` into `self` procedure-by-procedure (fleet merges).
    ///
    /// # Panics
    ///
    /// Panics if the snapshots cover different procedure counts — merging
    /// counters across different programs is meaningless.
    pub fn merge(&mut self, other: &PmuSnapshot) {
        assert_eq!(
            self.procs.len(),
            other.procs.len(),
            "PMU snapshots of different programs cannot merge"
        );
        for (a, b) in self.procs.iter_mut().zip(&other.procs) {
            a.merge(b);
        }
        self.total.merge(&other.total);
    }
}

#[derive(Debug, Clone, Copy)]
struct PmuFrame {
    proc: ProcId,
    entry_cycles: u64,
    child_cycles: u64,
}

/// The live counter bank inside a [`Mote`](crate::interp::Mote).
#[derive(Debug, Clone)]
pub struct Pmu {
    /// Per procedure: calls, returns, cycles, and the transfer counters
    /// banked under earlier layouts.
    procs: Vec<PmuCounters>,
    stack: Vec<PmuFrame>,
    /// Per edge (global id: procedures' edges in a row): traversals since
    /// the reset, the part of them already banked, and the transfer under
    /// the installed layout.
    pub(crate) edge_hits: Vec<u64>,
    banked_hits: Vec<u64>,
    transfers: Vec<EdgeTransfer>,
    /// Per procedure: the global id of its first edge, plus one end entry.
    edge_base: Vec<usize>,
}

impl Pmu {
    /// A PMU over one transfer table per procedure, all counters zero.
    pub(crate) fn new(tables: Vec<Vec<EdgeTransfer>>) -> Pmu {
        let mut edge_base = vec![0];
        edge_base.extend(tables.iter().scan(0, |end, t| {
            *end += t.len();
            Some(*end)
        }));
        let n_edges = edge_base[tables.len()];
        Pmu {
            procs: vec![PmuCounters::default(); tables.len()],
            stack: Vec::new(),
            edge_hits: vec![0; n_edges],
            banked_hits: vec![0; n_edges],
            transfers: tables.concat(),
            edge_base,
        }
    }

    /// The global ids of `proc`'s edges.
    pub(crate) fn edges(&self, proc: ProcId) -> Range<usize> {
        self.edge_base[proc.index()]..self.edge_base[proc.index() + 1]
    }

    /// Zeroes every counter and edge hit and clears the activation stack.
    pub fn reset(&mut self) {
        for c in &mut self.procs {
            *c = PmuCounters::default();
        }
        self.stack.clear();
        self.edge_hits.fill(0);
        self.banked_hits.fill(0);
    }

    /// Records a procedure activation starting at mote clock `cycles`.
    pub(crate) fn enter(&mut self, proc: ProcId, cycles: u64) {
        self.procs[proc.index()].calls += 1;
        self.stack.push(PmuFrame {
            proc,
            entry_cycles: cycles,
            child_cycles: 0,
        });
    }

    /// Records the activation's end at mote clock `cycles`, attributing the
    /// exclusive window (callees subtracted) to the procedure. Runs on the
    /// trap path too — the interpreter unwinds activations symmetrically.
    pub(crate) fn exit(&mut self, proc: ProcId, cycles: u64) {
        let Some(frame) = self.stack.pop() else {
            return; // unbalanced exit: drop rather than corrupt counters
        };
        debug_assert_eq!(frame.proc, proc, "PMU activation stack corrupted");
        let window = cycles.saturating_sub(frame.entry_cycles);
        let exclusive = window.saturating_sub(frame.child_cycles);
        self.procs[proc.index()].cycles += exclusive;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_cycles += window;
        }
    }

    /// Samples a `Return` terminator of `proc`.
    pub(crate) fn record_return(&mut self, proc: ProcId) {
        self.procs[proc.index()].returns += 1;
    }

    /// Installs `proc`'s transfer table for a new layout, first banking
    /// the hits its edges took under the old one.
    pub(crate) fn install(&mut self, proc: ProcId, table: &[EdgeTransfer]) {
        self.procs[proc.index()] = self.folded(proc);
        let edges = self.edges(proc);
        self.banked_hits[edges.clone()].copy_from_slice(&self.edge_hits[edges.clone()]);
        self.transfers[edges].copy_from_slice(table);
    }

    /// `proc`'s counters with its hits not yet banked folded in under the
    /// installed table.
    fn folded(&self, proc: ProcId) -> PmuCounters {
        let mut c = self.procs[proc.index()];
        for g in self.edges(proc) {
            let n = self.edge_hits[g] - self.banked_hits[g];
            fold_transfer(&mut c, self.transfers[g], n);
        }
        c
    }

    /// Traversals of each of `proc`'s edges (indexed like `Cfg::edges`)
    /// since the last reset: the exact edge profile.
    pub fn edge_hits(&self, proc: ProcId) -> &[u64] {
        &self.edge_hits[self.edges(proc)]
    }

    /// Activations of `proc` since the last reset.
    pub fn calls(&self, proc: ProcId) -> u64 {
        self.procs[proc.index()].calls
    }

    /// Copies the counter bank out (per-proc plus total), folding the
    /// pending edge hits through the transfer table.
    pub fn snapshot(&self) -> PmuSnapshot {
        let procs: Vec<PmuCounters> = (0..self.procs.len())
            .map(|i| self.folded(ProcId(i as u32)))
            .collect();
        let mut total = PmuCounters::default();
        for c in &procs {
            total.merge(c);
        }
        PmuSnapshot { procs, total }
    }
}

/// Adds `n` traversals of an edge realized as `t` to `c`.
fn fold_transfer(c: &mut PmuCounters, t: EdgeTransfer, n: u64) {
    match t.kind {
        TransferKind::FallThrough => c.fall_throughs += n,
        TransferKind::Jump => c.jumps += n,
        TransferKind::TakenBranch | TransferKind::TakenBranchOverJump => {}
    }
    if t.conditional {
        if t.taken {
            c.cond_taken += n;
        } else {
            c.cond_not_taken += n;
        }
        let mispredicts = |p: BranchPredictor| u64::from(p.mispredicts(t.taken, t.backward_target));
        c.mispred_ant += n * mispredicts(BranchPredictor::AlwaysNotTaken);
        c.mispred_btfnt += n * mispredicts(BranchPredictor::Btfnt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AvrCost;
    use crate::interp::Mote;
    use crate::trace::NullProfiler;
    use ct_cfg::graph::BlockId;
    use ct_cfg::layout::Layout;

    /// One diamond (if/else) procedure; the classic PMU test subject.
    fn diamond_mote() -> Mote {
        Mote::new(
            ct_ir::compile_source(
                "module M { var a: u16; proc f(x: u16) {
                    if (x > 10) { a = a + x; } else { a = a * 2; }
                } }",
            )
            .unwrap(),
            Box::new(AvrCost),
        )
    }

    #[test]
    fn counters_merge_fieldwise() {
        let mut a = PmuCounters {
            cond_taken: 1,
            cond_not_taken: 2,
            jumps: 3,
            fall_throughs: 4,
            calls: 5,
            returns: 6,
            mispred_ant: 7,
            mispred_btfnt: 8,
            cycles: 9,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.cond_taken, 2);
        assert_eq!(a.cycles, 18);
        assert_eq!(a.cond_total(), 6);
    }

    #[test]
    fn diamond_counts_match_hand_computation_both_polarities() {
        use ct_ir::instr::ProcId;
        // Lowering emits [cond, join, then, else]. Natural layout: join is
        // next after cond, so neither successor is adjacent — the machine
        // emits `brcond then; jmp else`: the true arm takes the branch
        // (forward target), the false arm falls through into the jump.
        let mut mote = diamond_mote();
        let pid = ProcId(0);
        // 3 true-arm calls, 2 false-arm calls.
        for arg in [20i64, 30, 40, 1, 2] {
            mote.call(pid, &[arg], &mut NullProfiler).unwrap();
        }
        let snap = mote.pmu.snapshot();
        let c = snap.proc(pid);
        assert_eq!(c.calls, 5);
        assert_eq!(c.returns, 5);
        assert_eq!(c.cond_taken, 3, "true arm takes the branch");
        assert_eq!(c.cond_not_taken, 2, "false arm falls through to the jmp");
        // False arm rides `jmp else`; both arms jump to join unless
        // adjacent. From the lowering order [cond, join, then, else]:
        // then→join and else→join are both displaced jumps, and the false
        // arm adds its `jmp else`. 3 true calls: brcond taken + then→join
        // jump. 2 false calls: jmp else + else→join jump.
        assert_eq!(c.jumps, 3 + 2 * 2);
        // ANT: every taken branch mispredicts; the taken-target (then) is
        // forward of cond, so BTFNT agrees with ANT here.
        assert_eq!(c.mispredictions(BranchPredictor::AlwaysNotTaken), 3);
        assert_eq!(c.mispredictions(BranchPredictor::Btfnt), 3);
        assert!(
            (c.misprediction_rate(BranchPredictor::AlwaysNotTaken) - 0.6).abs() < 1e-12,
            "3 taken of 5 conditionals"
        );
        assert!(c.cycles > 0);
        assert_eq!(snap.total, *c, "single-proc program: total == proc");

        // Opposite polarity: put the *false* arm (else) right after cond.
        // Now the machine branch targets then only when taken — inverted:
        // next == else == on_false, so taken-target is on_true (then),
        // true arm takes, false arm falls through — same taken counts, but
        // the jump census changes (else→join becomes displaced or not per
        // the order).
        let cfg = mote.program().procs[0].cfg.clone();
        let order = vec![BlockId(0), BlockId(3), BlockId(2), BlockId(1)]; // cond, else, then, join
        let l = Layout::from_order(&cfg, order).unwrap();
        mote.pmu.reset();
        mote.set_layout(pid, l);
        for arg in [20i64, 30, 40, 1, 2] {
            mote.call(pid, &[arg], &mut NullProfiler).unwrap();
        }
        let c = mote.pmu.snapshot().procs[0];
        // cond: next is else (on_false) → true arm is the taken branch.
        assert_eq!(c.cond_taken, 3);
        assert_eq!(c.cond_not_taken, 2);
        // then is right before join: then→join falls through; else→join is
        // a displaced jump (2 false calls).
        assert_eq!(c.jumps, 2);
        assert_eq!(c.fall_throughs, 2 + 3, "else fall-through + then→join");
        assert_eq!(c.mispredictions(BranchPredictor::AlwaysNotTaken), 3);
        // Taken-target (then) is still forward → BTFNT == ANT.
        assert_eq!(c.mispredictions(BranchPredictor::Btfnt), 3);
    }

    #[test]
    fn loop_backedge_separates_the_predictor_models() {
        use ct_ir::instr::ProcId;
        let mut mote = Mote::new(
            ct_ir::compile_source(
                "module M { proc sum(n: u16) -> u32 {
                    var acc: u32 = 0;
                    var i: u16 = 0;
                    while (i < n) { acc = acc + i; i = i + 1; }
                    return acc;
                } }",
            )
            .unwrap(),
            Box::new(AvrCost),
        );
        let pid = ProcId(0);
        // Natural layout puts the body right after the header: the continue
        // edge falls through and only the (forward) exit takes the branch,
        // so both predictor models mispredict exactly once.
        mote.call(pid, &[10], &mut NullProfiler).unwrap();
        let c = mote.pmu.snapshot().procs[0];
        assert_eq!(c.cond_total(), 11, "10 continue + 1 exit test");
        assert_eq!(c.mispredictions(BranchPredictor::AlwaysNotTaken), 1);
        assert_eq!(c.mispredictions(BranchPredictor::Btfnt), 1);

        // Rotate the loop: [entry, body, header, exit] makes the continue
        // edge a *backward taken branch* — the shape the two models are
        // designed to disagree on. ANT eats all 10 iterations; BTFNT only
        // the final fall-through exit.
        let cfg = mote.program().procs[0].cfg.clone();
        let l =
            Layout::from_order(&cfg, vec![BlockId(0), BlockId(2), BlockId(1), BlockId(3)]).unwrap();
        mote.pmu.reset();
        mote.set_layout(pid, l);
        mote.call(pid, &[10], &mut NullProfiler).unwrap();
        let c = mote.pmu.snapshot().procs[0];
        assert_eq!(c.cond_total(), 11);
        assert_eq!(c.cond_taken, 10, "continue edge now takes the branch");
        assert_eq!(c.mispredictions(BranchPredictor::AlwaysNotTaken), 10);
        assert_eq!(c.mispredictions(BranchPredictor::Btfnt), 1);
        assert!(
            c.misprediction_rate(BranchPredictor::Btfnt)
                < c.misprediction_rate(BranchPredictor::AlwaysNotTaken)
        );
    }

    #[test]
    fn pmu_charges_zero_cycles_and_survives_reset() {
        use ct_ir::instr::ProcId;
        // Two identical motes, one cleared mid-run: cycle counters agree
        // exactly — the PMU never charges the machine.
        let mut a = diamond_mote();
        let mut b = diamond_mote();
        a.call(ProcId(0), &[20], &mut NullProfiler).unwrap();
        b.pmu.reset();
        b.call(ProcId(0), &[20], &mut NullProfiler).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.pmu.snapshot(), b.pmu.snapshot());
    }

    #[test]
    fn exclusive_cycles_subtract_callees_and_sum_to_the_clock() {
        use ct_ir::instr::ProcId;
        let mut mote = Mote::new(
            ct_ir::compile_source(
                "module M {
                    proc leaf(x: u16) -> u16 { return x * 2; }
                    proc top(x: u16) -> u16 { var y: u16 = leaf(x); return y + leaf(y); }
                }",
            )
            .unwrap(),
            Box::new(AvrCost),
        );
        let before = mote.cycles;
        mote.call(ProcId(1), &[3], &mut NullProfiler).unwrap();
        let used = mote.cycles - before;
        let snap = mote.pmu.snapshot();
        assert_eq!(snap.proc(ProcId(0)).calls, 2);
        assert_eq!(snap.proc(ProcId(1)).calls, 1);
        assert!(snap.proc(ProcId(0)).cycles > 0);
        assert!(snap.proc(ProcId(1)).cycles > 0);
        // Exclusive windows partition the consumed cycles exactly.
        assert_eq!(snap.total.cycles, used);
    }

    #[test]
    fn trap_unwind_keeps_the_activation_stack_balanced() {
        use ct_ir::instr::ProcId;
        let mut mote = Mote::new(
            ct_ir::compile_source(
                "module M {
                    proc bad(x: u16) -> u16 { return 10 / x; }
                    proc top(x: u16) -> u16 { return bad(x); }
                }",
            )
            .unwrap(),
            Box::new(AvrCost),
        );
        mote.call(ProcId(1), &[0], &mut NullProfiler).unwrap_err();
        // Both activations closed on the trap path; a follow-up clean call
        // attributes cycles normally.
        let trapped = mote.pmu.snapshot();
        assert_eq!(trapped.proc(ProcId(0)).calls, 1);
        assert_eq!(trapped.proc(ProcId(1)).calls, 1);
        mote.call(ProcId(1), &[2], &mut NullProfiler).unwrap();
        let snap = mote.pmu.snapshot();
        assert_eq!(snap.proc(ProcId(1)).calls, 2);
        assert_eq!(
            snap.proc(ProcId(1)).returns,
            1,
            "only the clean call returned"
        );
    }

    #[test]
    fn snapshots_merge_like_suffstats() {
        use ct_ir::instr::ProcId;
        let mut a = diamond_mote();
        let mut b = diamond_mote();
        a.call(ProcId(0), &[20], &mut NullProfiler).unwrap();
        b.call(ProcId(0), &[1], &mut NullProfiler).unwrap();
        let mut ab = a.pmu.snapshot();
        ab.merge(&b.pmu.snapshot());
        let mut ba = b.pmu.snapshot();
        ba.merge(&a.pmu.snapshot());
        assert_eq!(ab, ba, "merge is commutative");
        // And equals one mote doing both calls.
        let mut both = diamond_mote();
        both.call(ProcId(0), &[20], &mut NullProfiler).unwrap();
        both.call(ProcId(0), &[1], &mut NullProfiler).unwrap();
        assert_eq!(ab, both.pmu.snapshot());
    }

    #[test]
    #[should_panic(expected = "different programs")]
    fn mismatched_snapshot_merge_panics() {
        let mut a = PmuSnapshot {
            procs: vec![PmuCounters::default()],
            total: PmuCounters::default(),
        };
        let b = PmuSnapshot {
            procs: vec![PmuCounters::default(); 2],
            total: PmuCounters::default(),
        };
        a.merge(&b);
    }
}
