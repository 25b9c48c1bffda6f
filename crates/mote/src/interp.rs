//! The mote CPU: a cycle-accounting interpreter for lowered NLC programs.
//!
//! The interpreter charges exactly the static costs the estimators assume:
//! per block, the instruction costs plus the terminator base cost; per
//! control transfer, the layout-dependent penalty (0 for fall-through, the
//! taken-branch penalty, or the jump cost). With cycle-accurate timing and no
//! instrumentation overhead, a procedure's measured window is *identically*
//! `Σ block costs + Σ edge costs` along the path taken — the property the
//! whole tomography pipeline rests on (and which the tests here pin down).

use crate::cost::{block_costs, CostModel};
use crate::devices::Devices;
use crate::memory::GlobalStore;
use crate::pmu::Pmu;
use crate::trace::{GroundTruth, Profiler};
use ct_cfg::graph::{BlockId, Terminator};
use ct_cfg::layout::{EdgeTransfer, Layout, TransferKind};
use ct_cfg::profile::EdgeProfile;
use ct_ir::ast::{BinOp, UnOp};
use ct_ir::instr::{GlobalId, Instr, Intrinsic, ProcId};
use ct_ir::program::Program;
use ct_ir::types::Ty;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A runtime trap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrapError {
    /// What went wrong.
    pub kind: TrapKind,
    /// The procedure that trapped.
    pub proc: ProcId,
    /// The block executing when the trap fired.
    pub block: BlockId,
}

/// Trap categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrapKind {
    /// Division or remainder by zero.
    DivideByZero,
    /// Array access outside bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: i64,
    },
    /// Call nesting exceeded the configured limit.
    CallDepthExceeded,
    /// Instruction budget exhausted (runaway loop).
    StepLimitExceeded,
    /// Operand stack underflow (malformed hand-built code).
    StackUnderflow,
    /// A call supplied the wrong number of arguments for the callee.
    ArgumentCountMismatch {
        /// Parameters the procedure declares.
        expected: usize,
        /// Arguments actually supplied.
        got: usize,
    },
}

impl fmt::Display for TrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            TrapKind::DivideByZero => "division by zero".to_string(),
            TrapKind::IndexOutOfBounds { index } => format!("index {index} out of bounds"),
            TrapKind::CallDepthExceeded => "call depth exceeded".to_string(),
            TrapKind::StepLimitExceeded => "step limit exceeded".to_string(),
            TrapKind::StackUnderflow => "operand stack underflow".to_string(),
            TrapKind::ArgumentCountMismatch { expected, got } => {
                format!("argument count mismatch: expected {expected}, got {got}")
            }
        };
        write!(f, "trap in p{} at {}: {what}", self.proc.0, self.block)
    }
}

impl Error for TrapError {}

/// Execution limits and fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Maximum instructions per top-level call.
    pub step_limit: u64,
    /// Maximum call nesting depth.
    pub call_depth_limit: usize,
    /// Probability that an activation is contaminated by an interrupt
    /// (experiment E6's noise model).
    pub contamination_prob: f64,
    /// Cycles an interrupt steals inside the measured window.
    pub contamination_cycles: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            step_limit: 10_000_000,
            call_depth_limit: 32,
            contamination_prob: 0.0,
            contamination_cycles: 0,
        }
    }
}

/// One block of a procedure's decoded image: what the dispatch loop reads
/// per block.
#[derive(Clone, Copy)]
struct BlockCode {
    /// Half-open range of the block's ops in [`ProcCode::code`].
    start: u32,
    end: u32,
    /// The terminator, copied out of the CFG.
    term: Terminator,
    /// Global edge ids (see [`Pmu`]) a `Jump` or a true `Branch` takes,
    /// and a false `Branch` takes. A branch whose arms share a target
    /// resolves both to its false edge, as a `(from, to)` lookup would.
    on_true: u32,
    on_false: u32,
}

/// What one decoded op does: a source instruction as written, or one of
/// the fused sequences [`decode_block`] forms inside a block.
#[derive(Clone, Copy)]
enum Op {
    /// One source instruction.
    Plain(Instr),
    /// `PushConst k; Binary op`: `op` with the constant `k` as its right
    /// operand, applied to the stack top in place.
    BinaryConst(BinOp, i64),
    /// `LoadLocal n; PushConst k; Binary op`: pushes `locals[n] op k`.
    LocalBinaryConst(u16, BinOp, i64),
    /// `LoadGlobal g; PushConst k; Binary op`: pushes `g op k`.
    GlobalBinaryConst(GlobalId, BinOp, i64),
    /// `LoadLocal n; PushConst k; Binary op; Cast ty; StoreLocal m`, for an
    /// `op k` that cannot trap: `locals[m] = ty(locals[n] op k)`.
    LocalUpdate(u16, BinOp, i64, Ty, u16),
    /// `Cast ty; StoreLocal n`.
    CastStoreLocal(Ty, u16),
    /// `Cast ty; StoreGlobal g`.
    CastStoreGlobal(Ty, GlobalId),
}

/// One op of a procedure's decoded image, with the (boot-time constant)
/// charges of the source instructions it stands for.
#[derive(Clone, Copy)]
struct Decoded {
    op: Op,
    /// Summed cycle cost of the source instructions.
    cost: u64,
    /// Cycle cost of the first one to four source instructions: what a
    /// trap inside a fused sequence has charged.
    prefix: [u64; 4],
    /// Source instructions this op stands for (1 to 5); the step budget
    /// counts these.
    len: u64,
}

/// Decodes one block's instructions into `out`, fusing `PushConst k;
/// Binary op` (also behind a `LoadLocal` or `LoadGlobal`), `Cast ty;
/// StoreLocal n` / `Cast ty; StoreGlobal g`, and a whole non-trapping
/// local update. Sequences never straddle blocks, so every block entry is
/// an op boundary.
fn decode_block(block: &[Instr], cost_model: &dyn CostModel, out: &mut Vec<Decoded>) {
    use Instr as I;
    let mut rest = block;
    while let Some(&first) = rest.first() {
        let (op, len) = match *rest {
            [I::LoadLocal(n), I::PushConst(k), I::Binary(op), I::Cast(ty), I::StoreLocal(m), ..]
                if binop(op, 0, k).is_ok() =>
            {
                (Op::LocalUpdate(n, op, k, ty, m), 5)
            }
            [I::LoadLocal(n), I::PushConst(k), I::Binary(op), ..] => {
                (Op::LocalBinaryConst(n, op, k), 3)
            }
            [I::LoadGlobal(g), I::PushConst(k), I::Binary(op), ..] => {
                (Op::GlobalBinaryConst(g, op, k), 3)
            }
            [I::PushConst(k), I::Binary(op), ..] => (Op::BinaryConst(op, k), 2),
            [I::Cast(ty), I::StoreLocal(n), ..] => (Op::CastStoreLocal(ty, n), 2),
            [I::Cast(ty), I::StoreGlobal(g), ..] => (Op::CastStoreGlobal(ty, g), 2),
            _ => (Op::Plain(first), 1),
        };
        let (source, tail) = rest.split_at(len);
        let mut prefix = [0; 4];
        let mut sum = 0;
        for (k, i) in source.iter().enumerate() {
            sum += cost_model.instr_cost(i);
            if let Some(p) = prefix.get_mut(k) {
                *p = sum;
            }
        }
        out.push(Decoded {
            op,
            cost: sum,
            prefix,
            len: len as u64,
        });
        rest = tail;
    }
}

/// Boot-time-resolved executable image of one procedure.
///
/// Everything the dispatch loop reads per op or per block lives here, flat
/// and behind one `Arc`: `call_inner` clones the handle once per
/// invocation and hands the loop an owned view, so the hot path never
/// re-borrows `self` — the block's ops become a plain slice iteration (no
/// per-instruction triple indexing, no bounds checks the optimizer can't
/// drop) while `&mut self` stays free for RAM, the cycle counter and the
/// PMU.
struct ProcCode {
    /// All blocks' decoded ops (see [`decode_block`]), concatenated in
    /// block order.
    code: Vec<Decoded>,
    /// Per block: its ops' range, terminator and edge ids.
    blocks: Vec<BlockCode>,
    /// Global id of the procedure's first edge: a profiler's edge hook
    /// gets `id - edge_base`, the index into `Cfg::edges`.
    edge_base: usize,
    /// The cost model's branch base and return costs, read once at boot
    /// instead of through the trait object at every terminator.
    branch_base: u64,
    return_cost: u64,
}

/// A simulated mote: program image, CPU cost model, flash layout, RAM,
/// peripherals and a cycle counter.
pub struct Mote {
    program: Program,
    cost_model: Box<dyn CostModel>,
    layouts: Vec<Layout>,
    block_costs: Vec<Vec<u64>>,
    /// Per edge (global id, see [`Pmu`]): its transfer cost under the
    /// installed layout.
    edge_cost: Vec<u64>,
    /// Per proc: the boot-time-resolved executable image the dispatch loop
    /// runs from (see [`ProcCode`]).
    code: Vec<Arc<ProcCode>>,
    /// The virtual performance-monitoring unit: zero-overhead hardware
    /// counters, fed one hit per edge traversal and folded at snapshot.
    pub pmu: Pmu,
    /// Module-variable RAM.
    pub globals: GlobalStore,
    /// Peripherals.
    pub devices: Devices,
    /// Execution limits and fault injection.
    pub config: ExecConfig,
    /// The CPU cycle counter.
    pub cycles: u64,
    rng: StdRng,
    steps_left: u64,
}

impl fmt::Debug for Mote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mote")
            .field("program", &self.program.name)
            .field("cost_model", &self.cost_model.name())
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl Mote {
    /// Boots a mote with `program` under `cost_model`, natural (compiler
    /// id-order) layouts, default devices and a fixed RNG seed.
    pub fn new(program: Program, cost_model: Box<dyn CostModel>) -> Mote {
        let layouts: Vec<Layout> = program
            .procs
            .iter()
            .map(|p| Layout::natural(&p.cfg))
            .collect();
        Mote::with_layouts(program, cost_model, layouts)
    }

    /// Boots a mote with explicit per-procedure layouts (post-placement
    /// images).
    ///
    /// # Panics
    ///
    /// Panics if `layouts.len()` differs from the procedure count.
    pub fn with_layouts(
        program: Program,
        cost_model: Box<dyn CostModel>,
        layouts: Vec<Layout>,
    ) -> Mote {
        assert_eq!(
            layouts.len(),
            program.procs.len(),
            "one layout per procedure"
        );
        let block_costs: Vec<Vec<u64>> = program
            .procs
            .iter()
            .map(|p| block_costs(p, cost_model.as_ref()))
            .collect();
        let mut edge_base = 0;
        let code: Vec<Arc<ProcCode>> = program
            .procs
            .iter()
            .map(|p| {
                let first = edge_base;
                let mut flat = Vec::new();
                let mut blocks = Vec::with_capacity(p.code.len());
                for (b, block) in p.code.iter().enumerate() {
                    let start = flat.len() as u32;
                    decode_block(block, cost_model.as_ref(), &mut flat);
                    // Edge ids follow `Cfg::edges`: block order, true arm
                    // first.
                    let term = p.cfg.block(BlockId(b as u32)).term;
                    let g = edge_base as u32;
                    let same_target = matches!(term,
                        Terminator::Branch { on_true, on_false } if on_true == on_false);
                    blocks.push(BlockCode {
                        start,
                        end: flat.len() as u32,
                        term,
                        on_true: if same_target { g + 1 } else { g },
                        on_false: g + 1,
                    });
                    edge_base += term.successors().len();
                }
                Arc::new(ProcCode {
                    code: flat,
                    blocks,
                    edge_base: first,
                    branch_base: cost_model.branch_base(),
                    return_cost: cost_model.return_cost(),
                })
            })
            .collect();
        let tables: Vec<Vec<EdgeTransfer>> = code
            .iter()
            .zip(&layouts)
            .map(|(pc, l)| place_edges(&pc.blocks, l))
            .collect();
        let penalties = cost_model.penalties();
        let edge_cost = tables
            .iter()
            .flatten()
            .map(|t| penalties.cost(t.kind))
            .collect();
        let pmu = Pmu::new(tables);
        let globals = GlobalStore::new(&program);
        Mote {
            program,
            cost_model,
            layouts,
            block_costs,
            edge_cost,
            code,
            pmu,
            globals,
            devices: Devices::default(),
            config: ExecConfig::default(),
            cycles: 0,
            rng: StdRng::seed_from_u64(0x00C0_DE70 + 1),
            steps_left: 0,
        }
    }

    /// The program image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The CPU cost model.
    pub fn cost_model(&self) -> &dyn CostModel {
        self.cost_model.as_ref()
    }

    /// The layout of `proc`.
    pub fn layout(&self, proc: ProcId) -> &Layout {
        &self.layouts[proc.index()]
    }

    /// Replaces the layout of `proc` (re-deriving its edge costs and PMU
    /// transfer table), e.g. after running the placement optimizer. The
    /// PMU banks the hits taken under the old layout first, so counters
    /// stay exact across a mid-run relayout.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not fit the procedure's CFG.
    pub fn set_layout(&mut self, proc: ProcId, layout: Layout) {
        assert_eq!(
            layout.order().len(),
            self.program.procs[proc.index()].cfg.len(),
            "layout does not fit procedure"
        );
        let table = place_edges(&self.code[proc.index()].blocks, &layout);
        let penalties = self.cost_model.penalties();
        let edges = self.pmu.edges(proc);
        for (c, t) in self.edge_cost[edges].iter_mut().zip(&table) {
            *c = penalties.cost(t.kind);
        }
        self.pmu.install(proc, &table);
        self.layouts[proc.index()] = layout;
    }

    /// The machine-level transfer of each of `proc`'s edges (indexed like
    /// `Cfg::edges`) under its current layout, as the PMU counts it: the
    /// mote's own reading of its placed image.
    pub fn edge_transfers(&self, proc: ProcId) -> Vec<EdgeTransfer> {
        place_edges(&self.code[proc.index()].blocks, &self.layouts[proc.index()])
    }

    /// The ground truth since the last PMU reset, read off its edge hits
    /// and calls. Two readings and [`GroundTruth::since`] scope it to one
    /// stretch of a run.
    pub fn ground_truth(&self) -> GroundTruth {
        let (profiles, invocations) = (self.program.procs.iter().enumerate())
            .map(|(i, p)| {
                let proc = ProcId(i as u32);
                let hits = self.pmu.edge_hits(proc).to_vec();
                (EdgeProfile::from_counts(&p.cfg, hits), self.pmu.calls(proc))
            })
            .unzip();
        GroundTruth {
            profiles,
            invocations,
        }
    }

    /// Static per-block cycle costs of `proc` (what the estimators consume).
    pub fn static_block_costs(&self, proc: ProcId) -> &[u64] {
        &self.block_costs[proc.index()]
    }

    /// Static per-edge transfer costs of `proc` under its current layout.
    pub fn static_edge_costs(&self, proc: ProcId) -> &[u64] {
        &self.edge_cost[self.pmu.edges(proc)]
    }

    /// Reseeds the mote's RNG (inputs, radio loss, contamination).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Calls `proc` with `args`, observing through `profiler`.
    ///
    /// Generic over the profiler so a concrete one (say, a
    /// [`TimingProfiler`](crate::trace::TimingProfiler)) inlines into the
    /// dispatch loop, and hooks it leaves at their defaults compile out;
    /// `&mut dyn Profiler` works too.
    ///
    /// # Errors
    ///
    /// Returns a [`TrapError`] on runtime faults (including an argument
    /// count that does not match the callee); the mote's memory may be
    /// partially updated but remains usable.
    pub fn call<P: Profiler + ?Sized>(
        &mut self,
        proc: ProcId,
        args: &[i64],
        profiler: &mut P,
    ) -> Result<Option<i64>, TrapError> {
        self.steps_left = self.config.step_limit;
        self.call_inner(proc, args, profiler, 0)
    }

    fn call_inner<P: Profiler + ?Sized>(
        &mut self,
        proc: ProcId,
        args: &[i64],
        profiler: &mut P,
        depth: usize,
    ) -> Result<Option<i64>, TrapError> {
        let entry = self.program.procs[proc.index()].cfg.entry();
        if depth >= self.config.call_depth_limit {
            return Err(TrapError {
                kind: TrapKind::CallDepthExceeded,
                proc,
                block: entry,
            });
        }
        let (n_params, n_locals, has_ret) = {
            let p = &self.program.procs[proc.index()];
            (p.params.len(), p.n_locals as usize, p.ret.is_some())
        };
        if args.len() != n_params {
            return Err(TrapError {
                kind: TrapKind::ArgumentCountMismatch {
                    expected: n_params,
                    got: args.len(),
                },
                proc,
                block: entry,
            });
        }

        // The PMU activation window opens before instrumentation charges,
        // so per-procedure cycle attribution includes the profiler's own
        // overhead — that is what E3 measures in mote cycles.
        self.pmu.enter(proc, self.cycles);
        let overhead = profiler.on_proc_enter(proc, self.cycles);
        self.cycles += overhead;
        // Interrupt contamination lands inside the measured window.
        if self.config.contamination_prob > 0.0 && self.rng.gen_bool(self.config.contamination_prob)
        {
            self.cycles += self.config.contamination_cycles;
        }

        let mut locals = vec![0i64; n_locals];
        locals[..n_params].copy_from_slice(args);
        let mut stack: Vec<i64> = Vec::with_capacity(8);
        let mut cur = entry;
        // One refcount bump per invocation buys the dispatch loop an owned
        // view of the procedure image (see [`ProcCode`]).
        let pc = Arc::clone(&self.code[proc.index()]);

        let result = loop {
            let overhead = profiler.on_block(proc, cur, self.cycles);
            self.cycles += overhead;
            match self.exec_block(proc, cur, &pc, &mut locals, &mut stack, profiler, depth) {
                Ok(ControlFlow::Continue(next)) => cur = next,
                Ok(ControlFlow::Return(v)) => break Ok(if has_ret { v } else { None }),
                Err(e) => break Err(e),
            }
        };

        let overhead = profiler.on_proc_exit(proc, self.cycles);
        self.cycles += overhead;
        // Close the window after exit instrumentation too — and on the trap
        // path, so unwinding stays balanced like the profiler's.
        self.pmu.exit(proc, self.cycles);
        result
    }

    #[allow(clippy::too_many_arguments)] // hot path: flat args beat a context struct rebuilt per block
    #[inline(always)]
    fn exec_block<P: Profiler + ?Sized>(
        &mut self,
        proc: ProcId,
        block: BlockId,
        pc: &ProcCode,
        locals: &mut [i64],
        stack: &mut Vec<i64>,
        profiler: &mut P,
        depth: usize,
    ) -> Result<ControlFlow, TrapError> {
        let trap = |kind: TrapKind| TrapError { kind, proc, block };
        let underflow = || trap(TrapKind::StackUnderflow);
        let b = pc.blocks[block.index()];
        for d in &pc.code[b.start as usize..b.end as usize] {
            if self.steps_left < d.len {
                return Err(trap(self.charge_partial_op(d, stack)));
            }
            self.steps_left -= d.len;
            self.cycles += d.cost;
            match d.op {
                Op::Plain(Instr::PushConst(v)) => stack.push(v),
                Op::Plain(Instr::LoadLocal(n)) => stack.push(locals[n as usize]),
                Op::Plain(Instr::StoreLocal(n)) => {
                    locals[n as usize] = stack.pop().ok_or_else(underflow)?;
                }
                Op::Plain(Instr::LoadGlobal(g)) => stack.push(self.globals.load(g)),
                Op::Plain(Instr::StoreGlobal(g)) => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    self.globals.store(g, v);
                }
                Op::Plain(Instr::LoadElem(g)) => {
                    let idx = stack.pop().ok_or_else(underflow)?;
                    let v = self
                        .globals
                        .load_elem(g, idx)
                        .ok_or_else(|| trap(TrapKind::IndexOutOfBounds { index: idx }))?;
                    stack.push(v);
                }
                Op::Plain(Instr::StoreElem(g)) => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    let idx = stack.pop().ok_or_else(underflow)?;
                    if !self.globals.store_elem(g, idx, v) {
                        return Err(trap(TrapKind::IndexOutOfBounds { index: idx }));
                    }
                }
                Op::Plain(Instr::Unary(op)) => {
                    let v = stack.last_mut().ok_or_else(underflow)?;
                    *v = match op {
                        UnOp::Neg => v.wrapping_neg(),
                        UnOp::Not => (*v == 0) as i64,
                        UnOp::BitNot => !*v,
                    };
                }
                Op::Plain(Instr::Binary(op)) => {
                    let r = stack.pop().ok_or_else(underflow)?;
                    let l = stack.last_mut().ok_or_else(underflow)?;
                    *l = binop(op, *l, r).map_err(trap)?;
                }
                Op::BinaryConst(op, r) => {
                    let l = stack.last_mut().ok_or_else(underflow)?;
                    *l = binop(op, *l, r).map_err(trap)?;
                }
                Op::LocalBinaryConst(n, op, r) => {
                    stack.push(binop(op, locals[n as usize], r).map_err(trap)?);
                }
                Op::GlobalBinaryConst(g, op, r) => {
                    stack.push(binop(op, self.globals.load(g), r).map_err(trap)?);
                }
                Op::LocalUpdate(n, op, r, ty, m) => {
                    locals[m as usize] = ty.wrap(binop(op, locals[n as usize], r).map_err(trap)?);
                }
                Op::Plain(Instr::Cast(ty)) => {
                    let v = stack.last_mut().ok_or_else(underflow)?;
                    *v = ty.wrap(*v);
                }
                Op::CastStoreLocal(ty, n) => match stack.pop() {
                    Some(v) => locals[n as usize] = ty.wrap(v),
                    None => return Err(trap(self.uncharge_store(d))),
                },
                Op::CastStoreGlobal(ty, g) => match stack.pop() {
                    Some(v) => self.globals.store(g, ty.wrap(v)),
                    None => return Err(trap(self.uncharge_store(d))),
                },
                Op::Plain(Instr::Call(callee)) => {
                    let argc = self.program.procs[callee.index()].params.len();
                    if stack.len() < argc {
                        return Err(underflow());
                    }
                    let at = stack.len() - argc;
                    let result = self.call_inner(callee, &stack[at..], profiler, depth + 1)?;
                    stack.truncate(at);
                    if let Some(v) = result {
                        stack.push(v);
                    }
                }
                Op::Plain(Instr::Intrinsic(intr)) => self.exec_intrinsic(intr, stack, &trap)?,
                Op::Plain(Instr::Pop) => {
                    stack.pop().ok_or_else(underflow)?;
                }
            }
        }

        // Terminator.
        match b.term {
            Terminator::Return => {
                self.cycles += pc.return_cost;
                self.pmu.record_return(proc);
                let v = if self.program.procs[proc.index()].ret.is_some() {
                    Some(stack.pop().ok_or_else(underflow)?)
                } else {
                    None
                };
                Ok(ControlFlow::Return(v))
            }
            Terminator::Jump(t) => {
                self.take_edge(proc, pc, b.on_true, profiler);
                Ok(ControlFlow::Continue(t))
            }
            Terminator::Branch { on_true, on_false } => {
                self.cycles += pc.branch_base;
                let cond = stack.pop().ok_or_else(underflow)?;
                let (next, g) = if cond != 0 {
                    (on_true, b.on_true)
                } else {
                    (on_false, b.on_false)
                };
                self.take_edge(proc, pc, g, profiler);
                Ok(ControlFlow::Continue(next))
            }
        }
    }

    /// Charges and counts one traversal of global edge `g`; the PMU folds
    /// the hit into its transfer counters at snapshot.
    #[inline(always)]
    fn take_edge<P: Profiler + ?Sized>(
        &mut self,
        proc: ProcId,
        pc: &ProcCode,
        g: u32,
        profiler: &mut P,
    ) {
        let g = g as usize;
        self.cycles += self.edge_cost[g];
        self.pmu.edge_hits[g] += 1;
        let overhead = profiler.on_edge(proc, g - pc.edge_base);
        self.cycles += overhead;
    }

    /// The trap of a step budget too small for all of `d`. It charges the
    /// source instructions that still fit, as the unfused sequence would
    /// have; when the first of them is a cast on an empty stack, the
    /// cast's underflow traps first.
    #[cold]
    fn charge_partial_op(&mut self, d: &Decoded, stack: &[i64]) -> TrapKind {
        let fit = self.steps_left as usize;
        if fit == 0 {
            return TrapKind::StepLimitExceeded;
        }
        self.steps_left = 0;
        self.cycles += d.prefix[fit - 1];
        match d.op {
            Op::CastStoreLocal(..) | Op::CastStoreGlobal(..) if stack.is_empty() => {
                TrapKind::StackUnderflow
            }
            _ => TrapKind::StepLimitExceeded,
        }
    }

    /// The underflow of a fused `cast; store` whose cast found the stack
    /// empty: the store never ran, so its step and cycles are handed back.
    #[cold]
    fn uncharge_store(&mut self, d: &Decoded) -> TrapKind {
        self.steps_left += 1;
        self.cycles -= d.cost - d.prefix[0];
        TrapKind::StackUnderflow
    }

    fn exec_intrinsic(
        &mut self,
        intr: Intrinsic,
        stack: &mut Vec<i64>,
        trap: &dyn Fn(TrapKind) -> TrapError,
    ) -> Result<(), TrapError> {
        let pop = |stack: &mut Vec<i64>| stack.pop().ok_or_else(|| trap(TrapKind::StackUnderflow));
        match intr {
            Intrinsic::ReadAdc => {
                let v = self.devices.adc.sample(&mut self.rng);
                self.devices.adc_samples += 1;
                stack.push(v as i64);
            }
            Intrinsic::LedSet => {
                let on = pop(stack)?;
                let which = pop(stack)?;
                self.devices.leds.set(which as u8, on != 0);
            }
            Intrinsic::LedToggle => {
                let which = pop(stack)?;
                self.devices.leds.toggle(which as u8);
            }
            Intrinsic::SendMsg => {
                let payload = pop(stack)?;
                let ok = self.devices.radio.send(payload as u16, &mut self.rng);
                stack.push(ok as i64);
            }
            Intrinsic::RecvAvail => stack.push(self.devices.radio.rx_available() as i64),
            Intrinsic::RecvMsg => stack.push(self.devices.radio.receive() as i64),
            Intrinsic::NodeId => stack.push(self.devices.node_id as i64),
        }
        Ok(())
    }
}

/// The machine-level transfer of every CFG edge of one procedure (its
/// decoded `blocks`, indexed like `Cfg::edges`) placed in `layout`: the
/// mote's own reading of its placed image. Each block exit is assembled
/// as a code generator emits it — `jmp t` unless `t` is next in flash;
/// `br t` when the false arm is next, `br f` (inverted) when the true arm
/// is, else `br t; jmp f` — and each edge classified by the instruction
/// that carries it.
fn place_edges(blocks: &[BlockCode], layout: &Layout) -> Vec<EdgeTransfer> {
    let mut out = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        let at = layout.position(BlockId(b as u32));
        let next = layout.order().get(at + 1).copied();
        // The exit's machine branch and jump targets.
        let (branch, jump) = match block.term {
            Terminator::Return => continue,
            Terminator::Jump(to) => (None, Some(to)),
            Terminator::Branch { on_true, on_false } => match next {
                Some(n) if n == on_false => (Some(on_true), None),
                Some(n) if n == on_true => (Some(on_false), None),
                _ => (Some(on_true), Some(on_false)),
            },
        };
        let jump = jump.filter(|&to| next != Some(to));
        let backward_target = branch.is_some_and(|to| layout.position(to) <= at);
        out.extend(block.term.successors().into_iter().map(|to| {
            let taken = branch == Some(to);
            let kind = match (taken, jump) {
                (true, None) => TransferKind::TakenBranch,
                (true, Some(_)) => TransferKind::TakenBranchOverJump,
                (false, Some(j)) if j == to => TransferKind::Jump,
                (false, _) => TransferKind::FallThrough,
            };
            let conditional = branch.is_some();
            EdgeTransfer {
                kind,
                conditional,
                taken,
                backward_target,
            }
        }));
    }
    out
}

/// Evaluates `l op r`: the one definition of the binary operators, shared
/// by the plain and the constant-operand op.
#[inline]
fn binop(op: BinOp, l: i64, r: i64) -> Result<i64, TrapKind> {
    Ok(match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div | BinOp::Rem if r == 0 => return Err(TrapKind::DivideByZero),
        BinOp::Div => l.wrapping_div(r),
        BinOp::Rem => l.wrapping_rem(r),
        BinOp::BitAnd => l & r,
        BinOp::BitOr => l | r,
        BinOp::BitXor => l ^ r,
        // MCU shifters are loop-shifts: each count moves one bit, so
        // counts at or beyond the accumulator width shift everything out
        // (Shr sign-fills) instead of aliasing mod 64 — `x << 65` on a
        // 16-bit operand must not behave like `x << 1`. Negative counts,
        // reinterpreted as huge unsigned values, shift out too.
        BinOp::Shl => match u32::try_from(r) {
            Ok(n) if n < 64 => l.wrapping_shl(n),
            _ => 0,
        },
        BinOp::Shr => match u32::try_from(r) {
            Ok(n) if n < 64 => l.wrapping_shr(n),
            _ => -i64::from(l < 0),
        },
        BinOp::Lt => (l < r) as i64,
        BinOp::Le => (l <= r) as i64,
        BinOp::Gt => (l > r) as i64,
        BinOp::Ge => (l >= r) as i64,
        BinOp::Eq => (l == r) as i64,
        BinOp::Ne => (l != r) as i64,
        BinOp::And => ((l != 0) && (r != 0)) as i64,
        BinOp::Or => ((l != 0) || (r != 0)) as i64,
    })
}

enum ControlFlow {
    Continue(BlockId),
    Return(Option<i64>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AvrCost;
    use crate::timer::VirtualTimer;
    use crate::trace::{GroundTruthProfiler, NullProfiler, TimingProfiler};

    fn boot(src: &str) -> Mote {
        Mote::new(ct_ir::compile_source(src).unwrap(), Box::new(AvrCost))
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mote = boot("module M { proc add(a: u16, b: u16) -> u16 { return a + b; } }");
        let r = mote.call(ProcId(0), &[3, 4], &mut NullProfiler).unwrap();
        assert_eq!(r, Some(7));
    }

    #[test]
    fn wrong_arity_traps_instead_of_panicking() {
        let mut mote = boot("module M { proc add(a: u16, b: u16) -> u16 { return a + b; } }");
        let e = mote.call(ProcId(0), &[3], &mut NullProfiler).unwrap_err();
        assert_eq!(
            e.kind,
            TrapKind::ArgumentCountMismatch {
                expected: 2,
                got: 1
            }
        );
        assert!(e.to_string().contains("argument count mismatch"));
        // The mote stays usable after the trap.
        let r = mote.call(ProcId(0), &[3, 4], &mut NullProfiler).unwrap();
        assert_eq!(r, Some(7));
    }

    #[test]
    fn wrapping_on_store() {
        let mut mote = boot("module M { proc f(a: u8) -> u8 { var x: u8 = a + 200; return x; } }");
        let r = mote.call(ProcId(0), &[100], &mut NullProfiler).unwrap();
        assert_eq!(r, Some(44)); // 300 wrapped to u8
    }

    #[test]
    fn shifts_beyond_width_shift_out_on_both_mcus() {
        use crate::cost::{CostModel, Msp430Cost};
        let src = "module M {
            proc shl(x: u16, n: u16) -> u16 { return x << n; }
            proc shr(x: u16, n: u16) -> u16 { return x >> n; }
        }";
        let models: [Box<dyn CostModel>; 2] = [Box::new(AvrCost), Box::new(Msp430Cost)];
        for model in models {
            let mut mote = Mote::new(ct_ir::compile_source(src).unwrap(), model);
            let shl = |mote: &mut Mote, x: i64, n: i64| {
                mote.call(ProcId(0), &[x, n], &mut NullProfiler).unwrap()
            };
            let shr = |mote: &mut Mote, x: i64, n: i64| {
                mote.call(ProcId(1), &[x, n], &mut NullProfiler).unwrap()
            };
            // In-width shifts behave normally.
            assert_eq!(shl(&mut mote, 1, 3), Some(8));
            assert_eq!(shr(&mut mote, 0x8000, 15), Some(1));
            // A 16-bit operand shifted by 17 loses every bit: the count
            // exceeds the width, and the wrap-on-store finishes the job.
            assert_eq!(shl(&mut mote, 1, 17), Some(0));
            assert_eq!(shr(&mut mote, 0x8000, 17), Some(0));
            // Shift-by-65 is the regression case: the old `& 63` mask
            // aliased it to shift-by-1 (2 and 0x4000 here) instead of
            // shifting out.
            assert_eq!(shl(&mut mote, 1, 65), Some(0));
            assert_eq!(shr(&mut mote, 0x8000, 65), Some(0));
        }
    }

    #[test]
    fn branching_follows_condition() {
        let src = "module M { proc f(x: u16) -> u16 {
            var y: u16 = 0;
            if (x > 10) { y = 1; } else { y = 2; }
            return y;
        } }";
        let mut mote = boot(src);
        assert_eq!(
            mote.call(ProcId(0), &[20], &mut NullProfiler).unwrap(),
            Some(1)
        );
        assert_eq!(
            mote.call(ProcId(0), &[5], &mut NullProfiler).unwrap(),
            Some(2)
        );
    }

    #[test]
    fn loops_iterate() {
        let src = "module M { proc sum(n: u16) -> u32 {
            var acc: u32 = 0;
            var i: u16 = 0;
            while (i < n) { acc = acc + i; i = i + 1; }
            return acc;
        } }";
        let mut mote = boot(src);
        assert_eq!(
            mote.call(ProcId(0), &[10], &mut NullProfiler).unwrap(),
            Some(45)
        );
        assert_eq!(
            mote.call(ProcId(0), &[0], &mut NullProfiler).unwrap(),
            Some(0)
        );
    }

    #[test]
    fn globals_persist_across_calls() {
        let src =
            "module M { var total: u32; proc bump() -> u32 { total = total + 1; return total; } }";
        let mut mote = boot(src);
        for expected in 1..=5 {
            let r = mote.call(ProcId(0), &[], &mut NullProfiler).unwrap();
            assert_eq!(r, Some(expected));
        }
    }

    #[test]
    fn nested_calls_compute() {
        let src = "module M {
            proc sq(x: u16) -> u32 { return x * x; }
            proc sumsq(a: u16, b: u16) -> u32 { return sq(a) + sq(b); }
        }";
        let mut mote = boot(src);
        assert_eq!(
            mote.call(ProcId(1), &[3, 4], &mut NullProfiler).unwrap(),
            Some(25)
        );
    }

    #[test]
    fn arrays_read_write() {
        let src = "module M { var buf: u16[8]; proc fill(n: u16) -> u16 {
            var i: u16 = 0;
            while (i < n) { buf[i] = i * 3; i = i + 1; }
            return buf[2];
        } }";
        let mut mote = boot(src);
        assert_eq!(
            mote.call(ProcId(0), &[8], &mut NullProfiler).unwrap(),
            Some(6)
        );
    }

    #[test]
    fn divide_by_zero_traps() {
        let mut mote = boot("module M { proc f(x: u16) -> u16 { return 10 / x; } }");
        let e = mote.call(ProcId(0), &[0], &mut NullProfiler).unwrap_err();
        assert_eq!(e.kind, TrapKind::DivideByZero);
        // The mote survives the trap.
        assert_eq!(
            mote.call(ProcId(0), &[2], &mut NullProfiler).unwrap(),
            Some(5)
        );
    }

    #[test]
    fn index_out_of_bounds_traps() {
        let mut mote = boot("module M { var b: u8[2]; proc f(i: u16) { b[i] = 1; } }");
        let e = mote.call(ProcId(0), &[5], &mut NullProfiler).unwrap_err();
        assert_eq!(e.kind, TrapKind::IndexOutOfBounds { index: 5 });
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let mut mote = boot("module M { proc f() { var i: u16 = 1; while (i > 0) { i = 1; } } }");
        mote.config.step_limit = 10_000;
        let e = mote.call(ProcId(0), &[], &mut NullProfiler).unwrap_err();
        assert_eq!(e.kind, TrapKind::StepLimitExceeded);
    }

    #[test]
    fn a_callee_runs_on_the_budget_its_caller_has_left() {
        // Straight-line procedures: every instruction runs once, and the
        // caller has an instruction after the call.
        let mut mote = boot(
            "module M {
                proc leaf() -> u16 { var a: u16 = 1; a = a + 1; return a; }
                proc top() -> u16 { var r: u16 = leaf(); r = r + 1; return r; }
            }",
        );
        let procs = &mote.program().procs;
        let total: usize = procs.iter().flat_map(|p| &p.code).map(Vec::len).sum();
        mote.config.step_limit = total as u64;
        assert_eq!(
            mote.call(ProcId(1), &[], &mut NullProfiler).unwrap(),
            Some(3)
        );
        // One step short, the caller's last instruction is the one left out.
        mote.config.step_limit = total as u64 - 1;
        let e = mote.call(ProcId(1), &[], &mut NullProfiler).unwrap_err();
        assert_eq!((e.kind, e.proc), (TrapKind::StepLimitExceeded, ProcId(1)));
    }

    #[test]
    fn cycles_advance_deterministically() {
        let mut mote = boot("module M { proc f(x: u16) -> u16 { return x + 1; } }");
        let c0 = mote.cycles;
        mote.call(ProcId(0), &[1], &mut NullProfiler).unwrap();
        let c1 = mote.cycles;
        mote.call(ProcId(0), &[1], &mut NullProfiler).unwrap();
        let c2 = mote.cycles;
        assert!(c1 > c0);
        assert_eq!(c2 - c1, c1 - c0, "identical calls cost identical cycles");
    }

    #[test]
    fn window_equals_path_cost() {
        // The core timing identity: measured window (cycle-accurate, zero
        // overhead) == Σ block costs + Σ edge costs along the executed path.
        let src = "module M { var a: u16; proc f(x: u16) {
            if (x > 10) { a = a + x; } else { a = a * 2; }
        } }";
        let mut mote = boot(src);
        let pid = ProcId(0);
        let program = mote.program().clone();
        for &arg in &[20i64, 5] {
            let mut gt = GroundTruthProfiler::new(&program);
            let mut tp = TimingProfiler::new(&program, VirtualTimer::cycle_accurate(), 0);
            let mut pair = crate::trace::PairProfiler {
                a: &mut gt,
                b: &mut tp,
            };
            mote.call(pid, &[arg], &mut pair).unwrap();
            let bc = mote.static_block_costs(pid);
            let ec = mote.static_edge_costs(pid);
            let cfg = &program.procs[0].cfg;
            // Path cost from the exact edge profile.
            let visits = gt.profile(pid).block_visits(cfg, 1);
            let block_sum: u64 = visits.iter().enumerate().map(|(i, &v)| v * bc[i]).sum();
            let edge_sum: u64 = (0..cfg.edges().len())
                .map(|i| gt.profile(pid).count(i) * ec[i])
                .sum();
            assert_eq!(tp.samples(pid), &[block_sum + edge_sum], "arg={arg}");
        }
    }

    #[test]
    fn exclusive_windows_subtract_callees() {
        let src = "module M {
            proc leaf(x: u16) -> u16 { return x * 2; }
            proc top(x: u16) -> u16 { var y: u16 = leaf(x); return y + leaf(y); }
        }";
        let mut mote = boot(src);
        let program = mote.program().clone();
        let mut tp = TimingProfiler::new(&program, VirtualTimer::cycle_accurate(), 0);
        mote.call(ProcId(1), &[3], &mut tp).unwrap();
        // leaf has two identical activations; top's exclusive time excludes them.
        assert_eq!(tp.samples(ProcId(0)).len(), 2);
        assert_eq!(tp.samples(ProcId(0))[0], tp.samples(ProcId(0))[1]);
        assert_eq!(tp.samples(ProcId(1)).len(), 1);
        // Exclusive top time is layout/call-overhead only, far less than the window.
        let leaf_total: u64 = tp.samples(ProcId(0)).iter().sum();
        assert!(tp.samples(ProcId(1))[0] > 0);
        assert!(leaf_total > 0);
    }

    #[test]
    fn intrinsics_drive_devices() {
        let src = "module M { proc f() -> u16 {
            led_toggle(0);
            var ok: bool = send_msg(99);
            var v: u16 = read_adc();
            return v;
        } }";
        let mut mote = boot(src);
        mote.devices.adc = Box::new(crate::devices::ConstantAdc(777));
        let r = mote.call(ProcId(0), &[], &mut NullProfiler).unwrap();
        assert_eq!(r, Some(777));
        assert!(mote.devices.leds.state[0]);
        assert_eq!(mote.devices.radio.sent, vec![99]);
    }

    #[test]
    fn radio_receive_path() {
        let src = "module M { proc f() -> u16 {
            var v: u16 = 0;
            if (recv_avail()) { v = recv_msg(); } else { v = 9999; }
            return v;
        } }";
        let mut mote = boot(src);
        assert_eq!(
            mote.call(ProcId(0), &[], &mut NullProfiler).unwrap(),
            Some(9999)
        );
        mote.devices.radio.deliver(42);
        assert_eq!(
            mote.call(ProcId(0), &[], &mut NullProfiler).unwrap(),
            Some(42)
        );
    }

    #[test]
    fn contamination_inflates_windows() {
        let src = "module M { proc f() { led_toggle(0); } }";
        let mut mote = boot(src);
        let program = mote.program().clone();
        let mut tp = TimingProfiler::new(&program, VirtualTimer::cycle_accurate(), 0);
        mote.call(ProcId(0), &[], &mut tp).unwrap();
        let clean = tp.samples(ProcId(0))[0];

        mote.config.contamination_prob = 1.0;
        mote.config.contamination_cycles = 500;
        let mut tp2 = TimingProfiler::new(&program, VirtualTimer::cycle_accurate(), 0);
        mote.call(ProcId(0), &[], &mut tp2).unwrap();
        assert_eq!(tp2.samples(ProcId(0))[0], clean + 500);
    }

    #[test]
    fn layout_change_alters_cycle_cost() {
        let src = "module M { var a: u16; proc f(x: u16) {
            if (x > 10) { a = 1; } else { a = 2; }
        } }";
        let mut mote = boot(src);
        let pid = ProcId(0);
        let cfg = mote.program().procs[0].cfg.clone();

        let run_cost = |mote: &mut Mote| {
            let before = mote.cycles;
            mote.call(pid, &[20], &mut NullProfiler).unwrap(); // always true arm
            mote.cycles - before
        };
        let natural_cost = run_cost(&mut mote);
        // Lowering emits blocks as [cond, join, then, else], so the natural
        // layout displaces both branch targets. Moving the hot then-arm right
        // after the condition makes it a fall-through and elides the jump.
        let order: Vec<_> = {
            use ct_cfg::graph::BlockId;
            let mut o: Vec<BlockId> = cfg.block_ids().collect();
            o.swap(1, 2); // [cond, then, join, else]
            o
        };
        let hot_fallthrough = Layout::from_order(&cfg, order).unwrap();
        mote.set_layout(pid, hot_fallthrough);
        let optimized_cost = run_cost(&mut mote);
        assert!(
            optimized_cost < natural_cost,
            "{optimized_cost} vs {natural_cost}"
        );
    }

    #[test]
    fn call_depth_limit_enforced() {
        // Build an artificial deep chain via hand-written wrappers.
        let src = "module M {
            proc p0() { led_toggle(0); }
            proc p1() { p0(); }
            proc p2() { p1(); }
            proc p3() { p2(); }
        }";
        let mut mote = boot(src);
        mote.config.call_depth_limit = 2;
        let e = mote.call(ProcId(3), &[], &mut NullProfiler).unwrap_err();
        assert_eq!(e.kind, TrapKind::CallDepthExceeded);
    }

    #[test]
    fn trap_display_names_location() {
        let e = TrapError {
            kind: TrapKind::DivideByZero,
            proc: ProcId(1),
            block: BlockId(2),
        };
        assert!(e.to_string().contains("p1"));
        assert!(e.to_string().contains("b2"));
    }
}
