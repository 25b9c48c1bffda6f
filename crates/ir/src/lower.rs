//! Lowering from checked AST to per-procedure CFGs of stack-machine
//! instructions.
//!
//! Invariants established here (and relied on by the rest of the workspace):
//!
//! - block 0 is the entry;
//! - every procedure has **exactly one** `Return` block (sema's
//!   return-as-last-statement rule plus the implicit trailing return);
//! - every loop is header-controlled with a single latch;
//! - consequently every lowered procedure is reducible
//!   (`ct_cfg::loops::is_reducible`).

use crate::ast::*;
use crate::error::IrError;
use crate::instr::{Instr, Intrinsic};
use crate::program::{Global, Procedure, Program};
use crate::sema::{analyze, Analysis};
use crate::tripcount::counted_whiles;
use crate::types::Ty;
use ct_cfg::graph::{BlockId, Cfg, Terminator};

/// Lowers a checked module into a [`Program`].
///
/// `analysis` must come from [`analyze`] on the same module.
pub fn lower(module: &Module, analysis: &Analysis) -> Program {
    let globals = module
        .globals
        .iter()
        .map(|g| Global {
            name: g.name.clone(),
            ty: g.ty,
            len: g.array_len.unwrap_or(1),
            init: g.init.map(|v| g.ty.wrap(v)).unwrap_or(0),
        })
        .collect();

    let procs = module
        .procs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut lowerer = Lowerer::new(p, analysis);
            lowerer.lower_body();
            Procedure {
                name: p.name.clone(),
                params: p.params.iter().map(|q| q.ty).collect(),
                ret: p.ret,
                n_locals: analysis.n_locals[i],
                cfg: lowerer.cfg,
                code: lowerer.code,
                counted_loops: lowerer.counted_loops,
            }
        })
        .collect();

    Program {
        name: module.name.clone(),
        globals,
        procs,
    }
}

/// Parses, checks and lowers NLC source in one call.
///
/// # Errors
///
/// Propagates lex, parse and semantic errors.
///
/// # Examples
///
/// ```
/// let program = ct_ir::compile_source(
///     "module Blink { var on: bool; proc tick() { on = !on; led_set(0, 1); } }",
/// ).unwrap();
/// assert_eq!(program.procs.len(), 1);
/// assert!(program.procs[0].cfg.validate().is_ok());
/// ```
pub fn compile_source(src: &str) -> Result<Program, IrError> {
    let module = crate::parser::parse_module(src)?;
    let analysis = analyze(&module)?;
    Ok(lower(&module, &analysis))
}

struct Lowerer<'a> {
    proc: &'a ProcDecl,
    analysis: &'a Analysis,
    cfg: Cfg,
    code: Vec<Vec<Instr>>,
    cur: BlockId,
    /// Trip counts of counted `while`s, keyed by statement span.
    trip_counts: std::collections::HashMap<crate::token::Span, u64>,
    counted_loops: Vec<(BlockId, u64)>,
}

impl<'a> Lowerer<'a> {
    fn new(proc: &'a ProcDecl, analysis: &'a Analysis) -> Self {
        let mut cfg = Cfg::new(proc.name.clone());
        let entry = cfg.add_block("entry", Terminator::Return);
        Lowerer {
            proc,
            analysis,
            cfg,
            code: vec![Vec::new()],
            cur: entry,
            trip_counts: counted_whiles(proc),
            counted_loops: Vec::new(),
        }
    }

    fn new_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = self.cfg.add_block(name, Terminator::Return);
        self.code.push(Vec::new());
        id
    }

    fn emit(&mut self, instr: Instr) {
        self.code[self.cur.index()].push(instr);
    }

    fn local(&self, name: &str) -> Option<(u16, Ty)> {
        let pid = self.analysis.procs[&self.proc.name].0;
        self.analysis.locals[pid.index()].get(name).copied()
    }

    fn lower_body(&mut self) {
        let ends_with_return = matches!(self.proc.body.last(), Some(Stmt::Return { .. }));
        let body: &[Stmt] = &self.proc.body;
        for stmt in body {
            self.lower_stmt(stmt);
        }
        if !ends_with_return {
            // Implicit return; value procedures return zero.
            if self.proc.ret.is_some() {
                self.emit(Instr::PushConst(0));
            }
            self.cfg.set_terminator(self.cur, Terminator::Return);
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::VarDecl { name, ty, init, .. } => {
                match init {
                    Some(e) => self.lower_expr(e),
                    None => self.emit(Instr::PushConst(0)),
                }
                self.emit(Instr::Cast(*ty));
                let Some((slot, _)) = self.local(name) else {
                    // Lowering only runs over sema-checked modules, and sema
                    // allocates a slot for every declared local.
                    unreachable!("sema resolved every declared local before lowering");
                };
                self.emit(Instr::StoreLocal(slot));
            }
            Stmt::Assign { target, value, .. } => match target {
                LValue::Var(name) => {
                    self.lower_expr(value);
                    if let Some((slot, ty)) = self.local(name) {
                        self.emit(Instr::Cast(ty));
                        self.emit(Instr::StoreLocal(slot));
                    } else {
                        let (gid, ty, _) = self.analysis.globals[name];
                        self.emit(Instr::Cast(ty));
                        self.emit(Instr::StoreGlobal(gid));
                    }
                }
                LValue::Elem(name, index) => {
                    let (gid, ty, _) = self.analysis.globals[name];
                    self.lower_expr(index);
                    self.lower_expr(value);
                    self.emit(Instr::Cast(ty));
                    self.emit(Instr::StoreElem(gid));
                }
            },
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.lower_expr(cond);
                let join = self.new_block("join");
                let cond_block = self.cur;
                let (on_true, on_false) = match (then_blk.is_empty(), else_blk.is_empty()) {
                    (false, false) => {
                        let t = self.lower_arm("then", then_blk, join);
                        let e = self.lower_arm("else", else_blk, join);
                        (t, e)
                    }
                    (false, true) => {
                        let t = self.lower_arm("then", then_blk, join);
                        (t, join)
                    }
                    (true, false) => {
                        let e = self.lower_arm("else", else_blk, join);
                        (join, e)
                    }
                    (true, true) => {
                        // Both arms empty: still branch somewhere distinct to
                        // keep the CFG non-degenerate (the condition may have
                        // side effects through calls).
                        let t = self.lower_arm("then", &[], join);
                        (t, join)
                    }
                };
                self.cfg
                    .set_terminator(cond_block, Terminator::Branch { on_true, on_false });
                self.cur = join;
            }
            Stmt::While { cond, body, span } => {
                let header = self.new_block("loop_header");
                if let Some(&trips) = self.trip_counts.get(span) {
                    self.counted_loops.push((header, trips));
                }
                self.cfg.set_terminator(self.cur, Terminator::Jump(header));
                self.cur = header;
                self.lower_expr(cond);

                let body_block = self.new_block("loop_body");
                self.cur = body_block;
                for s in body {
                    self.lower_stmt(s);
                }
                // Single latch: wherever the body ends jumps back to the header.
                self.cfg.set_terminator(self.cur, Terminator::Jump(header));

                let exit = self.new_block("loop_exit");
                self.cfg.set_terminator(
                    header,
                    Terminator::Branch {
                        on_true: body_block,
                        on_false: exit,
                    },
                );
                self.cur = exit;
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.lower_expr(e);
                    if let Some(ty) = self.proc.ret {
                        self.emit(Instr::Cast(ty));
                    }
                }
                self.cfg.set_terminator(self.cur, Terminator::Return);
            }
            Stmt::Expr { expr, .. } => {
                self.lower_expr(expr);
                if self.call_produces_value(expr) {
                    self.emit(Instr::Pop);
                }
            }
        }
    }

    /// Lowers one arm of a conditional into fresh blocks ending with a jump
    /// to `join`; returns the arm's first block.
    fn lower_arm(&mut self, name: &str, stmts: &[Stmt], join: BlockId) -> BlockId {
        let first = self.new_block(name);
        self.cur = first;
        for s in stmts {
            self.lower_stmt(s);
        }
        self.cfg.set_terminator(self.cur, Terminator::Jump(join));
        first
    }

    fn call_produces_value(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Call(name, _) => {
                if let Some(intr) = Intrinsic::from_name(name) {
                    intr.result().is_some()
                } else {
                    self.analysis.procs[name].2.is_some()
                }
            }
            _ => false,
        }
    }

    fn lower_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Int(v) => self.emit(Instr::PushConst(*v)),
            ExprKind::Bool(b) => self.emit(Instr::PushConst(*b as i64)),
            ExprKind::Var(name) => {
                if let Some((slot, _)) = self.local(name) {
                    self.emit(Instr::LoadLocal(slot));
                } else {
                    let (gid, _, _) = self.analysis.globals[name];
                    self.emit(Instr::LoadGlobal(gid));
                }
            }
            ExprKind::Elem(name, index) => {
                let (gid, _, _) = self.analysis.globals[name];
                self.lower_expr(index);
                self.emit(Instr::LoadElem(gid));
            }
            ExprKind::Unary(op, operand) => {
                self.lower_expr(operand);
                self.emit(Instr::Unary(*op));
            }
            ExprKind::Binary(op, lhs, rhs) => {
                self.lower_expr(lhs);
                self.lower_expr(rhs);
                self.emit(Instr::Binary(*op));
            }
            ExprKind::Call(name, args) => {
                for a in args {
                    self.lower_expr(a);
                }
                if let Some(intr) = Intrinsic::from_name(name) {
                    self.emit(Instr::Intrinsic(intr));
                } else {
                    let (pid, _, _) = self.analysis.procs[name];
                    self.emit(Instr::Call(pid));
                }
            }
        }
    }
}

/// Sema result kinds re-exported for convenience when inspecting lowered
/// calls.
pub use crate::instr::ValKind as LoweredValKind;

#[cfg(test)]
mod tests {
    use super::*;
    use ct_cfg::loops::is_reducible;

    fn compile(src: &str) -> Program {
        compile_source(src).unwrap()
    }

    #[test]
    fn straight_line_proc_is_single_block() {
        let p = compile("module M { var a: u16; proc f(x: u16) { a = x + 1; } }");
        let proc = &p.procs[0];
        assert_eq!(proc.cfg.len(), 1);
        assert!(proc.cfg.validate().is_ok());
        assert_eq!(
            proc.block_code(BlockId(0)),
            &[
                Instr::LoadLocal(0),
                Instr::PushConst(1),
                Instr::Binary(BinOp::Add),
                Instr::Cast(Ty::U16),
                Instr::StoreGlobal(crate::instr::GlobalId(0)),
            ]
        );
    }

    #[test]
    fn if_else_lowers_to_diamond() {
        let p = compile(
            "module M { var a: u16; proc f(x: u16) {
                if (x > 5) { a = 1; } else { a = 2; }
            } }",
        );
        let proc = &p.procs[0];
        assert!(proc.cfg.validate().is_ok());
        assert_eq!(proc.cfg.branch_blocks().len(), 1);
        assert_eq!(proc.cfg.exit_blocks().len(), 1);
        assert!(is_reducible(&proc.cfg));
    }

    #[test]
    fn if_without_else_still_valid() {
        let p = compile("module M { var a: u16; proc f(x: u16) { if (x > 5) { a = 1; } } }");
        assert!(p.procs[0].cfg.validate().is_ok());
        assert!(is_reducible(&p.procs[0].cfg));
        assert_eq!(p.procs[0].cfg.exit_blocks().len(), 1);
    }

    #[test]
    fn empty_if_does_not_degenerate() {
        let p = compile("module M { proc f(x: u16) { if (x > 5) { } } }");
        assert!(p.procs[0].cfg.validate().is_ok());
    }

    #[test]
    fn while_lowers_to_natural_loop() {
        let p = compile(
            "module M { proc f(n: u16) {
                var i: u16 = 0;
                while (i < n) { i = i + 1; }
            } }",
        );
        let proc = &p.procs[0];
        assert!(proc.cfg.validate().is_ok());
        assert!(!proc.cfg.is_acyclic());
        let forest = ct_cfg::loops::LoopForest::compute(&proc.cfg);
        assert_eq!(forest.len(), 1);
        assert!(is_reducible(&proc.cfg));
        assert_eq!(proc.cfg.exit_blocks().len(), 1);
    }

    #[test]
    fn all_lowered_procs_have_single_exit() {
        let p = compile(
            "module M {
                var a: u16;
                proc f(x: u16) -> u16 {
                    var acc: u16 = 0;
                    while (x > 0) {
                        if (x % 2 == 0) { acc = acc + x; } else { acc = acc + 1; }
                        x = x - 1;
                    }
                    return acc;
                }
                proc g() { a = f(a); }
            }",
        );
        for proc in &p.procs {
            assert_eq!(proc.cfg.exit_blocks().len(), 1, "{}", proc.name);
            assert!(is_reducible(&proc.cfg), "{}", proc.name);
        }
    }

    #[test]
    fn implicit_return_pushes_zero_for_value_proc() {
        let p = compile("module M { proc f() -> u16 { var x: u16 = 1; } }");
        let proc = &p.procs[0];
        let exit = proc.cfg.exit_blocks()[0];
        assert_eq!(proc.block_code(exit).last(), Some(&Instr::PushConst(0)));
    }

    #[test]
    fn nested_loops_lower_structurally() {
        let p = compile(
            "module M { proc f(n: u16) {
                var i: u16 = 0;
                while (i < n) {
                    var j: u16 = 0;
                    while (j < i) { j = j + 1; }
                    i = i + 1;
                }
            } }",
        );
        let proc = &p.procs[0];
        let forest = ct_cfg::loops::LoopForest::compute(&proc.cfg);
        assert_eq!(forest.len(), 2);
        assert!(is_reducible(&proc.cfg));
        assert_eq!(proc.cfg.exit_blocks().len(), 1);
    }

    #[test]
    fn void_call_statement_has_no_pop_value_call_pops() {
        let p = compile(
            "module M {
                proc v() { led_toggle(0); }
                proc w() -> u16 { return 1; }
                proc f() { v(); w(); }
            }",
        );
        let f = &p.procs[2];
        let code = f.block_code(BlockId(0));
        // v(): Call; w(): Call, Pop.
        assert_eq!(code.iter().filter(|i| matches!(i, Instr::Pop)).count(), 1);
    }

    #[test]
    fn array_store_order_is_index_then_value() {
        let p = compile("module M { var b: u8[4]; proc f(i: u8) { b[i] = i + 1; } }");
        let code = p.procs[0].block_code(BlockId(0));
        // ldloc i; ldloc i; push 1; add; cast; stelem
        assert_eq!(code[0], Instr::LoadLocal(0));
        assert!(matches!(code.last(), Some(Instr::StoreElem(_))));
    }

    #[test]
    fn global_initializers_are_wrapped() {
        let p = compile("module M { var a: u8 = 300; }");
        assert_eq!(p.globals[0].init, 44);
    }

    #[test]
    fn loop_condition_lives_in_header() {
        let p =
            compile("module M { proc f(n: u16) { var i: u16 = 0; while (i < n) { i = i + 1; } } }");
        let proc = &p.procs[0];
        let header = proc
            .cfg
            .branch_blocks()
            .first()
            .copied()
            .expect("loop header is the only branch");
        let code = proc.block_code(header);
        assert!(code.iter().any(|i| matches!(i, Instr::Binary(BinOp::Lt))));
    }
}
