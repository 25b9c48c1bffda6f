//! Property-based tests of the mote: interpreter semantics against a Rust
//! oracle, determinism, and cycle-accounting invariants.

use ct_ir::ast::BinOp;
use ct_ir::instr::{GlobalId, Instr, ProcId};
use ct_ir::program::Program;
use ct_ir::types::Ty;
use ct_mote::cost::{AvrCost, CostModel, Msp430Cost};
use ct_mote::interp::{Mote, TrapKind};
use ct_mote::trace::NullProfiler;
use proptest::prelude::*;

fn boot(src: &str) -> Mote {
    Mote::new(ct_ir::compile_source(src).unwrap(), Box::new(AvrCost))
}

/// The binary operators a straight-line statement may apply to a constant
/// (every constant is nonzero, so `/` and `%` never trap).
const OPS: [&str; 10] = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"];

/// A one-block procedure of `v = u op k` statements, `v` one of `x`, `y`
/// and `g` and `u` one of `x` and `g`: every statement lowers to `load;
/// push k; binary; cast; store`, so it holds a `load; push; binary`
/// triple (local or global) and a `cast; store` pair.
fn straight_line_source(stmts: &[(usize, u16, usize, usize)]) -> String {
    let mut body = String::new();
    for &(op, k, target, source) in stmts {
        let lhs = ["x", "y", "g"][target];
        let rhs = ["x", "g"][source];
        body.push_str(&format!("{lhs} = {rhs} {} {k};\n", OPS[op]));
    }
    format!(
        "module M {{ var g: u16; proc f(a: u16) -> u16 {{
            var x: u16 = a;
            var y: u8 = 0;
            {body}
            return x + y;
        }} }}"
    )
}

/// `program` with procedure 0's only block replaced by `code`.
fn with_code(mut program: Program, code: Vec<Instr>) -> Program {
    assert_eq!(program.procs[0].code.len(), 1, "one-block procedure");
    program.procs[0].code[0] = code;
    program
}

/// A void, parameterless one-block procedure with one local and one global
/// scalar, for hand-built instruction sequences.
fn void_shell() -> Program {
    ct_ir::compile_source("module M { var g: u16; proc f() { var x: u16 = 0; g = x; } }").unwrap()
}

/// Calls procedure 0 of `program` on a fresh mote under `model` with
/// `step_limit`, returning the outcome and the cycles charged.
fn run_limited(
    program: &Program,
    model: Box<dyn CostModel>,
    step_limit: u64,
    args: &[i64],
) -> (Result<Option<i64>, TrapKind>, u64) {
    let mut mote = Mote::new(program.clone(), model);
    mote.config.step_limit = step_limit;
    let r = mote.call(ProcId(0), args, &mut NullProfiler);
    (r.map_err(|e| e.kind), mote.cycles)
}

/// The cycles of the first `n` instructions of `code` under `model`.
fn prefix_cost(model: &dyn CostModel, code: &[Instr], n: usize) -> u64 {
    code[..n].iter().map(|i| model.instr_cost(i)).sum()
}

/// A trap inside a fused `cast; store`, `push k; binary` or `load; push k;
/// binary` (with or without a `cast; store` behind it) charges what the
/// unfused sequence would: an underflow in the cast charges the cast but
/// not the store, an underflow in the binary charges the push too, and a
/// step budget that ends between the halves charges the first half only.
#[test]
fn traps_inside_fused_pairs_charge_the_unfused_prefix() {
    let cases: Vec<(Vec<Instr>, TrapKind, usize)> = vec![
        // Underflow in the cast of `cast; stloc`: push, pop and cast run.
        (
            vec![
                Instr::PushConst(5),
                Instr::Pop,
                Instr::Cast(Ty::U16),
                Instr::StoreLocal(0),
            ],
            TrapKind::StackUnderflow,
            3,
        ),
        // The same in `cast; stglob`.
        (
            vec![
                Instr::PushConst(5),
                Instr::Pop,
                Instr::Cast(Ty::U8),
                Instr::StoreGlobal(GlobalId(0)),
            ],
            TrapKind::StackUnderflow,
            3,
        ),
        // Underflow in the binary of `push k; binary`: both run.
        (
            vec![Instr::PushConst(1), Instr::Binary(BinOp::Add)],
            TrapKind::StackUnderflow,
            2,
        ),
        // Division and remainder by a constant zero: load, push, divide.
        (
            vec![
                Instr::LoadLocal(0),
                Instr::PushConst(0),
                Instr::Binary(BinOp::Div),
                Instr::Pop,
            ],
            TrapKind::DivideByZero,
            3,
        ),
        (
            vec![
                Instr::LoadLocal(0),
                Instr::PushConst(0),
                Instr::Binary(BinOp::Rem),
                Instr::Pop,
            ],
            TrapKind::DivideByZero,
            3,
        ),
        // A local update dividing by a constant zero traps in the divide,
        // before its cast and store.
        (
            vec![
                Instr::LoadLocal(0),
                Instr::PushConst(0),
                Instr::Binary(BinOp::Div),
                Instr::Cast(Ty::U16),
                Instr::StoreLocal(0),
            ],
            TrapKind::DivideByZero,
            3,
        ),
    ];
    let models: [fn() -> Box<dyn CostModel>; 2] = [|| Box::new(AvrCost), || Box::new(Msp430Cost)];
    for (code, kind, ran) in cases {
        let program = with_code(void_shell(), code.clone());
        for model in models {
            let want = prefix_cost(model().as_ref(), &code, ran);
            let (r, cycles) = run_limited(&program, model(), 1_000, &[]);
            assert_eq!(r, Err(kind.clone()), "{code:?}");
            assert_eq!(cycles, want, "{code:?}: cycles at the {kind:?} trap");
            // A budget that ends just before the trapping instruction
            // stops there, charging exactly the instructions before it;
            // one that covers it still takes the same trap.
            for limit in 0..=ran as u64 {
                let (r, cycles) = run_limited(&program, model(), limit, &[]);
                let (want_kind, n) = if limit as usize >= ran {
                    (kind.clone(), ran)
                } else {
                    (TrapKind::StepLimitExceeded, limit as usize)
                };
                assert_eq!(r, Err(want_kind), "{code:?} at step limit {limit}");
                assert_eq!(
                    cycles,
                    prefix_cost(model().as_ref(), &code, n),
                    "{code:?}: cycles at step limit {limit}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arithmetic matches a Rust oracle with u16 wrapping on stores.
    #[test]
    fn arithmetic_oracle(a in 0u16..=u16::MAX, b in 0u16..=u16::MAX) {
        let mut mote = boot(
            "module M { proc f(a: u16, b: u16) -> u16 { return a + b * 3 - (a & b); } }",
        );
        let r = mote.call(ProcId(0), &[a as i64, b as i64], &mut NullProfiler).unwrap();
        let expect = (a as i64 + b as i64 * 3 - (a & b) as i64) as u16;
        prop_assert_eq!(r, Some(expect as i64));
    }

    /// Division oracle (nonzero divisor).
    #[test]
    fn division_oracle(a in 0u16..=u16::MAX, b in 1u16..=u16::MAX) {
        let mut mote = boot(
            "module M { proc f(a: u16, b: u16) -> u16 { return a / b + a % b; } }",
        );
        let r = mote.call(ProcId(0), &[a as i64, b as i64], &mut NullProfiler).unwrap();
        let expect = ((a / b) as i64 + (a % b) as i64) as u16 as i64;
        prop_assert_eq!(r, Some(expect));
    }

    /// Loop summation oracle.
    #[test]
    fn loop_sum_oracle(n in 0u16..200) {
        let mut mote = boot(
            "module M { proc f(n: u16) -> u32 {
                var acc: u32 = 0;
                var i: u16 = 0;
                while (i < n) { acc = acc + i * i; i = i + 1; }
                return acc;
            } }",
        );
        let r = mote.call(ProcId(0), &[n as i64], &mut NullProfiler).unwrap();
        let expect: i64 = (0..n as i64).map(|i| i * i).sum::<i64>() & 0xFFFF_FFFF;
        prop_assert_eq!(r, Some(expect));
    }

    /// Identical calls cost identical cycles (pure procedures).
    #[test]
    fn cycle_cost_deterministic(x in 0u16..1000) {
        let src = "module M { var a: u32; proc f(x: u16) {
            if (x % 3 == 0) { a = a + x; } else { a = a ^ x; }
        } }";
        let mut mote = boot(src);
        let c0 = mote.cycles;
        mote.call(ProcId(0), &[x as i64], &mut NullProfiler).unwrap();
        let d1 = mote.cycles - c0;
        let c1 = mote.cycles;
        mote.call(ProcId(0), &[x as i64], &mut NullProfiler).unwrap();
        let d2 = mote.cycles - c1;
        prop_assert_eq!(d1, d2);
    }

    /// The MSP430 model runs everything the AVR model runs (same semantics,
    /// different cycles).
    #[test]
    fn models_agree_on_semantics(a in 0u16..5000, b in 0u16..5000) {
        let src = "module M { proc f(a: u16, b: u16) -> u16 {
            var m: u16 = 0;
            if (a > b) { m = a - b; } else { m = b - a; }
            return m;
        } }";
        let program = ct_ir::compile_source(src).unwrap();
        let mut avr = Mote::new(program.clone(), Box::new(AvrCost));
        let mut msp = Mote::new(program, Box::new(Msp430Cost));
        let ra = avr.call(ProcId(0), &[a as i64, b as i64], &mut NullProfiler).unwrap();
        let rm = msp.call(ProcId(0), &[a as i64, b as i64], &mut NullProfiler).unwrap();
        prop_assert_eq!(ra, rm);
        prop_assert_eq!(ra, Some((a as i64 - b as i64).abs()));
    }

    /// Bounds traps fire for exactly the out-of-range indices.
    #[test]
    fn array_bounds_exact(i in 0i64..20) {
        let mut mote = boot("module M { var b: u8[8]; proc f(i: u16) { b[i] = 1; } }");
        let r = mote.call(ProcId(0), &[i], &mut NullProfiler);
        if i < 8 {
            prop_assert!(r.is_ok());
        } else {
            prop_assert!(r.is_err());
        }
    }

    /// A step budget charges exactly the source instructions it covers,
    /// fused or not (a budget can end inside a pair or either way inside a
    /// triple): on a straight-line procedure, the trap at
    /// `step_limit` leaves the cycle counter at the sum of the first
    /// `step_limit` instruction costs (no profiler, so no overhead), and
    /// a budget that covers every instruction runs to the return.
    #[test]
    fn step_limit_traps_charge_exact_instruction_prefixes(
        stmts in proptest::collection::vec(
            (0usize..10, 1u16..=u16::MAX, 0usize..3, 0usize..2),
            1..10,
        ),
        a in 0u16..=u16::MAX,
        msp in 0u8..2,
    ) {
        let program = ct_ir::compile_source(&straight_line_source(&stmts)).unwrap();
        let proc = &program.procs[0];
        prop_assert_eq!(proc.code.len(), 1);
        let code = &proc.code[0];
        let model = || -> Box<dyn CostModel> {
            if msp == 1 { Box::new(Msp430Cost) } else { Box::new(AvrCost) }
        };
        let fusable = code.windows(2).filter(|w| matches!(
            w,
            [Instr::PushConst(_), Instr::Binary(_)]
                | [Instr::Cast(_), Instr::StoreLocal(_) | Instr::StoreGlobal(_)]
        )).count();
        prop_assert!(fusable >= 2 * stmts.len());
        let triples = code.windows(3).filter(|w| matches!(
            w,
            [Instr::LoadLocal(_) | Instr::LoadGlobal(_), Instr::PushConst(_), Instr::Binary(_)]
        )).count();
        prop_assert!(triples >= stmts.len());
        for limit in 0..code.len() {
            let (r, cycles) = run_limited(&program, model(), limit as u64, &[a as i64]);
            prop_assert_eq!(r, Err(TrapKind::StepLimitExceeded));
            prop_assert_eq!(cycles, prefix_cost(model().as_ref(), code, limit));
        }
        let (r, cycles) = run_limited(&program, model(), code.len() as u64, &[a as i64]);
        prop_assert!(r.is_ok());
        prop_assert_eq!(cycles, prefix_cost(model().as_ref(), code, code.len()) + model().return_cost());
    }

    /// Seeded reruns of a stochastic workload reproduce exactly.
    #[test]
    fn seeded_determinism(seed in 0u64..500) {
        let src = "module M { var acc: u32; proc f() {
            var v: u16 = read_adc();
            if (v > 512) { acc = acc + v; } else { }
        } }";
        let run = |seed: u64| {
            let mut mote = boot(src);
            mote.reseed(seed);
            for _ in 0..20 {
                mote.call(ProcId(0), &[], &mut NullProfiler).unwrap();
            }
            (mote.cycles, mote.globals.load(ct_ir::instr::GlobalId(0)))
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
