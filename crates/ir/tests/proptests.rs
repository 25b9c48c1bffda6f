//! Property-based tests of the NLC front end: pretty-print/reparse
//! stability, lowering invariants, and lexer robustness.

use ct_ir::lexer::tokenize;
use ct_ir::parser::parse_module;
use proptest::prelude::*;

/// Generates a random well-formed NLC expression string.
fn expr_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0u32..10_000).prop_map(|v| v.to_string()),
        Just("x".to_string()),
        Just("y".to_string()),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (
            inner.clone(),
            prop_oneof![Just("+"), Just("*"), Just("-"), Just("&"), Just("^")],
            inner,
        )
            .prop_map(|(a, op, b)| format!("({a} {op} {b})"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lexer never panics on arbitrary input (it may error).
    #[test]
    fn lexer_total(input in "\\PC{0,120}") {
        let _ = tokenize(&input);
    }

    /// The parser never panics on arbitrary token-ish input.
    #[test]
    fn parser_total(input in "[a-z0-9{}();=<>+*,:&|! \\n]{0,200}") {
        let _ = parse_module(&input);
    }

    /// Random well-formed expressions compile and lower.
    #[test]
    fn expressions_compile(e in expr_strategy()) {
        let src = format!(
            "module T {{ var g: u32; proc f(x: u16, y: u16) {{ g = {e}; }} }}"
        );
        let program = ct_ir::compile_source(&src).expect("well-formed expression compiles");
        prop_assert_eq!(program.procs.len(), 1);
        prop_assert!(program.procs[0].cfg.validate().is_ok());
    }

    /// Lowered straight-line procedures are single blocks with balanced
    /// stack effects (the interpreter can run them).
    #[test]
    fn straight_line_is_single_block(e in expr_strategy()) {
        let src = format!(
            "module T {{ var g: u32; proc f(x: u16, y: u16) {{ g = {e}; g = g + 1; }} }}"
        );
        let program = ct_ir::compile_source(&src).unwrap();
        prop_assert_eq!(program.procs[0].cfg.len(), 1);
        use ct_mote::cost::AvrCost;
        use ct_mote::interp::Mote;
        use ct_mote::trace::NullProfiler;
        let mut mote = Mote::new(program, Box::new(AvrCost));
        let r = mote.call(ct_ir::instr::ProcId(0), &[3, 5], &mut NullProfiler);
        prop_assert!(r.is_ok());
    }

    /// Nesting depth of ifs translates to branch counts.
    #[test]
    fn nested_ifs_have_matching_branch_count(depth in 1usize..6) {
        let mut body = "g = g + 1;".to_string();
        for i in 0..depth {
            body = format!("if (x > {i}) {{ {body} }} else {{ g = g ^ {i}; }}");
        }
        let src = format!("module T {{ var g: u32; proc f(x: u16) {{ {body} }} }}");
        let program = ct_ir::compile_source(&src).unwrap();
        prop_assert_eq!(program.procs[0].cfg.branch_blocks().len(), depth);
        prop_assert!(ct_cfg::loops::is_reducible(&program.procs[0].cfg));
        prop_assert_eq!(program.procs[0].cfg.exit_blocks().len(), 1);
    }

    /// Counted-loop detection finds exactly the loops with literal bounds.
    #[test]
    fn counted_loops_detected(bound in 1u64..40, step in 1u64..5) {
        let src = format!(
            "module T {{ var g: u32; proc f() {{
                var i: u16 = 0;
                while (i < {bound}) {{ g = g + i; i = i + {step}; }}
            }} }}"
        );
        let program = ct_ir::compile_source(&src).unwrap();
        let cl = &program.procs[0].counted_loops;
        prop_assert_eq!(cl.len(), 1);
        let expected = bound.div_ceil(step);
        prop_assert_eq!(cl[0].1, expected);
    }
}
