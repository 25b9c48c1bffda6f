//! Synthetic workloads: randomly generated structured NLC programs and
//! parameterized CFG families for the estimator ablation (E7) and
//! scalability (E8) experiments.
//!
//! Generated branch conditions are `read_adc() < T` over a uniform field, so
//! every decision is i.i.d. with a known probability `T/1024` — the exact
//! regime the Markov model assumes, which makes these programs the
//! controlled environment for measuring estimator behaviour.

use ct_cfg::builder;
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use ct_ir::program::Program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// A deterministic synthetic estimation problem on a diamond chain: CFG,
/// block costs, edge costs and the true branch probabilities.
pub fn diamond_chain_problem(k: usize, seed: u64) -> (Cfg, Vec<u64>, Vec<u64>, BranchProbs) {
    let cfg = builder::diamond_chain(k);
    let mut rng = StdRng::seed_from_u64(seed);
    // Distinct arm costs keep every branch identifiable from durations.
    let block_costs: Vec<u64> = (0..cfg.len()).map(|_| rng.gen_range(5..200)).collect();
    let edge_costs: Vec<u64> = (0..cfg.edges().len())
        .map(|_| rng.gen_range(0..3))
        .collect();
    let probs: Vec<f64> = (0..k).map(|_| rng.gen_range(0.05..0.95)).collect();
    let truth = BranchProbs::from_vec(&cfg, probs);
    (cfg, block_costs, edge_costs, truth)
}

/// A deterministic synthetic estimation problem on a single loop.
pub fn loop_problem(seed: u64) -> (Cfg, Vec<u64>, Vec<u64>, BranchProbs) {
    let cfg = builder::while_loop();
    let mut rng = StdRng::seed_from_u64(seed);
    let block_costs: Vec<u64> = (0..cfg.len()).map(|_| rng.gen_range(2..50)).collect();
    let edge_costs: Vec<u64> = (0..cfg.edges().len())
        .map(|_| rng.gen_range(0..3))
        .collect();
    let q = rng.gen_range(0.2..0.85);
    let truth = BranchProbs::from_vec(&cfg, vec![q]);
    (cfg, block_costs, edge_costs, truth)
}

/// Parameters for random structured program generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Decisions (ifs + whiles) to generate.
    pub decisions: usize,
    /// Maximum nesting depth.
    pub max_depth: usize,
    /// Probability that a decision is a loop rather than a conditional.
    pub loop_share: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            decisions: 4,
            max_depth: 3,
            loop_share: 0.3,
        }
    }
}

/// Generates a random structured NLC module with a single `target()`
/// procedure. All conditions are fresh `read_adc()` comparisons, so each
/// decision is i.i.d.; loop conditions keep continuation probability ≤ 0.8
/// to bound running time.
pub fn random_source(seed: u64, config: GenConfig) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = String::new();
    let mut remaining = config.decisions;
    gen_block(
        &mut rng,
        &mut body,
        &mut remaining,
        config.max_depth,
        &config,
        2,
    );
    // Spend any leftover decision budget as a flat tail of conditionals.
    while remaining > 0 {
        remaining -= 1;
        let t = rng.gen_range(100..900);
        let g = rng.gen_range(0..4);
        let _ = writeln!(
            body,
            "        if (read_adc() < {t}) {{ g{g} = g{g} + {}; }} else {{ g{g} = g{g} ^ {}; }}",
            rng.gen_range(1..50),
            rng.gen_range(1..50),
        );
    }
    format!(
        "module Synth {{\n    var g0: u32;\n    var g1: u32;\n    var g2: u32;\n    var g3: u32;\n\n    proc target() {{\n{body}    }}\n}}\n"
    )
}

fn gen_block(
    rng: &mut StdRng,
    out: &mut String,
    remaining: &mut usize,
    depth: usize,
    config: &GenConfig,
    indent: usize,
) {
    let pad = "    ".repeat(indent);
    let stmts = rng.gen_range(1..=2);
    for _ in 0..stmts {
        // A plain assignment keeps blocks nonempty and costs distinct.
        let g = rng.gen_range(0..4);
        let c = rng.gen_range(1..60);
        let op = ["+", "^", "*"][rng.gen_range(0..3usize)];
        let _ = writeln!(out, "{pad}g{g} = g{g} {op} {c};");

        if *remaining == 0 || depth == 0 {
            continue;
        }
        *remaining -= 1;
        if rng.gen_bool(config.loop_share) {
            // Loop with continuation probability ≤ 0.8 (T ≤ 819).
            let t = rng.gen_range(200..=819);
            let _ = writeln!(out, "{pad}while (read_adc() < {t}) {{");
            gen_block(rng, out, remaining, depth - 1, config, indent + 1);
            let _ = writeln!(out, "{pad}}}");
        } else {
            let t = rng.gen_range(100..=924);
            let _ = writeln!(out, "{pad}if (read_adc() < {t}) {{");
            gen_block(rng, out, remaining, depth - 1, config, indent + 1);
            let _ = writeln!(out, "{pad}}} else {{");
            gen_block(rng, out, remaining, depth - 1, config, indent + 1);
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

/// Generates and compiles a random structured program.
///
/// # Panics
///
/// Panics if generation produced invalid NLC (a bug in the generator).
pub fn random_program(seed: u64, config: GenConfig) -> Program {
    let src = random_source(seed, config);
    ct_ir::compile_source(&src)
        .unwrap_or_else(|e| panic!("generated source must compile: {e}\n{src}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_cfg::loops::is_reducible;

    #[test]
    fn diamond_chain_problem_is_well_formed() {
        let (cfg, bc, ec, truth) = diamond_chain_problem(4, 7);
        assert!(cfg.validate().is_ok());
        assert_eq!(bc.len(), cfg.len());
        assert_eq!(ec.len(), cfg.edges().len());
        assert_eq!(truth.len(), 4);
    }

    #[test]
    fn problems_are_deterministic_per_seed() {
        assert_eq!(diamond_chain_problem(3, 9).1, diamond_chain_problem(3, 9).1);
        assert_ne!(
            diamond_chain_problem(3, 9).1,
            diamond_chain_problem(3, 10).1
        );
    }

    #[test]
    fn generated_programs_compile_and_are_structured() {
        for seed in 0..30 {
            let p = random_program(seed, GenConfig::default());
            let proc = &p.procs[0];
            assert!(proc.cfg.validate().is_ok(), "seed {seed}");
            assert!(is_reducible(&proc.cfg), "seed {seed}");
            assert_eq!(proc.cfg.exit_blocks().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn decision_budget_is_spent() {
        for seed in 0..10 {
            let config = GenConfig {
                decisions: 5,
                ..Default::default()
            };
            let p = random_program(seed, config);
            assert_eq!(
                p.procs[0].cfg.branch_blocks().len(),
                5,
                "seed {seed}: wrong decision count"
            );
        }
    }

    #[test]
    fn generated_programs_run_without_traps() {
        use ct_mote::cost::AvrCost;
        use ct_mote::devices::UniformAdc;
        use ct_mote::interp::Mote;
        use ct_mote::trace::NullProfiler;
        for seed in 0..10 {
            let p = random_program(seed, GenConfig::default());
            let mut mote = Mote::new(p, Box::new(AvrCost));
            mote.devices.adc = Box::new(UniformAdc { lo: 0, hi: 1023 });
            for _ in 0..20 {
                mote.call(ct_ir::instr::ProcId(0), &[], &mut NullProfiler)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }
}
