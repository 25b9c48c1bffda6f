//! Property-based tests (proptest) over the core invariants of the
//! workspace: compiler round-trips, the timing identity, Markov consistency,
//! layout validity and estimator sanity.

use code_tomography::apps::synthetic::{random_program, GenConfig};
use code_tomography::cfg::builder::diamond;
use code_tomography::cfg::layout::{Layout, PenaltyModel};
use code_tomography::cfg::profile::{BranchProbs, EdgeProfile};
use code_tomography::core::estimator::{estimate, EstimateOptions};
use code_tomography::core::quantize::tick_likelihood;
use code_tomography::core::samples::TimingSamples;
use code_tomography::markov;
use code_tomography::mote::cost::AvrCost;
use code_tomography::mote::devices::UniformAdc;
use code_tomography::mote::interp::Mote;
use code_tomography::mote::timer::VirtualTimer;
use code_tomography::mote::trace::{GroundTruthProfiler, PairProfiler, TimingProfiler};
use ct_ir::instr::ProcId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated structured program compiles, validates, is
    /// reducible with one Return block, and runs trap-free.
    #[test]
    fn generated_programs_compile_and_run(seed in 0u64..500) {
        let program = random_program(seed, GenConfig::default());
        let proc = &program.procs[0];
        prop_assert!(proc.cfg.validate().is_ok());
        prop_assert!(code_tomography::cfg::loops::is_reducible(&proc.cfg));
        prop_assert_eq!(proc.cfg.exit_blocks().len(), 1);
        let mut mote = Mote::new(program, Box::new(AvrCost));
        mote.devices.adc = Box::new(UniformAdc { lo: 0, hi: 1023 });
        mote.reseed(seed);
        for _ in 0..10 {
            prop_assert!(mote.call(ProcId(0), &[], &mut code_tomography::mote::trace::NullProfiler).is_ok());
        }
    }

    /// The timing identity: with a cycle-accurate timer and zero overhead,
    /// every measured window equals the executed path's static cost.
    #[test]
    fn measured_window_equals_path_cost(seed in 0u64..200) {
        let program = random_program(seed, GenConfig { decisions: 3, max_depth: 2, loop_share: 0.3 });
        let mut mote = Mote::new(program.clone(), Box::new(AvrCost));
        mote.devices.adc = Box::new(UniformAdc { lo: 0, hi: 1023 });
        mote.reseed(seed);
        let pid = ProcId(0);
        let mut gt = GroundTruthProfiler::new(&program);
        let mut tp = TimingProfiler::new(&program, VirtualTimer::cycle_accurate(), 0);
        let calls = 5u64;
        for _ in 0..calls {
            let mut pair = PairProfiler { a: &mut gt, b: &mut tp };
            mote.call(pid, &[], &mut pair).unwrap();
        }
        let cfg = &program.procs[0].cfg;
        let bc = mote.static_block_costs(pid);
        let ec = mote.static_edge_costs(pid);
        let visits = gt.profile(pid).block_visits(cfg, calls);
        let total_blocks: u64 = visits.iter().enumerate().map(|(i, &v)| v * bc[i]).sum();
        let total_edges: u64 = (0..cfg.edges().len())
            .map(|i| gt.profile(pid).count(i) * ec[i])
            .sum();
        let measured: u64 = tp.samples(pid).iter().sum();
        prop_assert_eq!(measured, total_blocks + total_edges);
    }

    /// The quantization kernel is a probability distribution and unbiased.
    #[test]
    fn quantization_kernel_sums_to_one(d in 0u64..100_000, cpt in 1u64..2_000) {
        let base = d / cpt;
        let total: f64 = (base.saturating_sub(1)..=base + 2)
            .map(|t| tick_likelihood(t, d, cpt))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let mean: f64 = (base.saturating_sub(1)..=base + 2)
            .map(|t| t as f64 * tick_likelihood(t, d, cpt))
            .sum();
        prop_assert!((mean - d as f64 / cpt as f64).abs() < 1e-9);
    }

    /// Expected visit counts from Markov theory are flow-consistent.
    #[test]
    fn expected_visits_are_flow_consistent(p in 0.01f64..0.99) {
        let cfg = diamond();
        let probs = BranchProbs::from_vec(&cfg, vec![p]);
        let visits = markov::visits::expected_visits(&cfg, &probs).unwrap();
        // entry flow in = 1; join flow = then + else.
        prop_assert!((visits[0] - 1.0).abs() < 1e-9);
        prop_assert!((visits[1] + visits[2] - 1.0).abs() < 1e-9);
        prop_assert!((visits[3] - 1.0).abs() < 1e-9);
        let edges = markov::visits::expected_edge_traversals(&cfg, &probs).unwrap();
        prop_assert!((edges[0] - p).abs() < 1e-9);
        prop_assert!((edges[1] - (1.0 - p)).abs() < 1e-9);
    }

    /// Pettis–Hansen layouts are always valid permutations with the entry
    /// first, and never lose to the natural layout on the weights they were
    /// given.
    #[test]
    fn ph_layout_validity_and_quality(w0 in 0u64..1000, w1 in 0u64..1000) {
        let cfg = diamond();
        let counts = vec![w0, w1, w0, w1];
        let profile = EdgeProfile::from_counts(&cfg, counts.clone());
        let weights: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let layout = code_tomography::placement::pettis_hansen(&cfg, &weights);
        prop_assert_eq!(layout.order().len(), cfg.len());
        prop_assert_eq!(layout.order()[0], cfg.entry());
        let pen = PenaltyModel::avr();
        let ph_cost = layout.evaluate(&cfg, &profile, &pen);
        let nat_cost = Layout::natural(&cfg).evaluate(&cfg, &profile, &pen);
        prop_assert!(ph_cost.extra_cycles <= nat_cost.extra_cycles);
    }

    /// End-to-end estimator property: on a diamond with well-separated arm
    /// costs and exact timing, EM recovers the branch probability within
    /// sampling error.
    #[test]
    fn em_recovers_diamond_probability(p in 0.05f64..0.95, seed in 0u64..50) {
        let cfg = diamond();
        let bc = [10u64, 100, 220, 5];
        let ec = [0u64; 4];
        let n = 1500usize;
        // Deterministic pseudo-random Bernoulli stream.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut ticks = Vec::with_capacity(n);
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            ticks.push(if u < p { 115 } else { 235 });
        }
        let empirical = ticks.iter().filter(|&&t| t == 115).count() as f64 / n as f64;
        let samples = TimingSamples::new(ticks, 1);
        let est = estimate(&cfg, &bc, &ec, &samples, EstimateOptions::default()).unwrap();
        prop_assert!((est.probs.as_slice()[0] - empirical).abs() < 0.01,
            "estimated {} vs empirical {}", est.probs.as_slice()[0], empirical);
    }
}
