//! Property-based tests of the estimation engine: consistency of the
//! forward–backward tables, EM recovery, and estimator agreement.

use ct_cfg::builder::{diamond, diamond_chain, while_loop};
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use ct_core::fb::{compute_tables, e_step_planned, FbError, FbParams, FbPlan, FbScratch};
use ct_core::quantize::{
    convolved_tick_score, duration_window, pmf_tick_score_soa, tick_likelihood,
};
use ct_core::samples::TimingSamples;
use ct_core::unrolled::estimate_unrolled;
use ct_core::{estimate, EstimateOptions};
use ct_stats::pmf::{self, Convolved, Pmf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// A CFG with its block and edge costs.
type Problem = (Cfg, Vec<u64>, Vec<u64>);

/// Registry target procedures with their real static costs, except the two
/// apps whose E-steps take seconds.
fn registry() -> &'static [Problem] {
    static REGISTRY: OnceLock<Vec<Problem>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        ct_apps::all_apps()
            .iter()
            .filter(|app| !["crc", "sort"].contains(&app.name))
            .map(|app| {
                let mote = app.boot(Box::new(ct_mote::cost::AvrCost));
                let pid = app.target_id(mote.program());
                let cfg = mote.program().procs[pid.index()].cfg.clone();
                let bc = mote.static_block_costs(pid).to_vec();
                (cfg, bc, mote.static_edge_costs(pid).to_vec())
            })
            .collect()
    })
}

/// Problem `shape` (diamond chains, a while loop, then the registry) with
/// costs, probabilities and a tick histogram drawn from `seed`: ticks of
/// durations the model can produce, plus one it cannot.
fn scratch_problem(shape: usize, seed: u64, cpt: u64) -> (Problem, BranchProbs, Vec<(u64, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cfg, bc, ec) = match shape {
        0..=3 => {
            let cfg = diamond_chain(shape + 1);
            let bc = (0..cfg.len()).map(|_| rng.gen_range(1u64..200)).collect();
            let ec = (0..cfg.edges().len())
                .map(|_| rng.gen_range(0u64..4))
                .collect();
            (cfg, bc, ec)
        }
        4 => (while_loop(), vec![2, 3, 10, 1], vec![0; 4]),
        _ => registry()[(shape - 5) % registry().len()].clone(),
    };
    let p = (0..cfg.branch_blocks().len())
        .map(|_| rng.gen_range(0.05..0.9))
        .collect();
    let probs = BranchProbs::from_vec(&cfg, p);
    let duration = compute_tables(&cfg, &bc, &ec, &probs, FbParams::default())
        .unwrap()
        .duration_pmf(&cfg)
        .keys()
        .to_vec();
    let mut ticks: Vec<(u64, usize)> = (0..rng.gen_range(1..12))
        .map(|_| {
            (
                duration[rng.gen_range(0..duration.len())] / cpt,
                rng.gen_range(1..5),
            )
        })
        .collect();
    ticks.push((duration[duration.len() - 1] / cpt + 1000, 1));
    ticks.sort_unstable();
    ticks.dedup_by_key(|t| t.0);
    ((cfg, bc, ec), probs, ticks)
}

/// A convolution operand: 1–30 support points above `base`, each 1 to
/// `stride` past the last (1–3 keeps the product window under the dense
/// cutoff, 40–400 takes it past), with ordinary, subnormal or zero masses.
fn operand() -> impl Strategy<Value = Pmf> {
    (
        0u64..300,
        prop_oneof![1u64..4, 40u64..400],
        prop::collection::vec((0u8..8, 1e-3f64..1.0, 1u64..(1 << 52), any::<u64>()), 1..30),
    )
        .prop_map(|(base, stride, draws)| {
            let mut key = base;
            let entries = draws
                .iter()
                .map(|&(kind, x, bits, gap)| {
                    key += 1 + gap % stride;
                    let mass = match kind {
                        0 => f64::from_bits(bits), // subnormal
                        1 => 0.0,
                        _ => x,
                    };
                    (key, mass)
                })
                .collect();
            Pmf::from_sorted(entries)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Scoring a tick straight from the convolution's dense window equals
    /// compacting the window into a PMF and scoring that, bit for bit: at
    /// 1, 2, 8 and 100 cycles per tick, for tick 0, ticks whose windows
    /// cross either end of the convolution window or miss it, degenerate
    /// ticks, and windows on both sides of the dense cutoff. The working
    /// space is reused across windows, so later calls find it dirty.
    #[test]
    fn window_tick_score_matches_the_compacted_pmf_bitwise(
        f in operand(),
        g in operand(),
        shift in 0u64..64,
        ends in (0u64..64, 0u64..64, 0u64..64, 0u64..64),
        picks in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        let lo_full = f.keys()[0] + g.keys()[0] + shift;
        let hi_full = f.keys()[f.len() - 1] + g.keys()[g.len() - 1] + shift;
        let lo = (lo_full + ends.0).saturating_sub(ends.1);
        let hi = (hi_full + ends.2).saturating_sub(ends.3);
        let (mut out, mut buf, mut terms) = (Pmf::new(), Vec::new(), Vec::new());
        for (lo, hi) in [(lo_full, hi_full), (lo, hi)] {
            prop_assume!(lo <= hi);
            let compacted = pmf::convolve_window_pmf(&f, &g, shift, lo, hi);
            let h =
                pmf::convolve_window_into(&mut out, &mut buf, &mut terms, &f, &g, shift, lo, hi);
            let width = hi - lo + 1;
            let pairs = (f.len() * g.len()) as u64;
            let dense = width <= (4 * pairs).max(1024) && width <= 1 << 22;
            prop_assert_eq!(matches!(h, Convolved::Dense { .. }), dense);
            for cpt in [1u64, 2, 8, 100] {
                let mut ticks = vec![0, 1, hi / cpt + 1000, u64::MAX - 1, u64::MAX];
                for edge in [lo / cpt, hi / cpt] {
                    ticks.extend(edge.saturating_sub(1)..=edge + 1);
                }
                ticks.extend(picks.iter().map(|&p| p % (hi / cpt + 3)));
                for t in ticks {
                    let want = pmf_tick_score_soa(&compacted, t, cpt);
                    let got = convolved_tick_score(h, t, cpt);
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "tick {} at cpt {}: {} vs {}", t, cpt, got, want
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The backward table from the entry is a (near-)normalized distribution
    /// and its mean matches the Markov expected duration.
    #[test]
    fn duration_pmf_consistency(p in 0.05f64..0.95) {
        let cfg = diamond();
        let bc = [11u64, 70, 140, 6];
        let ec = [1u64, 2, 0, 1];
        let probs = BranchProbs::from_vec(&cfg, vec![p]);
        let t = compute_tables(&cfg, &bc, &ec, &probs, FbParams::default()).unwrap();
        let d = t.duration_pmf(&cfg);
        let total: f64 = d.total_mass();
        prop_assert!((total - 1.0).abs() < 1e-6);
        let mean: f64 = d.iter().map(|(t, m)| t as f64 * m).sum();
        // Expected: 11 + p(1+70) + (1-p)(2+140) + (exit edge 0/1 depends on
        // arm) + 6 — compute via the model directly instead:
        let (model_mean, _) = ct_core::model_moments(&cfg, &bc, &ec, &probs).unwrap();
        prop_assert!((mean - model_mean).abs() < 1e-6, "{mean} vs {model_mean}");
    }

    /// Forward mass arriving at the exit equals 1 (probability conservation).
    #[test]
    fn forward_mass_conserved(q in 0.05f64..0.8) {
        let cfg = while_loop();
        let bc = [2u64, 3, 10, 1];
        let ec = [0u64; 4];
        let probs = BranchProbs::from_vec(&cfg, vec![q]);
        let t = compute_tables(&cfg, &bc, &ec, &probs, FbParams::default()).unwrap();
        let exit_mass: f64 = t.forward[3].total_mass();
        prop_assert!((exit_mass - 1.0).abs() < 1e-6, "{exit_mass}");
    }

    /// EM recovers the empirical mixture weight on two-point samples exactly
    /// (cycle-accurate, identifiable arms).
    #[test]
    fn em_matches_empirical(k in 1usize..2000) {
        let n = 2000usize;
        let cfg = diamond();
        let bc = [10u64, 100, 220, 5];
        let ec = [0u64; 4];
        let mut ticks = vec![115u64; k];
        ticks.extend(vec![235u64; n - k]);
        let samples = TimingSamples::new(ticks, 1);
        let est = estimate(&cfg, &bc, &ec, &samples, EstimateOptions::default()).unwrap();
        let want = k as f64 / n as f64;
        prop_assert!((est.probs.as_slice()[0] - want).abs() < 5e-3,
            "est {} want {want}", est.probs.as_slice()[0]);
    }

    /// The quantization window is exactly the kernel's support.
    #[test]
    fn window_is_tight(ticks in 0u64..100, cpt in 1u64..500) {
        let (lo, hi) = duration_window(ticks, cpt);
        prop_assert!(tick_likelihood(ticks, lo, cpt) > 0.0);
        prop_assert!(tick_likelihood(ticks, hi, cpt) > 0.0);
        if lo > 0 {
            prop_assert_eq!(tick_likelihood(ticks, lo - 1, cpt), 0.0);
        }
        prop_assert_eq!(tick_likelihood(ticks, hi + 1, cpt), 0.0);
    }

    /// Unrolled estimation of a deterministic loop pins the header parameter
    /// at trips/(trips+1) regardless of data.
    #[test]
    fn unrolled_header_pinned(trips in 1u64..12) {
        let cfg = while_loop();
        let bc = [2u64, 3, 10, 1];
        let ec = [0u64; 4];
        let d = 2 + (trips + 1) * 3 + trips * 10 + 1;
        let samples = TimingSamples::new(vec![d; 50], 1);
        let r = estimate_unrolled(
            &cfg,
            &[(ct_cfg::graph::BlockId(1), trips)],
            &bc,
            &ec,
            &samples,
            Default::default(),
        )
        .unwrap();
        let q = r.probs.prob_true(ct_cfg::graph::BlockId(1)).unwrap();
        let want = trips as f64 / (trips as f64 + 1.0);
        prop_assert!((q - want).abs() < 1e-9);
        prop_assert_eq!(r.unexplained, 0);
    }

    /// One scratch reused across a random sequence of problems answers
    /// every call bitwise like a fresh scratch — including the call after
    /// one that a `SupportExplosion` cut short.
    #[test]
    fn reused_scratch_matches_fresh_scratch(
        calls in prop::collection::vec((0usize..11, any::<u64>(), 0usize..3, 0u8..6), 1..8),
    ) {
        let mut reused = FbScratch::new();
        for (shape, seed, cpt, explode) in calls {
            let cpt = [1u64, 8, 244][cpt];
            let ((cfg, bc, ec), probs, ticks) = scratch_problem(shape, seed, cpt);
            let params = if explode == 0 {
                FbParams { max_entries: 1, ..FbParams::default() }
            } else {
                FbParams::default()
            };
            let plan = FbPlan::new(&cfg);
            let mut fresh = FbScratch::new();
            let run = |s: &mut FbScratch| {
                e_step_planned(&plan, s, &bc, &ec, &probs, &ticks, cpt, params)
            };
            let (want, got) = (run(&mut fresh), run(&mut reused));
            if explode == 0 {
                let exploded = matches!(want, Err(FbError::SupportExplosion { .. }));
                prop_assert!(exploded);
                prop_assert_eq!(got, want);
                continue;
            }
            let ((ll_w, unex_w), (ll_g, unex_g)) = (want.unwrap(), got.unwrap());
            prop_assert_eq!(ll_g.to_bits(), ll_w.to_bits());
            prop_assert_eq!(unex_g, unex_w);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(reused.counts()), bits(fresh.counts()));
            let (tw, tg) = (fresh.tables(), reused.tables());
            prop_assert_eq!(tg.truncated.to_bits(), tw.truncated.to_bits());
            prop_assert_eq!(tg.forward.len(), tw.forward.len());
            for (g, w) in tg.forward.iter().chain(&tg.backward).zip(tw.forward.iter().chain(&tw.backward)) {
                prop_assert!(g.bits_eq(w));
            }
        }
    }
}
