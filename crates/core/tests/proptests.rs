//! Property-based tests of the estimation engine: consistency of the
//! E-step's duration PMF, its flow conservation and its exact
//! path-enumeration oracle, EM recovery, and estimator agreement.

use ct_cfg::builder::{diamond, diamond_chain, while_loop};
use ct_cfg::graph::{Cfg, Terminator};
use ct_cfg::profile::BranchProbs;
use ct_core::fb::{e_step, e_step_planned, FbError, FbParams, FbPlan, FbScratch};
use ct_core::quantize::{duration_window, tick_likelihood};
use ct_core::samples::TimingSamples;
use ct_core::unrolled::estimate_unrolled;
use ct_core::{estimate, EstimateOptions};
use ct_stats::pmf::Pmf;
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

/// The model's duration PMF: what an E-step on no ticks leaves behind.
fn duration_pmf(cfg: &Cfg, bc: &[u64], ec: &[u64], probs: &BranchProbs) -> Pmf {
    let mut scratch = FbScratch::new();
    let plan = FbPlan::new(cfg);
    e_step_planned(
        &plan,
        &mut scratch,
        bc,
        ec,
        probs,
        &[],
        1,
        FbParams::default(),
    )
    .unwrap();
    scratch.duration().clone()
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
    let duration = duration_pmf(&cfg, &bc, &ec, &probs).keys().to_vec();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The E-step's duration PMF is a (near-)normalized distribution whose
    /// mean matches the Markov expected duration, on a diamond and on a
    /// while loop (all of whose mass must reach the exit).
    #[test]
    fn duration_pmf_consistency(p in 0.05f64..0.95, q in 0.05f64..0.8) {
        let problems = [
            (diamond(), vec![11u64, 70, 140, 6], vec![1u64, 2, 0, 1], p),
            (while_loop(), vec![2u64, 3, 10, 1], vec![0u64; 4], q),
        ];
        for (cfg, bc, ec, theta) in problems {
            let probs = BranchProbs::from_vec(&cfg, vec![theta]);
            let d = duration_pmf(&cfg, &bc, &ec, &probs);
            let total: f64 = d.total_mass();
            prop_assert!((total - 1.0).abs() < 1e-6, "{total}");
            let mean: f64 = d.iter().map(|(t, m)| t as f64 * m).sum();
            let (model_mean, _) = ct_core::model_moments(&cfg, &bc, &ec, &probs).unwrap();
            // Pruning at `mass_eps` cuts the loop's geometric tail, which
            // costs its mean a few parts in 1e9 of itself.
            let tol = 1e-6 * if cfg.is_acyclic() { 1.0 } else { model_mean };
            prop_assert!((mean - model_mean).abs() < tol, "{mean} vs {model_mean}");
        }
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
        }
    }
}

/// The largest relative gap between a block's expected in-count and
/// out-count under `counts`, over every block but the entry and the Return
/// blocks.
fn flow_gap(cfg: &Cfg, counts: &[f64]) -> f64 {
    let (mut inflow, mut outflow) = (vec![0.0; cfg.len()], vec![0.0; cfg.len()]);
    for e in cfg.edges() {
        inflow[e.to.index()] += counts[e.index];
        outflow[e.from.index()] += counts[e.index];
    }
    cfg.iter()
        .filter(|&(b, block)| b != cfg.entry() && block.term != Terminator::Return)
        .map(|(b, _)| {
            let (i, o) = (inflow[b.index()], outflow[b.index()]);
            if i == o {
                0.0
            } else {
                (i - o).abs() / i.abs().max(o.abs())
            }
        })
        .fold(0.0, f64::max)
}

/// Every block but the entry and the Returns is entered as often as it is
/// left, on every registry app (crc and sort included) at 1, 8 and 64
/// cycles per tick: ticks spread over the duration support, plus one the
/// model cannot produce.
#[test]
fn e_step_conserves_flow_on_every_registry_app() {
    for app in ct_apps::all_apps() {
        let mote = app.boot(Box::new(ct_mote::cost::AvrCost));
        let pid = app.target_id(mote.program());
        let cfg = &mote.program().procs[pid.index()].cfg;
        let (bc, ec) = (mote.static_block_costs(pid), mote.static_edge_costs(pid));
        let p = (0..cfg.branch_blocks().len())
            .map(|i| 0.15 + 0.7 * ((i * 37) % 100) as f64 / 100.0)
            .collect();
        let probs = BranchProbs::from_vec(cfg, p);
        let duration = duration_pmf(cfg, bc, ec, &probs);
        let keys = duration.keys();
        for cpt in [1u64, 8, 64] {
            let mut ticks: Vec<u64> = keys
                .iter()
                .step_by(keys.len().div_ceil(40))
                .map(|d| d / cpt)
                .collect();
            ticks.push(keys[keys.len() - 1] / cpt + 1000);
            let samples = TimingSamples::new(ticks, cpt);
            let exp = e_step(cfg, bc, ec, &probs, &samples, FbParams::default()).unwrap();
            assert!(exp.counts.iter().any(|&c| c > 0.0), "{}", app.name);
            assert!(exp.unexplained >= 1, "{} at {cpt}", app.name);
            let gap = flow_gap(cfg, &exp.counts);
            assert!(gap <= 1e-12, "{} at {cpt}: flow gap {gap:e}", app.name);
        }
    }
}

/// Every path from the entry whose arrivals all lie within `horizon`
/// cycles, as `(probability, duration, traversals per edge)`. A path ends
/// where an arrival passes the horizon, as the E-step's forward pass drops
/// it.
fn enumerate_paths(
    cfg: &Cfg,
    bc: &[u64],
    ec: &[u64],
    probs: &BranchProbs,
    horizon: u64,
) -> Vec<(f64, u64, Vec<f64>)> {
    let (edges, p) = (cfg.edges(), probs.edge_probs(cfg));
    let mut paths = Vec::new();
    let mut stack = vec![(cfg.entry(), 0u64, 1.0, vec![0.0; edges.len()])];
    while let Some((b, t, prob, visits)) = stack.pop() {
        if cfg.block(b).term == Terminator::Return {
            paths.push((prob, t + bc[b.index()], visits));
            continue;
        }
        for e in edges.iter().filter(|e| e.from == b) {
            let arrival = t + bc[b.index()] + ec[e.index];
            if arrival <= horizon {
                let mut v = visits.clone();
                v[e.index] += 1.0;
                stack.push((e.to, arrival, prob * p[e.index], v));
            }
        }
    }
    paths
}

/// The E-step by exhaustive path enumeration: counts, log-likelihood and
/// unexplained count of the distinct-tick histogram `ticks` (ascending).
fn oracle_e_step(
    cfg: &Cfg,
    (bc, ec): (&[u64], &[u64]),
    probs: &BranchProbs,
    ticks: &[(u64, usize)],
    cpt: u64,
) -> (Vec<f64>, f64, usize) {
    let horizon = duration_window(ticks[ticks.len() - 1].0, cpt).1;
    let paths = enumerate_paths(cfg, bc, ec, probs, horizon);
    let mut counts = vec![0.0; cfg.edges().len()];
    let (mut loglik, mut unexplained) = (0.0, 0);
    for &(t_obs, n) in ticks {
        let z: f64 = paths
            .iter()
            .map(|(p, d, _)| p * tick_likelihood(t_obs, *d, cpt))
            .sum();
        if z <= 1e-300 {
            unexplained += n;
            continue;
        }
        loglik += n as f64 * z.ln();
        for (p, d, visits) in &paths {
            let w = n as f64 * p * tick_likelihood(t_obs, *d, cpt) / z;
            for (c, v) in counts.iter_mut().zip(visits) {
                *c += w * v;
            }
        }
    }
    (counts, loglik, unexplained)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The E-step conserves flow through every block but the entry and the
    /// Returns on diamond chains, a while loop and the registry apps (crc
    /// and sort aside), at 1, 8 and 64 cycles per tick.
    #[test]
    fn e_step_conserves_flow(shape in 0usize..11, seed in any::<u64>(), cpt in 0usize..3) {
        let cpt = [1u64, 8, 64][cpt];
        let ((cfg, bc, ec), probs, ticks) = scratch_problem(shape, seed, cpt);
        let mut s = FbScratch::new();
        let plan = FbPlan::new(&cfg);
        e_step_planned(&plan, &mut s, &bc, &ec, &probs, &ticks, cpt, FbParams::default()).unwrap();
        let gap = flow_gap(&cfg, s.counts());
        prop_assert!(gap <= 1e-12, "flow gap {:e}", gap);
    }

    /// Unpruned (`mass_eps = 0`), the E-step equals exhaustive enumeration
    /// of every path up to the observation horizon, to 1e-12: on a diamond,
    /// diamond chains and a while loop, at 1, 8 and 64 cycles per tick.
    #[test]
    fn e_step_matches_path_enumeration(shape in 0usize..6, seed in any::<u64>(), cpt in 0usize..3) {
        let cpt = [1u64, 8, 64][cpt];
        let ((cfg, bc, ec), probs, ticks) = if shape == 5 {
            let ((_, bc, ec), _, ticks) = scratch_problem(0, seed, cpt);
            let probs = BranchProbs::from_vec(&diamond(), vec![0.05 + (seed % 90) as f64 / 100.0]);
            ((diamond(), bc, ec), probs, ticks)
        } else {
            scratch_problem(shape, seed, cpt)
        };
        let params = FbParams { mass_eps: 0.0, ..FbParams::default() };
        let mut s = FbScratch::new();
        let plan = FbPlan::new(&cfg);
        let (loglik, unexplained) =
            e_step_planned(&plan, &mut s, &bc, &ec, &probs, &ticks, cpt, params).unwrap();
        let (counts, want_loglik, want_unexplained) = oracle_e_step(&cfg, (&bc, &ec), &probs, &ticks, cpt);
        prop_assert_eq!(unexplained, want_unexplained);
        prop_assert!((loglik - want_loglik).abs() <= 1e-12 * (1.0 + want_loglik.abs()),
            "loglik {} vs {}", loglik, want_loglik);
        for (e, (&got, &want)) in s.counts().iter().zip(&counts).enumerate() {
            prop_assert!((got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "counts[{}] {} vs {}", e, got, want);
        }
    }
}
