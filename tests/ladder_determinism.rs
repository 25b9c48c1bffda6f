//! The five-rung ladder (with GNT) must be bit-identical across thread
//! counts, and on clean data it must still answer at full EM — bitwise
//! identical to the pre-0.10 four-rung ladder (`use_gnt = false`).
//!
//! This test mutates the process-global `CT_THREADS` variable, so it is
//! the ONLY test in this binary (integration tests in one file share a
//! process).

use ct_core::estimator::{estimate_robust, RobustEstimate, RobustOptions, Rung};
use ct_core::fb::FbParams;
use ct_core::samples::TimingSamples;
use proptest::prelude::*;

fn fingerprint(r: &RobustEstimate) -> (Vec<u64>, u64, String) {
    (
        r.estimate
            .probs
            .as_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
        r.confidence.to_bits(),
        r.rung.to_string(),
    )
}

fn ladder_with_threads(
    threads: &str,
    cfg: &ct_cfg::graph::Cfg,
    bc: &[u64],
    ec: &[u64],
    samples: &TimingSamples,
    opts: RobustOptions,
) -> RobustEstimate {
    std::env::set_var("CT_THREADS", threads);
    estimate_robust(cfg, bc, ec, samples, opts)
}

/// Forward–backward strangled small enough that full and trimmed EM both
/// fail on a loop-heavy workload, forcing the descent into the GNT rung
/// (mirrors `ladder_reaches_gnt_when_em_explodes` in ct-core).
fn strangled() -> RobustOptions {
    let mut opts = RobustOptions::default();
    opts.base.em.fb = FbParams {
        mass_eps: 1e-12,
        max_entries: 3,
    };
    opts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]
    #[test]
    fn gnt_ladder_is_bitwise_deterministic_across_thread_counts(
        p in 0.1f64..0.9,
        q in 0.3f64..0.95,
        n in 60usize..200,
        seed in 0u64..1_000,
    ) {
        // Scenario 1: clean diamond-chain samples. The ladder must answer
        // at full EM, identically at any thread count, and identically
        // with the GNT rung disabled — the golden pin that adding the
        // rung changed nothing on the healthy path.
        let (cfg, bc, ec, _) = ct_apps::synthetic::diamond_chain_problem(2, seed);
        let truth = ct_cfg::profile::BranchProbs::from_vec(&cfg, vec![p, q]);
        let chain = ct_markov::chain_from_cfg(&cfg, &truth).expect("valid chain");
        let edges = cfg.edges();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let ticks: Vec<u64> = (0..n)
            .map(|_| {
                let run = ct_markov::sample_run(&chain, cfg.entry().index(), &mut rng, 10_000)
                    .expect("absorbing chain");
                let mut d: u64 = run.iter().map(|&b| bc[b]).sum();
                for w in run.windows(2) {
                    let e = edges
                        .iter()
                        .find(|e| e.from.index() == w[0] && e.to.index() == w[1])
                        .expect("edge exists");
                    d += ec[e.index];
                }
                d
            })
            .collect();
        let samples = TimingSamples::new(ticks, 1);

        let serial = ladder_with_threads("1", &cfg, &bc, &ec, &samples, RobustOptions::default());
        let parallel = ladder_with_threads("4", &cfg, &bc, &ec, &samples, RobustOptions::default());
        prop_assert_eq!(serial.rung, Rung::FullEm, "clean data must answer at full EM");
        prop_assert_eq!(fingerprint(&serial), fingerprint(&parallel), "thread count changed the ladder");
        let no_gnt = ladder_with_threads("1", &cfg, &bc, &ec, &samples, RobustOptions {
            use_gnt: false,
            ..RobustOptions::default()
        });
        prop_assert_eq!(fingerprint(&serial), fingerprint(&no_gnt), "the GNT rung touched the clean path");

        // Scenario 2: force the descent into the GNT rung on a geometric
        // loop workload and require bitwise identity across thread counts
        // there too (the CF inversion is pure serial math).
        let loop_cfg = ct_cfg::builder::while_loop();
        let (lbc, lec) = (vec![2u64, 3, 10, 1], vec![0u64; loop_cfg.edges().len()]);
        let mut lticks = Vec::new();
        for k in 0..60u64 {
            let copies = ((n as f64) * q.powi(k as i32) * (1.0 - q)) as usize;
            lticks.extend(vec![6 + 13 * k; copies]);
        }
        let lsamples = TimingSamples::new(lticks, 1);
        let lserial = ladder_with_threads("1", &loop_cfg, &lbc, &lec, &lsamples, strangled());
        let lparallel = ladder_with_threads("4", &loop_cfg, &lbc, &lec, &lsamples, strangled());
        std::env::remove_var("CT_THREADS");
        prop_assert_eq!(fingerprint(&lserial), fingerprint(&lparallel), "thread count changed the GNT rung");
    }
}
