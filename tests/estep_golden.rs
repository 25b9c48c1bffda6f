//! Golden pin of the E-step, EM and the warm-started serve path on real
//! workloads: every registry app except `crc` and `sort`, profiled clean.
//! It records, bit for bit:
//!
//! - per app, at 1 and 8 cycles/tick and under two probability vectors:
//!   `e_step`'s expected edge counts, log-likelihood and unexplained count;
//! - per app, two `estimate_em_from` runs at 8 cycles/tick, one at the
//!   default pruning and one pruned coarsely enough that the likelihood
//!   watchdog rewinds on some apps: probabilities, log-likelihood,
//!   iterations, edge counts, final delta and the rewind flag;
//! - one `IncrementalEm` sequence of warm-started re-estimations over
//!   4-tick deltas of a contaminated `event_detect` stream, the shape the
//!   service serves;
//! - per counted-loop app, at 1 and 8 cycles/tick: `estimate_unrolled`'s
//!   probabilities, log-likelihood, iterations, unexplained count and
//!   per-invocation edge counts (folded counts over the sample count).
//!
//! `ladder_golden` pins which rung answers and with what probabilities; this
//! file pins what it does not: likelihoods, edge counts and the serve path.
//!
//! The expected outcomes live in `tests/data/estep_golden.txt`. After an
//! intended change of these outputs, rewrite them with
//! `cargo test --release --test estep_golden -- --ignored` and review the
//! diff.

use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use ct_core::em::{estimate_em_from, EmOptions, EmResult};
use ct_core::fb::{e_step, FbParams};
use ct_core::stream::SuffStats;
use ct_core::unrolled::estimate_unrolled;
use ct_core::IncrementalEm;
use ct_pipeline::{RunConfig, Session};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/estep_golden.txt");

/// Apps left out of the pin: the only two whose EM runs take seconds.
const SLOW_APPS: [&str; 2] = ["crc", "sort"];

/// Apps with compiler-proved counted loops, pinned through the unrolled model.
const UNROLLED_APPS: [&str; 4] = ["crc", "sort", "fir", "oscilloscope"];

/// Target invocations profiled per app and resolution.
const INVOCATIONS: usize = 600;

/// Ticks per serve-path delta, as in the service workload.
const BATCH_LEN: usize = 4;

/// Deltas folded between two serve-path re-estimations.
const DELTAS_PER_SERVE: usize = 64;

/// Serve-path re-estimations.
const SERVES: usize = 8;

/// Pruning coarse enough that EM's likelihood watchdog rewinds on some apps.
const COARSE_MASS_EPS: f64 = 1e-2;

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn hexes(xs: &[f64]) -> String {
    xs.iter().map(|&x| hex(x)).collect::<Vec<_>>().join(" ")
}

/// Two deterministic, distinct probability vectors per CFG.
fn prob_vectors(cfg: &Cfg) -> [BranchProbs; 2] {
    let n = cfg.branch_blocks().len();
    let spread = |k: usize, base: f64| -> Vec<f64> {
        (0..n)
            .map(|i| base + 0.6 * (((i * k) % 97) as f64 / 97.0))
            .collect()
    };
    [
        BranchProbs::from_vec(cfg, spread(37, 0.15)),
        BranchProbs::from_vec(cfg, spread(61, 0.3)),
    ]
}

fn em_record(out: &mut String, r: &EmResult) {
    let _ = writeln!(out, "  probs {}", hexes(r.probs.as_slice()));
    let _ = writeln!(out, "  loglik {}", hex(r.loglik));
    let _ = writeln!(out, "  iterations {}", r.iterations);
    let _ = writeln!(out, "  converged {}", r.converged);
    let _ = writeln!(out, "  unexplained {}", r.unexplained);
    let _ = writeln!(out, "  final_delta {}", hex(r.final_delta));
    let _ = writeln!(out, "  edge_counts {}", hexes(&r.edge_counts));
    let _ = writeln!(out, "  rewound {}", r.rewound);
}

/// One app's E-step and EM records.
fn app_record(app: &str, seed: u64) -> String {
    let mut out = String::new();
    for cpt in [1u64, 8] {
        let run = Session::new(
            RunConfig::new(app)
                .invocations(INVOCATIONS)
                .resolution(cpt)
                .seeded(seed)
                .no_unroll(),
        )
        .collect()
        .unwrap_or_else(|e| panic!("{app} at {cpt}: collection failed: {e}"));
        let cfg = run.cfg();
        for (k, probs) in prob_vectors(cfg).iter().enumerate() {
            let exp = e_step(
                cfg,
                &run.block_costs,
                &run.edge_costs,
                probs,
                &run.samples,
                FbParams::default(),
            )
            .unwrap_or_else(|e| panic!("{app} at {cpt}: e_step failed: {e}"));
            let _ = writeln!(out, "estep {app} cpt {cpt} probs {k}");
            let _ = writeln!(out, "  counts {}", hexes(&exp.counts));
            let _ = writeln!(out, "  loglik {}", hex(exp.loglik));
            let _ = writeln!(out, "  unexplained {}", exp.unexplained);
        }
        if cpt == 8 {
            for mass_eps in [FbParams::default().mass_eps, COARSE_MASS_EPS] {
                let opts = EmOptions {
                    fb: FbParams {
                        mass_eps,
                        ..FbParams::default()
                    },
                    ..EmOptions::default()
                };
                let [init, _] = prob_vectors(cfg);
                let r = estimate_em_from(
                    cfg,
                    &run.block_costs,
                    &run.edge_costs,
                    &run.samples,
                    init,
                    opts,
                )
                .unwrap_or_else(|e| panic!("{app}: EM failed: {e}"));
                let _ = writeln!(out, "em {app} cpt {cpt} mass_eps {mass_eps:e}");
                em_record(&mut out, &r);
            }
        }
    }
    out
}

/// Warm-started re-estimations over a contaminated `event_detect` stream.
fn serve_records() -> String {
    let cpt = 8;
    let run = Session::new(
        RunConfig::new("event_detect")
            .invocations(SERVES * DELTAS_PER_SERVE * BATCH_LEN)
            .resolution(cpt)
            .contaminated(0.1, 40)
            .seeded(37),
    )
    .collect()
    .expect("event_detect stream collected");
    let mut inc = IncrementalEm::new(cpt, EmOptions::default());
    let mut out = String::new();
    let serves = run.samples.ticks().chunks(BATCH_LEN * DELTAS_PER_SERVE);
    for (i, serve) in serves.enumerate() {
        for chunk in serve.chunks(BATCH_LEN) {
            let mut delta = SuffStats::new(cpt);
            chunk.iter().for_each(|&t| delta.push(t));
            inc.ingest(&delta).expect("same resolution");
        }
        let _ = writeln!(out, "serve event_detect {i} batches {}", inc.batches());
        let r = inc
            .reestimate(run.cfg(), &run.block_costs, &run.edge_costs)
            .expect("re-estimation");
        em_record(&mut out, r);
    }
    out
}

/// One counted-loop app's unrolled-EM records.
fn unrolled_record(app: &str, seed: u64) -> String {
    let mut out = String::new();
    for cpt in [1u64, 8] {
        let run = Session::new(
            RunConfig::new(app)
                .invocations(INVOCATIONS)
                .resolution(cpt)
                .seeded(seed),
        )
        .collect()
        .unwrap_or_else(|e| panic!("{app} at {cpt}: collection failed: {e}"));
        let r = estimate_unrolled(
            run.cfg(),
            &run.counted_loops,
            &run.block_costs,
            &run.edge_costs,
            &run.samples,
            EmOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{app} at {cpt}: unrolled EM failed: {e}"));
        let _ = writeln!(out, "unrolled {app} cpt {cpt}");
        let _ = writeln!(out, "  probs {}", hexes(r.probs.as_slice()));
        let _ = writeln!(out, "  loglik {}", hex(r.loglik));
        let _ = writeln!(out, "  iterations {}", r.iterations);
        let _ = writeln!(out, "  unexplained {}", r.unexplained);
        let n = run.samples.len().max(1) as f64;
        let per_invocation: Vec<f64> = r.edge_counts.iter().map(|c| c / n).collect();
        let _ = writeln!(out, "  edge_counts {}", hexes(&per_invocation));
    }
    out
}

/// Every record: the apps in registry order, the serve path, then the
/// counted-loop apps through the unrolled model.
fn all_records() -> String {
    let apps: Vec<&str> = ct_apps::all_apps()
        .iter()
        .map(|a| a.name)
        .filter(|name| !SLOW_APPS.contains(name))
        .collect();
    let mut records =
        ct_stats::parallel::par_map(apps.into_iter().enumerate().collect(), |(i, app)| {
            app_record(app, 2_000 + i as u64)
        });
    records.push(serve_records());
    records.extend(ct_stats::parallel::par_map(
        UNROLLED_APPS.into_iter().enumerate().collect(),
        |(i, app)| unrolled_record(app, 3_000 + i as u64),
    ));
    records.concat()
}

#[test]
fn estep_em_and_serve_outputs_match_the_golden() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let got = all_records();
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (want.lines().collect(), got.lines().collect());
    let mut record = "";
    for (w, g) in want_lines.iter().zip(&got_lines) {
        if !w.starts_with(' ') {
            record = w;
        }
        assert_eq!(w, g, "output drifted in `{record}`");
    }
    assert_eq!(
        want_lines.len(),
        got_lines.len(),
        "golden and run differ in length"
    );
}

#[test]
#[ignore = "rewrites the golden file; run after an intended change"]
fn regenerate_estep_golden() {
    std::fs::write(GOLDEN, all_records()).expect("golden file written");
}
