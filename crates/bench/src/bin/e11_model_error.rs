//! E11 — Robustness to cost-model error (Table; extension experiment).
//!
//! Code Tomography assumes the per-block cycle costs are *known*. Real
//! toolchains mis-model costs slightly (datasheet vs silicon, wait states).
//! This experiment feeds the estimator block costs perturbed by ±δ% while the
//! mote executes with true costs, at two timer resolutions. The expectation
//! worth testing: at cycle-accurate resolution even small errors push the
//! observed durations off the model's support, while a coarser tick's
//! quantization kernel absorbs them — quantization buys robustness.

use ct_bench::{f4, write_result, AppRun, Table};
use ct_core::accuracy::compare;
use ct_core::estimator::{Estimate, EstimateOptions, Method};
use ct_core::unrolled::estimate_unrolled;
use ct_pipeline::{EnvConfig, RunConfig, Session};

/// Re-estimates a run with perturbed block costs.
fn estimate_with_model_error(run: &AppRun, delta: f64) -> Option<(Estimate, f64)> {
    let bc: Vec<u64> = run
        .block_costs
        .iter()
        .map(|&c| (((c as f64) * (1.0 + delta)).round() as u64).max(1))
        .collect();
    let est = if run.counted_loops.is_empty() {
        ct_core::estimate(
            run.cfg(),
            &bc,
            &run.edge_costs,
            &run.samples,
            EstimateOptions::default(),
        )
        .ok()?
    } else {
        let u = estimate_unrolled(
            run.cfg(),
            &run.counted_loops,
            &bc,
            &run.edge_costs,
            &run.samples,
            Default::default(),
        )
        .ok()?;
        Estimate::from_em(u, Method::EmUnrolled)
    };
    let acc = compare(
        run.cfg(),
        &est.probs,
        &run.truth,
        &run.truth_profile,
        run.invocations,
    );
    Some((est, acc.weighted_mae))
}

fn main() {
    let env = EnvConfig::load();
    eprintln!("e11: {}", env.banner());
    let n = env.pick(3_000, 300);
    let seed = env.seed_or(11_000);
    let deltas = [-0.10, -0.05, -0.01, 0.0, 0.01, 0.05, 0.10];
    let apps: &[&str] = env.pick(&["sense", "oscilloscope", "crc"], &["sense"]);
    let resolutions: &[u64] = env.pick(&[1u64, 8, 64], &[1, 8]);
    let mut table = Table::new(vec![
        "app", "cpt", "δ=-10%", "δ=-5%", "δ=-1%", "δ=0", "δ=+1%", "δ=+5%", "δ=+10%",
    ]);

    let collect = |name: &str, cpt: u64| {
        let session = Session::new(
            RunConfig::new(name)
                .invocations(n)
                .resolution(cpt)
                .seeded(seed),
        );
        let run = session.collect().expect("bundled apps must not trap");
        (session, run)
    };

    for name in apps {
        for &cpt in resolutions {
            let (session, run) = collect(name, cpt);
            let mut cells = vec![name.to_string(), cpt.to_string()];
            for &d in &deltas {
                let wmae = if d == 0.0 {
                    session
                        .estimate(&run)
                        .expect("estimation succeeds")
                        .accuracy
                        .weighted_mae
                } else {
                    match estimate_with_model_error(&run, d) {
                        Some((_, w)) => w,
                        None => f64::NAN,
                    }
                };
                cells.push(f4(wmae));
            }
            table.row(cells);
            eprintln!("e11: {name} cpt={cpt} done");
        }
    }

    // Also report unexplained fraction at δ=+5% to show the rejection
    // mechanism (appendix table).
    let mut rej = Table::new(vec!["app", "cpt", "unexplained @ δ=+5%"]);
    for name in apps {
        for &cpt in resolutions {
            let (_session, run) = collect(name, cpt);
            let cell = match estimate_with_model_error(&run, 0.05) {
                Some((e, _)) => format!("{}/{}", e.unexplained, run.samples.len()),
                None => "-".into(),
            };
            rej.row(vec![name.to_string(), cpt.to_string(), cell]);
        }
    }

    let out = format!(
        "# E11 — Estimation accuracy (weighted MAE) under block-cost model error\n\n\
         {n} samples; the estimator's block costs are scaled by (1+δ) while the mote\n\
         runs true costs. Coarser ticks absorb small model errors inside the\n\
         quantization kernel; cycle-accurate estimation rejects off-support samples.\n\
         {}\n\n{}\n\
         ## Rejected samples at δ=+5%\n\n{}",
        env.banner(),
        table.to_markdown(),
        rej.to_markdown()
    );
    println!("{out}");
    if !env.smoke {
        write_result("e11_model_error.md", &out);
    }
}
