//! E14 — Streaming re-estimation at batch granularity (Table, extension).
//!
//! Claim evaluated: with warm-started incremental EM, re-estimating after
//! **every** arriving batch costs an amortized handful of sweeps — affordable at fleet cadence — instead of a
//! cold restart fan-out per batch, while landing on the same optimum as the
//! monolithic estimate.
//!
//! Part 1 runs the fleet-service path
//! ([`ct_pipeline::Fleet::estimate_streaming`]): per-mote `SuffStats`
//! batches, one re-estimation each. Part 2 replays a single mote's stream
//! in radio-sized batches through
//! [`ct_core::IncrementalEm`] against cold re-estimation from scratch at
//! every batch, reporting amortized µs/batch for both.

use ct_bench::{f2, f4, write_manifest_env, write_result, Table};
use ct_core::em::{estimate_em, EmOptions};
use ct_core::stream::SuffStats;
use ct_core::IncrementalEm;
use ct_pipeline::{EnvConfig, Fleet, RunConfig, Session};
use std::time::Instant;

fn main() {
    let env = EnvConfig::load();
    eprintln!("e14: {}", env.banner());
    let n = env.pick(600, 120);
    let motes = env.pick(8, 3);
    let batches = env.pick(12, 4);
    let seed = env.seed_or(33);

    let mut table = Table::new(vec![
        "path",
        "batches",
        "samples",
        "total ms",
        "us/batch",
        "iters/batch",
        "mae",
    ]);

    // Part 1: the fleet-service path — one SuffStats batch per mote,
    // re-estimated as each arrives.
    let fleet = Fleet::new(RunConfig::new("sense").invocations(n).seeded(seed), motes);
    let fleet_run = fleet.run().expect("fleet runs clean");
    let start = Instant::now();
    let report = fleet
        .estimate_streaming(&fleet_run)
        .expect("streaming estimation succeeds");
    let elapsed = start.elapsed();
    let total_iters: usize = report.batch_iterations.iter().sum();
    table.row(vec![
        "fleet streaming".to_string(),
        report.batches.to_string(),
        fleet_run.stats.len().to_string(),
        f2(elapsed.as_secs_f64() * 1e3),
        f2(elapsed.as_secs_f64() * 1e6 / report.batches as f64),
        f2(total_iters as f64 / report.batches as f64),
        f4(report.estimated.accuracy.mae),
    ]);

    // Part 2: one mote's stream replayed in radio-sized batches —
    // incremental (warm-started) vs cold re-estimation per batch.
    let session = Session::new(RunConfig::new("sense").invocations(n).seeded(seed));
    let run = session.collect().expect("runs clean");
    let cfg = run.cfg().clone();
    let ticks = run.samples.ticks();
    let cpt = run.samples.cycles_per_tick();
    let chunk = ticks.len().div_ceil(batches);
    let deltas: Vec<SuffStats> = ticks
        .chunks(chunk.max(1))
        .map(|c| {
            let mut s = SuffStats::new(cpt);
            for &t in c {
                s.push(t);
            }
            s
        })
        .collect();

    let opts = EmOptions::default();
    let start = Instant::now();
    let mut inc = IncrementalEm::new(cpt, opts);
    let mut inc_iters = 0usize;
    for d in &deltas {
        inc.ingest(d).expect("same resolution");
        inc_iters += inc
            .reestimate(&cfg, &run.block_costs, &run.edge_costs)
            .expect("incremental EM succeeds")
            .iterations;
    }
    let inc_elapsed = start.elapsed();
    let inc_result = inc.last().expect("estimated").clone();
    let inc_acc = ct_core::accuracy::compare(
        &cfg,
        &inc_result.probs,
        &run.truth,
        &run.truth_profile,
        run.invocations,
    );
    table.row(vec![
        "incremental (warm)".to_string(),
        deltas.len().to_string(),
        ticks.len().to_string(),
        f2(inc_elapsed.as_secs_f64() * 1e3),
        f2(inc_elapsed.as_secs_f64() * 1e6 / deltas.len() as f64),
        f2(inc_iters as f64 / deltas.len() as f64),
        f4(inc_acc.mae),
    ]);

    let start = Instant::now();
    let mut acc = SuffStats::new(cpt);
    let mut cold_iters = 0usize;
    let mut cold_result = None;
    for d in &deltas {
        acc.merge(d).expect("same resolution");
        let r = estimate_em(&cfg, &run.block_costs, &run.edge_costs, &acc, opts)
            .expect("cold EM succeeds");
        cold_iters += r.iterations;
        cold_result = Some(r);
    }
    let cold_elapsed = start.elapsed();
    let cold_result = cold_result.expect("at least one batch");
    let cold_acc = ct_core::accuracy::compare(
        &cfg,
        &cold_result.probs,
        &run.truth,
        &run.truth_profile,
        run.invocations,
    );
    table.row(vec![
        "cold per batch".to_string(),
        deltas.len().to_string(),
        ticks.len().to_string(),
        f2(cold_elapsed.as_secs_f64() * 1e3),
        f2(cold_elapsed.as_secs_f64() * 1e6 / deltas.len() as f64),
        f2(cold_iters as f64 / deltas.len() as f64),
        f4(cold_acc.mae),
    ]);

    // Warm starts move the optimization path, not the optimum: both batch
    // replays must land on (numerically) the same parameters.
    for (a, b) in inc_result
        .probs
        .as_slice()
        .iter()
        .zip(cold_result.probs.as_slice())
    {
        assert!(
            (a - b).abs() < 5e-3,
            "incremental {a} diverged from cold {b}"
        );
    }

    let speedup = cold_elapsed.as_secs_f64() / inc_elapsed.as_secs_f64().max(1e-9);
    let out = format!(
        "# E14 — Streaming re-estimation at batch granularity\n\n\
         `sense`, {motes} motes / {batches} replay batches, seed {seed}. Incremental EM\n\
         warm-starts each re-estimation from the previous optimum; cold EM restarts\n\
         from scratch each time.\n\
         Incremental replay speedup over cold: {speedup:.1}x.\n\
         {}\n\n{}",
        env.banner(),
        table.to_markdown()
    );
    println!("{out}");
    write_manifest_env("e14_incremental");
    if !env.smoke {
        write_result("e14_incremental.md", &out);
    }
}
