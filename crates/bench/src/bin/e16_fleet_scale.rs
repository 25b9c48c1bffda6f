//! E16 — Fleet-scale sharded estimation service (Table, extension).
//!
//! Claims evaluated, each enforced by exit status:
//!
//! 1. **Shard-count invariance**: the estimate the threaded service serves
//!    after ingesting a ~25%-duplicated delivery stream through N producer
//!    threads and K bounded-queue shards is bitwise identical to a
//!    monolithic [`IncrementalEm`](ct_core::IncrementalEm) fold of the same
//!    distinct batches — at every shard count in the sweep.
//! 2. **Throughput**: every shard cell sustains at least the per-mode
//!    ingest floor (100k batches/sec full, 1k smoke) from enqueue to final
//!    drain, duplicates and tree reductions included.
//! 3. **Backpressure without loss**: a deliberately starved cell (2-deep
//!    queues, stalled workers) reports `svc.backpressure` yet still ends
//!    with every distinct batch absorbed and the same estimate bits.

use ct_apps::synthetic::diamond_chain_problem;
use ct_bench::service_cell::{
    assert_bitwise, counter, delivery_stream, monolithic_reference, run_cell,
};
use ct_bench::{f2, write_manifest_env, write_result, Table};
use ct_core::stream::SuffStats;
use ct_pipeline::synth::synth_samples;
use ct_pipeline::EnvConfig;
use ct_service::ServiceConfig;

/// Ticks per delivered batch: the smallest payload a real radio report
/// would amortize, which maximizes per-batch overhead — the quantity the
/// throughput claim is about.
const BATCH_LEN: usize = 4;

fn main() {
    ct_obs::flight::set_run_name("e16_fleet_scale");
    let env = EnvConfig::load();
    eprintln!("e16: {}", env.banner());
    let seed = env.seed_or(61);
    let motes = env.pick(120_000, 400);
    let shard_counts: &[usize] = if env.smoke { &[1, 2] } else { &[1, 2, 7, 16] };
    let producers = env.threads.max(1);
    let min_rate = env.pick(100_000.0, 1_000.0);

    let (cfg, bc, ec, truth) = diamond_chain_problem(2, seed);
    let samples = synth_samples(&cfg, &bc, &ec, &truth, motes * BATCH_LEN, seed);
    let cpt = samples.cycles_per_tick();
    let deltas: Vec<SuffStats> = samples
        .ticks()
        .chunks(BATCH_LEN)
        .map(|chunk| {
            let mut s = SuffStats::new(cpt);
            chunk.iter().for_each(|&t| s.push(t));
            s
        })
        .collect();
    let (deliveries, dups) = delivery_stream(&deltas, 0.25, seed);
    let reference = monolithic_reference(&deltas, cpt, &cfg, &bc, &ec);

    let mut table = Table::new(vec![
        "shards",
        "producers",
        "motes",
        "deliveries",
        "dedup",
        "backpressure",
        "kbatch/s",
        "bitwise",
    ]);

    for &shards in shard_counts {
        let config = ServiceConfig::new().shards(shards);
        let before = ct_obs::snapshot();
        let (resp, elapsed) = run_cell(&config, producers, &deliveries, cpt, &cfg, &bc, &ec, None);
        let after = ct_obs::snapshot();
        let cell = format!("shards={shards}");

        // Claim 1: bitwise shard-count invariance, duplicates dropped.
        assert_bitwise(&resp, &reference, &cell);
        assert_eq!(resp.batches, motes as u64, "{cell}: batch count diverged");
        assert_eq!(
            resp.samples,
            motes * BATCH_LEN,
            "{cell}: sample count diverged"
        );
        assert_eq!(resp.staleness, 0, "{cell}: drained service must be fresh");
        assert!(resp.generation >= 1, "{cell}: no generation was reduced");
        let accepted =
            counter(&after, "svc.ingest.accepted") - counter(&before, "svc.ingest.accepted");
        let dedup = counter(&after, "svc.ingest.dedup") - counter(&before, "svc.ingest.dedup");
        assert_eq!(
            accepted, motes as u64,
            "{cell}: accepted-batch count diverged"
        );
        assert_eq!(dedup, dups, "{cell}: dedup ledger missed duplicates");

        // Claim 2: sustained ingest throughput, reductions included.
        let rate = deliveries.len() as f64 / elapsed.as_secs_f64();
        assert!(
            rate >= min_rate,
            "{cell}: {rate:.0} batches/sec under the {min_rate:.0} floor"
        );

        table.row(vec![
            shards.to_string(),
            producers.to_string(),
            motes.to_string(),
            deliveries.len().to_string(),
            dedup.to_string(),
            "0".to_string(),
            f2(rate / 1_000.0),
            "yes".to_string(),
        ]);
    }

    // Claim 3: a starved topology (2-deep queues, stalled workers) must
    // report backpressure yet lose nothing and serve the same bits.
    let bp_motes = env.pick(300, 120);
    let bp_deltas = &deltas[..bp_motes];
    let (bp_deliveries, _) = delivery_stream(bp_deltas, 0.25, seed);
    let bp_reference = monolithic_reference(bp_deltas, cpt, &cfg, &bc, &ec);
    let bp_config = ServiceConfig::new()
        .shards(2)
        .queue_depth(2)
        .ingest_stall_us(500);
    let before = ct_obs::snapshot();
    let (bp_resp, bp_elapsed) = run_cell(
        &bp_config,
        producers.max(2),
        &bp_deliveries,
        cpt,
        &cfg,
        &bc,
        &ec,
        None,
    );
    let after = ct_obs::snapshot();
    let backpressure = counter(&after, "svc.backpressure") - counter(&before, "svc.backpressure");
    assert!(
        backpressure > 0,
        "starved cell never hit a full queue: stall/depth no longer force backpressure"
    );
    assert_bitwise(&bp_resp, &bp_reference, "backpressure cell");
    assert_eq!(
        bp_resp.batches, bp_motes as u64,
        "backpressure dropped batches"
    );
    table.row(vec![
        "2*".to_string(),
        producers.max(2).to_string(),
        bp_motes.to_string(),
        bp_deliveries.len().to_string(),
        (counter(&after, "svc.ingest.dedup") - counter(&before, "svc.ingest.dedup")).to_string(),
        backpressure.to_string(),
        f2(bp_deliveries.len() as f64 / bp_elapsed.as_secs_f64() / 1_000.0),
        "yes".to_string(),
    ]);

    let out = format!(
        "# E16 — Fleet-scale sharded estimation service\n\n\
         diamond_chain(2), {motes} motes x {BATCH_LEN} ticks/batch, ~25% duplicated\n\
         deliveries, seed {seed}, {producers} producer thread(s). Exit-status-enforced\n\
         claims: the served estimate is bitwise the monolithic reference at every\n\
         shard count, every cell sustains >= {} kbatch/s, and the starved cell\n\
         (`2*`: depth-2 queues, 500us worker stall) reports backpressure while\n\
         losing nothing.\n\
         {}\n\n{}",
        f2(min_rate / 1_000.0),
        env.banner(),
        table.to_markdown()
    );
    println!("{out}");
    write_manifest_env("e16_fleet_scale");
    if !env.smoke {
        write_result("e16_fleet_scale.md", &out);
    }
}
