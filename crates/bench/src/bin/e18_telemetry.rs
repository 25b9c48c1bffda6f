//! E18 — Telemetry overhead and fidelity (Table, extension).
//!
//! Telemetry v2 adds latency histograms, a flight recorder, and a metrics
//! exposition pipeline to the fleet-scale service. This experiment drives
//! the e16 fleet workload with telemetry fully **on** (event stream +
//! flight recorder) and fully **off**, and exit-enforces:
//!
//! 1. **Fidelity**: the served estimate with telemetry on is bitwise the
//!    telemetry-off estimate, and both are bitwise the monolithic
//!    [`IncrementalEm`](ct_core::IncrementalEm) reference — instrumentation
//!    cannot perturb results.
//! 2. **Overhead**: the best-of-N telemetry-on wall time stays within the
//!    overhead bound of the best-of-N telemetry-off wall time (5% full,
//!    35% smoke; min-of-N with alternating reps absorbs scheduler noise).
//! 3. **Coverage**: the `svc.ingest.enqueue_ns`, `svc.reduce.latency_ns`
//!    and `svc.serve.latency_ns` histograms all report a nonzero p99 at
//!    every shard count, and the per-shard `svc.shard.<i>.accepted` /
//!    `.dedup` counters sum to the workload's exact totals.
//! 4. **Determinism**: the `svc.batch_samples` histogram — a property of
//!    the accepted stream, not the schedule — is bitwise identical across
//!    every shard count and both telemetry modes.
//!
//! The run also exercises the service's `Dump` verb (an on-demand flight
//! dump must be schema-valid JSONL with a `flight.meta` header) and the
//! [`MetricsPump`] JSONL sampler.

use ct_apps::synthetic::diamond_chain_problem;
use ct_bench::service_cell::{
    assert_bitwise, counter, delivery_stream, monolithic_reference, run_cell,
};
use ct_bench::{f2, write_manifest_env, write_result, Table};
use ct_core::stream::SuffStats;
use ct_obs::{HistData, MetricsPump};
use ct_pipeline::synth::synth_samples;
use ct_pipeline::EnvConfig;
use ct_service::ServiceConfig;
use std::path::Path;
use std::time::Duration;

/// Ticks per delivered batch (matches e16: smallest payload, maximum
/// per-batch overhead — the regime where telemetry cost would show).
const BATCH_LEN: usize = 4;

/// Switches the optional telemetry paths (event stream + flight recorder)
/// together. Histogram/counter aggregates are always on — they are part of
/// the manifest contract — so "off" here means the e16 baseline.
fn set_telemetry(on: bool) {
    ct_obs::set_stream_enabled(on);
    ct_obs::flight::set_enabled(on);
}

/// Looks a histogram up in a registry snapshot.
fn hist(snap: &ct_obs::Snapshot, name: &str) -> Option<HistData> {
    snap.hists
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h.clone())
}

/// Validates an on-demand flight dump: `flight.meta` header first, every
/// line valid JSON, and the serve's `svc.estimate` event in the ring.
fn validate_flight_dump(path: &Path) {
    let text = std::fs::read_to_string(path).expect("flight dump readable");
    let first = text.lines().next().unwrap_or_default();
    assert!(
        first.contains("\"event\":\"flight.meta\"") && first.contains("\"reason\":\"dump-verb\""),
        "flight dump must lead with its meta header: {first}"
    );
    for line in text.lines() {
        ct_obs::json::parse(line).unwrap_or_else(|e| panic!("bad flight line {line}: {e}"));
    }
    assert!(
        text.contains("\"event\":\"svc.estimate\""),
        "the serve that preceded the Dump verb must be in the ring"
    );
}

fn main() {
    let env = EnvConfig::load();
    eprintln!("e18: {}", env.banner());
    let seed = env.seed_or(83);
    let motes = env.pick(40_000, 300);
    let shard_counts: &[usize] = if env.smoke { &[1, 2] } else { &[1, 2, 7, 16] };
    let producers = env.threads.max(1);
    let reps = env.pick(3usize, 2);
    let bound = env.pick(0.05f64, 0.35);

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

    let dump_dir = std::env::temp_dir().join(format!("ct-e18-{}", std::process::id()));
    let dump_path = dump_dir.join("e18.flight.jsonl");
    let last_shards = *shard_counts.last().expect("non-empty sweep");

    let mut table = Table::new(vec![
        "shards",
        "off kb/s",
        "on kb/s",
        "ovh %",
        "enq p99 ns",
        "reduce p99 ns",
        "serve p99 ns",
        "bitwise",
    ]);
    // The schedule-independent histogram, pinned by the first cell: every
    // later cell — any shard count, telemetry on or off — must match it
    // bitwise.
    let mut batch_hist: Option<HistData> = None;

    for &shards in shard_counts {
        let config = ServiceConfig::new().shards(shards);
        let cell = format!("shards={shards}");
        let mut best = [Duration::MAX, Duration::MAX]; // [off, on]
        let mut resps: [Option<ct_service::EstimateResponse>; 2] = [None, None];
        let mut on_snap: Option<ct_obs::Snapshot> = None;

        // Alternating off/on reps: thermal and scheduler drift hits both
        // modes equally, and min-of-N drops the noisy outliers.
        for rep in 0..reps {
            for on in [false, true] {
                let mode = usize::from(on);
                ct_obs::reset();
                set_telemetry(on);
                let dump =
                    (on && rep == reps - 1 && shards == last_shards).then_some(dump_path.as_path());
                let (resp, elapsed) =
                    run_cell(&config, producers, &deliveries, cpt, &cfg, &bc, &ec, dump);
                set_telemetry(false);
                let snap = ct_obs::snapshot();
                best[mode] = best[mode].min(elapsed);
                resps[mode] = Some(resp);

                let bh = hist(&snap, "svc.batch_samples")
                    .unwrap_or_else(|| panic!("{cell}: svc.batch_samples missing"));
                match &batch_hist {
                    None => batch_hist = Some(bh),
                    Some(first) => assert_eq!(
                        &bh, first,
                        "{cell} on={on}: svc.batch_samples drifted with the schedule"
                    ),
                }
                if on {
                    on_snap = Some(snap);
                }
            }
        }

        // Claim 1: telemetry cannot perturb the estimate.
        let off = resps[0].take().expect("off rep ran");
        let on = resps[1].take().expect("on rep ran");
        assert_bitwise(&off, &reference, &format!("{cell} off"));
        assert_bitwise(&on, &reference, &format!("{cell} on"));
        assert_eq!(on.batches, off.batches, "{cell}: batch count diverged");
        assert_eq!(on.samples, off.samples, "{cell}: sample count diverged");

        // Claim 3: the latency histograms actually measured something, and
        // the per-shard counters account for the exact workload.
        let snap = on_snap.expect("an on rep ran");
        let p99 = |name: &str| {
            hist(&snap, name)
                .unwrap_or_else(|| panic!("{cell}: {name} missing"))
                .p99()
        };
        let (enq, red, srv) = (
            p99("svc.ingest.enqueue_ns"),
            p99("svc.reduce.latency_ns"),
            p99("svc.serve.latency_ns"),
        );
        assert!(enq > 0, "{cell}: enqueue latency histogram is empty");
        assert!(red > 0, "{cell}: reduce latency histogram is empty");
        assert!(srv > 0, "{cell}: serve latency histogram is empty");
        let accepted: u64 = (0..shards)
            .map(|i| counter(&snap, &format!("svc.shard.{i}.accepted")))
            .sum();
        let dedup: u64 = (0..shards)
            .map(|i| counter(&snap, &format!("svc.shard.{i}.dedup")))
            .sum();
        assert_eq!(accepted, motes as u64, "{cell}: per-shard accepted drifted");
        assert_eq!(dedup, dups, "{cell}: per-shard dedup drifted");

        // Claim 2: the overhead gate.
        let (off_s, on_s) = (best[0].as_secs_f64(), best[1].as_secs_f64());
        assert!(
            on_s <= off_s * (1.0 + bound),
            "{cell}: telemetry overhead {:.1}% over the {:.0}% bound \
             (off {off_s:.3}s, on {on_s:.3}s)",
            (on_s / off_s - 1.0) * 100.0,
            bound * 100.0
        );

        table.row(vec![
            shards.to_string(),
            f2(deliveries.len() as f64 / off_s / 1_000.0),
            f2(deliveries.len() as f64 / on_s / 1_000.0),
            f2((on_s / off_s - 1.0) * 100.0),
            enq.to_string(),
            red.to_string(),
            srv.to_string(),
            "yes".to_string(),
        ]);
    }

    // The Dump verb produced a schema-valid flight dump on the last on-rep.
    validate_flight_dump(&dump_path);

    // The metrics pump samples the registry (which still holds the final
    // on-cell) into parseable JSONL rows.
    let pump_path = dump_dir.join("e18.metrics.jsonl");
    let mut pump = MetricsPump::new(&pump_path, Duration::ZERO);
    assert!(
        pump.tick(),
        "a zero-interval pump must sample on first tick"
    );
    pump.force_sample();
    assert_eq!(pump.samples(), 2);
    let series = std::fs::read_to_string(&pump_path).expect("metrics series readable");
    assert_eq!(series.lines().count(), 2);
    for line in series.lines() {
        ct_obs::json::parse(line).unwrap_or_else(|e| panic!("bad metrics line {line}: {e}"));
        assert!(line.contains("\"event\":\"metrics.sample\""));
        assert!(line.contains("\"svc.ingest.enqueue_ns\""));
    }
    let _ = std::fs::remove_dir_all(&dump_dir);

    let out = format!(
        "# E18 — Telemetry overhead and fidelity\n\n\
         diamond_chain(2), {motes} motes x {BATCH_LEN} ticks/batch, ~25% duplicated\n\
         deliveries, seed {seed}, {producers} producer thread(s), best of {reps}\n\
         alternating reps per mode. Exit-status-enforced claims: telemetry-on\n\
         serves bitwise the telemetry-off and monolithic-reference estimate at\n\
         every shard count, best-of-N overhead stays under {}%, the three\n\
         service latency histograms report nonzero p99s, per-shard counters sum\n\
         to the exact workload, and `svc.batch_samples` is bitwise invariant\n\
         across shard counts and modes. The flight-recorder Dump verb and the\n\
         metrics pump both produced schema-valid JSONL.\n\
         {}\n\n{}",
        f2(bound * 100.0),
        env.banner(),
        table.to_markdown()
    );
    println!("{out}");
    write_manifest_env("e18_telemetry");
    if !env.smoke {
        write_result("e18_telemetry.md", &out);
    }
}
