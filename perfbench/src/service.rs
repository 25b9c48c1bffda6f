//! The `service` workload: the threaded `EstimationService` fed 4-tick
//! `SuffStats` deltas cut from a real app's tick stream, with ~25% of the
//! deltas delivered twice (at-least-once transport).
//!
//! One producer, closed loop: `ingest` blocks on a full shard queue, so the
//! producer waits like a caller. The same thread runs `reduce()` every
//! [`REDUCE_EVERY`] deliveries and a `serve()` read every [`SERVE_EVERY`]
//! deliveries, so reads run beside writes; the pass ends with a drain and
//! a final serve.

use crate::common::{
    counter, derive_seed, mean, ms, quantile, ratio, set_em_layers, Budget, EmCounters, Layers,
    PassStats, Report, SetupTimes,
};
use ct_cfg::profile::BranchProbs;
use ct_core::em::EmOptions;
use ct_core::stream::{BatchTag, SuffStats};
use ct_core::IncrementalEm;
use ct_faults::{MoteFaultKind, MoteFaultPlan};
use ct_pipeline::{AppRun, RunConfig, Session};
use ct_placement::Strategy;
use ct_service::{EstimateRequest, EstimationService, ServiceConfig};
use std::time::{Duration, Instant};

/// The app whose tick stream is cut into deltas.
const APP: &str = "event_detect";
/// Interrupt contamination inside measured windows: probability and
/// stolen cycles per burst.
const CONTAMINATION: (f64, u64) = (0.1, 40);
/// Timer resolution of the stream (a 1 MHz timer on an 8 MHz core).
const CYCLES_PER_TICK: u64 = 8;
/// Distinct batches (motes) per pass.
const BATCHES: usize = 50_000;
/// Ticks per delta, as in the e16 experiment.
const BATCH_LEN: usize = 4;
/// Fraction of batches delivered twice.
const DUP_RATE: f64 = 0.25;
/// Deliveries between reduces.
const REDUCE_EVERY: usize = 64;
/// Deliveries between serve reads (a multiple of [`REDUCE_EVERY`]).
const SERVE_EVERY: usize = 128;
/// Upper bound on shard workers (further capped by the thread count).
const MAX_SHARDS: usize = 2;

/// The collected stream, its deliveries, and the reference answers.
struct Inputs {
    session: Session,
    run: AppRun,
    deliveries: Vec<(BatchTag, SuffStats)>,
    duplicates: u64,
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let session = Session::new(
        RunConfig::new(APP)
            .invocations(BATCHES * BATCH_LEN)
            .resolution(CYCLES_PER_TICK)
            .contaminated(CONTAMINATION.0, CONTAMINATION.1)
            .seeded(derive_seed(seed, 0)),
    );
    let run = session.collect().map_err(|e| e.to_string())?;
    let plan = MoteFaultPlan::single(
        MoteFaultKind::DuplicateDelivery,
        DUP_RATE,
        derive_seed(seed, 1),
    );
    let mut deliveries = Vec::with_capacity(BATCHES * 2);
    let mut duplicates = 0u64;
    for (m, chunk) in run.samples.ticks().chunks(BATCH_LEN).enumerate() {
        let mut delta = SuffStats::new(CYCLES_PER_TICK);
        chunk.iter().for_each(|&t| delta.push(t));
        let tag = BatchTag {
            mote: m as u64,
            seq: 0,
        };
        deliveries.push((tag, delta.clone()));
        if plan.outcome(m as u64, 0).duplicate_delivery {
            deliveries.push((tag, delta));
            duplicates += 1;
        }
    }
    Ok(Inputs {
        session,
        run,
        deliveries,
        duplicates,
    })
}

/// The probabilities a monolithic `IncrementalEm` fold serves at every
/// serve point of the pass (each interleaved read, then the final one):
/// it folds the distinct deltas in delivery order and re-estimates, warm,
/// wherever the service's generation has moved.
fn reference(inputs: &Inputs) -> Result<Vec<Vec<u64>>, String> {
    let run = &inputs.run;
    let mut inc = IncrementalEm::new(CYCLES_PER_TICK, EmOptions::default());
    let mut seen = std::collections::BTreeSet::new();
    let mut estimated_at = 0u64;
    let mut out = Vec::new();
    let mut serve = |inc: &mut IncrementalEm, out: &mut Vec<Vec<u64>>| -> Result<(), String> {
        if inc.batches() != estimated_at {
            inc.reestimate(run.cfg(), &run.block_costs, &run.edge_costs)
                .map_err(|e| e.to_string())?;
            estimated_at = inc.batches();
        }
        let last = inc.last().ok_or("no estimate")?;
        out.push(last.probs.as_slice().iter().map(|p| p.to_bits()).collect());
        Ok(())
    };
    for (i, (tag, delta)) in inputs.deliveries.iter().enumerate() {
        if seen.insert(*tag) {
            inc.ingest(delta).map_err(|e| e.to_string())?;
        }
        if (i + 1) % SERVE_EVERY == 0 {
            serve(&mut inc, &mut out)?;
        }
    }
    serve(&mut inc, &mut out)?;
    Ok(out)
}

/// One pass's measurements.
#[derive(Debug, Default)]
struct PassTimes {
    wall: Duration,
    ingest_ns: Vec<f64>,
    reduce: Duration,
    reduces: u64,
    drain: Duration,
    serve: Duration,
}

/// The deterministic outcome of one pass.
#[derive(Debug, Clone, PartialEq)]
struct PassFacts {
    served: Vec<Vec<u64>>,
    em_iterations: u64,
    accepted: u64,
    dedup: u64,
}

/// Runs one service lifetime over the delivery stream. Serve latencies go
/// to `latencies_ms`; per-call ingest and reduce timings are taken only
/// when `traced`.
fn pass(
    inputs: &Inputs,
    shards: usize,
    traced: bool,
    latencies_ms: &mut Vec<f64>,
    times: &mut PassTimes,
) -> Result<(PassFacts, EstimateTail), String> {
    let run = &inputs.run;
    let (cfg, bc, ec) = (run.cfg(), &run.block_costs, &run.edge_costs);
    let request = EstimateRequest::latest(APP);
    let mut svc = EstimationService::start(
        &ServiceConfig::new().shards(shards),
        CYCLES_PER_TICK,
        EmOptions::default(),
    );
    let handle = svc.handle();
    let before = ct_obs::snapshot();
    let batches = inputs.deliveries.clone();
    let mut served = Vec::new();
    let mut em_iterations = 0u64;
    let mut serve = |svc: &mut EstimationService, times: &mut PassTimes| {
        let t = Instant::now();
        let resp = svc
            .serve(&request, cfg, bc, ec)
            .map_err(|e| format!("serve: {e}"))?;
        let elapsed = t.elapsed();
        times.serve += elapsed;
        latencies_ms.push(ms(elapsed));
        em_iterations += resp.iterations as u64;
        served.push(resp.probs.iter().map(|p| p.to_bits()).collect::<Vec<u64>>());
        Ok::<_, String>(resp)
    };

    let started = Instant::now();
    for (i, (tag, delta)) in batches.into_iter().enumerate() {
        if traced {
            let t = Instant::now();
            handle
                .ingest(tag, delta)
                .map_err(|e| format!("ingest: {e}"))?;
            times.ingest_ns.push(t.elapsed().as_nanos() as f64);
        } else {
            handle
                .ingest(tag, delta)
                .map_err(|e| format!("ingest: {e}"))?;
        }
        if (i + 1) % REDUCE_EVERY == 0 {
            let t = Instant::now();
            svc.reduce().map_err(|e| format!("reduce: {e}"))?;
            times.reduce += t.elapsed();
            times.reduces += 1;
        }
        if (i + 1) % SERVE_EVERY == 0 {
            serve(&mut svc, times)?;
        }
    }
    let t = Instant::now();
    svc.drain().map_err(|e| format!("drain: {e}"))?;
    times.drain += t.elapsed();
    let last = serve(&mut svc, times)?;
    times.wall += started.elapsed();
    svc.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let after = ct_obs::snapshot();
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let tail = EstimateTail {
        probs: last.probs,
        confidence: last.confidence,
        batches: last.batches,
        staleness: last.staleness,
        backpressure: delta("svc.backpressure"),
    };
    Ok((
        PassFacts {
            served,
            em_iterations,
            accepted: delta("svc.ingest.accepted"),
            dedup: delta("svc.ingest.dedup"),
        },
        tail,
    ))
}

/// The final serve of a pass plus its scheduling-dependent counters.
#[derive(Debug)]
struct EstimateTail {
    probs: Vec<f64>,
    confidence: f64,
    batches: u64,
    staleness: u64,
    backpressure: u64,
}

/// Shard workers for `threads` available cores.
pub fn shards(threads: usize) -> usize {
    MAX_SHARDS.min(threads).max(1)
}

/// Runs the workload and returns its report.
pub fn run(seed: u64, budget: Budget, trace: bool, shards: usize) -> Report {
    let mut report = Report::default();
    let make = || setup(seed);
    let (inputs, mut setup_times) = SetupTimes::first(make);
    let expected = inputs.and_then(|i| reference(&i).map(|r| (i, r)));
    let (inputs, expected) = match expected {
        Ok(x) => x,
        Err(e) => {
            report.attempted = 1;
            report.fail(format!("set-up failed: {e}"));
            return report;
        }
    };
    let distinct = BATCHES as u64;

    let mut stats = PassStats::default();
    let mut traced_times = PassTimes::default();
    let (mut traced_wall, mut traced_passes) = (Duration::ZERO, 0u32);
    let (mut plain_wall, mut plain_passes) = (Duration::ZERO, 0u32);
    let mut first: Option<(PassFacts, EstimateTail)> = None;
    let mut backpressure = 0u64;
    let mut em_pass = EmCounters::default();

    let started = Instant::now();
    let mut passes = 0u32;
    while budget.more(passes, started.elapsed()) {
        let traced = trace && passes.is_multiple_of(2);
        passes += 1;
        report.attempted += (inputs.deliveries.len() + expected.len()) as u64;
        let mut times = PassTimes::default();
        let mut latencies_ms = Vec::new();
        let em_before = EmCounters::read();
        let outcome = pass(&inputs, shards, traced, &mut latencies_ms, &mut times);
        let (facts, tail) = match outcome {
            Ok(x) => x,
            Err(e) => {
                report.fail(e);
                continue;
            }
        };
        stats.record(&latencies_ms, times.wall.as_secs_f64());
        backpressure += tail.backpressure;
        if traced {
            em_pass = EmCounters::since(em_before);
            traced_wall += times.wall;
            traced_passes += 1;
            traced_times.ingest_ns.extend(&times.ingest_ns);
            traced_times.reduce += times.reduce;
            traced_times.reduces += times.reduces;
            traced_times.drain += times.drain;
            traced_times.serve += times.serve;
        } else {
            plain_wall += times.wall;
            plain_passes += 1;
        }
        report.check(facts.served == expected, || {
            "served bits differ from the monolithic IncrementalEm fold".into()
        });
        report.check(
            facts.accepted == distinct && tail.batches == distinct,
            || {
                format!(
                    "accepted {} / served batches {} != distinct {distinct}",
                    facts.accepted, tail.batches
                )
            },
        );
        report.check(facts.dedup == inputs.duplicates, || {
            format!(
                "dedup {} != injected duplicates {}",
                facts.dedup, inputs.duplicates
            )
        });
        report.check(tail.staleness == 0, || {
            format!("drained service reports staleness {}", tail.staleness)
        });
        if first.is_none() {
            first = Some((facts, tail));
        }
        setup_times.repeat_due(make);
    }

    let Some((facts, tail)) = first else {
        return report;
    };
    if !trace {
        let run = &inputs.run;
        let cfg = run.cfg();
        let probs = BranchProbs::from_vec(cfg, tail.probs.clone());
        let acc = ct_core::compare(cfg, &probs, &run.truth, &run.truth_profile, run.invocations);
        let layout = inputs
            .session
            .place_gated(run, &probs, tail.confidence, Strategy::Best);
        let penalties = inputs.session.config().penalties();
        stats.report(inputs.deliveries.len() as f64, &mut report);
        report.metric("setup_s", setup_times.seconds(), "s");
        report.metric("wmae_mean", acc.weighted_mae, "ratio");
        report.metric(
            "mispred_placed",
            layout
                .evaluate(cfg, &run.truth_profile, &penalties)
                .misprediction_rate(),
            "ratio",
        );
        return report;
    }

    let mut layers = Layers::default();
    let n = inputs.deliveries.len() as f64;
    set_em_layers(&mut layers, facts.em_iterations, em_pass);
    layers.set("svc.deliveries", n);
    layers.set("svc.ingest.accepted", facts.accepted as f64);
    layers.set("svc.ingest.dedup", facts.dedup as f64);
    layers.set("svc.dedup_ratio", ratio(facts.dedup as f64, n));
    layers.set("svc.ingest.ns_per_batch", mean(&traced_times.ingest_ns));
    layers.set("svc.ingest.ns_p99", quantile(&traced_times.ingest_ns, 0.99));
    layers.set("svc.backpressure", backpressure as f64 / passes as f64);
    layers.set(
        "svc.reduce.ms",
        ratio(ms(traced_times.reduce), traced_times.reduces as f64),
    );
    layers.set(
        "svc.drain.ms",
        ratio(ms(traced_times.drain), traced_passes as f64),
    );
    layers.set("svc.serve.em_iterations", facts.em_iterations as f64);
    let ingest: f64 = traced_times.ingest_ns.iter().sum::<f64>() / 1e9;
    let inside =
        ingest + (traced_times.reduce + traced_times.drain + traced_times.serve).as_secs_f64();
    layers.set("svc.coverage", ratio(inside, traced_wall.as_secs_f64()));
    if plain_passes > 0 {
        layers.set(
            "trace.overhead_ratio",
            ratio(
                traced_wall.as_secs_f64() / traced_passes as f64,
                plain_wall.as_secs_f64() / plain_passes as f64,
            ),
        );
    }
    layers.into_report(&mut report);
    report
}
