//! The service cell e16 and e18 both drive: a duplicated delivery stream,
//! the monolithic reference its served estimate must equal bitwise, and one
//! threaded run of the sharded [`EstimationService`].

use ct_cfg::graph::Cfg;
use ct_core::em::{EmOptions, EmResult};
use ct_core::stream::{BatchTag, SuffStats};
use ct_core::IncrementalEm;
use ct_faults::{MoteFaultKind, MoteFaultPlan};
use ct_service::{EstimateRequest, EstimateResponse, EstimationService, ServiceConfig};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Looks a cumulative counter up in a registry snapshot (0 when absent).
pub fn counter(snap: &ct_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// One delivery stream: per-mote deltas tagged `(mote, 0)`, with a seeded
/// ~`dup_rate` fraction of motes delivering their batch twice (at-least-once
/// transport). Returns the stream in delivery order plus the duplicate count.
pub fn delivery_stream(
    deltas: &[SuffStats],
    dup_rate: f64,
    seed: u64,
) -> (Vec<(BatchTag, SuffStats)>, u64) {
    let plan = MoteFaultPlan::single(MoteFaultKind::DuplicateDelivery, dup_rate, seed);
    let mut deliveries = Vec::with_capacity(deltas.len() * 2);
    let mut dups = 0u64;
    for (m, delta) in deltas.iter().enumerate() {
        let tag = BatchTag {
            mote: m as u64,
            seq: 0,
        };
        deliveries.push((tag, delta.clone()));
        if plan.outcome(m as u64, 0).duplicate_delivery {
            deliveries.push((tag, delta.clone()));
            dups += 1;
        }
    }
    (deliveries, dups)
}

/// The monolithic reference: one [`IncrementalEm`] folds every distinct
/// delta in mote order and re-estimates once from a cold start — exactly
/// the single EM run the service's final serve performs.
///
/// # Panics
///
/// Panics if the reference fold or EM run fails.
pub fn monolithic_reference(
    deltas: &[SuffStats],
    cpt: u64,
    cfg: &Cfg,
    bc: &[u64],
    ec: &[u64],
) -> EmResult {
    let mut inc = IncrementalEm::new(cpt, EmOptions::default());
    for d in deltas {
        inc.ingest(d).expect("reference ingest");
    }
    inc.reestimate(cfg, bc, ec).expect("reference EM").clone()
}

/// Runs one service cell: producers fan the delivery stream over the
/// ingest handles while the coordinator polls reduce; ends with a drain, a
/// single served estimate, and a clean shutdown. When `dump` is set, the
/// service's `Dump` verb writes a flight dump there after the serve, before
/// shutdown. Returns the response and the wall time from first enqueue to
/// final drain.
///
/// # Panics
///
/// Panics if any service call fails.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    config: &ServiceConfig,
    producers: usize,
    deliveries: &[(BatchTag, SuffStats)],
    cpt: u64,
    cfg: &Cfg,
    bc: &[u64],
    ec: &[u64],
    dump: Option<&Path>,
) -> (EstimateResponse, Duration) {
    let mut svc = EstimationService::start(config, cpt, EmOptions::default());
    let remaining = AtomicUsize::new(producers);
    let started = Instant::now();
    std::thread::scope(|s| {
        for p in 0..producers {
            let handle = svc.handle();
            let remaining = &remaining;
            s.spawn(move || {
                for (tag, delta) in deliveries.iter().skip(p).step_by(producers) {
                    handle.ingest(*tag, delta.clone()).expect("ingest");
                }
                ct_obs::drain_thread();
                remaining.fetch_sub(1, Ordering::Release);
            });
        }
        // The coordinator reduces while producers are still enqueuing —
        // the schedule is racy on purpose; the estimate must not be.
        while remaining.load(Ordering::Acquire) > 0 {
            svc.reduce().expect("reduce");
        }
    });
    svc.drain().expect("final drain");
    let elapsed = started.elapsed();
    let resp = svc
        .serve(&EstimateRequest::latest("diamond_chain"), cfg, bc, ec)
        .expect("serve");
    if let Some(path) = dump {
        svc.dump(path).expect("flight dump");
    }
    svc.shutdown().expect("shutdown");
    (resp, elapsed)
}

/// Panics unless the served estimate is bitwise the reference EM run.
pub fn assert_bitwise(resp: &EstimateResponse, reference: &EmResult, cell: &str) {
    assert_eq!(
        resp.probs.len(),
        reference.probs.as_slice().len(),
        "{cell}: probability vector shape changed"
    );
    for (i, (a, b)) in resp
        .probs
        .iter()
        .zip(reference.probs.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{cell}: branch {i} diverged from the monolithic reference: {a} vs {b}"
        );
    }
    assert_eq!(
        resp.loglik.to_bits(),
        reference.loglik.to_bits(),
        "{cell}: log-likelihood diverged"
    );
    assert_eq!(
        resp.iterations, reference.iterations,
        "{cell}: EM iteration count diverged"
    );
    assert_eq!(resp.converged, reference.converged);
}
