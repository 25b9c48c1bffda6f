//! Checkpoint rejection table: a snapshot that decodes cleanly but breaks
//! one restore invariant must be refused, and the refused restart must
//! fall back to a clean start whose report is bitwise the uninterrupted
//! one.
//!
//! Each case takes a real snapshot (a fleet streaming run halted after two
//! batches, or a drained threaded service), breaks one invariant, and
//! re-saves it so the checksum is valid again — the refusal has to come
//! from the restore checks, not from the decoder.

use code_tomography::core::em::EmOptions;
use code_tomography::core::stream::{BatchTag, SuffStats};
use code_tomography::pipeline::{
    Checkpoint, CheckpointPolicy, Fleet, FleetStreamReport, RunConfig,
};
use code_tomography::service::{EstimationService, ServiceConfig};
use std::path::PathBuf;

fn snapshot_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ct_ckpt_reject_{}_{tag}.ckpt", std::process::id()))
}

/// Rebuilds the statistics at a different timer resolution, keeping the
/// histogram.
fn at_resolution(stats: &SuffStats, cycles_per_tick: u64) -> SuffStats {
    SuffStats::from_histogram(cycles_per_tick, stats.histogram(), stats.saturated())
}

/// Asserts the two reports agree bitwise on what the estimate produced.
fn assert_bitwise_equal(got: &FleetStreamReport, want: &FleetStreamReport, case: &str) {
    assert_eq!(got.batches, want.batches, "{case}: batch counts differ");
    assert_eq!(
        got.batch_iterations, want.batch_iterations,
        "{case}: iteration trails differ"
    );
    let (g, w) = (&got.estimated.estimate, &want.estimated.estimate);
    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(g.probs.as_slice()),
        bits(w.probs.as_slice()),
        "{case}: probability bits differ"
    );
    assert_eq!(
        g.loglik.map(f64::to_bits),
        w.loglik.map(f64::to_bits),
        "{case}: loglik bits differ"
    );
    assert_eq!(
        got.estimated.confidence.to_bits(),
        want.estimated.confidence.to_bits(),
        "{case}: confidence bits differ"
    );
}

type Breakage = fn(&mut Checkpoint);

#[test]
fn fleet_refuses_every_broken_invariant_and_falls_back_bitwise() {
    let fleet = Fleet::new(RunConfig::new("sense").invocations(120).seeded(5), 3);
    let fr = fleet.run().expect("fleet runs");
    let reference = fleet.estimate_streaming(&fr).expect("reference estimates");

    let path = snapshot_path("fleet");
    let _ = std::fs::remove_file(&path);
    let halted = fleet
        .estimate_streaming_with(&fr, &CheckpointPolicy::to(&path).halt_after(2))
        .expect("halted run estimates");
    assert!(halted.halted, "the run did not halt");
    let clean = Checkpoint::load(&path).expect("snapshot decodes");
    assert_eq!((clean.batches, clean.ledger.len()), (2, 2));

    // Control: the untouched snapshot restores, so every refusal below is
    // the broken invariant's doing.
    let resumed = fleet
        .estimate_streaming_with(&fr, &CheckpointPolicy::to(&path))
        .expect("resumed run estimates");
    assert!(resumed.restored, "the untouched snapshot was refused");
    assert_bitwise_equal(&resumed, &reference, "untouched");

    let cases: [(&str, Breakage); 8] = [
        ("wrong fingerprint", |ck| ck.fingerprint ^= 1),
        ("batches != ledger.len()", |ck| {
            ck.ledger.pop();
        }),
        ("wrong cycles_per_tick", |ck| {
            let cpt = ck.stats.cycles_per_tick();
            ck.stats = at_resolution(&ck.stats, cpt + 1);
        }),
        ("generations > batches", |ck| {
            ck.generations = ck.batches + 1
        }),
        ("warm start out of range", |ck| {
            if let Some(last) = ck.last.as_mut() {
                last.probs[0] = 1.5;
            }
        }),
        ("trail length != batches", |ck| {
            ck.batch_iterations.pop();
        }),
        ("generations != batches", |ck| {
            ck.generations = ck.batches - 1
        }),
        ("no warm start with batches > 0", |ck| {
            ck.last = None;
            ck.cached = false;
        }),
    ];
    for (case, breakage) in cases {
        let mut ck = clean.clone();
        breakage(&mut ck);
        assert_ne!(ck, clean, "{case}: the breakage changed nothing");
        ck.save(&path).expect("broken snapshot saved");
        let fallback = fleet
            .estimate_streaming_with(&fr, &CheckpointPolicy::to(&path))
            .expect("a refused snapshot must degrade, not fail");
        assert!(!fallback.restored, "{case}: the snapshot was restored");
        assert!(!fallback.halted, "{case}");
        assert_bitwise_equal(&fallback, &reference, case);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn service_refuses_a_foreign_or_inconsistent_snapshot() {
    let cfg = code_tomography::cfg::builder::diamond();
    let fingerprint = 0xC0DE_u64;
    let config = ServiceConfig::new().shards(3).queue_depth(4);
    let path = snapshot_path("service");
    let _ = std::fs::remove_file(&path);
    let policy = CheckpointPolicy::to(&path);
    let start = || {
        EstimationService::start_with_checkpoints(
            &config,
            1,
            EmOptions::default(),
            &cfg,
            policy.clone(),
            fingerprint,
        )
    };

    let mut first = start();
    let handle = first.handle();
    for m in 0..5u64 {
        let mut delta = SuffStats::new(1);
        delta.push(if m % 3 == 0 { 215 } else { 115 });
        delta.push(115 + m);
        handle
            .ingest(BatchTag { mote: m, seq: 0 }, delta)
            .expect("ingest");
    }
    first.drain().expect("drain");
    first.shutdown().expect("shutdown");
    let clean = Checkpoint::load(&path).expect("snapshot decodes");
    assert_eq!(clean.batches, 5);

    let restored = start();
    assert!(restored.restored(), "the untouched snapshot was refused");
    assert_eq!(restored.batches(), 5);
    restored.shutdown().expect("shutdown");

    let cases: [(&str, Breakage); 2] = [
        ("wrong fingerprint", |ck| ck.fingerprint ^= 1),
        ("batches != ledger.len()", |ck| {
            ck.ledger.pop();
        }),
    ];
    for (case, breakage) in cases {
        let mut ck = clean.clone();
        breakage(&mut ck);
        ck.save(&path).expect("broken snapshot saved");
        let svc = start();
        assert!(!svc.restored(), "{case}: the snapshot was restored");
        assert_eq!(svc.batches(), 0, "{case}: the fallback did not start clean");
        assert_eq!(svc.generation(), 0, "{case}");
        svc.shutdown().expect("shutdown");
    }
    let _ = std::fs::remove_file(&path);
}
