//! Snapshots cut while producers keep ingesting. A checkpoint's ledger is
//! copied out of the shards in the same harvest that hands over their
//! deltas, so every snapshot the policy writes mid-stream must be one a
//! restart accepts, its ledger must name exactly the batches folded into
//! its statistics, and a service restored from any of them and fed the
//! whole stream again must serve bitwise what an uninterrupted service
//! serves.

use ct_cfg::graph::Cfg;
use ct_core::em::EmOptions;
use ct_core::stream::{BatchTag, SuffStats};
use ct_service::{Checkpoint, CheckpointPolicy, EstimateRequest, EstimationService, ServiceConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const FINGERPRINT: u64 = 0x5A4D_0011;
const BLOCK_COSTS: [u64; 4] = [10, 100, 200, 5];
const EDGE_COSTS: [u64; 4] = [0; 4];

fn snapshot_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ct_concurrent_snapshots_{}_{tag}.ckpt",
        std::process::id()
    ))
}

/// 13 motes × 12 batches; every third delivery is redelivered right away.
fn deliveries() -> Vec<(BatchTag, SuffStats)> {
    let mut out = Vec::new();
    for i in 0..156u64 {
        let mut delta = SuffStats::new(1);
        delta.push(if i % 3 == 0 { 215 } else { 115 });
        delta.push(115 + i % 7);
        let tag = BatchTag {
            mote: i % 13,
            seq: i / 13,
        };
        if i % 3 == 0 {
            out.push((tag, delta.clone()));
        }
        out.push((tag, delta));
    }
    out
}

fn config() -> ServiceConfig {
    ServiceConfig::new().shards(3).queue_depth(4)
}

/// Feeds the whole stream through one producer, drains, and serves.
fn replay_and_serve(mut svc: EstimationService, cfg: &Cfg) -> Vec<u64> {
    let handle = svc.handle();
    for (tag, delta) in deliveries() {
        handle.ingest(tag, delta).expect("ingest");
    }
    svc.drain().expect("drain");
    let served = svc
        .serve(
            &EstimateRequest::latest("diamond"),
            cfg,
            &BLOCK_COSTS,
            &EDGE_COSTS,
        )
        .expect("serve");
    svc.shutdown().expect("shutdown");
    assert_eq!(served.staleness, 0);
    let mut bits: Vec<u64> = served.probs.iter().map(|p| p.to_bits()).collect();
    bits.push(served.loglik.to_bits());
    bits.push(served.batches);
    bits.push(served.samples as u64);
    bits.push(served.iterations as u64);
    bits
}

/// Runs `producers` threads over the stream while this thread reduces in
/// a loop under `every(1)`, and returns each distinct snapshot the policy
/// wrote, in order. Producers hold at half their share until the first
/// snapshot is on disk, so at least one is cut mid-stream.
fn snapshots_under_load(producers: usize, cfg: &Cfg, path: &PathBuf) -> Vec<Vec<u8>> {
    let _ = std::fs::remove_file(path);
    let mut svc = EstimationService::start_with_checkpoints(
        &config(),
        1,
        EmOptions::default(),
        cfg,
        CheckpointPolicy::to(path).every(1),
        FINGERPRINT,
    );
    assert!(!svc.restored());
    let stream = deliveries();
    let finished = AtomicUsize::new(0);
    let first_cut = AtomicBool::new(false);
    let mut written: Vec<Vec<u8>> = Vec::new();
    let keep = |written: &mut Vec<Vec<u8>>| {
        if let Ok(bytes) = std::fs::read(path) {
            if written.last() != Some(&bytes) {
                written.push(bytes);
            }
        }
    };
    std::thread::scope(|scope| {
        for p in 0..producers {
            let handle = svc.handle();
            let stream = &stream;
            let (finished, first_cut) = (&finished, &first_cut);
            scope.spawn(move || {
                let share: Vec<_> = stream.iter().skip(p).step_by(producers).collect();
                for (i, (tag, delta)) in share.iter().enumerate() {
                    while i == share.len() / 2 && !first_cut.load(Ordering::Acquire) {
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                    handle.ingest(*tag, delta.clone()).expect("ingest");
                    // Paced, so that snapshots are cut while ingest is under
                    // way.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                ct_obs::drain_thread();
                finished.fetch_add(1, Ordering::Release);
            });
        }
        while finished.load(Ordering::Acquire) < producers {
            svc.reduce().expect("reduce");
            keep(&mut written);
            first_cut.store(!written.is_empty(), Ordering::Release);
        }
    });
    svc.drain().expect("drain");
    keep(&mut written);
    assert_eq!(svc.batches(), 156);
    svc.shutdown().expect("shutdown");
    written
}

#[test]
fn snapshots_cut_during_ingest_restore_to_the_uninterrupted_serve() {
    let cfg = ct_cfg::builder::diamond();
    let want = replay_and_serve(
        EstimationService::start(&config(), 1, EmOptions::default()),
        &cfg,
    );
    let by_tag: BTreeMap<BatchTag, SuffStats> = deliveries().into_iter().collect();

    for producers in [2usize, 3, 4] {
        let path = snapshot_path(&format!("p{producers}"));
        let written = snapshots_under_load(producers, &cfg, &path);
        assert!(
            written.len() >= 2,
            "producers={producers}: only {} snapshot(s) written",
            written.len()
        );
        let mid_stream = written
            .iter()
            .filter(|b| Checkpoint::decode(b).is_ok_and(|ck| ck.batches < 156))
            .count();
        assert!(
            mid_stream > 0,
            "producers={producers}: no snapshot was cut while producers ingested"
        );

        for (i, bytes) in written.iter().enumerate() {
            let what = format!("producers={producers} snapshot {i}");
            std::fs::write(&path, bytes).expect("snapshot rewritten");
            // Restore from the file, write no further snapshots.
            let policy = CheckpointPolicy::to(&path).every(0);
            let (ck, _) = policy
                .load_valid(FINGERPRINT, 1, &cfg)
                .unwrap_or_else(|| panic!("{what}: refused by load_valid"));
            // The ledger names exactly the batches in the statistics.
            let mut folded = SuffStats::new(1);
            for tag in &ck.ledger {
                folded.merge(&by_tag[tag]).expect("same resolution");
            }
            assert_eq!(folded, ck.stats, "{what}: ledger and statistics disagree");

            let restored = EstimationService::start_with_checkpoints(
                &config(),
                1,
                EmOptions::default(),
                &cfg,
                policy,
                FINGERPRINT,
            );
            assert!(restored.restored(), "{what}: not restored");
            assert_eq!(restored.batches(), ck.batches, "{what}");
            assert_eq!(
                replay_and_serve(restored, &cfg),
                want,
                "{what}: served bits differ"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
