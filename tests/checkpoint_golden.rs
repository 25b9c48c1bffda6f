//! Checkpoint byte golden: the encoded snapshot of one fixed delivery stream
//! must not change by a single byte. Three snapshot writers are pinned —
//! a three-shard `ServiceCore` (a warm start included), the threaded
//! `EstimationService` (the file its checkpoint policy writes after a
//! drain), and the `Fleet` streaming loop halted after two batches — each
//! by the FNV-1a digest of its bytes.
//!
//! A digest moves when the wire format, the ledger's contents or order,
//! the accumulated statistics, or any bit of the warm-start estimate
//! moves; a change that means to move one must say so and update the
//! constant here.

use code_tomography::core::em::EmOptions;
use code_tomography::core::stream::{BatchTag, SuffStats};
use code_tomography::pipeline::{CheckpointPolicy, Fleet, RunConfig};
use code_tomography::service::checkpoint::fnv1a64;
use code_tomography::service::{EstimationService, ServiceConfig, ServiceCore};
use std::path::PathBuf;

const SERVICE_CORE_DIGEST: u64 = 0x2b2c_319c_8450_94bf;
const ESTIMATION_SERVICE_DIGEST: u64 = 0xa46a_32b1_1c8a_d2bc;
const FLEET_DIGEST: u64 = 0x1e2c_2c2b_97f4_5393;

const FINGERPRINT: u64 = 0x5EED_C0DE;

fn snapshot_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ct_ckpt_golden_{}_{tag}.ckpt", std::process::id()))
}

/// Eleven motes, three batches each, every fourth delivery redelivered.
fn deliveries() -> Vec<(BatchTag, SuffStats)> {
    let mut out = Vec::new();
    for i in 0..33u64 {
        let mut delta = SuffStats::new(1);
        delta.push(if i % 3 == 0 { 215 } else { 115 });
        delta.push(115 + i % 5);
        let tag = BatchTag {
            mote: i % 11,
            seq: i / 11,
        };
        if i % 4 == 0 {
            out.push((tag, delta.clone()));
        }
        out.push((tag, delta));
    }
    out
}

fn digest_line(what: &str, bytes: &[u8]) -> u64 {
    let d = fnv1a64(bytes);
    println!("{what}: {} bytes, digest {d:#018x}", bytes.len());
    d
}

#[test]
fn checkpoint_bytes_match_the_golden() {
    let cfg = code_tomography::cfg::builder::diamond();
    let (bc, ec) = ([10u64, 100, 200, 5], [0u64; 4]);
    let stream = deliveries();

    // Single-threaded core: three shards, a reduce every seven deliveries,
    // one estimate mid-stream (a warm start that is stale at the cut).
    let mut core = ServiceCore::new(&ServiceConfig::new().shards(3), 1, EmOptions::default());
    for (i, (tag, delta)) in stream.iter().enumerate() {
        core.ingest(*tag, delta).expect("ingest");
        if i % 7 == 6 {
            core.reduce().expect("reduce");
        }
        if i == 20 {
            core.estimate(&cfg, &bc, &ec).expect("estimate");
        }
    }
    core.reduce().expect("reduce");
    let core_digest = digest_line("ServiceCore", &core.checkpoint(FINGERPRINT, &[]).encode());

    // Threaded service: one producer, one drain, the policy's file.
    let path = snapshot_path("service");
    let _ = std::fs::remove_file(&path);
    let mut svc = EstimationService::start_with_checkpoints(
        &ServiceConfig::new().shards(3).queue_depth(4),
        1,
        EmOptions::default(),
        &cfg,
        CheckpointPolicy::to(&path),
        FINGERPRINT,
    );
    let handle = svc.handle();
    for (tag, delta) in &stream {
        handle.ingest(*tag, delta.clone()).expect("ingest");
    }
    svc.drain().expect("drain");
    svc.shutdown().expect("shutdown");
    let bytes = std::fs::read(&path).expect("service snapshot written");
    let service_digest = digest_line("EstimationService", &bytes);
    let _ = std::fs::remove_file(&path);

    // Fleet streaming loop halted after two batches.
    let fleet = Fleet::new(RunConfig::new("sense").invocations(120).seeded(5), 3);
    let fr = fleet.run().expect("fleet runs");
    let path = snapshot_path("fleet");
    let _ = std::fs::remove_file(&path);
    let halted = fleet
        .estimate_streaming_with(&fr, &CheckpointPolicy::to(&path).halt_after(2))
        .expect("halted run estimates");
    assert!(halted.halted);
    let bytes = std::fs::read(&path).expect("fleet snapshot written");
    let fleet_digest = digest_line("Fleet", &bytes);
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        core_digest, SERVICE_CORE_DIGEST,
        "ServiceCore snapshot bytes moved"
    );
    assert_eq!(
        service_digest, ESTIMATION_SERVICE_DIGEST,
        "EstimationService snapshot bytes moved"
    );
    assert_eq!(fleet_digest, FLEET_DIGEST, "Fleet snapshot bytes moved");
}
