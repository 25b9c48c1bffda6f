//! Property tests of the streaming ingestion layer: `SuffStats::merge` is
//! associative, commutative, and — for any partition of a sample stream
//! into batches and any worker count — equal to the statistics of the
//! monolithic stream.

use ct_core::samples::TimingSamples;
use ct_core::stream::SuffStats;
use ct_stats::parallel::par_map_with;
use proptest::prelude::*;

/// Splits `ticks` into non-empty chunks at the (sorted, deduped) cut points.
fn chunks(ticks: &[u64], cuts: &[usize]) -> Vec<Vec<u64>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (ticks.len() + 1)).collect();
    bounds.push(0);
    bounds.push(ticks.len());
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .windows(2)
        .map(|w| ticks[w[0]..w[1]].to_vec())
        .collect()
}

fn stats_of(ticks: &[u64], cpt: u64) -> SuffStats {
    let mut s = SuffStats::new(cpt);
    ticks.iter().for_each(|&t| s.push(t));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any split of a stream, merged left-to-right or right-to-left,
    /// equals the monolithic statistics exactly.
    #[test]
    fn merge_of_any_split_equals_monolithic(
        ticks in prop::collection::vec(0u64..50_000, 1..200),
        cuts in prop::collection::vec(0usize..200, 0..6),
        cpt in 1u64..300,
    ) {
        let whole = stats_of(&ticks, cpt);
        let parts: Vec<SuffStats> =
            chunks(&ticks, &cuts).iter().map(|c| stats_of(c, cpt)).collect();

        let mut forward = SuffStats::new(cpt);
        for p in &parts {
            forward.merge(p).expect("same resolution");
        }
        let mut backward = SuffStats::new(cpt);
        for p in parts.iter().rev() {
            backward.merge(p).expect("same resolution");
        }
        prop_assert_eq!(&forward, &whole);
        prop_assert_eq!(&backward, &whole);
    }

    /// Associativity: (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c); commutativity: a ⊕ b = b ⊕ a.
    #[test]
    fn merge_is_associative_and_commutative(
        a in prop::collection::vec(0u64..10_000, 0..80),
        b in prop::collection::vec(0u64..10_000, 0..80),
        c in prop::collection::vec(0u64..10_000, 0..80),
        cpt in 1u64..100,
    ) {
        let (sa, sb, sc) = (stats_of(&a, cpt), stats_of(&b, cpt), stats_of(&c, cpt));
        let ab_c = SuffStats::merged(
            SuffStats::merged(sa.clone(), &sb).expect("same resolution"),
            &sc,
        )
        .expect("same resolution");
        let a_bc = SuffStats::merged(
            sa.clone(),
            &SuffStats::merged(sb.clone(), &sc).expect("same resolution"),
        )
        .expect("same resolution");
        prop_assert_eq!(&ab_c, &a_bc);

        let ab = SuffStats::merged(sa.clone(), &sb).expect("same resolution");
        let ba = SuffStats::merged(sb, &sa).expect("same resolution");
        prop_assert_eq!(ab, ba);
    }

    /// Reducing per-batch statistics computed by a deterministic parallel
    /// map equals the monolithic statistics for every worker count.
    #[test]
    fn parallel_reduction_matches_for_any_thread_count(
        ticks in prop::collection::vec(0u64..50_000, 1..200),
        cuts in prop::collection::vec(0usize..200, 0..5),
        threads in 1usize..5,
    ) {
        let cpt = 8;
        let whole = stats_of(&ticks, cpt);
        let per_batch = par_map_with(
            threads,
            chunks(&ticks, &cuts),
            |c| stats_of(&c, cpt),
        );
        let mut merged = SuffStats::new(cpt);
        for s in &per_batch {
            merged.merge(s).expect("same resolution");
        }
        prop_assert_eq!(merged, whole);
    }

    /// At-least-once ingestion is idempotent under tag dedup and
    /// permutation-invariant: any shuffle of a delivery stream with
    /// duplicated batches interleaved folds — through a dedup ledger — to
    /// exactly the statistics of the distinct batches.
    #[test]
    fn dedup_fold_is_idempotent_and_permutation_invariant(
        ticks in prop::collection::vec(0u64..50_000, 1..200),
        cuts in prop::collection::vec(0usize..200, 0..6),
        dup_mask in prop::collection::vec(any::<bool>(), 8),
        shuffle in prop::collection::vec(0usize..1000, 0..16),
        cpt in 1u64..300,
    ) {
        use ct_core::stream::BatchTag;
        use std::collections::BTreeSet;

        let whole = stats_of(&ticks, cpt);
        let parts: Vec<SuffStats> =
            chunks(&ticks, &cuts).iter().map(|c| stats_of(c, cpt)).collect();

        // Tag each batch, then redeliver the masked ones (same tag — the
        // at-least-once contract: a redelivery repeats the payload *and*
        // the tag).
        let mut stream: Vec<(BatchTag, SuffStats)> = parts
            .iter()
            .enumerate()
            .map(|(i, s)| (BatchTag { mote: i as u64, seq: 0 }, s.clone()))
            .collect();
        for (i, dup) in dup_mask.iter().enumerate() {
            if *dup && i < parts.len() {
                stream.push(stream[i].clone());
            }
        }
        // Deterministic shuffle from the generated swap list: duplicates
        // may arrive before their originals and in any interleaving.
        for (i, s) in shuffle.iter().enumerate() {
            let n = stream.len();
            stream.swap(i % n, s % n);
        }

        let mut ledger: BTreeSet<BatchTag> = BTreeSet::new();
        let mut folded = SuffStats::new(cpt);
        let mut dropped = 0usize;
        for (tag, s) in &stream {
            if ledger.insert(*tag) {
                folded.merge(s).expect("same resolution");
            } else {
                dropped += 1;
            }
        }
        prop_assert_eq!(&folded, &whole);
        prop_assert_eq!(dropped, stream.len() - parts.len());

        // Idempotence at the extreme: replay the entire stream again into
        // the same ledger — nothing changes.
        let before = folded.clone();
        for (tag, s) in &stream {
            if ledger.insert(*tag) {
                folded.merge(s).expect("same resolution");
            }
        }
        prop_assert_eq!(folded, before);
    }

    /// The sharded service core is shard-count invariant: for any delivery
    /// stream — duplicated, shuffled, reduced on an arbitrary schedule —
    /// every shard count in {1, 2, 7, 16} ends with the monolithic
    /// statistics and serves bitwise the same estimate as a monolithic
    /// incremental fold of the distinct batches.
    #[test]
    fn service_core_is_shard_count_invariant(
        arms in prop::collection::vec(any::<bool>(), 8..120),
        cuts in prop::collection::vec(0usize..200, 0..6),
        dup_mask in prop::collection::vec(any::<bool>(), 8),
        shuffle in prop::collection::vec(0usize..1000, 0..16),
    ) {
        use ct_core::em::EmOptions;
        use ct_core::stream::BatchTag;
        use ct_core::IncrementalEm;
        use ct_service::{ServiceConfig, ServiceCore};

        let cfg = ct_cfg::builder::diamond();
        let (bc, ec) = ([10u64, 100, 200, 5], [0u64; 4]);
        let cpt = 1;
        // Two identifiable arm durations keep EM well-posed on the diamond.
        let ticks: Vec<u64> = arms.iter().map(|&b| if b { 215 } else { 115 }).collect();
        let whole = stats_of(&ticks, cpt);
        let parts: Vec<SuffStats> =
            chunks(&ticks, &cuts).iter().map(|c| stats_of(c, cpt)).collect();

        // The monolithic reference: fold every distinct batch in order,
        // re-estimate once from a cold start.
        let mut mono = IncrementalEm::new(cpt, EmOptions::default());
        for p in &parts {
            mono.ingest(p).expect("same resolution");
        }
        let reference = mono.reestimate(&cfg, &bc, &ec).expect("reference EM").clone();

        // At-least-once delivery: duplicate the masked batches (same tag),
        // then shuffle deterministically.
        let mut stream: Vec<(BatchTag, SuffStats)> = parts
            .iter()
            .enumerate()
            .map(|(i, s)| (BatchTag { mote: i as u64, seq: 0 }, s.clone()))
            .collect();
        for (i, dup) in dup_mask.iter().enumerate() {
            if *dup && i < parts.len() {
                stream.push(stream[i].clone());
            }
        }
        for (i, s) in shuffle.iter().enumerate() {
            let n = stream.len();
            stream.swap(i % n, s % n);
        }

        for shards in [1usize, 2, 7, 16] {
            let mut core = ServiceCore::new(
                &ServiceConfig::new().shards(shards),
                cpt,
                EmOptions::default(),
            );
            for (i, (tag, s)) in stream.iter().enumerate() {
                core.ingest(*tag, s).expect("same resolution");
                // An arbitrary shard-count-dependent reduce schedule: the
                // cadence must not be able to change anything.
                if i % (shards + 2) == 0 {
                    core.reduce().expect("mid-stream reduce");
                }
            }
            core.reduce().expect("final reduce");
            prop_assert_eq!(core.stats(), &whole, "shards={} stats diverged", shards);
            prop_assert_eq!(core.batches(), parts.len() as u64);
            prop_assert_eq!(
                core.dedup_dropped() as usize,
                stream.len() - parts.len()
            );
            let served = core.estimate(&cfg, &bc, &ec).expect("service EM").clone();
            for (a, b) in served.probs.as_slice().iter().zip(reference.probs.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "shards={} estimate diverged", shards);
            }
            prop_assert_eq!(served.loglik.to_bits(), reference.loglik.to_bits());
            prop_assert_eq!(served.iterations, reference.iterations);
        }
    }

    /// The streaming view and the monolithic vector agree on everything the
    /// estimators consume: count, histogram, and both moments.
    #[test]
    fn stats_agree_with_monolithic_vector_view(
        ticks in prop::collection::vec(0u64..50_000, 1..200),
        cpt in 1u64..300,
    ) {
        let samples = TimingSamples::new(ticks.clone(), cpt);
        let stats = SuffStats::from_samples(&samples);
        prop_assert_eq!(stats.len(), samples.len());
        prop_assert_eq!(stats.counted(), samples.counted());
        // The moments against a Welford pass over the expanded vector.
        let xs: Vec<f64> = ticks.iter().map(|&t| t as f64).collect();
        let welford = ct_stats::descriptive::Summary::of(&xs);
        let c = cpt as f64;
        let dm = stats.mean_cycles() - welford.mean * c;
        prop_assert!(dm.abs() < 1e-6);
        let var = welford.variance * c * c;
        prop_assert!((stats.variance_cycles() - var).abs() < 1e-3 * var.max(1.0));
    }
}
