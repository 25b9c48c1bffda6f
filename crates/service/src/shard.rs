//! The ingest tier's unit: one shard accumulator with its dedup ledger.

use ct_core::stream::{BatchTag, ResolutionMismatch, SuffStats};
use std::collections::BTreeSet;

/// Routes a batch to its shard: `tag.mote % shards`, so one mote's stream
/// always lands on one shard and its per-mote sequence numbers dedup
/// locally, without cross-shard coordination.
pub fn route(tag: BatchTag, shards: usize) -> usize {
    (tag.mote % shards.max(1) as u64) as usize
}

/// One shard of the ingest tier: a [`SuffStats`] delta accumulating
/// everything accepted since the last harvest, plus the at-least-once
/// dedup ledger of every tag this shard has ever folded in.
///
/// The ledger covers the shard's whole lifetime while the delta covers one
/// harvest interval — that asymmetry is what keeps harvests cheap (the
/// delta is taken, the ledger stays) and dedup exact (a redelivery is
/// recognized across harvest boundaries). The shard ledgers are the
/// service's only ledger: a checkpoint copies them out in the harvest that
/// cuts it (see [`Shard::harvest`]).
#[derive(Debug, Clone)]
pub struct Shard {
    index: usize,
    cycles_per_tick: u64,
    delta: SuffStats,
    ledger: BTreeSet<BatchTag>,
    /// Batches accepted since the last harvest (the batches `delta` covers).
    fresh: u64,
    accepted: u64,
    dedup_dropped: u64,
    /// Precomputed `svc.shard.<i>.*` counter names plus the values already
    /// flushed under them — per-shard telemetry is flushed as *deltas* at
    /// harvest time, keeping the per-ingest path free of name formatting.
    counter_accepted: String,
    counter_dedup: String,
    flushed_accepted: u64,
    flushed_dedup: u64,
}

/// What one harvest takes from a shard, in one step: the delta statistics,
/// the number of batches they cover and, when the harvest cuts a
/// checkpoint, a copy of the whole ledger — so the snapshot's ledger and
/// statistics cover the same batches however producers interleave.
#[derive(Debug)]
pub struct ShardHarvest {
    /// The harvested shard's index.
    pub shard: usize,
    /// Statistics accepted since the previous harvest.
    pub delta: SuffStats,
    /// Batches those statistics cover.
    pub fresh: u64,
    /// Every tag the shard has folded in, ascending — copied only when the
    /// harvest cuts a checkpoint, empty otherwise.
    pub ledger: Vec<BatchTag>,
}

impl Shard {
    /// An empty shard at `cycles_per_tick` resolution.
    pub fn new(index: usize, cycles_per_tick: u64) -> Shard {
        Shard {
            index,
            cycles_per_tick,
            delta: SuffStats::new(cycles_per_tick),
            ledger: BTreeSet::new(),
            fresh: 0,
            accepted: 0,
            dedup_dropped: 0,
            counter_accepted: format!("svc.shard.{index}.accepted"),
            counter_dedup: format!("svc.shard.{index}.dedup"),
            flushed_accepted: 0,
            flushed_dedup: 0,
        }
    }

    /// Seeds the dedup ledger with tags a restored checkpoint has already
    /// folded in: redeliveries of those batches will be dropped, which is
    /// exactly how at-least-once replay resumes past a crash point. The
    /// seeded tags are *not* fresh — their statistics live in the restored
    /// global accumulator, not in this shard's delta.
    pub fn seed_ledger(&mut self, tags: impl IntoIterator<Item = BatchTag>) {
        self.ledger.extend(tags);
    }

    /// Ingests one batch delta. Returns `Ok(true)` when the batch was
    /// fresh and folded in, `Ok(false)` when its tag was already in the
    /// ledger (duplicate: dropped, counted under `svc.ingest.dedup`).
    ///
    /// # Errors
    ///
    /// [`ResolutionMismatch`] when the delta's timer resolution differs
    /// from the shard's; nothing (ledger included) is mutated on error.
    pub fn ingest(&mut self, tag: BatchTag, delta: &SuffStats) -> Result<bool, ResolutionMismatch> {
        if delta.cycles_per_tick() != self.cycles_per_tick {
            return Err(ResolutionMismatch {
                ours: self.cycles_per_tick,
                theirs: delta.cycles_per_tick(),
            });
        }
        if !self.ledger.insert(tag) {
            self.dedup_dropped += 1;
            ct_obs::Counter::new("svc.ingest.dedup").incr();
            return Ok(false);
        }
        // Resolution was checked above; the merge cannot fail.
        let _ = self.delta.merge(delta);
        self.fresh += 1;
        self.accepted += 1;
        ct_obs::Counter::new("svc.ingest.accepted").incr();
        // Batch size is a property of the accepted stream, not of
        // scheduling: recorded only for fresh batches, the histogram is
        // bitwise identical at any shard/producer/thread count.
        ct_obs::hist_record("svc.batch_samples", delta.len() as u64);
        Ok(true)
    }

    /// Takes the delta and its batch count, leaving the shard accumulating
    /// a new interval (the ledger stays — dedup spans harvests). With
    /// `copy_ledger` the harvest also carries a copy of the ledger, taken
    /// at the same point as the delta: that is how a checkpoint reads its
    /// ledger. Also flushes the shard's per-shard telemetry counters
    /// (`svc.shard.<i>.accepted` / `.dedup`) as deltas since the previous
    /// harvest.
    pub fn harvest(&mut self, copy_ledger: bool) -> ShardHarvest {
        if self.accepted > self.flushed_accepted {
            ct_obs::counter_add(
                &self.counter_accepted,
                self.accepted - self.flushed_accepted,
            );
            self.flushed_accepted = self.accepted;
        }
        if self.dedup_dropped > self.flushed_dedup {
            ct_obs::counter_add(&self.counter_dedup, self.dedup_dropped - self.flushed_dedup);
            self.flushed_dedup = self.dedup_dropped;
        }
        ShardHarvest {
            shard: self.index,
            delta: self.delta.take(),
            fresh: std::mem::take(&mut self.fresh),
            ledger: if copy_ledger {
                self.ledger.iter().copied().collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Batches accepted over the shard's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Duplicate deliveries dropped over the shard's lifetime.
    pub fn dedup_dropped(&self) -> u64 {
        self.dedup_dropped
    }

    /// Tags in the dedup ledger (seeded + accepted).
    pub fn ledger_len(&self) -> usize {
        self.ledger.len()
    }

    /// Batches accepted since the last harvest.
    pub fn pending(&self) -> u64 {
        self.fresh
    }
}

/// Takes the ledger copies out of a round harvested for a checkpoint and
/// merges them, ascending: the checkpoint's ledger. Shards hold disjoint
/// tags (routing is by mote), so the union is a sort, not a dedup.
pub(crate) fn ledger_union(harvests: &mut [ShardHarvest]) -> Vec<BatchTag> {
    let mut ledger: Vec<BatchTag> = harvests
        .iter_mut()
        .flat_map(|h| std::mem::take(&mut h.ledger))
        .collect();
    ledger.sort_unstable();
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta_of(ticks: &[u64]) -> SuffStats {
        let mut s = SuffStats::new(1);
        ticks.iter().for_each(|&t| s.push(t));
        s
    }

    fn tag(mote: u64, seq: u64) -> BatchTag {
        BatchTag { mote, seq }
    }

    #[test]
    fn routing_is_by_mote_modulo_shards() {
        assert_eq!(route(tag(0, 9), 4), 0);
        assert_eq!(route(tag(7, 0), 4), 3);
        assert_eq!(route(tag(7, 0), 1), 0);
        assert_eq!(route(tag(7, 0), 0), 0, "degenerate count clamps to 1");
    }

    #[test]
    fn dedup_spans_harvest_boundaries() {
        let mut s = Shard::new(0, 1);
        assert!(s.ingest(tag(0, 0), &delta_of(&[5])).unwrap());
        assert!(!s.ingest(tag(0, 0), &delta_of(&[5])).unwrap());
        let h = s.harvest(false);
        assert_eq!(h.fresh, 1);
        assert_eq!(h.delta.len(), 1);
        assert!(h.ledger.is_empty(), "no ledger copy unless asked");
        // The same tag after a harvest is still a duplicate.
        assert!(!s.ingest(tag(0, 0), &delta_of(&[5])).unwrap());
        assert_eq!(s.dedup_dropped(), 2);
        assert_eq!(s.accepted(), 1);
        assert_eq!(s.pending(), 0);
        let h = s.harvest(true);
        assert_eq!(
            (h.fresh, h.delta.len()),
            (0, 0),
            "nothing fresh after dedup"
        );
        assert_eq!(h.ledger, vec![tag(0, 0)], "the copy spans harvests");
    }

    #[test]
    fn seeded_ledger_drops_replayed_tags_without_counting_them_fresh() {
        let mut s = Shard::new(2, 1);
        s.seed_ledger([tag(2, 0), tag(6, 1)]);
        assert!(!s.ingest(tag(2, 0), &delta_of(&[7])).unwrap());
        assert!(s.ingest(tag(2, 1), &delta_of(&[9])).unwrap());
        assert_eq!(s.ledger_len(), 3);
        let h = s.harvest(true);
        assert_eq!(h.fresh, 1);
        assert_eq!(h.ledger, vec![tag(2, 0), tag(2, 1), tag(6, 1)]);
    }

    #[test]
    fn resolution_mismatch_is_rejected_without_mutation() {
        let mut s = Shard::new(0, 1);
        let wrong = SuffStats::new(8);
        assert!(s.ingest(tag(0, 0), &wrong).is_err());
        assert_eq!(s.ledger_len(), 0, "failed ingest must not ledger the tag");
        assert!(s.ingest(tag(0, 0), &delta_of(&[5])).unwrap());
    }
}
