//! Service topology: shard count and queue depth.

/// How the estimation service is laid out: how many shard accumulators
/// and how deep each bounded ingest queue is. The reduce cadence is not a
/// setting: the caller decides when to reduce.
///
/// None of these knobs can change *what* is estimated — the reduce
/// tier's tree reduction is bitwise shard-count- and cadence-invariant (see
/// [`SuffStats::tree_reduce`](ct_core::stream::SuffStats::tree_reduce)) —
/// they only trade memory, latency, and contention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Shard accumulators (`K`); batches route by `tag.mote % K`, so one
    /// mote's stream always lands on one shard. At least 1.
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue: a full queue blocks the
    /// producer (or returns [`IngestError::QueueFull`](crate::IngestError)
    /// in non-blocking mode) — explicit backpressure instead of unbounded
    /// buffering. At least 1.
    pub queue_depth: usize,
    /// Test/bench-only: microseconds each shard worker sleeps per batch,
    /// to force backpressure deterministically in small experiments. 0 in
    /// production.
    pub ingest_stall_us: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shards: 4,
            queue_depth: 1024,
            ingest_stall_us: 0,
        }
    }
}

impl ServiceConfig {
    /// The default topology: 4 shards, 1024-deep queues.
    pub fn new() -> ServiceConfig {
        ServiceConfig::default()
    }

    /// The topology the pinned `Fleet` streaming client uses: one shard
    /// (which the client reduces after every batch) — the shape under
    /// which the service is bitwise the pre-service monolithic loop.
    pub fn pinned() -> ServiceConfig {
        ServiceConfig {
            shards: 1,
            queue_depth: 1,
            ingest_stall_us: 0,
        }
    }

    /// Sets the shard count (builder style; clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> ServiceConfig {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-shard queue depth (builder style; clamped to at
    /// least 1).
    pub fn queue_depth(mut self, depth: usize) -> ServiceConfig {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the per-batch worker stall (builder style; test/bench only).
    pub fn ingest_stall_us(mut self, us: u64) -> ServiceConfig {
        self.ingest_stall_us = us;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_degenerate_values() {
        let c = ServiceConfig::new().shards(0).queue_depth(0);
        assert_eq!(c.shards, 1);
        assert_eq!(c.queue_depth, 1);
    }

    #[test]
    fn pinned_shape_is_one_shard() {
        let p = ServiceConfig::pinned();
        assert_eq!((p.shards, p.queue_depth), (1, 1));
        assert_eq!(p.ingest_stall_us, 0);
    }
}
