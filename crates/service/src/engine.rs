//! Single-threaded composition of the three tiers: shard accumulators,
//! reduce tier, and front door in one struct, with the caller driving the
//! schedule. This is the substrate both deployment shapes build on — the
//! pinned `Fleet` streaming client runs a `ServiceCore` with
//! [`ServiceConfig::pinned`] (one shard, reduce per batch), and each
//! worker/reducer of the threaded
//! [`EstimationService`](crate::EstimationService) is one piece of this
//! logic moved behind a queue.

use crate::api::{EstimateRequest, EstimateResponse, ServiceError};
use crate::checkpoint::Checkpoint;
use crate::config::ServiceConfig;
use crate::reduce::ReduceTier;
use crate::shard::{ledger_union, route, Shard};
use ct_cfg::graph::Cfg;
use ct_core::em::{EmOptions, EmResult};
use ct_core::fb::FbError;
use ct_core::stream::{BatchTag, SuffStats};

/// The in-process estimation service: K shard accumulators and a reduce
/// tier, driven synchronously by the caller.
///
/// The caller chooses when to [`ServiceCore::reduce`]; correctness never
/// depends on the choice. After any schedule of ingests and reduces
/// covering the same distinct batches, a final reduce leaves the global
/// accumulator bitwise identical to the monolithic fold — at any shard
/// count (see the determinism argument on [`ReduceTier`]).
#[derive(Debug, Clone)]
pub struct ServiceCore {
    pub(crate) shards: Vec<Shard>,
    pub(crate) reduce: ReduceTier,
}

impl ServiceCore {
    /// An empty service with `config.shards` shard accumulators at
    /// `cycles_per_tick` resolution.
    pub fn new(config: &ServiceConfig, cycles_per_tick: u64, opts: EmOptions) -> ServiceCore {
        ServiceCore::seeded(config, ReduceTier::new(cycles_per_tick, opts), Vec::new())
    }

    /// Rebuilds a service from a validated checkpoint and its revalidated
    /// warm start (see [`ReduceTier::restore`]): the reduce tier resumes
    /// the accumulator, warm start, batch count, generation, and serve
    /// cache; every ledger tag is seeded into its routing shard so
    /// at-least-once replay drops everything the snapshot already folded
    /// in. The threaded [`EstimationService`](crate::EstimationService)
    /// restores through here too.
    pub fn restore(
        config: &ServiceConfig,
        opts: EmOptions,
        mut ck: Checkpoint,
        last: Option<EmResult>,
    ) -> ServiceCore {
        let ledger = std::mem::take(&mut ck.ledger);
        ServiceCore::seeded(config, ReduceTier::restore(opts, ck, last), ledger)
    }

    fn seeded(config: &ServiceConfig, reduce: ReduceTier, ledger: Vec<BatchTag>) -> ServiceCore {
        let count = config.shards.max(1);
        let mut shards: Vec<Shard> = (0..count)
            .map(|i| Shard::new(i, reduce.cycles_per_tick()))
            .collect();
        for tag in ledger {
            shards[route(tag, count)].seed_ledger([tag]);
        }
        ServiceCore { shards, reduce }
    }

    /// Ingests one tagged batch into its routing shard. Returns `Ok(true)`
    /// for a fresh batch, `Ok(false)` for a deduplicated redelivery.
    ///
    /// # Errors
    ///
    /// [`FbError::Shape`] on a timer-resolution mismatch.
    pub fn ingest(&mut self, tag: BatchTag, delta: &SuffStats) -> Result<bool, FbError> {
        let i = route(tag, self.shards.len());
        self.shards[i]
            .ingest(tag, delta)
            .map_err(|e| FbError::Shape(e.to_string()))
    }

    /// Harvests every shard and absorbs the round into the reduce tier.
    /// Returns the number of fresh batches absorbed (0 is a free no-op).
    ///
    /// # Errors
    ///
    /// Propagates [`FbError`] from the reduction.
    pub fn reduce(&mut self) -> Result<u64, FbError> {
        let harvests = self.shards.iter_mut().map(|s| s.harvest(false)).collect();
        self.reduce.absorb(harvests)
    }

    /// Re-estimates over the current generation (see
    /// [`ReduceTier::estimate`]).
    ///
    /// # Errors
    ///
    /// Propagates [`FbError`] from the dynamic programs.
    pub fn estimate(
        &mut self,
        cfg: &Cfg,
        block_costs: &[u64],
        edge_costs: &[u64],
    ) -> Result<&EmResult, FbError> {
        self.reduce.estimate(cfg, block_costs, edge_costs)
    }

    /// Serves a front-door request from the latest reduced generation;
    /// staleness is the count of accepted-but-not-yet-reduced batches.
    ///
    /// # Errors
    ///
    /// Propagates [`ReduceTier::serve`] errors.
    pub fn serve(
        &mut self,
        req: &EstimateRequest,
        cfg: &Cfg,
        block_costs: &[u64],
        edge_costs: &[u64],
    ) -> Result<EstimateResponse, ServiceError> {
        let staleness = self.pending();
        self.reduce
            .serve(req, cfg, block_costs, edge_costs, staleness)
    }

    /// Cuts a reduce boundary and snapshots it: every shard hands over its
    /// pending delta with a copy of its ledger, the reduce tier absorbs
    /// the round, and the snapshot's ledger is the union of the copies.
    pub fn checkpoint(&mut self, fingerprint: u64, batch_iterations: &[usize]) -> Checkpoint {
        let mut harvests: Vec<_> = self.shards.iter_mut().map(|s| s.harvest(true)).collect();
        let ledger = ledger_union(&mut harvests);
        // Every shard was built at the tier's resolution and refuses any
        // other on ingest, so the absorb cannot fail; were it to, the
        // ledger would outnumber the batches and `load_valid` would refuse
        // the snapshot.
        let _ = self.reduce.absorb(harvests);
        self.reduce
            .checkpoint(fingerprint, batch_iterations, ledger)
    }

    /// Batches accepted by shards but not yet absorbed by a reduce.
    pub fn pending(&self) -> u64 {
        self.shards.iter().map(Shard::pending).sum()
    }

    /// Batches accepted across all shards over the service's lifetime.
    pub fn accepted(&self) -> u64 {
        self.shards.iter().map(Shard::accepted).sum()
    }

    /// Duplicate deliveries dropped across all shards.
    pub fn dedup_dropped(&self) -> u64 {
        self.shards.iter().map(Shard::dedup_dropped).sum()
    }

    /// The cumulative statistics at the last reduce boundary.
    pub fn stats(&self) -> &SuffStats {
        self.reduce.stats()
    }

    /// The most recent estimate, if one was computed.
    pub fn last(&self) -> Option<&EmResult> {
        self.reduce.last()
    }

    /// Distinct batches absorbed into the accumulator.
    pub fn batches(&self) -> u64 {
        self.reduce.batches()
    }

    /// Completed reduce generations.
    pub fn generation(&self) -> u64 {
        self.reduce.generation()
    }
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
    fn any_reduce_schedule_reaches_the_monolithic_fold_bitwise() {
        let deliveries: Vec<(BatchTag, SuffStats)> = (0..24)
            .map(|i| {
                let t = if i % 5 == 0 { 215 } else { 115 };
                (tag(i % 7, i / 7), delta_of(&[t, t + i]))
            })
            .collect();
        let mut mono = SuffStats::new(1);
        for (_, d) in &deliveries {
            mono.merge(d).unwrap();
        }

        for shards in [1usize, 2, 7, 16] {
            let mut core = ServiceCore::new(
                &ServiceConfig::new().shards(shards),
                1,
                EmOptions::default(),
            );
            for (i, (t, d)) in deliveries.iter().enumerate() {
                assert!(core.ingest(*t, d).unwrap());
                // An arbitrary, shard-count-dependent reduce schedule.
                if i % (shards + 2) == 0 {
                    core.reduce().unwrap();
                }
            }
            core.reduce().unwrap();
            assert_eq!(core.pending(), 0);
            assert_eq!(core.stats(), &mono, "shards={shards} diverged");
            assert_eq!(core.batches(), 24);
            assert_eq!(core.checkpoint(0, &[]).ledger.len(), 24);
        }
    }

    #[test]
    fn duplicates_are_dropped_at_any_shard_count() {
        let mut core = ServiceCore::new(&ServiceConfig::new().shards(3), 1, EmOptions::default());
        assert!(core.ingest(tag(4, 0), &delta_of(&[115])).unwrap());
        assert!(!core.ingest(tag(4, 0), &delta_of(&[115])).unwrap());
        core.reduce().unwrap();
        // Across a reduce boundary too.
        assert!(!core.ingest(tag(4, 0), &delta_of(&[115])).unwrap());
        assert_eq!(core.dedup_dropped(), 2);
        assert_eq!(core.accepted(), 1);
    }

    #[test]
    fn restore_seeds_shard_ledgers_for_replay() {
        let cfg = ct_cfg::builder::diamond();
        let (bc, ec) = ([10u64, 100, 200, 5], [0u64; 4]);
        let config = ServiceConfig::new().shards(2);
        let mut a = ServiceCore::new(&config, 1, EmOptions::default());
        for m in 0..4u64 {
            a.ingest(tag(m, 0), &delta_of(&[115, 215])).unwrap();
        }
        a.reduce().unwrap();
        a.estimate(&cfg, &bc, &ec).unwrap();
        let ck = a.checkpoint(9, &[]);

        let generations = ck.generations;
        let last = ck.last.as_ref().map(|e| e.to_em(&cfg).unwrap());
        let mut b = ServiceCore::restore(&config, EmOptions::default(), ck, last);
        // Replaying the whole stream dedups everything already folded in.
        for m in 0..4u64 {
            assert!(!b.ingest(tag(m, 0), &delta_of(&[115, 215])).unwrap());
        }
        assert!(b.ingest(tag(4, 0), &delta_of(&[115])).unwrap());
        b.reduce().unwrap();
        assert_eq!(b.batches(), 5);
        assert_eq!(b.generation(), generations + 1);
    }

    #[test]
    fn serve_reports_staleness_from_pending_shards() {
        let cfg = ct_cfg::builder::diamond();
        let (bc, ec) = ([10u64, 100, 200, 5], [0u64; 4]);
        let mut core = ServiceCore::new(&ServiceConfig::new().shards(2), 1, EmOptions::default());
        core.ingest(tag(0, 0), &delta_of(&[115, 115, 215])).unwrap();
        core.reduce().unwrap();
        core.ingest(tag(1, 0), &delta_of(&[215])).unwrap();
        core.ingest(tag(2, 0), &delta_of(&[115])).unwrap();
        let resp = core
            .serve(&EstimateRequest::latest("d"), &cfg, &bc, &ec)
            .unwrap();
        assert_eq!(resp.staleness, 2, "two accepted batches await reduction");
        assert_eq!(resp.batches, 1);
        assert_eq!(resp.generation, 1);
    }
}
