//! The reduce tier: deterministic tree reduction of shard harvests into a
//! generation-stamped global accumulator, plus the front-door serving
//! logic that estimates from the latest reduced generation.

use crate::api::{EstimateRequest, EstimateResponse, ServiceError};
use crate::checkpoint::{Checkpoint, CheckpointEstimate};
use crate::shard::ShardHarvest;
use ct_cfg::graph::Cfg;
use ct_core::em::{EmOptions, EmResult};
use ct_core::fb::FbError;
use ct_core::stream::{BatchTag, SuffStats};
use ct_core::IncrementalEm;

/// The generation-stamped global accumulator.
///
/// Each [`ReduceTier::absorb`] call tree-reduces one round of shard
/// harvests into the cumulative [`SuffStats`] (via
/// [`IncrementalEm::ingest_counted`], so the batch count advances by
/// batches, not reduce rounds) and, when the round carried anything,
/// stamps a new generation. Because the tree reduction and the cumulative
/// merge are both order-insensitive and exact, the accumulator after *any*
/// schedule of absorbs over *any* sharding is bitwise the monolithic fold
/// of the same distinct batches — which is the service's core determinism
/// guarantee.
#[derive(Debug, Clone)]
pub struct ReduceTier {
    inc: IncrementalEm,
    generation: u64,
    /// The generation `inc.last()` was computed from, if any — the serve
    /// cache: repeated requests against an unchanged generation replay the
    /// estimate instead of re-running EM.
    cached_generation: Option<u64>,
}

impl ReduceTier {
    /// An empty tier at `cycles_per_tick` resolution.
    pub fn new(cycles_per_tick: u64, opts: EmOptions) -> ReduceTier {
        ReduceTier {
            inc: IncrementalEm::new(cycles_per_tick, opts),
            generation: 0,
            cached_generation: None,
        }
    }

    /// Rebuilds a tier from a validated checkpoint (see
    /// [`CheckpointPolicy::load_valid`](crate::CheckpointPolicy::load_valid))
    /// and its revalidated warm start `last`, and counts the restore under
    /// `ckpt.restored`. The warm start seeds the incremental EM either way;
    /// it is treated as a cached response for the restored generation only
    /// when [`Checkpoint::cached`] says it was current when the snapshot
    /// was cut — a stale warm start (the snapshot absorbed generations
    /// after the last serve) must trigger a re-estimate on the first
    /// serve, exactly as it would have in the interrupted process. The
    /// snapshot's ledger is not read here: it belongs to the shards (see
    /// [`ServiceCore::restore`](crate::ServiceCore::restore)).
    pub fn restore(opts: EmOptions, ck: Checkpoint, last: Option<EmResult>) -> ReduceTier {
        ct_obs::Counter::new("ckpt.restored").incr();
        ct_obs::emit("ckpt.restored", vec![("batches", ck.batches.into())]);
        let cached_generation = (ck.cached && last.is_some()).then_some(ck.generations);
        ReduceTier {
            inc: IncrementalEm::restore(ck.stats, last, ck.batches, opts),
            generation: ck.generations,
            cached_generation,
        }
    }

    /// Absorbs one round of shard harvests: tree-reduces the deltas, folds
    /// the result into the cumulative statistics, and — when the round
    /// carried at least one fresh batch — stamps a new generation. Empty
    /// rounds are free no-ops (no generation bump), so a polling
    /// coordinator can reduce as often as it likes without perturbing
    /// anything deterministic.
    ///
    /// Returns the number of fresh batches absorbed. Emits the
    /// `svc.reduce.generations` counter, the `svc.reduce.latency_us`
    /// gauge, and the `svc.reduce.latency_ns` histogram (all
    /// scheduling-dependent: `ct-obs diff` treats `svc.` volatile metrics
    /// and `*_ns` histograms as notes, not differences).
    ///
    /// # Errors
    ///
    /// [`FbError::Shape`] when any harvest's resolution disagrees with the
    /// tier's.
    pub fn absorb(&mut self, harvests: Vec<ShardHarvest>) -> Result<u64, FbError> {
        let started = std::time::Instant::now();
        let mut fresh = 0u64;
        let mut deltas = Vec::with_capacity(harvests.len());
        let mut sorted = harvests;
        // Deterministic tree shape: leaves in shard order, whatever order
        // the replies arrived in. (Merge commutativity makes even this
        // unnecessary for bitwise equality; it keeps the shape canonical.)
        sorted.sort_by_key(|h| h.shard);
        for h in sorted {
            fresh += h.fresh;
            deltas.push(h.delta);
        }
        if fresh == 0 {
            return Ok(0);
        }
        let reduced = SuffStats::tree_reduce(self.cycles_per_tick(), deltas)
            .map_err(|e| FbError::Shape(e.to_string()))?;
        self.inc.ingest_counted(&reduced, fresh)?;
        self.generation += 1;
        ct_obs::Counter::new("svc.reduce.generations").incr();
        let elapsed = started.elapsed();
        ct_obs::Gauge::new("svc.reduce.latency_us").set(elapsed.as_micros() as f64);
        ct_obs::hist_record(
            "svc.reduce.latency_ns",
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        );
        Ok(fresh)
    }

    /// Re-estimates over the current generation's statistics,
    /// warm-starting from the previous optimum, and caches the result for
    /// [`ReduceTier::serve`].
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
        let r = self.inc.reestimate(cfg, block_costs, edge_costs)?;
        self.cached_generation = Some(self.generation);
        Ok(r)
    }

    /// Serves an estimate from the latest reduced generation: EM runs at
    /// most once per generation (repeat requests replay the cached
    /// optimum). `staleness` is supplied by the caller — the composition
    /// layer knows how many accepted batches have not reached a reduced
    /// generation yet. Successful serves record their end-to-end latency
    /// under the `svc.serve.latency_ns` histogram (volatile by the `_ns`
    /// convention).
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoBatches`] before the first absorbed batch;
    /// [`ServiceError::Estimation`] when EM fails hard.
    pub fn serve(
        &mut self,
        req: &EstimateRequest,
        cfg: &Cfg,
        block_costs: &[u64],
        edge_costs: &[u64],
        staleness: u64,
    ) -> Result<EstimateResponse, ServiceError> {
        let started = std::time::Instant::now();
        if self.inc.batches() == 0 {
            return Err(ServiceError::NoBatches);
        }
        if self.cached_generation != Some(self.generation) {
            self.estimate(cfg, block_costs, edge_costs)?;
        }
        // Cached or just computed — either way it exists now.
        let r = self.inc.last().ok_or(ServiceError::NoBatches)?;
        let samples = self.inc.stats().len();
        ct_obs::Counter::new("svc.serve").incr();
        ct_obs::hist_record(
            "svc.serve.latency_ns",
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        // Only schedule-independent facts in the event: the generation
        // number counts reduce rounds, which a polling coordinator makes
        // nondeterministic, so it stays out of the audit trail.
        ct_obs::emit(
            "svc.estimate",
            vec![
                ("batches", self.inc.batches().into()),
                ("samples", samples.into()),
                ("iterations", r.iterations.into()),
                ("converged", r.converged.into()),
                ("loglik", r.loglik.into()),
            ],
        );
        Ok(EstimateResponse {
            procedure: req.procedure.clone(),
            generation: self.generation,
            batches: self.inc.batches(),
            samples,
            probs: r.probs.as_slice().to_vec(),
            loglik: r.loglik,
            converged: r.converged,
            iterations: r.iterations,
            confidence: if r.converged { 1.0 } else { 0.5 },
            staleness,
        })
    }

    /// Snapshots the tier as a [`Checkpoint`]. `ledger` is the union of the
    /// ledger copies ([`ShardHarvest::ledger`]) of the round just absorbed,
    /// ascending. `batch_iterations` is the caller's per-batch
    /// iteration trail (the fleet client records one entry per batch; the
    /// service's on-demand path passes an empty trail).
    pub fn checkpoint(
        &self,
        fingerprint: u64,
        batch_iterations: &[usize],
        ledger: Vec<BatchTag>,
    ) -> Checkpoint {
        Checkpoint {
            fingerprint,
            stats: self.inc.stats().clone(),
            ledger,
            batch_iterations: batch_iterations.to_vec(),
            batches: self.inc.batches(),
            generations: self.generation,
            last: self.inc.last().map(CheckpointEstimate::from_em),
            // The warm start is always worth carrying; whether it doubles
            // as a cached response depends on it being current for this
            // very generation.
            cached: self.inc.last().is_some() && self.cached_generation == Some(self.generation),
        }
    }

    /// The cumulative statistics of every absorbed batch.
    pub fn stats(&self) -> &SuffStats {
        self.inc.stats()
    }

    /// The most recent estimate, if one was computed.
    pub fn last(&self) -> Option<&EmResult> {
        self.inc.last()
    }

    /// Distinct batches absorbed (restored + live).
    pub fn batches(&self) -> u64 {
        self.inc.batches()
    }

    /// Completed generations (restored + live).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The tier's timer resolution.
    pub fn cycles_per_tick(&self) -> u64 {
        self.inc.stats().cycles_per_tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Shard;

    fn delta_of(ticks: &[u64]) -> SuffStats {
        let mut s = SuffStats::new(1);
        ticks.iter().for_each(|&t| s.push(t));
        s
    }

    fn tag(mote: u64, seq: u64) -> BatchTag {
        BatchTag { mote, seq }
    }

    #[test]
    fn absorb_stamps_generations_only_for_fresh_rounds() {
        let mut tier = ReduceTier::new(1, EmOptions::default());
        let mut shard = Shard::new(0, 1);
        shard.ingest(tag(0, 0), &delta_of(&[115])).unwrap();
        assert_eq!(tier.absorb(vec![shard.harvest(false)]).unwrap(), 1);
        assert_eq!(tier.generation(), 1);
        assert_eq!(tier.batches(), 1);
        // An empty round is a no-op: no generation bump, no state change.
        assert_eq!(tier.absorb(vec![shard.harvest(false)]).unwrap(), 0);
        assert_eq!(tier.absorb(vec![]).unwrap(), 0);
        assert_eq!(tier.generation(), 1);
        assert_eq!(tier.batches(), 1);
    }

    #[test]
    fn serve_before_any_batch_is_a_typed_error() {
        let cfg = ct_cfg::builder::diamond();
        let mut tier = ReduceTier::new(1, EmOptions::default());
        let req = EstimateRequest::latest("diamond");
        let err = tier
            .serve(&req, &cfg, &[10, 100, 200, 5], &[0; 4], 0)
            .unwrap_err();
        assert_eq!(err, ServiceError::NoBatches);
    }

    #[test]
    fn serve_caches_per_generation_and_replays_bitwise() {
        let cfg = ct_cfg::builder::diamond();
        let (bc, ec) = ([10u64, 100, 200, 5], [0u64; 4]);
        let mut tier = ReduceTier::new(1, EmOptions::default());
        let mut shard = Shard::new(0, 1);
        let ticks: Vec<u64> = (0..40)
            .map(|i| if i % 3 == 0 { 215 } else { 115 })
            .collect();
        shard.ingest(tag(0, 0), &delta_of(&ticks)).unwrap();
        tier.absorb(vec![shard.harvest(false)]).unwrap();

        let req = EstimateRequest::latest("diamond");
        let a = tier.serve(&req, &cfg, &bc, &ec, 0).unwrap();
        let b = tier.serve(&req, &cfg, &bc, &ec, 0).unwrap();
        assert_eq!(a, b, "same generation must replay the cached estimate");
        assert_eq!(a.generation, 1);
        assert_eq!(a.batches, 1);
        assert_eq!(a.samples, 40);
        assert!(a.converged && a.confidence == 1.0);

        // A new generation invalidates the cache and re-estimates.
        shard.ingest(tag(0, 1), &delta_of(&[115, 115])).unwrap();
        tier.absorb(vec![shard.harvest(false)]).unwrap();
        let c = tier.serve(&req, &cfg, &bc, &ec, 3).unwrap();
        assert_eq!(c.generation, 2);
        assert_eq!(c.batches, 2);
        assert_eq!(c.staleness, 3);
        assert_ne!(a.probs[0].to_bits(), c.probs[0].to_bits());
    }

    #[test]
    fn restored_tier_resumes_generation_and_cache_state() {
        let cfg = ct_cfg::builder::diamond();
        let (bc, ec) = ([10u64, 100, 200, 5], [0u64; 4]);
        let mut tier = ReduceTier::new(1, EmOptions::default());
        let mut shard = Shard::new(0, 1);
        shard
            .ingest(tag(0, 0), &delta_of(&[115, 215, 115]))
            .unwrap();
        tier.absorb(vec![shard.harvest(false)]).unwrap();
        let served = tier
            .serve(&EstimateRequest::latest("d"), &cfg, &bc, &ec, 0)
            .unwrap();

        let ck = tier.checkpoint(7, &[], vec![tag(0, 0)]);
        assert_eq!(ck.generations, 1);
        assert!(ck.cached, "serve cache was current at the snapshot");
        let last = ck.last.as_ref().map(|e| e.to_em(&cfg).unwrap());
        let mut back = ReduceTier::restore(EmOptions::default(), ck, last);
        assert_eq!(back.generation(), 1);
        assert_eq!(back.batches(), 1);
        let replay = back
            .serve(&EstimateRequest::latest("d"), &cfg, &bc, &ec, 0)
            .unwrap();
        assert_eq!(replay.probs[0].to_bits(), served.probs[0].to_bits());
        assert_eq!(
            replay.iterations, served.iterations,
            "cache restored: no EM re-run"
        );
    }

    #[test]
    fn snapshot_after_new_generations_does_not_replay_the_stale_cache() {
        // serve @ gen 1, absorb a second batch (gen 2), snapshot, restore:
        // the restored tier must re-estimate over both batches on its first
        // serve — not replay the gen-1 response as if it covered gen 2.
        let cfg = ct_cfg::builder::diamond();
        let (bc, ec) = ([10u64, 100, 200, 5], [0u64; 4]);
        let mut tier = ReduceTier::new(1, EmOptions::default());
        let mut shard = Shard::new(0, 1);
        shard
            .ingest(tag(0, 0), &delta_of(&[115, 215, 115]))
            .unwrap();
        tier.absorb(vec![shard.harvest(false)]).unwrap();
        let stale = tier
            .serve(&EstimateRequest::latest("d"), &cfg, &bc, &ec, 0)
            .unwrap();
        shard
            .ingest(tag(0, 1), &delta_of(&[215, 215, 215, 215]))
            .unwrap();
        tier.absorb(vec![shard.harvest(false)]).unwrap();

        let ck = tier.checkpoint(7, &[], vec![tag(0, 0), tag(0, 1)]);
        assert_eq!(ck.generations, 2);
        assert!(
            !ck.cached,
            "warm start predates the snapshot generation; it must not be marked cached"
        );
        let last = ck.last.as_ref().map(|e| e.to_em(&cfg).unwrap());
        let mut back = ReduceTier::restore(EmOptions::default(), ck, last);
        let fresh = back
            .serve(&EstimateRequest::latest("d"), &cfg, &bc, &ec, 0)
            .unwrap();
        assert_eq!(fresh.generation, 2);
        assert_eq!(fresh.batches, 2);
        assert_ne!(
            fresh.probs[0].to_bits(),
            stale.probs[0].to_bits(),
            "restored serve replayed the pre-snapshot response"
        );
        // And it matches what the uninterrupted tier serves for gen 2.
        let live = tier
            .serve(&EstimateRequest::latest("d"), &cfg, &bc, &ec, 0)
            .unwrap();
        assert_eq!(fresh.probs[0].to_bits(), live.probs[0].to_bits());
    }
}
