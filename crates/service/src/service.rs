//! The threaded estimation service: N producers feed K shard workers
//! through bounded queues; a coordinator thread harvests and reduces; the
//! front door serves from the latest reduced generation.
//!
//! ## Topology
//!
//! Each shard worker owns one [`Shard`] (delta accumulator + dedup
//! ledger) and drains one `std::sync::mpsc::sync_channel` of capacity
//! [`ServiceConfig::queue_depth`]. Producers hold cloneable
//! [`IngestHandle`]s and route batches by `tag.mote % K`; a full queue is
//! **explicit backpressure** — [`IngestHandle::ingest`] blocks (counting
//! `svc.backpressure`), [`IngestHandle::try_ingest`] returns a typed
//! [`IngestError::QueueFull`]. Harvest requests ride the same queues, so
//! FIFO ordering makes a harvest a consistent cut: it observes every batch
//! enqueued before it, and the delta, its batch count and (for a
//! checkpoint) the ledger copy are taken in one step.
//!
//! ## Determinism
//!
//! Thread scheduling decides *when* batches reach shards and how many
//! reduce rounds happen — never what the accumulator converges to. After
//! producers quiesce, one [`EstimationService::drain`] leaves the global
//! statistics bitwise identical to the monolithic fold of the same
//! distinct batches, at any shard count, queue depth, producer count, or
//! polling cadence (see [`ReduceTier`]). Scheduling-dependent observability
//! (`svc.queue_depth`, `svc.backpressure`, `svc.reduce.*`, and the
//! `*_ns` latency / `queue_depth` histograms) is declared volatile to
//! `ct-obs diff`; the value-shaped `svc.batch_samples` histogram and the
//! accepted/dedup counters stay part of the determinism contract.
//!
//! ## Observability caveat
//!
//! Counters bumped on worker threads drain into the global registry when
//! the worker exits (shutdown); producer threads must call
//! [`ct_obs::drain_thread`] before exiting, like any other thread in this
//! workspace.

use crate::api::{EstimateRequest, EstimateResponse, IngestError, ServiceError};
use crate::checkpoint::{Checkpoint, CheckpointPolicy};
use crate::config::ServiceConfig;
use crate::engine::ServiceCore;
use crate::reduce::ReduceTier;
use crate::shard::{ledger_union, route, Shard, ShardHarvest};
use ct_cfg::graph::Cfg;
use ct_core::em::EmOptions;
use ct_core::stream::{BatchTag, SuffStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What flows down a shard worker's queue.
enum ShardMsg {
    /// One tagged batch delta to ingest.
    Batch(BatchTag, SuffStats),
    /// Harvest request: reply on `0` with the harvest, carrying a ledger
    /// copy when `1` is set (a checkpoint is being cut). A sticky ingest
    /// failure (resolution mismatch) since the last harvest replies as the
    /// error instead: rejected batches are dropped, counted under
    /// `svc.ingest.rejected`, and surfaced so the coordinator fails loudly
    /// instead of silently under-counting.
    Harvest(mpsc::Sender<Result<ShardHarvest, String>>, bool),
    /// Exit after processing everything already queued.
    Shutdown,
}

fn worker(mut shard: Shard, rx: Receiver<ShardMsg>, depth: Arc<AtomicU64>, stall_us: u64) {
    let mut sticky_err: Option<String> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(tag, delta) => {
                if stall_us > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(stall_us));
                }
                match shard.ingest(tag, &delta) {
                    // A fresh batch stays counted in `depth` until a harvest
                    // folds it into a generation: the counter is the
                    // accepted-but-unreduced staleness the front door
                    // reports, not merely the queue occupancy. Uncounting it
                    // here (at receipt) made batches invisible to staleness
                    // while they sat in shard accumulators awaiting a
                    // reduce.
                    Ok(true) => {}
                    // A deduplicated redelivery never reaches a generation;
                    // uncount it now.
                    Ok(false) => {
                        depth.fetch_sub(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        depth.fetch_sub(1, Ordering::Relaxed);
                        ct_obs::Counter::new("svc.ingest.rejected").incr();
                        sticky_err = Some(e.to_string());
                    }
                }
            }
            ShardMsg::Harvest(reply, copy_ledger) => {
                let harvest = shard.harvest(copy_ledger);
                // The harvest atomically hands the fresh batches to the
                // reduce tier; they stop being stale the moment they leave
                // the shard.
                depth.fetch_sub(harvest.fresh, Ordering::Relaxed);
                // The coordinator may already have given up; nothing to do.
                let _ = reply.send(sticky_err.take().map_or(Ok(harvest), Err));
            }
            ShardMsg::Shutdown => break,
        }
    }
    ct_obs::drain_thread();
}

/// A cloneable producer-side handle: routes tagged batches to their shard
/// queues with explicit backpressure.
#[derive(Clone)]
pub struct IngestHandle {
    senders: Vec<SyncSender<ShardMsg>>,
    depths: Vec<Arc<AtomicU64>>,
    queue_depth: usize,
    /// Precomputed `svc.shard.<i>.queue_depth` histogram names, so the
    /// per-enqueue depth observation never formats on the hot path.
    depth_hists: Arc<Vec<String>>,
}

impl IngestHandle {
    /// Ingests one batch, blocking when the shard queue is full. The full
    /// condition bumps `svc.backpressure` before blocking, so engaged
    /// backpressure is visible even though no batch is ever lost.
    ///
    /// # Errors
    ///
    /// [`IngestError::Closed`] when the shard worker is gone.
    pub fn ingest(&self, tag: BatchTag, delta: SuffStats) -> Result<(), IngestError> {
        let started = std::time::Instant::now();
        let s = route(tag, self.senders.len());
        // Count the batch *before* it can be received: the worker uncounts
        // duplicates and rejects on receipt, so incrementing afterwards
        // would race the depth below zero. Fresh batches stay counted until
        // a harvest absorbs them.
        self.note_enqueued(s);
        let msg = match self.senders[s].try_send(ShardMsg::Batch(tag, delta)) {
            Ok(()) => {
                self.note_enqueue_latency(started);
                return Ok(());
            }
            Err(TrySendError::Full(msg)) => {
                ct_obs::Counter::new("svc.backpressure").incr();
                msg
            }
            Err(TrySendError::Disconnected(_)) => {
                self.depths[s].fetch_sub(1, Ordering::Relaxed);
                return Err(IngestError::Closed { shard: s });
            }
        };
        self.senders[s].send(msg).map_err(|_| {
            self.depths[s].fetch_sub(1, Ordering::Relaxed);
            IngestError::Closed { shard: s }
        })?;
        self.note_enqueue_latency(started);
        Ok(())
    }

    /// Non-blocking ingest: a full shard queue returns the batch to the
    /// caller as a typed [`IngestError::QueueFull`] instead of blocking.
    ///
    /// # Errors
    ///
    /// [`IngestError::QueueFull`] under backpressure;
    /// [`IngestError::Closed`] when the shard worker is gone.
    pub fn try_ingest(&self, tag: BatchTag, delta: SuffStats) -> Result<(), IngestError> {
        let started = std::time::Instant::now();
        let s = route(tag, self.senders.len());
        self.note_enqueued(s);
        match self.senders[s].try_send(ShardMsg::Batch(tag, delta)) {
            Ok(()) => {
                self.note_enqueue_latency(started);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.depths[s].fetch_sub(1, Ordering::Relaxed);
                ct_obs::Counter::new("svc.backpressure").incr();
                Err(IngestError::QueueFull {
                    shard: s,
                    depth: self.queue_depth,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.depths[s].fetch_sub(1, Ordering::Relaxed);
                Err(IngestError::Closed { shard: s })
            }
        }
    }

    /// Approximate batches accepted but not yet folded into a reduce
    /// generation — queued plus sitting in shard accumulators (relaxed
    /// atomics: a telemetry number, not a synchronization primitive).
    pub fn queued(&self) -> u64 {
        self.depths.iter().map(|d| d.load(Ordering::Relaxed)).sum()
    }

    fn note_enqueued(&self, shard: usize) {
        let d = self.depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        // The gauge max-merges, so it reads as the high-watermark only — a
        // transient spike and sustained pressure look identical there. The
        // per-shard histogram carries the depth distribution over time.
        ct_obs::Gauge::new("svc.queue_depth").set(d as f64);
        ct_obs::hist_record(&self.depth_hists[shard], d);
    }

    fn note_enqueue_latency(&self, started: std::time::Instant) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ct_obs::hist_record("svc.ingest.enqueue_ns", ns);
    }
}

/// The long-running sharded estimation service: owns the shard workers,
/// the reduce tier, and the checkpoint policy.
pub struct EstimationService {
    senders: Vec<SyncSender<ShardMsg>>,
    depths: Vec<Arc<AtomicU64>>,
    depth_hists: Arc<Vec<String>>,
    workers: Vec<JoinHandle<()>>,
    tier: ReduceTier,
    config: ServiceConfig,
    policy: CheckpointPolicy,
    fingerprint: u64,
    /// Batch count at the last written snapshot (cadence bookkeeping).
    last_ckpt: u64,
    restored: bool,
}

impl EstimationService {
    /// Starts the shard workers with no checkpointing.
    pub fn start(
        config: &ServiceConfig,
        cycles_per_tick: u64,
        opts: EmOptions,
    ) -> EstimationService {
        EstimationService::launch(
            config,
            ServiceCore::new(config, cycles_per_tick, opts),
            CheckpointPolicy::disabled(),
            0,
            false,
        )
    }

    /// Starts the shard workers under a checkpoint policy, restoring from
    /// the policy's snapshot when [`CheckpointPolicy::load_valid`] accepts
    /// it. A missing snapshot starts clean; a bad one is rejected
    /// (`ckpt.rejected` + `warn.ckpt_rejected`) and *also* starts clean — a
    /// snapshot can degrade a restart, never a run. `cfg` revalidates the
    /// snapshot's warm-start estimate.
    pub fn start_with_checkpoints(
        config: &ServiceConfig,
        cycles_per_tick: u64,
        opts: EmOptions,
        cfg: &Cfg,
        policy: CheckpointPolicy,
        fingerprint: u64,
    ) -> EstimationService {
        let (core, restored) = match policy.load_valid(fingerprint, cycles_per_tick, cfg) {
            Some((ck, last)) => (ServiceCore::restore(config, opts, ck, last), true),
            None => (ServiceCore::new(config, cycles_per_tick, opts), false),
        };
        EstimationService::launch(config, core, policy, fingerprint, restored)
    }

    fn launch(
        config: &ServiceConfig,
        core: ServiceCore,
        policy: CheckpointPolicy,
        fingerprint: u64,
        restored: bool,
    ) -> EstimationService {
        let (shards, tier) = (core.shards, core.reduce);
        let mut senders = Vec::with_capacity(shards.len());
        let mut depths = Vec::with_capacity(shards.len());
        let mut workers = Vec::with_capacity(shards.len());
        let depth_hists = Arc::new(
            (0..shards.len())
                .map(|i| format!("svc.shard.{i}.queue_depth"))
                .collect::<Vec<String>>(),
        );
        for shard in shards {
            let (tx, rx) = mpsc::sync_channel(config.queue_depth.max(1));
            let depth = Arc::new(AtomicU64::new(0));
            let d = Arc::clone(&depth);
            let stall = config.ingest_stall_us;
            workers.push(std::thread::spawn(move || worker(shard, rx, d, stall)));
            senders.push(tx);
            depths.push(depth);
        }
        let last_ckpt = tier.batches();
        EstimationService {
            senders,
            depths,
            depth_hists,
            workers,
            tier,
            config: config.clone(),
            policy,
            fingerprint,
            last_ckpt,
            restored,
        }
    }

    /// A producer-side handle (clone freely across producer threads).
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            senders: self.senders.clone(),
            depths: self.depths.clone(),
            queue_depth: self.config.queue_depth,
            depth_hists: Arc::clone(&self.depth_hists),
        }
    }

    /// True when the service resumed from a checkpoint at startup.
    pub fn restored(&self) -> bool {
        self.restored
    }

    /// Harvests every shard and absorbs the round into the reduce tier —
    /// the periodic reduce a coordinator polls. Returns the number of
    /// fresh batches absorbed (0 for a quiet round). When the absorbed
    /// batch count crossed a multiple of [`CheckpointPolicy::every`]
    /// ([`CheckpointPolicy::due`]), a second round harvests the shards
    /// with their ledger copies and cuts a snapshot (see
    /// [`EstimationService::snapshot`]) — off the ingest hot path by
    /// construction.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Shard`] when a worker is gone;
    /// [`ServiceError::Estimation`] when a worker rejected a batch
    /// (resolution mismatch) or the reduction itself fails.
    pub fn reduce(&mut self) -> Result<u64, ServiceError> {
        let mut fresh = self.tier.absorb(self.harvest(false)?)?;
        let batches = self.tier.batches();
        if self.policy.due(self.last_ckpt, batches).is_some() {
            fresh += self.cut()?.0;
        }
        Ok(fresh)
    }

    /// One harvest round over every shard, in reply order.
    fn harvest(&self, copy_ledger: bool) -> Result<Vec<ShardHarvest>, ServiceError> {
        let (tx, rx) = mpsc::channel();
        for (i, s) in self.senders.iter().enumerate() {
            s.send(ShardMsg::Harvest(tx.clone(), copy_ledger))
                .map_err(|_| ServiceError::Shard(format!("shard {i} queue closed")))?;
        }
        drop(tx);
        (0..self.senders.len())
            .map(|_| match rx.recv() {
                Ok(Ok(harvest)) => Ok(harvest),
                Ok(Err(e)) => Err(ServiceError::Estimation(ct_core::fb::FbError::Shape(e))),
                Err(_) => Err(ServiceError::Shard("harvest reply channel closed".into())),
            })
            .collect()
    }

    /// Harvests every shard with its ledger copy, absorbs the round, and
    /// snapshots the result (persisted when the policy has a path).
    /// Returns the fresh batches absorbed and the snapshot. Each shard
    /// copies its ledger in the harvest that hands over its delta, so the
    /// snapshot's ledger covers exactly its batches while producers keep
    /// ingesting.
    fn cut(&mut self) -> Result<(u64, Checkpoint), ServiceError> {
        let mut harvests = self.harvest(true)?;
        let ledger = ledger_union(&mut harvests);
        let fresh = self.tier.absorb(harvests)?;
        let ck = self.tier.checkpoint(self.fingerprint, &[], ledger);
        if let Some(path) = self.policy.path.as_ref() {
            ck.save_observed(path);
            self.last_ckpt = ck.batches;
        }
        Ok((fresh, ck))
    }

    /// The `Drain` control verb: one final reduce after producers have
    /// quiesced. Because harvests ride the shard queues FIFO, a drain
    /// issued after every producer's last `ingest` returned observes every
    /// accepted batch — the global accumulator is then bitwise the
    /// monolithic fold of the distinct stream.
    ///
    /// # Errors
    ///
    /// Propagates [`EstimationService::reduce`] errors.
    pub fn drain(&mut self) -> Result<u64, ServiceError> {
        self.reduce()
    }

    /// The `Snapshot` control verb: cut a reduce boundary and return the
    /// checkpoint (also persisting it when the policy has a path).
    ///
    /// # Errors
    ///
    /// Propagates [`EstimationService::reduce`] errors.
    pub fn snapshot(&mut self) -> Result<Checkpoint, ServiceError> {
        Ok(self.cut()?.1)
    }

    /// The `Dump` control verb: writes the flight recorder's recent-event
    /// rings to `path` for post-mortem inspection (see
    /// [`ct_obs::flight`]). Works even when capture is disabled — the
    /// dump is then just its `flight.meta` header — so operators can
    /// always ask "what did the service see lately?" without first
    /// checking a knob.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the dump file.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        ct_obs::flight::dump_to(path, "dump-verb")
    }

    /// Serves a front-door request from the latest reduced generation.
    /// Staleness counts every accepted batch the estimate does not yet
    /// reflect — still queued *or* harvested-pending in a shard accumulator
    /// — matching the single-threaded core's `pending()` semantics. After a
    /// [`EstimationService::drain`] with quiesced producers it reads 0.
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
        let staleness = self.depths.iter().map(|d| d.load(Ordering::Relaxed)).sum();
        self.tier
            .serve(req, cfg, block_costs, edge_costs, staleness)
    }

    /// Distinct batches absorbed into the accumulator so far.
    pub fn batches(&self) -> u64 {
        self.tier.batches()
    }

    /// Completed reduce generations.
    pub fn generation(&self) -> u64 {
        self.tier.generation()
    }

    /// The cumulative statistics at the last reduce boundary.
    pub fn stats(&self) -> &SuffStats {
        self.tier.stats()
    }

    /// Stops every shard worker (they finish their queues first) and joins
    /// them, draining their thread-local observability buffers into the
    /// global registry.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Shard`] when a worker panicked.
    pub fn shutdown(self) -> Result<(), ServiceError> {
        for (i, s) in self.senders.iter().enumerate() {
            s.send(ShardMsg::Shutdown)
                .map_err(|_| ServiceError::Shard(format!("shard {i} queue closed early")))?;
        }
        for (i, w) in self.workers.into_iter().enumerate() {
            w.join()
                .map_err(|_| ServiceError::Shard(format!("shard {i} worker panicked")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceCore;

    fn delta_of(ticks: &[u64]) -> SuffStats {
        let mut s = SuffStats::new(1);
        ticks.iter().for_each(|&t| s.push(t));
        s
    }

    fn tag(mote: u64, seq: u64) -> BatchTag {
        BatchTag { mote, seq }
    }

    fn pool(n: u64) -> Vec<(BatchTag, SuffStats)> {
        (0..n)
            .map(|i| {
                let t = if i % 4 == 0 { 215 } else { 115 };
                (tag(i % 11, i / 11), delta_of(&[t, t + 1]))
            })
            .collect()
    }

    #[test]
    fn threaded_drain_matches_the_single_threaded_core_bitwise() {
        let deliveries = pool(60);
        let mut core = ServiceCore::new(&ServiceConfig::new().shards(3), 1, EmOptions::default());
        for (t, d) in &deliveries {
            core.ingest(*t, d).unwrap();
        }
        core.reduce().unwrap();

        for producers in [1usize, 4] {
            let mut svc = EstimationService::start(
                &ServiceConfig::new().shards(3).queue_depth(4),
                1,
                EmOptions::default(),
            );
            std::thread::scope(|scope| {
                for p in 0..producers {
                    let handle = svc.handle();
                    let slice: Vec<(BatchTag, SuffStats)> = deliveries
                        .iter()
                        .skip(p)
                        .step_by(producers)
                        .cloned()
                        .collect();
                    scope.spawn(move || {
                        for (t, d) in slice {
                            handle.ingest(t, d).unwrap();
                        }
                        ct_obs::drain_thread();
                    });
                }
            });
            svc.drain().unwrap();
            assert_eq!(svc.stats(), core.stats(), "producers={producers}");
            assert_eq!(svc.batches(), 60);
            svc.shutdown().unwrap();
        }
    }

    #[test]
    fn try_ingest_reports_backpressure_and_loses_nothing() {
        let mut svc = EstimationService::start(
            &ServiceConfig::new()
                .shards(1)
                .queue_depth(1)
                .ingest_stall_us(2_000),
            1,
            EmOptions::default(),
        );
        let handle = svc.handle();
        // Slam one stalled shard until the bounded queue refuses.
        let mut refused = 0u64;
        for i in 0..12u64 {
            let t = tag(0, i);
            match handle.try_ingest(t, delta_of(&[115])) {
                Ok(()) => {}
                Err(IngestError::QueueFull { shard, depth }) => {
                    assert_eq!((shard, depth), (0, 1));
                    refused += 1;
                    // Fall back to the blocking path: backpressure, not loss.
                    handle.ingest(t, delta_of(&[115])).unwrap();
                }
                Err(e) => panic!("unexpected ingest error: {e}"),
            }
        }
        assert!(refused > 0, "a depth-1 queue under stall never filled");
        svc.drain().unwrap();
        assert_eq!(svc.batches(), 12, "every batch arrived exactly once");
        svc.shutdown().unwrap();
    }

    #[test]
    fn staleness_counts_unreduced_batches_and_drain_zeroes_it() {
        let cfg = ct_cfg::builder::diamond();
        let (bc, ec) = ([10u64, 100, 200, 5], [0u64; 4]);
        let mut svc =
            EstimationService::start(&ServiceConfig::new().shards(2), 1, EmOptions::default());
        let handle = svc.handle();

        // One fresh batch plus a duplicate redelivery; the drain's FIFO
        // barrier guarantees both were processed before we look.
        handle.ingest(tag(0, 0), delta_of(&[115, 215])).unwrap();
        handle.ingest(tag(0, 0), delta_of(&[115, 215])).unwrap();
        assert_eq!(svc.drain().unwrap(), 1);
        let settled = svc
            .serve(&EstimateRequest::latest("d"), &cfg, &bc, &ec)
            .unwrap();
        assert_eq!(settled.staleness, 0, "drain left nothing unreduced");
        assert_eq!((settled.generation, settled.batches), (1, 1));

        // Two accepted-but-unreduced batches must read as staleness 2 the
        // moment `ingest` returns — they are counted at enqueue and stay
        // counted until a reduce harvests them, so the read is
        // deterministic even though the workers race ahead.
        handle.ingest(tag(1, 0), delta_of(&[215])).unwrap();
        handle.ingest(tag(2, 0), delta_of(&[115])).unwrap();
        let stale = svc
            .serve(&EstimateRequest::latest("d"), &cfg, &bc, &ec)
            .unwrap();
        assert_eq!(stale.staleness, 2, "accepted batches await reduction");
        assert_eq!((stale.generation, stale.batches), (1, 1));

        // Drain folds them in: depth back to 0 and the serve is current.
        assert_eq!(svc.drain().unwrap(), 2);
        assert_eq!(handle.queued(), 0);
        let fresh = svc
            .serve(&EstimateRequest::latest("d"), &cfg, &bc, &ec)
            .unwrap();
        assert_eq!(fresh.staleness, 0);
        assert_eq!((fresh.generation, fresh.batches), (2, 3));
        svc.shutdown().unwrap();
    }

    #[test]
    fn worker_surfaces_resolution_mismatch_as_typed_error() {
        let mut svc =
            EstimationService::start(&ServiceConfig::new().shards(2), 1, EmOptions::default());
        let handle = svc.handle();
        handle.ingest(tag(0, 0), delta_of(&[115])).unwrap();
        handle.ingest(tag(1, 0), SuffStats::new(8)).unwrap();
        let err = svc.drain().unwrap_err();
        assert!(matches!(err, ServiceError::Estimation(_)), "{err}");
        svc.shutdown().unwrap();
    }
}
