//! The fleet driver: N simulated motes running the same configuration on
//! strided seeds, fanned out over scoped threads, their tick streams
//! reduced to mergeable sufficient statistics.
//!
//! This is the paper's deployment story at scale: every mote ships
//! end-to-end timestamps to a base station, which needs *one* profile of
//! the shared binary. Per-mote streams reduce to
//! [`ct_core::SuffStats`] (associative, commutative merge — any
//! reduction order, any thread count, bitwise the same result), and every
//! estimator, the robust ladder's trim and rungs included, runs directly
//! off the merged statistics, never a re-materialized sample vector: the
//! statistics are the only sample form below an estimator's front door,
//! so a one-mote fleet estimates bitwise like its session. Ground-truth
//! edge profiles merge additively for scoring.
//!
//! ## Fault tolerance
//!
//! Real collection is lossy and restartable, so the driver treats every
//! mote report as an **at-least-once delivery** of a tagged batch
//! ([`ct_core::BatchTag`]): reports can crash away mid-run
//! (caught at the fan-out boundary and retried, bounded by
//! [`Fleet::attempts`]), be lost in flight (retransmitted), arrive twice
//! under the same tag (deduplicated at every ingest point), or arrive past
//! the straggler timeout (the round proceeds without that mote). Fault
//! injection comes from a seeded [`MoteFaultPlan`]; recovery is graceful —
//! estimation runs on the partial fleet and the estimate's confidence is
//! discounted by coverage, so `place_with_confidence` refuses installation
//! after a badly-degraded round. The streaming path additionally
//! checkpoints its state ([`CheckpointPolicy`]) so a process crash at any
//! batch boundary resumes bitwise-identically.
//!
//! ## Service substrate
//!
//! The streaming path is a thin client of the sharded estimation service:
//! it drives a [`ServiceCore`] pinned to one shard reduced after every
//! batch ([`ServiceConfig::pinned`]), under which the service's
//! ingest → reduce → estimate cycle is bitwise the pre-service
//! per-batch loop. Larger deployments run the identical logic threaded
//! (`ct_service::EstimationService`) with K shards and bounded queues.

use crate::checkpoint::{self, CheckpointError, CheckpointPolicy};
use crate::config::{EstimatorChoice, RunConfig};
use crate::error::PipelineError;
use crate::session::Session;
use crate::stage::{estimate_scored, AppRun, Estimated};
use ct_cfg::graph::{BlockId, Cfg};
use ct_cfg::profile::{BranchProbs, EdgeProfile};
use ct_core::accuracy::compare;
use ct_core::em::EmOptions;
use ct_core::estimator::{Estimate as CoreEstimate, EstimateError, Method};
use ct_core::stream::{BatchTag, SuffStats};
use ct_faults::{MoteFaultOutcome, MoteFaultPlan};
use ct_ir::instr::ProcId;
use ct_ir::program::Program;
use ct_service::{ServiceConfig, ServiceCore};

/// Marker payload of a fault-injected worker panic (the
/// [`MoteFaultKind::CrashMidRun`](ct_faults::MoteFaultKind::CrashMidRun)
/// model). The fan-out boundary catches exactly this payload and retries;
/// any other panic is a genuine bug and resumes unwinding.
#[derive(Debug, Clone, Copy)]
pub struct InjectedCrash;

/// Installs a process-wide panic hook that silences [`InjectedCrash`]
/// panics (they are expected, caught, and retried) while forwarding every
/// other panic to the previously installed hook. Idempotent; call once
/// from chaos experiments and tests that inject crashes.
pub fn quiet_injected_crashes() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<InjectedCrash>() {
                return;
            }
            prev(info);
        }));
    });
}

/// One mote's reduced contribution to the fleet profile: everything the
/// base station keeps after ingesting the mote's record stream.
#[derive(Debug)]
struct MoteContribution {
    stats: SuffStats,
    truth_profile: EdgeProfile,
    invocations: u64,
    cycles_used: u64,
    pmu: ct_mote::pmu::PmuSnapshot,
}

/// What one mote's collection round produced, before the coordinator's
/// order-insensitive fold.
struct MoteReport {
    /// The delivered report, if one arrived, under its batch tag.
    delivery: Option<(BatchTag, MoteContribution)>,
    /// True when the report arrived twice under the same tag.
    duplicated: bool,
    /// Attempts that crashed or whose delivery was lost.
    retries: u64,
    /// The response delay that excluded the mote, if it straggled.
    straggler: Option<u64>,
    /// True when the retry budget ran out with nothing delivered.
    failed: bool,
}

/// The merged artifact of a fleet run: static program facts plus the
/// order-insensitively merged measurement and ground-truth state.
#[derive(Debug)]
pub struct FleetRun {
    /// The shared compiled program.
    pub program: Program,
    /// The profiled procedure.
    pub pid: ProcId,
    /// Static block costs of the target (natural layout).
    pub block_costs: Vec<u64>,
    /// Static edge costs of the target (natural layout).
    pub edge_costs: Vec<u64>,
    /// Statically counted loops of the target.
    pub counted_loops: Vec<(BlockId, u64)>,
    /// Merged sufficient statistics of every distinct delivered batch.
    pub stats: SuffStats,
    /// The raw at-least-once delivery stream, in mote order, duplicates
    /// included: what actually crossed the transport. Folding it through a
    /// tag-deduplicating ingest reproduces [`FleetRun::stats`] — the
    /// idempotence the streaming path relies on.
    pub deliveries: Vec<(BatchTag, SuffStats)>,
    /// Merged ground-truth edge profile (scoring only).
    pub truth_profile: EdgeProfile,
    /// Ground-truth branch probabilities of the merged profile.
    pub truth: BranchProbs,
    /// Total target invocations across the delivered fleet.
    pub invocations: u64,
    /// Total cycles consumed across the delivered fleet.
    pub cycles_used: u64,
    /// Merged virtual-PMU counters across the delivered fleet (per
    /// procedure and total) — same commutative merge discipline as
    /// [`SuffStats`].
    pub pmu: ct_mote::pmu::PmuSnapshot,
    /// Fleet size (motes asked to report).
    pub motes: usize,
    /// Motes whose report arrived (distinct contributors).
    pub delivered: usize,
    /// Motes excluded by the straggler timeout.
    pub stragglers: usize,
    /// Motes whose retry budget ran out with nothing delivered.
    pub failed: usize,
    /// Total crashed or lost attempts that were retried.
    pub retries: u64,
    /// Duplicate deliveries in [`FleetRun::deliveries`] (folded once).
    pub dedup_dropped: u64,
}

impl FleetRun {
    /// The target procedure's CFG.
    pub fn cfg(&self) -> &Cfg {
        &self.program.procs[self.pid.index()].cfg
    }

    /// Fraction of the fleet whose report arrived, in `[0, 1]` — the
    /// coverage that discounts estimate confidence on degraded rounds.
    pub fn coverage(&self) -> f64 {
        if self.motes == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.motes as f64
    }
}

/// N motes running one configuration on deterministically strided seeds.
#[derive(Debug, Clone)]
pub struct Fleet {
    config: RunConfig,
    motes: usize,
    mote_faults: Option<MoteFaultPlan>,
    max_attempts: u32,
    straggler_timeout: u64,
}

/// Default per-mote delivery attempts before a mote is declared failed.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Default straggler timeout, in the virtual milliseconds of
/// [`MoteFaultOutcome::straggler_delay`]: delays above it exclude the mote
/// from the collection round.
pub const DEFAULT_STRAGGLER_TIMEOUT: u64 = 250;

impl Fleet {
    /// A fleet of `motes` motes under `config`. Mote 0 uses the config's
    /// seed verbatim, so `Fleet::new(config, 1)` reproduces the single-mote
    /// [`Session`] path exactly. No mote-level faults are injected unless
    /// [`Fleet::with_mote_faults`] adds a plan.
    pub fn new(config: RunConfig, motes: usize) -> Fleet {
        Fleet {
            config,
            motes,
            mote_faults: None,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            straggler_timeout: DEFAULT_STRAGGLER_TIMEOUT,
        }
    }

    /// Injects mote-level faults from a seeded plan (builder style).
    pub fn with_mote_faults(mut self, plan: MoteFaultPlan) -> Fleet {
        self.mote_faults = Some(plan);
        self
    }

    /// Sets the per-mote delivery attempt budget (builder style; clamped to
    /// at least one attempt).
    pub fn attempts(mut self, max_attempts: u32) -> Fleet {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Sets the straggler timeout in virtual milliseconds (builder style).
    pub fn straggler_timeout(mut self, timeout: u64) -> Fleet {
        self.straggler_timeout = timeout;
        self
    }

    /// The fleet's base configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The per-mote configuration: strided workload seed, and a strided
    /// fault-plan seed when a fault plan is configured (each mote's record
    /// channel fails independently — but mote 0 keeps the plan verbatim).
    pub fn mote_config(&self, index: usize) -> RunConfig {
        let offset = self.config.mote_seed(index).wrapping_sub(self.config.seed);
        let mut c = self.config.clone().seeded(self.config.mote_seed(index));
        if let Some(plan) = &mut c.fault {
            plan.seed = plan.seed.wrapping_add(offset);
        }
        c
    }

    /// Fingerprint of everything that determines a run's delivered stream:
    /// a checkpoint taken under one configuration must never restore into
    /// another. (This is also why snapshots carry no RNG cursors — every
    /// random draw is a pure function of the fingerprinted seeds.)
    fn fingerprint(&self) -> u64 {
        let c = &self.config;
        let desc = format!(
            "{}|{}|{}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{}|{}",
            c.target.name(),
            c.mcu.name(),
            c.invocations,
            c.cycles_per_tick,
            c.ts_overhead,
            c.seed,
            self.motes,
            c.contamination,
            c.fault,
            self.mote_faults,
            self.max_attempts,
            self.straggler_timeout,
        );
        crate::checkpoint::fnv1a64(desc.as_bytes())
    }

    /// One mote's collection round: bounded retry over fault-injected
    /// attempts. Re-running an attempt replays the identical workload (the
    /// mote's seed does not change across attempts), so a recovered mote
    /// contributes exactly what an unfaulted one would have — faults decide
    /// *whether* a report arrives, never what it says.
    fn collect_mote(&self, index: usize) -> Result<MoteReport, PipelineError> {
        let mut retries = 0u64;
        for attempt in 0..self.max_attempts.max(1) {
            let outcome = match &self.mote_faults {
                Some(plan) => plan.outcome(index as u64, attempt),
                None => MoteFaultOutcome::clean(),
            };
            if outcome.straggler_delay > self.straggler_timeout {
                ct_obs::Counter::new("fleet.straggler").incr();
                ct_obs::emit(
                    "fleet.straggler",
                    vec![
                        ("mote", index.into()),
                        ("delay", outcome.straggler_delay.into()),
                        ("timeout", self.straggler_timeout.into()),
                    ],
                );
                return Ok(MoteReport {
                    delivery: None,
                    duplicated: false,
                    retries,
                    straggler: Some(outcome.straggler_delay),
                    failed: false,
                });
            }

            let mote_config = self.mote_config(index);
            let seed = mote_config.seed;
            let crash_mid_run = outcome.crash_mid_run;
            // `RunConfig` is plain owned data (values, fn pointers), so the
            // moved closure is `UnwindSafe` without assertions; a caught
            // unwind drops everything the attempt built and the retry
            // starts from the config alone.
            let attempt_run = std::panic::catch_unwind(move || -> Result<AppRun, PipelineError> {
                let run = Session::new(mote_config).collect()?;
                if crash_mid_run {
                    // Crash *after* the run recorded its observability
                    // events: the unwind path must drain thread-local
                    // buffers exactly like a clean exit.
                    std::panic::panic_any(InjectedCrash);
                }
                Ok(run)
            });
            let run = match attempt_run {
                Ok(Ok(run)) => run,
                // Genuine pipeline failures (workload traps) are
                // deterministic: retrying cannot help, so propagate.
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    if payload.is::<InjectedCrash>() {
                        ct_obs::Counter::new("fleet.retry").incr();
                        // The quiet panic hook swallows injected crashes
                        // before the flight recorder's hook can fire, so
                        // the incident dump is cut here, at the catch site.
                        ct_obs::flight::incident("mote_crash");
                        retries += 1;
                        continue;
                    }
                    std::panic::resume_unwind(payload);
                }
            };
            if outcome.crash_before_report || outcome.lost_delivery {
                ct_obs::Counter::new("fleet.retry").incr();
                retries += 1;
                continue;
            }

            // Delivered. Only order-insensitive facts in the event fields:
            // snapshots sort events by content, so the stream is identical
            // at any CT_THREADS.
            ct_obs::emit(
                "fleet.mote",
                vec![
                    ("mote", index.into()),
                    ("seed", seed.into()),
                    ("samples", run.samples.len().into()),
                    ("invocations", run.invocations.into()),
                    ("cycles_used", run.cycles_used.into()),
                ],
            );
            ct_obs::Counter::new("fleet.motes").incr();
            let contribution = MoteContribution {
                stats: SuffStats::from_samples(&run.samples),
                truth_profile: run.truth_profile,
                invocations: run.invocations,
                cycles_used: run.cycles_used,
                pmu: run.pmu,
            };
            let tag = BatchTag {
                mote: index as u64,
                seq: 0,
            };
            return Ok(MoteReport {
                delivery: Some((tag, contribution)),
                // A lost acknowledgement: the same report, same tag, twice.
                duplicated: outcome.duplicate_delivery,
                retries,
                straggler: None,
                failed: false,
            });
        }
        ct_obs::Counter::new("fleet.failed").incr();
        ct_obs::emit(
            "fleet.mote_failed",
            vec![
                ("mote", index.into()),
                ("attempts", self.max_attempts.into()),
            ],
        );
        Ok(MoteReport {
            delivery: None,
            duplicated: false,
            retries,
            straggler: None,
            failed: true,
        })
    }

    /// Runs every mote (fanned out over scoped threads, `CT_THREADS` to
    /// override the worker count) and merges their contributions. The
    /// merge is a left fold in mote order, but [`SuffStats::merge`] is
    /// associative and commutative, so any other reduction shape would
    /// produce the identical result. A duplicated delivery joins the raw
    /// [`FleetRun::deliveries`] stream twice but is folded once
    /// (`fleet.dedup`), crashed attempts retry (`fleet.retry`), and
    /// stragglers and exhausted motes are excluded — a partial fleet is a
    /// result, not an error.
    ///
    /// # Errors
    ///
    /// [`PipelineError::EmptyFleet`] for a zero-mote fleet;
    /// [`PipelineError::Trap`] if any mote's workload traps.
    pub fn run(&self) -> Result<FleetRun, PipelineError> {
        if self.motes == 0 {
            return Err(PipelineError::EmptyFleet);
        }
        let _span = ct_obs::Span::enter("fleet.run");
        // Static program facts once, from a deploy that never runs.
        let statics = Session::new(self.config.clone().invocations(0)).collect()?;

        let reports: Vec<Result<MoteReport, PipelineError>> =
            ct_stats::parallel::par_map((0..self.motes).collect(), |i| self.collect_mote(i));

        let mut stats = SuffStats::new(self.config.cycles_per_tick);
        let mut deliveries = Vec::with_capacity(self.motes);
        let mut truth_profile = EdgeProfile::zeroed(statics.cfg());
        let mut invocations = 0u64;
        let mut cycles_used = 0u64;
        // The zero-invocation statics run gives the right per-procedure
        // shape with every counter at zero — the merge identity.
        let mut pmu = statics.pmu.clone();
        let (mut delivered, mut stragglers, mut failed) = (0usize, 0usize, 0usize);
        let (mut retries, mut dedup_dropped) = (0u64, 0u64);
        for report in reports {
            let r = report?;
            retries += r.retries;
            stragglers += r.straggler.is_some() as usize;
            failed += r.failed as usize;
            let Some((tag, c)) = r.delivery else {
                continue;
            };
            // Tags are `(mote, 0)`, unique per report, so the only duplicate
            // a fleet run can see is the one its own report flagged.
            deliveries.push((tag, c.stats.clone()));
            if r.duplicated {
                deliveries.push((tag, c.stats.clone()));
                ct_obs::Counter::new("fleet.dedup").incr();
                dedup_dropped += 1;
            }
            stats.merge(&c.stats)?;
            truth_profile.merge(&c.truth_profile);
            invocations += c.invocations;
            cycles_used += c.cycles_used;
            pmu.merge(&c.pmu);
            delivered += 1;
        }
        let truth = truth_profile.branch_probs(statics.cfg());
        Ok(FleetRun {
            truth,
            stats,
            deliveries,
            truth_profile,
            invocations,
            cycles_used,
            pmu,
            motes: self.motes,
            delivered,
            stragglers,
            failed,
            retries,
            dedup_dropped,
            program: statics.program,
            pid: statics.pid,
            block_costs: statics.block_costs,
            edge_costs: statics.edge_costs,
            counted_loops: statics.counted_loops,
        })
    }

    /// Estimates the fleet's branch profile **from the merged statistics**:
    /// every estimator, the robust ladder's trim and rungs included, reads
    /// the histogram and exact moments directly, through the same function
    /// as [`Session::estimate`] — a one-mote fleet estimates bitwise like
    /// its mote's session.
    ///
    /// The estimate's confidence is discounted by [`FleetRun::coverage`]: a
    /// round that lost motes to stragglers or exhausted retries reports
    /// proportionally less confidence, and `place_with_confidence` refuses
    /// installation when the discount crosses its threshold.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Estimate`] when the naive estimator fails hard.
    pub fn estimate(&self, fleet_run: &FleetRun) -> Result<Estimated, PipelineError> {
        let cfg = fleet_run.cfg();
        let mut estimated = estimate_scored(
            &self.config.estimator,
            self.config.unroll_counted,
            cfg,
            &fleet_run.counted_loops,
            &fleet_run.block_costs,
            &fleet_run.edge_costs,
            &fleet_run.stats,
            |probs| {
                compare(
                    cfg,
                    probs,
                    &fleet_run.truth,
                    &fleet_run.truth_profile,
                    fleet_run.invocations,
                )
            },
        )?;
        estimated.confidence *= fleet_run.coverage();
        Ok(estimated)
    }

    /// EM controls for the streaming path, from the configured estimator.
    fn em_options(&self) -> EmOptions {
        match &self.config.estimator {
            EstimatorChoice::Naive(o) => o.em,
            EstimatorChoice::Robust(o) => o.base.em,
        }
    }

    /// Streaming fleet estimation: feeds each delivered batch (mote order)
    /// into an [`ct_core::IncrementalEm`] and re-estimates after every batch,
    /// warm-starting from the previous optimum — the fleet-service path,
    /// where re-estimation per arriving batch must cost a few warm sweeps,
    /// not a cold restart fan-out. The final estimate is a full EM fixed
    /// point for the merged statistics (the warm start moves the path, not
    /// the objective), and the whole batch trajectory is deterministic:
    /// same batches, same `CT_THREADS`-independent result.
    ///
    /// This consumes the raw [`FleetRun::deliveries`] stream — duplicates
    /// and all — deduplicating by [`BatchTag`] against a ledger, which is
    /// also what makes checkpoint/restore exact: under `policy`, state is
    /// snapshotted every [`CheckpointPolicy::every`] batches and a
    /// restarted run restores the ledger, skips everything already folded
    /// in, and continues bitwise-identically to the uninterrupted run. A
    /// missing snapshot starts clean; a corrupt, truncated, or
    /// mismatched-configuration snapshot is rejected with a `ckpt.rejected`
    /// counter and a `warn.ckpt_rejected` event and *also* starts clean.
    ///
    /// # Errors
    ///
    /// [`PipelineError::EmptyFleet`] when no batch was ever ingested;
    /// [`PipelineError::Estimate`] when EM fails hard.
    pub fn estimate_streaming_with(
        &self,
        fleet_run: &FleetRun,
        policy: &CheckpointPolicy,
    ) -> Result<FleetStreamReport, PipelineError> {
        let _span = ct_obs::Span::enter("fleet.stream");
        let cfg = fleet_run.cfg();
        let fingerprint = self.fingerprint();
        // The per-batch loop records one trail entry, one estimate, and
        // one generation per batch; a snapshot of any other shape was not
        // cut by this loop.
        let restart = policy
            .load_valid(fingerprint, self.config.cycles_per_tick, cfg)
            .filter(|(ck, last)| {
                let per_batch = ck.batch_iterations.len() as u64 == ck.batches
                    && ck.generations == ck.batches
                    && (ck.batches > 0) == last.is_some();
                if !per_batch {
                    checkpoint::reject(&CheckpointError::Malformed(
                        "snapshot sections disagree on batch count or resolution".into(),
                    ));
                }
                per_batch
            });
        // One shard, reduced after every batch: the pinned service shape
        // under which ingest → reduce → estimate is bitwise the monolithic
        // per-batch loop.
        let pinned = ServiceConfig::pinned();
        let (mut core, mut batch_iterations, restored) = match restart {
            Some((mut ck, last)) => {
                let trail = std::mem::take(&mut ck.batch_iterations);
                (
                    ServiceCore::restore(&pinned, self.em_options(), ck, last),
                    trail,
                    true,
                )
            }
            None => (
                ServiceCore::new(&pinned, self.config.cycles_per_tick, self.em_options()),
                Vec::with_capacity(fleet_run.deliveries.len()),
                false,
            ),
        };

        let mut ingested_this_run = 0u64;
        let mut halted = false;
        for (tag, delta) in &fleet_run.deliveries {
            let fresh = core
                .ingest(*tag, delta)
                .map_err(|e| PipelineError::from(EstimateError::Em(e)))?;
            if !fresh {
                // Redelivery (a transport duplicate, or a batch the
                // restored ledger already folded in): idempotence says drop.
                ct_obs::Counter::new("fleet.dedup").incr();
                continue;
            }
            core.reduce()
                .map_err(|e| PipelineError::from(EstimateError::Em(e)))?;
            let r = core
                .estimate(cfg, &fleet_run.block_costs, &fleet_run.edge_costs)
                .map_err(|e| PipelineError::from(EstimateError::Em(e)))?;
            batch_iterations.push(r.iterations);
            ingested_this_run += 1;
            if let Some(path) = policy.due(core.batches() - 1, core.batches()) {
                core.checkpoint(fingerprint, &batch_iterations)
                    .save_observed(path);
            }
            if policy.halt_after == Some(ingested_this_run) {
                halted = true;
                break;
            }
        }

        let r = core.last().cloned().ok_or(PipelineError::EmptyFleet)?;
        let estimate = CoreEstimate {
            // The whole stream's work, not just the last re-estimation's.
            iterations: batch_iterations.iter().sum(),
            ..CoreEstimate::from_em(r, Method::Em)
        };
        let accuracy = compare(
            cfg,
            &estimate.probs,
            &fleet_run.truth,
            &fleet_run.truth_profile,
            fleet_run.invocations,
        );
        ct_obs::emit(
            "fleet.stream",
            vec![
                ("batches", batch_iterations.len().into()),
                ("iterations", batch_iterations.iter().sum::<usize>().into()),
            ],
        );
        Ok(FleetStreamReport {
            batches: batch_iterations.len(),
            batch_iterations,
            restored,
            halted,
            estimated: Estimated {
                estimate,
                accuracy,
                confidence: fleet_run.coverage(),
                robust: None,
            },
        })
    }

    /// [`Fleet::estimate_streaming_with`] without checkpointing — the
    /// one-shot streaming estimate.
    ///
    /// # Errors
    ///
    /// Propagates [`Fleet::estimate_streaming_with`] errors.
    pub fn estimate_streaming(
        &self,
        fleet_run: &FleetRun,
    ) -> Result<FleetStreamReport, PipelineError> {
        self.estimate_streaming_with(fleet_run, &CheckpointPolicy::disabled())
    }
}

/// The outcome of streaming per-batch re-estimation over a fleet run.
#[derive(Debug)]
pub struct FleetStreamReport {
    /// The final scored estimate (after the last batch), its confidence
    /// discounted by fleet coverage.
    pub estimated: Estimated,
    /// Distinct batches ingested across restored and live state.
    pub batches: usize,
    /// EM iterations each per-batch re-estimation took — the amortization
    /// story: after the first batch these should be a handful, not a full
    /// cold run.
    pub batch_iterations: Vec<usize>,
    /// True when state was restored from a checkpoint.
    pub restored: bool,
    /// True when the run stopped at [`CheckpointPolicy::halt_after`]
    /// (simulated crash) instead of draining every delivery.
    pub halted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_faults::MoteFaultKind;

    #[test]
    fn zero_motes_is_an_error() {
        let fleet = Fleet::new(RunConfig::new("sense").invocations(10), 0);
        assert_eq!(fleet.run().unwrap_err(), PipelineError::EmptyFleet);
    }

    #[test]
    fn one_mote_fleet_equals_the_single_mote_path() {
        let config = RunConfig::new("sense").invocations(300).seeded(42);
        let single = Session::new(config.clone()).collect().unwrap();
        let fleet_run = Fleet::new(config, 1).run().unwrap();
        assert_eq!(fleet_run.stats, SuffStats::from_samples(&single.samples));
        assert_eq!(fleet_run.truth_profile, single.truth_profile);
        assert_eq!(fleet_run.invocations, single.invocations);
        assert_eq!(fleet_run.cycles_used, single.cycles_used);
        assert_eq!(fleet_run.pmu, single.pmu);
        assert_eq!(fleet_run.delivered, 1);
        assert_eq!(fleet_run.coverage(), 1.0);
        assert_eq!(fleet_run.retries, 0);
        assert_eq!(fleet_run.dedup_dropped, 0);
    }

    #[test]
    fn fleet_motes_observe_distinct_workloads() {
        let config = RunConfig::new("sense").invocations(200).seeded(7);
        let fr = Fleet::new(config.clone(), 3).run().unwrap();
        assert_eq!(fr.motes, 3);
        assert_eq!(fr.invocations, 600);
        assert_eq!(fr.stats.len(), 600);
        assert_eq!(
            fr.pmu.proc(fr.pid).calls,
            600,
            "merged PMU counts one activation per invocation"
        );
        // Three motes on strided seeds are not three copies of one mote.
        let single = Session::new(config).collect().unwrap();
        let mut tripled = SuffStats::from_samples(&single.samples);
        tripled
            .merge(&SuffStats::from_samples(&single.samples))
            .unwrap();
        tripled
            .merge(&SuffStats::from_samples(&single.samples))
            .unwrap();
        assert_ne!(fr.stats, tripled);
    }

    #[test]
    fn streaming_estimation_is_deterministic() {
        let config = RunConfig::new("sense").invocations(400).seeded(13);
        let fleet = Fleet::new(config, 4);
        let fr = fleet.run().unwrap();
        let a = fleet.estimate_streaming(&fr).unwrap();
        let b = fleet.estimate_streaming(&fr).unwrap();
        assert_eq!(a.batches, 4);
        assert_eq!(a.batch_iterations, b.batch_iterations);
        for (x, y) in a
            .estimated
            .estimate
            .probs
            .as_slice()
            .iter()
            .zip(b.estimated.estimate.probs.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(
            a.estimated.accuracy.mae < 0.05,
            "mae {}",
            a.estimated.accuracy.mae
        );
        assert!(!a.restored && !a.halted);
        // The raw delivery stream folds back to the merged statistics under
        // the service's tag dedup.
        let mut core = ServiceCore::new(
            &ServiceConfig::pinned(),
            fleet.config().cycles_per_tick,
            EmOptions::default(),
        );
        for (tag, s) in &fr.deliveries {
            core.ingest(*tag, s).unwrap();
        }
        core.reduce().unwrap();
        assert_eq!(core.stats(), &fr.stats);
    }

    #[test]
    fn fleet_estimate_runs_off_merged_stats() {
        let config = RunConfig::new("sense").invocations(700).seeded(9);
        let fleet = Fleet::new(config, 3);
        let fr = fleet.run().unwrap();
        let est = fleet.estimate(&fr).unwrap();
        assert!(
            est.accuracy.mae < 0.03,
            "mae {} from {} merged samples",
            est.accuracy.mae,
            fr.stats.len()
        );
        assert_eq!(est.confidence, 1.0, "full coverage leaves confidence at 1");
    }

    #[test]
    fn crashed_motes_retry_to_the_identical_contribution() {
        quiet_injected_crashes();
        let config = RunConfig::new("sense").invocations(150).seeded(21);
        let clean = Fleet::new(config.clone(), 4).run().unwrap();
        // Moderate crash rates: every mote eventually delivers within the
        // attempt budget (verified by `delivered` below), and a recovered
        // delivery is bitwise what the unfaulted fleet produced.
        let plan = MoteFaultPlan::new(77)
            .with(MoteFaultKind::CrashMidRun, 0.4)
            .with(MoteFaultKind::CrashBeforeReport, 0.2)
            .with(MoteFaultKind::LostDelivery, 0.2);
        let faulted = Fleet::new(config, 4)
            .with_mote_faults(plan)
            .attempts(10)
            .run()
            .unwrap();
        assert_eq!(faulted.delivered, 4, "a mote never recovered");
        assert!(faulted.retries > 0, "plan injected no faults at all");
        assert_eq!(faulted.stats, clean.stats);
        assert_eq!(faulted.truth_profile, clean.truth_profile);
        assert_eq!(faulted.pmu, clean.pmu);
    }

    #[test]
    fn duplicate_deliveries_never_change_results() {
        let config = RunConfig::new("sense").invocations(150).seeded(33);
        let clean = Fleet::new(config.clone(), 3).run().unwrap();
        let dup_fleet = Fleet::new(config, 3).with_mote_faults(MoteFaultPlan::single(
            MoteFaultKind::DuplicateDelivery,
            1.0,
            5,
        ));
        let dup = dup_fleet.run().unwrap();
        assert_eq!(dup.dedup_dropped, 3, "every mote should have duplicated");
        assert_eq!(dup.deliveries.len(), 6);
        assert_eq!(dup.stats, clean.stats);
        assert_eq!(dup.invocations, clean.invocations);
        assert_eq!(dup.pmu, clean.pmu);
        // The streaming path dedups the raw stream to the same estimate.
        let clean_report = Fleet::new(clean_config_of(&dup_fleet), 3)
            .estimate_streaming(&clean)
            .unwrap();
        let dup_report = dup_fleet.estimate_streaming(&dup).unwrap();
        assert_eq!(dup_report.batches, 3);
        for (x, y) in dup_report
            .estimated
            .estimate
            .probs
            .as_slice()
            .iter()
            .zip(clean_report.estimated.estimate.probs.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    fn clean_config_of(fleet: &Fleet) -> RunConfig {
        fleet.config().clone()
    }

    #[test]
    fn exhausted_retry_budget_degrades_coverage_and_confidence() {
        quiet_injected_crashes();
        let config = RunConfig::new("sense").invocations(120).seeded(4);
        // Crash every attempt: nothing ever delivers.
        let dead = Fleet::new(config.clone(), 3)
            .with_mote_faults(MoteFaultPlan::single(MoteFaultKind::CrashMidRun, 1.0, 9))
            .attempts(2);
        let fr = dead.run().unwrap();
        assert_eq!(fr.delivered, 0);
        assert_eq!(fr.failed, 3);
        assert_eq!(fr.retries, 6, "two attempts per mote, all crashed");
        assert_eq!(fr.coverage(), 0.0);
        assert_eq!(fr.stats.len(), 0);
        assert!(
            dead.estimate_streaming(&fr).is_err(),
            "no batches, no estimate"
        );
    }
}
