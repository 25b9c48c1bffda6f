//! Incremental EM over streaming sufficient statistics.
//!
//! The fleet path delivers samples as [`SuffStats`] deltas — one per radio
//! batch per mote — not as a monolithic vector. Re-running cold EM after
//! every batch would pay the full restart fan-out each time; this module
//! keeps an [`IncrementalEm`] accumulator per estimation target that:
//!
//! - folds each delta into the running [`SuffStats`] (exact, order-insensitive
//!   merge — see [`crate::stream`]);
//! - **warm-starts** each re-estimation from the previous optimum, so EM
//!   converges in a handful of sweeps per batch instead of a full run; and
//! - keeps one [`FbPlan`] and one [`FbScratch`] across batches, so a
//!   re-estimation neither rebuilds the CFG's adjacency nor reallocates the
//!   E-step's trellis.
//!
//! ## Convergence contract
//!
//! Each [`IncrementalEm::reestimate`] call runs full EM (same `EmOptions`,
//! same tolerance) on the statistics of **all** samples ingested so far — the
//! warm start changes the starting point, never the objective, so every
//! per-batch estimate is a genuine EM fixed point (up to `tol`) for its
//! cumulative sample set. The sequence of estimates is deterministic given
//! the batch sequence, independent of `CT_THREADS`, and identical to a
//! fresh [`crate::em::estimate_em_from`] run from the same warm start: the
//! kept plan and scratch carry no state into the next E-step.

use crate::em::{estimate_em_planned, EmOptions, EmResult};
use crate::fb::{FbError, FbPlan, FbScratch};
use crate::stream::SuffStats;
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;

/// Streaming EM state for one estimation target (one procedure's CFG).
///
/// Feed batches with [`IncrementalEm::ingest`]; re-estimate at any cadence
/// with [`IncrementalEm::reestimate`].
#[derive(Debug, Clone)]
pub struct IncrementalEm {
    stats: SuffStats,
    last: Option<EmResult>,
    /// Built by the first re-estimation; rebuilt if the CFG changes.
    plan: Option<FbPlan>,
    scratch: FbScratch,
    opts: EmOptions,
    batches: u64,
}

impl IncrementalEm {
    /// Empty state at `cycles_per_tick` timer resolution.
    pub fn new(cycles_per_tick: u64, opts: EmOptions) -> IncrementalEm {
        IncrementalEm {
            stats: SuffStats::new(cycles_per_tick),
            last: None,
            plan: None,
            scratch: FbScratch::new(),
            opts,
            batches: 0,
        }
    }

    /// Rebuilds streaming state from a checkpoint: the cumulative
    /// statistics, the estimate the interrupted run last produced (the next
    /// warm start), and the ingested-batch count.
    ///
    /// A restored accumulator's subsequent re-estimations are bitwise
    /// identical to the uninterrupted run's: same statistics, same warm
    /// start, same objective.
    pub fn restore(
        stats: SuffStats,
        last: Option<EmResult>,
        batches: u64,
        opts: EmOptions,
    ) -> IncrementalEm {
        IncrementalEm {
            stats,
            last,
            plan: None,
            scratch: FbScratch::new(),
            opts,
            batches,
        }
    }

    /// Folds one batch's statistics into the cumulative stream.
    ///
    /// # Errors
    ///
    /// [`FbError::Shape`] when the delta's timer resolution differs from the
    /// accumulator's (incommensurable ticks).
    pub fn ingest(&mut self, delta: &SuffStats) -> Result<(), FbError> {
        self.ingest_counted(delta, 1)
    }

    /// Folds a pre-reduced delta covering `batches` original batches into
    /// the cumulative stream — the reduce-tier entry point. A generation's
    /// tree-reduced shard deltas arrive as one [`SuffStats`], but the batch
    /// count must advance by the number of distinct batches that generation
    /// absorbed, so checkpoint cadence and the `em.incremental` audit trail
    /// stay denominated in batches (deterministic) rather than reduce
    /// rounds (a scheduling artifact). `ingest(delta)` is exactly
    /// `ingest_counted(delta, 1)`.
    ///
    /// # Errors
    ///
    /// [`FbError::Shape`] when the delta's timer resolution differs from the
    /// accumulator's (incommensurable ticks).
    pub fn ingest_counted(&mut self, delta: &SuffStats, batches: u64) -> Result<(), FbError> {
        self.stats
            .merge(delta)
            .map_err(|e| FbError::Shape(e.to_string()))?;
        self.batches += batches;
        Ok(())
    }

    /// Re-estimates over everything ingested so far, warm-starting from the
    /// previous optimum (uniform ½ on the first call).
    ///
    /// Emits one `em.incremental` event per call and bumps the
    /// `em.incremental.batches` counter.
    ///
    /// # Errors
    ///
    /// Propagates [`FbError`] from the dynamic programs.
    pub fn reestimate(
        &mut self,
        cfg: &Cfg,
        block_costs: &[u64],
        edge_costs: &[u64],
    ) -> Result<&EmResult, FbError> {
        let warm = self.last.is_some();
        let init = match &self.last {
            Some(r) => r.probs.clone(),
            None => BranchProbs::uniform(cfg, 0.5),
        };
        if !self.plan.as_ref().is_some_and(|p| p.fits(cfg)) {
            self.plan = None;
        }
        let plan = self.plan.get_or_insert_with(|| FbPlan::new(cfg));
        let r = estimate_em_planned(
            plan,
            &mut self.scratch,
            block_costs,
            edge_costs,
            &self.stats.counted(),
            self.stats.cycles_per_tick(),
            init,
            self.opts,
        )?;
        ct_obs::Counter::new("em.incremental.batches").incr();
        ct_obs::emit(
            "em.incremental",
            vec![
                ("batches", self.batches.into()),
                ("samples", self.stats.len().into()),
                ("iterations", r.iterations.into()),
                ("converged", r.converged.into()),
                ("loglik", r.loglik.into()),
                ("warm", warm.into()),
            ],
        );
        Ok(self.last.insert(r))
    }

    /// The cumulative statistics of every ingested batch.
    pub fn stats(&self) -> &SuffStats {
        &self.stats
    }

    /// The most recent estimate, if [`IncrementalEm::reestimate`] has run.
    pub fn last(&self) -> Option<&EmResult> {
        self.last.as_ref()
    }

    /// Number of batches ingested.
    pub fn batches(&self) -> u64 {
        self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::estimate_em;
    use crate::samples::TimingSamples;
    use ct_cfg::builder::diamond;

    fn mixture_ticks(n_fast: usize, n_slow: usize) -> Vec<u64> {
        let mut t = vec![115u64; n_fast];
        t.extend(vec![215u64; n_slow]);
        t
    }

    fn batch_of(ticks: &[u64]) -> SuffStats {
        let mut s = SuffStats::new(1);
        for &t in ticks {
            s.push(t);
        }
        s
    }

    /// Ingests and re-estimates every batch in turn; the last estimate.
    fn fold_batches(cfg: &Cfg, bc: &[u64], ec: &[u64], batches: &[SuffStats]) -> Option<EmResult> {
        let mut inc = IncrementalEm::new(1, EmOptions::default());
        for b in batches {
            inc.ingest(b).unwrap();
            inc.reestimate(cfg, bc, ec).unwrap();
        }
        inc.last().cloned()
    }

    #[test]
    fn incremental_matches_monolithic_estimate() {
        let cfg = diamond();
        let bc = [10u64, 100, 200, 5];
        let ec = [0u64; 4];
        let ticks = mixture_ticks(700, 300);
        let batches: Vec<SuffStats> = ticks.chunks(100).map(batch_of).collect();
        let inc = fold_batches(&cfg, &bc, &ec, &batches).unwrap();
        let mono = estimate_em(
            &cfg,
            &bc,
            &ec,
            &TimingSamples::new(ticks, 1),
            EmOptions::default(),
        )
        .unwrap();
        // Warm starts move the path EM takes, not the optimum it finds.
        assert!(
            (inc.probs.as_slice()[0] - mono.probs.as_slice()[0]).abs() < 1e-3,
            "incremental {} vs monolithic {}",
            inc.probs.as_slice()[0],
            mono.probs.as_slice()[0]
        );
    }

    #[test]
    fn incremental_runs_are_bitwise_reproducible() {
        let cfg = diamond();
        let bc = [10u64, 100, 200, 5];
        let ec = [0u64; 4];
        let ticks = mixture_ticks(90, 60);
        let batches: Vec<SuffStats> = ticks.chunks(30).map(batch_of).collect();
        let a = fold_batches(&cfg, &bc, &ec, &batches).unwrap();
        let b = fold_batches(&cfg, &bc, &ec, &batches).unwrap();
        assert_eq!(
            a.probs.as_slice()[0].to_bits(),
            b.probs.as_slice()[0].to_bits()
        );
        assert_eq!(a.loglik.to_bits(), b.loglik.to_bits());
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn warm_reestimation_converges_faster() {
        let cfg = diamond();
        let bc = [10u64, 100, 200, 5];
        let ec = [0u64; 4];
        let mut inc = IncrementalEm::new(1, EmOptions::default());
        inc.ingest(&batch_of(&mixture_ticks(400, 150))).unwrap();
        let cold_iters = inc.reestimate(&cfg, &bc, &ec).unwrap().iterations;
        // A small delta barely moves the optimum: the warm start lands near
        // the fixed point.
        inc.ingest(&batch_of(&mixture_ticks(8, 3))).unwrap();
        let warm_iters = inc.reestimate(&cfg, &bc, &ec).unwrap().iterations;
        assert!(
            warm_iters <= cold_iters,
            "warm {warm_iters} vs cold {cold_iters}"
        );
        assert_eq!(inc.batches(), 2);
    }

    #[test]
    fn restored_state_reestimates_bitwise_like_the_uninterrupted_run() {
        let cfg = diamond();
        let bc = [10u64, 100, 200, 5];
        let ec = [0u64; 4];
        let batches: Vec<SuffStats> = [
            mixture_ticks(80, 40),
            mixture_ticks(50, 70),
            mixture_ticks(90, 20),
        ]
        .iter()
        .map(|t| batch_of(t))
        .collect();

        // Uninterrupted: ingest+reestimate all three batches.
        let mut full = IncrementalEm::new(1, EmOptions::default());
        for b in &batches {
            full.ingest(b).unwrap();
            full.reestimate(&cfg, &bc, &ec).unwrap();
        }

        // Interrupted after batch 2, state carried over, batch 3 resumed.
        let mut head = IncrementalEm::new(1, EmOptions::default());
        for b in &batches[..2] {
            head.ingest(b).unwrap();
            head.reestimate(&cfg, &bc, &ec).unwrap();
        }
        let mut resumed = IncrementalEm::restore(
            head.stats().clone(),
            head.last().cloned(),
            head.batches(),
            EmOptions::default(),
        );
        resumed.ingest(&batches[2]).unwrap();
        resumed.reestimate(&cfg, &bc, &ec).unwrap();

        assert_eq!(resumed.batches(), full.batches());
        assert_eq!(resumed.stats(), full.stats());
        let (a, b) = (resumed.last().unwrap(), full.last().unwrap());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.loglik.to_bits(), b.loglik.to_bits());
        for (x, y) in a.probs.as_slice().iter().zip(b.probs.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn counted_ingest_of_a_reduced_delta_matches_per_batch_ingest() {
        let cfg = diamond();
        let bc = [10u64, 100, 200, 5];
        let ec = [0u64; 4];
        let parts: Vec<SuffStats> = [
            mixture_ticks(80, 40),
            mixture_ticks(50, 70),
            mixture_ticks(90, 20),
        ]
        .iter()
        .map(|t| batch_of(t))
        .collect();

        let mut per_batch = IncrementalEm::new(1, EmOptions::default());
        for p in &parts {
            per_batch.ingest(p).unwrap();
        }
        let reduced = SuffStats::tree_reduce(1, parts).unwrap();
        let mut counted = IncrementalEm::new(1, EmOptions::default());
        counted.ingest_counted(&reduced, 3).unwrap();

        assert_eq!(counted.batches(), per_batch.batches());
        assert_eq!(counted.stats(), per_batch.stats());
        let a = counted.reestimate(&cfg, &bc, &ec).unwrap().clone();
        let b = per_batch.reestimate(&cfg, &bc, &ec).unwrap().clone();
        assert_eq!(a.loglik.to_bits(), b.loglik.to_bits());
        for (x, y) in a.probs.as_slice().iter().zip(b.probs.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn rejects_mismatched_resolution_and_empty_batch_list() {
        let cfg = diamond();
        let bc = [10u64, 100, 200, 5];
        let ec = [0u64; 4];
        let mut inc = IncrementalEm::new(1, EmOptions::default());
        assert!(matches!(
            inc.ingest(&SuffStats::new(8)),
            Err(FbError::Shape(_))
        ));
        assert!(fold_batches(&cfg, &bc, &ec, &[]).is_none());
    }
}
