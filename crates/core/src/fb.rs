//! Forward–backward analysis of the per-procedure Markov chain over the
//! time-expanded state space.
//!
//! This is the inference engine behind the EM estimator. For the chain with
//! parameters `θ` and static block/edge cycle costs:
//!
//! - the **forward** table `f(b, t)` is the probability of arriving at block
//!   `b` (before executing it) having consumed exactly `t` cycles;
//! - the **backward** table `g(b, t)` is the probability that the total
//!   remaining duration (including executing `b`) is exactly `t`.
//!
//! The procedure's duration distribution is `g(entry, ·)`, and the posterior
//! expected traversal count of edge `(u → v)` given an observed duration
//! decomposes as `p_e · Σ_t f(u,t) · g(v, d − t − c_u − c_e) / D(d)` — the
//! Baum–Welch statistics, computed here against the quantization kernel so
//! coarse-timer observations are handled exactly.
//!
//! ## Engine layout
//!
//! Both tables are computed by one frontier-propagation routine over flat
//! sorted-vec PMFs (`ct_stats::pmf`) instead of `BTreeMap` frontiers:
//!
//! - the forward table by a propagation from the entry block over the
//!   out-edges;
//! - **all** backward tables by the same propagation over the in-edges,
//!   seeded at the Return blocks — `g(u)` receives `p_e · (c_u + c_e ⊕ g(v))`
//!   along each edge `u → v`, so every block's remaining-duration PMF
//!   materializes in a single pass (the first generation ran an independent
//!   DP per block; that engine survives as [`crate::fb_reference`]);
//! - the E-step computes **one** windowed convolution
//!   `h_e(d) = Σ_t f(u,t) · g(v, d − t − c_u − c_e)` per edge and scores all
//!   observed ticks against it, instead of rescanning the `f ⊗ g` product
//!   for every `(sample, edge)` pair; a convolution on its dense path is
//!   never compacted into a PMF — each tick reads its own few cells of the
//!   window straight back, skipping the empty ones as the compaction
//!   would, so the counts are bit-identical;
//! - when the observed ticks' windows cover few durations of a wide range
//!   (a cycle-accurate timer and a few dozen distinct ticks across
//!   thousands of cycles), an edge evaluates `h_e` **only at those
//!   durations** instead of sweeping the range — the likelihood needs
//!   nothing else, and each point sums the sweep's own products in the
//!   sweep's order, so the counts are bit-identical.
//!
//! What an EM run does not change — edges, adjacency, return blocks, branch
//! slots and the parameter each slot shares — is an [`FbPlan`], built once
//! per run. Everything an E-step writes lives in an [`FbScratch`] that every
//! iteration refills in place, so a warm E-step allocates nothing.
//! [`compute_tables`] and [`e_step`] build both for a single call.

use crate::quantize::{convolved_tick_score, duration_window, pmf_tick_score_soa, tick_likelihood};
use crate::samples::DurationSamples;
use ct_cfg::graph::{BlockId, Cfg, EdgeKind, Terminator};
use ct_cfg::profile::BranchProbs;
use ct_stats::pmf::{self, Pmf};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Tuning knobs for the time-expanded dynamic programs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FbParams {
    /// Probability mass below which a DP entry is dropped (and accounted as
    /// truncated).
    pub mass_eps: f64,
    /// Cap on total `(block, time)` expansions per dynamic program
    /// (runaway-loop guard).
    pub max_entries: usize,
}

impl Default for FbParams {
    fn default() -> Self {
        FbParams {
            mass_eps: 1e-9,
            max_entries: 4_000_000,
        }
    }
}

/// Failure of the time-expanded DP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FbError {
    /// The DP exceeded its entry budget (loop continuation probability too
    /// close to 1 for the requested precision).
    SupportExplosion {
        /// The configured entry cap.
        max_entries: usize,
    },
    /// The CFG/probability inputs were inconsistent (e.g. cost vector length
    /// mismatch).
    Shape(String),
    /// A likelihood or posterior count went non-finite (NaN/∞) — numerical
    /// breakdown the EM watchdog refuses to iterate past.
    NonFinite {
        /// The EM iteration (1-based) at which the breakdown was detected.
        iteration: usize,
    },
}

impl fmt::Display for FbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FbError::SupportExplosion { max_entries } => {
                write!(f, "time-expanded DP exceeded {max_entries} entries")
            }
            FbError::Shape(msg) => write!(f, "shape error: {msg}"),
            FbError::NonFinite { iteration } => {
                write!(f, "non-finite likelihood at EM iteration {iteration}")
            }
        }
    }
}

impl Error for FbError {}

/// Sparse probability table per block: sorted `(cycles, probability)` pairs.
/// This is the raw (array-of-structs) layout the propagation frontiers use;
/// finished tables are stored structure-of-arrays as [`Pmf`].
pub type SparsePmf = Vec<(u64, f64)>;

/// Forward and backward tables for one parameter vector.
///
/// Tables are stored structure-of-arrays ([`Pmf`]): the E-step's convolution
/// and scoring inner loops run over contiguous mass slices, and
/// contiguous-support blocks skip binary-search windowing.
#[derive(Debug, Clone, Default)]
pub struct FbTables {
    /// `forward[b]`: arrival distribution at block `b`.
    pub forward: Vec<Pmf>,
    /// `backward[b]`: remaining-duration distribution from block `b`.
    pub backward: Vec<Pmf>,
    /// Probability mass lost to `mass_eps` pruning (upper bound across DPs).
    pub truncated: f64,
}

impl FbTables {
    /// The procedure's end-to-end duration distribution (`g(entry, ·)`).
    pub fn duration_pmf(&self, cfg: &Cfg) -> &Pmf {
        &self.backward[cfg.entry().index()]
    }
}

/// What never changes while EM iterates on one CFG: its edges, in/out
/// adjacency, return blocks, branch slots and which slots share one
/// parameter. Built once per EM run and shared by every E-step of the run.
#[derive(Debug, Clone)]
pub struct FbPlan {
    /// Per block: its terminator (see [`FbPlan::fits`]).
    terms: Vec<Terminator>,
    entry: usize,
    /// `(from, to)` per edge, by edge index.
    edges: Vec<(usize, usize)>,
    /// Per block: `(edge, target)` of its out-edges.
    out_edges: Vec<Vec<(usize, usize)>>,
    /// Per block: `(edge, source)` of its in-edges.
    in_edges: Vec<Vec<(usize, usize)>>,
    branch_blocks: Vec<BlockId>,
    /// Per branch slot (the [`BranchProbs`] order): `(true edge, false edge)`.
    arms: Vec<(usize, usize)>,
    /// Every branch slot as `(group, slot)`, sorted: a group is named by
    /// its first slot and holds the slots that share one parameter — just
    /// that slot unless [`FbPlan::tied`] merged them. One flat array, so the
    /// M-step chases no heap pointer per group.
    ties: Vec<(usize, usize)>,
}

impl FbPlan {
    /// The plan of `cfg`.
    pub fn new(cfg: &Cfg) -> FbPlan {
        let n = cfg.len();
        let mut plan = FbPlan {
            terms: cfg.iter().map(|(_, b)| b.term).collect(),
            entry: cfg.entry().index(),
            edges: Vec::new(),
            out_edges: vec![Vec::new(); n],
            in_edges: vec![Vec::new(); n],
            branch_blocks: cfg.branch_blocks(),
            arms: Vec::new(),
            ties: Vec::new(),
        };
        for e in cfg.edges() {
            let (u, v) = (e.from.index(), e.to.index());
            plan.edges.push((u, v));
            plan.out_edges[u].push((e.index, v));
            plan.in_edges[v].push((e.index, u));
            if e.kind == EdgeKind::BranchTrue {
                // `Cfg::edges` emits a branch's false edge right after its
                // true edge, and branch blocks in index order.
                plan.arms.push((e.index, e.index + 1));
            }
        }
        plan.ties = (0..plan.arms.len()).map(|slot| (slot, slot)).collect();
        plan
    }

    /// This plan with every branch slot whose block `param` maps to the same
    /// block sharing one parameter: EM's M-step pools the group's expected
    /// counts and writes one θ to all of its slots. Groups are ordered by
    /// their first slot.
    pub(crate) fn tied(mut self, param: impl Fn(BlockId) -> BlockId) -> FbPlan {
        let mut first_slot = BTreeMap::new();
        for (slot, &b) in self.branch_blocks.iter().enumerate() {
            self.ties[slot] = (*first_slot.entry(param(b)).or_insert(slot), slot);
        }
        self.ties.sort_unstable();
        self
    }

    /// True when `cfg` has the block structure this plan was built from.
    pub(crate) fn fits(&self, cfg: &Cfg) -> bool {
        cfg.len() == self.terms.len()
            && cfg.entry().index() == self.entry
            && cfg.iter().zip(&self.terms).all(|((_, b), t)| b.term == *t)
    }

    /// Number of edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The branch blocks, in [`BranchProbs`] slot order.
    pub(crate) fn branch_blocks(&self) -> &[BlockId] {
        &self.branch_blocks
    }

    /// `(true edge, false edge)` of every branch slot.
    pub(crate) fn arms(&self) -> &[(usize, usize)] {
        &self.arms
    }

    /// The `(group, slot)` runs of the branch slots that share one
    /// parameter, in group order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = &[(usize, usize)]> {
        self.ties.chunk_by(|a, b| a.0 == b.0)
    }

    /// Per-edge traversal probabilities, as [`BranchProbs::edge_probs`]
    /// computes them, written into `out`.
    fn fill_edge_probs(&self, probs: &BranchProbs, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.edges.len(), 1.0);
        let aligned = probs.blocks() == self.branch_blocks.as_slice();
        for (slot, &(t, f)) in self.arms.iter().enumerate() {
            let p = if aligned {
                probs.as_slice()[slot]
            } else {
                probs.prob_true(self.branch_blocks[slot]).unwrap_or(0.5)
            };
            out[t] = p;
            out[f] = 1.0 - p;
        }
    }
}

/// Everything an E-step writes: frontiers, tables, edge probabilities, the
/// coalescing and convolution buffers, the explained ticks and the counts.
/// Held across the iterations of an EM run, it is refilled in place, so a
/// warm E-step allocates nothing. That holds for the coalescing too: an
/// accumulator is summed in the scratch's dense window
/// ([`pmf::coalesce_dense`]), and a list the window does not take is
/// sorted by [`pmf::coalesce_sort`], which leaves only lists of at most 256
/// entries to the standard library's stable sort (they fit its stack
/// scratch) and merge-sorts longer ones through the scratch's own buffer.
/// Any leftover state — including a pass cut short by an error — is
/// cleared before it is read.
#[derive(Debug, Clone, Default)]
pub struct FbScratch {
    tables: FbTables,
    cur: Vec<SparsePmf>,
    next: Vec<SparsePmf>,
    acc: Vec<SparsePmf>,
    /// The dense coalesce's window over one accumulator's key span.
    window: Vec<f64>,
    /// The merge sort's second buffer, for lists of over 256 entries.
    merge: SparsePmf,
    edge_probs: Vec<f64>,
    /// Per edge: source block cost + edge cost.
    step: Vec<u64>,
    /// `h_e` when the convolution takes its sparse path.
    conv: Pmf,
    /// The convolution's dense window, which the ticks are scored from.
    conv_buf: Vec<f64>,
    conv_terms: Vec<pmf::Entry>,
    /// `(tick, multiplicity, normalizer)` of every explained distinct tick.
    explained: Vec<(u64, usize, f64)>,
    /// Every duration the explained ticks' windows cover, ascending (filled
    /// only when the E-step takes the point path).
    points: Vec<u64>,
    /// `h_e` at an edge's share of `points`.
    point_mass: Vec<f64>,
    /// A gapped `g(v)` spread over its key span for the point kernel.
    point_span: Vec<f64>,
    counts: Vec<f64>,
}

impl FbScratch {
    /// Empty scratch; the first E-step sizes it.
    pub fn new() -> FbScratch {
        FbScratch::default()
    }

    /// The tables the last call filled (partly stale after an error).
    pub fn tables(&self) -> &FbTables {
        &self.tables
    }

    /// The expected edge counts of the last successful [`e_step_planned`].
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Empties the frontiers and accumulators, sized for `n` blocks.
    fn reset_frontiers(&mut self, n: usize) {
        for v in [&mut self.cur, &mut self.next, &mut self.acc] {
            v.resize_with(n, Vec::new);
            v.iter_mut().for_each(Vec::clear);
        }
    }

    /// Coalesces every accumulator into `tables[b]` through the reused
    /// dense window, bitwise as [`pmf::coalesce`] would (see
    /// [`fill_tables`]).
    fn finish(
        acc: &mut [SparsePmf],
        tables: &mut Vec<Pmf>,
        window: &mut Vec<f64>,
        merge: &mut SparsePmf,
    ) {
        tables.resize_with(acc.len(), Pmf::new);
        for (a, t) in acc.iter_mut().zip(tables.iter_mut()) {
            pmf::coalesce_dense(a, window, merge);
            t.refill_sorted(a);
        }
    }
}

/// Computes forward and backward tables (a one-call plan and scratch).
///
/// # Errors
///
/// [`FbError::SupportExplosion`] when pruning cannot contain the DP, and
/// [`FbError::Shape`] for mismatched cost vectors.
pub fn compute_tables(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    params: FbParams,
) -> Result<FbTables, FbError> {
    let mut scratch = FbScratch::new();
    fill_tables(
        &FbPlan::new(cfg),
        &mut scratch,
        block_costs,
        edge_costs,
        probs,
        params,
        u64::MAX,
    )?;
    Ok(scratch.tables)
}

/// Fills `s.tables` for `probs`:
///
/// - the forward table by one propagation from the entry block;
/// - all backward tables by one propagation over the reversed graph, seeded
///   at the Return blocks with `g(r) = {(c_r, 1.0)}`.
///
/// Each propagation leaves every arrival at a block in that block's
/// accumulator, in push order; [`FbScratch::finish`] turns the
/// accumulators into tables. It adds each list's masses in push order
/// into a window seeded with `-0.0` over the list's key span and reads the
/// touched cells back in key order. Since `-0.0 + x == x` bitwise for
/// every `x`, that is the stable sort's left-to-right sum at every key, so
/// the tables keep their bits. The window serves a list whose keys span
/// at most [`pmf::DENSE_SPAN_FACTOR`] (8) × its length — the same bound
/// the point path puts on `g(v)`'s span — and any wider list is sorted.
///
/// Both propagations keep only time keys up to `time_cap` (inclusive);
/// entries beyond it are dropped **silently** (not counted as truncated —
/// they are not lost to approximation, they are provably unreachable by
/// the caller). [`compute_tables`] keeps the full support (`u64::MAX`);
/// [`e_step_planned`] caps at its observation horizon.
fn fill_tables(
    plan: &FbPlan,
    s: &mut FbScratch,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    params: FbParams,
    time_cap: u64,
) -> Result<(), FbError> {
    let n = plan.terms.len();
    if block_costs.len() != n {
        return Err(FbError::Shape(format!(
            "expected {n} block costs, got {}",
            block_costs.len()
        )));
    }
    if edge_costs.len() != plan.edges.len() {
        return Err(FbError::Shape(format!(
            "expected {} edge costs, got {}",
            plan.edges.len(),
            edge_costs.len()
        )));
    }
    plan.fill_edge_probs(probs, &mut s.edge_probs);
    s.step.clear();
    s.step.extend(
        plan.edges
            .iter()
            .zip(edge_costs)
            .map(|(&(u, _), &c_e)| block_costs[u] + c_e),
    );
    s.tables.truncated = 0.0;

    s.reset_frontiers(n);
    s.cur[plan.entry].push((0, 1.0));
    s.acc[plan.entry].push((0, 1.0));
    propagate(&plan.out_edges, s, params, time_cap)?;
    FbScratch::finish(
        &mut s.acc,
        &mut s.tables.forward,
        &mut s.window,
        &mut s.merge,
    );

    s.reset_frontiers(n);
    for b in (0..n).filter(|&b| plan.terms[b] == Terminator::Return) {
        let c = block_costs[b];
        if c > time_cap {
            continue; // past the observation horizon: unreachable by any score
        }
        s.cur[b].push((c, 1.0));
        s.acc[b].push((c, 1.0));
    }
    propagate(&plan.in_edges, s, params, time_cap)?;
    FbScratch::finish(
        &mut s.acc,
        &mut s.tables.backward,
        &mut s.window,
        &mut s.merge,
    );
    Ok(())
}

/// Frontier propagation over `adj` (`(edge, neighbor)` lists per block)
/// from the seeded `cur`/`acc`, accumulating every arrival into `acc`.
///
/// Over the out-edges this is the forward table: arrival at `v` at
/// `t + c_u + c_e`; Return blocks have no out-edges, so mass is absorbed
/// there once its arrival is recorded. Over the in-edges it is every backward table at once:
/// when `g(v)` gains mass `m` at remaining time `t`, each in-edge `u → v`
/// contributes `(t + c_u + c_e, m·p)` to `g(u)` — the same step, walked
/// against the edges — so every path suffix is walked once instead of once
/// per starting block. Mass in cycles decays by the branch probabilities
/// each lap and is pruned at `mass_eps`.
///
/// Blocks are visited in index order and frontier entries in ascending time,
/// and merged masses are summed in contribution order — the same enumeration
/// and summation order as the reference `BTreeMap` engine.
fn propagate(
    adj: &[Vec<(usize, usize)>],
    s: &mut FbScratch,
    params: FbParams,
    time_cap: u64,
) -> Result<(), FbError> {
    let FbScratch {
        cur,
        next,
        acc,
        edge_probs,
        step,
        tables,
        merge,
        ..
    } = s;
    // The two frontier sets trade roles every step by reference, never by
    // swapping a block's buffers, so every call on a problem finds each
    // buffer in the same role at the same step, and the capacities one
    // call grew serve the next.
    let (mut cur, mut next) = (cur, next);
    let mut processed: usize = 0;
    loop {
        let frontier_len: usize = cur.iter().map(Vec::len).sum();
        if frontier_len == 0 {
            return Ok(());
        }
        processed += frontier_len;
        if processed > params.max_entries {
            return Err(FbError::SupportExplosion {
                max_entries: params.max_entries,
            });
        }
        for (b, edges) in adj.iter().enumerate() {
            for &(t, mass) in &cur[b] {
                for &(ei, v) in edges {
                    let p = edge_probs[ei];
                    if p <= 0.0 {
                        continue;
                    }
                    let m = mass * p;
                    if m < params.mass_eps {
                        tables.truncated += m;
                        continue;
                    }
                    let t2 = t + step[ei];
                    if t2 > time_cap {
                        continue; // past the observation horizon: unreachable by any score
                    }
                    next[v].push((t2, m));
                    acc[v].push((t2, m));
                }
            }
            cur[b].clear();
        }
        for frontier in next.iter_mut().filter(|f| f.len() > 1) {
            pmf::coalesce_sort(frontier, merge);
        }
        std::mem::swap(&mut cur, &mut next);
    }
}

/// Posterior expected edge-traversal counts aggregated over a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeExpectations {
    /// Expected traversal count per edge (summed over samples).
    pub counts: Vec<f64>,
    /// Total log-likelihood of the explained samples.
    pub loglik: f64,
    /// Samples whose observed ticks have (numerically) zero probability
    /// under the model — contamination or truncation casualties.
    pub unexplained: usize,
}

/// Runs one E-step: builds tables for `probs` and computes posterior expected
/// edge-traversal counts for `samples` (a one-call plan and scratch; EM
/// runs [`e_step_planned`]).
pub fn e_step<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    samples: &S,
    params: FbParams,
) -> Result<(EdgeExpectations, FbTables), FbError> {
    let stats = samples.suff_stats();
    let mut scratch = FbScratch::new();
    let (loglik, unexplained) = e_step_planned(
        &FbPlan::new(cfg),
        &mut scratch,
        block_costs,
        edge_costs,
        probs,
        &stats.counted(),
        stats.cycles_per_tick(),
        params,
    )?;
    let expectations = EdgeExpectations {
        counts: scratch.counts,
        loglik,
        unexplained,
    };
    Ok((expectations, scratch.tables))
}

/// The E-step of an EM iteration over a pre-built distinct-tick histogram
/// `counted` (ascending, as [`crate::stream::SuffStats::counted`] returns
/// it) observed at `cpt` cycles per tick. Returns the log-likelihood and the
/// unexplained sample count; the counts and tables stay in `scratch`
/// ([`FbScratch::counts`], [`FbScratch::tables`]).
///
/// Per edge `e = (u → v)` this convolves `f(u) ⊗ g(v)` **once** over the
/// union of the explained ticks' duration windows,
/// `h_e(d) = Σ_t f(u,t) · g(v, d − t − c_u − c_e)`, then scores every
/// distinct tick against `h_e` — instead of rescanning the product per
/// `(sample, edge)` pair. A convolution that takes its dense path leaves
/// `h_e` as a window of cells, one per duration, and each tick is scored
/// straight from its own cells of that window ([`convolved_tick_score`]):
/// the nonzero ones in ascending duration, the cells and order the
/// compacted PMF would hold, so no output bit depends on skipping the
/// compaction. A sparse-path `h_e` is a PMF and is scored as one.
///
/// The scores read `h_e` only at durations inside some explained tick's
/// window. When those durations number less than a quarter of the union
/// window's width, they are listed once, and an edge whose share of them
/// times 4 is below both its own window's width and `|g(v)|` — and whose
/// `g(v)` spans at most 8× its support — evaluates `h_e` at them alone
/// ([`pmf::convolve_points_into`]) instead of sweeping the window. Both
/// paths sum the same products in the same order, so the choice changes
/// no output bit; every other E-step sweeps exactly as before. The table
/// build beneath follows the same 8× rule: an accumulator whose keys span
/// at most [`pmf::DENSE_SPAN_FACTOR`] × its length is summed in a dense
/// window, a wider one sorted (see `fill_tables`).
///
/// # Errors
///
/// As [`compute_tables`].
#[allow(clippy::too_many_arguments)]
pub fn e_step_planned(
    plan: &FbPlan,
    scratch: &mut FbScratch,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    counted: &[(u64, usize)],
    cpt: u64,
    params: FbParams,
) -> Result<(f64, usize), FbError> {
    // Cap the DPs at the upper edge `hi` of the largest observed tick's
    // window: a forward arrival `t`, a backward remainder `s` or a duration
    // key `d` beyond it can never enter any tick score (`t ≤ d ≤ hi`,
    // `s ≤ d ≤ hi`), so this changes no output bit — it only stops the DPs
    // from expanding support past the observation horizon, on long
    // unrolled chains the majority of it.
    let time_cap = counted
        .last()
        .and_then(|&(t_max, _)| crate::quantize::try_duration_window(t_max, cpt).ok())
        .map_or(u64::MAX, |(_, hi)| hi);
    fill_tables(
        plan,
        scratch,
        block_costs,
        edge_costs,
        probs,
        params,
        time_cap,
    )?;
    let FbScratch {
        tables,
        edge_probs,
        step,
        conv,
        conv_buf,
        conv_terms,
        explained,
        points,
        point_mass,
        point_span,
        counts,
        ..
    } = scratch;
    let duration = &tables.backward[plan.entry];
    counts.clear();
    counts.resize(plan.edges.len(), 0.0);
    let mut loglik = 0.0;
    let mut unexplained = 0;

    // Normalizers per distinct tick, plus the union window over explained
    // ticks — the support the per-edge convolutions are restricted to —
    // and how many distinct durations the ticks' windows cover. Ticks
    // ascend, so their windows' both ends do too.
    explained.clear();
    let (mut win_lo, mut win_hi) = (u64::MAX, 0u64);
    let (mut covered, mut uncovered_from) = (0u64, 0u64);
    for &(t_obs, n) in counted {
        let z = pmf_tick_score_soa(duration, t_obs, cpt);
        if z <= 1e-300 {
            unexplained += n;
            continue;
        }
        loglik += n as f64 * z.ln();
        let (lo, hi) = duration_window(t_obs, cpt);
        win_lo = win_lo.min(lo);
        win_hi = win_hi.max(hi);
        let from = lo.max(uncovered_from);
        if hi >= from {
            covered = covered.saturating_add(hi - from + 1);
            uncovered_from = hi.saturating_add(1);
        }
        explained.push((t_obs, n, z));
    }
    if explained.is_empty() {
        return Ok((loglik, unexplained));
    }
    // Few observed durations across a wide window: list them once, so an
    // edge can evaluate `h_e` at them alone (see [`score_at_points`]).
    let sparse = win_hi < u64::MAX && covered.saturating_mul(4) < win_hi - win_lo + 1;
    points.clear();
    if sparse {
        let mut next = 0;
        for &(t_obs, _, _) in explained.iter() {
            let (lo, hi) = duration_window(t_obs, cpt);
            points.extend(lo.max(next)..=hi);
            next = next.max(hi + 1);
        }
    }

    for (ei, &(u, v)) in plan.edges.iter().enumerate() {
        let p_e = edge_probs[ei];
        if p_e <= 0.0 {
            continue;
        }
        let delta = step[ei];
        let (f_u, g_v) = (&tables.forward[u], &tables.backward[v]);
        if f_u.is_empty() || g_v.is_empty() {
            continue;
        }
        // Tighten the union window to this edge's achievable support:
        // no term of `f ⊗ g` shifted by `delta` lands outside
        // [f.min + g.min + δ, f.max + g.max + δ], so clipping changes
        // no output bit — it only shrinks the dense path's buffer from
        // the full observed-duration range to the edge's own span.
        let win_lo = win_lo.max(
            f_u.keys()[0]
                .saturating_add(g_v.keys()[0])
                .saturating_add(delta),
        );
        let win_hi = win_hi.min(
            f_u.keys()[f_u.len() - 1]
                .saturating_add(g_v.keys()[g_v.len() - 1])
                .saturating_add(delta),
        );
        if win_lo > win_hi {
            continue;
        }
        // The point kernel reads a gapped `g(v)` through a buffer over its
        // key span; a `g(v)` spanning more than 8× its support sweeps, so
        // that buffer stays within a small multiple of the table.
        let g_span = g_v.keys()[g_v.len() - 1] - g_v.keys()[0] + 1;
        if sparse && g_span <= 8 * g_v.len() as u64 {
            let a = points.partition_point(|&d| d < win_lo);
            let b = points.partition_point(|&d| d <= win_hi);
            let width = usize::try_from(win_hi - win_lo + 1).unwrap_or(usize::MAX);
            if (b - a).saturating_mul(4) < width.min(g_v.len()) {
                let pts = &points[a..b];
                pmf::convolve_points_into(point_mass, point_span, f_u, g_v, delta, pts);
                score_at_points(&mut counts[ei], pts, point_mass, explained, cpt, p_e);
                continue;
            }
        }
        let h =
            pmf::convolve_window_into(conv, conv_buf, conv_terms, f_u, g_v, delta, win_lo, win_hi);
        for &(t_obs, n, z) in explained.iter() {
            let acc = convolved_tick_score(h, t_obs, cpt);
            counts[ei] += n as f64 * p_e * acc / z;
        }
    }
    Ok((loglik, unexplained))
}

/// The E-step's point path for one edge: adds to `count` what the
/// explained ticks contribute, given `h_e` evaluated only at `pts` (the
/// observed durations inside the edge's window) as `h`.
///
/// Bit-identical to scoring the swept `h_e`: every `h[i]` equals the
/// sweep's mass at `pts[i]` ([`pmf::convolve_points_into`]), each tick sums
/// the same nonzero `h_e(d) · tick_likelihood` terms in the same ascending
/// `d` order as [`pmf_tick_score_soa`], and the ticks add to `count` in the
/// same order.
fn score_at_points(
    count: &mut f64,
    pts: &[u64],
    h: &[f64],
    explained: &[(u64, usize, f64)],
    cpt: u64,
    p_e: f64,
) {
    let (mut a, mut b) = (0, 0);
    for &(t_obs, n, z) in explained {
        let (lo, hi) = duration_window(t_obs, cpt);
        while a < pts.len() && pts[a] < lo {
            a += 1;
        }
        b = b.max(a);
        while b < pts.len() && pts[b] <= hi {
            b += 1;
        }
        let acc: f64 = pts[a..b]
            .iter()
            .zip(&h[a..b])
            .filter(|&(_, &m)| m > 0.0)
            .map(|(&d, &m)| m * tick_likelihood(t_obs, d, cpt))
            .sum();
        *count += n as f64 * p_e * acc / z;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::TimingSamples;
    use ct_cfg::builder::{diamond, while_loop};

    fn diamond_setup(p: f64) -> (ct_cfg::graph::Cfg, Vec<u64>, Vec<u64>, BranchProbs) {
        let cfg = diamond();
        let block_costs = vec![10, 100, 200, 5];
        let edge_costs = vec![1, 2, 0, 0];
        let probs = BranchProbs::from_vec(&cfg, vec![p]);
        (cfg, block_costs, edge_costs, probs)
    }

    #[test]
    fn duration_pmf_of_diamond_is_two_point() {
        let (cfg, bc, ec, probs) = diamond_setup(0.7);
        let t = compute_tables(&cfg, &bc, &ec, &probs, FbParams::default()).unwrap();
        let d = t.duration_pmf(&cfg).entries();
        // true path: 10+1+100+0+5 = 116; false: 10+2+200+0+5 = 217.
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, 116);
        assert!((d[0].1 - 0.7).abs() < 1e-12);
        assert_eq!(d[1].0, 217);
        assert!((d[1].1 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn forward_table_arrivals() {
        let (cfg, bc, ec, probs) = diamond_setup(0.7);
        let t = compute_tables(&cfg, &bc, &ec, &probs, FbParams::default()).unwrap();
        // Arrive at then (b1) at t = 10+1 = 11 with mass 0.7.
        assert_eq!(t.forward[1].entries(), vec![(11, 0.7)]);
        // Arrive at join (b3) from both arms.
        assert_eq!(t.forward[3].len(), 2);
        let total: f64 = t.forward[3].masses().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backward_tables_cover_every_block() {
        let (cfg, bc, ec, probs) = diamond_setup(0.7);
        let t = compute_tables(&cfg, &bc, &ec, &probs, FbParams::default()).unwrap();
        // g(then) = {100+0+5}, g(else) = {200+0+5}, g(join) = {5}.
        assert_eq!(t.backward[1].entries(), vec![(105, 1.0)]);
        assert_eq!(t.backward[2].entries(), vec![(205, 1.0)]);
        assert_eq!(t.backward[3].entries(), vec![(5, 1.0)]);
    }

    #[test]
    fn e_step_attributes_samples_to_paths() {
        let (cfg, bc, ec, probs) = diamond_setup(0.5);
        // 30 observations of the fast path, 10 of the slow, cycle-accurate.
        let mut ticks = vec![116u64; 30];
        ticks.extend(vec![217u64; 10]);
        let samples = TimingSamples::new(ticks, 1);
        let (exp, _) = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
        // Edge 0 = cond→then: all 30 fast samples; edge 1 = cond→else: 10.
        assert!((exp.counts[0] - 30.0).abs() < 1e-9, "{:?}", exp.counts);
        assert!((exp.counts[1] - 10.0).abs() < 1e-9);
        assert_eq!(exp.unexplained, 0);
        assert!(exp.loglik < 0.0);
    }

    #[test]
    fn e_step_with_quantized_ticks() {
        let (cfg, bc, ec, probs) = diamond_setup(0.5);
        // cpt = 100: fast path 116 cycles → ticks 1 (84%) or 2 (16%);
        // slow path 217 → ticks 2 (83%) or 3 (17%). Observed tick 3 must be
        // attributed fully to the slow path.
        let samples = TimingSamples::new(vec![3], 100);
        let (exp, _) = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
        assert!(exp.counts[0].abs() < 1e-12, "{:?}", exp.counts);
        assert!((exp.counts[1] - 1.0).abs() < 1e-9);
        // Tick 1 is unambiguously fast.
        let samples = TimingSamples::new(vec![1], 100);
        let (exp, _) = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
        assert!((exp.counts[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn impossible_observation_is_unexplained() {
        let (cfg, bc, ec, probs) = diamond_setup(0.5);
        let samples = TimingSamples::new(vec![9999], 1);
        let (exp, _) = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
        assert_eq!(exp.unexplained, 1);
        assert!(exp.counts.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn loop_tables_have_geometric_support() {
        let cfg = while_loop();
        let bc = vec![2, 3, 10, 1];
        let ec = vec![0; cfg.edges().len()];
        let mut probs = BranchProbs::uniform(&cfg, 0.5);
        probs.set_prob_true(ct_cfg::graph::BlockId(1), 0.5);
        let t = compute_tables(&cfg, &bc, &ec, &probs, FbParams::default()).unwrap();
        let d = t.duration_pmf(&cfg).entries();
        // k iterations: 2 + 3(k+1) + 10k + 1 = 6 + 13k, each w.p. 0.5^{k+1}.
        assert_eq!(d[0], (6, 0.5));
        assert_eq!(d[1].0, 19);
        assert!((d[1].1 - 0.25).abs() < 1e-12);
        let total: f64 = d.iter().map(|&(_, p)| p).sum();
        assert!(total > 0.999);
    }

    #[test]
    fn loop_e_step_counts_iterations() {
        let cfg = while_loop();
        let bc = vec![2, 3, 10, 1];
        let ec = vec![0; cfg.edges().len()];
        let probs = BranchProbs::from_vec(&cfg, vec![0.5]);
        // Observe a run with exactly 2 iterations: d = 6 + 26 = 32.
        let samples = TimingSamples::new(vec![32], 1);
        let (exp, _) = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
        // Back edge (body→header) is edge index 2 (jump); header true edge
        // (continue) index 0 taken twice, false edge once.
        let edges = cfg.edges();
        let true_idx = edges
            .iter()
            .find(|e| e.kind == ct_cfg::graph::EdgeKind::BranchTrue)
            .unwrap()
            .index;
        let false_idx = edges
            .iter()
            .find(|e| e.kind == ct_cfg::graph::EdgeKind::BranchFalse)
            .unwrap()
            .index;
        assert!(
            (exp.counts[true_idx] - 2.0).abs() < 1e-9,
            "{:?}",
            exp.counts
        );
        assert!((exp.counts[false_idx] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn explosion_guard_fires() {
        let cfg = while_loop();
        let bc = vec![2, 3, 10, 1];
        let ec = vec![0; cfg.edges().len()];
        let probs = BranchProbs::from_vec(&cfg, vec![0.9999]);
        let params = FbParams {
            mass_eps: 1e-300,
            max_entries: 4,
        };
        assert!(matches!(
            compute_tables(&cfg, &bc, &ec, &probs, params),
            Err(FbError::SupportExplosion { .. })
        ));
    }

    #[test]
    fn shape_errors_detected() {
        let (cfg, bc, _, probs) = diamond_setup(0.5);
        let bad_ec = vec![0u64; 1];
        assert!(matches!(
            compute_tables(&cfg, &bc, &bad_ec, &probs, FbParams::default()),
            Err(FbError::Shape(_))
        ));
    }

    #[test]
    fn matches_reference_engine_on_loop() {
        let cfg = while_loop();
        let bc = vec![2, 3, 10, 1];
        let ec = vec![0; cfg.edges().len()];
        let probs = BranchProbs::from_vec(&cfg, vec![0.7]);
        let params = FbParams {
            mass_eps: 1e-12,
            ..FbParams::default()
        };
        let new = compute_tables(&cfg, &bc, &ec, &probs, params).unwrap();
        let old = crate::fb_reference::compute_tables(&cfg, &bc, &ec, &probs, params).unwrap();
        for b in 0..cfg.len() {
            assert_eq!(new.forward[b].len(), old.forward[b].len(), "forward[{b}]");
            for (x, y) in new.forward[b].iter().zip(old.forward[b].iter()) {
                assert_eq!(x.0, y.0);
                assert!((x.1 - y.1).abs() < 1e-12);
            }
            assert_eq!(
                new.backward[b].len(),
                old.backward[b].len(),
                "backward[{b}]"
            );
            for (x, y) in new.backward[b].iter().zip(old.backward[b].iter()) {
                assert_eq!(x.0, y.0);
                assert!((x.1 - y.1).abs() < 1e-12);
            }
        }
    }
}
