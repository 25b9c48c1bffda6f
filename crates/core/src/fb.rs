//! The E-step: posterior expected edge counts of the per-procedure Markov
//! chain over the time-expanded state space.
//!
//! This is the inference engine behind the EM estimator. For the chain with
//! parameters `θ` and static block/edge cycle costs, a state `(b, t)` is an
//! arrival at block `b` (before executing it) after exactly `t` cycles. Its
//! forward mass `f(b, t)` is the probability of reaching it; its backward
//! weight `β(b, t)` is the weighted probability of what follows it. The
//! posterior expected traversal count of edge `(u → v)` is
//! `Σ_t f(u, t) · p_e · β(v, t + c_u + c_e)` — the Baum–Welch statistics,
//! computed against the quantization kernel so coarse-timer observations are
//! handled exactly.
//!
//! ## Engine layout
//!
//! One frontier propagation over flat sorted-vec PMFs (`ct_stats::pmf`)
//! walks the time-expanded chain a step at a time from the entry, over the
//! out-edges, and keeps each step's coalesced frontier as one layer of a
//! trellis of `(block, t, mass)` states. [`e_step_planned`] runs on it:
//!
//! - it reads the duration PMF off the layers' arrivals at the Return
//!   blocks (`t + c_r`; [`FbScratch::duration`]), scores each distinct tick
//!   against it, and folds the ticks into one weight per covered duration,
//!   `w(d) = Σ n · L(tick, d) / z(tick)`. One backward sweep over the
//!   layers in reverse then gives each state `β(r, t) = w(t + c_r)` at a
//!   Return block and `β(u, t) = Σ_e p_e · β(x, t + c_u + c_e)` elsewhere,
//!   reading the next layer, and adds `f(u, t) · p_e · β(x, t + c_u + c_e)`
//!   to edge `e`'s count on the way. No backward table is built and no
//!   edge convolves anything: the sweep visits each transition of the
//!   forward pass once more.
//! - The sweep decides every transition as the forward pass did (pruned
//!   below `mass_eps`, cut at the observation horizon), so the counts are
//!   the exact posterior of the chain the forward pass walked: every block
//!   but the entry and the Returns is entered as often as it is left, to
//!   rounding.
//!
//! What an EM run does not change — edges, adjacency, return blocks, branch
//! slots and the parameter each slot shares — is an [`FbPlan`], built once
//! per run. Everything an E-step writes lives in an [`FbScratch`] that every
//! iteration refills in place, so a warm E-step allocates nothing.
//! [`e_step`] builds both for a single call.

use crate::quantize::{duration_window, pmf_tick_score_soa, tick_likelihood, try_duration_window};
use crate::samples::DurationSamples;
use ct_cfg::graph::{BlockId, Cfg, EdgeKind, Terminator};
use ct_cfg::profile::BranchProbs;
use ct_stats::pmf::{self, Pmf};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Tuning knobs for the time-expanded dynamic programs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FbParams {
    /// Probability mass below which a DP entry is dropped.
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

/// Sparse probability list: `(cycles, probability)` pairs. This is the raw
/// (array-of-structs) layout the propagation frontiers use; the duration
/// PMF is stored structure-of-arrays as [`Pmf`].
pub type SparsePmf = Vec<(u64, f64)>;

/// What never changes while EM iterates on one CFG: its edges, out-edge
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
            branch_blocks: cfg.branch_blocks(),
            arms: Vec::new(),
            ties: Vec::new(),
        };
        for e in cfg.edges() {
            let (u, v) = (e.from.index(), e.to.index());
            plan.edges.push((u, v));
            plan.out_edges[u].push((e.index, v));
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

/// The time-expanded chain as a propagation leaves it: one layer per step,
/// each the step's coalesced frontier, block by block in index order and in
/// ascending time within a block. A finished propagation ends in an empty
/// layer, so every nonempty layer has a next one.
#[derive(Debug, Clone, Default)]
struct Trellis {
    /// Run bounds: block `b`'s states in the layer that starts at run
    /// `base = k·n` are `start[base + b] .. start[base + b + 1]`.
    start: Vec<usize>,
    /// Per state: its time `t`.
    time: Vec<u64>,
    /// Per state: its mass.
    mass: Vec<f64>,
}

impl Trellis {
    /// Empties the trellis and makes its first layer over `n` blocks mass
    /// 1 at time 0 in block `entry`.
    fn seed(&mut self, n: usize, entry: usize) {
        self.start.clear();
        self.time.clear();
        self.mass.clear();
        self.start.push(0);
        self.start.extend((0..n).map(|b| usize::from(b >= entry)));
        self.time.push(0);
        self.mass.push(1.0);
    }

    /// Block `b`'s states in the layer that starts at run `base`.
    fn run(&self, base: usize, b: usize) -> Range<usize> {
        self.start[base + b]..self.start[base + b + 1]
    }

    /// The number of layers over `n` blocks.
    fn layers(&self, n: usize) -> usize {
        (self.start.len() - 1) / n
    }
}

/// Where a state at time `t` with mass `mass` goes over an edge of
/// probability `p` and cost `step`: `Some((t + step, mass · p))` when the
/// transition is kept, `None` for an edge never taken, a mass pruned below
/// `mass_eps` or an arrival past `time_cap`. The propagation and the
/// E-step's backward sweep both decide here, so the sweep walks exactly the
/// transitions the trellis holds.
#[inline]
fn transition(
    t: u64,
    mass: f64,
    p: f64,
    step: u64,
    mass_eps: f64,
    time_cap: u64,
) -> Option<(u64, f64)> {
    if p <= 0.0 {
        return None;
    }
    let m = mass * p;
    if m < mass_eps {
        return None;
    }
    let t2 = t + step;
    if t2 > time_cap {
        return None; // past the observation horizon: unreachable by any score
    }
    Some((t2, m))
}

/// Everything an E-step writes: the trellis and its `β`, the next layer's
/// arrivals, edge probabilities and steps, the duration PMF with its
/// weights, and the counts. Held across the iterations of an EM run, it is
/// refilled in place, so a warm E-step allocates nothing. That holds for
/// the coalescing too: [`pmf::coalesce_sort`] leaves only lists of at most
/// 256 entries to the standard library's stable sort (they fit its stack
/// scratch) and merge-sorts longer ones through the scratch's own buffer.
/// Any leftover state — including a pass cut short by an error — is
/// cleared before it is read.
#[derive(Debug, Clone, Default)]
pub struct FbScratch {
    trellis: Trellis,
    /// Per trellis state: `β`, the weighted probability of what follows it.
    beta: Vec<f64>,
    /// Per block: the next layer's arrivals, before they are coalesced.
    next: Vec<SparsePmf>,
    /// The merge sort's second buffer, for lists of over 256 entries.
    merge: SparsePmf,
    edge_probs: Vec<f64>,
    /// Per edge: source block cost + edge cost.
    step: Vec<u64>,
    /// Every arrival at a Return block `r` as `(t + c_r, mass)`.
    ends: SparsePmf,
    /// The duration PMF: `ends`, coalesced.
    duration: Pmf,
    /// Per key of `duration`: its weight `w(d)`.
    weight: Vec<f64>,
    counts: Vec<f64>,
}

impl FbScratch {
    /// Empty scratch; the first E-step sizes it.
    pub fn new() -> FbScratch {
        FbScratch::default()
    }

    /// The expected edge counts of the last successful [`e_step_planned`].
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// The duration PMF the last [`e_step_planned`] read off the Return
    /// arrivals. An E-step on an empty tick list walks the whole chain, so
    /// it leaves the model's duration distribution here.
    pub fn duration(&self) -> &Pmf {
        &self.duration
    }

    /// Checks the cost vectors against `plan` and fills the per-edge
    /// probabilities and steps for `probs`.
    fn prepare(
        &mut self,
        plan: &FbPlan,
        block_costs: &[u64],
        edge_costs: &[u64],
        probs: &BranchProbs,
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
        plan.fill_edge_probs(probs, &mut self.edge_probs);
        self.step.clear();
        self.step.extend(
            plan.edges
                .iter()
                .zip(edge_costs)
                .map(|(&(u, _), &c_e)| block_costs[u] + c_e),
        );
        Ok(())
    }
}

/// Frontier propagation over `plan`'s out-edges from the trellis' seeded
/// first layer, appending each step's coalesced frontier as the next layer.
///
/// A state `(u, t)` reaches `(v, t + c_u + c_e)`; Return blocks have no
/// out-edges, so mass is absorbed there. Mass in cycles decays by the
/// branch probabilities each lap and is pruned at `mass_eps`; arrivals past
/// `time_cap` are dropped too (they are not lost to approximation, they are
/// provably unreachable by the caller).
///
/// Blocks are visited in index order and states in ascending time, and
/// merged masses are summed in contribution order — the same enumeration
/// and summation order as the reference `BTreeMap` engine.
fn propagate(
    plan: &FbPlan,
    s: &mut FbScratch,
    params: FbParams,
    time_cap: u64,
) -> Result<(), FbError> {
    let FbScratch {
        trellis: tr,
        next,
        merge,
        edge_probs,
        step,
        ..
    } = s;
    let n = plan.out_edges.len();
    next.resize_with(n, Vec::new);
    next.iter_mut().for_each(Vec::clear);
    let (mut base, mut processed) = (0, 0usize);
    loop {
        let layer = tr.start[base]..tr.start[base + n];
        if layer.is_empty() {
            return Ok(());
        }
        processed += layer.len();
        if processed > params.max_entries {
            return Err(FbError::SupportExplosion {
                max_entries: params.max_entries,
            });
        }
        for (b, edges) in plan.out_edges.iter().enumerate() {
            for i in tr.run(base, b) {
                let (t, mass) = (tr.time[i], tr.mass[i]);
                for &(ei, v) in edges {
                    let p = edge_probs[ei];
                    if let Some(arrival) =
                        transition(t, mass, p, step[ei], params.mass_eps, time_cap)
                    {
                        next[v].push(arrival);
                    }
                }
            }
        }
        for frontier in next.iter_mut() {
            pmf::coalesce_sort(frontier, merge);
            tr.time.extend(frontier.iter().map(|&(t, _)| t));
            tr.mass.extend(frontier.iter().map(|&(_, m)| m));
            tr.start.push(tr.time.len());
            frontier.clear();
        }
        base += n;
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

/// Runs one E-step: posterior expected edge-traversal counts for `samples`
/// under `probs` (a one-call plan and scratch; EM runs [`e_step_planned`]).
///
/// # Errors
///
/// As [`e_step_planned`].
pub fn e_step<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    samples: &S,
    params: FbParams,
) -> Result<EdgeExpectations, FbError> {
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
    Ok(EdgeExpectations {
        counts: scratch.counts,
        loglik,
        unexplained,
    })
}

/// The E-step of an EM iteration over a pre-built distinct-tick histogram
/// `counted` (ascending, as [`crate::stream::SuffStats::counted`] returns
/// it) observed at `cpt` cycles per tick. Returns the log-likelihood and the
/// unexplained sample count; the counts stay in `scratch`
/// ([`FbScratch::counts`]).
///
/// Three passes over one trellis (see the module docs): the forward
/// propagation from the entry; the duration PMF, each distinct tick's
/// normalizer `z` and one weight `w(d)` per duration the explained ticks'
/// windows cover; and one backward sweep that turns the weights into `β`
/// and the counts. Every buffer is sized by the states and durations the
/// forward pass reached, never by the span of the observed ticks.
///
/// # Errors
///
/// [`FbError::SupportExplosion`] when pruning cannot contain the forward
/// pass, and [`FbError::Shape`] for mismatched cost vectors.
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
    // Cap the propagation at the upper edge `hi` of the largest explainable
    // tick's window: a state past it can never end inside any tick's
    // window, so this changes no count — it only stops the forward pass
    // from expanding support past the observation horizon, on long
    // unrolled chains the majority of it. A degenerate tick (a corrupted
    // record near the top of the counter) has no window and sets no cap.
    let time_cap = counted
        .iter()
        .rev()
        .find_map(|&(t, _)| try_duration_window(t, cpt).ok())
        .map_or(u64::MAX, |(_, hi)| hi);
    scratch.prepare(plan, block_costs, edge_costs, probs)?;
    let n = plan.terms.len();
    scratch.trellis.seed(n, plan.entry);
    propagate(plan, scratch, params, time_cap)?;
    let FbScratch {
        trellis: tr,
        beta,
        merge,
        edge_probs,
        step,
        ends,
        duration,
        weight,
        counts,
        ..
    } = scratch;
    counts.clear();
    counts.resize(plan.edges.len(), 0.0);
    let layers = tr.layers(n);
    let is_return = |b: usize| plan.terms[b] == Terminator::Return;

    // The duration PMF: an arrival at Return block `r` at `t` ends the run
    // at `t + c_r`.
    ends.clear();
    for base in (0..layers).map(|k| k * n) {
        for r in (0..n).filter(|&b| is_return(b)) {
            let c = block_costs[r];
            ends.extend(tr.run(base, r).map(|i| (tr.time[i] + c, tr.mass[i])));
        }
    }
    pmf::coalesce_sort(ends, merge);
    duration.refill_sorted(ends);

    // Normalizers, likelihood and the weight of each covered duration.
    weight.clear();
    weight.resize(duration.len(), 0.0);
    let (mut loglik, mut unexplained, mut explained) = (0.0, 0, false);
    for &(t_obs, n_obs) in counted {
        let z = pmf_tick_score_soa(duration, t_obs, cpt);
        if z <= 1e-300 {
            unexplained += n_obs;
            continue;
        }
        loglik += n_obs as f64 * z.ln();
        explained = true;
        let (lo, hi) = duration_window(t_obs, cpt);
        let (a, b) = duration.window(lo, hi);
        let scale = n_obs as f64 / z;
        for (w, &d) in weight[a..b].iter_mut().zip(&duration.keys()[a..b]) {
            *w += scale * tick_likelihood(t_obs, d, cpt);
        }
    }
    if !explained {
        return Ok((loglik, unexplained));
    }

    // The backward sweep. Within a run, times ascend, and so do the keys
    // each out-edge (or the duration PMF, at a Return block) is read at:
    // one cursor per run and edge walks the next layer's run forward to
    // every kept transition's target, which the forward pass put there.
    beta.clear();
    beta.resize(tr.mass.len(), 0.0);
    for base in (0..layers).rev().map(|k| k * n) {
        for (b, (out, &c)) in plan.out_edges.iter().zip(block_costs).enumerate() {
            let run = tr.run(base, b);
            if run.is_empty() {
                continue;
            }
            if is_return(b) {
                let keys = duration.keys();
                let mut j = keys.partition_point(|&d| d < tr.time[run.start] + c);
                for i in run {
                    let d = tr.time[i] + c;
                    while keys[j] < d {
                        j += 1;
                    }
                    beta[i] = weight[j];
                }
                continue;
            }
            for &(ei, x) in out {
                let p = edge_probs[ei];
                let mut j = tr.start[base + n + x];
                let mut count = 0.0;
                for i in run.clone() {
                    let kept = transition(
                        tr.time[i],
                        tr.mass[i],
                        p,
                        step[ei],
                        params.mass_eps,
                        time_cap,
                    );
                    let Some((t2, m)) = kept else {
                        continue;
                    };
                    while tr.time[j] < t2 {
                        j += 1;
                    }
                    debug_assert_eq!(tr.time[j], t2);
                    let after = beta[j];
                    beta[i] += p * after;
                    count += m * after;
                }
                counts[ei] += count;
            }
        }
    }
    Ok((loglik, unexplained))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::TimingSamples;
    use ct_cfg::builder::{diamond, while_loop};

    fn diamond_setup(p: f64) -> (Cfg, Vec<u64>, Vec<u64>, BranchProbs) {
        let cfg = diamond();
        let block_costs = vec![10, 100, 200, 5];
        let edge_costs = vec![1, 2, 0, 0];
        let probs = BranchProbs::from_vec(&cfg, vec![p]);
        (cfg, block_costs, edge_costs, probs)
    }

    /// The model's duration PMF: what an E-step on no ticks leaves behind.
    fn duration_pmf(cfg: &Cfg, bc: &[u64], ec: &[u64], probs: &BranchProbs) -> Vec<(u64, f64)> {
        let mut scratch = FbScratch::new();
        let plan = FbPlan::new(cfg);
        e_step_planned(
            &plan,
            &mut scratch,
            bc,
            ec,
            probs,
            &[],
            1,
            FbParams::default(),
        )
        .unwrap();
        scratch.duration().entries()
    }

    #[test]
    fn duration_pmf_of_diamond_is_two_point() {
        let (cfg, bc, ec, probs) = diamond_setup(0.7);
        let d = duration_pmf(&cfg, &bc, &ec, &probs);
        // true path: 10+1+100+0+5 = 116; false: 10+2+200+0+5 = 217.
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, 116);
        assert!((d[0].1 - 0.7).abs() < 1e-12);
        assert_eq!(d[1].0, 217);
        assert!((d[1].1 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn e_step_attributes_samples_to_paths() {
        let (cfg, bc, ec, probs) = diamond_setup(0.5);
        // 30 observations of the fast path, 10 of the slow, cycle-accurate.
        let mut ticks = vec![116u64; 30];
        ticks.extend(vec![217u64; 10]);
        let samples = TimingSamples::new(ticks, 1);
        let exp = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
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
        let exp = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
        assert!(exp.counts[0].abs() < 1e-12, "{:?}", exp.counts);
        assert!((exp.counts[1] - 1.0).abs() < 1e-9);
        // Tick 1 is unambiguously fast.
        let samples = TimingSamples::new(vec![1], 100);
        let exp = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
        assert!((exp.counts[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn impossible_observation_is_unexplained() {
        let (cfg, bc, ec, probs) = diamond_setup(0.5);
        let samples = TimingSamples::new(vec![9999], 1);
        let exp = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
        assert_eq!(exp.unexplained, 1);
        assert!(exp.counts.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn a_tick_near_the_top_of_the_counter_is_unexplained_and_moves_nothing() {
        // While-loop durations 6 + 13k at 8 cycles/tick, plus a corrupted
        // tick with no duration window: it counts as unexplained, sets no
        // horizon, and the counts and likelihood are those of the E-step
        // without it, bit for bit.
        let cfg = while_loop();
        let bc = vec![2, 3, 10, 1];
        let ec = vec![0; cfg.edges().len()];
        let probs = BranchProbs::from_vec(&cfg, vec![0.6]);
        let good = vec![0u64, 2, 2, 4, 5, 7, 7, 7];
        let far = [good.clone(), vec![u64::MAX - 3]].concat();
        let run = |ticks: Vec<u64>| {
            let samples = TimingSamples::new(ticks, 8);
            e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap()
        };
        let (with, without) = (run(far), run(good));
        assert_eq!(without.unexplained, 0);
        assert_eq!(with.unexplained, 1);
        assert!(without.counts.iter().all(|&c| c > 0.0));
        assert_eq!(with.loglik.to_bits(), without.loglik.to_bits());
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&with.counts), bits(&without.counts));
    }

    #[test]
    fn loop_tables_have_geometric_support() {
        let cfg = while_loop();
        let bc = vec![2, 3, 10, 1];
        let ec = vec![0; cfg.edges().len()];
        let mut probs = BranchProbs::uniform(&cfg, 0.5);
        probs.set_prob_true(ct_cfg::graph::BlockId(1), 0.5);
        let d = duration_pmf(&cfg, &bc, &ec, &probs);
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
        let exp = e_step(&cfg, &bc, &ec, &probs, &samples, FbParams::default()).unwrap();
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
        let samples = TimingSamples::new(vec![32], 1);
        assert!(matches!(
            e_step(&cfg, &bc, &ec, &probs, &samples, params),
            Err(FbError::SupportExplosion { .. })
        ));
    }

    #[test]
    fn shape_errors_detected() {
        let (cfg, bc, _, probs) = diamond_setup(0.5);
        let bad_ec = vec![0u64; 1];
        let samples = TimingSamples::new(vec![116], 1);
        assert!(matches!(
            e_step(&cfg, &bc, &bad_ec, &probs, &samples, FbParams::default()),
            Err(FbError::Shape(_))
        ));
    }
}
