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
//! Both tables are computed by frontier propagation with flat sorted-vec
//! PMFs (`ct_stats::pmf`) instead of `BTreeMap` frontiers:
//!
//! - the forward table by one propagation from the entry block;
//! - **all** backward tables by one propagation over the *reversed* graph,
//!   seeded at the Return blocks — `g(u)` receives `p_e · (c_u + c_e ⊕ g(v))`
//!   along each edge `u → v`, so every block's remaining-duration PMF
//!   materializes in a single pass (the first generation ran an independent
//!   DP per block; that engine survives as [`crate::fb_reference`]);
//! - the E-step computes **one** windowed convolution
//!   `h_e(d) = Σ_t f(u,t) · g(v, d − t − c_u − c_e)` per edge and scores all
//!   observed ticks against it, instead of rescanning the `f ⊗ g` product
//!   for every `(sample, edge)` pair.

use crate::quantize::{duration_window, pmf_tick_score_soa};
use crate::samples::DurationSamples;
use ct_cfg::graph::{Cfg, Terminator};
use ct_cfg::profile::BranchProbs;
use ct_stats::cache::{ConvCache, ConvKey};
use ct_stats::pmf::{self, Pmf};
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
    /// Largest time key the DPs keep (inclusive); entries beyond it are
    /// dropped **silently** (not counted as truncated — they are not lost
    /// to approximation, they are provably unreachable by the caller).
    ///
    /// [`e_step`] sets this to the upper edge of the largest observed
    /// tick's [`duration_window`]: a forward arrival `t`, a backward
    /// remainder `s`, or a duration key `d` beyond that bound can never
    /// enter any tick score (`t ≤ d ≤ hi`, `s ≤ d ≤ hi`), so the capped
    /// E-step is **bit-identical** to the uncapped one while the DPs skip
    /// every table entry past the observation horizon — on long unrolled
    /// chains that is the majority of the support. `u64::MAX` (the
    /// default) keeps the full support, e.g. for duration-distribution
    /// queries.
    pub time_cap: u64,
}

impl Default for FbParams {
    fn default() -> Self {
        FbParams {
            mass_eps: 1e-9,
            max_entries: 4_000_000,
            time_cap: u64::MAX,
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
#[derive(Debug, Clone)]
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

/// Computes forward and backward tables.
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
    let edges = cfg.edges();
    if block_costs.len() != cfg.len() {
        return Err(FbError::Shape(format!(
            "expected {} block costs, got {}",
            cfg.len(),
            block_costs.len()
        )));
    }
    if edge_costs.len() != edges.len() {
        return Err(FbError::Shape(format!(
            "expected {} edge costs, got {}",
            edges.len(),
            edge_costs.len()
        )));
    }
    let edge_probs = probs.edge_probs(cfg);
    let is_return: Vec<bool> = cfg
        .iter()
        .map(|(_, b)| matches!(b.term, Terminator::Return))
        .collect();
    let mut out_edges = vec![Vec::new(); cfg.len()];
    let mut in_edges = vec![Vec::new(); cfg.len()];
    for e in &edges {
        out_edges[e.from.index()].push((e.index, e.to.index()));
        in_edges[e.to.index()].push((e.index, e.from.index()));
    }

    let mut truncated = 0.0;
    let forward = forward_table(
        cfg,
        block_costs,
        edge_costs,
        &edge_probs,
        &out_edges,
        &is_return,
        params,
        &mut truncated,
    )?;
    let backward = backward_tables(
        block_costs,
        edge_costs,
        &edge_probs,
        &in_edges,
        &is_return,
        params,
        &mut truncated,
    )?;
    Ok(FbTables {
        forward,
        backward,
        truncated,
    })
}

/// Forward propagation from the entry block with per-block flat frontiers.
///
/// Blocks are visited in index order and frontier entries in ascending time,
/// and merged masses are summed in contribution order — the same enumeration
/// and summation order as the reference `BTreeMap` engine, so results match
/// it bit-for-bit.
#[allow(clippy::too_many_arguments)]
fn forward_table(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    edge_probs: &[f64],
    out_edges: &[Vec<(usize, usize)>],
    is_return: &[bool],
    params: FbParams,
    truncated: &mut f64,
) -> Result<Vec<Pmf>, FbError> {
    let n = cfg.len();
    // Raw (uncoalesced) arrival contributions per block, coalesced at the end.
    let mut acc: Vec<Vec<(u64, f64)>> = vec![Vec::new(); n];
    // Current frontier per block, coalesced; and next-round staging.
    let mut cur: Vec<SparsePmf> = vec![Vec::new(); n];
    let mut next: Vec<Vec<(u64, f64)>> = vec![Vec::new(); n];
    let entry = cfg.entry().index();
    cur[entry].push((0, 1.0));
    acc[entry].push((0, 1.0));
    let mut processed: usize = 0;

    loop {
        let frontier_len: usize = cur.iter().map(Vec::len).sum();
        if frontier_len == 0 {
            break;
        }
        processed += frontier_len;
        if processed > params.max_entries {
            return Err(FbError::SupportExplosion {
                max_entries: params.max_entries,
            });
        }
        for b in 0..n {
            if cur[b].is_empty() {
                continue;
            }
            if is_return[b] {
                cur[b].clear(); // absorbed; arrival already recorded
                continue;
            }
            let c_b = block_costs[b];
            for &(t, mass) in &cur[b] {
                for &(ei, v) in &out_edges[b] {
                    let p = edge_probs[ei];
                    if p <= 0.0 {
                        continue;
                    }
                    let m = mass * p;
                    if m < params.mass_eps {
                        *truncated += m;
                        continue;
                    }
                    let t2 = t + c_b + edge_costs[ei];
                    if t2 > params.time_cap {
                        continue; // past the observation horizon: unreachable by any score
                    }
                    next[v].push((t2, m));
                    acc[v].push((t2, m));
                }
            }
            cur[b].clear();
        }
        for b in 0..n {
            if !next[b].is_empty() {
                std::mem::swap(&mut cur[b], &mut next[b]);
                pmf::coalesce(&mut cur[b]);
            }
        }
    }
    Ok(acc
        .into_iter()
        .map(|mut v| {
            pmf::coalesce(&mut v);
            Pmf::from_sorted(v)
        })
        .collect())
}

/// All blocks' remaining-duration PMFs in **one** propagation over the
/// reversed graph.
///
/// Seed: each Return block `r` holds `g(r) = {(c_r, 1.0)}`. Propagation:
/// when `g(v)` gains mass `m` at remaining time `t`, every in-edge
/// `u → v` (probability `p`, cost `c_e`) contributes
/// `(t + c_e + c_u, m·p)` to `g(u)` — both into the result and back into
/// the frontier for `u`'s own predecessors. Mass in cycles decays by the
/// branch probabilities each lap and is pruned at `mass_eps`, exactly like
/// the per-block DPs this replaces; the difference is that every path
/// suffix is walked once instead of once per starting block.
fn backward_tables(
    block_costs: &[u64],
    edge_costs: &[u64],
    edge_probs: &[f64],
    in_edges: &[Vec<(usize, usize)>],
    is_return: &[bool],
    params: FbParams,
    truncated: &mut f64,
) -> Result<Vec<Pmf>, FbError> {
    let n = block_costs.len();
    let mut result: Vec<Vec<(u64, f64)>> = vec![Vec::new(); n];
    let mut cur: Vec<SparsePmf> = vec![Vec::new(); n];
    let mut next: Vec<Vec<(u64, f64)>> = vec![Vec::new(); n];
    for b in 0..n {
        if is_return[b] {
            let c = block_costs[b];
            if c > params.time_cap {
                continue; // past the observation horizon: unreachable by any score
            }
            cur[b].push((c, 1.0));
            result[b].push((c, 1.0));
        }
    }
    let mut processed: usize = 0;

    loop {
        let frontier_len: usize = cur.iter().map(Vec::len).sum();
        if frontier_len == 0 {
            break;
        }
        processed += frontier_len;
        if processed > params.max_entries {
            return Err(FbError::SupportExplosion {
                max_entries: params.max_entries,
            });
        }
        for v in 0..n {
            if cur[v].is_empty() {
                continue;
            }
            for &(t, mass) in &cur[v] {
                for &(ei, u) in &in_edges[v] {
                    let p = edge_probs[ei];
                    if p <= 0.0 {
                        continue;
                    }
                    let m = mass * p;
                    if m < params.mass_eps {
                        *truncated += m;
                        continue;
                    }
                    let t2 = t + edge_costs[ei] + block_costs[u];
                    if t2 > params.time_cap {
                        continue; // past the observation horizon: unreachable by any score
                    }
                    next[u].push((t2, m));
                    result[u].push((t2, m));
                }
            }
            cur[v].clear();
        }
        for b in 0..n {
            if !next[b].is_empty() {
                std::mem::swap(&mut cur[b], &mut next[b]);
                pmf::coalesce(&mut cur[b]);
            }
        }
    }
    Ok(result
        .into_iter()
        .map(|mut v| {
            pmf::coalesce(&mut v);
            Pmf::from_sorted(v)
        })
        .collect())
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

/// Iteration-to-iteration E-step state: version stamps for every block's
/// forward/backward PMF plus the per-edge convolution cache they key.
///
/// After each table build the cache compares every block's PMF against the
/// previous iteration **bitwise** ([`Pmf::bits_eq`]) and bumps the block's
/// version stamp only on change. An edge whose source-arrival version,
/// target-remaining version, shift, and scoring window all match the cached
/// entry reuses the previous windowed convolution — bit-identical to
/// recomputation, so cached and uncached runs are indistinguishable.
///
/// The cache is intentionally long-lived: held across EM iterations it
/// skips convolutions for blocks untouched by a parameter move; held across
/// batches (incremental estimation) it skips the *entire* first E-step's
/// convolutions whenever the warm start reproduces the previous optimum's
/// tables and the observed-tick window is unchanged.
#[derive(Debug, Clone)]
pub struct EStepCache {
    conv: ConvCache,
    f_version: Vec<u64>,
    g_version: Vec<u64>,
    prev_forward: Vec<Pmf>,
    prev_backward: Vec<Pmf>,
}

impl Default for EStepCache {
    fn default() -> Self {
        EStepCache::new()
    }
}

impl EStepCache {
    /// An empty cache honoring the `CT_CONV_CACHE` environment knob.
    pub fn new() -> EStepCache {
        EStepCache::with_cache_enabled(ct_stats::cache::cache_enabled_from_env())
    }

    /// An empty cache with the enable switch forced (for A/B tests).
    pub fn with_cache_enabled(enabled: bool) -> EStepCache {
        EStepCache {
            conv: ConvCache::with_enabled(0, enabled),
            f_version: Vec::new(),
            g_version: Vec::new(),
            prev_forward: Vec::new(),
            prev_backward: Vec::new(),
        }
    }

    /// Version-stamps freshly built tables: bumps a block's stamp iff its
    /// PMF changed bitwise since the previous call.
    fn observe(&mut self, tables: &FbTables) {
        let n = tables.forward.len();
        if self.prev_forward.len() != n {
            // First build (or a different CFG shape): stamp everything.
            self.prev_forward = tables.forward.clone();
            self.prev_backward = tables.backward.clone();
            self.f_version = vec![1; n];
            self.g_version = vec![1; n];
            return;
        }
        for b in 0..n {
            if !tables.forward[b].bits_eq(&self.prev_forward[b]) {
                self.f_version[b] += 1;
                self.prev_forward[b] = tables.forward[b].clone();
            }
            if !tables.backward[b].bits_eq(&self.prev_backward[b]) {
                self.g_version[b] += 1;
                self.prev_backward[b] = tables.backward[b].clone();
            }
        }
    }

    /// Convolutions answered from the cache.
    pub fn hits(&self) -> u64 {
        self.conv.hits()
    }

    /// Convolutions recomputed.
    pub fn misses(&self) -> u64 {
        self.conv.misses()
    }

    /// Whether cached results may be returned.
    pub fn cache_enabled(&self) -> bool {
        self.conv.enabled()
    }
}

/// Runs one E-step: builds tables for `probs` and computes posterior expected
/// edge-traversal counts for `samples` (the entry point the EM loop uses).
///
/// Per edge `e = (u → v)` this convolves `f(u) ⊗ g(v)` **once** over the
/// union of the observed ticks' duration windows,
/// `h_e(d) = Σ_t f(u,t) · g(v, d − t − c_u − c_e)`, then scores every
/// distinct tick against `h_e` — instead of rescanning the product per
/// `(sample, edge)` pair.
pub fn e_step<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    samples: &S,
    params: FbParams,
) -> Result<(EdgeExpectations, FbTables), FbError> {
    e_step_inner(
        cfg,
        block_costs,
        edge_costs,
        probs,
        &samples.counted(),
        samples.cycles_per_tick(),
        params,
        None,
    )
}

/// [`e_step`] with a live [`EStepCache`]: edges whose factor PMFs and
/// scoring window are unchanged since the previous call reuse their windowed
/// convolution. Results are bit-identical to the uncached path.
pub fn e_step_cached<S: DurationSamples + ?Sized>(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    samples: &S,
    params: FbParams,
    cache: &mut EStepCache,
) -> Result<(EdgeExpectations, FbTables), FbError> {
    e_step_inner(
        cfg,
        block_costs,
        edge_costs,
        probs,
        &samples.counted(),
        samples.cycles_per_tick(),
        params,
        Some(cache),
    )
}

/// The E-step over a pre-built distinct-tick histogram `counted` (ascending,
/// as [`DurationSamples::counted`] returns it) observed at `cpt` cycles per
/// tick. The histogram is all the E-step reads of the samples, so the EM
/// loop builds it once per run instead of once per iteration.
#[allow(clippy::too_many_arguments)]
pub(crate) fn e_step_inner(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    counted: &[(u64, usize)],
    cpt: u64,
    params: FbParams,
    mut cache: Option<&mut EStepCache>,
) -> Result<(EdgeExpectations, FbTables), FbError> {
    // Cap the DPs at the largest observed tick's window: no table entry
    // beyond it can enter any score (see [`FbParams::time_cap`]), so this
    // changes no output bit — it only stops the DPs from expanding support
    // past the observation horizon.
    let mut params = params;
    if let Some(&(t_max, _)) = counted.last() {
        if let Ok((_, hi)) = crate::quantize::try_duration_window(t_max, cpt) {
            params.time_cap = params.time_cap.min(hi);
        }
    }
    let tables = compute_tables(cfg, block_costs, edge_costs, probs, params)?;
    if let Some(c) = cache.as_deref_mut() {
        c.observe(&tables);
    }
    let edges = cfg.edges();
    let edge_probs = probs.edge_probs(cfg);
    let duration = tables.duration_pmf(cfg);
    let mut counts = vec![0.0; edges.len()];
    let mut loglik = 0.0;
    let mut unexplained = 0;

    // Normalizers per distinct tick, plus the union window over explained
    // ticks — the support the per-edge convolutions are restricted to.
    let mut explained: Vec<(u64, usize, f64)> = Vec::new();
    let (mut win_lo, mut win_hi) = (u64::MAX, 0u64);
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
        explained.push((t_obs, n, z));
    }

    if !explained.is_empty() {
        for e in edges.iter() {
            let p_e = edge_probs[e.index];
            if p_e <= 0.0 {
                continue;
            }
            let delta = block_costs[e.from.index()] + edge_costs[e.index];
            let f_u = &tables.forward[e.from.index()];
            let g_v = &tables.backward[e.to.index()];
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
            let score = |h: &Pmf, counts: &mut [f64]| {
                for &(t_obs, n, z) in &explained {
                    let acc = pmf_tick_score_soa(h, t_obs, cpt);
                    counts[e.index] += n as f64 * p_e * acc / z;
                }
            };
            match cache.as_deref_mut() {
                Some(c) => {
                    let key = ConvKey {
                        f_version: c.f_version[e.from.index()],
                        g_version: c.g_version[e.to.index()],
                        shift: delta,
                        lo: win_lo,
                        hi: win_hi,
                    };
                    let h = c.conv.get_or_compute(e.index, key, || {
                        pmf::convolve_window_pmf(f_u, g_v, delta, win_lo, win_hi)
                    });
                    score(h, &mut counts);
                }
                None => {
                    let h = pmf::convolve_window_pmf(f_u, g_v, delta, win_lo, win_hi);
                    score(&h, &mut counts);
                }
            }
        }
    }

    Ok((
        EdgeExpectations {
            counts,
            loglik,
            unexplained,
        },
        tables,
    ))
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
            ..FbParams::default()
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
