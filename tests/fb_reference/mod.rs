//! Reference (first-generation) forward–backward implementation.
//!
//! This is the original `BTreeMap`-frontier engine: one time-expanded DP for
//! the forward table plus one *independent* DP per block for the backward
//! table, and an E-step that rescans the `f ⊗ g` product for every
//! `(sample, edge)` pair. It is kept verbatim as the numerical oracle for the
//! golden-equivalence tests of the E-step in `ct_core::fb`
//! (`tests/golden_fb.rs`) — it is not wired into any estimator, and lives
//! with the tests that read it.
//!
//! Asymptotics (the reason it was replaced): `O(|B|)` backward DPs per
//! parameter vector and `O(samples · edges · |f|·|g|)` E-step work, versus
//! one forward propagation and one backward sweep over its trellis in the
//! current engine.

use ct_cfg::graph::{BlockId, Cfg, Terminator};
use ct_cfg::profile::BranchProbs;
use ct_core::fb::{EdgeExpectations, FbError, FbParams, SparsePmf};
use ct_core::quantize::{duration_window, tick_likelihood};
use ct_core::samples::TimingSamples;
use ct_stats::pmf::Pmf;
use std::collections::BTreeMap;

/// Forward and backward tables for one parameter vector.
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

/// Computes forward and backward tables with the reference per-block DPs.
///
/// # Errors
///
/// [`FbError::SupportExplosion`] when a DP exceeds `max_entries`, and
/// [`FbError::Shape`] for mismatched cost vectors.
pub fn compute_tables(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    params: FbParams,
) -> Result<FbTables, FbError> {
    if block_costs.len() != cfg.len() {
        return Err(FbError::Shape(format!(
            "expected {} block costs, got {}",
            cfg.len(),
            block_costs.len()
        )));
    }
    if edge_costs.len() != cfg.edges().len() {
        return Err(FbError::Shape(format!(
            "expected {} edge costs, got {}",
            cfg.edges().len(),
            edge_costs.len()
        )));
    }
    let edge_probs = probs.edge_probs(cfg);
    let out_edges = collect_out_edges(cfg);

    let mut truncated = 0.0;
    let forward = forward_table(
        cfg,
        block_costs,
        edge_costs,
        &edge_probs,
        &out_edges,
        params,
        &mut truncated,
    )?;
    let mut backward = Vec::with_capacity(cfg.len());
    for b in cfg.block_ids() {
        backward.push(remaining_pmf(
            cfg,
            b,
            block_costs,
            edge_costs,
            &edge_probs,
            &out_edges,
            params,
            &mut truncated,
        )?);
    }
    // The reference DPs build tuple-layout PMFs; `FbTables` stores them
    // structure-of-arrays.
    Ok(FbTables {
        forward: forward.into_iter().map(Pmf::from_sorted).collect(),
        backward: backward.into_iter().map(Pmf::from_sorted).collect(),
        truncated,
    })
}

/// Out-edges per block: `(edge_index, to)`.
fn collect_out_edges(cfg: &Cfg) -> Vec<Vec<(usize, BlockId)>> {
    let mut out = vec![Vec::new(); cfg.len()];
    for e in cfg.edges() {
        out[e.from.index()].push((e.index, e.to));
    }
    out
}

fn forward_table(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    edge_probs: &[f64],
    out_edges: &[Vec<(usize, BlockId)>],
    params: FbParams,
    truncated: &mut f64,
) -> Result<Vec<SparsePmf>, FbError> {
    let n = cfg.len();
    let mut acc: Vec<BTreeMap<u64, f64>> = vec![BTreeMap::new(); n];
    let mut frontier: BTreeMap<(usize, u64), f64> = BTreeMap::new();
    frontier.insert((cfg.entry().index(), 0), 1.0);
    acc[cfg.entry().index()].insert(0, 1.0);
    let mut processed: usize = 0;

    while !frontier.is_empty() {
        processed += frontier.len();
        if processed > params.max_entries {
            return Err(FbError::SupportExplosion {
                max_entries: params.max_entries,
            });
        }
        let mut next: BTreeMap<(usize, u64), f64> = BTreeMap::new();
        for ((b, t), mass) in frontier {
            if matches!(cfg.block(BlockId(b as u32)).term, Terminator::Return) {
                continue; // absorbed; arrival already recorded
            }
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
                let t2 = t + block_costs[b] + edge_costs[ei];
                *next.entry((v.index(), t2)).or_insert(0.0) += m;
                *acc[v.index()].entry(t2).or_insert(0.0) += m;
            }
        }
        frontier = next;
    }
    Ok(acc.into_iter().map(|m| m.into_iter().collect()).collect())
}

/// Distribution of total remaining duration from `start` (including
/// executing `start`).
#[allow(clippy::too_many_arguments)]
fn remaining_pmf(
    cfg: &Cfg,
    start: BlockId,
    block_costs: &[u64],
    edge_costs: &[u64],
    edge_probs: &[f64],
    out_edges: &[Vec<(usize, BlockId)>],
    params: FbParams,
    truncated: &mut f64,
) -> Result<SparsePmf, FbError> {
    let mut result: BTreeMap<u64, f64> = BTreeMap::new();
    let mut frontier: BTreeMap<(usize, u64), f64> = BTreeMap::new();
    frontier.insert((start.index(), 0), 1.0);
    let mut processed: usize = 0;

    while !frontier.is_empty() {
        processed += frontier.len();
        if processed > params.max_entries {
            return Err(FbError::SupportExplosion {
                max_entries: params.max_entries,
            });
        }
        let mut next: BTreeMap<(usize, u64), f64> = BTreeMap::new();
        for ((b, t), mass) in frontier {
            let t_after = t + block_costs[b];
            if matches!(cfg.block(BlockId(b as u32)).term, Terminator::Return) {
                *result.entry(t_after).or_insert(0.0) += mass;
                continue;
            }
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
                *next
                    .entry((v.index(), t_after + edge_costs[ei]))
                    .or_insert(0.0) += m;
            }
        }
        frontier = next;
    }
    Ok(result.into_iter().collect())
}

/// Reference E-step: rescans the `f ⊗ g` product per `(sample, edge)` pair.
///
/// # Errors
///
/// Same contract as `ct_core::fb::e_step`.
pub fn e_step(
    cfg: &Cfg,
    block_costs: &[u64],
    edge_costs: &[u64],
    probs: &BranchProbs,
    samples: &TimingSamples,
    params: FbParams,
) -> Result<EdgeExpectations, FbError> {
    let tables = compute_tables(cfg, block_costs, edge_costs, probs, params)?;
    let cpt = samples.cycles_per_tick();
    let edges = cfg.edges();
    let edge_probs = probs.edge_probs(cfg);
    // Materialize the tuple layout once: the reference E-step predates the
    // SoA tables and is kept verbatim below.
    let fwd: Vec<SparsePmf> = tables.forward.iter().map(|p| p.entries()).collect();
    let bwd: Vec<SparsePmf> = tables.backward.iter().map(|p| p.entries()).collect();
    let duration = &bwd[cfg.entry().index()];
    let mut counts = vec![0.0; edges.len()];
    let mut loglik = 0.0;
    let mut unexplained = 0;

    for (t_obs, n) in samples.counted() {
        let (lo, hi) = duration_window(t_obs, cpt);
        let z: f64 = pmf_slice(duration, lo, hi)
            .iter()
            .map(|&(d, p)| p * tick_likelihood(t_obs, d, cpt))
            .sum();
        if z <= 1e-300 {
            unexplained += n;
            continue;
        }
        loglik += n as f64 * z.ln();

        for e in edges.iter() {
            let p_e = edge_probs[e.index];
            if p_e <= 0.0 {
                continue;
            }
            let delta = block_costs[e.from.index()] + edge_costs[e.index];
            let f_u = &fwd[e.from.index()];
            let g_v = &bwd[e.to.index()];
            let mut acc = 0.0;
            for &(t, fm) in f_u {
                let base = t + delta;
                if base > hi {
                    continue;
                }
                let s_lo = lo.saturating_sub(base);
                let s_hi = hi - base;
                for &(s, gm) in pmf_slice(g_v, s_lo, s_hi) {
                    let k = tick_likelihood(t_obs, base + s, cpt);
                    if k > 0.0 {
                        acc += fm * gm * k;
                    }
                }
            }
            counts[e.index] += n as f64 * p_e * acc / z;
        }
    }

    Ok(EdgeExpectations {
        counts,
        loglik,
        unexplained,
    })
}

fn pmf_slice(pmf: &SparsePmf, lo: u64, hi: u64) -> &[(u64, f64)] {
    if lo > hi {
        return &[];
    }
    let start = pmf.partition_point(|&(d, _)| d < lo);
    let end = pmf.partition_point(|&(d, _)| d <= hi);
    &pmf[start..end]
}
