//! Golden-equivalence tests: the E-step (`ct_core::fb`) must reproduce the
//! reference `BTreeMap` engine (the [`fb_reference`] test-support module)
//! on every app in the registry, to 1e-9: its duration PMF and its counts.
//!
//! The reference runs one independent time-expanded DP per block and rescans
//! the `f ⊗ g` product per `(sample, edge)` pair; the E-step runs one
//! forward propagation and one backward sweep over its trellis. Pruning
//! decisions are made against different intermediate merges, so the suite
//! runs at `mass_eps = 1e-12` — any pruning disagreement is then orders of
//! magnitude below the 1e-9 comparison tolerance, except where the
//! reference's per-block pruning breaks flow conservation itself
//! ([`REFERENCE_BREAKS_FLOW`]); there the engine is held to conservation
//! instead.

use ct_cfg::graph::Terminator;
use ct_cfg::profile::BranchProbs;
use ct_core::fb::{e_step, e_step_planned, FbParams, FbPlan, FbScratch};
use ct_core::samples::TimingSamples;
use ct_mote::cost::AvrCost;

mod fb_reference;

const TOL: f64 = 1e-9;

/// Relative flow-conservation tolerance: the most a block's expected
/// in-count and out-count may differ by.
const FLOW_TOL: f64 = 1e-12;

fn params() -> FbParams {
    FbParams {
        mass_eps: 1e-12,
        ..FbParams::default()
    }
}

/// Deterministic non-uniform branch probabilities, distinct per branch.
fn probs_for(cfg: &ct_cfg::graph::Cfg) -> BranchProbs {
    let n = cfg.branch_blocks().len();
    let values: Vec<f64> = (0..n)
        .map(|i| 0.15 + 0.7 * (((i * 37) % 100) as f64 / 100.0))
        .collect();
    BranchProbs::from_vec(cfg, values)
}

/// Each registry app's target procedure with its real static costs.
fn registry_problems() -> Vec<(String, ct_cfg::graph::Cfg, Vec<u64>, Vec<u64>)> {
    ct_apps::all_apps()
        .iter()
        .map(|app| {
            let mote = app.boot(Box::new(AvrCost));
            let pid = app.target_id(mote.program());
            let cfg = mote.program().procs[pid.index()].cfg.clone();
            let bc = mote.static_block_costs(pid).to_vec();
            let ec = mote.static_edge_costs(pid).to_vec();
            (app.name.to_string(), cfg, bc, ec)
        })
        .collect()
}

/// The engines prune against different intermediate merges, so at the tail a
/// support point can survive in one and not the other; such points must carry
/// mass below tolerance, and shared points must agree to tolerance.
fn assert_pmf_close(name: &str, new: &[(u64, f64)], old: &[(u64, f64)]) {
    let to_map = |p: &[(u64, f64)]| {
        p.iter()
            .copied()
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    let (mn, mo) = (to_map(new), to_map(old));
    for (&d, &m) in &mn {
        let other = mo.get(&d).copied().unwrap_or(0.0);
        assert!(
            (m - other).abs() < TOL,
            "{name}: duration mass at {d}: {m} vs {other}"
        );
    }
    for (&d, &m) in &mo {
        if !mn.contains_key(&d) {
            assert!(
                m.abs() < TOL,
                "{name}: duration point {d} (mass {m}) missing in the E-step"
            );
        }
    }
}

/// The duration PMF the E-step reads off its trellis: what an E-step on no
/// ticks leaves behind.
fn e_step_duration(
    cfg: &ct_cfg::graph::Cfg,
    bc: &[u64],
    ec: &[u64],
    probs: &BranchProbs,
    params: FbParams,
) -> Vec<(u64, f64)> {
    let mut scratch = FbScratch::new();
    e_step_planned(
        &FbPlan::new(cfg),
        &mut scratch,
        bc,
        ec,
        probs,
        &[],
        1,
        params,
    )
    .unwrap_or_else(|e| panic!("{}: E-step failed: {e}", cfg.name()));
    scratch.duration().entries()
}

/// The duration table — the one table an estimator reads, built by the
/// E-step's forward trellis — against the reference's `g(entry)`, pointwise.
#[test]
fn tables_match_reference_on_app_registry() {
    for (name, cfg, bc, ec) in registry_problems() {
        let probs = probs_for(&cfg);
        let old = fb_reference::compute_tables(&cfg, &bc, &ec, &probs, params())
            .unwrap_or_else(|e| panic!("{name}: reference engine failed: {e}"));
        // The reference runs one DP per block and prunes in each, but its
        // total pruned mass must stay tiny.
        assert!(
            old.truncated < 1e-5,
            "{name}: reference truncated {}",
            old.truncated
        );
        let new = e_step_duration(&cfg, &bc, &ec, &probs, params());
        assert_pmf_close(&name, &new, &old.duration_pmf(&cfg).entries());
    }
}

#[test]
fn tables_match_reference_at_default_pruning() {
    // At the production mass_eps = 1e-9 the engines may prune different
    // intermediate merges; the total duration distributions must still agree
    // to well within the pruned mass budget.
    for (name, cfg, bc, ec) in registry_problems() {
        let probs = probs_for(&cfg);
        let p = FbParams::default();
        let old = fb_reference::compute_tables(&cfg, &bc, &ec, &probs, p).unwrap();
        let mass_new: f64 = e_step_duration(&cfg, &bc, &ec, &probs, p)
            .iter()
            .map(|&(_, m)| m)
            .sum();
        let mass_old = old.duration_pmf(&cfg).total_mass();
        assert!(
            (mass_new - mass_old).abs() < 1e-6,
            "{name}: duration mass {mass_new} vs {mass_old}"
        );
    }
}

/// Ticks covering the duration distribution at a given timer resolution:
/// every distinct quantization of the support, with varying multiplicities.
fn ticks_covering(duration: &[(u64, f64)], cpt: u64) -> TimingSamples {
    let mut ticks = Vec::new();
    for (i, &(d, _)) in duration.iter().enumerate().take(40) {
        let t = d / cpt;
        for _ in 0..(1 + (i % 4) as u64) {
            ticks.push(t);
        }
        // Exercise the upper quantization cell too.
        if d % cpt != 0 {
            ticks.push(t + 1);
        }
    }
    // One impossible observation: both engines must agree on `unexplained`.
    ticks.push(duration.last().map_or(1, |&(d, _)| d / cpt + 1000));
    TimingSamples::new(ticks, cpt)
}

/// The largest relative gap between a block's expected in-count and
/// out-count under `counts`, over every block but the entry and the Return
/// blocks.
fn flow_gap(cfg: &ct_cfg::graph::Cfg, counts: &[f64]) -> f64 {
    let (mut inflow, mut outflow) = (vec![0.0; cfg.len()], vec![0.0; cfg.len()]);
    for e in cfg.edges() {
        inflow[e.to.index()] += counts[e.index];
        outflow[e.from.index()] += counts[e.index];
    }
    cfg.iter()
        .filter(|&(b, block)| b != cfg.entry() && block.term != Terminator::Return)
        .map(|(b, _)| {
            let (i, o) = (inflow[b.index()], outflow[b.index()]);
            if i == o {
                0.0
            } else {
                (i - o).abs() / i.abs().max(o.abs())
            }
        })
        .fold(0.0, f64::max)
}

/// The cells where the reference E-step breaks flow conservation by more
/// than 1e-12 relative, with its own gap: its backward tables are pruned
/// per block, so some paths' suffixes are cut where their prefixes are not.
/// Its counts are no oracle there; the engine's are held to conservation.
const REFERENCE_BREAKS_FLOW: [(&str, u64); 2] = [("surge", 8), ("surge", 64)];

#[test]
fn e_step_matches_reference_on_app_registry() {
    let mut breaks = Vec::new();
    for (name, cfg, bc, ec) in registry_problems() {
        let probs = probs_for(&cfg);
        let tables = fb_reference::compute_tables(&cfg, &bc, &ec, &probs, params())
            .unwrap_or_else(|e| panic!("{name}: reference tables failed: {e}"));
        let duration = tables.duration_pmf(&cfg).entries();
        assert!(!duration.is_empty(), "{name}: empty duration distribution");

        // Cycle-accurate and two coarse timers.
        for cpt in [1u64, 8, 64] {
            let samples = ticks_covering(&duration, cpt);
            let new = e_step(&cfg, &bc, &ec, &probs, &samples, params())
                .unwrap_or_else(|e| panic!("{name}: new e_step failed: {e}"));
            let old = fb_reference::e_step(&cfg, &bc, &ec, &probs, &samples, params())
                .unwrap_or_else(|e| panic!("{name}: reference e_step failed: {e}"));

            let gap = flow_gap(&cfg, &new.counts);
            assert!(gap <= FLOW_TOL, "{name} cpt={cpt}: flow gap {gap:e}");
            let scale = 1.0 + old.loglik.abs();
            assert!(
                (new.loglik - old.loglik).abs() < TOL * scale,
                "{name} cpt={cpt}: loglik {} vs {}",
                new.loglik,
                old.loglik
            );
            assert_eq!(
                new.unexplained, old.unexplained,
                "{name} cpt={cpt}: unexplained"
            );
            assert_eq!(new.counts.len(), old.counts.len());
            if flow_gap(&cfg, &old.counts) > FLOW_TOL {
                breaks.push((name.clone(), cpt));
                continue;
            }
            for (i, (cn, co)) in new.counts.iter().zip(&old.counts).enumerate() {
                let scale = 1.0 + co.abs();
                assert!(
                    (cn - co).abs() < TOL * scale,
                    "{name} cpt={cpt}: counts[{i}] {cn} vs {co}"
                );
            }
        }
    }
    let want: Vec<(String, u64)> = REFERENCE_BREAKS_FLOW
        .iter()
        .map(|&(name, cpt)| (name.to_string(), cpt))
        .collect();
    assert_eq!(breaks, want, "cells where the reference breaks flow");
}
