//! Golden pin of the two transform-side backends, GNT and moments, on real
//! workloads: every registry app, profiled at 8 cycles/tick, once clean and
//! once per `FaultKind` at `ladder_golden`'s rates, fitted to the trimmed
//! samples the ladder's GNT and moments rungs read.
//!
//! Per cell it records, for `estimate_gnt` and `estimate_moments`, the
//! verdict (`ok` or the error variant), the probability bits and the sweep
//! count, which must match exactly, together with each backend's floats:
//!
//! - the moments objective must match bit for bit;
//! - the GNT objective must match to 1e-9 relative, and the GNT
//!   conditioning (also reported inside `IllConditioned`) to 1e-4 relative,
//!   or be infinite on both sides;
//! - the GNT confidence must match to 1e-9 relative plus the shift that
//!   the cell's conditioning drift propagates into it.
//!
//! GNT prices its line-search probes in closed form, so these floats carry
//! rounding drift that the probe comparisons — and with them the
//! probabilities — do not.
//!
//! The expected outcomes live in `tests/data/gnt_golden.txt`. After an
//! intended change of these outputs, rewrite them with
//! `cargo test --release --test gnt_golden -- --ignored` and review the
//! diff.

use ct_core::gnt::{estimate_gnt, GntError, MAX_CONDITIONING};
use ct_core::moments::{estimate_moments, MomentsError};
use ct_core::TrimPolicy;
use ct_faults::{FaultKind, FaultPlan};
use ct_pipeline::{RunConfig, Session};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/gnt_golden.txt");

/// Target invocations profiled per cell.
const INVOCATIONS: usize = 2_000;

/// Timer resolution of every cell (a 1 MHz timer on an 8 MHz core).
const CYCLES_PER_TICK: u64 = 8;

/// Relative tolerance of the GNT objective and confidence.
const GNT_FIT_RTOL: f64 = 1e-9;

/// Relative tolerance of the GNT conditioning ratio.
const GNT_CONDITIONING_RTOL: f64 = 1e-4;

/// The fault rate of each kind's cell, as in `ladder_golden`.
fn rate(kind: FaultKind) -> f64 {
    match kind {
        FaultKind::Duplication | FaultKind::TruncatedBatch | FaultKind::MisreportedResolution => {
            0.5
        }
        _ => 0.3,
    }
}

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn hexes(xs: &[f64]) -> String {
    xs.iter().map(|&x| hex(x)).collect::<Vec<_>>().join(" ")
}

/// The error variant's name: the verdict the golden pins exactly.
fn gnt_verdict(e: &GntError) -> &'static str {
    match e {
        GntError::Divergent => "divergent",
        GntError::Shape(_) => "shape",
        GntError::NoSamples => "no_samples",
        GntError::SaturatedMoments => "saturated_moments",
        GntError::IllConditioned { .. } => "ill_conditioned",
    }
}

fn moments_verdict(e: &MomentsError) -> &'static str {
    match e {
        MomentsError::Divergent => "divergent",
        MomentsError::Shape(_) => "shape",
        MomentsError::NoSamples => "no_samples",
        MomentsError::SaturatedMoments => "saturated_moments",
    }
}

/// One cell's GNT and moments outcomes, one fact per line.
fn cell_record(app: &str, fault: Option<FaultKind>, seed: u64) -> String {
    let mut config = RunConfig::new(app)
        .invocations(INVOCATIONS)
        .resolution(CYCLES_PER_TICK)
        .seeded(seed)
        .no_unroll();
    let label = match fault {
        Some(kind) => {
            config = config.faulted(FaultPlan::single(kind, rate(kind), seed ^ 0x5EED));
            format!("{kind} {}", rate(kind))
        }
        None => "clean".to_string(),
    };
    let run = Session::new(config)
        .collect()
        .unwrap_or_else(|e| panic!("{app} {label}: collection failed: {e}"));
    let (trimmed, _) = run.samples.trimmed(TrimPolicy::default());
    let (cfg, bc, ec) = (run.cfg(), &run.block_costs, &run.edge_costs);

    let mut out = format!("cell {app} {label}\n");
    match estimate_gnt(cfg, bc, ec, &trimmed) {
        Ok(r) => {
            let _ = writeln!(out, "  gnt verdict ok");
            let _ = writeln!(out, "  gnt probs {}", hexes(r.probs.as_slice()));
            let _ = writeln!(out, "  gnt sweeps {}", r.sweeps);
            let _ = writeln!(out, "  gnt objective {}", hex(r.objective));
            let _ = writeln!(out, "  gnt confidence {}", hex(r.confidence));
            let _ = writeln!(out, "  gnt conditioning {}", hex(r.conditioning));
        }
        Err(e) => {
            let _ = writeln!(out, "  gnt verdict {}", gnt_verdict(&e));
            if let GntError::IllConditioned { conditioning, .. } = e {
                let _ = writeln!(out, "  gnt conditioning {}", hex(conditioning));
            }
        }
    }
    match estimate_moments(cfg, bc, ec, &trimmed) {
        Ok(r) => {
            let _ = writeln!(out, "  moments verdict ok");
            let _ = writeln!(out, "  moments probs {}", hexes(r.probs.as_slice()));
            let _ = writeln!(out, "  moments sweeps {}", r.sweeps);
            let _ = writeln!(out, "  moments objective {}", hex(r.objective));
        }
        Err(e) => {
            let _ = writeln!(out, "  moments verdict {}", moments_verdict(&e));
        }
    }
    out
}

/// Every cell's record, in registry order.
fn all_records() -> String {
    let mut cells: Vec<(&str, Option<FaultKind>)> = Vec::new();
    for app in ct_apps::all_apps() {
        cells.push((app.name, None));
        cells.extend(FaultKind::ALL.into_iter().map(|k| (app.name, Some(k))));
    }
    let records = ct_stats::parallel::par_map(
        cells.into_iter().enumerate().collect(),
        |(i, (app, fault))| cell_record(app, fault, 3_000 + i as u64),
    );
    records.concat()
}

fn parse_hex(s: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(s, 16).expect("hex float bits"))
}

/// The records split into cells: each cell's header line, then its facts.
fn cells(records: &str) -> Vec<Vec<&str>> {
    let mut cells: Vec<Vec<&str>> = Vec::new();
    for line in records.lines() {
        match cells.last_mut() {
            Some(cell) if !line.starts_with("cell ") => cell.push(line),
            _ => cells.push(vec![line]),
        }
    }
    cells
}

/// A cell's value of the float fact `key`.
fn fact(cell: &[&str], key: &str) -> Option<f64> {
    cell.iter()
        .find_map(|line| line.trim().strip_prefix(key))
        .map(|v| parse_hex(v.trim()))
}

/// How far a GNT confidence may drift: `GNT_FIT_RTOL` of itself, plus
/// what the cell's conditioning drift moves it by. The confidence is the
/// fit term (at most 1) times `1 − ln(conditioning)/ln(budget)`, so near
/// the budget its relative drift grows as `1/ln(budget/conditioning)`.
fn confidence_tolerance(want: &[&str], got: &[&str], confidence: f64) -> f64 {
    let budget = MAX_CONDITIONING;
    let shift = match (
        fact(want, "gnt conditioning "),
        fact(got, "gnt conditioning "),
    ) {
        (Some(w), Some(g)) => (w.ln() - g.ln()).abs() / budget.ln(),
        _ => 0.0,
    };
    GNT_FIT_RTOL * confidence + shift
}

#[test]
fn gnt_and_moments_outcomes_match_the_golden_on_every_app_and_fault() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let got = all_records();
    let (want_cells, got_cells) = (cells(&want), cells(&got));
    assert_eq!(
        want_cells.len(),
        got_cells.len(),
        "golden and run differ in cell count"
    );
    for (wc, gc) in want_cells.iter().zip(&got_cells) {
        let cell = wc[0];
        assert_eq!(wc.len(), gc.len(), "record layout drifted in `{cell}`");
        for (w, g) in wc.iter().zip(gc) {
            let (wk, wv) = w.rsplit_once(' ').expect("key and value");
            let (gk, gv) = g.rsplit_once(' ').expect("key and value");
            let key = wk.trim();
            let floats = || (parse_hex(wv), parse_hex(gv));
            let (wx, gx, tol) = match key {
                "gnt objective" => {
                    let (wx, gx) = floats();
                    (wx, gx, GNT_FIT_RTOL * wx.abs().max(gx.abs()))
                }
                "gnt conditioning" => {
                    let (wx, gx) = floats();
                    (wx, gx, GNT_CONDITIONING_RTOL * wx.abs().max(gx.abs()))
                }
                "gnt confidence" => {
                    let (wx, gx) = floats();
                    (wx, gx, confidence_tolerance(wc, gc, wx.abs().max(gx.abs())))
                }
                _ => {
                    assert_eq!(w, g, "outcome drifted in `{cell}`");
                    continue;
                }
            };
            assert_eq!(wk, gk, "record layout drifted in `{cell}`");
            let agree = if wx.is_infinite() || gx.is_infinite() {
                wx == gx
            } else {
                (wx - gx).abs() <= tol
            };
            assert!(
                agree,
                "`{key}` drifted beyond {tol:e} in `{cell}`: {wx:e} vs {gx:e}"
            );
        }
    }
}

#[test]
#[ignore = "rewrites the golden file; run after an intended change"]
fn regenerate_gnt_golden() {
    std::fs::write(GOLDEN, all_records()).expect("golden file written");
}
