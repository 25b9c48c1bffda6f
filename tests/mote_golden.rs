//! Golden pin of the mote interpreter: every registry app on both MCU cost
//! models, under its natural layout and under one permuted layout, driven
//! for a fixed number of invocations with a fixed seed.
//!
//! Per cell it records what a profiled run hands the rest of the system:
//! the cycles the run used, the full virtual-PMU snapshot (every counter of
//! every procedure and the total), a digest of every procedure's timing
//! samples and the exact ground-truth edge counts. Any change to what the
//! interpreter charges, counts or computes moves at least one of these.
//!
//! The expected outcomes live in `tests/data/mote_golden.txt`. After an
//! intended change of the interpreter's outputs, rewrite them with
//! `cargo test --release --test mote_golden -- --ignored` and review the
//! diff.

use ct_apps::App;
use ct_cfg::graph::BlockId;
use ct_cfg::layout::Layout;
use ct_ir::instr::ProcId;
use ct_mote::cost::{AvrCost, CostModel, Msp430Cost};
use ct_mote::pmu::PmuCounters;
use ct_mote::timer::VirtualTimer;
use ct_mote::trace::{GroundTruthProfiler, PairProfiler, TimingProfiler};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/mote_golden.txt");

/// Target invocations driven per cell.
const INVOCATIONS: usize = 300;

/// The mote seed of every cell (inputs, radio loss).
const SEED: u64 = 0x60_1DE5;

/// Timer resolution of every cell (a 1 MHz timer on an 8 MHz core).
const CYCLES_PER_TICK: u64 = 8;

/// Cycles charged per timestamp, so the overhead path is pinned too.
const TS_OVERHEAD: u64 = 6;

/// A layout that moves every block but the entry: the rest in reverse id
/// order, so fall-throughs, taken branches and jumps all change.
fn permuted(cfg: &ct_cfg::graph::Cfg) -> Layout {
    let mut rest: Vec<BlockId> = cfg.block_ids().filter(|&b| b != cfg.entry()).collect();
    rest.reverse();
    let mut order = vec![cfg.entry()];
    order.extend(rest);
    Layout::from_order(cfg, order).expect("entry-first permutation is a valid layout")
}

/// FNV-1a over the samples, each as eight little-endian bytes.
fn digest(samples: &[u64]) -> u64 {
    samples
        .iter()
        .flat_map(|s| s.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn counters(c: &PmuCounters) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {}",
        c.cond_taken,
        c.cond_not_taken,
        c.jumps,
        c.fall_throughs,
        c.calls,
        c.returns,
        c.mispred_ant,
        c.mispred_btfnt,
        c.cycles
    )
}

/// One cell's outcomes, one fact per line.
fn cell_record(app: &App, mcu: &str, permute: bool) -> String {
    let model: Box<dyn CostModel> = match mcu {
        "avr" => Box::new(AvrCost),
        _ => Box::new(Msp430Cost),
    };
    let mut mote = app.boot(model);
    mote.reseed(SEED);
    let program = mote.program().clone();
    if permute {
        for (i, p) in program.procs.iter().enumerate() {
            mote.set_layout(ProcId(i as u32), permuted(&p.cfg));
        }
    }
    let pid = app.target_id(&program);
    let mut truth = GroundTruthProfiler::new(&program);
    let mut timing = TimingProfiler::new(&program, VirtualTimer::new(CYCLES_PER_TICK), TS_OVERHEAD);
    let start = mote.cycles;
    for i in 0..INVOCATIONS {
        if let Some(hook) = app.per_call {
            hook(&mut mote, i);
        }
        let mut pair = PairProfiler {
            a: &mut truth,
            b: &mut timing,
        };
        mote.call(pid, &[], &mut pair)
            .unwrap_or_else(|e| panic!("{} trapped: {e}", app.name));
    }

    let layout = if permute { "permuted" } else { "natural" };
    let mut out = format!("cell {} {mcu} {layout}\n", app.name);
    let _ = writeln!(out, "  cycles_used {}", mote.cycles - start);
    let pmu = mote.pmu.snapshot();
    for (i, c) in pmu.procs.iter().enumerate() {
        let _ = writeln!(out, "  pmu p{i} {}", counters(c));
    }
    let _ = writeln!(out, "  pmu total {}", counters(&pmu.total));
    for (i, samples) in timing.into_samples().iter().enumerate() {
        let _ = writeln!(
            out,
            "  samples p{i} {} {:016x}",
            samples.len(),
            digest(samples)
        );
    }
    for i in 0..program.procs.len() {
        let p = ProcId(i as u32);
        let counts: Vec<String> = truth
            .profile(p)
            .counts()
            .iter()
            .map(u64::to_string)
            .collect();
        let _ = writeln!(
            out,
            "  edges p{i} {} {}",
            truth.invocations(p),
            counts.join(" ")
        );
    }
    out
}

/// Every cell's record: registry order, then MCU, then layout.
fn all_records() -> String {
    let mut cells = Vec::new();
    for app in ct_apps::all_apps() {
        for mcu in ["avr", "msp430"] {
            for permute in [false, true] {
                cells.push((app.clone(), mcu, permute));
            }
        }
    }
    ct_stats::parallel::par_map(cells, |(app, mcu, permute)| cell_record(&app, mcu, permute))
        .concat()
}

#[test]
fn interpreter_outputs_match_the_golden_on_every_app_mcu_and_layout() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let got = all_records();
    let mut cell = "";
    for (w, g) in want.lines().zip(got.lines()) {
        if w.starts_with("cell ") {
            cell = w;
        }
        assert_eq!(w, g, "interpreter output drifted in `{cell}`");
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "golden and run differ in record count"
    );
}

#[test]
#[ignore = "rewrites the golden file; run after an intended change"]
fn regenerate_mote_golden() {
    std::fs::write(GOLDEN, all_records()).expect("golden file written");
}
