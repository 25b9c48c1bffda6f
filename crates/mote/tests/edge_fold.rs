//! The PMU counts one hit per edge traversal and folds the hits through
//! the mote's own per-edge transfer table at snapshot; the run's ground
//! truth is read off the same hits. These tests hold both against
//! per-traversal references: ct-cfg's `Layout::edge_transfers` for the
//! classification, and an oracle profiler that classifies every traversal
//! with it and counts edges with `GroundTruthProfiler`.

use ct_apps::{all_apps, App};
use ct_cfg::graph::{BlockId, Cfg};
use ct_cfg::layout::{BranchPredictor, EdgeTransfer, Layout, TransferKind};
use ct_ir::instr::ProcId;
use ct_mote::cost::{AvrCost, CostModel, Msp430Cost};
use ct_mote::devices::UniformAdc;
use ct_mote::interp::{Mote, TrapKind};
use ct_mote::pmu::PmuCounters;
use ct_mote::trace::{GroundTruthProfiler, Profiler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A program that traps on division by zero (through a nested call) when
/// its ADC input lands on a multiple of 5 above 3.
const DIVIDER: &str = "module Div {
    var acc: u16;
    proc step(v: u16) -> u16 {
        var r: u16 = 0;
        if (v > 3) { r = 100 / (v % 5); } else { r = v; }
        return r;
    }
    proc run() {
        var v: u16 = read_adc();
        var i: u16 = 0;
        while (i < 4) { acc = acc + step(v + i); i = i + 1; }
    }
}";

/// One workload: a configured mote, its target and its per-call hook.
struct Workload {
    mote: Mote,
    pid: ProcId,
    per_call: Option<fn(&mut Mote, usize)>,
}

/// Workload `which`: a registry app, or [`DIVIDER`] one past the last.
fn workload(apps: &[App], which: usize, model: Box<dyn CostModel>) -> Workload {
    match apps.get(which) {
        Some(app) => {
            let mote = app.boot(model);
            let pid = app.target_id(mote.program());
            Workload {
                mote,
                pid,
                per_call: app.per_call,
            }
        }
        None => {
            let program = ct_ir::compile_source(DIVIDER).unwrap();
            let pid = program.proc_id("run").unwrap();
            let mut mote = Mote::new(program, model);
            mote.devices.adc = Box::new(UniformAdc { lo: 0, hi: 60 });
            Workload {
                mote,
                pid,
                per_call: None,
            }
        }
    }
}

fn model(msp: bool) -> Box<dyn CostModel> {
    if msp {
        Box::new(Msp430Cost)
    } else {
        Box::new(AvrCost)
    }
}

/// A uniformly random valid layout (entry first).
fn random_layout(cfg: &Cfg, rng: &mut StdRng) -> Layout {
    let mut rest: Vec<BlockId> = cfg.block_ids().skip(1).collect();
    rest.shuffle(rng);
    let mut order = vec![cfg.entry()];
    order.extend(rest);
    Layout::from_order(cfg, order).unwrap()
}

/// Every block in reverse id order, except the entry, which stays first.
fn reversed_layout(cfg: &Cfg) -> Layout {
    let mut rest: Vec<BlockId> = cfg.block_ids().filter(|&b| b != cfg.entry()).collect();
    rest.reverse();
    let mut order = vec![cfg.entry()];
    order.extend(rest);
    Layout::from_order(cfg, order).unwrap()
}

/// The per-traversal reference: classifies each traversal with ct-cfg's
/// `Layout::edge_transfers` and counts it as the PMU's transfer counters
/// would, and counts edges and calls with a `GroundTruthProfiler`.
struct Oracle {
    truth: GroundTruthProfiler,
    tables: Vec<Vec<EdgeTransfer>>,
    counters: Vec<PmuCounters>,
}

impl Oracle {
    /// A zeroed oracle classifying under `mote`'s installed layouts.
    fn new(mote: &Mote) -> Oracle {
        let procs = &mote.program().procs;
        Oracle {
            truth: GroundTruthProfiler::new(mote.program()),
            tables: (0..procs.len())
                .map(|i| Oracle::table(mote, ProcId(i as u32)))
                .collect(),
            counters: vec![PmuCounters::default(); procs.len()],
        }
    }

    fn table(mote: &Mote, proc: ProcId) -> Vec<EdgeTransfer> {
        let cfg = &mote.program().procs[proc.index()].cfg;
        mote.layout(proc).edge_transfers(cfg)
    }

    /// Follows a relayout of `proc` on `mote`.
    fn relayout(&mut self, mote: &Mote, proc: ProcId) {
        self.tables[proc.index()] = Oracle::table(mote, proc);
    }
}

impl Profiler for Oracle {
    fn on_proc_enter(&mut self, proc: ProcId, cycles: u64) -> u64 {
        self.truth.on_proc_enter(proc, cycles)
    }

    fn on_edge(&mut self, proc: ProcId, edge_index: usize) -> u64 {
        let t = self.tables[proc.index()][edge_index];
        let c = &mut self.counters[proc.index()];
        match t.kind {
            TransferKind::FallThrough => c.fall_throughs += 1,
            TransferKind::Jump => c.jumps += 1,
            TransferKind::TakenBranch | TransferKind::TakenBranchOverJump => {}
        }
        if t.conditional {
            if t.taken {
                c.cond_taken += 1;
            } else {
                c.cond_not_taken += 1;
            }
            if BranchPredictor::AlwaysNotTaken.mispredicts(t.taken, t.backward_target) {
                c.mispred_ant += 1;
            }
            if BranchPredictor::Btfnt.mispredicts(t.taken, t.backward_target) {
                c.mispred_btfnt += 1;
            }
        }
        self.truth.on_edge(proc, edge_index)
    }
}

/// The folded snapshot's transfer counters and calls, and the ground truth
/// read off the edge hits, equal the oracle's.
fn check(mote: &Mote, oracle: &Oracle, when: &str) -> Result<(), TestCaseError> {
    let snap = mote.pmu.snapshot();
    let truth = mote.ground_truth();
    let transfers = |c: &PmuCounters| {
        [
            c.cond_taken,
            c.cond_not_taken,
            c.jumps,
            c.fall_throughs,
            c.mispred_ant,
            c.mispred_btfnt,
        ]
    };
    for (i, (c, o)) in snap.procs.iter().zip(&oracle.counters).enumerate() {
        let p = ProcId(i as u32);
        let (folded, traversed) = (transfers(c), transfers(o));
        prop_assert_eq!(
            folded,
            traversed,
            "{} p{}: {:?} vs {:?}",
            when,
            i,
            folded,
            traversed
        );
        prop_assert_eq!(
            c.calls,
            oracle.truth.invocations(p),
            "{} p{}: calls",
            when,
            i
        );
        let (hits, bumps) = (truth.profile(p), oracle.truth.profile(p));
        prop_assert_eq!(hits, bumps, "{} p{}: {:?} vs {:?}", when, i, hits, bumps);
        prop_assert_eq!(truth.invocations(p), oracle.truth.invocations(p));
    }
    Ok(())
}

/// Drives workload `which` for `calls` invocations from random layouts,
/// with a random step budget on about one call in four; relayouts every
/// procedure at call `relayout` (no PMU reset) and resets the PMU at call
/// `reset`, checking against the oracle before each and at the end.
/// Returns the trap kinds seen.
fn scenario(
    which: usize,
    msp: bool,
    seed: u64,
    calls: usize,
    relayout: usize,
    reset: usize,
) -> Result<Vec<TrapKind>, TestCaseError> {
    let apps = all_apps();
    let Workload {
        mut mote,
        pid,
        per_call,
    } = workload(&apps, which, model(msp));
    let mut rng = StdRng::seed_from_u64(seed);
    let cfgs: Vec<Cfg> = mote.program().procs.iter().map(|p| p.cfg.clone()).collect();
    let relayout_all = |mote: &mut Mote, rng: &mut StdRng| {
        for (i, cfg) in cfgs.iter().enumerate() {
            mote.set_layout(ProcId(i as u32), random_layout(cfg, rng));
        }
    };
    relayout_all(&mut mote, &mut rng);
    // Set-up calls (fir's `init`) happened before the oracle existed.
    mote.pmu.reset();
    let mut oracle = Oracle::new(&mote);
    let mut traps = Vec::new();
    for i in 0..calls {
        if i == relayout {
            check(&mote, &oracle, "before the relayout")?;
            relayout_all(&mut mote, &mut rng);
            for p in 0..cfgs.len() {
                oracle.relayout(&mote, ProcId(p as u32));
            }
        }
        if i == reset {
            check(&mote, &oracle, "before the reset")?;
            mote.pmu.reset();
            oracle = Oracle::new(&mote);
        }
        if let Some(hook) = per_call {
            hook(&mut mote, i);
        }
        mote.config.step_limit = if rng.gen_range(0u32..4) == 0 {
            rng.gen_range(1u64..400)
        } else {
            10_000_000
        };
        if let Err(e) = mote.call(pid, &[], &mut oracle) {
            traps.push(e.kind);
        }
    }
    check(&mote, &oracle, "at the end")?;
    Ok(traps)
}

/// The mote's own classification of its placed image equals ct-cfg's
/// `Layout::edge_transfers`, and its edge costs price each transfer, for
/// every procedure of every registry app under the natural, the reversed
/// and 20 random layouts.
#[test]
fn mote_classifier_matches_layout_edge_transfers() {
    let mut rng = StdRng::seed_from_u64(0xED6E);
    for app in all_apps() {
        for msp in [false, true] {
            let mut mote = Mote::new(app.compile(), model(msp));
            let penalties = mote.cost_model().penalties();
            let cfgs: Vec<Cfg> = mote.program().procs.iter().map(|p| p.cfg.clone()).collect();
            for (i, cfg) in cfgs.iter().enumerate() {
                let p = ProcId(i as u32);
                let mut layouts = vec![Layout::natural(cfg), reversed_layout(cfg)];
                layouts.extend((0..20).map(|_| random_layout(cfg, &mut rng)));
                for layout in layouts {
                    mote.set_layout(p, layout.clone());
                    let expected = layout.edge_transfers(cfg);
                    assert_eq!(
                        mote.edge_transfers(p),
                        expected,
                        "{} p{i} {:?}",
                        app.name,
                        layout.order()
                    );
                    let costs: Vec<u64> = expected.iter().map(|t| penalties.cost(t.kind)).collect();
                    assert_eq!(mote.static_edge_costs(p), costs, "{} p{i}", app.name);
                }
            }
        }
    }
}

/// The divider workload reaches both trap kinds, and the fold stays exact
/// through them.
#[test]
fn divider_traps_on_division_and_step_budget() {
    let n_apps = all_apps().len();
    let mut kinds = Vec::new();
    for seed in 0..4 {
        kinds.extend(scenario(n_apps, seed % 2 == 1, seed, 80, 30, 60).unwrap());
    }
    assert!(kinds.contains(&TrapKind::DivideByZero), "{kinds:?}");
    assert!(kinds.contains(&TrapKind::StepLimitExceeded), "{kinds:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folded PMU counters and the hit-derived ground truth equal the
    /// per-traversal oracle on every registry app (and the divider), both
    /// cost models, random layouts, clean and trapping calls, a mid-run
    /// relayout without a PMU reset, and a mid-run reset.
    #[test]
    fn folded_pmu_and_ground_truth_match_the_per_traversal_oracle(
        which in 0usize..9,
        msp in any::<bool>(),
        seed in 0u64..1_000_000,
        calls in 10usize..80,
        relayout in 0usize..80,
        reset in 0usize..80,
    ) {
        prop_assume!(which <= all_apps().len());
        scenario(which, msp, seed, calls, relayout, reset)?;
    }
}
