//! A warm E-step allocates nothing: after one call has sized an
//! [`FbScratch`], repeating the planned E-step on the same problem performs
//! zero heap allocations — on a contaminated coarse-timer stream and on
//! real loop-heavy unrolled problems whose trellis runs to thousands of
//! states. A counting global allocator makes any per-call allocation that
//! a later change brings back fail this test.
//!
//! The file holds a single test, so nothing else allocates on the counted
//! thread while it runs.

use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use ct_cfg::unroll::unroll;
use ct_core::em::EmOptions;
use ct_core::fb::{e_step_planned, FbPlan, FbScratch};
use ct_core::samples::TimingSamples;
use ct_pipeline::{RunConfig, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One E-step input: a CFG with its static costs, branch probabilities
/// and a tick stream.
struct Problem<'a> {
    cfg: &'a Cfg,
    block_costs: Vec<u64>,
    edge_costs: Vec<u64>,
    probs: BranchProbs,
    samples: &'a TimingSamples,
}

/// Sizes a scratch with one planned E-step on `p`, then checks that five
/// warm calls allocate nothing and return the same log-likelihood bits.
/// Returns the length of the E-step's duration PMF: a lower bound on the
/// Return-arrival list it sorts.
fn assert_warm_e_step_allocates_nothing(p: &Problem) -> usize {
    let counted = p.samples.counted();
    let cpt = p.samples.cycles_per_tick();
    let plan = FbPlan::new(p.cfg);
    let mut scratch = FbScratch::new();
    let e_step = |scratch: &mut FbScratch| {
        e_step_planned(
            &plan,
            scratch,
            &p.block_costs,
            &p.edge_costs,
            &p.probs,
            &counted,
            cpt,
            EmOptions::default().fb,
        )
        .expect("e-step")
    };
    let before = ALLOCATIONS.with(Cell::get);
    let warm = e_step(&mut scratch);
    assert!(scratch.counts().iter().any(|&c| c > 0.0), "a real E-step");
    let sizing = ALLOCATIONS.with(Cell::get) - before;
    assert!(
        sizing > 0,
        "the counter missed the first call's allocations"
    );

    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..5 {
        let again = e_step(&mut scratch);
        assert_eq!(again.0.to_bits(), warm.0.to_bits());
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocations, 0, "a warm E-step allocated");
    scratch.duration().len()
}

/// Checks the warm E-step of unrolled `app` at 1 cycle/tick from the
/// uniform start, and returns the length of its duration PMF.
fn unrolled_problem(app: &str, invocations: usize) -> usize {
    let run = Session::new(
        RunConfig::new(app)
            .invocations(invocations)
            .resolution(1)
            .seeded(7),
    )
    .collect()
    .unwrap_or_else(|e| panic!("{app} stream collected: {e}"));
    let unrolled = unroll(run.cfg(), &run.counted_loops).expect("unrolls");
    let problem = Problem {
        cfg: &unrolled.cfg,
        block_costs: unrolled.map_block_values(&run.block_costs),
        edge_costs: unrolled.map_edge_values(&run.edge_costs),
        probs: BranchProbs::uniform(&unrolled.cfg, 0.5),
        samples: &run.samples,
    };
    assert_warm_e_step_allocates_nothing(&problem)
}

#[test]
fn warm_planned_e_step_allocates_nothing() {
    // The service workload's problem: a contaminated event_detect stream
    // at 8 cycles/tick.
    let run = Session::new(
        RunConfig::new("event_detect")
            .invocations(2_000)
            .resolution(8)
            .contaminated(0.1, 40)
            .seeded(37),
    )
    .collect()
    .expect("event_detect stream collected");
    assert_warm_e_step_allocates_nothing(&Problem {
        cfg: run.cfg(),
        block_costs: run.block_costs.clone(),
        edge_costs: run.edge_costs.clone(),
        probs: run.truth.clone(),
        samples: &run.samples,
    });

    // Loop-heavy unrolled models, cycle-accurate: crc's hundreds of
    // unrolled blocks, and sort, whose Return arrivals fall at more than
    // 256 distinct times, so the E-step sorts them through the merge sort's
    // own buffer: 256 entries is the longest list the standard library's
    // stable sort orders without heap scratch.
    unrolled_problem("crc", 300);
    let durations = unrolled_problem("sort", 300);
    assert!(durations > 256, "unrolled sort's durations stay few");
}
