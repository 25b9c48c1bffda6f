//! A warm E-step allocates nothing: after one call has sized an
//! [`FbScratch`], repeating the planned E-step on the same problem performs
//! zero heap allocations. A counting global allocator makes any per-call
//! allocation that a later change brings back fail this test.
//!
//! The file holds a single test, so nothing else allocates on the counted
//! thread while it runs.

use ct_core::em::EmOptions;
use ct_core::fb::{e_step_planned, FbPlan, FbScratch};
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
    let counted = run.samples.counted();
    let cpt = run.samples.cycles_per_tick();
    let probs = run.truth.clone();
    let plan = FbPlan::new(run.cfg());
    let mut scratch = FbScratch::new();
    let e_step = |scratch: &mut FbScratch| {
        e_step_planned(
            &plan,
            scratch,
            &run.block_costs,
            &run.edge_costs,
            &probs,
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
}
