//! A warm E-step allocates nothing: after one call has sized an
//! [`FbScratch`], repeating the planned E-step on the same problem performs
//! zero heap allocations — on the convolution's dense sweep, whose window
//! the ticks are scored from, on the point path
//! (a cycle-accurate stream with few distinct durations across a wide
//! window) and on a real loop-heavy problem whose tables run to thousands
//! of entries. A counting global allocator makes any per-call
//! allocation that a later change brings back fail this test.
//!
//! The file holds a single test, so nothing else allocates on the counted
//! thread while it runs.

use ct_cfg::builder::diamond_chain;
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use ct_cfg::unroll::unroll;
use ct_core::em::EmOptions;
use ct_core::fb::{e_step_planned, FbPlan, FbScratch, FbTables};
use ct_core::quantize::{duration_window, pmf_tick_score_soa};
use ct_core::samples::TimingSamples;
use ct_pipeline::{RunConfig, Session};
use ct_stats::pmf::Pmf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

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
/// Returns the scratch.
fn assert_warm_e_step_allocates_nothing(p: &Problem) -> FbScratch {
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
    scratch
}

/// One edge's convolution operands `f(u)`, `g(v)` and window `[lo, hi]`.
type EdgeWindow<'t> = (&'t Pmf, &'t Pmf, u64, u64);

/// What the E-step on `p` reads off its own tables before it convolves:
/// every duration that an explained tick's window covers, and per edge
/// whose ends both hold a table, `(f(u), g(v), lo, hi)` with `[lo, hi]`
/// the union of those windows clipped to the edge's achievable support
/// (empty when `lo > hi`).
fn edge_windows<'t>(p: &Problem, tables: &'t FbTables) -> (BTreeSet<u64>, Vec<EdgeWindow<'t>>) {
    let cpt = p.samples.cycles_per_tick();
    let duration = tables.duration_pmf(p.cfg);
    let mut points = BTreeSet::new();
    for (t, _) in p.samples.counted() {
        if pmf_tick_score_soa(duration, t, cpt) > 1e-300 {
            let (lo, hi) = duration_window(t, cpt);
            points.extend(lo..=hi);
        }
    }
    let (Some(&lo), Some(&hi)) = (points.first(), points.last()) else {
        return (points, Vec::new());
    };
    let edges = p
        .cfg
        .edges()
        .iter()
        .filter_map(|e| {
            let (f, g) = (
                &tables.forward[e.from.index()],
                &tables.backward[e.to.index()],
            );
            let (&f0, &g0) = (f.keys().first()?, g.keys().first()?);
            let delta = p.block_costs[e.from.index()] + p.edge_costs[e.index];
            let edge_lo = lo.max(f0 + g0 + delta);
            let edge_hi = hi.min(f.keys()[f.len() - 1] + g.keys()[g.len() - 1] + delta);
            Some((f, g, edge_lo, edge_hi))
        })
        .collect();
    (points, edges)
}

/// True when the E-step on `p` takes the point path on at least one edge,
/// recomputed from the E-step's own tables: the explained ticks' windows
/// cover under a quarter of their union window, and some edge's share of
/// those durations times 4 is below both its window's width and its
/// target's backward-table support, which spans at most 8× its size.
fn takes_the_point_path(p: &Problem, tables: &FbTables) -> bool {
    let (points, edges) = edge_windows(p, tables);
    let (Some(&lo), Some(&hi)) = (points.first(), points.last()) else {
        return false;
    };
    if points.len() as u64 * 4 > hi - lo {
        return false;
    }
    edges.iter().any(|&(_, g, lo, hi)| {
        lo <= hi
            && g.keys()[g.len() - 1] - g.keys()[0] < 8 * g.len() as u64
            && points.range(lo..=hi).count() as u64 * 4 < (hi - lo + 1).min(g.len() as u64)
    })
}

/// True when, on a problem whose E-step takes no point path, every edge
/// with a nonempty window would sweep on the convolution's dense path, and
/// at least one edge has such a window: recomputed from the E-step's own
/// tables, each window is at most `max(4 · |f(u)| · |g(v)|, 1024)` and at
/// most 2^22 durations wide.
fn sweeps_on_the_dense_path(p: &Problem, tables: &FbTables) -> bool {
    let (_, edges) = edge_windows(p, tables);
    let swept: Vec<_> = edges.iter().filter(|&&(_, _, lo, hi)| lo <= hi).collect();
    !swept.is_empty()
        && swept.iter().all(|&&(f, g, lo, hi)| {
            let width = hi - lo + 1;
            width <= (4 * (f.len() * g.len()) as u64).max(1024) && width <= 1 << 22
        })
}

#[test]
fn warm_planned_e_step_allocates_nothing() {
    // The service workload's problem: a contaminated event_detect stream
    // at 8 cycles/tick, which the convolution's dense sweep scores.
    let run = Session::new(
        RunConfig::new("event_detect")
            .invocations(2_000)
            .resolution(8)
            .contaminated(0.1, 40)
            .seeded(37),
    )
    .collect()
    .expect("event_detect stream collected");
    let problem = Problem {
        cfg: run.cfg(),
        block_costs: run.block_costs.clone(),
        edge_costs: run.edge_costs.clone(),
        probs: run.truth.clone(),
        samples: &run.samples,
    };
    let scratch = assert_warm_e_step_allocates_nothing(&problem);
    assert!(!takes_the_point_path(&problem, scratch.tables()));
    assert!(
        sweeps_on_the_dense_path(&problem, scratch.tables()),
        "the event_detect E-step no longer sweeps on the dense path"
    );

    // Unrolled sort, cycle-accurate, from the uniform start: a loop-heavy
    // model whose accumulators run past the 256 entries where the standard
    // library's stable sort would take heap scratch.
    let run = Session::new(
        RunConfig::new("sort")
            .invocations(300)
            .resolution(1)
            .seeded(7),
    )
    .collect()
    .expect("sort stream collected");
    let unrolled = unroll(run.cfg(), &run.counted_loops).expect("sort unrolls");
    let problem = Problem {
        cfg: &unrolled.cfg,
        block_costs: unrolled.map_block_values(&run.block_costs),
        edge_costs: unrolled.map_edge_values(&run.edge_costs),
        probs: BranchProbs::uniform(&unrolled.cfg, 0.5),
        samples: &run.samples,
    };
    let scratch = assert_warm_e_step_allocates_nothing(&problem);
    let longest = scratch.tables().forward.iter().map(|t| t.len()).max();
    assert!(longest > Some(256), "unrolled sort's tables stay short");

    // A cycle-accurate stream with three distinct durations across a
    // 127-cycle window, scored on the point path: six diamonds whose slow
    // arms cost 2, 4, …, 64 cycles more, so every backward table is gapped
    // (even offsets only).
    let cfg = diamond_chain(6);
    let block_costs: Vec<u64> = (0..cfg.len())
        .map(|b| match (b % 3, b / 3) {
            (2, i) => 1 + (2 << i),
            _ => 1,
        })
        .collect();
    let samples = TimingSamples::new([vec![13; 5], vec![55; 3], vec![139; 2]].concat(), 1);
    let problem = Problem {
        cfg: &cfg,
        block_costs,
        edge_costs: vec![0; cfg.edges().len()],
        probs: BranchProbs::uniform(&cfg, 0.5),
        samples: &samples,
    };
    let scratch = assert_warm_e_step_allocates_nothing(&problem);
    assert!(
        takes_the_point_path(&problem, scratch.tables()),
        "the diamond-chain E-step no longer takes the point path"
    );
}
