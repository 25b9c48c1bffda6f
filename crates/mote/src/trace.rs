//! Profiling hooks: how instrumentation observes a running mote.
//!
//! The interpreter calls a [`Profiler`] at procedure entry/exit and at every
//! edge traversal. Each hook returns the *instrumentation overhead* in cycles
//! it charges to the mote — this is how the overhead comparison (experiment
//! E3) is measured instead of assumed.
//!
//! Two profilers live here because they are intrinsic to the mote:
//! [`GroundTruthProfiler`] (free, omniscient — only a simulator can have it;
//! runs read the same [`GroundTruth`] off the PMU instead) and
//! [`TimingProfiler`] (Code Tomography's entry/exit timestamps). The
//! *baseline* on-device profilers (edge counters, Ball–Larus, sampling) are
//! in `ct-profilers`.

use crate::timer::VirtualTimer;
use ct_cfg::graph::{BlockId, Cfg};
use ct_cfg::profile::{BranchProbs, EdgeProfile};
use ct_ir::instr::ProcId;
use ct_ir::program::Program;

/// Observer of a running mote.
///
/// Every hook returns the instrumentation overhead in cycles that the mote
/// must charge for the observation (0 for free observations).
pub trait Profiler {
    /// A procedure activation begins. `cycles` is the mote clock *before*
    /// any instrumentation overhead.
    fn on_proc_enter(&mut self, _proc: ProcId, _cycles: u64) -> u64 {
        0
    }

    /// A procedure activation ends.
    fn on_proc_exit(&mut self, _proc: ProcId, _cycles: u64) -> u64 {
        0
    }

    /// A CFG edge of `proc` is traversed.
    fn on_edge(&mut self, _proc: ProcId, _edge_index: usize) -> u64 {
        0
    }

    /// A basic block of `proc` begins executing. `cycles` is the mote
    /// clock at block entry (sampling profilers key off it).
    fn on_block(&mut self, _proc: ProcId, _block: BlockId, _cycles: u64) -> u64 {
        0
    }
}

/// The do-nothing profiler (uninstrumented baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProfiler;

impl Profiler for NullProfiler {}

/// The simulator's ground truth: each procedure's exact edge profile and
/// invocation count, the reference estimated profiles are scored against.
/// Runs read it off the PMU's edge hits ([`Mote::ground_truth`](crate::interp::Mote::ground_truth)); as a
/// [`Profiler`] (spelled [`GroundTruthProfiler`]) it counts traversal by
/// traversal through the hooks instead, the reference that reading is
/// tested against. Either way it costs zero cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    pub(crate) profiles: Vec<EdgeProfile>,
    pub(crate) invocations: Vec<u64>,
}

/// [`GroundTruth`] used as a per-traversal profiler.
pub type GroundTruthProfiler = GroundTruth;

impl GroundTruth {
    /// Zero counts shaped for every procedure of `program`.
    pub fn new(program: &Program) -> GroundTruth {
        GroundTruth {
            profiles: program
                .procs
                .iter()
                .map(|p| EdgeProfile::zeroed(&p.cfg))
                .collect(),
            invocations: vec![0; program.procs.len()],
        }
    }

    /// What happened after `earlier`, a reading of the same mote with no
    /// PMU reset in between.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not such a reading.
    pub fn since(&self, earlier: &GroundTruth) -> GroundTruth {
        let profiles = self.profiles.iter().zip(&earlier.profiles);
        let invocations = self.invocations.iter().zip(&earlier.invocations);
        GroundTruth {
            profiles: profiles.map(|(now, then)| now.since(then)).collect(),
            invocations: invocations.map(|(now, then)| now - then).collect(),
        }
    }

    /// The exact edge profile of `proc`.
    pub fn profile(&self, proc: ProcId) -> &EdgeProfile {
        &self.profiles[proc.index()]
    }

    /// Number of activations of `proc`.
    pub fn invocations(&self, proc: ProcId) -> u64 {
        self.invocations[proc.index()]
    }

    /// Ground-truth branch probabilities for `proc`.
    pub fn branch_probs(&self, proc: ProcId, cfg: &Cfg) -> BranchProbs {
        self.profiles[proc.index()].branch_probs(cfg)
    }
}

impl Profiler for GroundTruth {
    fn on_proc_enter(&mut self, proc: ProcId, _cycles: u64) -> u64 {
        self.invocations[proc.index()] += 1;
        0
    }

    fn on_edge(&mut self, proc: ProcId, edge_index: usize) -> u64 {
        self.profiles[proc.index()].bump(edge_index);
        0
    }
}

/// Code Tomography's measurement layer: one timer read at every procedure
/// entry and exit. Produces per-procedure *exclusive* durations in ticks
/// (child activations' windows subtracted), which are the estimator's input
/// samples.
#[derive(Debug, Clone)]
pub struct TimingProfiler {
    timer: VirtualTimer,
    /// Cycles charged per timestamp (read timer + store to RAM buffer).
    pub overhead_cycles: u64,
    samples: Vec<Vec<u64>>,
    stack: Vec<Frame>,
}

#[derive(Debug, Clone)]
struct Frame {
    proc: ProcId,
    entry_ticks: u64,
    child_ticks: u64,
}

impl TimingProfiler {
    /// Creates a timing profiler for `program` reading `timer`.
    ///
    /// `overhead_cycles` is charged at every entry and every exit, *outside*
    /// the measured window (so it contaminates the caller, as on real motes
    /// where the timestamp lands in a RAM buffer after the timer latch).
    pub fn new(program: &Program, timer: VirtualTimer, overhead_cycles: u64) -> TimingProfiler {
        TimingProfiler {
            timer,
            overhead_cycles,
            samples: vec![Vec::new(); program.procs.len()],
            stack: Vec::new(),
        }
    }

    /// Exclusive-duration samples (in ticks) collected for `proc`.
    pub fn samples(&self, proc: ProcId) -> &[u64] {
        &self.samples[proc.index()]
    }

    /// Consumes the profiler, returning all per-procedure sample vectors.
    pub fn into_samples(self) -> Vec<Vec<u64>> {
        self.samples
    }

    /// The timer this profiler reads.
    pub fn timer(&self) -> VirtualTimer {
        self.timer
    }
}

impl Profiler for TimingProfiler {
    fn on_proc_enter(&mut self, proc: ProcId, cycles: u64) -> u64 {
        self.stack.push(Frame {
            proc,
            entry_ticks: self.timer.ticks(cycles),
            child_ticks: 0,
        });
        self.overhead_cycles
    }

    fn on_proc_exit(&mut self, proc: ProcId, cycles: u64) -> u64 {
        let frame = self.stack.pop().expect("exit without matching enter");
        debug_assert_eq!(frame.proc, proc, "activation stack corrupted");
        let exit_ticks = self.timer.ticks(cycles);
        let window = exit_ticks - frame.entry_ticks;
        let exclusive = window.saturating_sub(frame.child_ticks);
        self.samples[proc.index()].push(exclusive);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ticks += window;
        }
        self.overhead_cycles
    }
}

/// Runs two profilers side by side (e.g. a baseline profiler + timing) in
/// one run, charging the overhead of both.
#[derive(Debug)]
pub struct PairProfiler<'a, A: Profiler, B: Profiler> {
    /// First profiler.
    pub a: &'a mut A,
    /// Second profiler.
    pub b: &'a mut B,
}

impl<'a, A: Profiler, B: Profiler> Profiler for PairProfiler<'a, A, B> {
    fn on_proc_enter(&mut self, proc: ProcId, cycles: u64) -> u64 {
        self.a.on_proc_enter(proc, cycles) + self.b.on_proc_enter(proc, cycles)
    }

    fn on_proc_exit(&mut self, proc: ProcId, cycles: u64) -> u64 {
        self.a.on_proc_exit(proc, cycles) + self.b.on_proc_exit(proc, cycles)
    }

    fn on_edge(&mut self, proc: ProcId, edge_index: usize) -> u64 {
        self.a.on_edge(proc, edge_index) + self.b.on_edge(proc, edge_index)
    }

    fn on_block(&mut self, proc: ProcId, block: BlockId, cycles: u64) -> u64 {
        self.a.on_block(proc, block, cycles) + self.b.on_block(proc, block, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Program {
        ct_ir::compile_source("module M { proc f() { led_toggle(0); } }").unwrap()
    }

    #[test]
    fn ground_truth_counts_edges_and_invocations() {
        let p = ct_ir::compile_source(
            "module M { var a: u8; proc f(x: u8) { if (x > 1) { a = 1; } else { a = 2; } } }",
        )
        .unwrap();
        let mut gt = GroundTruthProfiler::new(&p);
        let pid = ProcId(0);
        gt.on_proc_enter(pid, 0);
        gt.on_edge(pid, 0);
        gt.on_proc_enter(pid, 10);
        gt.on_edge(pid, 1);
        assert_eq!(gt.invocations(pid), 2);
        assert_eq!(gt.profile(pid).count(0), 1);
        assert_eq!(gt.profile(pid).count(1), 1);
    }

    #[test]
    fn timing_profiler_measures_window() {
        let p = program();
        let mut tp = TimingProfiler::new(&p, VirtualTimer::cycle_accurate(), 0);
        let pid = ProcId(0);
        tp.on_proc_enter(pid, 100);
        tp.on_proc_exit(pid, 150);
        assert_eq!(tp.samples(pid), &[50]);
    }

    #[test]
    fn timing_profiler_subtracts_children() {
        let p = ct_ir::compile_source("module M { proc g() {} proc f() { g(); } }").unwrap();
        let mut tp = TimingProfiler::new(&p, VirtualTimer::cycle_accurate(), 0);
        let f = ProcId(1);
        let g = ProcId(0);
        tp.on_proc_enter(f, 0);
        tp.on_proc_enter(g, 20);
        tp.on_proc_exit(g, 35);
        tp.on_proc_exit(f, 60);
        assert_eq!(tp.samples(g), &[15]);
        assert_eq!(tp.samples(f), &[45]); // 60 − 15 child ticks
    }

    #[test]
    fn timing_profiler_quantizes() {
        let p = program();
        let mut tp = TimingProfiler::new(&p, VirtualTimer::new(100), 0);
        let pid = ProcId(0);
        tp.on_proc_enter(pid, 95);
        tp.on_proc_exit(pid, 105); // ticks 0 → 1
        tp.on_proc_enter(pid, 110);
        tp.on_proc_exit(pid, 190); // ticks 1 → 1
        assert_eq!(tp.samples(pid), &[1, 0]);
    }

    #[test]
    fn timing_profiler_charges_overhead() {
        let p = program();
        let mut tp = TimingProfiler::new(&p, VirtualTimer::cycle_accurate(), 8);
        assert_eq!(tp.on_proc_enter(ProcId(0), 0), 8);
        assert_eq!(tp.on_proc_exit(ProcId(0), 10), 8);
    }

    #[test]
    fn null_profiler_is_free() {
        let mut n = NullProfiler;
        assert_eq!(n.on_proc_enter(ProcId(0), 0), 0);
        assert_eq!(n.on_edge(ProcId(0), 0), 0);
    }

    #[test]
    fn pair_profiler_sums_overhead() {
        let p = program();
        let mut gt = GroundTruthProfiler::new(&p);
        let mut tp = TimingProfiler::new(&p, VirtualTimer::cycle_accurate(), 5);
        let mut pair = PairProfiler {
            a: &mut gt,
            b: &mut tp,
        };
        assert_eq!(pair.on_proc_enter(ProcId(0), 0), 5);
        assert_eq!(gt.invocations(ProcId(0)), 1);
    }
}
