//! One-call measurement harnesses: run a workload under timing
//! instrumentation and read its ground truth off the PMU.
//!
//! Experiments need three things from a run: the exact edge profile (to score
//! against), the end-to-end timing samples (the estimator's input), and the
//! cycle cost (for overhead accounting). These helpers produce all three.

use crate::interp::{Mote, TrapError};
use crate::sched::Scheduler;
use crate::timer::VirtualTimer;
use crate::trace::{GroundTruth, TimingProfiler};
use ct_ir::instr::ProcId;

/// The artifacts of a profiled run.
#[derive(Debug)]
pub struct ProfiledRun {
    /// Exact edge counts per procedure (the simulator's ground truth).
    pub ground_truth: GroundTruth,
    /// Per-procedure exclusive duration samples, in timer ticks.
    pub samples: Vec<Vec<u64>>,
    /// Total cycles the run consumed (instrumentation overhead included).
    pub cycles_used: u64,
    /// The timer the samples were measured with.
    pub timer: VirtualTimer,
}

/// Calls `proc` `n` times with arguments from `args_for`, measuring with
/// `timer` (charging `ts_overhead` cycles per timestamp) and reading the
/// run's ground truth off the PMU.
///
/// # Errors
///
/// Stops at the first [`TrapError`].
pub fn profile_invocations(
    mote: &mut Mote,
    proc: ProcId,
    n: usize,
    timer: VirtualTimer,
    ts_overhead: u64,
    mut args_for: impl FnMut(usize) -> Vec<i64>,
) -> Result<ProfiledRun, TrapError> {
    let mut tp = TimingProfiler::new(mote.program(), timer, ts_overhead);
    let start = mote.ground_truth();
    let start_cycles = mote.cycles;
    for i in 0..n {
        mote.call(proc, &args_for(i), &mut tp)?;
    }
    Ok(ProfiledRun {
        ground_truth: mote.ground_truth().since(&start),
        samples: tp.into_samples(),
        cycles_used: mote.cycles - start_cycles,
        timer,
    })
}

/// Runs `n_events` scheduler events, measuring with `timer` and reading
/// the run's ground truth off the PMU.
///
/// # Errors
///
/// Stops at the first [`TrapError`].
pub fn profile_events(
    mote: &mut Mote,
    scheduler: &mut Scheduler,
    n_events: u64,
    timer: VirtualTimer,
    ts_overhead: u64,
) -> Result<ProfiledRun, TrapError> {
    let mut tp = TimingProfiler::new(mote.program(), timer, ts_overhead);
    let start = mote.ground_truth();
    let start_cycles = mote.cycles;
    scheduler.run_events(mote, n_events, &mut tp)?;
    Ok(ProfiledRun {
        ground_truth: mote.ground_truth().since(&start),
        samples: tp.into_samples(),
        cycles_used: mote.cycles - start_cycles,
        timer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AvrCost;
    use crate::devices::UniformAdc;
    use crate::sched::TimerBinding;

    fn boot(src: &str) -> Mote {
        Mote::new(ct_ir::compile_source(src).unwrap(), Box::new(AvrCost))
    }

    const SENSE: &str = "module Sense {
        var threshold: u16 = 512;
        var alarms: u16;
        proc check() {
            var v: u16 = read_adc();
            if (v > threshold) { alarms = alarms + 1; } else { }
        }
    }";

    #[test]
    fn direct_profiling_collects_everything() {
        let mut mote = boot(SENSE);
        mote.devices.adc = Box::new(UniformAdc { lo: 0, hi: 1023 });
        let run = profile_invocations(
            &mut mote,
            ProcId(0),
            500,
            VirtualTimer::cycle_accurate(),
            0,
            |_| vec![],
        )
        .unwrap();
        assert_eq!(run.samples[0].len(), 500);
        assert_eq!(run.ground_truth.invocations(ProcId(0)), 500);
        assert!(run.cycles_used > 0);
        // Branch probability ≈ (1023-512)/1024 ≈ 0.499.
        let cfg = &mote.program().procs[0].cfg;
        let probs = run.ground_truth.branch_probs(ProcId(0), cfg);
        let p = probs.as_slice()[0];
        assert!((p - 0.5).abs() < 0.08, "{p}");
    }

    #[test]
    fn timing_samples_reflect_branch_difference() {
        // Taking the alarm arm costs more cycles; samples must be bimodal.
        let mut mote = boot(SENSE);
        mote.devices.adc = Box::new(UniformAdc { lo: 0, hi: 1023 });
        let run = profile_invocations(
            &mut mote,
            ProcId(0),
            300,
            VirtualTimer::cycle_accurate(),
            0,
            |_| vec![],
        )
        .unwrap();
        let mut uniq: Vec<u64> = run.samples[0].clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 2, "two path durations expected: {uniq:?}");
    }

    #[test]
    fn event_profiling_drives_scheduler() {
        let mut mote = boot(SENSE);
        let mut sched = Scheduler::new();
        sched.add_timer(TimerBinding {
            period_cycles: 50_000,
            phase_cycles: 50_000,
            proc: ProcId(0),
            args: vec![],
        });
        let run =
            profile_events(&mut mote, &mut sched, 50, VirtualTimer::khz32_at_8mhz(), 0).unwrap();
        assert_eq!(run.ground_truth.invocations(ProcId(0)), 50);
        assert_eq!(run.samples[0].len(), 50);
    }

    #[test]
    fn overhead_cycles_show_up_in_cycles_used() {
        let mut mote = boot(SENSE);
        let base = profile_invocations(
            &mut mote,
            ProcId(0),
            100,
            VirtualTimer::cycle_accurate(),
            0,
            |_| vec![],
        )
        .unwrap();
        let mut mote2 = boot(SENSE);
        let heavy = profile_invocations(
            &mut mote2,
            ProcId(0),
            100,
            VirtualTimer::cycle_accurate(),
            50,
            |_| vec![],
        )
        .unwrap();
        // 2 timestamps × 50 cycles × 100 calls = 10_000 extra cycles.
        assert_eq!(heavy.cycles_used, base.cycles_used + 10_000);
    }
}
