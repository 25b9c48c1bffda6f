//! The event-driven mote OS: run-to-completion timer events and a radio
//! arrival process, TinyOS-style.
//!
//! Sensor programs are event-driven: periodic timers fire handler
//! procedures, packets arrive between events. The scheduler advances the
//! mote's cycle clock to each event's fire time (idle gaps model sleep) and
//! runs the bound procedure to completion, exactly like TinyOS tasks.

use crate::interp::{Mote, TrapError};
use crate::trace::Profiler;
use ct_ir::instr::ProcId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A periodic timer bound to a handler procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerBinding {
    /// Firing period in cycles.
    pub period_cycles: u64,
    /// First firing time in cycles.
    pub phase_cycles: u64,
    /// Handler procedure.
    pub proc: ProcId,
    /// Arguments passed on every firing.
    pub args: Vec<i64>,
}

/// A Poisson-like packet arrival process feeding the radio receive queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxProcess {
    /// Mean cycles between arrivals.
    pub mean_interval_cycles: u64,
    /// Payload range (inclusive).
    pub payload: (u16, u16),
}

/// The mote scheduler.
#[derive(Debug)]
pub struct Scheduler {
    timers: Vec<TimerBinding>,
    next_fire: Vec<u64>,
    rx: Option<RxProcess>,
    next_rx: u64,
    rng: StdRng,
    /// Events executed so far.
    pub events_run: u64,
    /// Events that fired while the CPU was still busy (handler overran its
    /// period).
    pub missed_deadlines: u64,
}

impl Scheduler {
    /// An empty scheduler with a fixed seed.
    pub fn new() -> Scheduler {
        Scheduler {
            timers: Vec::new(),
            next_fire: Vec::new(),
            rx: None,
            next_rx: 0,
            rng: StdRng::seed_from_u64(0x5EED),
            events_run: 0,
            missed_deadlines: 0,
        }
    }

    /// Adds a periodic timer.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn add_timer(&mut self, binding: TimerBinding) -> &mut Scheduler {
        assert!(binding.period_cycles > 0, "timer period must be positive");
        self.next_fire.push(binding.phase_cycles);
        self.timers.push(binding);
        self
    }

    /// Enables a packet arrival process.
    ///
    /// # Panics
    ///
    /// Panics if the mean interval is zero.
    pub fn set_rx(&mut self, rx: RxProcess) -> &mut Scheduler {
        assert!(
            rx.mean_interval_cycles > 0,
            "mean interval must be positive"
        );
        self.next_rx = self.sample_interval(rx.mean_interval_cycles);
        self.rx = Some(rx);
        self
    }

    fn sample_interval(&mut self, mean: u64) -> u64 {
        // Exponential interarrival, floored at 1 cycle.
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        ((-u.ln() * mean as f64) as u64).max(1)
    }

    /// Runs the next `n` timer events.
    ///
    /// # Errors
    ///
    /// Stops at the first [`TrapError`] from a handler.
    ///
    /// # Panics
    ///
    /// Panics if no timers are bound.
    pub fn run_events<P: Profiler + ?Sized>(
        &mut self,
        mote: &mut Mote,
        n: u64,
        profiler: &mut P,
    ) -> Result<(), TrapError> {
        assert!(!self.timers.is_empty(), "scheduler has no timers bound");
        for _ in 0..n {
            // Earliest-firing timer wins; ties resolve to the lowest index.
            let (idx, &fire) = self
                .next_fire
                .iter()
                .enumerate()
                .min_by_key(|&(i, &t)| (t, i))
                .expect("timers nonempty");

            // Deliver packets that arrived before this event.
            if let Some(rx) = self.rx.clone() {
                while self.next_rx <= fire {
                    let payload = self.rng.gen_range(rx.payload.0..=rx.payload.1);
                    mote.devices.radio.deliver(payload);
                    let dt = self.sample_interval(rx.mean_interval_cycles);
                    self.next_rx += dt;
                }
            }

            if mote.cycles < fire {
                mote.cycles = fire; // the CPU slept until the timer interrupt
            } else {
                self.missed_deadlines += 1;
            }
            let binding = self.timers[idx].clone();
            mote.call(binding.proc, &binding.args, profiler)?;
            self.next_fire[idx] = fire + binding.period_cycles;
            self.events_run += 1;
        }
        Ok(())
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AvrCost;
    use crate::trace::NullProfiler;

    fn boot(src: &str) -> Mote {
        Mote::new(ct_ir::compile_source(src).unwrap(), Box::new(AvrCost))
    }

    #[test]
    fn timer_fires_periodically() {
        let mut mote = boot("module M { var n: u32; proc tick() { n = n + 1; } }");
        let mut sched = Scheduler::new();
        sched.add_timer(TimerBinding {
            period_cycles: 10_000,
            phase_cycles: 10_000,
            proc: ProcId(0),
            args: vec![],
        });
        sched.run_events(&mut mote, 5, &mut NullProfiler).unwrap();
        assert_eq!(sched.events_run, 5);
        let n = mote.globals.load(ct_ir::instr::GlobalId(0));
        assert_eq!(n, 5);
        // Clock advanced to at least the 5th fire time.
        assert!(mote.cycles >= 50_000);
    }

    #[test]
    fn idle_time_advances_clock_to_fire_time() {
        let mut mote = boot("module M { proc tick() { led_toggle(0); } }");
        let mut sched = Scheduler::new();
        sched.add_timer(TimerBinding {
            period_cycles: 1_000_000,
            phase_cycles: 1_000_000,
            proc: ProcId(0),
            args: vec![],
        });
        sched.run_events(&mut mote, 1, &mut NullProfiler).unwrap();
        assert!(mote.cycles >= 1_000_000);
        assert_eq!(sched.missed_deadlines, 0);
    }

    #[test]
    fn overrunning_handler_misses_deadlines() {
        // Busy handler (long loop) with a tiny period.
        let mut mote =
            boot("module M { proc busy() { var i: u16 = 0; while (i < 1000) { i = i + 1; } } }");
        let mut sched = Scheduler::new();
        sched.add_timer(TimerBinding {
            period_cycles: 10,
            phase_cycles: 10,
            proc: ProcId(0),
            args: vec![],
        });
        sched.run_events(&mut mote, 5, &mut NullProfiler).unwrap();
        assert!(sched.missed_deadlines >= 4, "{}", sched.missed_deadlines);
    }

    #[test]
    fn two_timers_interleave() {
        let mut mote = boot(
            "module M { var a: u32; var b: u32; proc pa() { a = a + 1; } proc pb() { b = b + 1; } }",
        );
        let mut sched = Scheduler::new();
        sched
            .add_timer(TimerBinding {
                period_cycles: 10_000,
                phase_cycles: 10_000,
                proc: ProcId(0),
                args: vec![],
            })
            .add_timer(TimerBinding {
                period_cycles: 20_000,
                phase_cycles: 20_000,
                proc: ProcId(1),
                args: vec![],
            });
        sched.run_events(&mut mote, 9, &mut NullProfiler).unwrap();
        let a = mote.globals.load(ct_ir::instr::GlobalId(0));
        let b = mote.globals.load(ct_ir::instr::GlobalId(1));
        assert_eq!(a, 6);
        assert_eq!(b, 3);
    }

    #[test]
    fn rx_process_delivers_packets() {
        let mut mote = boot(
            "module M { var got: u32; proc poll() {
                while (recv_avail()) { var v: u16 = recv_msg(); got = got + 1; }
            } }",
        );
        let mut sched = Scheduler::new();
        sched.add_timer(TimerBinding {
            period_cycles: 100_000,
            phase_cycles: 100_000,
            proc: ProcId(0),
            args: vec![],
        });
        sched.set_rx(RxProcess {
            mean_interval_cycles: 10_000,
            payload: (1, 100),
        });
        sched.run_events(&mut mote, 20, &mut NullProfiler).unwrap();
        let got = mote.globals.load(ct_ir::instr::GlobalId(0));
        // ~10 packets arrive per period on average.
        assert!(got > 50, "{got}");
    }

    #[test]
    #[should_panic(expected = "no timers bound")]
    fn running_without_timers_panics() {
        let mut mote = boot("module M { proc f() {} }");
        Scheduler::new()
            .run_events(&mut mote, 1, &mut NullProfiler)
            .unwrap();
    }
}
