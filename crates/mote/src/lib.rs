#![warn(missing_docs)]

//! # ct-mote
//!
//! A simulated resource-constrained sensor mote: the execution substrate the
//! paper measured on (TelosB/MicaZ class), rebuilt in software.
//!
//! - [`cost`] — MCU instruction-timing models (AVR- and MSP430-class) and the
//!   static block cycle costs the estimators consume (the mote derives the
//!   layout-dependent edge costs from its placed image).
//! - [`timer`] — the quantizing hardware timer (32.768 kHz crystal and
//!   friends) that end-to-end measurements read.
//! - [`devices`] — ADC input sources (the nondeterminism driving branches),
//!   radio and LEDs.
//! - [`memory`] — mote RAM for module variables.
//! - [`interp`] — the cycle-accounting CPU. Its core invariant: with
//!   cycle-accurate timing and zero instrumentation overhead, a procedure's
//!   measured window equals `Σ block costs + Σ edge costs` of the executed
//!   path exactly.
//! - [`trace`] — profiling hooks: omniscient ground truth and Code
//!   Tomography's entry/exit timestamp layer (with overhead accounting).
//! - [`pmu`] — the virtual performance-monitoring unit: zero-overhead
//!   branch/jump/call counters folded from per-edge hits, and
//!   per-procedure cycle attribution, the measured side of every
//!   predicted-vs-measured comparison. Its edge hits are the run's ground
//!   truth ([`Mote::ground_truth`]).
//! - [`sched`] — the TinyOS-style event-driven OS (timers, packet arrivals,
//!   run-to-completion handlers).
//! - [`harness`] — one-call measurement runs producing ground truth, timing
//!   samples and cycle cost together.
//!
//! ## Example
//!
//! ```
//! use ct_mote::cost::AvrCost;
//! use ct_mote::devices::UniformAdc;
//! use ct_mote::harness::profile_invocations;
//! use ct_mote::interp::Mote;
//! use ct_mote::timer::VirtualTimer;
//! use ct_ir::instr::ProcId;
//!
//! let program = ct_ir::compile_source(r#"
//!     module Sense {
//!         var threshold: u16 = 512;
//!         var alarms: u16;
//!         proc check() {
//!             var v: u16 = read_adc();
//!             if (v > threshold) { alarms = alarms + 1; } else { }
//!         }
//!     }
//! "#).unwrap();
//! let mut mote = Mote::new(program, Box::new(AvrCost));
//! mote.devices.adc = Box::new(UniformAdc { lo: 0, hi: 1023 });
//! let run = profile_invocations(
//!     &mut mote, ProcId(0), 200, VirtualTimer::khz32_at_8mhz(), 0, |_| vec![],
//! ).unwrap();
//! assert_eq!(run.samples[0].len(), 200);
//! ```

pub mod cost;
pub mod devices;
pub mod energy;
pub mod harness;
pub mod interp;
pub mod memory;
pub mod pmu;
pub mod sched;
pub mod timer;
pub mod trace;

pub use cost::{block_costs, AvrCost, CostModel, Msp430Cost};
pub use energy::EnergyModel;
pub use harness::{profile_events, profile_invocations, ProfiledRun};
pub use interp::{ExecConfig, Mote, TrapError, TrapKind};
pub use pmu::{Pmu, PmuCounters, PmuSnapshot};
pub use sched::{RxProcess, Scheduler, TimerBinding};
pub use timer::VirtualTimer;
pub use trace::{
    GroundTruth, GroundTruthProfiler, NullProfiler, PairProfiler, Profiler, TimingProfiler,
};
