#![warn(missing_docs)]

//! # Code Tomography
//!
//! A from-scratch Rust reproduction of *"Estimation-based profiling for code
//! placement optimization in sensor network programs"* (Wan, Cao, Zhou —
//! ISPASS 2015): estimating a sensor procedure's Markov execution profile
//! from **end-to-end timing alone** — one timestamp at procedure entry and
//! exit, quantized by a cheap mote timer — and feeding the recovered edge
//! frequencies to profile-guided code placement.
//!
//! This facade re-exports every workspace crate under one roof:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`core`] | `ct-core` | the estimators (quantization-aware EM, moments, flow-NNLS, loop-unrolled EM) |
//! | [`ir`] | `ct-ir` | the NLC language front end + trip-count analysis |
//! | [`cfg`](mod@cfg) | `ct-cfg` | CFGs, dominators, loops, reducibility, layouts, unrolling |
//! | [`mote`] | `ct-mote` | the simulated sensor mote (CPU, timers, devices, OS, energy) |
//! | [`markov`] | `ct-markov` | absorbing-chain analysis and duration distributions |
//! | [`profilers`] | `ct-profilers` | baselines: edge counters, Ball–Larus, sampling |
//! | [`placement`] | `ct-placement` | Pettis–Hansen chaining and trace growing |
//! | [`faults`] | `ct-faults` | seeded measurement-channel fault models for robustness sweeps |
//! | [`apps`] | `ct-apps` | the benchmark sensor applications |
//! | [`pipeline`] | `ct-pipeline` | the end-to-end flow: typed stages, seeded sessions, mote fleets, streaming ingestion |
//! | [`service`] | `ct-service` | the sharded estimation service: bounded-queue ingest, tree reduction, request/response front door |
//! | [`stats`] | `ct-stats` | linear algebra and statistics substrate |
//!
//! See the repository README for the full tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for measured results. The `examples/`
//! directory has four runnable walkthroughs and `ctc` is the CLI.
//!
//! ## End-to-end example
//!
//! ```
//! use code_tomography::{core, ir, mote};
//! use mote::{cost::AvrCost, interp::Mote, timer::VirtualTimer, trace::TimingProfiler};
//!
//! // Compile a sensor program with one input-driven branch.
//! let program = ir::compile_source(r#"
//!     module Demo {
//!         var alarms: u32;
//!         proc check() {
//!             var v: u16 = read_adc();
//!             if (v > 700) {
//!                 alarms = alarms + 1;
//!                 var sent: bool = send_msg(v);
//!             } else { }
//!         }
//!     }
//! "#).unwrap();
//! let pid = program.proc_id("check").unwrap();
//!
//! // Run it on a simulated AVR-class mote, measuring only entry/exit
//! // timestamps on a 1 MHz timer.
//! let mut m = Mote::new(program.clone(), Box::new(AvrCost));
//! let timer = VirtualTimer::mhz1_at_8mhz();
//! let mut timing = TimingProfiler::new(&program, timer, 0);
//! for _ in 0..800 {
//!     m.call(pid, &[], &mut timing).unwrap();
//! }
//!
//! // Recover the branch probability from the tick samples alone.
//! let cfg = &program.procs[pid.index()].cfg;
//! let samples = core::TimingSamples::new(
//!     timing.samples(pid).to_vec(), timer.cycles_per_tick());
//! let est = core::estimate(
//!     cfg,
//!     m.static_block_costs(pid),
//!     m.static_edge_costs(pid),
//!     &samples,
//!     core::EstimateOptions::default(),
//! ).unwrap();
//! // The uniform 0..=1023 field crosses 700 with probability 323/1024 ≈ 0.32.
//! assert!((est.probs.as_slice()[0] - 323.0 / 1024.0).abs() < 0.05);
//! ```

pub use ct_apps as apps;
pub use ct_cfg as cfg;
pub use ct_core as core;
pub use ct_faults as faults;
pub use ct_ir as ir;
pub use ct_markov as markov;
pub use ct_mote as mote;
pub use ct_pipeline as pipeline;
pub use ct_placement as placement;
pub use ct_profilers as profilers;
pub use ct_service as service;
pub use ct_stats as stats;
