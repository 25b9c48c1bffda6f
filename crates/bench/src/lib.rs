#![warn(missing_docs)]

//! # ct-bench
//!
//! The experiment harness regenerating the paper's evaluation: one binary
//! per table/figure (see DESIGN.md's experiment index).
//!
//! | binary | experiment |
//! |---|---|
//! | `e1_accuracy` | estimation accuracy vs sample count (Table) |
//! | `e2_resolution` | accuracy vs timer resolution (Figure) |
//! | `e3_overhead` | profiling overhead comparison (Table) |
//! | `e4_placement` | misprediction reduction by layout (Table) |
//! | `e5_speedup` | end-to-end cycle improvement (Figure) |
//! | `e6_noise` | robustness to interrupt contamination (Figure) |
//! | `e7_estimators` | EM vs moments vs flow ablation (Figure) |
//! | `e8_scalability` | estimation cost vs CFG size (Figure) |
//! | `e9_pipeline` | full per-app case study (Table) |
//! | `e10_unroll_ablation` | counted-loop unrolling ablation (Table, extension) |
//! | `e11_model_error` | robustness to block-cost model error (Table, extension) |
//! | `e12_cross_mcu` | cross-MCU pipeline + energy (Table, extension) |
//! | `e13_faults` | naive EM vs degradation ladder under channel faults (Table, extension) |
//! | `e14_incremental` | incremental warm-started EM over SuffStats batches vs cold re-estimation (Table, extension) |
//! | `e15_chaos` | fleet ingestion under injected crash/duplicate/straggler faults (Table, extension) |
//! | `e16_fleet_scale` | sharded estimation service: throughput, backpressure, bitwise determinism (Table, extension) |
//! | `e17_estimators` | per-rung estimator race (EM / trimmed EM / GNT / moments / prior) under channel faults (Table, extension) |
//! | `e18_telemetry` | telemetry v2 overhead + fidelity: histograms, flight recorder, metrics pump (Table, extension) |
//!
//! Each binary drives the typed `ct-pipeline` flow (one seeded
//! [`ct_pipeline::Session`] per measurement cell), prints a markdown table
//! and mirrors it into `results/`. Every binary honors `CT_THREADS`
//! (sweep worker count), `CT_SEED` (workload seed override) and `CT_SMOKE`
//! (tiny grids, no `results/` writes) via
//! [`ct_pipeline::EnvConfig`].
//!
//! ## Example
//!
//! ```
//! use ct_pipeline::{RunConfig, Session};
//!
//! let session = Session::new(
//!     RunConfig::new("sense").invocations(500).resolution(8).seeded(1));
//! let run = session.collect().unwrap();
//! let est = session.estimate(&run).unwrap();
//! assert!(est.accuracy.mae < 0.05);
//! ```

pub mod service_cell;
pub mod table;

pub use ct_pipeline::{
    par_sweep, random_layout, run_with_profiler, run_with_profiler_pmu, AppRun, EnvConfig, Mcu,
    RunConfig, Session,
};
pub use table::{f2, f4, write_manifest_env, write_result, Table};
