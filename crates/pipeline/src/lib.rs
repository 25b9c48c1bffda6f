#![deny(missing_docs)]

//! # ct-pipeline — the end-to-end Code Tomography flow, typed
//!
//! Every consumer of this workspace used to wire the same steps by hand:
//! compile an app, boot a mote, drive the workload under paired ground-truth
//! and timing instrumentation, estimate branch probabilities from the tick
//! samples, feed the estimate to code placement, and re-measure. This crate
//! makes that flow a first-class object:
//!
//! - [`stage`] — one typed [`Stage`] per pipeline step
//!   (`Compile → Deploy → Run → Collect → Corrupt → Estimate → Place →
//!   Evaluate`), each consuming the previous stage's artifact;
//! - [`Session`] — the builder that composes the stages under one seeded
//!   [`RunConfig`] (app, MCU calibration, timer resolution, fault plan,
//!   estimator choice) so experiments differ only in their config;
//! - [`Fleet`] — N simulated motes fanned out over scoped threads, their
//!   tick streams reduced to mergeable [`SuffStats`](ct_core::SuffStats)
//!   (associative, order-insensitive merge) and estimated without ever
//!   re-materializing the combined sample vector;
//! - [`synth`] — seeded synthetic-sample generation for the
//!   estimator-ablation experiments.
//!
//! The streaming ingestion path ([`Fleet::estimate_streaming`]) and the
//! checkpoint format ([`checkpoint`], re-exported from `ct-service`) run on
//! the sharded estimation service: the fleet client drives a
//! single-shard, reduce-per-batch `ct_service::ServiceCore`, which pins it
//! bitwise to the pre-service per-batch loop while sharing all ingest,
//! dedup, reduction, snapshot, and restore logic with the threaded
//! `ct_service::EstimationService`. Checkpointing is configured in code:
//! pass [`CheckpointPolicy::to`] to [`Fleet::estimate_streaming_with`];
//! restores go through [`CheckpointPolicy::load_valid`].
//!
//! ## Example
//!
//! ```
//! use ct_pipeline::{RunConfig, Session};
//!
//! let config = RunConfig::new("sense").invocations(500).seeded(1);
//! let session = Session::new(config);
//! let run = session.collect().unwrap();
//! let est = session.estimate(&run).unwrap();
//! assert!(est.accuracy.mae < 0.05);
//! ```

pub use ct_service::checkpoint;

pub mod config;
pub mod error;
pub mod fleet;
pub mod measure;
pub mod session;
pub mod stage;
pub mod synth;

pub use config::{Contamination, EnvConfig, EstimatorChoice, Mcu, RunConfig, Target};
pub use ct_mote::pmu::{PmuCounters, PmuSnapshot};
pub use ct_service::checkpoint::{
    Checkpoint, CheckpointError, CheckpointEstimate, CheckpointPolicy,
};
pub use error::PipelineError;
pub use fleet::{quiet_injected_crashes, Fleet, FleetRun, FleetStreamReport, InjectedCrash};
pub use measure::{
    edge_frequencies, par_sweep, penalties, random_layout, run_with_profiler, run_with_profiler_pmu,
};
pub use session::{Evaluated, PipelineReport, Session};
pub use stage::{
    traced, AppRun, Compiled, Deployed, Estimated, EstimatedRun, Executed, PlacedRun, Stage,
};
