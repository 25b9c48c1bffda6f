#![warn(missing_docs)]

//! # ct-core — Code Tomography
//!
//! The paper's primary contribution: estimating the parameters of a sensor
//! procedure's Markov execution model **from end-to-end timing alone** —
//! timestamps at procedure entry and exit, quantized by a cheap hardware
//! timer — and handing the recovered edge frequencies to profile-guided code
//! placement.
//!
//! ## The inverse problem
//!
//! A procedure's CFG with branch probabilities `θ` induces a distribution
//! over end-to-end durations: each run is a random path whose duration is the
//! sum of statically known per-block and per-edge cycle costs. The mote's
//! instrumentation observes those durations only through a quantizing timer.
//! Code Tomography inverts this: given the observed tick samples and the
//! static costs, recover `θ`.
//!
//! ## Estimators
//!
//! - [`em`] — exact EM (Baum–Welch) over the time-expanded chain, using the
//!   quantization kernel of [`quantize`]; the most accurate.
//! - [`moments`] — mean/variance matching by coordinate descent; the cheap
//!   fallback for path-explosive procedures.
//! - [`gnt`] — generalized network tomography: distribution-free
//!   characteristic-function matching with bounded per-sample influence;
//!   needs no dynamic program and degrades gracefully under channel faults
//!   that reshape the duration distribution.
//! - [`flow_nnls`] — flow-constrained NNLS on the mean; the linear-inverse
//!   baseline.
//!
//! [`estimator::estimate`] is the front door with automatic method selection;
//! [`accuracy`] scores estimates against ground truth.
//!
//! ## Example
//!
//! ```
//! use ct_cfg::builder::diamond;
//! use ct_core::{estimate, EstimateOptions, TimingSamples};
//!
//! // A procedure with a 115-cycle fast path and a 215-cycle slow path,
//! // observed 70/30 with a cycle-accurate timer:
//! let cfg = diamond();
//! let mut ticks = vec![115u64; 700];
//! ticks.extend(vec![215u64; 300]);
//! let est = estimate(
//!     &cfg,
//!     &[10, 100, 200, 5],
//!     &[0, 0, 0, 0],
//!     &TimingSamples::new(ticks, 1),
//!     EstimateOptions::default(),
//! ).unwrap();
//! assert!((est.probs.as_slice()[0] - 0.7).abs() < 0.01);
//! ```

pub mod accuracy;
mod chain;
pub mod em;
pub mod estimator;
pub mod fb;
pub mod flow_nnls;
pub mod gnt;
pub mod incremental;
pub mod moments;
pub mod quantize;
pub mod report;
pub mod samples;
pub mod stream;
pub mod unrolled;

pub use accuracy::{compare, compare_unweighted, AccuracyReport};
pub use em::{estimate_em, estimate_em_from, EmOptions, EmResult};
pub use estimator::{
    estimate, estimate_robust, Estimate, EstimateError, EstimateOptions, Method, RobustEstimate,
    RobustOptions, Rung, RungAttempt,
};
pub use fb::{e_step, e_step_planned, FbError, FbParams, FbPlan, FbScratch};
pub use flow_nnls::{estimate_flow, FlowResult};
pub use gnt::{estimate_gnt, model_cf, GntError, GntResult};
pub use incremental::IncrementalEm;
pub use moments::{estimate_moments, model_moments, MomentsError, MomentsResult};
pub use quantize::{
    duration_window, pmf_tick_score_soa, tick_likelihood, try_duration_window, WindowError,
};
pub use samples::{DurationSamples, SampleIssue, TimingSamples, TrimPolicy};
pub use stream::{BatchTag, ResolutionMismatch, SuffStats};
pub use unrolled::{estimate_unrolled, UnrolledError};
