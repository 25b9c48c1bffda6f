#![warn(missing_docs)]

//! # ct-markov
//!
//! Discrete-time Markov chain machinery for the Code Tomography program
//! model: procedure executions are absorbing chains over basic blocks, and
//! everything the estimators need — expected visit counts, duration moments,
//! exact duration distributions — reduces to absorbing-chain analysis.
//!
//! - [`chain`] — validated row-stochastic chains.
//! - [`builder`] — assembling the chain of a procedure from its CFG and
//!   branch probabilities.
//! - [`absorbing`] — fundamental matrix, expected visits, absorption
//!   probabilities.
//! - [`visits`] — CFG-level visit counts and edge traversal frequencies.
//! - [`passage`] — mean/variance of the total duration and its exact
//!   integer-support distribution.
//! - [`sample`] — Monte-Carlo trajectories and durations.
//!
//! ## Example
//!
//! ```
//! use ct_cfg::builder::while_loop;
//! use ct_cfg::graph::BlockId;
//! use ct_cfg::profile::BranchProbs;
//! use ct_markov::visits::expected_visits;
//!
//! let cfg = while_loop();
//! let mut probs = BranchProbs::uniform(&cfg, 0.5);
//! probs.set_prob_true(BlockId(1), 0.75); // loop continues 75% of the time
//! // entry, header, body, exit: the header runs 1/(1−0.75) = 4 times
//! let v = expected_visits(&cfg, &probs).unwrap();
//! assert!((v[1] - 4.0).abs() < 1e-9);
//! assert!((v[2] - 3.0).abs() < 1e-9);
//! ```

pub mod absorbing;
pub mod builder;
pub mod chain;
pub mod passage;
pub mod sample;
pub mod visits;

pub use absorbing::AbsorbingAnalysis;
pub use builder::chain_from_cfg;
pub use chain::{ChainError, Dtmc};
pub use passage::{duration_distribution, duration_moments, DurationDistribution, DurationMoments};
pub use sample::{sample_duration, sample_run};
