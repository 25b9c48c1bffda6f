#![warn(missing_docs)]

//! # ct-cfg
//!
//! Control-flow graphs for sensor network programs: the shared program
//! representation of the Code Tomography workspace.
//!
//! - [`graph`] — blocks, terminators, edges, traversals, validation.
//! - [`builder`] — common shapes (diamond, loops, chains) for tests and
//!   synthetic workloads.
//! - [`dominators`] / [`loops`] — dominator tree, natural loops, reducibility.
//! - [`paths`] — DAG path enumeration for path-mixture models and Ball–Larus
//!   profiling.
//! - [`profile`] — edge counts, block visits and branch probabilities (the
//!   Markov parameters the paper estimates).
//! - [`layout`] — flash block order and its taken-branch / jump cost model,
//!   shared by the placement optimizer and the mote simulator.
//! - [`dot`] — Graphviz export.
//!
//! ## Example
//!
//! ```
//! use ct_cfg::builder::diamond;
//! use ct_cfg::profile::EdgeProfile;
//! use ct_cfg::layout::{Layout, PenaltyModel};
//!
//! let cfg = diamond();
//! let profile = EdgeProfile::from_counts(&cfg, vec![90, 10, 90, 10]);
//! let probs = profile.branch_probs(&cfg);
//! assert!((probs.as_slice()[0] - 0.9).abs() < 1e-12);
//!
//! let cost = Layout::natural(&cfg).evaluate(&cfg, &profile, &PenaltyModel::avr());
//! assert_eq!(cost.branches_taken, 10);
//! ```

pub mod builder;
pub mod dominators;
pub mod dot;
pub mod graph;
pub mod layout;
pub mod loops;
pub mod paths;
pub mod profile;
pub mod unroll;

pub use graph::{Block, BlockId, Cfg, CfgError, Edge, EdgeKind, Terminator};
pub use layout::{BranchPredictor, EdgeTransfer, Layout, LayoutCost, PenaltyModel, TransferKind};
pub use profile::{BranchProbs, EdgeProfile};
pub use unroll::{unroll, UnrollError, Unrolled};
