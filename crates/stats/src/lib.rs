#![warn(missing_docs)]

//! # ct-stats
//!
//! Numeric substrate for the Code Tomography workspace: a small dense matrix
//! type with LU/QR solvers, Lawson–Hanson nonnegative least squares,
//! descriptive statistics, histograms, distribution helpers, and the error
//! metrics used to score estimated execution profiles against ground truth.
//!
//! Everything here is implemented from scratch (no external linear-algebra
//! dependencies) because the reproduction rules require the full substrate to
//! live in-repo, and the problem sizes — one unknown per branch edge of a
//! sensor-program procedure — are small enough that simple dense algorithms
//! are the right tool.
//!
//! ## Example
//!
//! ```
//! use ct_stats::matrix::Matrix;
//! use ct_stats::nnls::{nnls, NnlsOptions};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Recover nonnegative visit counts v from timing equations A v = t.
//! let a = Matrix::from_rows(&[&[10.0, 4.0], &[10.0, 0.0], &[0.0, 4.0]]);
//! let sol = nnls(&a, &[18.0, 10.0, 8.0], NnlsOptions::default())?;
//! assert!((sol.x[0] - 1.0).abs() < 1e-8);
//! assert!((sol.x[1] - 2.0).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

pub mod descriptive;
pub mod dist;
pub mod hist;
pub mod matrix;
pub mod metrics;
pub mod nnls;
pub mod parallel;
pub mod pmf;
pub mod solve;

pub use descriptive::Summary;
pub use hist::Histogram;
pub use matrix::Matrix;
pub use nnls::{nnls, NnlsOptions, NnlsSolution};
pub use parallel::{par_map, thread_count};
pub use solve::{lstsq, Lu, SolveError};
