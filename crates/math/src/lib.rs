//! Dense linear algebra and statistics substrate for the RTHS reproduction.
//!
//! This crate provides the small numeric toolbox shared by every other crate
//! in the workspace:
//!
//! * [`kernels`] — the slice kernels (`scale`, `axpy`, running maxima) the
//!   learner slab (`rths-core`) runs over its T-matrix columns.
//! * [`Matrix`] — a dense, row-major `f64` matrix used for the scalar
//!   learner oracle's regret matrices (`rths-core`) and simplex tableaus
//!   (`rths-oracle`).
//! * [`vector`] — dot products and probability-vector helpers on slices.
//! * [`stats`] — means, spread and [Jain's fairness
//!   index](stats::jain_index) for the metrics and figures.
//! * [`assert`](mod@assert) — an approximate slice comparison for the
//!   workspace's test suites.
//!
//! # Example
//!
//! ```
//! use rths_math::Matrix;
//!
//! let mut m = Matrix::zeros(2, 2);
//! m[(0, 1)] = 3.0;
//! assert_eq!(m[(0, 1)], 3.0);
//! ```

#![forbid(unsafe_code)]

pub mod assert;
pub mod kernels;
pub mod matrix;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
