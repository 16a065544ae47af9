//! Lightweight, dependency-free statistics primitives used throughout the
//! PACT reproduction.
//!
//! The PACT design (ASPLOS '26) leans on a handful of classic statistical
//! tools: Pearson correlation to validate the per-tier stall model (Fig. 2),
//! reservoir sampling and the Freedman–Diaconis rule for adaptive promotion
//! binning (Algorithm 3), and quantiles for skew analysis (Fig. 1). This
//! crate provides exactly those tools with small, well-tested
//! implementations.
//!
//! # Example
//!
//! ```
//! use pact_stats::{pearson, Quantiles};
//!
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [2.1, 3.9, 6.2, 7.8];
//! let r = pearson(&xs, &ys).unwrap();
//! assert!(r > 0.99);
//!
//! let q = Quantiles::from_unsorted(&[1.0, 2.0, 3.0, 4.0, 100.0]);
//! assert_eq!(q.median(), 3.0);
//! ```

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

#[cfg(clippy)]
mod canary;

mod histogram;
mod linfit;
mod loghist;
mod pearson;
mod quantile;
mod rank;
mod reservoir;
mod rng;
mod summary;

pub use histogram::{freedman_diaconis_width, Histogram};
pub use linfit::{linear_fit, LinearFit};
pub use loghist::LogHistogram;
pub use pearson::pearson;
pub use quantile::Quantiles;
pub use rank::{gini, spearman, top_k_overlap};
pub use reservoir::Reservoir;
pub use rng::{SplitMix64, Uniform, UniformRange};
pub use summary::Summary;
