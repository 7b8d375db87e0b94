//! # slim-stats
//!
//! The statistical engine of the `slimsim` reproduction: Chernoff–Hoeffding
//! sample bounds, sequential generators (Gauss/CLT and Chow–Robbins), an
//! order-unbiased parallel sample collector, and reproducible per-path RNG
//! streams.
//!
//! See §II-B (quantitative statistical analysis) and §III-C
//! (parallelization) of *"A Statistical Approach for Timed Reachability in
//! AADL Models"* (DSN 2015).
//!
//! ## Example
//!
//! ```
//! use slim_stats::chernoff::Accuracy;
//! use slim_stats::estimator::{ChernoffHoeffding, Generator};
//! use slim_stats::rng::StdRng;
//!
//! let acc = Accuracy::new(0.05, 0.05)?;
//! let mut gen = ChernoffHoeffding::new(acc);
//! let mut rng = StdRng::seed_from_u64(42);
//! while !gen.is_complete() {
//!     gen.add(rng.gen::<f64>() < 0.3); // one Monte Carlo sample
//! }
//! let est = gen.estimate();
//! assert!(est.samples == acc.chernoff_samples());
//! # Ok::<(), slim_stats::chernoff::AccuracyError>(())
//! ```

#![forbid(unsafe_code)]

pub mod chernoff;
pub mod estimator;
pub mod math;
pub mod parallel;
pub mod rng;
pub mod sequential;
pub mod weighted;

pub use chernoff::Accuracy;
pub use estimator::{ChernoffHoeffding, Estimate, Generator};
pub use parallel::RoundRobinCollector;
pub use sequential::{ChowRobbins, Gauss, GeneratorKind};
pub use weighted::{WeightedEstimate, WeightedEstimator};
