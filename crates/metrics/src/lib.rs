//! Online statistics, histograms, and time-series recording.
//!
//! This crate provides the measurement substrate shared by the SmartConf
//! controller-synthesis pipeline and the discrete-event simulators:
//!
//! * [`OnlineStats`] — Welford single-pass mean/variance, used by the
//!   profiler to compute the per-setting `σᵢ/mᵢ` ratios that drive pole and
//!   virtual-goal selection (paper §5.1–§5.2).
//! * [`Histogram`] — log-bucketed latency histogram with percentile queries,
//!   used for the tail-latency goals (HB2149, HD4995).
//! * [`TimeSeries`] — append-only `(time, value)` recorder with resampling,
//!   used to regenerate the paper's time-series figures (Figures 6–8).
//! * [`RateCounter`] — windowed throughput counter (operations per second).
//! * [`QuantileSketch`] — mergeable fixed-bin log-bucketed quantile
//!   sketch, used by the soak mode for per-cohort p99/p999 goal error in
//!   O(1) memory.
//!
//! # Example
//!
//! ```
//! use smartconf_metrics::OnlineStats;
//!
//! let mut stats = OnlineStats::new();
//! for x in [4.0, 7.0, 13.0, 16.0] {
//!     stats.record(x);
//! }
//! assert_eq!(stats.mean(), 10.0);
//! assert!(stats.coefficient_of_variation() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod histogram;
mod quantile;
mod rate;
mod timeseries;
mod welford;

pub use histogram::Histogram;
pub use quantile::QuantileSketch;
pub use rate::RateCounter;
pub use timeseries::{SeriesPoint, SeriesSummary, TimeSeries};
pub use welford::OnlineStats;
