//! Shared profiling schedule: the paper's 4-settings × N-measurements loop.
//!
//! Before synthesis, every PerfConf is profiled by holding the
//! configuration at a handful of settings and measuring the performance
//! metric repeatedly (paper §6.1: 4 settings, 10 measurements each).
//! PR 1 left each scenario crate re-implementing that loop by hand; the
//! [`Profiler`] here owns it once. A scenario declares *what* to profile
//! (a [`ProfileSchedule`]: which settings, how many measurements, how to
//! sample them out of the recorded series) and supplies *how* to run one
//! profiling workload (a closure from `(setting, seed)` to a
//! [`TimeSeries`]); the profiler drives the schedule and assembles the
//! grouped [`ProfileSet`] that controller synthesis consumes.

use smartconf_core::ProfileSet;
use smartconf_metrics::TimeSeries;

/// How measurements are extracted from one profiling run's series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// Sample the series on a fixed time grid: measurement `k` is the
    /// zero-order-hold value at `warmup_us + k · period_us`. Used by
    /// scenarios whose metric is a continuously maintained gauge
    /// (resident memory, queue depth).
    Grid {
        /// Time of the first sample, microseconds.
        warmup_us: u64,
        /// Spacing between samples, microseconds.
        period_us: u64,
    },
    /// Take the first N recorded points verbatim. Used by scenarios whose
    /// metric is event-triggered (block write durations, RPC latencies)
    /// and therefore already arrives as discrete measurements.
    FirstEvents,
}

/// A declarative profiling schedule: which settings to hold, how many
/// measurements to take at each, and how to sample them.
///
/// # Example
///
/// ```
/// use smartconf_runtime::ProfileSchedule;
///
/// // The paper's §6.1 schedule: 4 settings × 10 measurements.
/// let schedule = ProfileSchedule::first_events(vec![40.0, 80.0, 120.0, 160.0], 10);
/// assert_eq!(schedule.settings().len(), 4);
/// assert_eq!(schedule.measurements(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSchedule {
    settings: Vec<f64>,
    measurements: usize,
    mode: SampleMode,
}

impl ProfileSchedule {
    /// A schedule sampling each setting's series on a fixed time grid.
    pub fn grid(settings: Vec<f64>, measurements: usize, warmup_us: u64, period_us: u64) -> Self {
        ProfileSchedule {
            settings,
            measurements,
            mode: SampleMode::Grid {
                warmup_us,
                period_us,
            },
        }
    }

    /// A schedule taking the first `measurements` recorded points of each
    /// setting's series.
    pub fn first_events(settings: Vec<f64>, measurements: usize) -> Self {
        ProfileSchedule {
            settings,
            measurements,
            mode: SampleMode::FirstEvents,
        }
    }

    /// The settings at which the configuration is held, in run order.
    pub fn settings(&self) -> &[f64] {
        &self.settings
    }

    /// Measurements taken per setting.
    pub fn measurements(&self) -> usize {
        self.measurements
    }

    /// How measurements are extracted from each run's series.
    pub fn mode(&self) -> SampleMode {
        self.mode
    }
}

/// Drives a [`ProfileSchedule`] through per-setting profiling runs and
/// collects the grouped samples.
///
/// Each setting `i` runs with the derived seed `seed + i + 1`
/// (wrapping), matching the per-setting reseeding the scenario crates
/// used before this loop was shared: distinct settings see distinct
/// workload noise, while the whole profile stays a pure function of the
/// base seed.
///
/// # Example
///
/// ```
/// use smartconf_metrics::TimeSeries;
/// use smartconf_runtime::{ProfileSchedule, Profiler};
///
/// // metric ≈ 2·setting, sampled on a 1-second grid after 10 s warmup.
/// let schedule = ProfileSchedule::grid(vec![40.0, 80.0, 120.0, 160.0], 10, 10_000_000, 1_000_000);
/// let profile = Profiler::new(schedule).collect(42, |setting, seed| {
///     let mut ts = TimeSeries::new("metric");
///     for k in 0..30 {
///         let noise = ((seed + k) % 3) as f64;
///         ts.push(k * 1_000_000, 2.0 * setting + noise);
///     }
///     ts
/// });
/// assert_eq!(profile.num_settings(), 4);
/// assert_eq!(profile.len(), 40); // 4 settings × 10 measurements
/// let fit = profile.fit().unwrap();
/// assert!((fit.alpha() - 2.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Profiler {
    schedule: ProfileSchedule,
}

impl Profiler {
    /// Creates a profiler for the given schedule.
    pub fn new(schedule: ProfileSchedule) -> Self {
        Profiler { schedule }
    }

    /// The schedule this profiler drives.
    pub fn schedule(&self) -> &ProfileSchedule {
        &self.schedule
    }

    /// Runs one profiling workload per declared setting and extracts the
    /// scheduled measurements from each run's series.
    ///
    /// `run(setting, seed)` must execute one profiling run with the
    /// configuration held at `setting` and return the recorded metric
    /// series. Non-finite samples are dropped by [`ProfileSet::add`];
    /// grid samples before the series starts are skipped.
    pub fn collect(&self, seed: u64, mut run: impl FnMut(f64, u64) -> TimeSeries) -> ProfileSet {
        let mut profile = ProfileSet::new();
        for (i, &setting) in self.schedule.settings.iter().enumerate() {
            let series = run(setting, seed.wrapping_add(i as u64 + 1));
            self.sample_into(&mut profile, setting, &series);
        }
        profile
    }

    fn sample_into(&self, profile: &mut ProfileSet, setting: f64, series: &TimeSeries) {
        match self.schedule.mode {
            SampleMode::Grid {
                warmup_us,
                period_us,
            } => {
                for k in 0..self.schedule.measurements as u64 {
                    if let Some(v) = series.value_at(warmup_us + k * period_us) {
                        profile.add(setting, v);
                    }
                }
            }
            SampleMode::FirstEvents => {
                for p in series.points().iter().take(self.schedule.measurements) {
                    profile.add(setting, p.value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_series(setting: f64, seed: u64, points: u64) -> TimeSeries {
        let mut ts = TimeSeries::new("m");
        for k in 0..points {
            let noise = ((seed + k) % 5) as f64 * 0.1;
            ts.push(k * 1_000_000, 3.0 * setting + noise);
        }
        ts
    }

    #[test]
    fn grid_takes_exactly_the_scheduled_measurements() {
        let schedule = ProfileSchedule::grid(vec![10.0, 20.0, 30.0, 40.0], 10, 5_000_000, 500_000);
        let profile = Profiler::new(schedule).collect(7, |s, seed| linear_series(s, seed, 60));
        assert_eq!(profile.num_settings(), 4);
        assert_eq!(profile.len(), 40);
        let fit = profile.fit().unwrap();
        assert!((fit.alpha() - 3.0).abs() < 0.05, "alpha {}", fit.alpha());
    }

    #[test]
    fn first_events_truncates_to_measurement_count() {
        let schedule = ProfileSchedule::first_events(vec![10.0, 20.0], 8);
        let profile = Profiler::new(schedule).collect(1, |s, seed| linear_series(s, seed, 30));
        assert_eq!(profile.len(), 16);
    }

    #[test]
    fn grid_before_series_start_is_skipped_and_zoh_holds_past_the_end() {
        // Matching the old hand-rolled loops, which used `value_at`:
        // samples before the first point are skipped; samples after the
        // last point hold its value (zero-order hold).
        let schedule = ProfileSchedule::grid(vec![10.0], 10, 0, 1_000_000);
        let profile = Profiler::new(schedule).collect(0, |s, seed| {
            let mut ts = TimeSeries::new("m");
            let full = linear_series(s, seed, 4);
            for p in &full.points()[1..] {
                ts.push(p.t_us, p.value);
            }
            ts
        });
        // Grid point 0 precedes the series (skipped); points 1..10 resolve
        // (the tail held at the last sample).
        assert_eq!(profile.len(), 9);
    }

    #[test]
    fn per_setting_seeds_match_the_historical_derivation() {
        let mut seen = Vec::new();
        let schedule = ProfileSchedule::first_events(vec![1.0, 2.0, 3.0], 1);
        Profiler::new(schedule).collect(100, |s, seed| {
            seen.push((s, seed));
            linear_series(s, seed, 2)
        });
        assert_eq!(seen, vec![(1.0, 101), (2.0, 102), (3.0, 103)]);
    }

    proptest::proptest! {
        /// Satellite property: under both sampling modes, every declared
        /// setting contributes exactly its scheduled measurement count
        /// (when the run's series covers the schedule, as real runs do).
        #[test]
        fn every_setting_gets_exactly_its_measurement_count(
            n_settings in 1usize..6,
            measurements in 1usize..30,
            grid in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            let settings: Vec<f64> = (1..=n_settings).map(|i| i as f64 * 12.5).collect();
            let schedule = if grid {
                // 1 s warmup + 0.5 s grid stays inside the 64 s series.
                ProfileSchedule::grid(settings.clone(), measurements, 1_000_000, 500_000)
            } else {
                ProfileSchedule::first_events(settings.clone(), measurements)
            };
            let profile = Profiler::new(schedule).collect(seed, |s, sd| linear_series(s, sd, 64));
            proptest::prop_assert_eq!(profile.num_settings(), n_settings);
            proptest::prop_assert_eq!(profile.len(), n_settings * measurements);
            for (setting, stats) in profile.groups() {
                proptest::prop_assert!(settings.contains(&setting));
                proptest::prop_assert_eq!(stats.count(), measurements as u64);
            }
        }
    }
}
