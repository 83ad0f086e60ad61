//! Single-pass (Welford) mean and variance.

/// Online mean/variance accumulator using Welford's algorithm.
///
/// Numerically stable in a single pass; also tracks the minimum and maximum
/// observation. This is the statistic the SmartConf profiler keeps per
/// sampled configuration setting: the paper's pole formula needs
/// `σᵢ / mᵢ` for each sampled setting *i* (§5.1), and the virtual-goal
/// formula needs the same ratio without the 3× safety factor (§5.2).
///
/// # Example
///
/// ```
/// use smartconf_metrics::OnlineStats;
///
/// let stats: OnlineStats = [2.0_f64, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
///     .into_iter()
///     .collect();
/// assert_eq!(stats.mean(), 5.0);
/// assert_eq!(stats.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    ///
    /// Non-finite values are ignored so that a single broken sensor reading
    /// cannot poison controller synthesis.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the observations, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest recorded observation.
    ///
    /// Returns `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded observation.
    ///
    /// Returns `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Population variance (`m2 / n`), or `0.0` with fewer than one sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation `σ / |mean|`.
    ///
    /// This is the `σᵢ/mᵢ` term of the paper's λ (virtual-goal margin) and,
    /// scaled by 3, of its Δ (model-error bound). Returns `0.0` when the
    /// mean is zero to keep controller synthesis well-defined on degenerate
    /// profiles.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    ///
    /// # Example
    ///
    /// ```
    /// use smartconf_metrics::OnlineStats;
    ///
    /// let mut a: OnlineStats = [1.0_f64, 2.0].into_iter().collect();
    /// let b: OnlineStats = [3.0_f64, 4.0].into_iter().collect();
    /// a.merge(&b);
    /// assert_eq!(a.mean(), 2.5);
    /// assert_eq!(a.count(), 4);
    /// ```
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = OnlineStats::new();
        for x in iter {
            stats.record(x);
        }
        stats
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_value() {
        let mut s = OnlineStats::new();
        s.record(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn known_variance() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!(close(s.mean(), 5.0));
        assert!(close(s.population_variance(), 4.0));
        assert!(close(s.std_dev(), 2.0));
        assert!(close(s.coefficient_of_variation(), 0.4));
    }

    #[test]
    fn ignores_non_finite() {
        let mut s = OnlineStats::new();
        s.record(1.0);
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(3.0);
        assert_eq!(s.count(), 2);
        assert!(close(s.mean(), 2.0));
    }

    #[test]
    fn merge_matches_sequential() {
        let xs = [1.0, 5.0, 2.5, 9.0, -3.0, 0.5];
        let (left, right) = xs.split_at(3);
        let mut a: OnlineStats = left.iter().copied().collect();
        let b: OnlineStats = right.iter().copied().collect();
        a.merge(&b);
        let all: OnlineStats = xs.iter().copied().collect();
        assert!(close(a.mean(), all.mean()));
        assert!(close(a.population_variance(), all.population_variance()));
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_into_empty() {
        let mut a = OnlineStats::new();
        let b: OnlineStats = [1.0, 2.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(close(a.mean(), 1.5));
    }

    #[test]
    fn merge_from_empty_is_noop() {
        let mut a: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn cv_zero_mean_is_zero() {
        let s: OnlineStats = [-1.0, 1.0].into_iter().collect();
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn extend_appends() {
        let mut s: OnlineStats = [1.0].into_iter().collect();
        s.extend([2.0, 3.0]);
        assert_eq!(s.count(), 3);
        assert!(close(s.mean(), 2.0));
    }
}
