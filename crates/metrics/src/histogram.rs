//! Log-bucketed histogram with percentile queries.

/// Number of linear sub-buckets per power-of-two bucket.
///
/// 16 sub-buckets bound the relative quantization error at ~6%, plenty for
/// the tail-latency goals in the SmartConf evaluation (which care about
/// order-of-magnitude violations, not microseconds).
const SUB_BUCKETS: usize = 16;

/// A histogram over non-negative `u64` values with logarithmic buckets.
///
/// Values are bucketed by `(floor(log2(v)), linear sub-bucket)`, similar to
/// HdrHistogram's layout, giving constant-time recording and bounded
/// relative error on percentile queries. Used by the simulators to track
/// request latencies and by the worst-case-latency goals (HB2149, HD4995).
///
/// # Example
///
/// ```
/// use smartconf_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0).unwrap();
/// assert!((450..=550).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[b][s]` counts values whose high bit is `b` and whose next
    /// bits fall in sub-bucket `s`.
    buckets: Vec<[u64; SUB_BUCKETS]>,
    count: u64,
    total: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![[0; SUB_BUCKETS]; 64],
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let (b, s) = Self::index(value);
        self.buckets[b][s] += 1;
        self.count += 1;
        self.total += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn index(value: u64) -> (usize, usize) {
        if value < SUB_BUCKETS as u64 {
            return (0, value as usize);
        }
        let b = 63 - value.leading_zeros() as usize;
        // Take the SUB_BUCKETS.log2() bits just below the leading bit.
        let shift = b.saturating_sub(4);
        let s = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        (b, s)
    }

    /// Representative (upper-edge) value for a bucket index pair.
    fn bucket_value(b: usize, s: usize) -> u64 {
        if b == 0 {
            return s as u64;
        }
        let shift = b.saturating_sub(4);
        (1u64 << b) | ((s as u64) << shift) | ((1u64 << shift) - 1)
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Minimum recorded value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum recorded value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Value at the given percentile in `[0, 100]`.
    ///
    /// Returns `None` when the histogram is empty. The answer is quantized
    /// to the bucket's upper edge (≤ ~6% relative error), and clamped to the
    /// exact observed min/max.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is not in `[0.0, 100.0]`.
    pub fn percentile(&self, pct: f64) -> Option<u64> {
        assert!(
            (0.0..=100.0).contains(&pct),
            "percentile must be in [0, 100], got {pct}"
        );
        if self.count == 0 {
            return None;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, subs) in self.buckets.iter().enumerate() {
            for (s, &c) in subs.iter().enumerate() {
                seen += c;
                if c > 0 && seen >= rank {
                    let v = Self::bucket_value(b, s);
                    return Some(v.clamp(self.min, self.max));
                }
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.count += other.count;
        self.total += other.total;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all recorded values.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            *b = [0; SUB_BUCKETS];
        }
        self.count = 0;
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_value_percentiles() {
        let mut h = Histogram::new();
        h.record(100);
        assert_eq!(h.percentile(0.0), Some(100));
        assert_eq!(h.percentile(50.0), Some(100));
        assert_eq!(h.percentile(100.0), Some(100));
    }

    #[test]
    fn small_values_are_exact() {
        let h: Histogram = (0..16u64).collect();
        assert_eq!(h.percentile(100.0), Some(15));
        assert_eq!(h.min(), Some(0));
    }

    #[test]
    fn uniform_percentiles_within_error() {
        let h: Histogram = (1..=10_000u64).collect();
        for pct in [10.0, 25.0, 50.0, 90.0, 99.0] {
            let exact = (pct / 100.0 * 10_000.0) as i64;
            let got = h.percentile(pct).unwrap() as i64;
            let err = (got - exact).abs() as f64 / exact as f64;
            assert!(err < 0.10, "p{pct}: exact {exact}, got {got}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let h: Histogram = (1..=100u64).collect();
        assert_eq!(h.mean(), 50.5);
    }

    #[test]
    fn merge_combines() {
        let mut a: Histogram = (1..=50u64).collect();
        let b: Histogram = (51..=100u64).collect();
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(100));
    }

    #[test]
    fn reset_clears() {
        let mut h: Histogram = (1..=100u64).collect();
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), None);
    }

    #[test]
    fn percentile_monotone() {
        let h: Histogram = [1u64, 10, 100, 1000, 10_000, 100_000].into_iter().collect();
        let mut last = 0;
        for p in 0..=100 {
            let v = h.percentile(p as f64).unwrap();
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_out_of_range_panics() {
        let h = Histogram::new();
        let _ = h.percentile(101.0);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn percentile_bounded_by_min_max(values in prop::collection::vec(0u64..1_000_000, 1..200)) {
            let h: Histogram = values.iter().copied().collect();
            let min = *values.iter().min().unwrap();
            let max = *values.iter().max().unwrap();
            for pct in [0.0, 25.0, 50.0, 75.0, 99.9, 100.0] {
                let v = h.percentile(pct).unwrap();
                prop_assert!(v >= min && v <= max, "p{}={} outside [{}, {}]", pct, v, min, max);
            }
        }

        #[test]
        fn count_matches(values in prop::collection::vec(0u64..u64::MAX, 0..100)) {
            let h: Histogram = values.iter().copied().collect();
            prop_assert_eq!(h.count(), values.len() as u64);
        }

        #[test]
        fn median_relative_error_bounded(values in prop::collection::vec(1u64..1_000_000, 50..300)) {
            let h: Histogram = values.iter().copied().collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let exact = sorted[(sorted.len() - 1) / 2] as f64;
            let got = h.percentile(50.0).unwrap() as f64;
            // Bucket quantization error is bounded by one sub-bucket width.
            prop_assert!((got - exact).abs() / exact < 0.15,
                "median exact {} got {}", exact, got);
        }
    }
}
