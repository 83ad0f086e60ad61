//! Streaming quantile sketch with deterministic merging.
//!
//! The soak mode needs p99/p999 goal error per tenant cohort without
//! retaining per-tenant epoch logs, and the partial sketches produced by
//! parallel fleet shards must merge into the *same* result regardless of
//! worker count. That rules out the classic P² estimator — its marker
//! positions depend on arrival order and two P² states cannot be merged
//! — so this sketch is a fixed-geometry log-bucketed histogram instead:
//!
//! * each positive value lands in one of [`QuantileSketch::BINS`] buckets
//!   spanning `[2⁻³², 2³²)`, with [`SUBS`] equal-mantissa sub-buckets per
//!   power of two (bucketing is pure bit arithmetic on the IEEE-754
//!   representation — no `log`, no platform-dependent libm);
//! * bucket counts are integers, so merging is addition — associative,
//!   commutative, and byte-deterministic;
//! * a quantile query walks the cumulative counts and reports the bucket
//!   midpoint, giving a guaranteed relative error of at most
//!   [`QuantileSketch::RELATIVE_ERROR`] for in-range values.
//!
//! Memory is O(1): 2048 × 8-byte buckets (16 KiB) per sketch, however
//! many values are recorded — and nothing until the sketch holds a
//! value: the buckets are allocated by the first finite record (or the
//! first merge of a non-empty sketch), so a sketch nothing reaches costs
//! only its few scalar fields.

/// Mantissa bits used for sub-bucketing: 2⁵ = 32 sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per power of two.
const SUBS: usize = 1 << SUB_BITS;
/// Smallest tracked binary exponent (values below `2^EXP_MIN` clamp into
/// the first bucket).
const EXP_MIN: i32 = -32;
/// Largest tracked binary exponent, inclusive (values at `2^(EXP_MAX+1)`
/// or above clamp into the last bucket).
const EXP_MAX: i32 = 31;

/// `2^e` for `|e| ≤ 1022`, built exactly from the IEEE-754 bit layout so
/// the representative values are identical on every platform.
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// A mergeable fixed-bin log-bucketed quantile sketch for positive
/// values.
///
/// A sketch holds its 16 KiB of buckets only once it holds a value: a
/// new sketch, and one fed only non-finite values, allocates none.
///
/// # Example
///
/// ```
/// use smartconf_metrics::QuantileSketch;
///
/// let mut a = QuantileSketch::new();
/// let mut b = QuantileSketch::new();
/// for i in 1..=500 {
///     a.record(i as f64);
///     b.record((500 + i) as f64);
/// }
/// a.merge(&b);
/// assert_eq!(a.count(), 1000);
/// let p99 = a.quantile(0.99);
/// assert!((p99 - 990.0).abs() / 990.0 <= QuantileSketch::RELATIVE_ERROR);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Empty exactly when `count == 0`; otherwise [`Self::BINS`] long.
    bins: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// Total bucket count of the fixed geometry.
    pub const BINS: usize = ((EXP_MAX - EXP_MIN + 1) as usize) * SUBS;

    /// Guaranteed relative error bound for quantiles of in-range values:
    /// a bucket spans a `1/32` relative slice of its octave and the query
    /// reports the midpoint, so the answer is within `1/64` of the true
    /// sample quantile.
    pub const RELATIVE_ERROR: f64 = 1.0 / (2 * SUBS) as f64;

    /// An empty sketch; it allocates no buckets until it holds a value.
    pub fn new() -> Self {
        QuantileSketch {
            bins: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index of `value`. Non-positive and below-range values
    /// clamp to bucket 0, above-range values to the last bucket.
    ///
    /// For a positive value the biased exponent and the top [`SUB_BITS`]
    /// mantissa bits sit side by side in the IEEE-754 word, so shifting
    /// them out together yields `exponent · SUBS + sub-bucket` directly;
    /// subtracting the first tracked octave and clamping does the rest.
    #[inline]
    fn bucket_of(value: f64) -> usize {
        if value.is_nan() || value <= 0.0 {
            return 0;
        }
        let top = (value.to_bits() >> (52 - SUB_BITS)) as i64;
        let first = ((1023 + EXP_MIN) as i64) << SUB_BITS;
        (top - first).clamp(0, Self::BINS as i64 - 1) as usize
    }

    /// The midpoint of bucket `index`'s value range.
    fn representative(index: usize) -> f64 {
        let exp = EXP_MIN + (index / SUBS) as i32;
        let sub = (index % SUBS) as f64;
        let lo = pow2(exp) * (1.0 + sub / SUBS as f64);
        let hi = pow2(exp) * (1.0 + (sub + 1.0) / SUBS as f64);
        (lo + hi) / 2.0
    }

    /// Records one value. Non-finite values are ignored; non-positive
    /// values count toward the lowest bucket (the sketch is meant for
    /// positive metrics such as overshoot ratios).
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.record_all(std::slice::from_ref(&value));
    }

    /// Records every value of `values`, in order, as
    /// [`record`](Self::record) does one, keeping the running count, sum
    /// and extremes in locals across the batch. The extremes move only
    /// on a strictly smaller (larger) value, so a tie between `0.0` and
    /// `-0.0` keeps the one seen first. A new extreme is rare once a
    /// batch is under way, so both updates sit on a cold path and the
    /// common value costs two predicted branches, not a select chain.
    #[inline]
    pub fn record_all(&mut self, values: &[f64]) {
        if self.bins.is_empty() {
            if !values.iter().any(|v| v.is_finite()) {
                return;
            }
            self.bins = vec![0; Self::BINS];
        }
        let (mut count, mut sum, mut min, mut max) = (self.count, self.sum, self.min, self.max);
        for &value in values {
            if !value.is_finite() {
                continue;
            }
            self.bins[Self::bucket_of(value)] += 1;
            count += 1;
            sum += value;
            if value < min {
                std::hint::cold_path();
                min = value;
            }
            if value > max {
                std::hint::cold_path();
                max = value;
            }
        }
        (self.count, self.sum, self.min, self.max) = (count, sum, min, max);
    }

    /// Folds `other` into `self`. Bucket counts add, so merging is
    /// order-independent up to the float `sum` (which callers fold in a
    /// fixed work-item order for byte determinism).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if self.bins.is_empty() {
            self.bins.clone_from(&other.bins);
        } else {
            for (a, b) in self.bins.iter_mut().zip(&other.bins) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (exact, not bucketed); 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Smallest recorded value (exact); 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.min
    }

    /// Largest recorded value (exact); 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.max
    }

    /// The `q`-quantile (`q` clamped into `[0, 1]`) under the usual
    /// `rank = ⌈q·n⌉` convention: the reported value is the midpoint of
    /// the bucket holding the rank-th smallest sample, clamped into the
    /// exact observed `[min, max]`. Returns 0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::representative(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile under the same `rank = ⌈q·n⌉` convention.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_close(sketch: &QuantileSketch, sorted: &[f64], q: f64) {
        let exact = exact_quantile(sorted, q);
        let got = sketch.quantile(q);
        let rel = (got - exact).abs() / exact.abs().max(f64::MIN_POSITIVE);
        assert!(
            rel <= QuantileSketch::RELATIVE_ERROR,
            "q={q}: sketch {got} vs exact {exact} (rel err {rel})"
        );
    }

    /// Deterministic samples of a distribution via its inverse CDF on a
    /// uniform grid (no RNG, so the test is exactly reproducible).
    fn grid_samples(n: usize, inv_cdf: impl Fn(f64) -> f64) -> Vec<f64> {
        (0..n)
            .map(|i| inv_cdf((i as f64 + 0.5) / n as f64))
            .collect()
    }

    #[test]
    fn bucketing_is_monotone_and_in_range() {
        let mut last = 0;
        let mut v = 1e-12;
        while v < 1e12 {
            let b = QuantileSketch::bucket_of(v);
            assert!(b >= last, "bucket decreased at {v}");
            assert!(b < QuantileSketch::BINS);
            last = b;
            v *= 1.07;
        }
        assert_eq!(QuantileSketch::bucket_of(-3.0), 0);
        assert_eq!(QuantileSketch::bucket_of(0.0), 0);
        assert_eq!(QuantileSketch::bucket_of(1e300), QuantileSketch::BINS - 1);
    }

    #[test]
    fn representative_sits_inside_its_bucket() {
        for i in 0..QuantileSketch::BINS {
            let rep = QuantileSketch::representative(i);
            assert_eq!(QuantileSketch::bucket_of(rep), i, "bucket {i} rep {rep}");
        }
    }

    #[test]
    fn p99_and_p999_accuracy_on_uniform() {
        // Uniform on [1, 100].
        let samples = grid_samples(100_000, |u| 1.0 + 99.0 * u);
        let mut s = QuantileSketch::new();
        samples.iter().for_each(|&v| s.record(v));
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_close(&s, &sorted, q);
        }
    }

    #[test]
    fn p99_and_p999_accuracy_on_exponential() {
        // Exponential with mean 5: F⁻¹(u) = −5·ln(1−u).
        let samples = grid_samples(100_000, |u| -5.0 * (1.0 - u).ln());
        let mut s = QuantileSketch::new();
        samples.iter().for_each(|&v| s.record(v));
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.5, 0.99, 0.999] {
            assert_close(&s, &sorted, q);
        }
    }

    #[test]
    fn p99_and_p999_accuracy_on_pareto_tail() {
        // Pareto(α = 1.5), scale 1: F⁻¹(u) = (1−u)^(−1/1.5) — a heavy
        // tail, the case p999 bucketing has to survive.
        let samples = grid_samples(100_000, |u| (1.0 - u).powf(-1.0 / 1.5));
        let mut s = QuantileSketch::new();
        samples.iter().for_each(|&v| s.record(v));
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.5, 0.99, 0.999] {
            assert_close(&s, &sorted, q);
        }
    }

    #[test]
    fn merge_equals_bulk_recording() {
        let values: Vec<f64> = (1..=1000).map(|i| (i as f64) * 0.37).collect();
        let mut bulk = QuantileSketch::new();
        values.iter().for_each(|&v| bulk.record(v));
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        values[..400].iter().for_each(|&v| left.record(v));
        values[400..].iter().for_each(|&v| right.record(v));
        left.merge(&right);
        // Bucket counts and extremes merge exactly; the float `sum` can
        // differ in the last bits because addition re-associates.
        assert_eq!(left.bins, bulk.bins);
        assert_eq!(left.count, bulk.count);
        assert_eq!(left.min, bulk.min);
        assert_eq!(left.max, bulk.max);
        assert!((left.sum - bulk.sum).abs() / bulk.sum < 1e-12);
        // Merge in the opposite order: counts and quantiles agree.
        let mut l2 = QuantileSketch::new();
        let mut r2 = QuantileSketch::new();
        values[..400].iter().for_each(|&v| l2.record(v));
        values[400..].iter().for_each(|&v| r2.record(v));
        r2.merge(&l2);
        assert_eq!(r2.count(), bulk.count());
        for q in [0.1, 0.5, 0.99, 0.999] {
            assert_eq!(r2.quantile(q), bulk.quantile(q));
        }
    }

    #[test]
    fn batch_recording_matches_one_at_a_time() {
        let mut values: Vec<f64> = (1..=1000).map(|i| (i as f64) * 0.37 - 3.0).collect();
        values.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-12, 1e12]);
        values.extend([-0.0, 0.0, 0.0, -0.0]);
        let mut single = QuantileSketch::new();
        single.record(0.5);
        let mut batch = single.clone();
        values.iter().for_each(|&v| single.record(v));
        batch.record_all(&values[..600]);
        batch.record_all(&[]);
        batch.record_all(&values[600..]);
        assert_eq!(batch, single);
        assert_eq!(batch.sum.to_bits(), single.sum.to_bits());
        assert_eq!(batch.min.to_bits(), single.min.to_bits());
        assert_eq!(batch.max.to_bits(), single.max.to_bits());
        // The extremes are the exact observed ones.
        assert_eq!((batch.min(), batch.max()), (-2.63, 1e12));

        // Signed-zero ties: the extreme seen first wins, in a batch as
        // one at a time. `==` cannot tell the zeros apart, so compare
        // bits.
        for (zeros, first) in [([-0.0, 0.0], -0.0f64), ([0.0, -0.0], 0.0)] {
            let mut single = QuantileSketch::new();
            zeros.iter().for_each(|&v| single.record(v));
            let mut batch = QuantileSketch::new();
            batch.record_all(&zeros);
            for s in [&single, &batch] {
                assert_eq!(s.min().to_bits(), first.to_bits(), "{zeros:?}");
                assert_eq!(s.max().to_bits(), first.to_bits(), "{zeros:?}");
            }
        }
    }

    /// Bucketing as separate exponent and sub-bucket fields, the
    /// reference for the fused shift in `bucket_of`.
    fn reference_bucket(value: f64) -> usize {
        if value.is_nan() || value <= 0.0 {
            return 0;
        }
        let bits = value.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp < EXP_MIN {
            return 0;
        }
        if exp > EXP_MAX {
            return QuantileSketch::BINS - 1;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        ((exp - EXP_MIN) as usize) * SUBS + sub
    }

    proptest::proptest! {
        #[test]
        fn fused_bucketing_matches_field_by_field(
            bits in 0u64..u64::MAX,
            scaled in -1e12f64..1e12,
        ) {
            let raw = f64::from_bits(bits);
            proptest::prop_assert_eq!(
                QuantileSketch::bucket_of(raw),
                reference_bucket(raw)
            );
            proptest::prop_assert_eq!(
                QuantileSketch::bucket_of(scaled),
                reference_bucket(scaled)
            );
        }
    }

    #[test]
    fn fused_bucketing_matches_at_the_edges() {
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            pow2(EXP_MIN) * (1.0 - f64::EPSILON),
            pow2(EXP_MIN),
            pow2(EXP_MAX + 1) * (1.0 - f64::EPSILON),
            pow2(EXP_MAX + 1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.0,
            -1.0,
        ];
        for v in edges {
            assert_eq!(QuantileSketch::bucket_of(v), reference_bucket(v), "{v:e}");
        }
    }

    #[test]
    fn empty_and_degenerate_sketches() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);

        let mut one = QuantileSketch::new();
        one.record(7.25);
        assert_eq!(one.quantile(0.0), 7.25);
        assert_eq!(one.quantile(0.999), 7.25);
        assert_eq!(one.mean(), 7.25);
    }

    /// Every query a reader can make, as bits, so `-0.0`/`0.0` and NaN
    /// payloads count as differences.
    fn queries(s: &QuantileSketch) -> Vec<u64> {
        let mut out = vec![s.count(), s.is_empty() as u64];
        out.extend([s.mean(), s.min(), s.max()].map(f64::to_bits));
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            out.push(s.quantile(q).to_bits());
        }
        out
    }

    #[test]
    fn bins_exist_exactly_when_a_value_does() {
        let fresh = QuantileSketch::new();
        assert!(fresh.bins.is_empty() && fresh.count() == 0);
        let mut blank = QuantileSketch::new();
        blank.record(f64::NAN);
        blank.record_all(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        blank.record_all(&[]);
        blank.merge(&QuantileSketch::new());
        assert!(blank.bins.is_empty() && blank.count() == 0);
        assert_eq!(blank, fresh);
        assert_eq!(queries(&blank), queries(&fresh));

        let mut one = QuantileSketch::new();
        one.record_all(&[f64::NAN, 3.5]);
        assert_eq!((one.bins.len(), one.count()), (QuantileSketch::BINS, 1));
        let mut merged = QuantileSketch::new();
        merged.merge(&one);
        assert_eq!(
            (merged.bins.len(), merged.count()),
            (QuantileSketch::BINS, 1)
        );
    }

    #[test]
    fn merging_an_empty_sketch_is_the_identity() {
        let mut a = QuantileSketch::new();
        a.record_all(&[0.25, 7.0, 1.5, -0.0, 0.0, 1e-15, 3e11, 1.0]);
        let empty = QuantileSketch::new();
        let mut right = a.clone();
        right.merge(&empty);
        let mut left = empty.clone();
        left.merge(&a);
        for merged in [&right, &left] {
            assert_eq!(merged, &a);
            assert_eq!(merged.sum.to_bits(), a.sum.to_bits());
            assert_eq!(queries(merged), queries(&a));
        }
    }

    proptest::proptest! {
        /// A stream recorded in chunks, each chunk its own sketch merged
        /// in order into a fresh total (the soak's fold), equals the
        /// one-stream recording bit for bit, `sum` included. Values are
        /// multiples of 2⁻⁸ below 2¹⁶, so every partial sum is exact and
        /// re-association cannot move a bit; non-finite values ride
        /// along and must be skipped on both sides.
        #[test]
        fn chunked_recording_merged_in_order_equals_one_stream(
            raw in proptest::collection::vec(0u32..(1 << 24), 0..400),
            cuts in proptest::collection::vec(0usize..400, 0..12),
        ) {
            let values: Vec<f64> = raw
                .iter()
                .map(|&r| match r % 41 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => f64::from(r) / 256.0,
                })
                .collect();
            let mut one = QuantileSketch::new();
            one.record_all(&values);
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(values.len())).collect();
            bounds.extend([0, values.len()]);
            bounds.sort_unstable();
            let mut total = QuantileSketch::new();
            for w in bounds.windows(2) {
                let mut part = QuantileSketch::new();
                part.record_all(&values[w[0]..w[1]]);
                proptest::prop_assert_eq!(part.bins.is_empty(), part.count() == 0);
                total.merge(&part);
            }
            proptest::prop_assert_eq!(&total, &one);
            proptest::prop_assert_eq!(total.sum.to_bits(), one.sum.to_bits());
            proptest::prop_assert_eq!(queries(&total), queries(&one));
        }
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut s = QuantileSketch::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.5), 2.0);
    }

    #[test]
    fn quantile_clamps_to_observed_extremes() {
        let mut s = QuantileSketch::new();
        s.record(1.0000001);
        s.record(1.0000002);
        // The midpoint of the shared bucket lies above both values; the
        // clamp keeps the answer inside the observed range.
        assert!(s.quantile(0.999) <= 1.0000002);
        assert!(s.quantile(0.001) >= 1.0000001);
    }
}
