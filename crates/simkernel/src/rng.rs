//! Seeded random source with the distributions the simulators need.

use crate::SimDuration;

/// Deterministic random source for simulations.
///
/// Wraps a seeded xoshiro256** generator and provides the handful of
/// distributions the workload generators and disturbance processes use.
/// Keeping both the generator and the distribution implementations here
/// (rather than pulling in external crates) keeps the workspace
/// dependency-free and makes the sampling code auditable.
///
/// # Example
///
/// ```
/// use smartconf_simkernel::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (splitmix64 expansion, the
    /// initialization recommended by the xoshiro authors).
    ///
    /// The draw path (this, [`next_u64`](Self::next_u64) and
    /// [`uniform`](Self::uniform)) is `#[inline]`, so a caller in another
    /// crate that seeds a generator for one draw computes only the state
    /// word that draw reads.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Raw `u64` draw (xoshiro256**; also used for deriving seeds).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` (53 random mantissa bits).
    #[inline]
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform requires lo < hi, got [{lo}, {hi})");
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_u64 requires lo < hi, got [{lo}, {hi})");
        // Debiased multiply-shift (Lemire); the rejection loop terminates
        // with overwhelming probability after one draw.
        let range = hi - lo;
        let threshold = range.wrapping_neg() % range;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (range as u128);
            if (m as u64) >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0,1], got {p}"
        );
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponential draw with the given mean (inverse-CDF method).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        let u: f64 = self.unit().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Normal draw via Box–Muller.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "normal requires finite mu and non-negative sigma, got ({mu}, {sigma})"
        );
        let u1: f64 = self.unit().max(f64::MIN_POSITIVE);
        let u2: f64 = self.unit();
        mu + sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Pareto draw with scale `x_min` and shape `alpha` (heavy tail).
    ///
    /// Models the occasional huge allocation the paper cites as the kind of
    /// sudden discrete disturbance that breaks traditional overshoot
    /// analysis (§5.2).
    ///
    /// # Panics
    ///
    /// Panics if `x_min` or `alpha` is not positive and finite.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(
            x_min.is_finite() && x_min > 0.0 && alpha.is_finite() && alpha > 0.0,
            "pareto requires positive x_min and alpha, got ({x_min}, {alpha})"
        );
        let u: f64 = self.unit().max(f64::MIN_POSITIVE);
        x_min / u.powf(1.0 / alpha)
    }

    /// Exponentially distributed inter-arrival gap with the given mean.
    pub fn exp_gap(&mut self, mean: SimDuration) -> SimDuration {
        if mean.is_zero() {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeded_unit_draws_are_pinned() {
        // The soak's tenant weights seed one generator per tenant and
        // draw once; every committed render replays these bits.
        for (seed, bits) in [
            (0, 0x3fe3_3d8b_e6d9_6ebe),
            (1, 0x3fe6_7e55_eda1_f8e2),
            (42, 0x3fb5_780b_2e0c_2ec0),
            (0xdead_beef, 0x3fe8_aaaa_8894_e9af),
        ] {
            let u = SimRng::seed_from_u64(seed).uniform(0.0, 1.0);
            assert_eq!(u.to_bits(), bits, "seed {seed}: {u}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let n = r.uniform_u64(10, 20);
            assert!((10..20).contains(&n));
        }
    }

    #[test]
    fn uniform_u64_hits_all_buckets() {
        let mut r = SimRng::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.uniform_u64(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "buckets {seen:?}");
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::seed_from_u64(9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.3, "var was {var}");
    }

    #[test]
    fn pareto_at_least_xmin() {
        let mut r = SimRng::seed_from_u64(13);
        for _ in 0..1000 {
            assert!(r.pareto(3.0, 2.0) >= 3.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(17);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn exp_gap_zero_mean_is_zero() {
        let mut r = SimRng::seed_from_u64(23);
        assert_eq!(r.exp_gap(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn chance_out_of_range_panics() {
        let mut r = SimRng::seed_from_u64(1);
        let _ = r.chance(1.5);
    }

    #[test]
    #[should_panic(expected = "exponential mean")]
    fn exponential_zero_mean_panics() {
        let mut r = SimRng::seed_from_u64(1);
        let _ = r.exponential(0.0);
    }
}
