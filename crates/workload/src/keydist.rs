//! Key popularity distributions (YCSB-style).

use smartconf_simkernel::SimRng;

/// How popular each of `n` items is, drawn as a zipfian rank (0 = most
/// popular).
///
/// Implements the standard Gray et al. generator used by YCSB, with the
/// usual skew θ = 0.99. The soak draws its per-tenant popularity weights
/// from it.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyDistribution {
    /// Number of keys.
    n: u64,
    /// Skew parameter θ in `(0, 1)`; YCSB uses 0.99.
    theta: f64,
    /// Precomputed ζ(n, θ).
    zetan: f64,
    /// Precomputed η of the Gray et al. generator (a pure function of
    /// `n`, `theta`, and `zetan`, hoisted out of the per-draw path).
    eta: f64,
    /// Precomputed `0.5^θ`: a draw is rank 1 below `ζ(2, θ) = 1 + 0.5^θ`
    /// (hoisted out of the per-draw path like `eta`).
    half_pow_theta: f64,
}

impl KeyDistribution {
    /// YCSB-style zipfian over `n` keys with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `(0, 1)`.
    pub fn zipfian(n: u64, theta: f64) -> Self {
        assert!(n > 0, "key space must be non-empty");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "zipfian theta must be in (0, 1), got {theta}"
        );
        let zetan = zeta_memo(n, theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
        KeyDistribution {
            n,
            theta,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    /// The default YCSB zipfian (θ = 0.99).
    pub fn ycsb_default(n: u64) -> Self {
        Self::zipfian(n, 0.99)
    }

    /// Draws a rank in `[0, n)` (0 = most popular) with exactly one draw
    /// from `rng`.
    ///
    /// Ranks follow Gray et al., "Quickly generating billion-record
    /// synthetic databases".
    pub fn next_rank(&self, rng: &mut SimRng) -> u64 {
        self.zipfian_rank(rng.uniform(0.0, 1.0))
    }

    /// The zipfian rank of the uniform draw `u ∈ [0, 1)`. Gray et al.'s
    /// closed form reaches `n` for the top few `u` (5 of the 2⁵³ at
    /// θ = 0.99, n = 10⁴), so it is clamped to the last rank.
    fn zipfian_rank(&self, u: f64) -> u64 {
        let KeyDistribution {
            n,
            theta,
            zetan,
            eta,
            half_pow_theta,
        } = *self;
        let uz = u * zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + half_pow_theta {
            return 1;
        }
        let alpha = 1.0 / (1.0 - theta);
        (((n as f64) * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
    }
}

/// ζ(n, θ) = Σ_{i=1..n} 1/i^θ, computed directly for the key counts the
/// simulators use (≤ 10⁷).
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// Memoized ζ(n, θ). The sum is one `powf` per key (~0.2 ms at the
/// soak's n = 10⁴) and callers rebuild the same few distributions, so
/// the handful of distinct `(n, θ)` pairs is cached process-wide. The
/// cached value is a pure function of the key, so concurrent fleet
/// shards always observe the same ζ regardless of interleaving.
fn zeta_memo(n: u64, theta: f64) -> f64 {
    use std::sync::Mutex;
    static CACHE: Mutex<Vec<((u64, u64), f64)>> = Mutex::new(Vec::new());
    let key = (n, theta.to_bits());
    if let Some(&(_, z)) = CACHE.lock().unwrap().iter().find(|(k, _)| *k == key) {
        return z;
    }
    // Computed outside the lock: a large ζ takes milliseconds and other
    // distributions' lookups should not stall behind it.
    let z = zeta(n, theta);
    let mut cache = CACHE.lock().unwrap();
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, z));
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed() {
        let mut rng = SimRng::seed_from_u64(2);
        let d = KeyDistribution::ycsb_default(10_000);
        let mut top10 = 0u32;
        let total = 20_000;
        for _ in 0..total {
            if d.next_rank(&mut rng) < 10 {
                top10 += 1;
            }
        }
        // Under theta=0.99 the top-10 ranks carry a large share; under
        // uniform they would carry ~0.1%.
        let share = top10 as f64 / total as f64;
        assert!(share > 0.2, "top-10 share {share}");
    }

    #[test]
    fn zipfian_ranks_in_range() {
        let mut rng = SimRng::seed_from_u64(3);
        let d = KeyDistribution::zipfian(100, 0.9);
        for _ in 0..5_000 {
            assert!(d.next_rank(&mut rng) < 100);
        }
    }

    #[test]
    fn top_draw_clamps_to_last_rank() {
        // The largest `u` a draw can produce: 1 − 2⁻⁵³.
        let top = 1.0 - f64::EPSILON / 2.0;
        for n in [10_000, 1_000_000] {
            let d = KeyDistribution::ycsb_default(n);
            assert_eq!(d.zipfian_rank(top), n - 1, "n = {n}");
            assert_eq!(d.zipfian_rank(0.0), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_keyspace_panics() {
        let _ = KeyDistribution::ycsb_default(0);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn bad_theta_panics() {
        let _ = KeyDistribution::zipfian(10, 1.5);
    }
}
