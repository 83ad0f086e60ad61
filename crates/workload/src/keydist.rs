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
    /// Precomputed ζ(n, θ) for the skew θ in `(0, 1)` (YCSB uses 0.99).
    zetan: f64,
    /// Precomputed η of the Gray et al. generator (a pure function of
    /// `n`, θ, and `zetan`, hoisted out of the per-draw path).
    eta: f64,
    /// Precomputed `0.5^θ`: a draw is rank 1 below `ζ(2, θ) = 1 + 0.5^θ`
    /// (hoisted out of the per-draw path like `eta`).
    half_pow_theta: f64,
    /// The rank exponent `α = 1/(1−θ)`.
    alpha: f64,
    /// The integer `k ≤ 128` that stands in for `α` on the multiply path
    /// of [`KeyDistribution::zipfian_rank`], when `x^k` lies within
    /// [`EXPONENT_SLACK`] of `x^α` (`Some(100)` at θ = 0.99).
    int_alpha: Option<u32>,
}

/// Largest integer exponent the multiply path takes: its squaring chain
/// then rounds at most `k ≤ 128` times (see [`KeyDistribution::zipfian_rank`]).
const MAX_INT_ALPHA: f64 = 128.0;

/// How far `x^k` may sit from `x^α`, relative, for `k` to stand in for
/// `α`. Bounds `|α − k|·|ln x|` over every base the multiply path sees.
const EXPONENT_SLACK: f64 = 1e-13;

/// Half-width, relative, of the band around an integer inside which the
/// multiply path defers to `powf`: ~8× the worst error of the two paths
/// combined (see [`KeyDistribution::zipfian_rank`]).
const RANK_BAND: f64 = 1e-12;

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
        let alpha = 1.0 / (1.0 - theta);
        // A base `x` reaches the multiply path only when `n·x^α ≥ 2`, so
        // `|ln x| ≤ ln(n/2)/α < 64·ln 2/α`, and `x^k/x^α = x^(k−α)`
        // stays within `|α − k|·64·ln 2/α` of 1.
        let k = alpha.round();
        let int_alpha = (k <= MAX_INT_ALPHA
            && (alpha - k).abs() * 64.0 * std::f64::consts::LN_2 <= EXPONENT_SLACK * alpha)
            .then_some(k as u32);
        KeyDistribution {
            n,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
            alpha,
            int_alpha,
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
    #[inline]
    pub fn next_rank(&self, rng: &mut SimRng) -> u64 {
        self.zipfian_rank(rng.uniform(0.0, 1.0))
    }

    /// The zipfian rank of the uniform draw `u ∈ [0, 1)`: Gray et al.'s
    /// closed form `⌊n·x^α⌋` with `x = η·u − η + 1`. It reaches `n` for
    /// the top few `u` (5 of the 2⁵³ at θ = 0.99, n = 10⁴), so it is
    /// clamped to the last rank.
    ///
    /// When `α` is (within [`EXPONENT_SLACK`]) an integer `k ≤ 128`, the
    /// rank is the floor of `n·x^k` by a squaring chain of plain IEEE
    /// multiplies, which is exact wherever it is trusted: it returns the
    /// very rank `n·x.powf(α)` floors to. The chain rounds at most `k`
    /// times, each within 2⁻⁵³ relative, so it lies within `k·2⁻⁵³ ≤
    /// 1.5e-14` of the true `n·x^k`, which lies within [`EXPONENT_SLACK`]
    /// of the true `n·x^α`; libm's `powf` and the product by `n` are
    /// within 1 ULP each of it. The two values are therefore within
    /// ~1.2e-13 of each other, relative, and an integer between them lies
    /// within that distance of the chain. So when no integer lies within
    /// [`RANK_BAND`] = 1e-12 of the chain, both floor to the same rank.
    /// Inside the band (about one draw in 10⁸ at n = 10⁴) and for every
    /// other θ, the rank comes from `powf` as before.
    #[inline]
    fn zipfian_rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let x = self.eta * u - self.eta + 1.0;
        self.multiply_rank(x)
            .unwrap_or_else(|| self.powf_rank(x))
            .min(self.n - 1)
    }

    /// `⌊n·x^k⌋` by the squaring chain, or `None` when `α` has no
    /// integer stand-in or the chain lies inside [`RANK_BAND`] of an
    /// integer.
    #[inline]
    fn multiply_rank(&self, x: f64) -> Option<u64> {
        let scaled = self.n as f64 * pow_by_squaring(x, self.int_alpha?);
        let rank = scaled as u64;
        let frac = scaled - rank as f64;
        let band = RANK_BAND * scaled;
        (frac > band && 1.0 - frac > band).then_some(rank)
    }

    /// `⌊n·x^α⌋` through libm's `powf`.
    fn powf_rank(&self, x: f64) -> u64 {
        ((self.n as f64) * x.powf(self.alpha)) as u64
    }
}

/// `x^k` by right-to-left binary powering: a fixed sequence of IEEE
/// multiplies for a given `k`, rounding at most `k − 1` times (an
/// `x^a · x^b` product carries the roundings of both factors plus its
/// own). Identical on every platform, unlike libm's `pow`.
#[inline]
fn pow_by_squaring(mut x: f64, mut k: u32) -> f64 {
    let mut acc = 1.0;
    loop {
        if k & 1 == 1 {
            acc *= x;
        }
        k >>= 1;
        if k == 0 {
            return acc;
        }
        x *= x;
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

    /// The same distribution with the multiply path switched off: every
    /// rank through `powf`, as before the path existed.
    fn powf_only(d: &KeyDistribution) -> KeyDistribution {
        KeyDistribution {
            int_alpha: None,
            ..d.clone()
        }
    }

    #[test]
    fn integer_exponent_only_for_a_near_integer_alpha() {
        assert_eq!(KeyDistribution::ycsb_default(10_000).int_alpha, Some(100));
        assert_eq!(KeyDistribution::zipfian(100, 0.9).int_alpha, Some(10));
        assert_eq!(KeyDistribution::zipfian(100, 0.5).int_alpha, Some(2));
        assert_eq!(KeyDistribution::zipfian(100, 0.7).int_alpha, None);
        assert_eq!(KeyDistribution::zipfian(100, 0.995).int_alpha, None);
    }

    #[test]
    fn multiply_rank_equals_powf_rank_on_ten_million_draws() {
        let d = KeyDistribution::ycsb_default(10_000);
        let libm = powf_only(&d);
        let mut rng = SimRng::seed_from_u64(0x5EED);
        for i in 0..10_000_000 {
            let u = rng.uniform(0.0, 1.0);
            assert_eq!(
                d.zipfian_rank(u),
                libm.zipfian_rank(u),
                "draw {i}: u = {u:e}"
            );
        }
    }

    #[test]
    fn rank_boundaries_take_the_powf_branch() {
        let d = KeyDistribution::ycsb_default(10_000);
        let libm = powf_only(&d);
        for rank in [3, 57, 1_000, 9_999] {
            // Bisect to adjacent doubles `lo < hi` with `hi` the first
            // draw `powf` puts at `rank`: `n·x^α` lies on the integer
            // there, closer than any band the chain could trust.
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            loop {
                let mid = lo + (hi - lo) / 2.0;
                if mid == lo || mid == hi {
                    break;
                }
                if libm.zipfian_rank(mid) < rank {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let x = d.eta * hi - d.eta + 1.0;
            assert_eq!(d.multiply_rank(x), None, "rank {rank}: u = {hi:e}");
            assert_eq!(d.zipfian_rank(hi), rank);
            assert_eq!(d.zipfian_rank(lo), rank - 1);
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
