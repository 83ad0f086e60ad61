//! Time-varying tenant traffic: diurnal waves, flash crowds, churn.
//!
//! The soak mode drives N-thousand tenant plants per scenario through a
//! production-shaped load curve. Everything here is a **pure function of
//! `(seed, tenant, time/epoch)`** — no RNG state survives between calls
//! — so a soak run is byte-identical at 1 vs N worker threads and the
//! per-tenant terms can be recomputed anywhere without coordination.
//!
//! Three layers compose multiplicatively:
//!
//! * **diurnal wave** — a smooth once-per-day swing around 1.0
//!   ([`TrafficShape::base_load`]). The wave uses Bhāskara's rational
//!   sine approximation instead of `f64::sin` so the curve is exact IEEE
//!   arithmetic (identical on every platform — committed soak baselines
//!   are diffed across machines).
//! * **flash crowd** — a trapezoid spike (linear ramp up, hold, ramp
//!   down) layered on the diurnal wave.
//! * **per-tenant popularity** — a weight in
//!   `[weight_min, weight_max]` derived from a rank drawn off the
//!   existing YCSB zipfian generator ([`KeyDistribution::next_rank`]),
//!   so a few tenants are hot and most are cold
//!   ([`TrafficShape::tenant_weight`]).
//!
//! Tenant churn ([`TrafficShape::churn_window`]) gives a seed-chosen
//! fraction of tenants a late arrival and early departure; everyone else
//! is resident for the whole horizon.

use smartconf_simkernel::SimRng;

use crate::KeyDistribution;

/// Stream tag separating churn hashes from other per-tenant draws.
const CHURN_STREAM: u64 = 0x43_4855_524e; // "CHURN"
/// Stream tag for per-(tenant, epoch) sensor jitter.
const JITTER_STREAM: u64 = 0x4a_4954_5445; // "JITTE"
/// Stream tag for the per-tenant popularity rank draw.
const WEIGHT_STREAM: u64 = 0x57_4549_4748; // "WEIGH"

/// SplitMix64 finalizer: the same bit mixer the fleet uses for shard
/// seeds, kept local so workload stays independent of the runtime crate.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes three words into one well-separated hash. Inlined with its
/// callers, so a loop over `c` alone hoists the first two rounds.
#[inline]
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(a).wrapping_add(b)).wrapping_add(c))
}

/// Maps a hash to a uniform f64 in `[0, 1)` (53 mantissa bits).
#[inline]
fn hash01(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Bhāskara I's rational approximation of `sin(π·u)` for `u ∈ [0, 1]`:
/// `16u(1−u) / (5 − 4u(1−u))`. Max error ~0.0016 — plenty for a load
/// wave — and pure `+ × ÷`, so it evaluates identically on every
/// platform (unlike libm's `sin`).
fn sin_pi(u: f64) -> f64 {
    let p = u * (1.0 - u);
    16.0 * p / (5.0 - 4.0 * p)
}

/// A full sine-like wave over phase `x ∈ [0, 1)`: positive half then
/// mirrored negative half.
fn wave(x: f64) -> f64 {
    if x < 0.5 {
        sin_pi(2.0 * x)
    } else {
        -sin_pi(2.0 * x - 1.0)
    }
}

/// The shape of time-varying tenant traffic for a soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficShape {
    /// Diurnal period in microseconds (24 h for the standard shape).
    pub day_us: u64,
    /// Diurnal swing around 1.0: load oscillates in `1 ± amplitude`.
    pub diurnal_amplitude: f64,
    /// When the flash crowd starts ramping, µs from run start.
    pub flash_start_us: u64,
    /// Linear ramp duration (both up and down), µs.
    pub flash_ramp_us: u64,
    /// How long the flash holds its peak, µs.
    pub flash_hold_us: u64,
    /// Peak flash multiplier (1.0 disables the flash crowd).
    pub flash_magnitude: f64,
    /// Fraction of tenants that churn (arrive late *and* depart early).
    pub churn_fraction: f64,
    /// Weight of the coldest tenant.
    pub weight_min: f64,
    /// Weight of the hottest tenant.
    pub weight_max: f64,
    /// Multiplicative sensor jitter half-width (`±jitter`).
    pub jitter: f64,
    /// Relative load surge right after a plant restart (cold caches
    /// refilling): the restarted tenant's load is multiplied by
    /// `1 + restart_surge · 2^−age` for the first
    /// [`RESTART_SURGE_EPOCHS`] epochs. `0.0` disables the surge.
    pub restart_surge: f64,
}

/// How many epochs the post-restart surge decays over before the load
/// multiplier snaps back to exactly 1.0.
pub const RESTART_SURGE_EPOCHS: u64 = 4;

impl TrafficShape {
    /// The standard soak shape: a 24 h day with a ±25 % diurnal swing, a
    /// 2× flash crowd ramping up over 4 h from hour 14 and holding 2 h,
    /// 25 % churners, zipfian tenant weights in `[0.75, 1.5]`, and ±2 %
    /// sensor jitter.
    pub fn standard() -> Self {
        const HOUR_US: u64 = 3_600_000_000;
        TrafficShape {
            day_us: 24 * HOUR_US,
            diurnal_amplitude: 0.25,
            flash_start_us: 14 * HOUR_US,
            flash_ramp_us: 4 * HOUR_US,
            flash_hold_us: 2 * HOUR_US,
            flash_magnitude: 2.0,
            churn_fraction: 0.25,
            weight_min: 0.75,
            weight_max: 1.5,
            jitter: 0.02,
            restart_surge: 0.5,
        }
    }

    /// A flat, churn-free, noise-free variant of [`TrafficShape::standard`]
    /// — load pinned at 1.0 for every tenant at every instant. Useful as
    /// a control arm and in tests.
    pub fn steady() -> Self {
        TrafficShape {
            diurnal_amplitude: 0.0,
            flash_magnitude: 1.0,
            churn_fraction: 0.0,
            weight_min: 1.0,
            weight_max: 1.0,
            jitter: 0.0,
            restart_surge: 0.0,
            ..TrafficShape::standard()
        }
    }

    /// The tenant-independent load multiplier at `t_us`: diurnal wave ×
    /// flash crowd.
    #[inline]
    pub fn base_load(&self, t_us: u64) -> f64 {
        let phase = (t_us % self.day_us) as f64 / self.day_us as f64;
        let diurnal = 1.0 + self.diurnal_amplitude * wave(phase);
        diurnal * self.flash_factor(t_us)
    }

    /// The flash-crowd multiplier alone: 1.0 outside the spike, a linear
    /// ramp to [`TrafficShape::flash_magnitude`], a hold, and a linear
    /// ramp back down.
    pub fn flash_factor(&self, t_us: u64) -> f64 {
        if self.flash_magnitude <= 1.0 || t_us < self.flash_start_us {
            return 1.0;
        }
        let dt = t_us - self.flash_start_us;
        let ramp = self.flash_ramp_us.max(1);
        let peak = self.flash_magnitude - 1.0;
        if dt < ramp {
            1.0 + peak * dt as f64 / ramp as f64
        } else if dt < ramp + self.flash_hold_us {
            self.flash_magnitude
        } else if dt < 2 * ramp + self.flash_hold_us {
            let down = dt - ramp - self.flash_hold_us;
            1.0 + peak * (1.0 - down as f64 / ramp as f64)
        } else {
            1.0
        }
    }

    /// The tenant's popularity weight in
    /// `[weight_min, weight_max]`: a rank is drawn from the zipfian
    /// distribution `dist` with a per-`(seed, tenant)` derived RNG, and
    /// mapped through an inverse-square-root decay so rank 0 gets
    /// `weight_max` and deep ranks approach `weight_min`. A pure function
    /// of its arguments. At θ = 0.99 the rank is a multiply chain with
    /// the very floor libm's `pow` gives, which it still computes for the
    /// draws that land next to a rank boundary
    /// ([`KeyDistribution::next_rank`]).
    ///
    /// Inlined, so a loop over tenants at one `seed` hashes each tenant
    /// in one SplitMix64 round: the seed's two rounds are hoisted.
    #[inline]
    pub fn tenant_weight(&self, seed: u64, tenant: u64, dist: &KeyDistribution) -> f64 {
        let mut rng = SimRng::seed_from_u64(mix3(seed, WEIGHT_STREAM, tenant));
        let rank = dist.next_rank(&mut rng);
        let popularity = 1.0 / (1.0 + rank as f64).sqrt();
        self.weight_min + (self.weight_max - self.weight_min) * popularity
    }

    /// The tenant's active window `[arrive_us, depart_us)` over a run of
    /// `horizon_us`. A seed-chosen [`TrafficShape::churn_fraction`] of
    /// tenants arrive somewhere in the first half of the horizon and
    /// depart somewhere in the second half (`arrive < horizon_us / 2 ≤
    /// depart` for `horizon_us ≥ 2`), so every churner arrives before any
    /// churner departs; everyone else is resident for the whole run. A
    /// pure function of its arguments. Inlined, like
    /// [`TrafficShape::tenant_weight`].
    #[inline]
    pub fn churn_window(&self, seed: u64, tenant: u64, horizon_us: u64) -> (u64, u64) {
        let h = mix3(seed, CHURN_STREAM, tenant);
        if hash01(h) >= self.churn_fraction {
            return (0, u64::MAX);
        }
        let half = horizon_us / 2;
        let arrive = (hash01(mix(h ^ 0x0a)) * half as f64) as u64;
        let depart = half + (hash01(mix(h ^ 0x0b)) * half as f64) as u64;
        (arrive, depart.max(arrive + 1))
    }

    /// The cold-cache load multiplier `epochs_since_restart` epochs
    /// after a plant restart: `1 + restart_surge` on the restart epoch
    /// itself, halving each epoch, exactly 1.0 from
    /// [`RESTART_SURGE_EPOCHS`] on (the soak's PlantRestart arm feeds
    /// this from its per-tenant slab age counter; every other arm sees
    /// a constant 1.0). Pure `+ × ÷`, so it is platform-exact.
    #[inline]
    pub fn restart_load(&self, epochs_since_restart: u64) -> f64 {
        if self.restart_surge == 0.0 || epochs_since_restart >= RESTART_SURGE_EPOCHS {
            return 1.0;
        }
        1.0 + self.restart_surge / (1u64 << epochs_since_restart) as f64
    }

    /// Multiplicative sensor jitter for `(tenant, epoch)`, uniform in
    /// `[−jitter, +jitter]`. A pure function of its arguments:
    /// [`jitter_at`](TrafficShape::jitter_at) of the tenant's
    /// [`jitter_key`](TrafficShape::jitter_key).
    pub fn sense_jitter(&self, seed: u64, tenant: u64, epoch: u64) -> f64 {
        self.jitter_at(Self::jitter_key(seed, tenant), epoch)
    }

    /// The per-`(seed, tenant)` half of the jitter hash: two of its three
    /// SplitMix64 rounds, so a sweep over many epochs computes it once
    /// per tenant.
    #[inline]
    pub fn jitter_key(seed: u64, tenant: u64) -> u64 {
        mix(mix(seed ^ JITTER_STREAM).wrapping_add(tenant))
    }

    /// The jitter at `epoch` for a tenant's
    /// [`jitter_key`](TrafficShape::jitter_key): the last hash round and
    /// the scaling into `[−jitter, +jitter]`.
    #[inline]
    pub fn jitter_at(&self, key: u64, epoch: u64) -> f64 {
        if self.jitter == 0.0 {
            return 0.0;
        }
        let u = hash01(mix(key.wrapping_add(epoch)));
        (u - 0.5) * 2.0 * self.jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_load_is_pure_and_bounded() {
        let t = TrafficShape::standard();
        let max = t.flash_magnitude * (1.0 + t.diurnal_amplitude);
        let min = 1.0 - t.diurnal_amplitude;
        let mut step_us = 0u64;
        while step_us < t.day_us {
            let l = t.base_load(step_us);
            assert_eq!(l, t.base_load(step_us), "pure function");
            assert!(l >= min - 1e-9 && l <= max + 1e-9, "load {l} at {step_us}");
            step_us += 300_000_000; // 5 min
        }
    }

    #[test]
    fn steady_shape_is_flat_unity() {
        let t = TrafficShape::steady();
        for step in 0..48u64 {
            assert_eq!(t.base_load(step * 1_800_000_000), 1.0);
        }
        assert_eq!(t.sense_jitter(1, 2, 3), 0.0);
        assert_eq!(t.churn_window(1, 2, 1000), (0, u64::MAX));
    }

    #[test]
    fn flash_trapezoid_ramps_and_recovers() {
        let t = TrafficShape::standard();
        assert_eq!(t.flash_factor(t.flash_start_us - 1), 1.0);
        let mid_ramp = t.flash_start_us + t.flash_ramp_us / 2;
        let f = t.flash_factor(mid_ramp);
        assert!(f > 1.0 && f < t.flash_magnitude, "mid-ramp {f}");
        let hold = t.flash_start_us + t.flash_ramp_us + t.flash_hold_us / 2;
        assert_eq!(t.flash_factor(hold), t.flash_magnitude);
        let after = t.flash_start_us + 2 * t.flash_ramp_us + t.flash_hold_us + 1;
        assert_eq!(t.flash_factor(after), 1.0);
    }

    #[test]
    fn flash_steps_are_gradual_at_cohort_scale() {
        // The slowest standard soak cohort senses once per hour; the
        // ramp must spread the spike over several of its epochs so a
        // controller can track it (the hard-goal cohort gate depends on
        // this).
        let t = TrafficShape::standard();
        let hour = 3_600_000_000u64;
        let mut prev = t.base_load(0);
        let mut max_step = 0.0f64;
        for k in 1..24 {
            let l = t.base_load(k * hour);
            max_step = max_step.max((l - prev).abs());
            prev = l;
        }
        assert!(max_step < 0.45, "hourly load step {max_step}");
    }

    #[test]
    fn tenant_weights_are_bounded_and_skewed() {
        let t = TrafficShape::standard();
        let dist = KeyDistribution::ycsb_default(10_000);
        let weights: Vec<f64> = (0..2_000).map(|i| t.tenant_weight(42, i, &dist)).collect();
        for &w in &weights {
            assert!(w >= t.weight_min && w <= t.weight_max, "weight {w}");
        }
        // Zipfian skew: some tenants are hot, the median is cold.
        let hot = weights.iter().filter(|&&w| w > 1.2).count();
        let cold = weights.iter().filter(|&&w| w < 0.9).count();
        assert!(hot > 0, "no hot tenants");
        assert!(cold > weights.len() / 2, "cold tenants {cold}");
        // Purity: same (seed, tenant) → same weight; a different seed
        // reshuffles at least one tenant (ranks are coarse, so any
        // single tenant may collide).
        assert_eq!(t.tenant_weight(42, 7, &dist), t.tenant_weight(42, 7, &dist));
        assert!(
            (0..50).any(|i| t.tenant_weight(42, i, &dist) != t.tenant_weight(43, i, &dist)),
            "seed change did not reshuffle any weight"
        );
    }

    #[test]
    fn tenant_weights_equal_the_powf_formula_bit_for_bit() {
        // The weight as drawn before the rank had a multiply path: ζ, η
        // and the rank through `powf`, computed here from scratch.
        let (n, theta) = (10_000u64, 0.99f64);
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        let t = TrafficShape::standard();
        let powf_weight = |seed: u64, tenant: u64| {
            let mut rng = SimRng::seed_from_u64(mix3(seed, WEIGHT_STREAM, tenant));
            let u = rng.uniform(0.0, 1.0);
            let uz = u * zetan;
            let rank = if uz < 1.0 {
                0
            } else if uz < 1.0 + 0.5f64.powf(theta) {
                1
            } else {
                let alpha = 1.0 / (1.0 - theta);
                (((n as f64) * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
            };
            let popularity = 1.0 / (1.0 + rank as f64).sqrt();
            t.weight_min + (t.weight_max - t.weight_min) * popularity
        };
        let dist = KeyDistribution::ycsb_default(n);
        for base in [1u64, 5, 11, 42] {
            for scenario in 0..7u64 {
                // The soak's per-scenario seed, `runtime::shard_seed`.
                let seed = mix(base.wrapping_add(scenario.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                for tenant in 0..100_000 {
                    assert_eq!(
                        t.tenant_weight(seed, tenant, &dist).to_bits(),
                        powf_weight(seed, tenant).to_bits(),
                        "seed {base}, scenario {scenario}, tenant {tenant}"
                    );
                }
            }
        }
    }

    #[test]
    fn churn_windows_are_ordered_and_roughly_proportional() {
        let t = TrafficShape::standard();
        let horizon = 86_400_000_000u64;
        let mut churners = 0;
        for tenant in 0..4_000u64 {
            let (a, d) = t.churn_window(42, tenant, horizon);
            assert!(a < d, "window inverted for {tenant}");
            if (a, d) != (0, u64::MAX) {
                churners += 1;
                // Strict on the arrival side: every churner arrives
                // before any churner departs, which the soak's live-prefix
                // lane order relies on.
                assert!(a < horizon / 2, "{tenant} arrives at {a}");
                assert!(d >= horizon / 2 && d <= horizon);
            }
        }
        let frac = churners as f64 / 4_000.0;
        assert!(
            (frac - t.churn_fraction).abs() < 0.05,
            "churn fraction {frac}"
        );
    }

    #[test]
    fn jitter_is_pure_bounded_and_zero_mean() {
        let t = TrafficShape::standard();
        let mut sum = 0.0;
        for e in 0..10_000u64 {
            let j = t.sense_jitter(42, 5, e);
            assert!(j.abs() <= t.jitter);
            assert_eq!(j, t.sense_jitter(42, 5, e));
            sum += j;
        }
        assert!((sum / 10_000.0).abs() < 0.002, "jitter mean {sum}");
    }

    proptest::proptest! {
        /// The hoisted jitter key composes back to the three-round
        /// `(seed, tenant, epoch)` hash bit for bit.
        #[test]
        fn hoisted_jitter_matches_the_three_round_hash(
            seed in 0u64..u64::MAX,
            tenant in 0u64..u64::MAX,
            epoch in 0u64..100_000,
        ) {
            let t = TrafficShape::standard();
            let reference =
                (hash01(mix3(seed ^ JITTER_STREAM, tenant, epoch)) - 0.5) * 2.0 * t.jitter;
            let key = TrafficShape::jitter_key(seed, tenant);
            proptest::prop_assert_eq!(t.jitter_at(key, epoch).to_bits(), reference.to_bits());
            proptest::prop_assert_eq!(
                t.sense_jitter(seed, tenant, epoch).to_bits(),
                reference.to_bits()
            );
            proptest::prop_assert_eq!(TrafficShape::steady().jitter_at(key, epoch), 0.0);
        }
    }

    #[test]
    fn restart_surge_decays_to_exact_unity() {
        let t = TrafficShape::standard();
        assert_eq!(t.restart_load(0), 1.0 + t.restart_surge);
        let mut prev = t.restart_load(0);
        for age in 1..RESTART_SURGE_EPOCHS {
            let l = t.restart_load(age);
            assert!(l > 1.0 && l < prev, "age {age}: {l} !< {prev}");
            prev = l;
        }
        // Exactly 1.0 (not approximately) once decayed: the fault-free
        // load path multiplies by this, so it must be the identity.
        assert_eq!(t.restart_load(RESTART_SURGE_EPOCHS), 1.0);
        assert_eq!(t.restart_load(1_000), 1.0);
        assert_eq!(TrafficShape::steady().restart_load(0), 1.0);
    }

    #[test]
    fn wave_approximates_a_sine() {
        // Bhāskara's approximation should stay within 0.002 of libm's
        // sine — close enough that the load curve is sine-shaped, while
        // being exactly reproducible arithmetic.
        for k in 0..=100 {
            let x = k as f64 / 100.0;
            let approx = wave(x);
            let exact = (2.0 * std::f64::consts::PI * x).sin();
            assert!((approx - exact).abs() < 0.002, "wave({x})");
        }
    }
}
