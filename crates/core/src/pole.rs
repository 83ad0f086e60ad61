//! Automatic pole selection (paper §5.1).
//!
//! The pole `p ∈ [0, 1)` sets how aggressively the controller closes the
//! error: `p = 0` reacts in one step, `p → 1` reacts ever more slowly but
//! tolerates ever larger model error. The paper removes this tuning burden
//! from developers: given the multiplicative model-error bound `Δ`
//! (estimated from profiling variance), choosing `p = 1 − 2/Δ` for `Δ > 2`
//! (else `p = 0`) guarantees convergence as long as the true response is
//! within `Δ` of the model [Hellerstein et al.; Filieri et al.].

use crate::ProfileSet;

/// Computes the pole for a given model-error bound `Δ`.
///
/// Returns `1 − 2/Δ` when `Δ > 2`, else `0`. The result is always in
/// `[0, 1)`; non-finite or sub-unity `Δ` values are treated as perfectly
/// accurate models (`p = 0`).
///
/// # Example
///
/// ```
/// use smartconf_core::pole_from_delta;
///
/// assert_eq!(pole_from_delta(1.0), 0.0);  // accurate model: act fast
/// assert_eq!(pole_from_delta(4.0), 0.5);  // 4x error bound: damp by half
/// assert!(pole_from_delta(1e9) < 1.0);    // never fully inert
/// ```
pub fn pole_from_delta(delta: f64) -> f64 {
    if !delta.is_finite() || delta <= 2.0 {
        return 0.0;
    }
    (1.0 - 2.0 / delta).clamp(0.0, MAX_POLE)
}

/// Computes the pole directly from profiling data: `Δ = 1 + 3λ` where `λ`
/// is the mean per-setting coefficient of variation (paper §5.1's
/// statistical projection of the unknown model error).
pub fn pole_from_profile(profile: &ProfileSet) -> f64 {
    pole_from_delta(profile.delta())
}

/// Upper clamp on the pole.
///
/// A pole of exactly 1 would freeze the controller; values extremely close
/// to 1 make convergence take effectively forever (the strawman of §5.2).
/// Real deployments never need more damping than this.
pub const MAX_POLE: f64 = 0.999;

/// How heavily a fully-doubted adaptive model is damped: at confidence 0
/// the effective pole is floored at this value (a 10%-per-step approach),
/// at confidence 1 the profiled pole is used unchanged.
pub const ADAPTIVE_DOUBT_POLE: f64 = 0.9;

/// The stability check for an *adaptive* gain estimate: floors the
/// profiled pole by the model's current doubt.
///
/// The §5.1 pole `1 − 2/Δ` tolerates model error up to the profiled `Δ`;
/// an online estimator mid-relearn can be wrong by more than the profile
/// ever was, so while its confidence is low the controller damps harder —
/// the floor rises linearly to [`ADAPTIVE_DOUBT_POLE`] as confidence
/// falls to 0. At full confidence this is exactly the profiled pole, and
/// frozen models never pass through here at all.
pub fn adaptive_pole(base: f64, confidence: f64) -> f64 {
    let doubt = 1.0 - confidence.clamp(0.0, 1.0);
    base.max(ADAPTIVE_DOUBT_POLE * doubt).clamp(0.0, MAX_POLE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_delta_gives_deadbeat() {
        assert_eq!(pole_from_delta(0.5), 0.0);
        assert_eq!(pole_from_delta(1.0), 0.0);
        assert_eq!(pole_from_delta(2.0), 0.0);
    }

    #[test]
    fn known_values() {
        assert!((pole_from_delta(4.0) - 0.5).abs() < 1e-12);
        assert!((pole_from_delta(10.0) - 0.8).abs() < 1e-12);
        assert!((pole_from_delta(20.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn always_in_unit_interval() {
        for d in [
            0.0,
            1.0,
            2.0,
            2.0001,
            3.0,
            100.0,
            1e12,
            f64::INFINITY,
            f64::NAN,
        ] {
            let p = pole_from_delta(d);
            assert!((0.0..1.0).contains(&p), "delta {d} gave pole {p}");
        }
    }

    #[test]
    fn monotone_in_delta() {
        let mut last = -1.0;
        for i in 0..100 {
            let d = 2.0 + i as f64 * 0.5;
            let p = pole_from_delta(d);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn profile_pole_matches_delta_pole() {
        let mut profile = ProfileSet::new();
        // High-variance profile -> delta > 2 -> nonzero pole.
        for setting in [1.0, 2.0] {
            for perf in [1.0, 5.0, 9.0, 2.0, 8.0] {
                profile.add(setting, perf * setting);
            }
        }
        assert_eq!(
            pole_from_profile(&profile),
            pole_from_delta(profile.delta())
        );
    }

    #[test]
    fn noiseless_profile_gives_deadbeat() {
        let profile: ProfileSet = [(1.0, 2.0), (2.0, 4.0)].into_iter().collect();
        assert_eq!(pole_from_profile(&profile), 0.0);
    }

    #[test]
    fn adaptive_pole_floors_by_doubt() {
        // Full confidence: the profiled pole, unchanged.
        assert_eq!(adaptive_pole(0.5, 1.0), 0.5);
        assert_eq!(adaptive_pole(0.0, 1.0), 0.0);
        // Zero confidence: floored at the doubt pole.
        assert_eq!(adaptive_pole(0.5, 0.0), ADAPTIVE_DOUBT_POLE);
        // A heavier profiled pole is never *reduced* by confidence.
        assert_eq!(adaptive_pole(0.95, 0.0), 0.95);
        // Out-of-range confidence clamps.
        assert_eq!(adaptive_pole(0.2, 7.0), 0.2);
        assert_eq!(adaptive_pole(0.2, -3.0), ADAPTIVE_DOUBT_POLE);
    }
}
