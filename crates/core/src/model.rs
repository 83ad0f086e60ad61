//! Performance models: the estimator layer between profiling and control.
//!
//! The paper (§5, Equation 1) approximates how a performance metric reacts
//! to a configuration with a linear model `s_k = α · c_{k−1}` built by
//! regression over profiling runs. Only the gain `α` enters the controller
//! (Equation 2); the intercept is absorbed by the integral action. We fit
//! the full affine model `s = α·c + β` by ordinary least squares because
//! real metrics have large baselines (heap = queue bytes + everything
//! else), and report fit diagnostics so synthesis can reject degenerate
//! profiles.
//!
//! The paper fits this model **once**, offline, and never updates it. A
//! controller's [`GainModel`] is either that frozen picture or an online
//! estimator:
//!
//! * [`LinearFit`] — the §6.1 offline fit, frozen for the lifetime of the
//!   controller ([`GainModel::observe`] ignores it). This is the paper's
//!   behaviour, bit for bit.
//! * [`RlsModel`] — recursive least squares with a forgetting factor,
//!   seeded from an offline fit and refined from live `(setting,
//!   measurement)` pairs on every admitted control epoch. Degenerate
//!   covariance falls back to a normalized LMS gradient step, and the
//!   estimate is projected onto the profiled gain's sign and magnitude
//!   band so a transient cannot hand the controller an explosive `1/α`.
//!
//! [`GainModel`] is a closed enum over the two, so the frozen path keeps
//! its `Copy`/`PartialEq` story and pays no dynamic dispatch.

use crate::{Error, Result};

/// Which estimator [`ControllerBuilder`](crate::ControllerBuilder)
/// synthesizes into a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelMode {
    /// The paper's behaviour: the §6.1 offline fit, never updated.
    #[default]
    Frozen,
    /// Online recursive-least-squares refinement seeded from the offline
    /// fit ([`RlsModel`]).
    Adaptive,
}

/// An affine fit `perf ≈ alpha · setting + beta` with diagnostics.
///
/// # Example
///
/// ```
/// use smartconf_core::LinearFit;
///
/// let pts = [(1.0, 12.0), (2.0, 14.0), (3.0, 16.0), (4.0, 18.0)];
/// let fit = LinearFit::ols(&pts)?;
/// assert!((fit.alpha() - 2.0).abs() < 1e-9);
/// assert!((fit.beta() - 10.0).abs() < 1e-9);
/// assert!((fit.r_squared() - 1.0).abs() < 1e-9);
/// # Ok::<(), smartconf_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    alpha: f64,
    beta: f64,
    r_squared: f64,
}

impl LinearFit {
    /// Fits by ordinary least squares over `(setting, perf)` points.
    ///
    /// # Errors
    ///
    /// * [`Error::InsufficientProfile`] with fewer than 2 points or fewer
    ///   than 2 distinct settings.
    /// * [`Error::InvalidParameter`] if any coordinate is not finite.
    pub fn ols(points: &[(f64, f64)]) -> Result<Self> {
        if points.len() < 2 {
            return Err(Error::InsufficientProfile {
                needed: "at least 2 points".into(),
                got: format!("{}", points.len()),
            });
        }
        for &(c, s) in points {
            if !c.is_finite() || !s.is_finite() {
                return Err(Error::InvalidParameter {
                    reason: format!("non-finite profile point ({c}, {s})"),
                });
            }
        }
        let n = points.len() as f64;
        let mean_c = points.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_s = points.iter().map(|p| p.1).sum::<f64>() / n;
        let mut ss_cc = 0.0;
        let mut ss_cs = 0.0;
        let mut ss_ss = 0.0;
        for &(c, s) in points {
            ss_cc += (c - mean_c) * (c - mean_c);
            ss_cs += (c - mean_c) * (s - mean_s);
            ss_ss += (s - mean_s) * (s - mean_s);
        }
        if ss_cc == 0.0 {
            return Err(Error::InsufficientProfile {
                needed: "at least 2 distinct settings".into(),
                got: "all settings equal".into(),
            });
        }
        let alpha = ss_cs / ss_cc;
        let beta = mean_s - alpha * mean_c;
        let r_squared = if ss_ss == 0.0 {
            1.0 // constant response is fit perfectly (alpha = 0)
        } else {
            (ss_cs * ss_cs) / (ss_cc * ss_ss)
        };
        Ok(LinearFit {
            alpha,
            beta,
            r_squared,
        })
    }

    /// A fit from explicit coefficients, bypassing regression — for
    /// controllers constructed from a known gain
    /// ([`Controller::new`](crate::Controller::new)'s expert path) and
    /// for seeding adaptive models in tests. Diagnostics are nominal:
    /// `r² = 1`.
    pub fn from_parts(alpha: f64, beta: f64) -> Self {
        LinearFit {
            alpha,
            beta,
            r_squared: 1.0,
        }
    }

    /// The gain: change in performance per unit change of configuration.
    /// This is the `α` of the paper's Equations 1–2.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The intercept of the affine fit.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Coefficient of determination in `[0, 1]`.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Predicted performance at a configuration setting.
    pub fn predict(&self, setting: f64) -> f64 {
        self.alpha * setting + self.beta
    }
}

/// Forgetting factor of the RLS update: each step discounts past
/// evidence by this factor, so the estimator tracks slow drift while a
/// window of roughly `1/(1−λf) = 50` exciting epochs dominates.
const RLS_FORGETTING: f64 = 0.98;

/// Initial (and relearn-reset) covariance diagonal, in normalized
/// regressor units: large enough that the first exciting measurements
/// move the estimate decisively, small enough to respect the seed fit.
const RLS_INITIAL_COVARIANCE: f64 = 10.0;

/// Gain-projection band: the estimated `α` is clamped to within this
/// factor of the seeded gain's magnitude (and to its sign). A bad
/// transient may bias the model; it must never hand the controller a
/// sign-flipped or near-zero `α`, whose `1/α` control gain would
/// destabilize the loop the guard ladder is defending.
const RLS_ALPHA_BAND: f64 = 8.0;

/// Minimum normalized setting deviation from the running mean for a
/// sample to count as *exciting*. A converged loop holds its setting
/// still; updating the regression from a constant regressor lets the
/// forgetting factor inflate the covariance without information
/// (estimator windup) and `β` swallow every disturbance. Non-exciting
/// samples still update the residual diagnostics, just not the fit.
const RLS_EXCITATION_FRAC: f64 = 1e-3;

/// Step size of the normalized-LMS fallback used when the covariance
/// denominator degenerates.
const RLS_LMS_STEP: f64 = 0.5;

/// EWMA weight of the residual/scale diagnostics behind
/// [`RlsModel::confidence`].
const RLS_RESIDUAL_EWMA: f64 = 0.05;

/// Observations before [`RlsModel::confidence`] switches from the
/// seeded fit's `r²` to the live residual estimate.
const RLS_MIN_OBSERVATIONS: u64 = 4;

/// Recursive least squares over `perf ≈ α·setting + β` with a
/// forgetting factor — the adaptive arm of [`GainModel`].
///
/// Internally the regressor is normalized by a per-model setting scale
/// (chosen at synthesis from the profiled settings) so scenarios whose
/// configurations live at `1e5` condition as well as those at `1e1`.
/// The update law over `x = [c/σ, 1]`, `θ = [ᾱ, β]`:
///
/// ```text
/// e  = y − θᵀx
/// k  = P·x / (λf + xᵀ·P·x)
/// θ ← θ + k·e
/// P ← (P − k·xᵀ·P) / λf
/// ```
///
/// with three guard rails: samples whose setting sits at the loop's
/// running mean are *non-exciting* and skip the fit update (no windup),
/// a degenerate denominator falls back to one normalized-LMS gradient
/// step and re-seeds the covariance, and the resulting `ᾱ` is projected
/// onto the seeded gain's sign and magnitude band.
///
/// # Example
///
/// ```
/// use smartconf_core::{LinearFit, RlsModel};
///
/// // Seeded believing the gain is 1; the live plant has gain 2.
/// let mut m = RlsModel::from_fit(&LinearFit::from_parts(1.0, 0.0), 10.0);
/// for k in 0..200 {
///     let setting = 10.0 + (k % 7) as f64; // exciting: the loop moves
///     m.observe(setting, 2.0 * setting + 5.0);
/// }
/// assert!((m.alpha() - 2.0).abs() < 0.05);
/// assert!((m.beta() - 5.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlsModel {
    /// Gain with respect to the *normalized* setting (`ᾱ = α·σ`).
    alpha_n: f64,
    beta: f64,
    /// Symmetric 2×2 covariance over `[ᾱ, β]`.
    p00: f64,
    p01: f64,
    p11: f64,
    /// Setting normalization scale `σ` (strictly positive).
    scale: f64,
    /// Seeded normalized gain: sign and magnitude anchor of projection.
    seed_alpha_n: f64,
    /// Seeded confidence, reported until enough live observations.
    seed_confidence: f64,
    /// EWMA of the squared prediction residual.
    residual_sq: f64,
    /// EWMA of the squared measurement (residual scale reference).
    measured_sq: f64,
    /// Running EWMA of the normalized setting (excitation reference).
    mean_setting_n: f64,
    observations: u64,
}

impl RlsModel {
    /// Seeds the estimator from an offline fit.
    ///
    /// `setting_scale` normalizes the regressor; pass a value of the
    /// order of the profiled settings (synthesis uses their mean
    /// magnitude). Non-positive or non-finite scales fall back to 1.
    pub fn from_fit(fit: &LinearFit, setting_scale: f64) -> Self {
        let scale = if setting_scale.is_finite() && setting_scale > 0.0 {
            setting_scale
        } else {
            1.0
        };
        let alpha_n = fit.alpha() * scale;
        RlsModel {
            alpha_n,
            beta: fit.beta(),
            p00: RLS_INITIAL_COVARIANCE,
            p01: 0.0,
            p11: RLS_INITIAL_COVARIANCE,
            scale,
            seed_alpha_n: alpha_n,
            seed_confidence: fit.r_squared().clamp(0.0, 1.0),
            residual_sq: 0.0,
            measured_sq: 0.0,
            mean_setting_n: 0.0,
            observations: 0,
        }
    }

    /// The setting normalization scale in effect.
    pub fn setting_scale(&self) -> f64 {
        self.scale
    }

    /// Clamps the normalized gain to the seeded sign and magnitude band.
    fn project_alpha(&mut self) {
        let sign = if self.seed_alpha_n < 0.0 { -1.0 } else { 1.0 };
        let mag = self.seed_alpha_n.abs();
        let (lo, hi) = (mag / RLS_ALPHA_BAND, mag * RLS_ALPHA_BAND);
        let clamped = (self.alpha_n * sign).clamp(lo, hi);
        self.alpha_n = sign * clamped;
    }

    /// Whether internal state is still finite; a non-finite excursion
    /// (which projection and the fallback should prevent) re-seeds the
    /// covariance and restores the seeded gain.
    fn repair_non_finite(&mut self) {
        if self.alpha_n.is_finite()
            && self.beta.is_finite()
            && self.p00.is_finite()
            && self.p01.is_finite()
            && self.p11.is_finite()
        {
            return;
        }
        self.alpha_n = self.seed_alpha_n;
        if !self.beta.is_finite() {
            self.beta = 0.0;
        }
        self.p00 = RLS_INITIAL_COVARIANCE;
        self.p01 = 0.0;
        self.p11 = RLS_INITIAL_COVARIANCE;
    }

    /// The current gain estimate `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha_n / self.scale
    }

    /// The current intercept estimate `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Confidence in `[0, 1]`: the seeded fit's `r²` until a few live
    /// observations, then a residual-based estimate of how well recent
    /// measurements match the model's predictions.
    pub fn confidence(&self) -> f64 {
        if self.observations < RLS_MIN_OBSERVATIONS {
            return self.seed_confidence;
        }
        // Normalized RMS residual against the measurement's own RMS:
        // 0 → confidence 1, one full scale of residual → ~0.09.
        let scale_sq = self.measured_sq.max(f64::MIN_POSITIVE);
        let nrmse = (self.residual_sq / scale_sq).sqrt();
        1.0 / (1.0 + 10.0 * nrmse)
    }

    /// Live measurements consumed since seeding (or the last relearn).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Feeds one live `(setting, measurement)` pair, refining `α`/`β`.
    /// Non-finite inputs are ignored.
    pub fn observe(&mut self, setting: f64, measured: f64) {
        if !setting.is_finite() || !measured.is_finite() {
            return;
        }
        let x0 = setting / self.scale;
        let err = measured - (self.alpha_n * x0 + self.beta);

        // Residual diagnostics update on every sample (they power
        // `confidence`, which must see drift even in a converged loop).
        self.residual_sq += RLS_RESIDUAL_EWMA * (err * err - self.residual_sq);
        self.measured_sq += RLS_RESIDUAL_EWMA * (measured * measured - self.measured_sq);

        // Excitation gate: only a setting that actually moved relative
        // to the loop's recent operating point carries slope
        // information. The first samples always pass (the mean is still
        // forming).
        let excited = self.observations < 2
            || (x0 - self.mean_setting_n).abs()
                > RLS_EXCITATION_FRAC * self.mean_setting_n.abs().max(1.0);
        self.mean_setting_n += RLS_RESIDUAL_EWMA * (x0 - self.mean_setting_n);
        self.observations += 1;
        if !excited {
            return;
        }

        // RLS update over x = [x0, 1].
        let px0 = self.p00 * x0 + self.p01;
        let px1 = self.p01 * x0 + self.p11;
        let denom = RLS_FORGETTING + x0 * px0 + px1;
        if !denom.is_finite() || denom < 1e-12 {
            // Degenerate covariance: one normalized-LMS gradient step,
            // then re-seed the covariance so RLS can resume.
            let norm = 1.0 + x0 * x0;
            self.alpha_n += RLS_LMS_STEP * err * x0 / norm;
            self.beta += RLS_LMS_STEP * err / norm;
            self.p00 = RLS_INITIAL_COVARIANCE;
            self.p01 = 0.0;
            self.p11 = RLS_INITIAL_COVARIANCE;
        } else {
            let k0 = px0 / denom;
            let k1 = px1 / denom;
            self.alpha_n += k0 * err;
            self.beta += k1 * err;
            // P ← (P − k·(P·x)ᵀ) / λf, kept symmetric by construction.
            self.p00 = (self.p00 - k0 * px0) / RLS_FORGETTING;
            self.p01 = (self.p01 - k0 * px1) / RLS_FORGETTING;
            self.p11 = (self.p11 - k1 * px1) / RLS_FORGETTING;
        }
        self.project_alpha();
        self.repair_non_finite();
    }

    /// Forgets accumulated certainty (a covariance reset) while keeping
    /// the current coefficients as a warm start, so the estimator
    /// relearns post-restart dynamics in place.
    pub fn relearn(&mut self) {
        self.p00 = RLS_INITIAL_COVARIANCE;
        self.p01 = 0.0;
        self.p11 = RLS_INITIAL_COVARIANCE;
        self.residual_sq = 0.0;
        self.measured_sq = 0.0;
        self.mean_setting_n = 0.0;
        self.observations = 0;
    }
}

/// The estimator a [`Controller`](crate::Controller) carries: a closed
/// enum over the frozen offline fit and the online RLS refinement, so
/// controllers keep deriving `Clone`/`PartialEq` and the frozen path
/// stays free of dynamic dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GainModel {
    /// The §6.1 offline fit, never updated (the paper's behaviour).
    Frozen(LinearFit),
    /// Online recursive least squares seeded from the offline fit.
    Rls(RlsModel),
}

impl GainModel {
    /// A frozen model from an explicit gain (intercept 0) — what
    /// [`Controller::new`](crate::Controller::new) wraps its scalar
    /// `alpha` into.
    pub fn frozen(alpha: f64) -> Self {
        GainModel::Frozen(LinearFit::from_parts(alpha, 0.0))
    }

    /// The gain: change in performance per unit change of configuration
    /// (the `α` of the paper's Equations 1–2).
    pub fn alpha(&self) -> f64 {
        match self {
            GainModel::Frozen(m) => m.alpha(),
            GainModel::Rls(m) => m.alpha(),
        }
    }

    /// Confidence in `[0, 1]`: the frozen fit's `r²`, or the adaptive
    /// model's residual-based estimate. Collapsing confidence is what
    /// the guard ladder's model-doubt rung watches.
    pub fn confidence(&self) -> f64 {
        match self {
            GainModel::Frozen(m) => m.r_squared(),
            GainModel::Rls(m) => m.confidence(),
        }
    }

    /// Live measurements the model has consumed (0 for a frozen fit,
    /// which only ever saw its offline profile).
    pub fn observations(&self) -> u64 {
        match self {
            GainModel::Frozen(_) => 0,
            GainModel::Rls(m) => m.observations(),
        }
    }

    /// Whether [`GainModel::observe`] can change the coefficients.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, GainModel::Rls(_))
    }

    /// Feeds one live `(setting, measurement)` pair: a frozen fit
    /// ignores it, an adaptive model refines `α`/`β`.
    pub fn observe(&mut self, setting: f64, measured: f64) {
        if let GainModel::Rls(m) = self {
            m.observe(setting, measured);
        }
    }

    /// Forgets an adaptive model's accumulated certainty, keeping its
    /// coefficients (see [`RlsModel::relearn`]); a frozen fit has none.
    pub fn relearn(&mut self) {
        if let GainModel::Rls(m) = self {
            m.relearn();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        let fit = LinearFit::ols(&pts).unwrap();
        assert!((fit.alpha() - 3.0).abs() < 1e-12);
        assert!((fit.beta() - 7.0).abs() < 1e-12);
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_slope() {
        let pts = [(0.0, 10.0), (10.0, 0.0)];
        let fit = LinearFit::ols(&pts).unwrap();
        assert!((fit.alpha() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_fit_close() {
        // y = 2x + 1 with symmetric noise.
        let pts = [
            (1.0, 3.2),
            (1.0, 2.8),
            (2.0, 5.1),
            (2.0, 4.9),
            (3.0, 7.3),
            (3.0, 6.7),
        ];
        let fit = LinearFit::ols(&pts).unwrap();
        assert!((fit.alpha() - 2.0).abs() < 0.1, "alpha {}", fit.alpha());
        assert!(fit.r_squared() > 0.95);
    }

    #[test]
    fn constant_response_has_zero_gain() {
        let pts = [(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)];
        let fit = LinearFit::ols(&pts).unwrap();
        assert_eq!(fit.alpha(), 0.0);
    }

    #[test]
    fn too_few_points_rejected() {
        assert!(matches!(
            LinearFit::ols(&[(1.0, 1.0)]),
            Err(Error::InsufficientProfile { .. })
        ));
        assert!(matches!(
            LinearFit::ols(&[]),
            Err(Error::InsufficientProfile { .. })
        ));
    }

    #[test]
    fn identical_settings_rejected() {
        let pts = [(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)];
        assert!(matches!(
            LinearFit::ols(&pts),
            Err(Error::InsufficientProfile { .. })
        ));
    }

    #[test]
    fn non_finite_rejected() {
        assert!(matches!(
            LinearFit::ols(&[(1.0, f64::NAN), (2.0, 1.0)]),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn r_squared_degrades_with_noise() {
        let clean = [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)];
        let noisy = [(1.0, 2.0), (2.0, 9.0), (3.0, 4.0)];
        let f1 = LinearFit::ols(&clean).unwrap();
        let f2 = LinearFit::ols(&noisy).unwrap();
        assert!(f1.r_squared() > f2.r_squared());
    }

    #[test]
    fn frozen_fit_ignores_observations() {
        let fit = LinearFit::ols(&[(1.0, 12.0), (2.0, 14.0)]).unwrap();
        let mut frozen = GainModel::Frozen(fit);
        frozen.observe(100.0, 0.0);
        frozen.relearn();
        assert_eq!(frozen, GainModel::Frozen(fit));
        assert!(!frozen.is_adaptive());
        assert_eq!(frozen.observations(), 0);
        assert_eq!(frozen.confidence(), fit.r_squared());
    }

    #[test]
    fn rls_tracks_a_gain_change() {
        // Seeded at gain 2; the plant drifts to gain 3 mid-stream.
        let mut m = RlsModel::from_fit(&LinearFit::from_parts(2.0, 10.0), 50.0);
        for k in 0..300 {
            let setting = 40.0 + (k % 11) as f64 * 3.0;
            let gain = if k < 100 { 2.0 } else { 3.0 };
            m.observe(setting, gain * setting + 10.0);
        }
        assert!((m.alpha() - 3.0).abs() < 0.05, "alpha {}", m.alpha());
        assert!(m.confidence() > 0.5, "confidence {}", m.confidence());
    }

    #[test]
    fn rls_projection_keeps_sign_and_band() {
        // Seeded positive; adversarial negative-slope data must not flip
        // the sign or collapse the gain to ~0.
        let mut m = RlsModel::from_fit(&LinearFit::from_parts(2.0, 0.0), 10.0);
        for k in 0..200 {
            let setting = 5.0 + (k % 9) as f64;
            m.observe(setting, -4.0 * setting);
        }
        assert!(m.alpha() > 0.0, "sign flipped: {}", m.alpha());
        assert!(m.alpha() >= 2.0 / 8.0 - 1e-12);
        assert!(m.alpha() <= 2.0 * 8.0 + 1e-12);
        // And the model knows it is wrong.
        assert!(m.confidence() < 0.5, "confidence {}", m.confidence());
    }

    #[test]
    fn rls_steady_state_does_not_wind_up() {
        // A converged loop repeats the same setting; the fit must not
        // drift (windup) no matter how long it holds.
        let mut m = RlsModel::from_fit(&LinearFit::from_parts(2.0, 5.0), 50.0);
        for k in 0..30 {
            let setting = 40.0 + (k % 5) as f64;
            m.observe(setting, 2.0 * setting + 5.0);
        }
        let (a, b) = (m.alpha(), m.beta());
        for _ in 0..10_000 {
            m.observe(42.0, 2.0 * 42.0 + 5.0);
        }
        assert!(
            (m.alpha() - a).abs() < 1e-9,
            "alpha drifted to {}",
            m.alpha()
        );
        assert!((m.beta() - b).abs() < 1e-9);
    }

    #[test]
    fn rls_relearn_resets_certainty_not_coefficients() {
        let mut m = RlsModel::from_fit(&LinearFit::from_parts(2.0, 0.0), 10.0);
        for k in 0..50 {
            let s = 5.0 + (k % 7) as f64;
            m.observe(s, 2.5 * s + 1.0);
        }
        let alpha = m.alpha();
        m.relearn();
        assert_eq!(m.alpha(), alpha); // warm start kept
        assert_eq!(m.observations(), 0); // certainty discarded
    }

    #[test]
    fn rls_ignores_non_finite_samples() {
        let mut m = RlsModel::from_fit(&LinearFit::from_parts(2.0, 0.0), 10.0);
        let before = m;
        m.observe(f64::NAN, 1.0);
        m.observe(1.0, f64::INFINITY);
        assert_eq!(m, before);
    }

    #[test]
    fn gain_model_delegates() {
        let mut frozen = GainModel::frozen(2.0);
        assert_eq!(frozen.alpha(), 2.0);
        assert!(!frozen.is_adaptive());
        frozen.observe(1.0, 99.0);
        assert_eq!(frozen.alpha(), 2.0);

        let mut rls = GainModel::Rls(RlsModel::from_fit(&LinearFit::from_parts(2.0, 0.0), 10.0));
        assert!(rls.is_adaptive());
        for k in 0..200 {
            let s = 5.0 + (k % 7) as f64;
            rls.observe(s, 3.0 * s + 1.0);
        }
        assert!((rls.alpha() - 3.0).abs() < 0.05);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn recovers_any_exact_line(
            alpha in -100.0f64..100.0,
            beta in -1000.0f64..1000.0,
            n in 2usize..50,
        ) {
            let pts: Vec<(f64, f64)> =
                (0..n).map(|i| (i as f64, alpha * i as f64 + beta)).collect();
            let fit = LinearFit::ols(&pts).unwrap();
            prop_assert!((fit.alpha() - alpha).abs() < 1e-6 * (1.0 + alpha.abs()));
            prop_assert!((fit.beta() - beta).abs() < 1e-5 * (1.0 + beta.abs()));
        }

        #[test]
        fn r_squared_in_unit_interval(
            pts in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..40)
        ) {
            // Ensure at least two distinct settings.
            let mut pts = pts;
            pts.push((101.0, 0.0));
            let fit = LinearFit::ols(&pts).unwrap();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&fit.r_squared()));
        }

        /// The estimator satellite: on noiseless affine data, RLS seeded
        /// within its projection band converges to the same coefficients
        /// [`LinearFit::ols`] recovers, within tolerance.
        #[test]
        fn rls_converges_to_ols_on_noiseless_affine_data(
            alpha in 0.25f64..50.0,
            sign in proptest::bool::ANY,
            beta in -500.0f64..500.0,
            seed_ratio in 0.25f64..4.0,
            base in 1.0f64..200.0,
        ) {
            let alpha = if sign { alpha } else { -alpha };
            let pts: Vec<(f64, f64)> = (0..40)
                .map(|k| {
                    let s = base * (1.0 + 0.1 * (k % 13) as f64);
                    (s, alpha * s + beta)
                })
                .collect();
            let ols = LinearFit::ols(&pts).unwrap();
            let seed = LinearFit::from_parts(alpha * seed_ratio, 0.0);
            let mut rls = RlsModel::from_fit(&seed, base);
            // The intercept direction is weakly excited relative to the
            // slope (x0 spans [1, 2.2] around a mean of 1.6), so give the
            // geometric decay enough passes to drain it.
            for _ in 0..24 {
                for &(s, y) in &pts {
                    rls.observe(s, y);
                }
            }
            prop_assert!(
                (rls.alpha() - ols.alpha()).abs() < 1e-3 * (1.0 + ols.alpha().abs()),
                "rls alpha {} vs ols {}", rls.alpha(), ols.alpha()
            );
            prop_assert!(
                (rls.beta() - ols.beta()).abs() < 1e-2 * (1.0 + ols.beta().abs()),
                "rls beta {} vs ols {}", rls.beta(), ols.beta()
            );
            prop_assert!(rls.confidence() > 0.9);
        }
    }
}
