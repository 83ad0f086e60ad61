//! Controller synthesis: from profiling data to a ready controller.
//!
//! This is the step that hides every control-specific decision from
//! developers (paper §5): the gain comes from regression over the profile,
//! the pole from the profiled variability via `Δ = 1 + 3λ`, and the
//! virtual goal margin from `λ` itself. Developers supply only things they
//! already know: the profile, the goal, and the valid setting range.

use crate::{
    pole_from_delta, Controller, Error, GainModel, Goal, LinearFit, ModelMode, ProfileSet, Result,
    RlsModel,
};

/// Builder that synthesizes a [`Controller`] from profiling data and a
/// goal.
///
/// # Example
///
/// ```
/// use smartconf_core::{ControllerBuilder, Goal, Hardness, ProfileSet};
///
/// // Profile: memory ≈ 100 + 2·queue_size, light noise.
/// let mut profile = ProfileSet::new();
/// for setting in [40.0, 80.0, 120.0, 160.0] {
///     for k in 0..10 {
///         profile.add(setting, 100.0 + 2.0 * setting + (k % 3) as f64);
///     }
/// }
/// let goal = Goal::new("memory_mb", 495.0).with_hardness(Hardness::Hard)?;
/// let controller = ControllerBuilder::new(goal)
///     .profile(&profile)?
///     .bounds(0.0, 1000.0)
///     .initial(0.0)
///     .build()?;
/// // Gain was learned from the profile.
/// assert!((controller.alpha() - 2.0).abs() < 0.1);
/// // Hard goal: steers to a virtual target below 495.
/// assert!(controller.effective_target() < 495.0);
/// # Ok::<(), smartconf_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ControllerBuilder {
    goal: Goal,
    alpha: Option<f64>,
    pole: Option<f64>,
    lambda: Option<f64>,
    bounds: (f64, f64),
    initial: f64,
    interaction: u32,
    mode: ModelMode,
    fit: Option<LinearFit>,
    setting_scale: Option<f64>,
}

impl ControllerBuilder {
    /// Starts a builder for the given goal.
    pub fn new(goal: Goal) -> Self {
        ControllerBuilder {
            goal,
            alpha: None,
            pole: None,
            lambda: None,
            bounds: (0.0, f64::MAX),
            initial: 0.0,
            interaction: 1,
            mode: ModelMode::Frozen,
            fit: None,
            setting_scale: None,
        }
    }

    /// Derives gain, pole, and virtual-goal margin from profiling data.
    ///
    /// # Errors
    ///
    /// * [`Error::InsufficientProfile`] — fewer than 2 distinct settings.
    /// * [`Error::NonMonotonicModel`] — response not monotonic (§6.6).
    /// * [`Error::ZeroGain`] — the metric does not respond to the
    ///   configuration.
    pub fn profile(mut self, profile: &ProfileSet) -> Result<Self> {
        profile.check_monotonic(self.goal.metric())?;
        let fit = profile.fit()?;
        if fit.alpha() == 0.0 {
            return Err(Error::ZeroGain {
                conf: self.goal.metric().to_string(),
            });
        }
        self.alpha = Some(fit.alpha());
        self.lambda = Some(profile.lambda());
        self.pole = Some(pole_from_delta(profile.delta()));
        // Remember the full fit and the magnitude of the profiled settings:
        // an adaptive build seeds its estimator and regressor normalization
        // from these.
        self.fit = Some(fit);
        let (sum, n) = profile.groups().fold((0.0, 0u32), |(s, n), (setting, _)| {
            (s + setting.abs(), n + 1)
        });
        if n > 0 && sum > 0.0 {
            self.setting_scale = Some(sum / n as f64);
        }
        Ok(self)
    }

    /// Selects the model mode: [`ModelMode::Frozen`] (default) keeps the
    /// profiled gain fixed for the controller's lifetime; [`ModelMode::Adaptive`]
    /// seeds a recursive-least-squares estimator from the profile and keeps
    /// refining the gain online from every admitted measurement.
    pub fn model_mode(mut self, mode: ModelMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for [`ControllerBuilder::model_mode`] with
    /// [`ModelMode::Adaptive`].
    pub fn adaptive(self) -> Self {
        self.model_mode(ModelMode::Adaptive)
    }

    /// Overrides the gain (expert escape hatch; normal use derives it via
    /// [`ControllerBuilder::profile`]).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        // An explicit gain supersedes any profiled fit, including as the
        // seed for an adaptive estimator (the profile still contributes
        // the pole, margin, and setting scale).
        self.fit = None;
        self
    }

    /// Overrides the pole.
    pub fn pole(mut self, pole: f64) -> Self {
        self.pole = Some(pole);
        self
    }

    /// Overrides the virtual-goal margin λ.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Sets the inclusive valid range of the configuration.
    pub fn bounds(mut self, min: f64, max: f64) -> Self {
        self.bounds = (min, max);
        self
    }

    /// Sets the initial setting (only matters before the first `step`).
    pub fn initial(mut self, initial: f64) -> Self {
        self.initial = initial;
        self
    }

    /// Sets the interaction factor N for super-hard goals (§5.4).
    pub fn interaction(mut self, n: u32) -> Self {
        self.interaction = n;
        self
    }

    /// Builds the controller.
    ///
    /// # Errors
    ///
    /// * [`Error::InsufficientProfile`] — neither a profile nor an explicit
    ///   `alpha` was provided.
    /// * Validation errors from [`Controller::new`].
    pub fn build(self) -> Result<Controller> {
        let alpha = self.alpha.ok_or_else(|| Error::InsufficientProfile {
            needed: "a profile or an explicit alpha".into(),
            got: "neither".into(),
        })?;
        let model = match self.mode {
            ModelMode::Frozen => GainModel::frozen(alpha),
            ModelMode::Adaptive => {
                // Seed from the profiled fit when one exists (carrying its
                // r² as initial confidence), else from the explicit alpha.
                let fit = self
                    .fit
                    .unwrap_or_else(|| LinearFit::from_parts(alpha, 0.0));
                let scale = self
                    .setting_scale
                    .unwrap_or_else(|| self.initial.abs().max(1.0));
                GainModel::Rls(RlsModel::from_fit(&fit, scale))
            }
        };
        let mut controller = Controller::with_model(
            model,
            self.pole.unwrap_or(0.0),
            self.goal,
            self.lambda.unwrap_or(0.0),
            self.bounds,
            self.initial,
        )?;
        controller.set_interaction(self.interaction)?;
        Ok(controller)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hardness;

    fn linear_profile(gain: f64, noise: &[f64]) -> ProfileSet {
        let mut p = ProfileSet::new();
        for setting in [10.0, 20.0, 30.0, 40.0] {
            for &n in noise {
                p.add(setting, gain * setting + 50.0 + n);
            }
        }
        p
    }

    #[test]
    fn synthesis_from_clean_profile() {
        let profile = linear_profile(2.0, &[0.0, 0.0]);
        let c = ControllerBuilder::new(Goal::new("m", 500.0))
            .profile(&profile)
            .unwrap()
            .bounds(0.0, 1000.0)
            .build()
            .unwrap();
        assert!((c.alpha() - 2.0).abs() < 1e-9);
        assert_eq!(c.pole(), 0.0); // noiseless => deadbeat
        assert_eq!(c.lambda(), 0.0);
    }

    #[test]
    fn noisy_profile_raises_pole() {
        // Very noisy: sigma/mean large => delta > 2 => pole > 0.
        let profile = linear_profile(2.0, &[-80.0, 0.0, 80.0, -60.0, 60.0]);
        let c = ControllerBuilder::new(Goal::new("m", 500.0))
            .profile(&profile)
            .unwrap()
            .build()
            .unwrap();
        assert!(c.pole() > 0.0, "pole {}", c.pole());
        assert!(c.lambda() > 0.0);
    }

    #[test]
    fn hard_goal_gets_virtual_target_from_lambda() {
        let profile = linear_profile(2.0, &[-30.0, 0.0, 30.0]);
        let goal = Goal::new("m", 100.0).with_hardness(Hardness::Hard).unwrap();
        let c = ControllerBuilder::new(goal)
            .profile(&profile)
            .unwrap()
            .build()
            .unwrap();
        let expected = 100.0 * (1.0 - c.lambda().clamp(0.0, 0.5));
        assert!((c.effective_target() - expected).abs() < 1e-9);
    }

    #[test]
    fn non_monotonic_profile_rejected() {
        let mut p = ProfileSet::new();
        for (s, perf) in [(1.0, 10.0), (2.0, 2.0), (3.0, 10.0)] {
            p.add(s, perf);
        }
        assert!(matches!(
            ControllerBuilder::new(Goal::new("m", 5.0)).profile(&p),
            Err(Error::NonMonotonicModel { .. })
        ));
    }

    #[test]
    fn flat_profile_rejected() {
        let mut p = ProfileSet::new();
        for s in [1.0, 2.0, 3.0] {
            p.add(s, 7.0);
        }
        assert!(matches!(
            ControllerBuilder::new(Goal::new("m", 5.0)).profile(&p),
            Err(Error::ZeroGain { .. })
        ));
    }

    #[test]
    fn build_without_alpha_fails() {
        assert!(matches!(
            ControllerBuilder::new(Goal::new("m", 5.0)).build(),
            Err(Error::InsufficientProfile { .. })
        ));
    }

    #[test]
    fn explicit_overrides() {
        let c = ControllerBuilder::new(Goal::new("m", 100.0))
            .alpha(3.0)
            .pole(0.5)
            .lambda(0.2)
            .initial(7.0)
            .bounds(0.0, 10.0)
            .build()
            .unwrap();
        assert_eq!(c.alpha(), 3.0);
        assert_eq!(c.pole(), 0.5);
        assert_eq!(c.lambda(), 0.2);
        assert_eq!(c.current(), 7.0);
    }

    #[test]
    fn adaptive_build_seeds_estimator_from_profile() {
        let profile = linear_profile(2.0, &[0.0, 0.0]);
        let c = ControllerBuilder::new(Goal::new("m", 500.0))
            .profile(&profile)
            .unwrap()
            .bounds(0.0, 1000.0)
            .adaptive()
            .build()
            .unwrap();
        assert!(c.is_adaptive());
        assert!((c.alpha() - 2.0).abs() < 1e-9);
        match c.model() {
            crate::GainModel::Rls(rls) => {
                // Scale is the mean |setting| of the profiled sweep.
                assert!((rls.setting_scale() - 25.0).abs() < 1e-9);
                // Noiseless profile: full seeded confidence.
                assert!((rls.confidence() - 1.0).abs() < 1e-9);
            }
            other => panic!("expected RLS model, got {other:?}"),
        }
    }

    #[test]
    fn frozen_build_is_default_and_not_adaptive() {
        let profile = linear_profile(2.0, &[0.0, 0.0]);
        let c = ControllerBuilder::new(Goal::new("m", 500.0))
            .profile(&profile)
            .unwrap()
            .build()
            .unwrap();
        assert!(!c.is_adaptive());
    }

    #[test]
    fn adaptive_build_from_explicit_alpha() {
        let c = ControllerBuilder::new(Goal::new("m", 100.0))
            .alpha(3.0)
            .initial(7.0)
            .bounds(0.0, 10.0)
            .model_mode(crate::ModelMode::Adaptive)
            .build()
            .unwrap();
        assert!(c.is_adaptive());
        assert_eq!(c.alpha(), 3.0);
    }

    #[test]
    fn adaptive_alpha_override_supersedes_profile_fit() {
        // MR2820 pattern: profile for pole/margin, but the deputy gain is
        // identically 1 and overrides the fitted slope. The adaptive seed
        // must honour the override, not the stale fit.
        let c = ControllerBuilder::new(Goal::new("m", 100.0))
            .profile(&linear_profile(2.0, &[0.0; 4]))
            .unwrap()
            .alpha(1.0)
            .bounds(0.0, 200.0)
            .initial(10.0)
            .adaptive()
            .build()
            .unwrap();
        assert!(c.is_adaptive());
        assert_eq!(c.alpha(), 1.0);
    }

    #[test]
    fn interaction_passes_through() {
        let sh = Goal::new("m", 100.0)
            .with_hardness(Hardness::SuperHard)
            .unwrap();
        let mut c = ControllerBuilder::new(sh)
            .alpha(1.0)
            .interaction(4)
            .build()
            .unwrap();
        // Error 100 split 4 ways.
        assert_eq!(c.step(0.0), 25.0);
    }
}
