//! The synthesized SmartConf controller (paper §5).
//!
//! Implements Equation 2 with the paper's three PerfConf-specific
//! extensions: automatically chosen poles (§5.1), virtual goals with
//! context-aware poles for hard constraints (§5.2), and the interaction
//! factor for super-hard goals shared by several configurations (§5.4).

use crate::{adaptive_pole, Error, GainModel, Goal, Hardness, Result, Sense};

/// Consecutive saturated-and-violating steps before the controller flags
/// the goal as unreachable.
const UNREACHABLE_STREAK: u32 = 5;

/// Which control law turns the tracking error into the next setting.
///
/// The paper's controller is integral (Equation 2): corrections
/// accumulate on the current setting, so any constant error is
/// eventually driven out. [`ControlLaw::Proportional`] is the classical
/// weaker baseline the benches compare against — the setting is the
/// initial operating point plus a term proportional to the *current*
/// error, so a constant disturbance leaves a steady-state offset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ControlLaw {
    /// Integral action (the paper's Equation 2):
    /// `c_{k+1} = c_k + (1 − p) / (N · α) · e_{k+1}`.
    #[default]
    Integral,
    /// Proportional action around the initial operating point:
    /// `c_{k+1} = c_0 + (1 − p) / (N · α) · e_{k+1}`.
    Proportional,
}

/// The §5 control law with its per-step constants bound: the one copy
/// of the formula, applied by [`Controller::step`] and by frozen-model
/// callers too light to carry a controller per plant.
///
/// `next = anchor + (1 − p)/(N·α) · (reference − measured)`: `p` is the
/// pole in effect (0 while a hard goal's reading is past the virtual
/// reference, §5.2), `α` the gain and `N` the number of configurations
/// sharing a super-hard goal (§5.4). The anchor is the current setting
/// for the integral law, the initial one for the proportional law
/// ([`ControlLaw`]). A lower bound would negate both the error and `α`;
/// IEEE negation is exact, so one formula serves both senses and only
/// the danger test reads the sense. (An exactly-zero step may carry the
/// other sign of zero, which shows only on a `−0.0` anchor.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Law {
    reference: f64,
    /// `(1 − p)/(N·α)`.
    gain: f64,
    /// `1/(N·α)` for a hard goal, `gain` for a soft one.
    danger_gain: f64,
    /// `±1` by sense: `error · sense < 0` exactly when the reading is
    /// past the reference (`−1 · +0 = −0` is not below 0).
    sense: f64,
    hard: bool,
}

impl Law {
    /// Binds the law for the effective gain `N·α`, the pole in effect
    /// outside the danger region, the reference (the virtual target
    /// for a hard goal) and the goal's sense and hardness.
    pub fn new(alpha: f64, pole: f64, reference: f64, sense: Sense, hard: bool) -> Law {
        let gain = (1.0 - pole) / alpha;
        let lower = sense == Sense::LowerBound;
        Law {
            reference,
            gain,
            danger_gain: if hard { 1.0 / alpha } else { gain },
            sense: if lower { -1.0 } else { 1.0 },
            hard,
        }
    }

    /// Whether `measured` puts a hard goal in its danger region (pole 0).
    #[inline]
    pub(crate) fn in_danger(&self, measured: f64) -> bool {
        self.hard && (self.reference - measured) * self.sense < 0.0
    }

    /// The next setting from `anchor` for a finite reading, unclamped:
    /// callers clamp, and [`Controller::step`] compares the two to
    /// detect saturation.
    #[inline]
    pub fn step(&self, anchor: f64, measured: f64) -> f64 {
        let error = self.reference - measured;
        let gain = if error * self.sense < 0.0 {
            self.danger_gain
        } else {
            self.gain
        };
        anchor + gain * error
    }
}

/// An integral controller that adjusts one configuration to keep one
/// performance metric at its goal.
///
/// Each call to [`Controller::step`] consumes the latest measurement and
/// returns the next configuration setting by Equation 2 ([`Law`]).
///
/// Use [`ControllerBuilder`](crate::ControllerBuilder) to synthesize one
/// from profiling data; construct directly only when you already know the
/// control parameters.
///
/// # Example
///
/// ```
/// use smartconf_core::{Controller, Goal};
///
/// // Memory grows 2 MB per queue slot; keep memory below 400 MB.
/// let goal = Goal::new("memory_mb", 400.0);
/// let mut c = Controller::new(2.0, 0.0, goal, 0.0, (0.0, 1000.0), 0.0)?;
/// // Measured memory is 100 MB: lots of headroom, so the queue grows.
/// let next = c.step(100.0);
/// assert_eq!(next, 150.0); // (400-100)/2 added
/// # Ok::<(), smartconf_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Controller {
    model: GainModel,
    pole: f64,
    goal: Goal,
    lambda: f64,
    interaction: u32,
    min: f64,
    max: f64,
    current: f64,
    base: f64,
    law: ControlLaw,
    last_pole_used: f64,
    unreachable_streak: u32,
}

impl Controller {
    /// Creates a controller from explicit parameters.
    ///
    /// * `alpha` — profiled gain (performance change per unit of
    ///   configuration); must be non-zero and finite.
    /// * `pole` — regular pole in `[0, 1)`.
    /// * `goal` — the performance goal; hard goals get the virtual-goal
    ///   and two-pole treatment automatically.
    /// * `lambda` — profiled instability coefficient (sets the virtual
    ///   goal margin); must be non-negative.
    /// * `bounds` — inclusive `(min, max)` range of valid settings.
    /// * `initial` — starting setting; clamped into bounds. The paper
    ///   notes the quality of this value does not matter (§6.3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroGain`] for a zero/non-finite `alpha` and
    /// [`Error::InvalidParameter`] for a pole outside `[0, 1)`, negative
    /// or non-finite `lambda`, or an empty bounds range.
    pub fn new(
        alpha: f64,
        pole: f64,
        goal: Goal,
        lambda: f64,
        bounds: (f64, f64),
        initial: f64,
    ) -> Result<Self> {
        Controller::with_model(
            GainModel::frozen(alpha),
            pole,
            goal,
            lambda,
            bounds,
            initial,
        )
    }

    /// Creates a controller around an explicit estimator — the frozen
    /// offline fit or an online [`RlsModel`](crate::RlsModel). Same
    /// parameters and validation as [`Controller::new`], which is the
    /// special case of a frozen zero-intercept model.
    ///
    /// # Errors
    ///
    /// As [`Controller::new`]; the model's gain must be non-zero and
    /// finite.
    pub fn with_model(
        model: GainModel,
        pole: f64,
        goal: Goal,
        lambda: f64,
        bounds: (f64, f64),
        initial: f64,
    ) -> Result<Self> {
        let alpha = model.alpha();
        if !alpha.is_finite() || alpha == 0.0 {
            return Err(Error::ZeroGain {
                conf: goal.metric().to_string(),
            });
        }
        if !(0.0..1.0).contains(&pole) {
            return Err(Error::InvalidParameter {
                reason: format!("pole must be in [0, 1), got {pole}"),
            });
        }
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(Error::InvalidParameter {
                reason: format!("lambda must be non-negative, got {lambda}"),
            });
        }
        let (min, max) = bounds;
        if !min.is_finite() || !max.is_finite() || min > max {
            return Err(Error::InvalidParameter {
                reason: format!("bounds must satisfy min <= max, got ({min}, {max})"),
            });
        }
        if !initial.is_finite() {
            return Err(Error::InvalidParameter {
                reason: format!("initial setting must be finite, got {initial}"),
            });
        }
        Ok(Controller {
            model,
            pole,
            goal,
            lambda,
            interaction: 1,
            min,
            max,
            current: initial.clamp(min, max),
            base: initial.clamp(min, max),
            law: ControlLaw::Integral,
            last_pole_used: pole,
            unreachable_streak: 0,
        })
    }

    /// Sets the interaction factor `N` (number of configurations sharing a
    /// super-hard goal, §5.4). Only applied when the goal is super-hard.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `n` is zero.
    pub fn set_interaction(&mut self, n: u32) -> Result<()> {
        if n == 0 {
            return Err(Error::InvalidParameter {
                reason: "interaction factor must be at least 1".into(),
            });
        }
        self.interaction = n;
        Ok(())
    }

    /// The interaction factor `N` in force (1 unless set, §5.4).
    pub fn interaction(&self) -> u32 {
        self.interaction
    }

    /// The goal under control.
    pub fn goal(&self) -> &Goal {
        &self.goal
    }

    /// Updates the goal target at run time (paper's `setGoal`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGoal`] if `target` is not finite.
    pub fn set_goal(&mut self, target: f64) -> Result<()> {
        self.goal.set_target(target)?;
        self.unreachable_streak = 0;
        Ok(())
    }

    /// The model gain `α` — the frozen profiled value, or an adaptive
    /// model's current estimate.
    pub fn alpha(&self) -> f64 {
        self.model.alpha()
    }

    /// The performance model the controller consults (and, when
    /// adaptive, teaches on every finite measurement).
    pub fn model(&self) -> &GainModel {
        &self.model
    }

    /// Mutable access to the model — how the runtime resets an adaptive
    /// estimator's certainty after a plant restart
    /// ([`GainModel::relearn`]).
    pub fn model_mut(&mut self) -> &mut GainModel {
        &mut self.model
    }

    /// Whether the controller's estimator refines itself online.
    pub fn is_adaptive(&self) -> bool {
        self.model.is_adaptive()
    }

    /// Selects the control law. [`ControlLaw::Integral`] (the default)
    /// is the paper's controller; [`ControlLaw::Proportional`] is the
    /// classical baseline the benches compare against. Switching laws
    /// re-anchors the proportional operating point at the current
    /// setting.
    pub fn set_control_law(&mut self, law: ControlLaw) {
        self.law = law;
        self.base = self.current;
    }

    /// The regular pole.
    pub fn pole(&self) -> f64 {
        self.pole
    }

    /// The pole used on the most recent [`Controller::step`] (0 when the
    /// last measurement was beyond the virtual goal of a hard constraint).
    pub fn last_pole_used(&self) -> f64 {
        self.last_pole_used
    }

    /// The instability coefficient `λ` used for the virtual goal.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The effective target the controller steers toward: the virtual goal
    /// for hard constraints, the real target otherwise.
    pub fn effective_target(&self) -> f64 {
        if self.goal.hardness().is_hard() {
            self.goal.virtual_target(self.lambda)
        } else {
            self.goal.target()
        }
    }

    /// Current configuration setting.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Overrides the current setting.
    ///
    /// For *indirect* configurations the controller must act on the deputy
    /// variable's actual value rather than the threshold it set last time
    /// (paper §5.3, why `SmartConf_I::setPerf` takes the deputy value);
    /// the wrapper calls this before [`Controller::step`]. The value is
    /// clamped into bounds.
    pub fn set_current(&mut self, value: f64) {
        if value.is_finite() {
            self.current = value.clamp(self.min, self.max);
        }
    }

    /// Inclusive bounds on the setting.
    pub fn bounds(&self) -> (f64, f64) {
        (self.min, self.max)
    }

    /// Resets accumulated control state after a plant restart: the
    /// setting returns to `initial` (clamped into bounds, non-finite
    /// ignored), the unreachable streak clears, and the pole history
    /// reverts to the regular pole. Profiled parameters (`α`, pole,
    /// `λ`, bounds) are kept — they describe the system model, not the
    /// run — so the caller decides separately whether to re-profile.
    pub fn reset(&mut self, initial: f64) {
        if initial.is_finite() {
            self.current = initial.clamp(self.min, self.max);
            self.base = self.current;
        }
        self.unreachable_streak = 0;
        self.last_pole_used = self.pole;
    }

    /// Whether the controller has been saturated at a bound while the goal
    /// stayed violated for several consecutive steps — the paper's
    /// "alert users that the goal is unreachable" condition (§4.3).
    pub fn goal_unreachable(&self) -> bool {
        self.unreachable_streak >= UNREACHABLE_STREAK
    }

    /// Consumes the latest measurement and returns the next setting by
    /// [`Law`]: the regular pole damps adjustments on the safe side of a
    /// hard goal's virtual target, pole 0 drives the system back beyond
    /// it (§5.2). Non-finite measurements leave the setting unchanged.
    ///
    /// Adaptive models are taught here: the measurement is paired with
    /// the setting it was produced under (`current` — which the indirect
    /// wrapper has already replaced with the deputy's actual value, §5.3)
    /// and fed to [`GainModel::observe`] before the gain is read back.
    /// While an adaptive model's confidence is low, the regular pole is
    /// floored toward heavier damping ([`adaptive_pole`]) so a
    /// mid-relearn gain estimate moves the setting cautiously; the
    /// danger-region pole stays 0 — hard-goal recovery does not wait for
    /// the estimator.
    pub fn step(&mut self, measured: f64) -> f64 {
        if !measured.is_finite() {
            return self.current;
        }
        self.model.observe(self.current, measured);
        let hardness = self.goal.hardness();
        let n = if hardness == Hardness::SuperHard {
            self.interaction as f64
        } else {
            1.0
        };
        let pole = if self.model.is_adaptive() {
            adaptive_pole(self.pole, self.model.confidence())
        } else {
            self.pole
        };
        let (alpha, target) = (n * self.model.alpha(), self.effective_target());
        let law = Law::new(alpha, pole, target, self.goal.sense(), hardness.is_hard());
        self.last_pole_used = if law.in_danger(measured) { 0.0 } else { pole };
        let anchor = match self.law {
            ControlLaw::Integral => self.current,
            ControlLaw::Proportional => self.base,
        };
        let next = law.step(anchor, measured);
        let clamped = next.clamp(self.min, self.max);

        let saturated = clamped != next;
        if saturated && self.goal.is_violated(measured) {
            self.unreachable_streak = self.unreachable_streak.saturating_add(1);
        } else {
            self.unreachable_streak = 0;
        }

        self.current = clamped;
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soft(target: f64) -> Goal {
        Goal::new("m", target)
    }

    fn hard(target: f64) -> Goal {
        Goal::new("m", target)
            .with_hardness(Hardness::Hard)
            .unwrap()
    }

    #[test]
    fn deadbeat_closes_error_in_one_model_step() {
        let mut c = Controller::new(2.0, 0.0, soft(100.0), 0.0, (0.0, 1e6), 10.0).unwrap();
        // Plant: s = 2c + 0. Measured at c=10 is 20; error 80; dc = 40.
        let next = c.step(20.0);
        assert_eq!(next, 50.0);
        // At c=50 the plant reads 100: converged, no further movement.
        assert_eq!(c.step(100.0), 50.0);
    }

    #[test]
    fn pole_damps_movement() {
        let mut fast = Controller::new(1.0, 0.0, soft(100.0), 0.0, (0.0, 1e6), 0.0).unwrap();
        let mut slow = Controller::new(1.0, 0.9, soft(100.0), 0.0, (0.0, 1e6), 0.0).unwrap();
        let df = fast.step(0.0);
        let ds = slow.step(0.0);
        assert!(df > ds);
        assert!((ds - 10.0).abs() < 1e-12); // (1-0.9)*100/1
    }

    #[test]
    fn converges_on_simulated_plant() {
        // Plant: s = 3c + 50, goal 500 => c* = 150.
        let mut c = Controller::new(3.0, 0.5, soft(500.0), 0.0, (0.0, 1e6), 0.0).unwrap();
        let mut setting = 0.0;
        for _ in 0..100 {
            let measured = 3.0 * setting + 50.0;
            setting = c.step(measured);
        }
        assert!((setting - 150.0).abs() < 1.0, "setting {setting}");
    }

    #[test]
    fn converges_with_wrong_alpha_if_within_delta() {
        // True gain 3, modeled gain 2 (delta = 1.5 < 2 so pole 0 is fine).
        let mut c = Controller::new(2.0, 0.0, soft(300.0), 0.0, (0.0, 1e6), 0.0).unwrap();
        let mut setting = 0.0;
        for _ in 0..60 {
            setting = c.step(3.0 * setting);
        }
        assert!((setting - 100.0).abs() < 1.0, "setting {setting}");
    }

    #[test]
    fn negative_gain_plant_converges() {
        // Bigger config -> lower metric (e.g. more flush threads -> less
        // backlog). Plant: s = 1000 - 4c; goal <= 200 => c* = 200.
        let mut c = Controller::new(-4.0, 0.0, soft(200.0), 0.0, (0.0, 1e6), 0.0).unwrap();
        let mut setting = 0.0;
        for _ in 0..50 {
            setting = c.step(1000.0 - 4.0 * setting);
        }
        assert!((setting - 200.0).abs() < 1.0, "setting {setting}");
    }

    #[test]
    fn lower_bound_goal_converges_from_violation() {
        // Metric: free disk = 1000 - 2c, must stay >= 400 => c* = 300.
        let goal = Goal::new("free", 400.0).with_sense(Sense::LowerBound);
        let mut c = Controller::new(-2.0, 0.0, goal, 0.0, (0.0, 1e6), 500.0).unwrap();
        let mut setting = 500.0;
        for _ in 0..50 {
            setting = c.step(1000.0 - 2.0 * setting);
        }
        assert!((setting - 300.0).abs() < 1.0, "setting {setting}");
    }

    #[test]
    fn hard_goal_steers_to_virtual_target() {
        // lambda 0.1 => virtual target 90 when target is 100.
        let mut c = Controller::new(1.0, 0.5, hard(100.0), 0.1, (0.0, 1e6), 0.0).unwrap();
        assert!((c.effective_target() - 90.0).abs() < 1e-12);
        let mut setting = 0.0;
        for _ in 0..200 {
            setting = c.step(setting); // plant: s = c
        }
        assert!((setting - 90.0).abs() < 0.5, "setting {setting}");
    }

    #[test]
    fn soft_goal_ignores_virtual_target() {
        let c = Controller::new(1.0, 0.5, soft(100.0), 0.1, (0.0, 1e6), 0.0).unwrap();
        assert_eq!(c.effective_target(), 100.0);
    }

    #[test]
    fn two_pole_switching() {
        let mut c = Controller::new(1.0, 0.9, hard(100.0), 0.1, (0.0, 1e6), 50.0).unwrap();
        // Safe region (below virtual target 90): regular pole.
        c.step(50.0);
        assert_eq!(c.last_pole_used(), 0.9);
        // Danger region (beyond virtual target): pole 0.
        c.step(95.0);
        assert_eq!(c.last_pole_used(), 0.0);
        // Back to safe.
        c.step(10.0);
        assert_eq!(c.last_pole_used(), 0.9);
    }

    #[test]
    fn danger_reaction_is_full_strength() {
        let mut slow = Controller::new(1.0, 0.9, hard(100.0), 0.1, (0.0, 1e6), 80.0).unwrap();
        // Beyond virtual goal 90 by 10: full correction of -10/alpha.
        let next = slow.step(100.0);
        assert!((next - 70.0).abs() < 1e-9, "next {next}");
    }

    #[test]
    fn interaction_factor_splits_error_for_superhard() {
        let sh = Goal::new("m", 100.0)
            .with_hardness(Hardness::SuperHard)
            .unwrap();
        let mut c = Controller::new(1.0, 0.0, sh.clone(), 0.0, (0.0, 1e6), 0.0).unwrap();
        c.set_interaction(2).unwrap();
        // Error to virtual target (lambda 0 -> 100) is 100; split by 2.
        assert_eq!(c.step(0.0), 50.0);

        // Hardness::Hard does not split.
        let mut h = Controller::new(1.0, 0.0, hard(100.0), 0.0, (0.0, 1e6), 0.0).unwrap();
        h.set_interaction(2).unwrap();
        assert_eq!(h.step(0.0), 100.0);
    }

    #[test]
    fn clamps_to_bounds() {
        let mut c = Controller::new(1.0, 0.0, soft(1000.0), 0.0, (0.0, 50.0), 0.0).unwrap();
        assert_eq!(c.step(0.0), 50.0);
        let mut d = Controller::new(1.0, 0.0, soft(-1000.0), 0.0, (10.0, 50.0), 20.0).unwrap();
        assert_eq!(d.step(0.0), 10.0);
    }

    #[test]
    fn unreachable_goal_flagged_after_streak() {
        // Plant s = c + 2000 with goal <= 1000: even at the minimum
        // setting the metric violates, so the goal is unreachable.
        let mut c = Controller::new(1.0, 0.0, soft(1000.0), 0.0, (0.0, 50.0), 50.0).unwrap();
        let mut setting = 50.0;
        for _ in 0..3 {
            setting = c.step(setting + 2000.0);
            assert!(!c.goal_unreachable());
        }
        for _ in 0..5 {
            setting = c.step(setting + 2000.0);
        }
        assert!(c.goal_unreachable());
        // Raising the goal clears the alert path.
        c.set_goal(3000.0).unwrap();
        assert!(!c.goal_unreachable());
    }

    #[test]
    fn proportional_law_leaves_steady_state_error() {
        // Plant s = 2c + 100, goal 500. Integral converges to c* = 200;
        // proportional from c0 = 0 settles where c = (500 - s)/2, i.e.
        // c_ss = 100, s_ss = 300 — a 200-unit steady-state error.
        let mut p = Controller::new(2.0, 0.5, soft(500.0), 0.0, (0.0, 1e6), 0.0).unwrap();
        p.set_control_law(ControlLaw::Proportional);
        let mut i = Controller::new(2.0, 0.5, soft(500.0), 0.0, (0.0, 1e6), 0.0).unwrap();
        let (mut cp, mut ci) = (0.0, 0.0);
        for _ in 0..200 {
            cp = p.step(2.0 * cp + 100.0);
            ci = i.step(2.0 * ci + 100.0);
        }
        assert!((ci - 200.0).abs() < 1.0, "integral setting {ci}");
        assert!(
            (2.0 * cp + 100.0 - 500.0).abs() > 100.0,
            "proportional should keep steady-state error, setting {cp}"
        );
    }

    #[test]
    fn set_current_drives_indirect_updates() {
        let mut c = Controller::new(1.0, 0.0, soft(100.0), 0.0, (0.0, 200.0), 50.0).unwrap();
        // Deputy actually sits at 80 even though we last set 50.
        c.set_current(80.0);
        // Error 20 from measurement 80 -> next = 100.
        assert_eq!(c.step(80.0), 100.0);
        // Out-of-bounds deputy values clamp.
        c.set_current(1e9);
        assert_eq!(c.current(), 200.0);
    }

    #[test]
    fn reset_restores_initial_and_clears_streak() {
        let mut c = Controller::new(1.0, 0.7, soft(1000.0), 0.0, (0.0, 50.0), 20.0).unwrap();
        let mut setting = 20.0;
        for _ in 0..10 {
            setting = c.step(setting + 2000.0);
        }
        assert!(c.goal_unreachable());
        c.reset(20.0);
        assert_eq!(c.current(), 20.0);
        assert!(!c.goal_unreachable());
        assert_eq!(c.last_pole_used(), 0.7);
        // Out-of-bounds initial clamps; non-finite is ignored.
        c.reset(1e9);
        assert_eq!(c.current(), 50.0);
        c.reset(f64::NAN);
        assert_eq!(c.current(), 50.0);
    }

    #[test]
    fn nan_measurement_is_ignored() {
        let mut c = Controller::new(1.0, 0.0, soft(100.0), 0.0, (0.0, 1e6), 42.0).unwrap();
        assert_eq!(c.step(f64::NAN), 42.0);
    }

    #[test]
    fn constructor_validation() {
        let g = soft(1.0);
        assert!(matches!(
            Controller::new(0.0, 0.0, g.clone(), 0.0, (0.0, 1.0), 0.0),
            Err(Error::ZeroGain { .. })
        ));
        assert!(matches!(
            Controller::new(1.0, 1.0, g.clone(), 0.0, (0.0, 1.0), 0.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            Controller::new(1.0, 0.0, g.clone(), -0.1, (0.0, 1.0), 0.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            Controller::new(1.0, 0.0, g.clone(), 0.0, (2.0, 1.0), 0.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            Controller::new(1.0, 0.0, g, 0.0, (0.0, 1.0), f64::NAN),
            Err(Error::InvalidParameter { .. })
        ));
        let mut ok = Controller::new(1.0, 0.0, soft(1.0), 0.0, (0.0, 1.0), 5.0).unwrap();
        assert_eq!(ok.current(), 1.0); // initial clamped
        assert!(ok.set_interaction(0).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `Controller::step`'s formula before it moved into [`Law`], with
    /// the error and gain normalised per sense: (clamped next, pole).
    fn reference_step(c: &Controller, measured: f64) -> (f64, f64) {
        if !measured.is_finite() {
            return (c.current, c.last_pole_used);
        }
        let error = c.goal.error_against(c.effective_target(), measured);
        let danger = c.goal.hardness().is_hard() && error < 0.0;
        let superhard = c.goal.hardness() == Hardness::SuperHard;
        let lower = c.goal.sense() == Sense::LowerBound;
        let integral = c.law == ControlLaw::Integral;
        let pole = if danger { 0.0 } else { c.pole };
        let n = if superhard { c.interaction as f64 } else { 1.0 };
        let alpha = if lower { -c.alpha() } else { c.alpha() };
        let anchor = if integral { c.current } else { c.base };
        let next = anchor + (1.0 - pole) / (n * alpha) * error;
        (next.clamp(c.min, c.max), pole)
    }

    proptest! {
        /// [`Law`] reproduces the per-sense formula bit for bit: both
        /// senses and gain signs, soft/hard/super-hard goals with
        /// `N ∈ {1, 2, 3}`, integral and proportional anchors, readings
        /// on both sides of the reference and a NaN mid-run.
        #[test]
        fn law_matches_the_inline_formula(
            alpha in -50.0f64..50.0,
            pole in 0.0f64..0.99,
            lambda in 0.0f64..0.6,
            target in 0.1f64..10_000.0,
            lower in proptest::bool::ANY,
            hardness in 0usize..3,
            n in 1u32..4,
            proportional in proptest::bool::ANY,
            initial in -500.0f64..500.0,
            span in 1.0f64..1000.0,
            ratios in proptest::collection::vec(0.0f64..3.0, 1..8),
            nan_at in 0usize..8,
        ) {
            let sense = if lower { Sense::LowerBound } else { Sense::UpperBound };
            let hardness = [Hardness::Soft, Hardness::Hard, Hardness::SuperHard][hardness];
            let goal = Goal::new("m", target).with_sense(sense).with_hardness(hardness).unwrap();
            let bounds = (initial - span, initial + span);
            let mut c = Controller::new(alpha, pole, goal, lambda, bounds, initial).unwrap();
            c.set_interaction(n).unwrap();
            if proportional {
                c.set_control_law(ControlLaw::Proportional);
            }
            for (k, ratio) in ratios.iter().enumerate() {
                let measured = if k == nan_at { f64::NAN } else { ratio * target };
                let (next, pole) = reference_step(&c, measured);
                prop_assert_eq!(c.step(measured).to_bits(), next.to_bits(), "step {}", k);
                prop_assert_eq!(c.last_pole_used().to_bits(), pole.to_bits());
            }
        }
    }

    proptest! {
        /// On any linear plant within the modeled gain's factor-of-two
        /// error bound, the controller converges to the goal and never
        /// leaves its bounds.
        #[test]
        fn converges_on_linear_plants(
            alpha_true in 0.5f64..8.0,
            model_ratio in 0.6f64..1.9,
            offset in 0.0f64..50.0,
            target in 100.0f64..1000.0,
            pole in 0.0f64..0.9,
        ) {
            let alpha_model = alpha_true * model_ratio;
            let goal = Goal::new("m", target);
            let mut c = Controller::new(alpha_model, pole, goal, 0.0, (0.0, 1e9), 0.0).unwrap();
            let mut setting = 0.0;
            for _ in 0..400 {
                let measured = alpha_true * setting + offset;
                setting = c.step(measured);
                let (lo, hi) = c.bounds();
                prop_assert!(setting >= lo && setting <= hi);
            }
            let final_perf = alpha_true * setting + offset;
            prop_assert!((final_perf - target).abs() < 0.02 * target,
                "final perf {} vs target {}", final_perf, target);
        }

        /// A hard goal never overshoots on a noiseless plant: the virtual
        /// goal plus monotone approach keeps the metric at or below target.
        #[test]
        fn hard_goal_no_overshoot_noiseless(
            alpha in 0.5f64..4.0,
            target in 100.0f64..1000.0,
            lambda in 0.0f64..0.3,
            pole in 0.0f64..0.9,
        ) {
            let goal = Goal::new("m", target).with_hardness(Hardness::Hard).unwrap();
            let mut c = Controller::new(alpha, pole, goal, lambda, (0.0, 1e9), 0.0).unwrap();
            let mut setting = 0.0;
            for _ in 0..300 {
                let measured = alpha * setting;
                prop_assert!(measured <= target + 1e-6,
                    "overshoot: {} > {}", measured, target);
                setting = c.step(measured);
            }
        }
    }
}
