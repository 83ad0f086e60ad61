//! The developer-facing configuration objects (paper Figures 3 and 4).
//!
//! Instead of reading a value from a configuration file, a developer
//! creates a [`SmartConf`] (or [`SmartConfIndirect`] when the
//! configuration bounds a deputy variable) and, at every point where the
//! software would read the configuration, calls `set_perf` followed by
//! `conf`:
//!
//! ```text
//! sc.set_perf(heap_sensor.measure());
//! queue.set_capacity(sc.conf_rounded() as usize);
//! ```

use crate::{Controller, IdentityTransducer, ProfilingCapture, Result, Transducer};

/// A directly-acting SmartConf configuration: the configuration value
/// itself is what the controller adjusts (paper Figure 3).
///
/// # Example
///
/// ```
/// use smartconf_core::{Controller, Goal, SmartConf};
///
/// let goal = Goal::new("memory_mb", 400.0);
/// let controller = Controller::new(2.0, 0.0, goal, 0.0, (0.0, 500.0), 10.0)?;
/// let mut conf = SmartConf::new("cache.size", controller);
///
/// conf.set_perf(100.0);            // sensor reading
/// let setting = conf.conf();       // adjusted setting
/// assert_eq!(setting, 160.0);      // 10 + (400-100)/2
/// # Ok::<(), smartconf_core::Error>(())
/// ```
#[derive(Debug)]
pub struct SmartConf {
    name: String,
    controller: Controller,
    pending: Option<f64>,
    capture: Option<ProfilingCapture>,
}

impl SmartConf {
    /// Wraps a synthesized controller as a named configuration.
    pub fn new(name: impl Into<String>, controller: Controller) -> Self {
        SmartConf {
            name: name.into(),
            controller,
            pending: None,
            capture: None,
        }
    }

    /// Enables run-time profiling capture (paper §5.5): every subsequent
    /// [`SmartConf::set_perf`] also records `(current setting, actual)`
    /// into the capture buffer.
    pub fn enable_profiling(&mut self, capture: ProfilingCapture) {
        self.capture = Some(capture);
    }

    /// Configuration name (e.g. `"ipc.server.max.queue.size"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feeds the latest performance measurement (paper's `setPerf`).
    pub fn set_perf(&mut self, actual: f64) {
        if let Some(capture) = &mut self.capture {
            capture.record(self.controller.current(), actual);
        }
        self.pending = Some(actual);
    }

    /// Computes and returns the adjusted setting (paper's `getConf`).
    ///
    /// The controller advances once per fresh measurement: calling `conf`
    /// repeatedly without an intervening [`SmartConf::set_perf`] returns
    /// the same setting rather than integrating the stale error again.
    pub fn conf(&mut self) -> f64 {
        if let Some(measured) = self.pending.take() {
            self.controller.step(measured);
        }
        self.controller.current()
    }

    /// Like [`SmartConf::conf`] but rounded to the nearest integer, for
    /// the integer-typed configurations that dominate PerfConfs (>80% in
    /// the paper's study, Table 5).
    pub fn conf_rounded(&mut self) -> i64 {
        self.conf().round() as i64
    }

    /// Updates the performance goal at run time (paper's `setGoal`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGoal`](crate::Error::InvalidGoal) if the
    /// target is not finite.
    pub fn set_goal(&mut self, goal: f64) -> Result<()> {
        self.controller.set_goal(goal)
    }

    /// Forces the setting to `value` (clamped into controller bounds),
    /// discarding any pending measurement, and returns the setting now in
    /// force. This is the resilience-guard override path (watchdog holds,
    /// divergence fallback, restart resets); normal adjustment goes
    /// through [`SmartConf::set_perf`]/[`SmartConf::conf`].
    pub fn force_setting(&mut self, value: f64) -> f64 {
        self.pending = None;
        self.controller.set_current(value);
        self.controller.current()
    }

    /// The underlying controller (for inspection and experiments).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the underlying controller (used by the runtime
    /// control plane for interaction splitting and re-synthesis).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// Whether the controller reports the goal as unreachable (§4.3).
    pub fn goal_unreachable(&self) -> bool {
        self.controller.goal_unreachable()
    }
}

/// An indirectly-acting SmartConf configuration: the configuration bounds
/// a deputy variable that is what actually affects performance (paper
/// Figure 4, §5.3).
///
/// The controller acts on the deputy; `set_perf` therefore also takes the
/// deputy's current value, and the transducer maps the controller-desired
/// deputy value back into the configuration.
///
/// # Example
///
/// ```
/// use smartconf_core::{Controller, Goal, Hardness, SmartConfIndirect};
///
/// // queue.size (deputy) drives memory; max.queue.size (conf) bounds it.
/// let goal = Goal::new("memory_mb", 495.0).with_hardness(Hardness::Hard)?;
/// let controller = Controller::new(2.0, 0.0, goal, 0.1, (0.0, 1000.0), 0.0)?;
/// let mut conf = SmartConfIndirect::new("max.queue.size", controller);
///
/// // Memory at 300 MB while 80 requests sit in the queue:
/// conf.set_perf(300.0, 80.0);
/// let max_queue = conf.conf();
/// assert!(max_queue > 80.0); // headroom: allow the queue to grow
/// # Ok::<(), smartconf_core::Error>(())
/// ```
#[derive(Debug)]
pub struct SmartConfIndirect {
    name: String,
    controller: Controller,
    transducer: Box<dyn Transducer>,
    pending: Option<(f64, f64)>,
    last_conf: f64,
    capture: Option<ProfilingCapture>,
}

impl SmartConfIndirect {
    /// Wraps a controller with the default identity transducer ("if we
    /// want the queue.size to drop to K, we drop max.queue.size to K").
    pub fn new(name: impl Into<String>, controller: Controller) -> Self {
        Self::with_transducer(name, controller, Box::new(IdentityTransducer))
    }

    /// Wraps a controller with a custom transducer.
    pub fn with_transducer(
        name: impl Into<String>,
        controller: Controller,
        transducer: Box<dyn Transducer>,
    ) -> Self {
        let last_conf = transducer.transduce(controller.current());
        SmartConfIndirect {
            name: name.into(),
            controller,
            transducer,
            pending: None,
            last_conf,
            capture: None,
        }
    }

    /// Enables run-time profiling capture (paper §5.5): every subsequent
    /// [`SmartConfIndirect::set_perf`] also records `(deputy, actual)`.
    pub fn enable_profiling(&mut self, capture: ProfilingCapture) {
        self.capture = Some(capture);
    }

    /// Configuration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feeds the latest performance measurement *and* the deputy's current
    /// value (paper Figure 4's two-argument `setPerf`).
    pub fn set_perf(&mut self, actual: f64, deputy: f64) {
        if let Some(capture) = &mut self.capture {
            capture.record(deputy, actual);
        }
        self.pending = Some((actual, deputy));
    }

    /// Computes and returns the adjusted configuration value.
    ///
    /// Internally: replace the controller state with the *observed* deputy
    /// value, step on the measurement to get the desired next deputy
    /// value, then transduce it into the configuration (§5.3).
    pub fn conf(&mut self) -> f64 {
        if let Some((measured, deputy)) = self.pending.take() {
            self.controller.set_current(deputy);
            let desired_deputy = self.controller.step(measured);
            self.last_conf = self.transducer.transduce(desired_deputy);
        }
        self.last_conf
    }

    /// Like [`SmartConfIndirect::conf`] but rounded to the nearest
    /// integer.
    pub fn conf_rounded(&mut self) -> i64 {
        self.conf().round() as i64
    }

    /// Updates the performance goal at run time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGoal`](crate::Error::InvalidGoal) if the
    /// target is not finite.
    pub fn set_goal(&mut self, goal: f64) -> Result<()> {
        self.controller.set_goal(goal)
    }

    /// Forces the controller's deputy target to `value` (clamped into
    /// bounds), discarding any pending measurement, and returns the
    /// transduced configuration now in force — the resilience-guard
    /// override path.
    pub fn force_setting(&mut self, value: f64) -> f64 {
        self.pending = None;
        self.controller.set_current(value);
        self.last_conf = self.transducer.transduce(self.controller.current());
        self.last_conf
    }

    /// Maps a controller-space (deputy) value through the transducer
    /// without touching controller state — used by the runtime to compute
    /// what configuration a lagged actuation still holds in force.
    pub fn transduce(&self, desired_deputy: f64) -> f64 {
        self.transducer.transduce(desired_deputy)
    }

    /// The underlying controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the underlying controller (used by the runtime
    /// control plane for interaction splitting and re-synthesis).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// Whether the controller reports the goal as unreachable.
    pub fn goal_unreachable(&self) -> bool {
        self.controller.goal_unreachable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnTransducer, Goal, Hardness};

    fn controller(alpha: f64, target: f64, bounds: (f64, f64), initial: f64) -> Controller {
        Controller::new(alpha, 0.0, Goal::new("m", target), 0.0, bounds, initial).unwrap()
    }

    #[test]
    fn direct_conf_steps_once_per_measurement() {
        let mut sc = SmartConf::new("c", controller(1.0, 100.0, (0.0, 1e6), 0.0));
        sc.set_perf(0.0);
        assert_eq!(sc.conf(), 100.0);
        // No new measurement: same answer, no double-integration.
        assert_eq!(sc.conf(), 100.0);
        assert_eq!(sc.conf_rounded(), 100);
        sc.set_perf(100.0);
        assert_eq!(sc.conf(), 100.0); // converged
    }

    #[test]
    fn direct_conf_before_any_measurement_returns_initial() {
        let mut sc = SmartConf::new("c", controller(1.0, 100.0, (0.0, 1e6), 42.0));
        assert_eq!(sc.conf(), 42.0);
    }

    #[test]
    fn set_goal_redirects() {
        let mut sc = SmartConf::new("c", controller(1.0, 100.0, (0.0, 1e6), 0.0));
        sc.set_goal(50.0).unwrap();
        sc.set_perf(0.0);
        assert_eq!(sc.conf(), 50.0);
        assert!(sc.set_goal(f64::NAN).is_err());
        assert_eq!(sc.name(), "c");
    }

    #[test]
    fn indirect_uses_observed_deputy() {
        let mut sc = SmartConfIndirect::new("max.q", controller(1.0, 100.0, (0.0, 1e6), 0.0));
        // Deputy is at 30, metric at 30 (plant: perf == deputy here).
        sc.set_perf(30.0, 30.0);
        // Desired deputy: 30 + (100-30)/1 = 100.
        assert_eq!(sc.conf(), 100.0);
        // Deputy overshot its old bound (temporary inconsistency, §4.2):
        // controller works from the observed 120, not from its own 100.
        sc.set_perf(120.0, 120.0);
        assert_eq!(sc.conf(), 100.0); // 120 + (100-120) = 100
    }

    #[test]
    fn indirect_repeated_conf_is_stable() {
        let mut sc = SmartConfIndirect::new("max.q", controller(1.0, 100.0, (0.0, 1e6), 7.0));
        assert_eq!(sc.conf(), 7.0); // initial, before any measurement
        sc.set_perf(50.0, 20.0);
        let first = sc.conf();
        assert_eq!(sc.conf(), first);
        assert_eq!(sc.conf_rounded(), first.round() as i64);
    }

    #[test]
    fn indirect_with_custom_transducer() {
        let ctl = controller(1.0, 100.0, (0.0, 1e6), 0.0);
        let mut sc = SmartConfIndirect::with_transducer(
            "max.q.bytes",
            ctl,
            Box::new(FnTransducer::new(|entries: f64| entries * 1024.0)),
        );
        sc.set_perf(0.0, 0.0);
        assert_eq!(sc.conf(), 100.0 * 1024.0);
        assert_eq!(sc.name(), "max.q.bytes");
    }

    #[test]
    fn indirect_hard_goal_drops_bound_fast_in_danger() {
        let goal = Goal::new("mem", 100.0)
            .with_hardness(Hardness::Hard)
            .unwrap();
        let ctl = Controller::new(1.0, 0.9, goal, 0.1, (0.0, 1000.0), 0.0).unwrap();
        let mut sc = SmartConfIndirect::new("max.q", ctl);
        // Beyond virtual goal (90): full-strength correction.
        sc.set_perf(95.0, 60.0);
        let conf = sc.conf();
        assert!((conf - 55.0).abs() < 1e-9, "conf {conf}"); // 60 + (90-95)
        assert_eq!(sc.controller().last_pole_used(), 0.0);
    }

    #[test]
    fn unreachable_goal_reported() {
        // Plant s = c + 500 with goal <= 100: violated even at setting 0.
        let mut sc = SmartConf::new("c", controller(1.0, 100.0, (0.0, 10.0), 10.0));
        for _ in 0..10 {
            let measured = sc.controller().current() + 500.0;
            sc.set_perf(measured);
            let setting = sc.conf();
            assert!(setting <= 10.0);
        }
        assert!(sc.goal_unreachable());
    }

    #[test]
    fn profiling_capture_records_setting_and_deputy() {
        let dir = std::env::temp_dir().join(format!("sc-conf-capture-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut direct = SmartConf::new("d", controller(1.0, 100.0, (0.0, 1e6), 0.0));
        direct.enable_profiling(ProfilingCapture::new(&dir, "d", 100));
        let mut indirect = SmartConfIndirect::new("i", controller(1.0, 100.0, (0.0, 1e6), 0.0));
        indirect.enable_profiling(ProfilingCapture::new(&dir, "i", 100));
        for actual in [40.0, 70.0] {
            direct.set_perf(actual);
            direct.conf();
        }
        for (actual, deputy) in [(30.0, 20.0), (90.0, 70.0)] {
            indirect.set_perf(actual, deputy);
            indirect.conf();
        }
        drop((direct, indirect)); // the captures flush on drop

        let samples = |name| -> Vec<(f64, f64)> {
            let profile = ProfilingCapture::load(&dir, name).unwrap();
            profile
                .points()
                .iter()
                .map(|p| (p.setting, p.perf))
                .collect()
        };
        // Direct: the setting in force when each reading arrived
        // (0, then 0 + (100 - 40) = 60).
        assert_eq!(samples("d"), vec![(0.0, 40.0), (60.0, 70.0)]);
        // Indirect: the observed deputy, not the controller's setting.
        assert_eq!(samples("i"), vec![(20.0, 30.0), (70.0, 90.0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
