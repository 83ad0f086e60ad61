//! The control plane: one canonical sense→decide→actuate loop.
//!
//! [`ControlPlane::decide`] is the one decide path. Without chaos it
//! steps the channel's decider on the reading; with chaos armed
//! ([`ControlPlane::enable_chaos`]) it evaluates the channel's faults
//! and hands the reading to the channel's guard, whose ladder (see
//! [`crate::guard`]) steps or overrides the controller. Either way it
//! logs one [`EpochEvent`].

use smartconf_core::{Hardness, Result, SmartConf, SmartConfIndirect};

use crate::fault::{FaultInjector, FaultSet};
use crate::guard::{ChannelGuard, ChaosSpec, GuardPolicy, GuardSet};
use crate::{ChannelId, EpochEvent, EpochLog, Sensed};

/// How one channel turns a sensor reading into a setting.
///
/// Static baselines and SmartConf controllers flow through the same
/// epoch path, which is what makes comparison runs a single code path.
#[derive(Debug)]
pub enum Decider {
    /// A fixed setting (the static baselines of Figure 5).
    Static(f64),
    /// A directly-acting SmartConf configuration (paper Figure 3).
    Direct(Box<SmartConf>),
    /// An indirectly-acting configuration bounding a deputy variable
    /// (paper Figure 4, §5.3). Requires [`Sensed::deputy`].
    Deputy(Box<SmartConfIndirect>),
}

impl Decider {
    /// The current setting, without consuming a measurement.
    pub fn setting(&mut self) -> f64 {
        match self {
            Decider::Static(v) => *v,
            Decider::Direct(sc) => sc.conf(),
            Decider::Deputy(sc) => sc.conf(),
        }
    }

    /// Whether this channel carries a live controller (vs. a static
    /// baseline).
    pub fn is_smart(&self) -> bool {
        !matches!(self, Decider::Static(_))
    }

    pub(crate) fn controller(&self) -> Option<&smartconf_core::Controller> {
        match self {
            Decider::Static(_) => None,
            Decider::Direct(sc) => Some(sc.controller()),
            Decider::Deputy(sc) => Some(sc.controller()),
        }
    }

    pub(crate) fn controller_mut(&mut self) -> Option<&mut smartconf_core::Controller> {
        match self {
            Decider::Static(_) => None,
            Decider::Direct(sc) => Some(sc.controller_mut()),
            Decider::Deputy(sc) => Some(sc.controller_mut()),
        }
    }

    /// Forces the controller to a controller-space setting (guard
    /// override path); no-op for static channels. Returns the resulting
    /// output-space configuration.
    pub(crate) fn force(&mut self, value: f64) -> f64 {
        match self {
            Decider::Static(v) => *v,
            Decider::Direct(sc) => sc.force_setting(value),
            Decider::Deputy(sc) => sc.force_setting(value),
        }
    }

    /// Maps a controller-space value into output (configuration) space
    /// without touching controller state.
    pub(crate) fn transduce(&self, value: f64) -> f64 {
        match self {
            Decider::Static(v) => *v,
            Decider::Deputy(sc) => sc.transduce(value),
            Decider::Direct(_) => value,
        }
    }

    /// The normal measurement-driven step (set_perf + conf), taken by
    /// clean epochs and by guarded epochs with an admitted reading.
    /// Keyed by [`ChannelId`] so the steady-state epoch loop never
    /// touches the channel's name string.
    pub(crate) fn step_measurement(
        &mut self,
        id: ChannelId,
        measured: f64,
        deputy: Option<f64>,
    ) -> f64 {
        match self {
            Decider::Static(v) => *v,
            Decider::Direct(sc) => {
                sc.set_perf(measured);
                sc.conf()
            }
            Decider::Deputy(sc) => {
                let deputy = deputy.unwrap_or_else(|| {
                    panic!(
                        "channel {} is deputy-driven; Sensed::deputy is required",
                        id.0
                    )
                });
                sc.set_perf(measured, deputy);
                sc.conf()
            }
        }
    }
}

/// The armed chaos machinery: one injector plus per-channel guards.
#[derive(Debug)]
struct ChaosState {
    injector: FaultInjector,
    policy: GuardPolicy,
    guards: Vec<ChannelGuard>,
}

/// The sensing period assigned to channels declared without an explicit
/// one ([`ControlPlaneBuilder::channel`]): one second. Channels that need
/// their own cadence under [`EventPlane`](crate::EventPlane) declare it
/// via [`ControlPlaneBuilder::channel_with_period`].
pub const DEFAULT_PERIOD_US: u64 = 1_000_000;

/// One named control channel.
#[derive(Debug)]
struct Channel {
    name: String,
    decider: Decider,
    epochs: u64,
    /// Sensing period of this channel, microseconds: the event kernel
    /// ([`EventPlane`](crate::EventPlane)) schedules one Sense event per
    /// period, so the channel's guard epoch counts age in it. Plants that
    /// call [`ControlPlane::decide`] at their own use sites ignore it.
    period_us: u64,
}

/// Builds a [`ControlPlane`], handing out [`ChannelId`]s as channels are
/// declared.
#[derive(Debug, Default)]
pub struct ControlPlaneBuilder {
    channels: Vec<Channel>,
}

impl ControlPlaneBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a channel; the returned id is how the plant and the
    /// epoch calls refer to it. The channel senses on the uniform
    /// [`DEFAULT_PERIOD_US`] quantum.
    pub fn channel(&mut self, name: impl Into<String>, decider: Decider) -> ChannelId {
        self.channel_with_period(name, decider, DEFAULT_PERIOD_US)
    }

    /// Declares a channel with its own sensing period in microseconds
    /// (clamped ≥ 1). Under the event kernel
    /// ([`EventPlane`](crate::EventPlane)) the channel senses once per
    /// period; a plant that calls [`ControlPlane::decide`] at its own use
    /// sites decides there and never consults the period.
    pub fn channel_with_period(
        &mut self,
        name: impl Into<String>,
        decider: Decider,
        period_us: u64,
    ) -> ChannelId {
        self.channels.push(Channel {
            name: name.into(),
            decider,
            epochs: 0,
            period_us: period_us.max(1),
        });
        ChannelId(self.channels.len() - 1)
    }

    /// Finishes the plane. Channels whose controllers share a super-hard
    /// goal metric are coordinated automatically: each one's error share
    /// is split by the interaction count N (paper §5.4), so the group
    /// jointly closes the error without overshooting.
    pub fn build(mut self) -> ControlPlane {
        // Count controllers per super-hard goal metric...
        let mut groups: Vec<(String, u32)> = Vec::new();
        for ch in &self.channels {
            if let Some(ctl) = ch.decider.controller() {
                if ctl.goal().hardness() == Hardness::SuperHard {
                    let metric = ctl.goal().metric().to_string();
                    match groups.iter_mut().find(|(m, _)| *m == metric) {
                        Some((_, n)) => *n += 1,
                        None => groups.push((metric, 1)),
                    }
                }
            }
        }
        // ...and split each group's correction N ways.
        for ch in &mut self.channels {
            if let Some(ctl) = ch.decider.controller_mut() {
                let metric = ctl.goal().metric();
                if let Some((_, n)) = groups.iter().find(|(m, _)| m == metric) {
                    ctl.set_interaction(*n)
                        .expect("interaction count is at least 1");
                }
            }
        }
        let names = self.channels.iter().map(|c| c.name.clone()).collect();
        ControlPlane {
            channels: self.channels,
            log: EpochLog::new(names),
            chaos: None,
        }
    }
}

/// Decides one or more controllers' settings for a
/// [`Plant`](crate::Plant) and records every decision as an
/// [`EpochEvent`]. [`EventPlane`](crate::EventPlane) schedules the
/// decisions on the calendar; plants with their own event loop call
/// [`ControlPlane::decide`] at their decision sites.
///
/// # Example
///
/// ```
/// use smartconf_core::{Controller, Goal, SmartConf};
/// use smartconf_runtime::{ChannelId, ControlPlane, Decider, EventPlane, Plant, Sensed};
///
/// // Plant: metric = 2 × setting. Goal: metric == 400.
/// struct Linear { setting: f64 }
/// impl Plant for Linear {
///     fn now_us(&self) -> u64 { 0 } // the kernel owns the clock
///     fn sense(&mut self, _: ChannelId) -> Sensed { Sensed::direct(2.0 * self.setting) }
///     fn apply(&mut self, _: ChannelId, setting: f64) { self.setting = setting; }
/// }
///
/// let ctl = Controller::new(2.0, 0.0, Goal::new("m", 400.0), 0.0, (0.0, 1e6), 0.0)?;
/// let mut builder = ControlPlane::builder();
/// builder.channel("cache.size", Decider::Direct(Box::new(SmartConf::new("cache.size", ctl))));
/// let mut events = EventPlane::new(builder.build(), Linear { setting: 0.0 });
/// events.run_until_us(50_000_000); // one epoch per default 1 s period
/// assert!((2.0 * events.plant().setting - 400.0).abs() < 1.0);
/// assert_eq!(events.plane().log().events_for("cache.size").count(), 50);
/// # Ok::<(), smartconf_core::Error>(())
/// ```
#[derive(Debug)]
pub struct ControlPlane {
    channels: Vec<Channel>,
    log: EpochLog,
    chaos: Option<Box<ChaosState>>,
}

impl ControlPlane {
    /// Starts declaring channels.
    pub fn builder() -> ControlPlaneBuilder {
        ControlPlaneBuilder::new()
    }

    /// A plane with a single channel (the common case); returns the
    /// plane with the channel at id 0.
    pub fn single(name: impl Into<String>, decider: Decider) -> (ControlPlane, ChannelId) {
        let mut b = ControlPlaneBuilder::new();
        let id = b.channel(name, decider);
        (b.build(), id)
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The sensing period of a channel, microseconds.
    pub(crate) fn period_us(&self, id: ChannelId) -> u64 {
        self.channels[id.0].period_us
    }

    /// The decide half of an epoch: feeds the measurement, logs the
    /// [`EpochEvent`], returns the new setting — without touching the
    /// plant. Useful when the actuation site already holds the sensor
    /// values.
    pub fn decide(&mut self, id: ChannelId, t_us: u64, sensed: impl Into<Sensed>) -> f64 {
        let sensed = sensed.into();
        let ch = &mut self.channels[id.0];
        let epoch = ch.epochs;
        let (setting, measured, faults, guards) = match &mut self.chaos {
            Some(chaos) => {
                let active = chaos.injector.at(id.0 as u32, epoch);
                let (setting, measured, guards) = chaos.guards[id.0].step(
                    &chaos.policy,
                    &mut ch.decider,
                    id,
                    epoch,
                    active,
                    sensed,
                );
                (setting, measured, active.set, guards)
            }
            None => (
                ch.decider
                    .step_measurement(id, sensed.measured, sensed.deputy),
                sensed.measured,
                FaultSet::default(),
                GuardSet::default(),
            ),
        };
        let (target, pole, saturated) = match ch.decider.controller() {
            Some(ctl) => {
                let (lo, hi) = ctl.bounds();
                (
                    ctl.effective_target(),
                    ctl.last_pole_used(),
                    ctl.current() <= lo || ctl.current() >= hi,
                )
            }
            None => (f64::NAN, f64::NAN, false),
        };
        self.log.push(EpochEvent {
            epoch,
            t_us,
            channel: id.0 as u32,
            setting,
            measured,
            target,
            error: target - measured,
            pole,
            saturated,
            faults,
            guards,
        });
        ch.epochs += 1;
        setting
    }

    /// Arms chaos mode: subsequent [`ControlPlane::decide`] calls run the
    /// fault-injection and guard stages. Per-channel fallbacks come from
    /// the spec's [`GuardPolicy`]; channels without a declared fallback
    /// fall back to their current (initial) setting.
    pub fn enable_chaos(&mut self, spec: ChaosSpec) {
        let guards = self
            .channels
            .iter()
            .map(|ch| ChannelGuard::for_channel(&spec.guard, &ch.name, &ch.decider))
            .collect();
        self.chaos = Some(Box::new(ChaosState {
            injector: FaultInjector::new(spec.seed, spec.plan),
            policy: spec.guard,
            guards,
        }));
    }

    /// Consumes the channel's pending plant-restart notification
    /// ([`EventPlane`](crate::EventPlane) polls this to call
    /// [`Plant::restart`](crate::Plant::restart); plants that call
    /// [`ControlPlane::decide`] directly poll it themselves).
    pub fn take_plant_restart(&mut self, id: ChannelId) -> bool {
        self.chaos
            .as_mut()
            .is_some_and(|c| c.guards[id.0].take_restart())
    }

    /// Consumes the channel's pending shed notification: `true` when a
    /// degraded channel (watchdog revert or fallback hold) wants the
    /// plant to trim already-admitted work to the in-force bound
    /// ([`EventPlane`](crate::EventPlane) polls this to call
    /// [`Plant::shed`](crate::Plant::shed); plants that call
    /// [`ControlPlane::decide`] directly poll it themselves). The admission filter alone only bounds what
    /// the controller admits *next*: work that entered a queue under a
    /// doomed setting stays there, which is how TWIN/HB2149 could
    /// violate a hard goal under chaos.
    pub fn take_plant_shed(&mut self, id: ChannelId) -> bool {
        self.chaos
            .as_mut()
            .is_some_and(|c| c.guards[id.0].take_shed())
    }

    /// The current setting of a channel (no measurement consumed).
    pub fn setting(&mut self, id: ChannelId) -> f64 {
        self.channels[id.0].decider.setting()
    }

    /// Redirects a channel's goal at run time (paper's `setGoal`).
    /// No-op on static channels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGoal`](smartconf_core::Error::InvalidGoal)
    /// if the target is not finite.
    pub fn set_goal(&mut self, id: ChannelId, target: f64) -> Result<()> {
        if target.is_finite() {
            if let Some(chaos) = &mut self.chaos {
                chaos.guards[id.0].retarget(&chaos.policy, target);
            }
        }
        match self.channels[id.0].decider.controller_mut() {
            Some(ctl) => ctl.set_goal(target),
            None => Ok(()),
        }
    }

    /// Overrides a channel's interaction count (Figure 8's N ablation).
    /// No-op on static channels.
    ///
    /// # Errors
    ///
    /// Returns an error if `n` is zero.
    pub fn set_interaction(&mut self, id: ChannelId, n: u32) -> Result<()> {
        match self.channels[id.0].decider.controller_mut() {
            Some(ctl) => ctl.set_interaction(n),
            None => Ok(()),
        }
    }

    /// Whether a channel's controller reports its goal as unreachable
    /// (§4.3 alert). Always `false` for static channels.
    pub fn goal_unreachable(&self, id: ChannelId) -> bool {
        self.channels[id.0]
            .decider
            .controller()
            .is_some_and(|c| c.goal_unreachable())
    }

    /// The channel's decider (for controller inspection).
    pub fn decider(&self, id: ChannelId) -> &Decider {
        &self.channels[id.0].decider
    }

    /// The per-epoch event log so far.
    pub fn log(&self) -> &EpochLog {
        &self.log
    }

    /// Consumes the plane, returning the event log (attached to the
    /// scenario's run result by the harness).
    pub fn into_log(self) -> EpochLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Plant;
    use smartconf_core::{Controller, Goal};

    fn controller(alpha: f64, target: f64, hardness: Hardness, bounds: (f64, f64)) -> Controller {
        let goal = Goal::new("m", target).with_hardness(hardness).unwrap();
        Controller::new(alpha, 0.0, goal, 0.1, bounds, 0.0).unwrap()
    }

    /// metric = gain · setting, with per-channel settings.
    struct LinearPlant {
        gain: f64,
        settings: Vec<f64>,
    }

    impl Plant for LinearPlant {
        fn now_us(&self) -> u64 {
            0 // the kernel owns the clock
        }
        fn sense(&mut self, chan: ChannelId) -> Sensed {
            let total: f64 = self.settings.iter().sum();
            Sensed::with_deputy(self.gain * total, self.settings[chan.index()])
        }
        fn apply(&mut self, chan: ChannelId, setting: f64) {
            self.settings[chan.index()] = setting;
        }
    }

    #[test]
    fn static_and_smart_share_the_epoch_path() {
        let sc = SmartConf::new("c", controller(1.0, 80.0, Hardness::Soft, (0.0, 1e6)));
        let mut b = ControlPlane::builder();
        let smart = b.channel("c", Decider::Direct(Box::new(sc)));
        let fixed = b.channel("c.static", Decider::Static(30.0));
        let mut plane = b.build();

        let s = plane.decide(smart, 0, 10.0);
        assert_eq!(s, 70.0); // 0 + (80 − 10)/1
        let f = plane.decide(fixed, 0, 10.0);
        assert_eq!(f, 30.0);

        let log = plane.log();
        assert_eq!(log.len(), 2);
        let smart_ev = log.events_for("c").next().unwrap();
        assert_eq!(smart_ev.setting, 70.0);
        assert_eq!(smart_ev.measured, 10.0);
        assert_eq!(smart_ev.error, 70.0);
        assert!(!smart_ev.saturated);
        let static_ev = log.events_for("c.static").next().unwrap();
        assert!(static_ev.pole.is_nan());
        assert!(static_ev.error.is_nan());
    }

    #[test]
    fn run_drives_plant_to_goal_and_logs_epochs() {
        let sc = SmartConf::new("c", controller(2.0, 400.0, Hardness::Soft, (0.0, 1e6)));
        let (plane, id) = ControlPlane::single("c", Decider::Direct(Box::new(sc)));
        let plant = LinearPlant {
            gain: 2.0,
            settings: vec![0.0],
        };
        let mut events = crate::EventPlane::new(plane, plant);
        events.run_until_us(100_000_000);
        let (mut plane, plant) = events.into_parts();
        assert!((2.0 * plant.settings[0] - 400.0).abs() < 1.0);
        assert_eq!(plane.log().events_for("c").count(), 100);
        assert_eq!(plane.setting(id), plant.settings[0]);
        assert!(!plane.goal_unreachable(id));
    }

    #[test]
    fn super_hard_goal_split_is_automatic() {
        let mk = || {
            let sc = SmartConfIndirect::new(
                "q",
                controller(1.0, 300.0, Hardness::SuperHard, (0.0, 1e9)),
            );
            Decider::Deputy(Box::new(sc))
        };
        let mut b = ControlPlane::builder();
        let a = b.channel("qa", mk());
        let c = b.channel("qb", mk());
        let mut plane = b.build();

        // Both channels see the shared metric; each must take half the
        // correction (N = 2), so the joint total never overshoots. With
        // λ = 0.1 the super-hard goal tracks its virtual target 270.
        let mut settings = [0.0f64, 0.0];
        for step in 0..200u64 {
            let total = settings[0] + settings[1];
            assert!(total <= 300.0 + 1e-9, "joint overshoot {total}");
            settings[0] = plane.decide(a, step, Sensed::with_deputy(total, settings[0]));
            settings[1] = plane.decide(c, step, Sensed::with_deputy(total, settings[1]));
        }
        let total = settings[0] + settings[1];
        assert!((total - 270.0).abs() < 15.0, "total {total}");

        // The Figure 8 ablation can force N = 1 back on.
        plane.set_interaction(a, 1).unwrap();
        plane.set_interaction(c, 1).unwrap();
    }

    #[test]
    fn saturation_is_logged() {
        // Plant m = setting + 500 with goal m ≤ 100: even at the lower
        // bound the goal is violated, so the controller pins there and
        // reports the goal unreachable after the §4.3 streak.
        let sc = SmartConf::new("c", controller(1.0, 100.0, Hardness::Soft, (0.0, 10.0)));
        let (mut plane, id) = ControlPlane::single("c", Decider::Direct(Box::new(sc)));
        let mut setting = 10.0;
        for step in 0..10u64 {
            setting = plane.decide(id, step, setting + 500.0);
        }
        assert_eq!(setting, 0.0);
        let summary = plane.log().summary("c").unwrap();
        assert!(2 * summary.saturated > summary.epochs);
        assert!(plane.goal_unreachable(id));
    }

    #[test]
    fn goal_change_retargets_channel() {
        let sc = SmartConf::new("c", controller(1.0, 100.0, Hardness::Soft, (0.0, 1e6)));
        let (mut plane, id) = ControlPlane::single("c", Decider::Direct(Box::new(sc)));
        plane.set_goal(id, 40.0).unwrap();
        assert_eq!(plane.decide(id, 0, 0.0), 40.0);
        assert!(plane.set_goal(id, f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "deputy-driven")]
    fn deputy_channel_requires_deputy() {
        let sc = SmartConfIndirect::new("q", controller(1.0, 100.0, Hardness::Hard, (0.0, 1e6)));
        let (mut plane, id) = ControlPlane::single("q", Decider::Deputy(Box::new(sc)));
        let _ = plane.decide(id, 0, 10.0);
    }

    #[test]
    fn channel_lookup_by_name() {
        let (plane, id) = ControlPlane::single("a.b.c", Decider::Static(1.0));
        assert_eq!(plane.log().channel_index("a.b.c"), Some(id.0));
        assert_eq!(plane.log().channel_index("nope"), None);
        assert_eq!(plane.channel_count(), 1);
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultWindow};
    use crate::guard::{
        ADAPTIVE_CONFIDENCE_FLOOR, CAMPAIGN_VOTE_WINDOW, COOLDOWN_EPOCHS, STALE_EPOCHS,
        WATCHDOG_EPOCHS,
    };
    use smartconf_core::{ControllerBuilder, GainModel, Goal, ModelMode};

    /// A chaos-armed plane with one direct channel "c": gain 1, pole
    /// 0.5, λ 0.1 over `[0, 1000]` from 50 under the hard goal
    /// `m ≤ 100`, on a `mode` model.
    fn chaos_plane_on(
        mode: ModelMode,
        plan: FaultPlan,
        guard: GuardPolicy,
    ) -> (ControlPlane, ChannelId) {
        let goal = Goal::new("m", 100.0).with_hardness(Hardness::Hard).unwrap();
        let ctl = ControllerBuilder::new(goal)
            .alpha(1.0)
            .pole(0.5)
            .lambda(0.1)
            .bounds(0.0, 1000.0)
            .initial(50.0)
            .model_mode(mode)
            .build()
            .unwrap();
        let sc = SmartConf::new("c", ctl);
        let (mut plane, id) = ControlPlane::single("c", Decider::Direct(Box::new(sc)));
        plane.enable_chaos(ChaosSpec::new(7, plan, guard));
        (plane, id)
    }

    fn chaos_plane(plan: FaultPlan, guard: GuardPolicy) -> (ControlPlane, ChannelId) {
        chaos_plane_on(ModelMode::Frozen, plan, guard)
    }

    /// Channel "c"'s estimator.
    fn model(plane: &ControlPlane) -> GainModel {
        *plane.decider(ChannelId(0)).controller().unwrap().model()
    }

    fn guard_bits(plane: &ControlPlane, epoch: u64) -> GuardSet {
        plane
            .log()
            .events_for("c")
            .find(|e| e.epoch == epoch)
            .map(|e| e.guards)
            .unwrap()
    }

    #[test]
    fn clean_plan_means_dormant_guards() {
        let (mut plane, id) = chaos_plane(FaultPlan::new(), GuardPolicy::new());
        // Closed loop: m = setting, converging to the virtual target 90.
        let mut setting = 50.0;
        for step in 0..50u64 {
            setting = plane.decide(id, step, setting);
        }
        let s = plane.log().summary("c").unwrap();
        assert_eq!(s.faults_injected, 0);
        assert_eq!(s.guard_activations, 0);
        assert_eq!(s.fallback_epochs, 0);
        assert!((setting - 90.0).abs() < 1.0);
    }

    #[test]
    fn dropout_holds_then_watchdog_reverts() {
        let plan = FaultPlan::new().window(FaultWindow::new(FaultKind::SensorDropout, 5, u64::MAX));
        // A fallback at the top of the range, so the shed clamp leaves
        // the revert to the last healthy setting visible.
        let guard = GuardPolicy::new().fallback_setting("c", 1000.0);
        let (mut plane, id) = chaos_plane(plan, guard);
        let mut last_healthy = 0.0;
        for step in 0..5 + WATCHDOG_EPOCHS + 3 {
            // Vary the reading so natural repeats never accumulate.
            let s = plane.decide(id, step, 40.0 + step as f64);
            if step == 4 {
                last_healthy = s;
            }
        }
        // Missing epochs hold, then the watchdog reverts to the last
        // healthy setting and pins there.
        assert!(guard_bits(&plane, 5).contains(GuardSet::MISSED));
        let first_revert = 5 + WATCHDOG_EPOCHS - 1;
        assert!(!guard_bits(&plane, first_revert - 1).contains(GuardSet::WATCHDOG));
        let wd = guard_bits(&plane, first_revert);
        assert!(wd.contains(GuardSet::WATCHDOG));
        let last = plane.log().last_setting("c").unwrap();
        assert_eq!(last, last_healthy);
    }

    #[test]
    fn nan_and_spike_readings_are_rejected() {
        let plan = FaultPlan::new()
            .window(FaultWindow::new(FaultKind::SensorNan, 6, 7))
            .window(FaultWindow::new(
                FaultKind::SensorSpike { factor: 50.0 },
                8,
                9,
            ));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new());
        let mut settings = Vec::new();
        for step in 0..10u64 {
            // Vary the reading so natural repeats never accumulate.
            settings.push(plane.decide(id, step, 40.0 + step as f64));
        }
        for bad in [6usize, 8] {
            let bits = guard_bits(&plane, bad as u64);
            assert!(bits.contains(GuardSet::REJECTED), "epoch {bad}");
            // The rejected reading never moved the controller: the
            // setting holds at the previous epoch's decision.
            assert_eq!(settings[bad], settings[bad - 1]);
        }
        // Clean epochs in between are unaffected.
        assert!(guard_bits(&plane, 7).is_empty());
    }

    #[test]
    fn stale_repeats_trigger_hold_only_when_off_target() {
        let plan = FaultPlan::new().window(FaultWindow::new(FaultKind::SensorStale, 3, u64::MAX));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new());
        for step in 0..STALE_EPOCHS + 6 {
            // Fresh readings vary; from epoch 3 the injected staleness
            // freezes the delivered value far from the 90 target.
            plane.decide(id, step, 30.0 + step as f64);
        }
        // The repeat run starts at the fault window; the hold engages
        // once it reaches the repeat threshold, not immediately.
        assert!(!guard_bits(&plane, 3).contains(GuardSet::STALE_HOLD));
        assert!(guard_bits(&plane, 3 + STALE_EPOCHS).contains(GuardSet::STALE_HOLD));
    }

    #[test]
    fn quantized_on_target_repeats_do_not_false_trigger() {
        // No faults at all: the plant legitimately repeats a quantized
        // reading near the target (HD4995's limit×20µs blocks).
        let (mut plane, id) = chaos_plane(FaultPlan::new(), GuardPolicy::new());
        for step in 0..3 * STALE_EPOCHS {
            plane.decide(id, step, 90.0); // exactly the virtual target
        }
        let s = plane.log().summary("c").unwrap();
        assert_eq!(s.guard_activations, 0, "no stale hold on quantized repeats");
    }

    #[test]
    fn saturation_caps_and_back_calculates() {
        let plan = FaultPlan::new().window(FaultWindow::new(
            FaultKind::ActuatorSaturate { frac: 0.1 },
            0,
            u64::MAX,
        ));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new());
        // Measured far below target: the controller keeps growing and
        // soon wants to pass the 10% cap (0 + 0.1×1000 = 100).
        let mut s = 0.0;
        for step in 0..4u64 {
            s = plane.decide(id, step, step as f64);
        }
        assert_eq!(s, 100.0, "applied setting capped at saturation");
        assert!(guard_bits(&plane, 3).contains(GuardSet::ANTI_WINDUP));
        // Back-calculation: the controller's integrator sits at the cap,
        // not at its unconstrained command.
        assert_eq!(plane.decider(id).controller().unwrap().current(), 100.0);
    }

    #[test]
    fn lag_defers_application_by_k_epochs() {
        let plan = FaultPlan::new().window(FaultWindow::new(
            FaultKind::ActuatorLag { epochs: 2 },
            3,
            u64::MAX,
        ));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new());
        let mut applied = Vec::new();
        for step in 0..8u64 {
            // Keep the measurement moving so each decision differs.
            applied.push(plane.decide(id, step, 20.0 + step as f64));
        }
        // At epoch 3 the lag starts: the applied setting freezes at the
        // epoch-2 decision while new commands queue.
        assert_eq!(applied[3], applied[2]);
        assert_eq!(applied[4], applied[2]);
        // By epoch 5 the epoch-3 command matures (2 epochs late).
        assert_ne!(applied[5], applied[2]);
        assert!(guard_bits(&plane, 3).is_empty()); // lag is a fault, not a guard
    }

    #[test]
    fn goal_flap_restores_scenario_target() {
        let plan =
            FaultPlan::new().window(FaultWindow::new(FaultKind::GoalFlap { frac: 0.15 }, 2, 5));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new());
        let target_at = |plane: &ControlPlane, epoch: u64| {
            plane
                .log()
                .events_for("c")
                .find(|e| e.epoch == epoch)
                .unwrap()
                .target
        };
        for step in 0..8u64 {
            plane.decide(id, step, 40.0);
        }
        // λ 0.1: virtual target 90 normally, 85×0.9 = 76.5 while flapped.
        assert_eq!(target_at(&plane, 1), 90.0);
        assert!((target_at(&plane, 3) - 76.5).abs() < 1e-9);
        assert_eq!(target_at(&plane, 6), 90.0);
    }

    #[test]
    fn scenario_set_goal_survives_flap_restore() {
        let plan =
            FaultPlan::new().window(FaultWindow::new(FaultKind::GoalFlap { frac: 0.15 }, 2, 5));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new());
        for step in 0..3u64 {
            plane.decide(id, step, 40.0);
        }
        // Mid-flap, the scenario retargets from 100 to 200.
        plane.set_goal(id, 200.0).unwrap();
        for step in 3..8u64 {
            plane.decide(id, step, 40.0);
        }
        // After the flap window the channel steers to the NEW target's
        // virtual goal (180), not back to the stale 90.
        let last = plane.log().events_for("c").find(|e| e.epoch == 7).unwrap();
        assert_eq!(last.target, 180.0);
    }

    #[test]
    fn restart_resets_controller_and_requests_reprofile() {
        let plan = FaultPlan::new().window(FaultWindow::new(FaultKind::PlantRestart, 4, 5));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new());
        for step in 0..4u64 {
            plane.decide(id, step, 0.0); // drives the setting far from 50
        }
        assert!(!guard_bits(&plane, 3).contains(GuardSet::REPROFILE));
        plane.decide(id, 4, 0.0);
        assert!(guard_bits(&plane, 4).contains(GuardSet::REPROFILE));
        assert!(plane.take_plant_restart(id));
        assert!(!plane.take_plant_restart(id), "notification consumed");
    }

    #[test]
    fn adaptive_restart_relearns_in_place_without_reprofile() {
        // The frozen path's restart recovery logs REPROFILE
        // (`restart_resets_controller_and_requests_reprofile` above);
        // an adaptive channel instead resets its estimator's certainty
        // in place and keeps running — the log must carry RELEARN and
        // never REPROFILE.
        let plan = FaultPlan::new().window(FaultWindow::new(FaultKind::PlantRestart, 4, 5));
        let (mut plane, id) = chaos_plane_on(ModelMode::Adaptive, plan, GuardPolicy::new());
        for step in 0..4u64 {
            plane.decide(id, step, 40.0);
        }
        assert!(
            model(&plane).observations() > 0,
            "estimator learned before the restart"
        );
        plane.decide(id, 4, 0.0);
        let bits = guard_bits(&plane, 4);
        assert!(bits.contains(GuardSet::RELEARN));
        assert!(!bits.contains(GuardSet::REPROFILE));
        assert!(plane.take_plant_restart(id));
        let relearned = model(&plane);
        assert!(matches!(relearned, GainModel::Rls(_)));
        // The restart epoch's own measurement already taught the freshly
        // reset estimator one sample.
        assert!(
            relearned.observations() <= 1,
            "relearn must reset the estimator's observation count, got {}",
            relearned.observations()
        );
        // The channel keeps deciding — and the estimator re-converges —
        // with no profiling pass in between.
        for step in 5..12u64 {
            plane.decide(id, step, 40.0);
        }
        assert!(model(&plane).observations() >= 4);
    }

    #[test]
    fn model_doubt_parks_low_confidence_adaptive_channel_on_fallback() {
        let guard = GuardPolicy::new().fallback_setting("c", 25.0);
        let (mut plane, id) = chaos_plane_on(ModelMode::Adaptive, FaultPlan::new(), guard);
        // Readings swinging far from anything the controller's setting
        // explains crash the estimator's confidence below the floor;
        // they stay under the virtual target, so divergence never fires.
        let mut doubted = None;
        for step in 0..40u64 {
            let measured = if step % 2 == 0 { 80.0 } else { 10.0 };
            plane.decide(id, step, measured);
            if guard_bits(&plane, step).contains(GuardSet::MODEL_DOUBT) {
                doubted = Some(step);
                break;
            }
        }
        let doubted = doubted.expect("model doubt fired");
        let confidence = model(&plane).confidence();
        assert!(
            confidence < ADAPTIVE_CONFIDENCE_FLOOR,
            "confidence {confidence} not collapsed"
        );
        assert!(guard_bits(&plane, doubted).contains(GuardSet::FALLBACK_ENTER));
        assert_eq!(plane.log().last_setting("c"), Some(25.0));
    }

    #[test]
    fn divergence_degrades_to_fallback_and_reengages() {
        let guard = GuardPolicy::new().fallback_setting("c", 25.0);
        let (mut plane, id) = chaos_plane(FaultPlan::new(), guard);
        // Error grows on the violating side of the hard goal for three
        // consecutive epochs (measured beyond the virtual target 90).
        for (step, measured) in [(0u64, 95.0), (1, 105.0), (2, 120.0)] {
            plane.decide(id, step, measured);
        }
        let enter = guard_bits(&plane, 2);
        assert!(enter.contains(GuardSet::FALLBACK_ENTER));
        assert_eq!(plane.log().last_setting("c"), Some(25.0));
        // The fallback holds through the cooldown even as readings recover.
        let until = 2 + COOLDOWN_EPOCHS;
        for step in 3..until {
            // Vary the reading so natural repeats never accumulate.
            let s = plane.decide(id, step, 40.0 + (step % 2) as f64);
            assert_eq!(s, 25.0, "epoch {step} must hold the fallback");
            assert!(guard_bits(&plane, step).contains(GuardSet::FALLBACK));
        }
        // Cooldown over: the controller re-engages.
        let s = plane.decide(id, until, 40.0);
        assert!(guard_bits(&plane, until).contains(GuardSet::REENGAGE));
        assert_ne!(s, 25.0);
        let summary = plane.log().summary("c").unwrap();
        assert_eq!(summary.fallback_epochs, COOLDOWN_EPOCHS);
    }

    #[test]
    fn sensor_voting_feeds_the_controller_through_corruption() {
        // A NaN burst from epoch 6: without voting every burst epoch is
        // MISSED; with voting armed the guard substitutes the median of
        // the recent admitted readings and the controller stays fed.
        let plan = FaultPlan::new().window(FaultWindow::new(FaultKind::SensorNan, 6, 10));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new().sensor_vote());
        for step in 0..12u64 {
            // Vary the reading so natural repeats never accumulate.
            plane.decide(id, step, 40.0 + step as f64);
        }
        for bad in 6u64..10 {
            let bits = guard_bits(&plane, bad);
            assert!(bits.contains(GuardSet::REJECTED), "epoch {bad}");
            assert!(bits.contains(GuardSet::VOTED), "epoch {bad}");
            assert!(
                !bits.contains(GuardSet::MISSED),
                "epoch {bad}: voted epochs are fed, not missed"
            );
        }
        // The controller was fed a finite consensus and kept stepping
        // toward the goal straight through the burst (a missed epoch
        // would have held the previous setting).
        let setting_at = |epoch: u64| {
            plane
                .log()
                .events_for("c")
                .find(|e| e.epoch == epoch)
                .unwrap()
                .setting
        };
        assert_ne!(setting_at(7), setting_at(6));
        assert_ne!(setting_at(8), setting_at(7));
        // The delivered (corrupt) reading still reaches the log raw.
        let ev = plane.log().events_for("c").find(|e| e.epoch == 8).unwrap();
        assert!(ev.measured.is_nan());
    }

    #[test]
    fn voting_with_cold_window_still_goes_missed() {
        // Corruption before the vote window ever warms up: no consensus
        // exists, so the guard falls back to the historical missed path.
        let plan = FaultPlan::new().window(FaultWindow::new(FaultKind::SensorNan, 1, 3));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new().sensor_vote());
        for step in 0..4u64 {
            plane.decide(id, step, 40.0 + step as f64);
        }
        let bits = guard_bits(&plane, 1);
        assert!(bits.contains(GuardSet::REJECTED));
        assert!(bits.contains(GuardSet::MISSED));
        assert!(!bits.contains(GuardSet::VOTED));
    }

    #[test]
    fn voting_is_suspended_through_a_fallback_hold() {
        // Warm the vote window, drive the channel into divergence
        // fallback, then corrupt a reading mid-hold: the pre-entry
        // consensus was flushed at entry and hold epochs never buffer,
        // so the rejection goes missed — a hold actively drains the
        // plant, and a drained-era median must never steer re-engage.
        let warm = CAMPAIGN_VOTE_WINDOW as u64;
        let nan_at = warm + 3;
        let plan =
            FaultPlan::new().window(FaultWindow::new(FaultKind::SensorNan, nan_at, nan_at + 1));
        let guard = GuardPolicy::new().sensor_vote().fallback_setting("c", 25.0);
        let (mut plane, id) = chaos_plane(plan, guard);
        for step in 0..warm {
            plane.decide(id, step, 40.0 + step as f64);
        }
        // Worsening hard-goal violations over the virtual target 90.
        for (i, measured) in [105.0, 110.0, 115.0].into_iter().enumerate() {
            plane.decide(id, warm + i as u64, measured);
        }
        let entered = (0..nan_at).find(|&e| guard_bits(&plane, e).contains(GuardSet::FALLBACK));
        let entered = entered.expect("divergence must enter fallback");
        // The injected NaN lands inside the hold.
        plane.decide(id, nan_at, 50.0);
        let bits = guard_bits(&plane, nan_at);
        assert!(bits.contains(GuardSet::FALLBACK), "still holds");
        assert!(bits.contains(GuardSet::REJECTED), "NaN still rejected");
        assert!(
            bits.contains(GuardSet::MISSED) && !bits.contains(GuardSet::VOTED),
            "hold epochs must not vote (entered at {entered})"
        );
    }

    #[test]
    fn retarget_under_lag_flushes_the_vote_window() {
        // A retarget that meets lagged decisions enters fallback out of
        // band; like every entry it flushes the vote window, so the
        // first corrupted reading after re-engage cannot vote on
        // consensus gathered under the old goal.
        let warm = CAMPAIGN_VOTE_WINDOW as u64 + 2;
        let reengage = warm + COOLDOWN_EPOCHS;
        let plan = FaultPlan::new()
            .window(FaultWindow::new(
                FaultKind::ActuatorLag { epochs: 2 },
                warm - 2,
                warm,
            ))
            .window(FaultWindow::new(
                FaultKind::SensorNan,
                reengage + 1,
                reengage + 2,
            ));
        let guard = GuardPolicy::new().sensor_vote().fallback_setting("c", 25.0);
        let (mut plane, id) = chaos_plane(plan, guard);
        for step in 0..warm {
            plane.decide(id, step, 40.0 + step as f64);
        }
        plane.set_goal(id, 200.0).unwrap();
        for step in warm..=reengage + 1 {
            plane.decide(id, step, 40.0 + step as f64);
        }
        assert!(guard_bits(&plane, warm).contains(GuardSet::FALLBACK));
        assert!(guard_bits(&plane, reengage).contains(GuardSet::REENGAGE));
        let bits = guard_bits(&plane, reengage + 1);
        assert!(bits.contains(GuardSet::REJECTED), "NaN still rejected");
        assert!(
            bits.contains(GuardSet::MISSED) && !bits.contains(GuardSet::VOTED),
            "a retarget's fallback entry must flush the vote window"
        );
    }

    #[test]
    fn repeated_divergence_backs_off_deterministically() {
        // The re-engage backoff ladder in the full decide path. The
        // first divergence dwells the base cooldown, the second dwells
        // double — and a jitter-free schedule means these edges land on
        // exact epochs.
        let mut guard = GuardPolicy::new().fallback_setting("c", 25.0);
        guard.backoff = true;
        let (mut plane, id) = chaos_plane(FaultPlan::new(), guard);
        let diverge = [95.0, 105.0, 120.0];
        // First divergence: enters at epoch 2, dwells one cooldown.
        for (step, m) in diverge.iter().enumerate() {
            plane.decide(id, step as u64, *m);
        }
        assert!(guard_bits(&plane, 2).contains(GuardSet::FALLBACK_ENTER));
        let first = 2 + COOLDOWN_EPOCHS;
        for step in 3..first {
            plane.decide(id, step, 40.0);
            assert!(guard_bits(&plane, step).contains(GuardSet::FALLBACK));
        }
        plane.decide(id, first, 40.0);
        assert!(guard_bits(&plane, first).contains(GuardSet::REENGAGE));
        // Second divergence: enters three epochs later and dwells two
        // cooldowns, so the epoch where the base cooldown would have
        // re-engaged still holds the fallback.
        for (i, m) in diverge.iter().enumerate() {
            plane.decide(id, first + 1 + i as u64, *m);
        }
        let entered = first + 3;
        assert!(guard_bits(&plane, entered).contains(GuardSet::FALLBACK_ENTER));
        let second = entered + 2 * COOLDOWN_EPOCHS;
        for step in entered + 1..second {
            plane.decide(id, step, 40.0);
            assert!(
                guard_bits(&plane, step).contains(GuardSet::FALLBACK),
                "epoch {step} must still dwell under the doubled cooldown"
            );
        }
        plane.decide(id, second, 40.0);
        assert!(guard_bits(&plane, second).contains(GuardSet::REENGAGE));
    }

    #[test]
    fn chaos_event_fields_reach_the_log() {
        let plan = FaultPlan::new().window(FaultWindow::new(FaultKind::SensorDropout, 1, 2));
        let (mut plane, id) = chaos_plane(plan, GuardPolicy::new());
        plane.decide(id, 0, 40.0);
        plane.decide(id, 1, 40.0);
        let ev = plane.log().events_for("c").find(|e| e.epoch == 1).unwrap();
        assert!(ev.faults.contains(crate::FaultSet::DROPOUT));
        assert!(ev.measured.is_nan(), "dropped reading logged as NaN");
        let s = plane.log().summary("c").unwrap();
        assert_eq!(s.faults_injected, 1);
    }

    #[test]
    fn static_channels_pass_through_chaos() {
        let (mut plane, id) = ControlPlane::single("s", Decider::Static(30.0));
        plane.enable_chaos(ChaosSpec::new(
            1,
            FaultPlan::new().window(FaultWindow::new(FaultKind::PlantRestart, 1, 2)),
            GuardPolicy::new(),
        ));
        assert_eq!(plane.decide(id, 0, 10.0), 30.0);
        assert_eq!(plane.decide(id, 1, 10.0), 30.0);
        assert!(plane.take_plant_restart(id));
    }
}

#[cfg(test)]
mod chaos_proptests {
    use super::*;
    use crate::fault::{FaultClass, FaultPlan};
    use crate::guard::GuardPolicy;
    use proptest::prelude::*;
    use smartconf_core::{Controller, Goal};

    fn run_chaos_closed_loop(
        seed: u64,
        plan: FaultPlan,
        fallback: f64,
        epochs: u64,
    ) -> Vec<(u64, f64, f64)> {
        let goal = Goal::new("m", 400.0).with_hardness(Hardness::Hard).unwrap();
        let ctl = Controller::new(2.0, 0.3, goal, 0.1, (0.0, 180.0), 20.0).unwrap();
        let sc = SmartConf::new("c", ctl);
        let (mut plane, id) = ControlPlane::single("c", Decider::Direct(Box::new(sc)));
        plane.enable_chaos(ChaosSpec::new(
            seed,
            plan,
            GuardPolicy::new().fallback_setting("c", fallback),
        ));
        let mut setting = 20.0;
        let mut out = Vec::new();
        for step in 0..epochs {
            // Plant: m = 2·setting plus a slow disturbance ramp.
            let measured = 2.0 * setting + (step as f64 % 37.0);
            setting = plane.decide(id, step, measured);
            out.push((step, setting, measured));
        }
        out
    }

    proptest! {
        /// Satellite property (b): whatever the fault class and seed, the
        /// guard ladder never emits a setting outside the controller's
        /// profiled bounds — including the fallback path.
        #[test]
        fn chaos_settings_never_leave_controller_bounds(
            seed in 0u64..1_000,
            class_idx in 0usize..FaultClass::ALL.len(),
            fallback in -50.0f64..250.0, // deliberately allows out-of-bounds declarations
        ) {
            let plan = FaultClass::ALL[class_idx].standard_plan();
            for (step, setting, _) in run_chaos_closed_loop(seed, plan, fallback, 400) {
                prop_assert!(
                    (0.0..=180.0).contains(&setting),
                    "epoch {} setting {} outside bounds", step, setting
                );
            }
        }

        /// Satellite property (a): a chaos run is a pure function of
        /// `(seed, plan)` — replaying it yields identical trajectories,
        /// and different seeds give the injector different rolls.
        #[test]
        fn chaos_runs_replay_exactly(
            seed in 0u64..10_000,
            class_idx in 0usize..FaultClass::ALL.len(),
        ) {
            let plan = FaultClass::ALL[class_idx].standard_plan();
            let a = run_chaos_closed_loop(seed, plan.clone(), 30.0, 300);
            let b = run_chaos_closed_loop(seed, plan, 30.0, 300);
            prop_assert_eq!(a, b);
        }
    }
}
