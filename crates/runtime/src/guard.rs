//! Controller-side resilience guards: the defense half of the chaos
//! plane.
//!
//! The degradation ladder runs here. With chaos armed,
//! [`ControlPlane::decide`](crate::ControlPlane::decide) evaluates the
//! channel's [`FaultInjector`](crate::FaultInjector) faults and hands
//! the reading to the channel's guard, whose one step walks every rung
//! and steps or overrides the controller; the plane only logs the
//! result. Every rung threshold is a constant of this module, the way
//! the paper's controller takes its parameters from the goal and the
//! profile rather than from a tuning knob; [`GuardPolicy`] only arms the
//! two campaign devices (sensor voting, re-engage backoff) and declares
//! each channel's profiled-safe fallback.
//!
//! 1. **Admission** — non-finite readings and spikes far from the median
//!    of recent readings are rejected before they reach the controller
//!    (a private median filter, [`SPIKE_WINDOW`]/[`SPIKE_RATIO`]);
//!    injected stale repeats are detected by an exact-repeat run
//!    ([`STALE_EPOCHS`]) combined with an error band
//!    ([`STALE_ERROR_FRAC`]), so legitimately quantized readings don't
//!    false-trigger.
//! 2. **Watchdog** — after [`WATCHDOG_EPOCHS`] consecutive epochs
//!    without an admitted reading, the channel reverts to the last
//!    setting decided while healthy, instead of holding whatever a
//!    corrupted tail decided.
//! 3. **Anti-windup** — when the actuator saturates, the integrator is
//!    back-calculated to the applied value so it doesn't wind up beyond
//!    what the plant can do.
//! 4. **Fallback** — the channel degrades to its profiled-safe static
//!    fallback and re-engages after [`COOLDOWN_EPOCHS`] when the tracking
//!    error keeps growing on the violating side of a hard goal for
//!    [`DIVERGENCE_STREAK`] consecutive admitted epochs, when a hard-goal
//!    sensor freezes under actuation, when an adaptive channel's model
//!    confidence falls below [`ADAPTIVE_CONFIDENCE_FLOOR`], or when a
//!    goal retarget meets lagged decisions still queued for the plant.
//! 5. **Restart recovery** — a plant restart resets the controller to
//!    its initial setting and clears guard state. A frozen-model channel
//!    logs [`GuardSet::REPROFILE`] (its model cannot change without a
//!    fresh profile; nothing re-profiles it in-run), an adaptive one
//!    resets its estimator and logs [`GuardSet::RELEARN`].
//!
//! Arm a plane with [`ControlPlane::enable_chaos`](crate::ControlPlane::enable_chaos);
//! every activation is recorded on the epoch event as a [`GuardSet`].

use std::collections::VecDeque;

use smartconf_core::Sense;

use crate::fault::{ActiveFaults, FaultPlan, SensorFault};
use crate::plane::Decider;
use crate::{ChannelId, Sensed};

/// Bit set of resilience-guard activations on one epoch (recorded on
/// [`EpochEvent`](crate::EpochEvent)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardSet(u16);

impl GuardSet {
    /// No admitted reading this epoch (dropped, rejected, or stale-held).
    pub const MISSED: GuardSet = GuardSet(1 << 0);
    /// The admission filter rejected the reading (non-finite or spike).
    pub const REJECTED: GuardSet = GuardSet(1 << 1);
    /// The stale detector held back an exactly-repeated reading.
    pub const STALE_HOLD: GuardSet = GuardSet(1 << 2);
    /// The watchdog reverted to the last healthy setting.
    pub const WATCHDOG: GuardSet = GuardSet(1 << 3);
    /// A rung (divergence, actuated stale, model doubt) entered fallback
    /// this epoch.
    pub const FALLBACK_ENTER: GuardSet = GuardSet(1 << 4);
    /// The channel spent this epoch in fallback.
    pub const FALLBACK: GuardSet = GuardSet(1 << 5);
    /// The channel re-engaged its controller after a fallback cooldown.
    pub const REENGAGE: GuardSet = GuardSet(1 << 6);
    /// Anti-windup back-calculated the integrator to the applied value.
    pub const ANTI_WINDUP: GuardSet = GuardSet(1 << 7);
    /// A restart reset a frozen-model channel to its initial setting.
    /// Its model could only change with a fresh profile, which nothing
    /// takes in-run; the bit marks the epoch in the log.
    pub const REPROFILE: GuardSet = GuardSet(1 << 8);
    /// The guard asked a degraded channel's plant to shed
    /// already-admitted work down to the in-force bound (see
    /// [`ControlPlane::take_plant_shed`](crate::ControlPlane::take_plant_shed)).
    pub const SHED: GuardSet = GuardSet(1 << 9);
    /// A restart reset an adaptive channel's estimator covariance for
    /// in-place relearning (instead of logging [`GuardSet::REPROFILE`]).
    pub const RELEARN: GuardSet = GuardSet(1 << 10);
    /// The adaptive model's confidence fell below
    /// [`ADAPTIVE_CONFIDENCE_FLOOR`]; the channel degraded to its
    /// profiled-safe fallback until the estimator recovers.
    pub const MODEL_DOUBT: GuardSet = GuardSet(1 << 11);
    /// The sensor-voting filter substituted the median of recent
    /// admitted readings for a rejected one (see [`GuardPolicy::vote`]),
    /// keeping the controller fed instead of blind.
    pub const VOTED: GuardSet = GuardSet(1 << 12);

    /// Adds the bits of `other`.
    pub fn insert(&mut self, other: GuardSet) {
        self.0 |= other.0;
    }

    /// Whether every bit of `other` is set.
    pub fn contains(&self, other: GuardSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no guard activated.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// Consecutive epochs without an admitted reading before the watchdog
/// reverts to the last healthy setting.
pub const WATCHDOG_EPOCHS: u64 = 5;

/// Window length of the median spike filter.
pub const SPIKE_WINDOW: usize = 5;

/// Spike threshold: once the filter's window has warmed up, readings
/// beyond `SPIKE_RATIO × (1 + |median|)` are rejected.
pub const SPIKE_RATIO: f64 = 8.0;

/// Exact-repeat run length before a reading counts as stale.
pub const STALE_EPOCHS: u64 = 8;

/// Staleness also requires the repeated reading to sit outside this
/// fraction of the target: legitimately quantized readings repeat
/// *near* the target and must not trigger the hold.
pub const STALE_ERROR_FRAC: f64 = 0.05;

/// Consecutive worsening violating epochs (hard goals) before the
/// channel degrades to its static fallback.
pub const DIVERGENCE_STREAK: u32 = 3;

/// Base fallback dwell in epochs before the controller re-engages; also
/// the healthy engaged stretch that resets the re-engage backoff.
pub const COOLDOWN_EPOCHS: u64 = 60;

/// The confidence floor of the model-doubt rung: an adaptive channel
/// whose online estimator's confidence falls below it degrades to its
/// profiled-safe fallback (one cooldown) and re-engages once the
/// estimator recovers. Low enough that a healthy estimator (seeded near
/// its profile, residuals small) never trips it, high enough that a
/// corrupted-feedback collapse degrades the channel within a few epochs.
/// Frozen-model channels have no confidence to doubt.
pub const ADAPTIVE_CONFIDENCE_FLOOR: f64 = 0.15;

/// The sensor-vote window ([`GuardPolicy::vote`]): wide enough that one
/// corrupted burst cannot dominate the median, narrow enough that the
/// substituted consensus still tracks a moving plant.
pub const CAMPAIGN_VOTE_WINDOW: usize = 5;

/// The re-engage backoff cap ([`GuardPolicy::backoff`]): at most 4
/// doublings, i.e. a 16× longest cooldown before the schedule saturates.
pub const CAMPAIGN_BACKOFF_DOUBLINGS: u32 = 4;

/// Exact repeats *while the actuator moved between readings* before
/// the sensor counts as frozen regardless of how close the repeated
/// value sits to the target. A plant whose setting changes should not
/// return bit-identical measurements; repeats at a *held* setting (a
/// converged controller) never advance this counter, so legitimate
/// steady states cannot trip it. On a hard-goal channel the detection
/// escalates straight to the profiled-safe fallback.
pub(crate) const ACTUATED_STALE_EPOCHS: u64 = 4;

/// The switches of the resilience guards, one policy per plane. Every
/// rung threshold is a constant of this module; a policy only arms the
/// two campaign devices and declares each channel's fallback.
///
/// # Example
///
/// ```
/// use smartconf_runtime::GuardPolicy;
///
/// let policy = GuardPolicy::new()
///     .sensor_vote()
///     .fallback_setting("max.queue.size", 40.0);
/// assert!(policy.vote && !policy.backoff);
/// assert_eq!(policy.fallback_for("max.queue.size"), Some(40.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GuardPolicy {
    /// Sensor voting: when the admission filter rejects a delivered
    /// reading (non-finite or spike) and the last
    /// [`CAMPAIGN_VOTE_WINDOW`] engaged readings were admitted, the
    /// guard substitutes their median instead of marking the epoch
    /// missed, so the controller stays fed through corruption bursts
    /// rather than going blind into the watchdog. Recorded as
    /// [`GuardSet::VOTED`] (alongside [`GuardSet::REJECTED`] for the raw
    /// reading). Off by default.
    pub vote: bool,
    /// Re-engage backoff: every fallback entry after the first doubles
    /// the cooldown dwell (jitter-free, a pure function of the entry
    /// count), saturating after [`CAMPAIGN_BACKOFF_DOUBLINGS`]
    /// doublings; a clean stretch of [`COOLDOWN_EPOCHS`] healthy engaged
    /// epochs resets the schedule to the base cooldown. Off by default:
    /// every entry dwells exactly [`COOLDOWN_EPOCHS`].
    pub backoff: bool,
    fallbacks: Vec<(String, f64)>,
}

impl GuardPolicy {
    /// The default policy: voting and backoff off, no fallbacks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms sensor voting (see [`GuardPolicy::vote`]).
    #[must_use]
    pub fn sensor_vote(mut self) -> Self {
        self.vote = true;
        self
    }

    /// The compound-campaign hardening bundle: arms sensor voting and
    /// re-engage backoff. Scenario crates get it through the harness
    /// when building the guard for a [`Campaign`](crate::Campaign) run.
    #[must_use]
    pub fn campaign_hardened(mut self) -> Self {
        self.vote = true;
        self.backoff = true;
        self
    }

    /// Declares the profiled-safe static fallback for one channel, in
    /// controller-variable space (the plane maps it through the
    /// transducer for indirect configurations). Channels without a
    /// declared fallback fall back to their initial setting.
    #[must_use]
    pub fn fallback_setting(mut self, channel: impl Into<String>, setting: f64) -> Self {
        self.fallbacks.push((channel.into(), setting));
        self
    }

    /// Every declared `(channel, fallback)` pair, in declaration order.
    pub fn fallbacks(&self) -> &[(String, f64)] {
        &self.fallbacks
    }

    /// The declared fallback for a channel, if any.
    pub fn fallback_for(&self, channel: &str) -> Option<f64> {
        self.fallbacks
            .iter()
            .find(|(name, _)| name == channel)
            .map(|(_, v)| *v)
    }
}

/// Everything needed to arm a plane's chaos mode: the injector seed, the
/// fault plan, and the guard switches. `(seed, plan)` fully determines
/// the injected faults, so a chaos run is replayable from its spec.
///
/// # Example
///
/// ```
/// use smartconf_runtime::{ChaosSpec, FaultClass, GuardPolicy};
///
/// let spec = ChaosSpec::new(42, FaultClass::SensorDropout.standard_plan(), GuardPolicy::new());
/// assert_eq!(spec.seed, 42);
/// assert!(!spec.plan.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Injector seed (derive from [`shard_seed`](crate::shard_seed)
    /// material so fleet shards stay deterministic).
    pub seed: u64,
    /// The faults to inject.
    pub plan: FaultPlan,
    /// The guard switches and fallbacks.
    pub guard: GuardPolicy,
}

impl ChaosSpec {
    /// A spec from its three parts.
    pub fn new(seed: u64, plan: FaultPlan, guard: GuardPolicy) -> Self {
        ChaosSpec { seed, plan, guard }
    }
}

/// Whether a channel's controller is live or degraded to its fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
enum GuardMode {
    /// Controller in charge.
    Engaged,
    /// Holding the static fallback until the given epoch.
    Fallback {
        /// First epoch at which the controller may re-engage.
        until: u64,
    },
}

/// The last `cap ≤ SPIKE_WINDOW` readings pushed, the oldest
/// overwritten first, in fixed storage: neither a push nor a median
/// allocates.
#[derive(Debug, Clone, PartialEq)]
struct Ring {
    buf: [f64; SPIKE_WINDOW],
    len: usize,
    cap: usize,
    next: usize,
}

impl Ring {
    /// An empty ring of `cap` readings (clamped ≥ 1).
    ///
    /// # Panics
    ///
    /// If `cap` exceeds [`SPIKE_WINDOW`].
    fn new(cap: usize) -> Self {
        assert!(cap <= SPIKE_WINDOW, "ring of {cap} > {SPIKE_WINDOW}");
        Ring {
            buf: [0.0; SPIKE_WINDOW],
            len: 0,
            cap: cap.max(1),
            next: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.len == self.cap
    }

    fn push(&mut self, v: f64) {
        self.buf[self.next] = v;
        self.next = (self.next + 1) % self.cap;
        self.len = (self.len + 1).min(self.cap);
    }

    fn clear(&mut self) {
        self.len = 0;
        self.next = 0;
    }

    /// The upper median (element `len / 2` in ascending order) of a
    /// sorted stack copy, or `None` while empty. The readings are
    /// finite, so the order is the numeric one up to the sign of a zero.
    fn median(&self) -> Option<f64> {
        let mut sorted = self.buf;
        let sorted = &mut sorted[..self.len];
        sorted.sort_unstable_by(f64::total_cmp);
        sorted.get(self.len / 2).copied()
    }
}

/// Sensor-admission filter of the ladder's first rung: rejects
/// non-finite readings and spikes far from the median of recent
/// admitted readings.
///
/// A reading is admitted only when it is finite and — once the window
/// has filled — within `ratio` of the recent median (with a unit floor
/// so near-zero medians don't reject everything). Rejected readings
/// never reach the controller.
#[derive(Debug, Clone, PartialEq)]
struct MedianFilter {
    window: Ring,
    ratio: f64,
}

impl MedianFilter {
    /// A filter with a window of `cap` recent admitted readings
    /// (clamped ≥ 1, at most [`SPIKE_WINDOW`]) and a spike threshold of
    /// `ratio` times the median.
    fn new(cap: usize, ratio: f64) -> Self {
        MedianFilter {
            window: Ring::new(cap),
            ratio: ratio.max(1.0),
        }
    }

    /// The median of the admitted window, or `None` while empty.
    fn median(&self) -> Option<f64> {
        self.window.median()
    }

    /// Whether the window has filled (spike rejection active).
    fn warmed_up(&self) -> bool {
        self.window.is_full()
    }

    /// Validates one reading. Admitted readings enter the window;
    /// rejected ones (non-finite, or a spike once warmed up) do not.
    fn admit(&mut self, v: f64) -> bool {
        if !v.is_finite() {
            return false;
        }
        if self.warmed_up() {
            let m = self.median().expect("a warmed-up window is non-empty");
            // Unit floor: at near-zero medians compare against ratio*1.
            if v.abs() > self.ratio * (1.0 + m.abs()) {
                return false;
            }
        }
        self.window.push(v);
        true
    }

    /// Discards the window (after a plant restart, when old readings no
    /// longer describe the running system).
    fn clear(&mut self) {
        self.window.clear();
    }
}

/// One channel's guard state and the ladder that drives it: the plane
/// hands every armed epoch to [`ChannelGuard::step`].
#[derive(Debug)]
pub(crate) struct ChannelGuard {
    filter: MedianFilter,
    /// Consecutive epochs without an admitted reading.
    missed: u64,
    /// Last reading the (possibly faulty) sensor delivered.
    last_raw: Option<f64>,
    /// Length of the current exact-repeat run.
    stale_run: u64,
    /// Exact repeats observed while the in-force setting moved between
    /// readings (see [`ACTUATED_STALE_EPOCHS`]).
    actuated_stale: u64,
    /// The in-force setting of the previous epoch, for actuated-stale
    /// movement detection.
    prev_in_force: f64,
    /// Whether the in-force setting changed on the previous epoch.
    setting_moved: bool,
    /// Consecutive admitted epochs with a worsening violation.
    worsening: u32,
    /// |error| of the previous violating epoch.
    prev_violation: f64,
    mode: GuardMode,
    /// Profiled-safe fallback, controller space.
    fallback: f64,
    /// Initial setting, controller space (restart target).
    initial: f64,
    /// Last setting decided while the guard saw a healthy channel.
    last_safe: f64,
    /// Whether `last_safe` was recorded under the current goal. A
    /// [`set_goal`](crate::ControlPlane::set_goal) retarget clears this:
    /// until a healthy epoch under the new goal, *any* missed epoch
    /// reverts immediately (holding the old setting has no safety
    /// evidence behind it).
    evidence_fresh: bool,
    /// Setting actually in force at the plant, controller space
    /// (diverges from the controller's setting under actuator lag).
    in_force: f64,
    /// Lagged decisions waiting to reach the plant: `(due epoch, setting)`.
    pending: VecDeque<(u64, f64)>,
    /// The most recent epoch this channel decided (for out-of-band guard
    /// actions that happen between epochs, e.g. a goal retarget).
    last_epoch: u64,
    /// The scenario's own goal target (restored when a flap window ends).
    base_target: f64,
    /// Whether a goal flap is currently applied.
    flapped: bool,
    /// Raised by a restart until the embedder polls it (plant-side reset).
    plant_restart: bool,
    /// Raised while a degraded channel asks the plant to shed
    /// already-admitted work; held until the embedder polls
    /// [`take_plant_shed`](crate::ControlPlane::take_plant_shed).
    plant_shed: bool,
    /// Recently *admitted* readings feeding the sensor-voting median
    /// (see [`GuardPolicy::vote`]); bounded at [`CAMPAIGN_VOTE_WINDOW`].
    votes: Ring,
    /// Current position on the re-engage backoff schedule: the next
    /// fallback entry dwells `COOLDOWN_EPOCHS × 2^backoff_exp`.
    backoff_exp: u32,
    /// Consecutive healthy engaged epochs since the last fallback entry;
    /// reaching [`COOLDOWN_EPOCHS`] resets `backoff_exp`.
    clean_streak: u64,
}

impl ChannelGuard {
    /// The guard a channel is armed with: the fallback `policy`
    /// declares for `name` (else the controller's initial setting), the
    /// initial setting as restart target, and the goal's own target.
    /// Static channels get NaN for all three; nothing reads them.
    pub(crate) fn for_channel(policy: &GuardPolicy, name: &str, decider: &Decider) -> Self {
        let ctl = decider.controller();
        let initial = ctl.map_or(f64::NAN, |c| c.current());
        let fallback = policy.fallback_for(name).unwrap_or(initial);
        ChannelGuard::new(
            fallback,
            initial,
            ctl.map_or(f64::NAN, |c| c.goal().target()),
        )
    }

    fn new(fallback: f64, initial: f64, base_target: f64) -> Self {
        ChannelGuard {
            filter: MedianFilter::new(SPIKE_WINDOW, SPIKE_RATIO),
            missed: 0,
            last_raw: None,
            stale_run: 0,
            actuated_stale: 0,
            prev_in_force: initial,
            setting_moved: false,
            worsening: 0,
            prev_violation: 0.0,
            mode: GuardMode::Engaged,
            fallback,
            initial,
            last_safe: initial,
            evidence_fresh: true,
            in_force: initial,
            pending: VecDeque::new(),
            last_epoch: 0,
            base_target,
            flapped: false,
            plant_restart: false,
            plant_shed: false,
            votes: Ring::new(CAMPAIGN_VOTE_WINDOW),
            backoff_exp: 0,
            clean_streak: 0,
        }
    }

    /// One armed epoch: walks the ladder over the faults `active` fires
    /// at `epoch` and the true reading `sensed`, stepping (or forcing)
    /// the channel's controller. Returns the setting to apply (output
    /// space), the reading the sensor delivered (NaN when none did) and
    /// the guards that fired. Rungs run in this order: restart, goal
    /// flap, sensor fault, admission (stale, median filter, vote),
    /// watchdog, fallback hold or re-engage, divergence, model doubt,
    /// saturation, lag, shed.
    pub(crate) fn step(
        &mut self,
        policy: &GuardPolicy,
        decider: &mut Decider,
        id: ChannelId,
        epoch: u64,
        active: ActiveFaults,
        sensed: Sensed,
    ) -> (f64, f64, GuardSet) {
        self.last_epoch = epoch;
        let mut guards = GuardSet::default();

        // 1. Plant restart: controller back to its initial setting,
        //    accumulated guard state discarded. Frozen channels log
        //    REPROFILE: their model cannot change without a fresh
        //    profile, and nothing re-profiles in-run, so they resume
        //    from the initial setting on the old model. Adaptive
        //    channels instead reset their estimator covariance, log
        //    RELEARN and relearn the post-restart plant in place.
        if active.restart {
            self.reset_after_restart();
            if let Some(ctl) = decider.controller_mut() {
                let adaptive = ctl.is_adaptive();
                guards.insert(if adaptive {
                    GuardSet::RELEARN
                } else {
                    GuardSet::REPROFILE
                });
                ctl.reset(self.initial);
                ctl.set_goal(self.base_target)
                    .expect("base target was a valid goal");
                if adaptive {
                    ctl.model_mut().relearn();
                }
            }
            decider.force(self.initial);
        }
        // A static channel has no controller to defend: past the restart
        // notification it keeps its fixed setting and logs the true
        // reading.
        if !decider.is_smart() {
            return (decider.setting(), sensed.measured, guards);
        }

        // 2. Goal flap: tighten the target while the window is active,
        //    restore the scenario's own target when it ends.
        if let Some(frac) = active.goal_flap {
            if let Some(ctl) = decider.controller_mut() {
                if !self.flapped {
                    self.base_target = ctl.goal().target();
                    self.flapped = true;
                }
                let flapped = match ctl.goal().sense() {
                    Sense::UpperBound => self.base_target * (1.0 - frac),
                    Sense::LowerBound => self.base_target * (1.0 + frac),
                };
                ctl.set_goal(flapped).expect("flapped target is finite");
            }
        } else if self.flapped {
            self.flapped = false;
            let base = self.base_target;
            if let Some(ctl) = decider.controller_mut() {
                ctl.set_goal(base).expect("base target was a valid goal");
            }
        }

        // 3. Sensor fault: transform (or swallow) the true reading.
        let delivered: Option<f64> = match active.sensor {
            None => Some(sensed.measured),
            Some(SensorFault::Drop) => None,
            Some(SensorFault::Stale) => self.last_raw,
            Some(SensorFault::Nan) => Some(f64::NAN),
            Some(SensorFault::Scale(k)) => Some(sensed.measured * k),
        };

        // 4. Admission: stale detection, then finite/median validation.
        let target = decider
            .controller()
            .map(|c| c.effective_target())
            .unwrap_or(f64::NAN);
        let mut admitted: Option<f64> = None;
        match delivered {
            None => guards.insert(GuardSet::MISSED),
            Some(v) => {
                self.note_delivered(v);
                let off_target = (v - target).abs() > STALE_ERROR_FRAC * target.abs().max(1.0);
                let frozen_under_actuation = self.actuated_stale >= ACTUATED_STALE_EPOCHS;
                if (self.stale_run >= STALE_EPOCHS && off_target) || frozen_under_actuation {
                    guards.insert(GuardSet::STALE_HOLD);
                    guards.insert(GuardSet::MISSED);
                    // A freeze the off-target test cannot see (the
                    // repeated value sits near the target) blinds a
                    // hard-goal channel exactly when a load burst needs
                    // it: degrade to the profiled-safe fallback instead
                    // of holding a setting tuned for the frozen picture.
                    if frozen_under_actuation && self.mode == GuardMode::Engaged {
                        let hard = decider
                            .controller()
                            .is_some_and(|c| c.goal().hardness().is_hard());
                        if hard {
                            self.enter_fallback(policy, epoch);
                            guards.insert(GuardSet::FALLBACK_ENTER);
                        }
                    }
                } else if !self.filter.admit(v) {
                    guards.insert(GuardSet::REJECTED);
                    // Sensor voting: instead of going blind on a
                    // corrupted burst, feed the controller the median of
                    // the recent genuinely-admitted readings (which a
                    // burst cannot have polluted). Off, this is the
                    // historical rejected-means-missed path. Voting
                    // is an engaged-mode device only: a fallback hold is
                    // actively draining the plant, so consensus there
                    // goes stale by construction — during (and right out
                    // of) a hold, rejected still means missed.
                    let consensus = (policy.vote && self.mode == GuardMode::Engaged)
                        .then(|| self.vote_median())
                        .flatten();
                    if let Some(consensus) = consensus {
                        guards.insert(GuardSet::VOTED);
                        admitted = Some(consensus);
                    } else {
                        guards.insert(GuardSet::MISSED);
                    }
                } else {
                    if policy.vote && self.mode == GuardMode::Engaged {
                        self.votes.push(v);
                    }
                    admitted = Some(v);
                }
            }
        }

        // Watchdog: after M consecutive missing epochs, revert to the
        // last setting decided while the channel was healthy. If a goal
        // retarget invalidated that evidence, revert on the very first
        // miss — the held setting was only ever safe under the old goal.
        if admitted.is_none() {
            self.missed += 1;
            if self.missed >= WATCHDOG_EPOCHS || !self.evidence_fresh {
                decider.force(self.last_safe);
                guards.insert(GuardSet::WATCHDOG);
            }
        } else {
            self.missed = 0;
        }

        // 5. Decide: fallback hold, re-engage, or the normal step.
        match self.mode {
            GuardMode::Fallback { until } if epoch < until => {
                decider.force(self.fallback);
                guards.insert(GuardSet::FALLBACK);
                // Adaptive channels keep learning through the hold: an
                // admitted reading still pairs with the in-force
                // operating point (the deputy for indirect channels), so
                // the estimator can rebuild confidence before re-engage.
                if let Some(v) = admitted {
                    if let Some(ctl) = decider.controller_mut() {
                        if ctl.is_adaptive() {
                            let x = sensed.deputy.unwrap_or_else(|| ctl.current());
                            ctl.model_mut().observe(x, v);
                        }
                    }
                }
            }
            mode => {
                if matches!(mode, GuardMode::Fallback { .. }) {
                    self.mode = GuardMode::Engaged;
                    guards.insert(GuardSet::REENGAGE);
                }
                if let Some(v) = admitted {
                    decider.step_measurement(id, v, sensed.deputy);
                }
                // No admitted reading: hold (possibly watchdog-forced).
            }
        }
        let mut decided = decider
            .controller()
            .map(|c| c.current())
            .expect("smart channel has a controller");

        // 6. Divergence detector: |error| growing on the violating side
        //    of a hard goal for K consecutive admitted epochs degrades
        //    the channel to its profiled-safe fallback.
        let mut enter = false;
        if let (Some(v), GuardMode::Engaged) = (admitted, self.mode) {
            let (hard, violation) = {
                let ctl = decider.controller().expect("smart channel");
                let err = ctl.goal().error_against(ctl.effective_target(), v);
                (ctl.goal().hardness().is_hard(), (err < 0.0).then(|| -err))
            };
            match (hard, violation) {
                (true, Some(mag)) => {
                    if mag > self.prev_violation {
                        self.worsening += 1;
                    } else {
                        self.worsening = 0;
                    }
                    self.prev_violation = mag;
                    enter = self.worsening >= DIVERGENCE_STREAK;
                }
                _ => {
                    self.worsening = 0;
                    self.prev_violation = 0.0;
                }
            }
        }

        // 6b. Model doubt (adaptive channels): when the online
        //     estimator's confidence collapses below the floor, its
        //     recent gains are suspect — degrade to the profiled-safe
        //     fallback for one cooldown. The fallback hold above keeps
        //     feeding the estimator, so confidence recovers before
        //     re-engage (a still-doubted model just re-enters).
        if !enter && self.mode == GuardMode::Engaged {
            let doubted = decider.controller().is_some_and(|c| {
                c.is_adaptive() && c.model().confidence() < ADAPTIVE_CONFIDENCE_FLOOR
            });
            if doubted {
                guards.insert(GuardSet::MODEL_DOUBT);
                enter = true;
            }
        }
        if enter {
            self.enter_fallback(policy, epoch);
            self.worsening = 0;
            self.prev_violation = 0.0;
            decider.force(self.fallback);
            decided = decider.controller().expect("smart channel").current();
            guards.insert(GuardSet::FALLBACK_ENTER);
            guards.insert(GuardSet::FALLBACK);
        }

        // 7. Actuator faults: saturation (with anti-windup), then lag.
        if let Some(frac) = active.saturate {
            let (lo, hi) = decider.controller().expect("smart channel").bounds();
            let cap = lo + frac * (hi - lo);
            if decided > cap {
                decided = cap;
                decider.force(cap);
                guards.insert(GuardSet::ANTI_WINDUP);
            }
        }
        let mut in_force = if let Some(k) = active.lag {
            self.pending.push_back((epoch + k, decided));
            while let Some(&(due, v)) = self.pending.front() {
                if due <= epoch {
                    self.in_force = v;
                    self.pending.pop_front();
                } else {
                    break;
                }
            }
            self.in_force
        } else {
            self.pending.clear();
            self.in_force = decided;
            decided
        };
        // 8. Admitted-work shedding: while the channel is degraded (a
        //    watchdog revert or a fallback hold — the guard no longer
        //    trusts the controller's recent decisions), ask the plant to
        //    also trim work admitted *before* the guard engaged down to
        //    the in-force bound. The watchdog's reverted setting was
        //    only ever safe against the load it was decided under, so
        //    the bound is additionally clamped to the safe side of the
        //    profiled-safe fallback — the one setting known to survive
        //    the goal's worst profiled case — and ratcheted against the
        //    previous in-force value: a degraded channel must never
        //    *loosen* its bound (a goal flap can squeeze the engaged
        //    controller well below the fallback; reverting up to it
        //    mid-crisis releases a refill spike). Admission-only guards
        //    cannot stop an already-enqueued backlog from violating a
        //    hard goal (TWIN/HB2149's queues).
        if guards.contains(GuardSet::WATCHDOG)
            || guards.contains(GuardSet::FALLBACK)
            || guards.contains(GuardSet::FALLBACK_ENTER)
        {
            // Which direction of the *setting* is safe depends on both
            // the goal sense and the profiled response slope: a queue
            // bound raises its memory metric (alpha > 0, upper bound →
            // clamp down), while HB2149's lowerLimit *shortens* its
            // block-time metric (alpha < 0, upper bound → clamp up).
            let ctl = decider.controller().expect("smart channel");
            let toward_violation = match ctl.goal().sense() {
                Sense::UpperBound => ctl.alpha(),
                Sense::LowerBound => -ctl.alpha(),
            };
            let clamped = if toward_violation > 0.0 {
                in_force.min(self.fallback).min(self.prev_in_force)
            } else {
                in_force.max(self.fallback).max(self.prev_in_force)
            };
            if clamped != in_force {
                // `force` clamps to the controller's profiled bounds; a
                // declared fallback may sit outside them, and the
                // in-force setting must never leave bounds.
                let forced = decider.force(clamped);
                in_force = forced;
                self.in_force = forced;
            }
            self.plant_shed = true;
            guards.insert(GuardSet::SHED);
        }

        self.setting_moved = in_force != self.prev_in_force;
        self.prev_in_force = in_force;

        if admitted.is_some() && self.mode == GuardMode::Engaged {
            self.last_safe = decided;
            self.evidence_fresh = true;
            // A sustained healthy engaged stretch earns the backoff
            // schedule back down to the base cooldown.
            self.clean_streak += 1;
            if self.clean_streak >= COOLDOWN_EPOCHS {
                self.backoff_exp = 0;
            }
        }

        let measured = delivered.unwrap_or(f64::NAN);
        (decider.transduce(in_force), measured, guards)
    }

    /// A scenario's own goal retarget
    /// ([`ControlPlane::set_goal`](crate::ControlPlane::set_goal)) to a
    /// finite `target`. It becomes the restore point of goal flaps, so a
    /// flap window ending doesn't undo it. It also invalidates the
    /// watchdog's safety evidence: a setting that met the old goal may
    /// violate the new one, so the revert point drops to the
    /// profiled-safe fallback until a healthy epoch under the new goal
    /// records a fresh one.
    pub(crate) fn retarget(&mut self, policy: &GuardPolicy, target: f64) {
        self.base_target = target;
        self.last_safe = self.fallback;
        self.evidence_fresh = false;
        // A retarget can't wait on a backed-up actuator: decisions
        // queued under the old goal would stay in force for the whole
        // lag window. Flush them and actuate the fallback out of band,
        // holding it through the cooldown.
        if !self.pending.is_empty() {
            self.pending.clear();
            self.in_force = self.fallback;
            self.enter_fallback(policy, self.last_epoch + 1);
        }
    }

    /// Consumes the pending plant-restart notification.
    pub(crate) fn take_restart(&mut self) -> bool {
        std::mem::take(&mut self.plant_restart)
    }

    /// Consumes the pending shed notification.
    pub(crate) fn take_shed(&mut self) -> bool {
        std::mem::take(&mut self.plant_shed)
    }

    /// Clears accumulated run state after a plant restart and raises the
    /// plant-side restart notification. The fallback, initial, and
    /// base-target configuration survive — they describe the scenario,
    /// not the run.
    fn reset_after_restart(&mut self) {
        self.filter.clear();
        self.missed = 0;
        self.last_raw = None;
        self.stale_run = 0;
        self.actuated_stale = 0;
        self.prev_in_force = self.initial;
        self.setting_moved = false;
        self.worsening = 0;
        self.prev_violation = 0.0;
        self.mode = GuardMode::Engaged;
        self.last_safe = self.initial;
        self.evidence_fresh = true;
        self.in_force = self.initial;
        self.pending.clear();
        self.plant_restart = true;
        self.plant_shed = false; // the restart itself empties the plant's queues
        self.votes.clear();
        self.backoff_exp = 0;
        self.clean_streak = 0;
    }

    /// The voting median — `Some` only once the window has fully warmed
    /// up (a partial window would let one early outlier speak for the
    /// channel).
    fn vote_median(&self) -> Option<f64> {
        self.votes.is_full().then(|| self.votes.median()).flatten()
    }

    /// The one way into fallback: holds the fallback from epoch `from`
    /// for the cooldown dwell, advancing the deterministic backoff
    /// schedule. The dwell reflects the entries so far, then the
    /// exponent steps (saturating at [`CAMPAIGN_BACKOFF_DOUBLINGS`]) so
    /// the *next* entry dwells twice as long. With backoff off the
    /// dwell is exactly [`COOLDOWN_EPOCHS`].
    ///
    /// Entering fallback also invalidates the sensor-vote window: the
    /// hold actively drains the plant, so pre-entry consensus no longer
    /// describes it at re-engage (acting on a drained-era median there
    /// reopens the actuator against a picture that is minutes stale).
    fn enter_fallback(&mut self, policy: &GuardPolicy, from: u64) {
        let dwell = COOLDOWN_EPOCHS << self.backoff_exp;
        if policy.backoff && self.backoff_exp < CAMPAIGN_BACKOFF_DOUBLINGS {
            self.backoff_exp += 1;
        }
        self.clean_streak = 0;
        self.votes.clear();
        self.mode = GuardMode::Fallback {
            until: from + dwell,
        };
    }

    /// Tracks the exact-repeat run of delivered readings. Repeats
    /// observed while the actuator moved between readings additionally
    /// advance `actuated_stale`; repeats at a held setting leave it
    /// unchanged (they carry no information either way).
    fn note_delivered(&mut self, v: f64) {
        if self.last_raw == Some(v) {
            self.stale_run += 1;
            if self.setting_moved {
                self.actuated_stale += 1;
            }
        } else {
            self.stale_run = 0;
            self.actuated_stale = 0;
            self.last_raw = Some(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_filter_rejects_nonfinite_always() {
        let mut f = MedianFilter::new(4, 8.0);
        assert!(!f.admit(f64::NAN));
        assert!(!f.admit(f64::INFINITY));
        assert!(!f.admit(f64::NEG_INFINITY));
        assert!(f.median().is_none());
    }

    #[test]
    fn median_filter_warmup_admits_then_rejects_spikes() {
        let mut f = MedianFilter::new(3, 8.0);
        assert!(!f.warmed_up());
        for v in [10.0, 12.0, 11.0] {
            assert!(f.admit(v));
        }
        assert!(f.warmed_up());
        assert_eq!(f.median(), Some(11.0));
        assert!(!f.admit(11.0 * 25.0), "25x median is a spike");
        assert!(f.admit(20.0), "within 8x(1+median)");
        // Spikes do not pollute the window.
        assert!(f.median().unwrap() < 21.0);
    }

    #[test]
    fn median_filter_admits_a_plausible_reading_after_a_spike() {
        let mut f = MedianFilter::new(3, 8.0);
        for v in [100.0, 102.0, 98.0] {
            assert!(f.admit(v)); // window warming up: finite values pass
        }
        assert!(!f.admit(f64::NAN)); // never finite-admissible
        assert!(!f.admit(2_500.0)); // 25x the median: rejected as a spike
        assert!(f.admit(110.0)); // plausible reading passes
    }

    #[test]
    fn median_filter_unit_floor_near_zero() {
        let mut f = MedianFilter::new(3, 8.0);
        for _ in 0..3 {
            assert!(f.admit(0.0));
        }
        // Median 0: anything below ratio*(1+0)=8 still passes.
        assert!(f.admit(5.0));
        assert!(!f.admit(9.0));
    }

    #[test]
    fn median_filter_clear_resets_warmup() {
        let mut f = MedianFilter::new(2, 8.0);
        assert!(f.admit(1.0));
        assert!(f.admit(1.0));
        assert!(f.warmed_up());
        f.clear();
        assert!(!f.warmed_up());
        assert!(f.admit(1_000_000.0), "post-clear warmup admits any finite");
    }

    #[test]
    fn guard_set_bits() {
        let mut g = GuardSet::default();
        assert!(g.is_empty());
        g.insert(GuardSet::WATCHDOG);
        g.insert(GuardSet::FALLBACK);
        assert!(g.contains(GuardSet::WATCHDOG));
        assert!(g.contains(GuardSet::FALLBACK));
        assert!(!g.contains(GuardSet::REENGAGE));
    }

    #[test]
    fn policy_fallback_lookup() {
        let p = GuardPolicy::new()
            .fallback_setting("a", 40.0)
            .fallback_setting("b", 100.0);
        assert_eq!(p.fallback_for("a"), Some(40.0));
        assert_eq!(p.fallback_for("b"), Some(100.0));
        assert_eq!(p.fallback_for("c"), None);
    }

    #[test]
    fn stale_run_tracking() {
        let mut g = ChannelGuard::new(1.0, 1.0, 10.0);
        g.note_delivered(5.0);
        assert_eq!(g.stale_run, 0);
        g.note_delivered(5.0);
        g.note_delivered(5.0);
        assert_eq!(g.stale_run, 2);
        g.note_delivered(6.0);
        assert_eq!(g.stale_run, 0);
    }

    #[test]
    fn restart_reset_preserves_configuration() {
        let mut g = ChannelGuard::new(40.0, 80.0, 495.0);
        g.missed = 3;
        g.mode = GuardMode::Fallback { until: 99 };
        g.pending.push_back((5, 1.0));
        g.reset_after_restart();
        assert_eq!(g.missed, 0);
        assert_eq!(g.mode, GuardMode::Engaged);
        assert!(g.pending.is_empty());
        assert!(g.plant_restart);
        assert_eq!(g.fallback, 40.0);
        assert_eq!(g.in_force, 80.0);
    }

    #[test]
    fn campaign_hardening_arms_vote_and_backoff() {
        let p = GuardPolicy::new().campaign_hardened();
        assert!(p.vote && p.backoff);
        let p = GuardPolicy::new().sensor_vote();
        assert!(p.vote && !p.backoff);
        // Both are off by default — single-class chaos runs never vote
        // or back off.
        assert!(!GuardPolicy::default().vote);
        assert!(!GuardPolicy::default().backoff);
    }

    #[test]
    fn vote_median_needs_a_full_window() {
        let mut g = ChannelGuard::new(1.0, 1.0, 10.0);
        for v in [5.0, 9.0, 7.0, 1.0] {
            g.votes.push(v);
        }
        assert_eq!(g.vote_median(), None);
        g.votes.push(3.0);
        assert_eq!(g.vote_median(), Some(5.0));
        // The window is bounded: a sixth push evicts the oldest.
        g.votes.push(100.0);
        assert_eq!(g.votes.len, CAMPAIGN_VOTE_WINDOW);
        assert_eq!(g.vote_median(), Some(7.0));
    }

    /// Enters fallback at epoch 0 and returns the dwell it got.
    fn dwell(g: &mut ChannelGuard, policy: &GuardPolicy) -> u64 {
        g.enter_fallback(policy, 0);
        match g.mode {
            GuardMode::Fallback { until } => until,
            GuardMode::Engaged => panic!("entry left the channel engaged"),
        }
    }

    #[test]
    fn backoff_schedule_doubles_caps_and_resets() {
        let policy = GuardPolicy::new().campaign_hardened();
        let mut g = ChannelGuard::new(1.0, 1.0, 10.0);
        for doublings in 0..=CAMPAIGN_BACKOFF_DOUBLINGS {
            assert_eq!(dwell(&mut g, &policy), COOLDOWN_EPOCHS << doublings);
        }
        // Saturates at the cap: 4 doublings -> 16x, forever after.
        assert_eq!(dwell(&mut g, &policy), 16 * COOLDOWN_EPOCHS);
        assert_eq!(g.backoff_exp, CAMPAIGN_BACKOFF_DOUBLINGS);
        // A clean recovery resets the schedule to the base cooldown.
        g.backoff_exp = 0;
        assert_eq!(dwell(&mut g, &policy), COOLDOWN_EPOCHS);
    }

    #[test]
    fn backoff_disabled_is_plain_cooldown() {
        let policy = GuardPolicy::new();
        let mut g = ChannelGuard::new(1.0, 1.0, 10.0);
        for _ in 0..5 {
            assert_eq!(dwell(&mut g, &policy), COOLDOWN_EPOCHS);
        }
        assert_eq!(g.backoff_exp, 0, "disabled backoff must not advance");
    }

    #[test]
    fn fallback_entry_invalidates_the_vote_window() {
        // Consensus gathered before a fallback hold describes a plant
        // the hold then actively drains; re-engaging on it would reopen
        // the actuator against a stale picture. Every entry flushes it.
        let policy = GuardPolicy::new().sensor_vote();
        let mut g = ChannelGuard::new(1.0, 1.0, 10.0);
        for v in [5.0, 6.0, 7.0, 8.0, 9.0] {
            g.votes.push(v);
        }
        assert_eq!(g.vote_median(), Some(7.0));
        g.enter_fallback(&policy, 0);
        assert_eq!(g.votes.len, 0);
        assert_eq!(g.vote_median(), None);
    }

    #[test]
    fn restart_clears_votes_and_backoff() {
        let policy = GuardPolicy::new().campaign_hardened();
        let mut g = ChannelGuard::new(40.0, 80.0, 495.0);
        g.votes.push(5.0);
        g.enter_fallback(&policy, 0);
        g.clean_streak = 7;
        g.reset_after_restart();
        assert_eq!(g.votes.len, 0);
        assert_eq!(g.backoff_exp, 0);
        assert_eq!(g.clean_streak, 0);
    }
}
