//! Controller-side resilience guards: the defense half of the chaos
//! plane.
//!
//! The control plane walks one degradation ladder when
//! [`FaultInjector`](crate::FaultInjector) faults (or real disturbances)
//! hit a channel. Every rung threshold is a constant of this module, the
//! way the paper's controller takes its parameters from the goal and the
//! profile rather than from a tuning knob; [`GuardPolicy`] only arms the
//! two campaign devices (sensor voting, re-engage backoff) and declares
//! each channel's profiled-safe fallback.
//!
//! 1. **Admission** — non-finite readings and spikes far from the median
//!    of recent readings are rejected before they reach the controller
//!    ([`smartconf_core::MedianFilter`], [`SPIKE_WINDOW`]/[`SPIKE_RATIO`]);
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

use smartconf_core::MedianFilter;

use crate::fault::FaultPlan;

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
pub(crate) enum GuardMode {
    /// Controller in charge.
    Engaged,
    /// Holding the static fallback until the given epoch.
    Fallback {
        /// First epoch at which the controller may re-engage.
        until: u64,
    },
}

/// Per-channel guard state (plane-internal).
#[derive(Debug)]
pub(crate) struct ChannelGuard {
    pub filter: MedianFilter,
    /// Consecutive epochs without an admitted reading.
    pub missed: u64,
    /// Last reading the (possibly faulty) sensor delivered.
    pub last_raw: Option<f64>,
    /// Length of the current exact-repeat run.
    pub stale_run: u64,
    /// Exact repeats observed while the in-force setting moved between
    /// readings (see [`ACTUATED_STALE_EPOCHS`]).
    pub actuated_stale: u64,
    /// The in-force setting of the previous epoch, for actuated-stale
    /// movement detection.
    pub prev_in_force: f64,
    /// Whether the in-force setting changed on the previous epoch.
    pub setting_moved: bool,
    /// Consecutive admitted epochs with a worsening violation.
    pub worsening: u32,
    /// |error| of the previous violating epoch.
    pub prev_violation: f64,
    pub mode: GuardMode,
    /// Profiled-safe fallback, controller space.
    pub fallback: f64,
    /// Initial setting, controller space (restart target).
    pub initial: f64,
    /// Last setting decided while the guard saw a healthy channel.
    pub last_safe: f64,
    /// Whether `last_safe` was recorded under the current goal. A
    /// [`set_goal`](crate::ControlPlane::set_goal) retarget clears this:
    /// until a healthy epoch under the new goal, *any* missed epoch
    /// reverts immediately (holding the old setting has no safety
    /// evidence behind it).
    pub evidence_fresh: bool,
    /// Setting actually in force at the plant, controller space
    /// (diverges from the controller's setting under actuator lag).
    pub in_force: f64,
    /// Lagged decisions waiting to reach the plant: `(due epoch, setting)`.
    pub pending: VecDeque<(u64, f64)>,
    /// The most recent epoch this channel decided (for out-of-band guard
    /// actions that happen between epochs, e.g. a goal retarget).
    pub last_epoch: u64,
    /// The scenario's own goal target (restored when a flap window ends).
    pub base_target: f64,
    /// Whether a goal flap is currently applied.
    pub flapped: bool,
    /// Raised by a restart until the embedder polls it (plant-side reset).
    pub plant_restart: bool,
    /// Raised while a degraded channel asks the plant to shed
    /// already-admitted work; held until the embedder polls
    /// [`take_plant_shed`](crate::ControlPlane::take_plant_shed).
    pub plant_shed: bool,
    /// Recently *admitted* readings feeding the sensor-voting median
    /// (see [`GuardPolicy::vote`]); bounded at [`CAMPAIGN_VOTE_WINDOW`].
    pub votes: VecDeque<f64>,
    /// Current position on the re-engage backoff schedule: the next
    /// fallback entry dwells `COOLDOWN_EPOCHS × 2^backoff_exp`.
    pub backoff_exp: u32,
    /// Consecutive healthy engaged epochs since the last fallback entry;
    /// reaching [`COOLDOWN_EPOCHS`] resets `backoff_exp`.
    pub clean_streak: u64,
}

impl ChannelGuard {
    pub(crate) fn new(fallback: f64, initial: f64, base_target: f64) -> Self {
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
            votes: VecDeque::new(),
            backoff_exp: 0,
            clean_streak: 0,
        }
    }

    /// Clears accumulated run state after a plant restart and raises the
    /// plant-side restart notification. The fallback, initial, and
    /// base-target configuration survive — they describe the scenario,
    /// not the run.
    pub(crate) fn reset_after_restart(&mut self) {
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

    /// Records a genuinely admitted reading into the voting window.
    pub(crate) fn push_vote(&mut self, v: f64) {
        if self.votes.len() == CAMPAIGN_VOTE_WINDOW {
            self.votes.pop_front();
        }
        self.votes.push_back(v);
    }

    /// The voting median — `Some` only once the window has fully warmed
    /// up (a partial window would let one early outlier speak for the
    /// channel).
    pub(crate) fn vote_median(&self) -> Option<f64> {
        if self.votes.len() < CAMPAIGN_VOTE_WINDOW {
            return None;
        }
        let mut sorted: Vec<f64> = self.votes.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[sorted.len() / 2])
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
    pub(crate) fn enter_fallback(&mut self, policy: &GuardPolicy, from: u64) {
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

    /// Tracks the exact-repeat run of delivered readings. Returns
    /// whether this reading exactly repeated the previous one. Repeats
    /// observed while the actuator moved between readings additionally
    /// advance `actuated_stale`; repeats at a held setting leave it
    /// unchanged (they carry no information either way).
    pub(crate) fn note_delivered(&mut self, v: f64) -> bool {
        if self.last_raw == Some(v) {
            self.stale_run += 1;
            if self.setting_moved {
                self.actuated_stale += 1;
            }
            true
        } else {
            self.stale_run = 0;
            self.actuated_stale = 0;
            self.last_raw = Some(v);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            g.push_vote(v);
        }
        assert_eq!(g.vote_median(), None);
        g.push_vote(3.0);
        assert_eq!(g.vote_median(), Some(5.0));
        // The window is bounded: a sixth push evicts the oldest.
        g.push_vote(100.0);
        assert_eq!(g.votes.len(), CAMPAIGN_VOTE_WINDOW);
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
            g.push_vote(v);
        }
        assert_eq!(g.vote_median(), Some(7.0));
        g.enter_fallback(&policy, 0);
        assert!(g.votes.is_empty());
        assert_eq!(g.vote_median(), None);
    }

    #[test]
    fn restart_clears_votes_and_backoff() {
        let policy = GuardPolicy::new().campaign_hardened();
        let mut g = ChannelGuard::new(40.0, 80.0, 495.0);
        g.push_vote(5.0);
        g.enter_fallback(&policy, 0);
        g.clean_streak = 7;
        g.reset_after_restart();
        assert!(g.votes.is_empty());
        assert_eq!(g.backoff_exp, 0);
        assert_eq!(g.clean_streak, 0);
    }
}
