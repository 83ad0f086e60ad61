//! Controller-side resilience guards: the defense half of the chaos
//! plane.
//!
//! [`GuardPolicy`] configures the degradation ladder the control plane
//! walks when [`FaultInjector`](crate::FaultInjector) faults (or real
//! disturbances) hit a channel:
//!
//! 1. **Admission** — non-finite readings and spikes far from the median
//!    of recent readings are rejected before they reach the controller
//!    ([`smartconf_core::MedianFilter`]); injected stale repeats are
//!    detected by an exact-repeat run combined with an error band (so
//!    legitimately quantized readings don't false-trigger).
//! 2. **Watchdog** — after `watchdog_epochs` consecutive epochs without
//!    an admitted reading, the channel reverts to the last setting
//!    decided while healthy, instead of holding whatever a corrupted
//!    tail decided.
//! 3. **Anti-windup** — when the actuator saturates, the integrator is
//!    back-calculated to the applied value so it doesn't wind up beyond
//!    what the plant can do.
//! 4. **Divergence fallback** — when the tracking error keeps growing on
//!    the violating side for `divergence_streak` consecutive admitted
//!    epochs of a hard goal, the channel degrades to its profiled-safe
//!    static fallback setting and re-engages after `cooldown_epochs`.
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
    /// The divergence detector entered fallback this epoch.
    pub const FALLBACK_ENTER: GuardSet = GuardSet(1 << 4);
    /// The channel spent this epoch in divergence fallback.
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
    /// [`GuardPolicy::confidence_floor`]; the channel degraded to its
    /// profiled-safe fallback until the estimator recovers.
    pub const MODEL_DOUBT: GuardSet = GuardSet(1 << 11);
    /// The sensor-voting filter substituted the median of recent
    /// admitted readings for a rejected one (see
    /// [`GuardPolicy::sensor_vote`]), keeping the controller fed instead
    /// of blind.
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

/// The confidence floor the case-study scenarios arm on adaptive chaos
/// runs ([`GuardPolicy::confidence_floor`]): low enough that a healthy
/// estimator (seeded near its profile, residuals small) never trips it,
/// high enough that a corrupted-feedback collapse degrades the channel
/// to its profiled-safe fallback within a few epochs.
pub const ADAPTIVE_CONFIDENCE_FLOOR: f64 = 0.15;

/// The sensor-vote window the scenarios arm on compound-fault campaign
/// runs ([`GuardPolicy::campaign_hardened`]): wide enough that one
/// corrupted burst cannot dominate the median, narrow enough that the
/// substituted consensus still tracks a moving plant.
pub const CAMPAIGN_VOTE_WINDOW: usize = 5;

/// The re-engage backoff cap the scenarios arm on campaign runs
/// ([`GuardPolicy::campaign_hardened`]): at most 4 doublings, i.e. a
/// 16× longest cooldown before the schedule saturates.
pub const CAMPAIGN_BACKOFF_DOUBLINGS: u32 = 4;

/// Exact repeats *while the actuator moved between readings* before
/// the sensor counts as frozen regardless of how close the repeated
/// value sits to the target. A plant whose setting changes should not
/// return bit-identical measurements; repeats at a *held* setting (a
/// converged controller) never advance this counter, so legitimate
/// steady states cannot trip it. On a hard-goal channel the detection
/// escalates straight to the profiled-safe fallback.
pub(crate) const ACTUATED_STALE_EPOCHS: u64 = 4;

/// Tuning of the resilience guards, one policy per plane.
///
/// # Example
///
/// ```
/// use smartconf_runtime::GuardPolicy;
///
/// let policy = GuardPolicy::new()
///     .watchdog_epochs(3)        // revert after 3 missed epochs
///     .spike_filter(5, 8.0)      // median of 5, reject beyond 8x
///     .stale_detection(8, 0.05)  // 8 exact repeats while off-target
///     .divergence(3, 60)         // 3 worsening epochs -> 60-epoch fallback
///     .fallback_setting("max.queue.size", 40.0);
/// assert_eq!(policy.watchdog_epochs, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GuardPolicy {
    /// Consecutive epochs without an admitted reading before the
    /// watchdog reverts to the last healthy setting.
    pub watchdog_epochs: u64,
    /// Window length of the median spike filter.
    pub spike_window: usize,
    /// Spike threshold: readings beyond `ratio × (1 + |median|)` are
    /// rejected once the window has warmed up.
    pub spike_ratio: f64,
    /// Exact-repeat run length before a reading counts as stale.
    pub stale_epochs: u64,
    /// Staleness requires the repeated reading to also sit outside this
    /// fraction of the target (legitimately quantized readings repeat
    /// *near* the target and must not trigger the hold).
    pub stale_error_frac: f64,
    /// Consecutive worsening violating epochs (hard goals) before the
    /// channel degrades to its static fallback.
    pub divergence_streak: u32,
    /// Fallback dwell time in epochs before the controller re-engages.
    pub cooldown_epochs: u64,
    /// Adaptive channels only: when the online estimator's confidence
    /// falls below this floor, the channel degrades to its profiled-safe
    /// fallback (one divergence-style cooldown) and re-engages once the
    /// estimator recovers above the floor — the safety net for model
    /// drift. `0.0` (the default) never fires, so frozen-model planes
    /// are untouched bit for bit.
    pub confidence_floor: f64,
    /// Sensor-voting window: when the admission filter rejects a
    /// delivered reading (non-finite or spike) and at least this many
    /// readings have been admitted since the last gap, the guard
    /// substitutes their median instead of marking the epoch missed —
    /// the controller stays fed through corruption bursts rather than
    /// going blind into the watchdog. `0` (the default) disables voting,
    /// leaving existing single-fault chaos trajectories untouched bit
    /// for bit. Recorded as [`GuardSet::VOTED`] (alongside
    /// [`GuardSet::REJECTED`] for the raw reading).
    pub vote_window: usize,
    /// Re-engage backoff cap, in doublings: every fallback entry after
    /// the first doubles the cooldown dwell (jitter-free — the schedule
    /// is a pure function of the entry count), saturating after this
    /// many doublings; a clean stretch of [`cooldown_epochs`](Self::cooldown_epochs)
    /// healthy engaged epochs resets the schedule to the base cooldown.
    /// `0` (the default) disables backoff: every entry dwells exactly
    /// `cooldown_epochs`, as before.
    pub reengage_backoff: u32,
    fallbacks: Vec<(String, f64)>,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            watchdog_epochs: 5,
            spike_window: 5,
            spike_ratio: 8.0,
            stale_epochs: 8,
            stale_error_frac: 0.05,
            divergence_streak: 3,
            cooldown_epochs: 60,
            confidence_floor: 0.0,
            vote_window: 0,
            reengage_backoff: 0,
            fallbacks: Vec::new(),
        }
    }
}

impl GuardPolicy {
    /// The default policy (see field docs for the defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the watchdog threshold (clamped ≥ 1).
    #[must_use]
    pub fn watchdog_epochs(mut self, m: u64) -> Self {
        self.watchdog_epochs = m.max(1);
        self
    }

    /// Configures the median spike filter.
    #[must_use]
    pub fn spike_filter(mut self, window: usize, ratio: f64) -> Self {
        self.spike_window = window.max(1);
        self.spike_ratio = ratio.max(1.0);
        self
    }

    /// Configures stale-repeat detection: `epochs` exact repeats while
    /// the reading sits more than `error_frac` of the target away from
    /// it.
    #[must_use]
    pub fn stale_detection(mut self, epochs: u64, error_frac: f64) -> Self {
        self.stale_epochs = epochs.max(2);
        self.stale_error_frac = error_frac.max(0.0);
        self
    }

    /// Configures the divergence detector: `streak` consecutive
    /// worsening violations trigger a fallback lasting `cooldown`
    /// epochs.
    #[must_use]
    pub fn divergence(mut self, streak: u32, cooldown: u64) -> Self {
        self.divergence_streak = streak.max(1);
        self.cooldown_epochs = cooldown.max(1);
        self
    }

    /// Sets the confidence floor below which an adaptive channel
    /// degrades to its profiled-safe fallback (clamped to `[0, 1)`; see
    /// the [`GuardPolicy::confidence_floor`] field docs).
    #[must_use]
    pub fn confidence_floor(mut self, floor: f64) -> Self {
        self.confidence_floor = if floor.is_finite() {
            floor.clamp(0.0, 0.999)
        } else {
            0.0
        };
        self
    }

    /// Arms the sensor-voting filter: rejected readings are replaced by
    /// the median of the last `window` admitted ones once the window has
    /// warmed up (see the [`GuardPolicy::vote_window`] field docs;
    /// `0` disables, larger windows are clamped to 33).
    #[must_use]
    pub fn sensor_vote(mut self, window: usize) -> Self {
        self.vote_window = window.min(33);
        self
    }

    /// Arms deterministic re-engage backoff with the given doubling cap
    /// (see the [`GuardPolicy::reengage_backoff`] field docs; `0`
    /// disables, caps beyond 32 are clamped — `2³²` cooldowns outlive
    /// any run).
    #[must_use]
    pub fn reengage_backoff(mut self, doublings: u32) -> Self {
        self.reengage_backoff = doublings.min(32);
        self
    }

    /// The compound-campaign hardening bundle: arms sensor voting
    /// ([`CAMPAIGN_VOTE_WINDOW`]) and re-engage backoff
    /// ([`CAMPAIGN_BACKOFF_DOUBLINGS`]) on top of whatever the policy
    /// already configures, leaving either untouched if a scenario armed
    /// its own value. Scenario crates call this when building the guard
    /// for a [`Campaign`](crate::Campaign) run.
    #[must_use]
    pub fn campaign_hardened(mut self) -> Self {
        if self.vote_window == 0 {
            self.vote_window = CAMPAIGN_VOTE_WINDOW;
        }
        if self.reengage_backoff == 0 {
            self.reengage_backoff = CAMPAIGN_BACKOFF_DOUBLINGS;
        }
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
/// fault plan, and the guard tuning. `(seed, plan)` fully determines the
/// injected faults, so a chaos run is replayable from its spec.
///
/// # Example
///
/// ```
/// use smartconf_runtime::{ChaosSpec, FaultClass, GuardPolicy};
///
/// let spec = ChaosSpec::standard(FaultClass::SensorDropout, 42)
///     .with_guard(GuardPolicy::new().watchdog_epochs(3));
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
    /// The guard tuning.
    pub guard: GuardPolicy,
}

impl ChaosSpec {
    /// A spec from an explicit plan with the default guards.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        ChaosSpec {
            seed,
            plan,
            guard: GuardPolicy::default(),
        }
    }

    /// The canonical spec for one fault class of the chaos sweep.
    pub fn standard(class: crate::FaultClass, seed: u64) -> Self {
        Self::new(seed, class.standard_plan())
    }

    /// The canonical spec for one compound-fault campaign: the
    /// campaign's composed plan with the default guards — scenario
    /// crates then swap in their tuned policy via
    /// [`with_guard`](Self::with_guard), typically after
    /// [`GuardPolicy::campaign_hardened`].
    pub fn campaign(campaign: crate::Campaign, seed: u64) -> Self {
        Self::new(seed, campaign.plan())
    }

    /// Replaces the guard policy.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardPolicy) -> Self {
        self.guard = guard;
        self
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
    /// (see [`GuardPolicy::vote_window`]); bounded at the window length.
    pub votes: VecDeque<f64>,
    /// Current position on the re-engage backoff schedule: the next
    /// fallback entry dwells `cooldown_epochs × 2^min(backoff_exp, cap)`.
    pub backoff_exp: u32,
    /// Consecutive healthy engaged epochs since the last fallback entry;
    /// reaching [`GuardPolicy::cooldown_epochs`] resets `backoff_exp`.
    pub clean_streak: u64,
}

impl ChannelGuard {
    pub(crate) fn new(policy: &GuardPolicy, fallback: f64, initial: f64, base_target: f64) -> Self {
        ChannelGuard {
            filter: MedianFilter::new(policy.spike_window, policy.spike_ratio),
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

    /// Records a genuinely admitted reading into the voting window
    /// (no-op when voting is disabled).
    pub(crate) fn push_vote(&mut self, v: f64, window: usize) {
        if window == 0 {
            return;
        }
        if self.votes.len() == window {
            self.votes.pop_front();
        }
        self.votes.push_back(v);
    }

    /// The voting median — `Some` only once the window has fully warmed
    /// up (a partial window would let one early outlier speak for the
    /// channel). Upper median for even windows.
    pub(crate) fn vote_median(&self, window: usize) -> Option<f64> {
        if window == 0 || self.votes.len() < window {
            return None;
        }
        let mut sorted: Vec<f64> = self.votes.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[sorted.len() / 2])
    }

    /// The cooldown dwell for a fallback entered *now*, advancing the
    /// deterministic backoff schedule: the returned dwell reflects the
    /// entries so far, then the exponent steps (saturating at the
    /// policy's cap) so the *next* entry dwells twice as long. With
    /// backoff disabled this is exactly `cooldown_epochs`, bit for bit.
    ///
    /// Entering fallback also invalidates the sensor-vote window: the
    /// hold actively drains the plant, so pre-entry consensus no longer
    /// describes it at re-engage (acting on a drained-era median there
    /// reopens the actuator against a picture that is minutes stale).
    pub(crate) fn enter_cooldown(&mut self, policy: &GuardPolicy) -> u64 {
        let shift = self.backoff_exp.min(policy.reengage_backoff).min(63);
        let dwell = policy.cooldown_epochs.saturating_mul(1u64 << shift);
        if policy.reengage_backoff > 0 && self.backoff_exp < policy.reengage_backoff {
            self.backoff_exp += 1;
        }
        self.clean_streak = 0;
        self.votes.clear();
        dwell
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
    use crate::{FaultClass, FaultInjector};

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
    fn policy_builder_clamps() {
        let p = GuardPolicy::new()
            .watchdog_epochs(0)
            .spike_filter(0, 0.5)
            .stale_detection(0, -1.0)
            .divergence(0, 0);
        assert_eq!(p.watchdog_epochs, 1);
        assert_eq!(p.spike_window, 1);
        assert_eq!(p.spike_ratio, 1.0);
        assert_eq!(p.stale_epochs, 2);
        assert_eq!(p.stale_error_frac, 0.0);
        assert_eq!(p.divergence_streak, 1);
        assert_eq!(p.cooldown_epochs, 1);
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
    fn chaos_spec_standard_replayable() {
        let a = ChaosSpec::standard(FaultClass::Corruption, 7);
        let b = ChaosSpec::standard(FaultClass::Corruption, 7);
        assert_eq!(a, b);
        let inj_a = FaultInjector::new(a.seed, a.plan.clone());
        let inj_b = FaultInjector::new(b.seed, b.plan.clone());
        for epoch in 0..500 {
            assert_eq!(inj_a.at("x", 0, epoch), inj_b.at("x", 0, epoch));
        }
    }

    #[test]
    fn stale_run_tracking() {
        let mut g = ChannelGuard::new(&GuardPolicy::default(), 1.0, 1.0, 10.0);
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
        let mut g = ChannelGuard::new(&GuardPolicy::default(), 40.0, 80.0, 495.0);
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
    fn confidence_floor_clamps() {
        assert_eq!(
            GuardPolicy::new().confidence_floor(0.5).confidence_floor,
            0.5
        );
        assert_eq!(
            GuardPolicy::new().confidence_floor(2.0).confidence_floor,
            0.999
        );
        assert_eq!(
            GuardPolicy::new().confidence_floor(-1.0).confidence_floor,
            0.0
        );
        assert_eq!(
            GuardPolicy::new()
                .confidence_floor(f64::NAN)
                .confidence_floor,
            0.0
        );
        // The default never fires.
        assert_eq!(GuardPolicy::default().confidence_floor, 0.0);
    }

    #[test]
    fn campaign_hardening_arms_vote_and_backoff() {
        let p = GuardPolicy::new().campaign_hardened();
        assert_eq!(p.vote_window, CAMPAIGN_VOTE_WINDOW);
        assert_eq!(p.reengage_backoff, CAMPAIGN_BACKOFF_DOUBLINGS);
        // Scenario-armed values survive the bundle.
        let p = GuardPolicy::new()
            .sensor_vote(7)
            .reengage_backoff(2)
            .campaign_hardened();
        assert_eq!(p.vote_window, 7);
        assert_eq!(p.reengage_backoff, 2);
        // Both are off by default — existing chaos runs are untouched.
        assert_eq!(GuardPolicy::default().vote_window, 0);
        assert_eq!(GuardPolicy::default().reengage_backoff, 0);
    }

    #[test]
    fn vote_median_needs_a_full_window() {
        let policy = GuardPolicy::new().sensor_vote(3);
        let mut g = ChannelGuard::new(&policy, 1.0, 1.0, 10.0);
        g.push_vote(5.0, policy.vote_window);
        g.push_vote(9.0, policy.vote_window);
        assert_eq!(g.vote_median(policy.vote_window), None);
        g.push_vote(7.0, policy.vote_window);
        assert_eq!(g.vote_median(policy.vote_window), Some(7.0));
        // The window is bounded: a fourth push evicts the oldest.
        g.push_vote(100.0, policy.vote_window);
        assert_eq!(g.votes.len(), 3);
        assert_eq!(g.vote_median(policy.vote_window), Some(9.0));
        // Disabled voting never yields a median and never buffers.
        let mut off = ChannelGuard::new(&GuardPolicy::default(), 1.0, 1.0, 10.0);
        off.push_vote(5.0, 0);
        assert!(off.votes.is_empty());
        assert_eq!(off.vote_median(0), None);
    }

    #[test]
    fn backoff_schedule_doubles_caps_and_resets() {
        let policy = GuardPolicy::new().divergence(3, 10).reengage_backoff(2);
        let mut g = ChannelGuard::new(&policy, 1.0, 1.0, 10.0);
        assert_eq!(g.enter_cooldown(&policy), 10);
        assert_eq!(g.enter_cooldown(&policy), 20);
        assert_eq!(g.enter_cooldown(&policy), 40);
        // Saturates at the cap: 2 doublings -> 4x, forever after.
        assert_eq!(g.enter_cooldown(&policy), 40);
        assert_eq!(g.backoff_exp, 2);
        // A clean recovery resets the schedule to the base cooldown.
        g.backoff_exp = 0;
        assert_eq!(g.enter_cooldown(&policy), 10);
    }

    #[test]
    fn backoff_disabled_is_plain_cooldown() {
        let policy = GuardPolicy::new().divergence(3, 60);
        let mut g = ChannelGuard::new(&policy, 1.0, 1.0, 10.0);
        for _ in 0..5 {
            assert_eq!(g.enter_cooldown(&policy), 60);
        }
        assert_eq!(g.backoff_exp, 0, "disabled backoff must not advance");
    }

    #[test]
    fn fallback_entry_invalidates_the_vote_window() {
        // Consensus gathered before a fallback hold describes a plant
        // the hold then actively drains; re-engaging on it would reopen
        // the actuator against a stale picture. Every entry flushes it.
        let policy = GuardPolicy::new().sensor_vote(3).divergence(3, 10);
        let mut g = ChannelGuard::new(&policy, 1.0, 1.0, 10.0);
        for v in [5.0, 6.0, 7.0] {
            g.push_vote(v, policy.vote_window);
        }
        assert_eq!(g.vote_median(policy.vote_window), Some(6.0));
        g.enter_cooldown(&policy);
        assert!(g.votes.is_empty());
        assert_eq!(g.vote_median(policy.vote_window), None);
    }

    #[test]
    fn restart_clears_votes_and_backoff() {
        let policy = GuardPolicy::new().sensor_vote(3).reengage_backoff(4);
        let mut g = ChannelGuard::new(&policy, 40.0, 80.0, 495.0);
        g.push_vote(5.0, policy.vote_window);
        g.enter_cooldown(&policy);
        g.clean_streak = 7;
        g.reset_after_restart();
        assert!(g.votes.is_empty());
        assert_eq!(g.backoff_exp, 0);
        assert_eq!(g.clean_streak, 0);
    }

    #[test]
    fn chaos_spec_campaign_replayable() {
        let a = ChaosSpec::campaign(crate::Campaign::RestartUnderCorruption, 7);
        let b = ChaosSpec::campaign(crate::Campaign::RestartUnderCorruption, 7);
        assert_eq!(a, b);
        assert!(a.plan.windows().len() >= 2, "campaigns compose windows");
    }
}
