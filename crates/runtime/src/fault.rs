//! Deterministic fault injection: the chaos half of the resilience plane.
//!
//! A [`FaultPlan`] declares *where* faults happen (per-channel,
//! per-epoch-window, optionally periodic and probabilistic); a
//! [`FaultInjector`] evaluates the plan as a **pure function** of
//! `(seed, plan, channel, epoch)` — no mutable RNG state — so a chaos
//! run is byte-identical at any worker-thread count and replayable from
//! the `(seed, FaultPlan)` pair alone. The injector seed is derived from
//! the same [`shard_seed`](crate::shard_seed) material the fleet
//! executor uses, keeping fleet chaos sweeps deterministic end to end.
//!
//! The control plane consumes the injector inside
//! [`ControlPlane::decide`](crate::ControlPlane::decide) when chaos has
//! been armed via [`ControlPlane::enable_chaos`](crate::ControlPlane::enable_chaos);
//! the matching defenses live in [`GuardPolicy`](crate::GuardPolicy).

use std::fmt;

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The sensor returns no reading this epoch.
    SensorDropout,
    /// The sensor repeats the last reading it delivered instead of a
    /// fresh one (a frozen metrics pipeline).
    SensorStale,
    /// The sensor returns `NaN` (a torn read, a failed RPC decoded as
    /// garbage).
    SensorNan,
    /// The sensor returns the true reading multiplied by `factor` (a
    /// unit mix-up or counter glitch).
    SensorSpike {
        /// Multiplier applied to the true reading.
        factor: f64,
    },
    /// The decided setting reaches the plant `epochs` epochs late; until
    /// then the previously-applied setting stays in force.
    ActuatorLag {
        /// Actuation delay, in epochs.
        epochs: u64,
    },
    /// The actuator cannot move past `frac` of the controller's bounds
    /// range: the applied setting is capped at `lo + frac·(hi − lo)`.
    ActuatorSaturate {
        /// Fraction of the controller's bound range the actuator can
        /// reach, in `[0, 1]`.
        frac: f64,
    },
    /// The goal target flaps to `base × (1 − frac)` while the window is
    /// active and back to `base` outside it.
    GoalFlap {
        /// Relative tightening of the target while flapped.
        frac: f64,
    },
    /// Full plant restart: the configuration reverts to the controller's
    /// initial setting and accumulated controller and guard state is
    /// discarded. A frozen-model channel logs
    /// [`GuardSet::REPROFILE`](crate::GuardSet::REPROFILE); nothing
    /// re-profiles it.
    PlantRestart,
}

/// One fault, active over a per-channel epoch window on every channel
/// of the plane.
///
/// The window covers epochs `start..end`; with a non-zero `period` it is
/// only active for the first `active` epochs of each period (a repeating
/// burst — e.g. 10 dropped readings every 150 epochs), and `probability`
/// gates each epoch independently via the injector's deterministic roll.
/// Coverage is a pure function of `(channel, epoch)`, re-tested on every
/// epoch the injector evaluates; nothing schedules window boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// First epoch (per-channel epoch counter) the window covers.
    pub start: u64,
    /// End of the window, exclusive (`u64::MAX` = until the run ends).
    pub end: u64,
    /// Burst period in epochs; `0` means continuously active.
    pub period: u64,
    /// Epochs active at the start of each period (ignored when
    /// `period == 0`).
    pub active: u64,
    /// Per-epoch activation probability in `[0, 1]`.
    pub probability: f64,
    /// Cross-channel phase stagger in epochs: channel `c` (plane index)
    /// sees the window shifted `c × stagger` epochs later, so a burst
    /// rolls across a multi-channel plane in declaration order instead
    /// of striking every channel at once (`0` = simultaneous).
    pub stagger: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// A continuous, always-on window over `start..end` for all channels.
    pub fn new(kind: FaultKind, start: u64, end: u64) -> Self {
        FaultWindow {
            start,
            end,
            period: 0,
            active: 0,
            probability: 1.0,
            stagger: 0,
            kind,
        }
    }

    /// Makes the window a repeating burst: active for the first `active`
    /// epochs of every `period` epochs after `start`.
    #[must_use]
    pub fn periodic(mut self, period: u64, active: u64) -> Self {
        self.period = period;
        self.active = active;
        self
    }

    /// Gates each active epoch on a deterministic roll below `p`.
    #[must_use]
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Staggers the window across channels: channel `c` sees it shifted
    /// `c × epochs` later (see the [`FaultWindow::stagger`] field docs).
    #[must_use]
    pub fn staggered(mut self, epochs: u64) -> Self {
        self.stagger = epochs;
        self
    }

    /// The effective `(start, end)` for one channel: `stagger` shifts
    /// both edges by `channel × stagger` (an unbounded end stays
    /// unbounded). Pure, so the staggered schedule is as replayable as
    /// the unstaggered one.
    fn range_for(&self, channel: u32) -> (u64, u64) {
        if self.stagger == 0 {
            return (self.start, self.end);
        }
        let delta = (channel as u64).saturating_mul(self.stagger);
        let end = if self.end == u64::MAX {
            u64::MAX
        } else {
            self.end.saturating_add(delta)
        };
        (self.start.saturating_add(delta), end)
    }

    fn covers_epoch(&self, channel: u32, epoch: u64) -> bool {
        let (start, end) = self.range_for(channel);
        if epoch < start || epoch >= end {
            return false;
        }
        if self.period == 0 {
            return true;
        }
        (epoch - start) % self.period < self.active
    }
}

/// A declarative list of [`FaultWindow`]s — everything the injector
/// needs besides its seed, which makes `(seed, FaultPlan)` a complete,
/// replayable description of a chaos run.
///
/// # Example
///
/// ```
/// use smartconf_runtime::{FaultInjector, FaultKind, FaultPlan, FaultWindow};
///
/// // Drop 10 consecutive sensor readings every 150 epochs, and corrupt
/// // 2% of the rest to NaN.
/// let plan = FaultPlan::new()
///     .window(FaultWindow::new(FaultKind::SensorDropout, 40, u64::MAX).periodic(150, 10))
///     .window(FaultWindow::new(FaultKind::SensorNan, 40, u64::MAX).with_probability(0.02));
/// assert_eq!(plan.windows().len(), 2);
///
/// // The injector is a pure function of (seed, plan, channel, epoch):
/// let a = FaultInjector::new(7, plan.clone());
/// let b = FaultInjector::new(7, plan);
/// assert_eq!(a.at(0, 45), b.at(0, 45));
/// assert!(a.at(0, 45).sensor.is_some()); // inside the burst
/// assert!(a.at(0, 30).is_clean()); // before any window starts
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a window (builder style).
    #[must_use]
    pub fn window(mut self, w: FaultWindow) -> Self {
        self.windows.push(w);
        self
    }

    /// The declared windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Whether the plan declares no faults.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Appends every window of `other` after this plan's own — the
    /// composition primitive behind compound-fault [`Campaign`]s. Window
    /// indices (and therefore the injector's per-window rolls) follow
    /// concatenation order, so `a.merge(b)` and `b.merge(a)` are
    /// distinct, replayable plans.
    #[must_use]
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.windows.extend(other.windows);
        self
    }
}

/// The named fault classes of the chaos sweep — one per failure mode the
/// resilience guards defend against. [`FaultClass::standard_plan`] maps
/// each class to a canonical [`FaultPlan`] so every scenario's chaos run
/// is comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Periodic bursts of missing sensor readings.
    SensorDropout,
    /// Periodic bursts of frozen (exactly repeated) sensor readings.
    StaleRepeat,
    /// Background NaN readings plus periodic multiplicative spikes.
    Corruption,
    /// Periodic windows where decisions reach the plant epochs late.
    ActuatorLag,
    /// Periodic windows where the actuator cannot move past a fraction
    /// of its range.
    ActuatorSaturation,
    /// The goal target flapping down and back.
    GoalFlap,
    /// Periodic full plant restarts.
    PlantRestart,
}

impl FaultClass {
    /// Every fault class, in sweep order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::SensorDropout,
        FaultClass::StaleRepeat,
        FaultClass::Corruption,
        FaultClass::ActuatorLag,
        FaultClass::ActuatorSaturation,
        FaultClass::GoalFlap,
        FaultClass::PlantRestart,
    ];

    /// Stable display label (used in policy names and reports).
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::SensorDropout => "SensorDropout",
            FaultClass::StaleRepeat => "StaleRepeat",
            FaultClass::Corruption => "Corruption",
            FaultClass::ActuatorLag => "ActuatorLag",
            FaultClass::ActuatorSaturation => "ActuatorSaturation",
            FaultClass::GoalFlap => "GoalFlap",
            FaultClass::PlantRestart => "PlantRestart",
        }
    }

    /// The canonical plan for this class: a short clean warm-up, then
    /// repeating bursts. The warm-up and periods are sized so scenarios
    /// with tens of epochs (HD4995 runs ~18 control epochs) still see at
    /// least one burst of every class, while scenarios with tens of
    /// thousands see many.
    pub fn standard_plan(&self) -> FaultPlan {
        const WARMUP: u64 = 6;
        let plan = FaultPlan::new();
        match self {
            FaultClass::SensorDropout => plan.window(
                FaultWindow::new(FaultKind::SensorDropout, WARMUP, u64::MAX).periodic(120, 8),
            ),
            FaultClass::StaleRepeat => plan.window(
                FaultWindow::new(FaultKind::SensorStale, WARMUP, u64::MAX).periodic(120, 14),
            ),
            FaultClass::Corruption => plan
                .window(
                    FaultWindow::new(FaultKind::SensorNan, WARMUP, u64::MAX).with_probability(0.02),
                )
                .window(
                    FaultWindow::new(FaultKind::SensorSpike { factor: 25.0 }, WARMUP, u64::MAX)
                        .periodic(90, 3),
                ),
            FaultClass::ActuatorLag => plan.window(
                FaultWindow::new(FaultKind::ActuatorLag { epochs: 4 }, WARMUP, u64::MAX)
                    .periodic(160, 24),
            ),
            FaultClass::ActuatorSaturation => plan.window(
                FaultWindow::new(FaultKind::ActuatorSaturate { frac: 0.10 }, WARMUP, u64::MAX)
                    .periodic(150, 20),
            ),
            FaultClass::GoalFlap => plan.window(
                FaultWindow::new(FaultKind::GoalFlap { frac: 0.15 }, 2 * WARMUP, u64::MAX)
                    .periodic(140, 60),
            ),
            FaultClass::PlantRestart => plan.window(
                FaultWindow::new(FaultKind::PlantRestart, 2 * WARMUP, u64::MAX).periodic(300, 1),
            ),
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A named compound-fault campaign: several [`FaultClass`]es striking
/// one run concurrently, with correlated timing — the failure shapes
/// real deployments see (a restart *while* sensors are corrupted,
/// actuator lag *during* a goal flap) that single-class chaos sweeps
/// never exercise. Like the classes, each campaign maps to a canonical
/// [`FaultPlan`] ([`Campaign::plan`]) evaluated by the same stateless
/// per-`(seed, window, channel, epoch)` injector hash, so campaign
/// fleets stay byte-identical at any worker-thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// Periodic plant restarts landing on top of the Corruption class's
    /// background NaN readings and multiplicative spikes: the controller
    /// must relearn (or re-profile) from a sensor it cannot fully trust.
    RestartUnderCorruption,
    /// Actuator-lag bursts aligned with the opening epochs of each
    /// goal-flap window: every retarget happens exactly while decisions
    /// reach the plant late.
    LagDuringGoalFlap,
    /// Sensor-dropout bursts rolling across the plane's channels in
    /// declaration order (4-epoch stagger), over a background of rare
    /// NaN corruption — a metrics pipeline failing shard by shard.
    CascadingDropout,
    /// Every fault class at once: all seven canonical plans merged into
    /// one, overlapping freely. The kitchen-sink worst case the guard
    /// ladder must survive without a hard-goal violation.
    BurstEverything,
}

impl Campaign {
    /// Every campaign, in sweep order.
    pub const ALL: [Campaign; 4] = [
        Campaign::RestartUnderCorruption,
        Campaign::LagDuringGoalFlap,
        Campaign::CascadingDropout,
        Campaign::BurstEverything,
    ];

    /// Stable kebab-case label (used in policy names and reports).
    pub fn label(&self) -> &'static str {
        match self {
            Campaign::RestartUnderCorruption => "restart-under-corruption",
            Campaign::LagDuringGoalFlap => "lag-during-goal-flap",
            Campaign::CascadingDropout => "cascading-dropout",
            Campaign::BurstEverything => "burst-everything",
        }
    }

    /// The canonical compound plan for this campaign. Warm-ups and
    /// periods follow the single-class plans ([`FaultClass::standard_plan`])
    /// so short scenarios still see at least one compound burst.
    pub fn plan(&self) -> FaultPlan {
        const WARMUP: u64 = 6;
        match self {
            Campaign::RestartUnderCorruption => FaultClass::Corruption
                .standard_plan()
                .merge(FaultClass::PlantRestart.standard_plan()),
            Campaign::LagDuringGoalFlap => FaultPlan::new()
                .window(
                    FaultWindow::new(FaultKind::GoalFlap { frac: 0.15 }, 2 * WARMUP, u64::MAX)
                        .periodic(140, 60),
                )
                .window(
                    // Same period and phase as the flap: the lag burst is
                    // the first 24 epochs of every 60-epoch flap window.
                    FaultWindow::new(FaultKind::ActuatorLag { epochs: 4 }, 2 * WARMUP, u64::MAX)
                        .periodic(140, 24),
                ),
            Campaign::CascadingDropout => FaultPlan::new()
                .window(
                    FaultWindow::new(FaultKind::SensorDropout, WARMUP, u64::MAX)
                        .periodic(120, 8)
                        .staggered(4),
                )
                .window(
                    FaultWindow::new(FaultKind::SensorNan, WARMUP, u64::MAX).with_probability(0.01),
                ),
            Campaign::BurstEverything => FaultClass::ALL
                .into_iter()
                .fold(FaultPlan::new(), |plan, class| {
                    plan.merge(class.standard_plan())
                }),
        }
    }
}

impl fmt::Display for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The fault classes the soak's fault-plane arms exercise, in arm order.
/// The other three classes (StaleRepeat, ActuatorSaturation, GoalFlap)
/// act on control-plane state the distilled slab law does not carry, so
/// they stay chaos-sweep-only.
pub const SOAK_FAULT_CLASSES: [FaultClass; 4] = [
    FaultClass::SensorDropout,
    FaultClass::Corruption,
    FaultClass::ActuatorLag,
    FaultClass::PlantRestart,
];

/// Background NaN probability of the soak Corruption arm (matches the
/// [`FaultClass::Corruption`] standard plan).
pub const SOAK_NAN_PROBABILITY: f64 = 0.02;
/// Spike multiplier of the soak Corruption arm.
pub const SOAK_SPIKE_FACTOR: f64 = 25.0;
/// Actuation delay of the soak ActuatorLag arm, epochs. Soak cohorts
/// run 24–96 epochs total, so the chaos sweep's 4-epoch lag is scaled
/// down to keep bursts shorter than a burst period.
pub const SOAK_LAG_EPOCHS: u64 = 2;

/// Tenant-keyed stateless fault windows: the soak-scale analogue of a
/// [`FaultPlan`] evaluated by [`FaultInjector`].
///
/// Every tenant of a soak cohort sees repeating fault bursts whose phase
/// is a pure SplitMix64 hash of `(seed, tenant)` — the same
/// stateless-roll scheme [`FaultInjector`] uses per
/// `(seed, window, channel, epoch)` — so bursts roll across the tenant
/// population instead of striking every tenant at once, and activation
/// is a pure function of `(seed, tenant, epoch)`: byte-identical at any
/// worker-thread count and replayable from the `(class, seed, epochs)`
/// triple alone.
///
/// Burst geometry is sized from the cohort's total epoch budget
/// ([`TenantFaultWindows::sized_for`]): roughly four bursts per run,
/// each a sixteenth of the run long, after a short clean warm-up —
/// the same shape [`FaultClass::standard_plan`] gives scenarios with
/// hundreds of epochs, compressed into a 24–96-epoch soak cohort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantFaultWindows {
    seed: u64,
    class: FaultClass,
    /// Burst period, epochs.
    pub period: u64,
    /// Active epochs at the head of each (per-tenant phased) period.
    pub active: u64,
    /// Clean warm-up epochs before any tenant's first burst.
    pub warmup: u64,
}

impl TenantFaultWindows {
    /// Windows for one soak arm, sized for a cohort that runs `epochs`
    /// sense epochs total.
    ///
    /// # Panics
    ///
    /// Panics when `class` is not one of [`SOAK_FAULT_CLASSES`].
    pub fn sized_for(class: FaultClass, seed: u64, epochs: u64) -> TenantFaultWindows {
        assert!(
            SOAK_FAULT_CLASSES.contains(&class),
            "{class} is not a soak fault arm"
        );
        let period = (epochs / 4).max(6);
        let active = if class == FaultClass::PlantRestart {
            1
        } else {
            (epochs / 16).max(2).min(period - 1)
        };
        TenantFaultWindows {
            seed,
            class,
            period,
            active,
            warmup: (epochs / 12).max(2),
        }
    }

    /// The fault class these windows inject.
    pub fn class(&self) -> FaultClass {
        self.class
    }

    /// The tenant's burst phase in `[0, period)`: a pure hash of
    /// `(seed, tenant)`, so each tenant's bursts start at
    /// `warmup + phase, warmup + phase + period, …`.
    pub fn phase(&self, tenant: u64) -> u64 {
        crate::shard_seed(self.seed, tenant) % self.period
    }

    /// The tenant's per-`(seed, tenant)` constants — its burst phase
    /// and the tenant half of the corruption roll — hashed once, so a
    /// sweep over many epochs pays for them once per tenant.
    #[inline]
    pub fn schedule(&self, tenant: u64) -> TenantFaultSchedule {
        TenantFaultSchedule {
            phase: self.phase(tenant),
            roll_key: self
                .seed
                .wrapping_add(tenant.wrapping_mul(0xE703_7ED1_A0B4_28DB)),
        }
    }

    /// The tenant-independent half of [`at`](TenantFaultWindows::at) for
    /// one epoch: its place past the warm-up and inside the burst
    /// period, and the epoch half of the corruption roll.
    #[inline]
    pub fn tick(&self, epoch: u64) -> FaultTick {
        let since = epoch.wrapping_sub(self.warmup);
        FaultTick {
            class: self.class,
            period: self.period,
            active: self.active,
            warmed: epoch >= self.warmup,
            since,
            rem: since % self.period,
            roll_epoch: epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The faults active for `tenant` at `epoch` — pure, stateless:
    /// the epoch's [`tick`](TenantFaultWindows::tick) applied to the
    /// tenant's [`schedule`](TenantFaultWindows::schedule).
    pub fn at(&self, tenant: u64, epoch: u64) -> ActiveFaults {
        self.tick(epoch).at(&self.schedule(tenant))
    }

    /// The tenant's schedule as an explicit [`FaultPlan`], for running a
    /// *real* control plane under the same windows (the soak's
    /// cross-check arm). Burst edges are identical to
    /// [`TenantFaultWindows::at`]; the Corruption arm's background-NaN
    /// roll goes through [`FaultInjector`]'s per-window hash instead of
    /// this struct's, so individual NaN epochs differ while the rate and
    /// windows match.
    pub fn plan_for(&self, tenant: u64) -> FaultPlan {
        let start = self.warmup + self.phase(tenant);
        let plan = FaultPlan::new();
        match self.class {
            FaultClass::SensorDropout => plan.window(
                FaultWindow::new(FaultKind::SensorDropout, start, u64::MAX)
                    .periodic(self.period, self.active),
            ),
            FaultClass::Corruption => plan
                .window(
                    FaultWindow::new(FaultKind::SensorNan, self.warmup, u64::MAX)
                        .with_probability(SOAK_NAN_PROBABILITY),
                )
                .window(
                    FaultWindow::new(
                        FaultKind::SensorSpike {
                            factor: SOAK_SPIKE_FACTOR,
                        },
                        start,
                        u64::MAX,
                    )
                    .periodic(self.period, self.active),
                ),
            FaultClass::ActuatorLag => plan.window(
                FaultWindow::new(
                    FaultKind::ActuatorLag {
                        epochs: SOAK_LAG_EPOCHS,
                    },
                    start,
                    u64::MAX,
                )
                .periodic(self.period, self.active),
            ),
            FaultClass::PlantRestart => plan.window(
                FaultWindow::new(FaultKind::PlantRestart, start, u64::MAX)
                    .periodic(self.period, self.active),
            ),
            _ => unreachable!("sized_for rejects non-soak classes"),
        }
    }
}

/// One tenant's hoisted constants under a [`TenantFaultWindows`]
/// (see [`TenantFaultWindows::schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantFaultSchedule {
    /// Burst phase in `[0, period)`: bursts start at `warmup + phase`.
    phase: u64,
    /// `seed + tenant · K`, the tenant half of the corruption roll.
    roll_key: u64,
}

/// One epoch of a [`TenantFaultWindows`], tenant-independent (see
/// [`TenantFaultWindows::tick`]). [`FaultTick::at`] finishes the lookup
/// for one tenant with no division and one hash round at most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTick {
    class: FaultClass,
    period: u64,
    active: u64,
    /// Whether the epoch is past the clean warm-up.
    warmed: bool,
    /// `epoch − warmup` (meaningful only when `warmed`).
    since: u64,
    /// `since % period`.
    rem: u64,
    /// `epoch · K'`, the epoch half of the corruption roll.
    roll_epoch: u64,
}

impl FaultTick {
    /// Whether this epoch falls inside one of the tenant's bursts:
    /// `(since − phase) % period < active` once `since ≥ phase`, with
    /// the modulus taken from the tick's `rem` instead of a division.
    #[inline]
    fn in_burst(&self, s: &TenantFaultSchedule) -> bool {
        if !self.warmed || self.since < s.phase {
            return false;
        }
        let into = if self.rem >= s.phase {
            self.rem - s.phase
        } else {
            self.rem + self.period - s.phase
        };
        into < self.active
    }

    /// Uniform roll in `[0, 1)` for `(tenant, epoch)` — the same
    /// SplitMix64 finalizer as [`FaultInjector`]'s per-window roll.
    #[inline]
    fn roll(&self, s: &TenantFaultSchedule) -> f64 {
        let mut z = s.roll_key.wrapping_add(self.roll_epoch);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The faults active for the tenant with schedule `s` this epoch.
    #[inline]
    pub fn at(&self, s: &TenantFaultSchedule) -> ActiveFaults {
        let mut out = ActiveFaults::default();
        match self.class {
            FaultClass::SensorDropout => {
                if self.in_burst(s) {
                    out.sensor = Some(SensorFault::Drop);
                    out.set.insert(FaultSet::DROPOUT);
                }
            }
            FaultClass::Corruption => {
                // NaN wins over the spike, matching the injector's
                // declaration-order priority for the standard plan.
                if self.warmed && self.roll(s) < SOAK_NAN_PROBABILITY {
                    out.sensor = Some(SensorFault::Nan);
                    out.set.insert(FaultSet::NAN);
                } else if self.in_burst(s) {
                    out.sensor = Some(SensorFault::Scale(SOAK_SPIKE_FACTOR));
                    out.set.insert(FaultSet::SPIKE);
                }
            }
            FaultClass::ActuatorLag => {
                if self.in_burst(s) {
                    out.lag = Some(SOAK_LAG_EPOCHS);
                    out.set.insert(FaultSet::LAG);
                }
            }
            FaultClass::PlantRestart => {
                if self.in_burst(s) {
                    out.restart = true;
                    out.set.insert(FaultSet::RESTART);
                }
            }
            _ => unreachable!("sized_for rejects non-soak classes"),
        }
        out
    }
}

/// Bit set of fault classes injected on one epoch (recorded on
/// [`EpochEvent`](crate::EpochEvent)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSet(u16);

impl FaultSet {
    /// Sensor returned nothing.
    pub const DROPOUT: FaultSet = FaultSet(1 << 0);
    /// Sensor repeated its previous reading.
    pub const STALE: FaultSet = FaultSet(1 << 1);
    /// Sensor returned NaN.
    pub const NAN: FaultSet = FaultSet(1 << 2);
    /// Sensor reading multiplied by a spike factor.
    pub const SPIKE: FaultSet = FaultSet(1 << 3);
    /// Decision deferred by actuator lag.
    pub const LAG: FaultSet = FaultSet(1 << 4);
    /// Applied setting capped by actuator saturation.
    pub const SATURATE: FaultSet = FaultSet(1 << 5);
    /// Goal target flapped.
    pub const GOAL_FLAP: FaultSet = FaultSet(1 << 6);
    /// Plant restarted.
    pub const RESTART: FaultSet = FaultSet(1 << 7);

    /// Display labels for the eight fault bits, index-aligned with the
    /// bit positions (index 0 = [`FaultSet::DROPOUT`] … index 7 =
    /// [`FaultSet::RESTART`]). The per-class MTTR accumulators in
    /// [`EpochSummary`](crate::EpochSummary) use the same indexing.
    pub const BIT_LABELS: [&'static str; 8] = [
        "dropout",
        "stale",
        "nan",
        "spike",
        "lag",
        "saturate",
        "goal_flap",
        "restart",
    ];

    /// The raw bits (bit `i` is the class labelled
    /// [`FaultSet::BIT_LABELS`]`[i]`).
    pub fn bits(&self) -> u16 {
        self.0
    }

    /// Adds the bits of `other`.
    #[inline]
    pub fn insert(&mut self, other: FaultSet) {
        self.0 |= other.0;
    }

    /// Whether every bit of `other` is set.
    pub fn contains(&self, other: FaultSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no fault was injected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// What a sensor fault turned the reading into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// No reading this epoch.
    Drop,
    /// Repeat the last delivered reading.
    Stale,
    /// Deliver `NaN` instead of the true reading.
    Nan,
    /// Deliver the true reading multiplied by this factor.
    Scale(f64),
}

/// Everything the injector fires for one `(channel, epoch)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActiveFaults {
    /// Sensor-side fault, if any (at most one wins per epoch: dropout
    /// beats stale beats corruption).
    pub sensor: Option<SensorFault>,
    /// Actuation delay in epochs, if a lag window is active.
    pub lag: Option<u64>,
    /// Saturation fraction of the bound range, if active.
    pub saturate: Option<f64>,
    /// Relative goal tightening, if a flap window is active.
    pub goal_flap: Option<f64>,
    /// Whether the plant restarts this epoch.
    pub restart: bool,
    /// The injected classes as recorded on the epoch event.
    pub set: FaultSet,
}

impl ActiveFaults {
    /// Whether nothing fires this epoch.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.set.is_empty()
    }
}

/// Stream index for deriving a fault-plane seed from a shard's base
/// seed via [`shard_seed`](crate::shard_seed). Scenario crates use
/// `shard_seed(seed, CHAOS_STREAM)` so the injector's rolls stay
/// decorrelated from the plant's workload RNG, which consumes the base
/// seed directly.
pub const CHAOS_STREAM: u64 = 0xC4A0;

/// Evaluates a [`FaultPlan`] deterministically.
///
/// Activation rolls are a SplitMix64-style hash of
/// `(seed, window index, channel index, epoch)`, so the injector carries
/// no mutable state: two injectors built from the same `(seed, plan)`
/// agree everywhere, regardless of call order or thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    seed: u64,
    plan: FaultPlan,
}

impl FaultInjector {
    /// Builds an injector from a seed (derive it from the shard seed via
    /// [`shard_seed`](crate::shard_seed)) and a plan.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        FaultInjector { seed, plan }
    }

    /// The plan under evaluation.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The injector seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform roll in `[0, 1)` for `(window, channel, epoch)` — pure.
    fn roll(&self, window: usize, channel: u32, epoch: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add((window as u64).wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add((channel as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB))
            .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The faults active for the channel at plane index `channel` at its
    /// per-channel `epoch`. Pure: the same arguments always produce the
    /// same answer. This is the one per-epoch fault evaluation of a
    /// chaos-armed [`ControlPlane::decide`](crate::ControlPlane::decide),
    /// whether a scenario's own loop or the
    /// [`EventPlane`](crate::EventPlane) drives the epoch; it re-tests
    /// coverage on every window (at most eight in the canonical plans).
    pub fn at(&self, channel: u32, epoch: u64) -> ActiveFaults {
        let mut out = ActiveFaults::default();
        for (wi, w) in self.plan.windows.iter().enumerate() {
            if w.covers_epoch(channel, epoch) {
                self.fire(wi, w, channel, epoch, &mut out);
            }
        }
        out
    }

    /// Evaluates one covering window's probability gate and fault.
    fn fire(&self, wi: usize, w: &FaultWindow, channel: u32, epoch: u64, out: &mut ActiveFaults) {
        if w.probability < 1.0 && self.roll(wi, channel, epoch) >= w.probability {
            return;
        }
        match w.kind {
            FaultKind::SensorDropout => {
                out.sensor = Some(SensorFault::Drop);
                out.set.insert(FaultSet::DROPOUT);
            }
            FaultKind::SensorStale => {
                if !matches!(out.sensor, Some(SensorFault::Drop)) {
                    out.sensor = Some(SensorFault::Stale);
                }
                out.set.insert(FaultSet::STALE);
            }
            FaultKind::SensorNan => {
                if out.sensor.is_none() {
                    out.sensor = Some(SensorFault::Nan);
                }
                out.set.insert(FaultSet::NAN);
            }
            FaultKind::SensorSpike { factor } => {
                if out.sensor.is_none() {
                    out.sensor = Some(SensorFault::Scale(factor));
                }
                out.set.insert(FaultSet::SPIKE);
            }
            FaultKind::ActuatorLag { epochs } => {
                out.lag = Some(epochs.max(1));
                out.set.insert(FaultSet::LAG);
            }
            FaultKind::ActuatorSaturate { frac } => {
                out.saturate = Some(frac.clamp(0.0, 1.0));
                out.set.insert(FaultSet::SATURATE);
            }
            FaultKind::GoalFlap { frac } => {
                out.goal_flap = Some(frac.clamp(0.0, 0.95));
                out.set.insert(FaultSet::GOAL_FLAP);
            }
            FaultKind::PlantRestart => {
                out.restart = true;
                out.set.insert(FaultSet::RESTART);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_expected_epochs() {
        let w = FaultWindow::new(FaultKind::SensorDropout, 40, 400).periodic(100, 10);
        assert!(!w.covers_epoch(0, 39));
        assert!(w.covers_epoch(0, 40));
        assert!(w.covers_epoch(0, 49));
        assert!(!w.covers_epoch(0, 50));
        assert!(w.covers_epoch(0, 140));
        assert!(!w.covers_epoch(0, 400));
        let cont = FaultWindow::new(FaultKind::SensorNan, 5, u64::MAX);
        assert!(cont.covers_epoch(0, 5) && cont.covers_epoch(0, 1_000_000));
    }

    #[test]
    fn stagger_shifts_per_channel() {
        let w = FaultWindow::new(FaultKind::SensorDropout, 40, 400)
            .periodic(100, 10)
            .staggered(4);
        // Channel 0 is unshifted; channel 2 sees everything 8 later.
        for e in 0..500u64 {
            assert_eq!(
                w.covers_epoch(2, e + 8),
                w.covers_epoch(0, e),
                "epoch {e} channel-2 shift"
            );
        }
        assert!(!w.covers_epoch(2, 40) && w.covers_epoch(2, 48));
        // An unbounded end stays unbounded under the shift.
        let open = FaultWindow::new(FaultKind::SensorNan, 5, u64::MAX).staggered(7);
        assert!(!open.covers_epoch(3, 25) && open.covers_epoch(3, 26));
        assert!(open.covers_epoch(3, 1_000_000));
    }

    #[test]
    fn injector_is_pure_and_seed_sensitive() {
        let plan = FaultPlan::new()
            .window(FaultWindow::new(FaultKind::SensorNan, 0, 10_000).with_probability(0.5));
        let a = FaultInjector::new(42, plan.clone());
        let b = FaultInjector::new(42, plan.clone());
        let c = FaultInjector::new(43, plan);
        let hits = |inj: &FaultInjector| -> Vec<bool> {
            (0..10_000).map(|e| !inj.at(0, e).is_clean()).collect()
        };
        assert_eq!(hits(&a), hits(&b));
        assert_ne!(hits(&a), hits(&c));
        // The 0.5 gate actually gates: roughly half the epochs fire.
        let count = hits(&a).iter().filter(|&&h| h).count();
        assert!((4_000..6_000).contains(&count), "count {count}");
    }

    #[test]
    fn sensor_fault_priority() {
        let plan = FaultPlan::new()
            .window(FaultWindow::new(FaultKind::SensorNan, 0, 10))
            .window(FaultWindow::new(FaultKind::SensorDropout, 0, 10));
        let inj = FaultInjector::new(1, plan);
        let f = inj.at(0, 3);
        assert_eq!(f.sensor, Some(SensorFault::Drop));
        assert!(f.set.contains(FaultSet::DROPOUT));
        assert!(f.set.contains(FaultSet::NAN));
    }

    #[test]
    fn every_class_has_a_plan_and_label() {
        for class in FaultClass::ALL {
            let plan = class.standard_plan();
            assert!(!plan.is_empty(), "{class} plan empty");
            assert!(!class.label().is_empty());
            // Every plan fires somewhere in the first 600 epochs.
            let inj = FaultInjector::new(9, plan);
            let fired = (0..600).any(|e| !inj.at(0, e).is_clean());
            assert!(fired, "{class} never fires in 600 epochs");
        }
    }

    #[test]
    fn fault_set_bits() {
        let mut s = FaultSet::default();
        assert!(s.is_empty());
        s.insert(FaultSet::LAG);
        s.insert(FaultSet::RESTART);
        assert!(s.contains(FaultSet::LAG));
        assert!(!s.contains(FaultSet::NAN));
        assert!(!s.is_empty());
        assert_eq!(s.bits(), (1 << 4) | (1 << 7));
        assert_eq!(FaultSet::BIT_LABELS[4], "lag");
        assert_eq!(FaultSet::BIT_LABELS[7], "restart");
    }

    #[test]
    fn plan_merge_concatenates_in_order() {
        let a = FaultPlan::new().window(FaultWindow::new(FaultKind::SensorDropout, 0, 10));
        let b = FaultPlan::new()
            .window(FaultWindow::new(FaultKind::PlantRestart, 5, 6))
            .window(FaultWindow::new(FaultKind::SensorNan, 0, 20));
        let merged = a.clone().merge(b.clone());
        assert_eq!(merged.windows().len(), 3);
        assert_eq!(merged.windows()[0], a.windows()[0]);
        assert_eq!(merged.windows()[1], b.windows()[0]);
        assert_eq!(merged.windows()[2], b.windows()[1]);
    }

    #[test]
    fn every_campaign_has_a_compound_plan_and_label() {
        let labels: std::collections::BTreeSet<_> =
            Campaign::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), Campaign::ALL.len(), "labels are distinct");
        for campaign in Campaign::ALL {
            let plan = campaign.plan();
            assert!(
                plan.windows().len() >= 2,
                "{campaign} is not compound ({} windows)",
                plan.windows().len()
            );
            // Every campaign fires at least two distinct fault classes
            // somewhere in the first 600 epochs.
            let inj = FaultInjector::new(9, plan);
            let mut seen = FaultSet::default();
            for e in 0..600 {
                seen.insert(inj.at(0, e).set);
            }
            let classes = seen.bits().count_ones();
            assert!(classes >= 2, "{campaign} fired {classes} classes");
        }
    }

    #[test]
    fn lag_during_goal_flap_overlaps_its_classes() {
        // The campaign's point: some epoch carries BOTH the flap and the
        // lag (single-class sweeps never produce that).
        let inj = FaultInjector::new(3, Campaign::LagDuringGoalFlap.plan());
        let overlapped = (0..600).any(|e| {
            let f = inj.at(0, e);
            f.goal_flap.is_some() && f.lag.is_some()
        });
        assert!(overlapped, "lag never coincided with a goal flap");
    }

    #[test]
    fn cascading_dropout_staggers_channels() {
        let inj = FaultInjector::new(5, Campaign::CascadingDropout.plan());
        let first_drop = |ch: u32| {
            (0..200u64)
                .find(|&e| {
                    inj.at(ch, e)
                        .sensor
                        .is_some_and(|s| matches!(s, SensorFault::Drop))
                })
                .expect("dropout burst fires")
        };
        // Plane-index order: each later channel's first dropout burst
        // starts exactly one stagger (4 epochs) after the previous one.
        assert_eq!(first_drop(1), first_drop(0) + 4);
        assert_eq!(first_drop(2), first_drop(0) + 8);
    }

    #[test]
    fn tenant_windows_are_pure_phased_and_sized() {
        for class in SOAK_FAULT_CLASSES {
            for epochs in [24u64, 48, 96] {
                let w = TenantFaultWindows::sized_for(class, 42, epochs);
                assert!(w.active < w.period, "{class} burst outlives its period");
                assert!(w.warmup >= 2);
                // Pure: two evaluations agree everywhere; a different
                // seed moves at least one tenant's phase.
                let w2 = TenantFaultWindows::sized_for(class, 42, epochs);
                let w3 = TenantFaultWindows::sized_for(class, 43, epochs);
                for t in 0..16u64 {
                    assert_eq!(w.phase(t), w2.phase(t));
                    for e in 0..epochs {
                        assert_eq!(w.at(t, e), w2.at(t, e), "{class} t{t} e{e}");
                    }
                }
                assert!(
                    (0..64).any(|t| w.phase(t) != w3.phase(t)),
                    "{class}: seed change moved no phase"
                );
                // Every tenant sees at least one burst inside the run,
                // and no tenant faults during the warm-up.
                for t in 0..16u64 {
                    assert!(
                        (0..epochs).any(|e| !w.at(t, e).is_clean()),
                        "{class} tenant {t} never faulted in {epochs} epochs"
                    );
                    for e in 0..w.warmup {
                        assert!(w.at(t, e).is_clean(), "{class} faulted in warm-up");
                    }
                }
                // Phases spread bursts across tenants.
                let phases: std::collections::BTreeSet<u64> =
                    (0..256).map(|t| w.phase(t)).collect();
                assert!(phases.len() > 1, "{class}: all tenants in phase");
            }
        }
    }

    /// The pre-hoist lookup, kept as the reference: the phase and the
    /// roll rehashed from `(seed, tenant)` and the burst test by
    /// division, on every call.
    fn reference_at(w: &TenantFaultWindows, tenant: u64, epoch: u64) -> ActiveFaults {
        let roll = {
            let mut z = w
                .seed
                .wrapping_add(tenant.wrapping_mul(0xE703_7ED1_A0B4_28DB))
                .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        let start = w.warmup + crate::shard_seed(w.seed, tenant) % w.period;
        let in_burst = epoch >= start && (epoch - start) % w.period < w.active;
        let mut out = ActiveFaults::default();
        match w.class {
            FaultClass::SensorDropout if in_burst => {
                out.sensor = Some(SensorFault::Drop);
                out.set.insert(FaultSet::DROPOUT);
            }
            FaultClass::Corruption if epoch >= w.warmup && roll < SOAK_NAN_PROBABILITY => {
                out.sensor = Some(SensorFault::Nan);
                out.set.insert(FaultSet::NAN);
            }
            FaultClass::Corruption if in_burst => {
                out.sensor = Some(SensorFault::Scale(SOAK_SPIKE_FACTOR));
                out.set.insert(FaultSet::SPIKE);
            }
            FaultClass::ActuatorLag if in_burst => {
                out.lag = Some(SOAK_LAG_EPOCHS);
                out.set.insert(FaultSet::LAG);
            }
            FaultClass::PlantRestart if in_burst => {
                out.restart = true;
                out.set.insert(FaultSet::RESTART);
            }
            _ => {}
        }
        out
    }

    proptest::proptest! {
        /// The hoisted schedule and per-epoch tick reproduce the
        /// rehash-every-call lookup bit for bit, for every soak class,
        /// at the soak's 24–96-epoch budgets and at budgets past 128
        /// epochs (no burst pattern is truncated to a fixed-width mask).
        #[test]
        fn hoisted_schedule_matches_the_rehashing_lookup(
            class_pick in 0usize..4,
            seed in 0u64..u64::MAX,
            tenant in 0u64..u64::MAX,
            budget_pick in 0u64..80,
        ) {
            let class = SOAK_FAULT_CLASSES[class_pick];
            // 24..=96, plus 200 and 1000 on a few draws.
            let epochs = match budget_pick {
                73..=75 => 200,
                76..=79 => 1_000,
                b => 24 + b,
            };
            let w = TenantFaultWindows::sized_for(class, seed, epochs);
            let sched = w.schedule(tenant);
            for e in 0..epochs + 8 {
                let expected = reference_at(&w, tenant, e);
                proptest::prop_assert_eq!(w.tick(e).at(&sched), expected);
                proptest::prop_assert_eq!(w.at(tenant, e), expected);
            }
        }
    }

    #[test]
    fn tenant_windows_match_their_exported_plan() {
        // The cross-check arm runs real control planes under
        // plan_for(tenant); its burst edges must agree with the slab
        // arm's at(tenant, epoch) for every deterministic (non-rolled)
        // class, and for Corruption's spike window.
        for class in SOAK_FAULT_CLASSES {
            let w = TenantFaultWindows::sized_for(class, 7, 96);
            for t in [0u64, 3, 11] {
                let inj = FaultInjector::new(7, w.plan_for(t));
                for e in 0..200u64 {
                    let slab = w.at(t, e);
                    let real = inj.at(0, e);
                    match class {
                        FaultClass::Corruption => {
                            // NaN epochs roll through different hashes;
                            // compare the deterministic spike windows on
                            // epochs where neither side rolled a NaN.
                            if !slab.set.contains(FaultSet::NAN)
                                && !real.set.contains(FaultSet::NAN)
                            {
                                assert_eq!(
                                    slab.set.contains(FaultSet::SPIKE),
                                    real.set.contains(FaultSet::SPIKE),
                                    "{class} t{t} e{e}"
                                );
                            }
                        }
                        _ => assert_eq!(slab, real, "{class} t{t} e{e}"),
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a soak fault arm")]
    fn tenant_windows_reject_non_soak_classes() {
        TenantFaultWindows::sized_for(FaultClass::GoalFlap, 1, 96);
    }

    #[test]
    fn burst_everything_covers_all_classes() {
        let inj = FaultInjector::new(11, Campaign::BurstEverything.plan());
        let mut seen = FaultSet::default();
        for e in 0..700 {
            seen.insert(inj.at(0, e).set);
        }
        for (bit, label) in FaultSet::BIT_LABELS.iter().enumerate() {
            assert!(
                seen.bits() & (1 << bit) != 0,
                "burst-everything never fired {label}"
            );
        }
    }
}
