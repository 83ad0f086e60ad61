//! # smartconf-runtime — the epoch-driven control-plane runtime
//!
//! The paper's central claim is that *one* synthesis recipe serves every
//! performance-sensitive configuration; this crate is the corresponding
//! claim about the surrounding loop: one [`ControlPlane`] owns the
//! sense→decide→actuate epoch for every scenario, so adding a workload
//! means implementing the [`Plant`] trait (a sensor and an actuator per
//! channel), not re-implementing control glue.
//!
//! - [`Plant`] — the system under control: sense the metric, apply the
//!   configuration, advance one epoch.
//! - [`ControlPlane`] — drives one or more controllers over a plant,
//!   coordinating channels that share a super-hard goal (paper §5.4) and
//!   recording every decision.
//! - [`Decider`] — how a channel decides: a static baseline, a direct
//!   SmartConf, or a deputy-re-anchored indirect SmartConf (§5.3).
//! - [`Baseline`] — the named static comparison runs of Figure 5.
//! - [`EpochEvent`]/[`EpochLog`] — the structured per-epoch record
//!   (setting, measured metric, error, pole in effect, saturation),
//!   convertible to `smartconf-metrics` time series, with streaming
//!   per-channel [`EpochSummary`] aggregates.
//! - [`Profiler`]/[`ProfileSchedule`] — the shared §6.1 profiling loop
//!   (4 settings × N measurements) that scenarios declare instead of
//!   re-implementing.
//! - [`FleetExecutor`] — deterministic multi-threaded sharding of
//!   (scenario × seed × goal-variant) work items: results merge in
//!   work-item order, so output is byte-identical at 1 vs N threads.
//! - [`FaultPlan`]/[`FaultInjector`] — the deterministic fault plane:
//!   declarative per-epoch-window faults (sensor dropout,
//!   stale repeats, NaN/spike corruption, actuator lag and saturation,
//!   goal flaps, plant restarts), evaluated as a pure function of
//!   `(seed, plan, channel, epoch)` so chaos runs replay exactly.
//! - [`GuardPolicy`]/[`ChaosSpec`] — the matching resilience guards
//!   (admission filtering, stale watchdog, anti-windup, divergence
//!   fallback to the profiled-safe setting, restart recovery, optional
//!   shedding of already-admitted work) at constant thresholds, armed via
//!   [`ControlPlane::enable_chaos`].
//! - [`EventPlane`]/[`PlaneEvent`] — the event kernel: the same plane
//!   scheduled on the `smartconf-simkernel` calendar, one `Sense` per
//!   channel per sensing period
//!   ([`channel_with_period`](ControlPlaneBuilder::channel_with_period)),
//!   each `Sense` running the same [`ControlPlane::decide`].
//! - [`run_cohort_calendar`] — batched soak dispatch: one heap event per
//!   (cohort, tick) instead of per tenant, so million-tenant soaks keep
//!   the calendar tiny and idle tenants cost zero between senses.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod event;
mod fault;
mod fleet;
mod guard;
mod kernel;
mod plane;
mod plant;
mod profiler;
mod soak;

pub use baseline::Baseline;
pub use event::{EpochEvent, EpochLog, EpochSummary, BURST_BINS};
pub use fault::{
    ActiveFaults, Campaign, FaultClass, FaultInjector, FaultKind, FaultPlan, FaultSet, FaultTick,
    FaultWindow, SensorFault, TenantFaultSchedule, TenantFaultWindows, CHAOS_STREAM,
    SOAK_FAULT_CLASSES, SOAK_LAG_EPOCHS, SOAK_NAN_PROBABILITY, SOAK_SPIKE_FACTOR,
};
pub use fleet::{shard_seed, FleetExecutor};
pub use guard::{
    ChaosSpec, GuardPolicy, GuardSet, ADAPTIVE_CONFIDENCE_FLOOR, CAMPAIGN_BACKOFF_DOUBLINGS,
    CAMPAIGN_VOTE_WINDOW, COOLDOWN_EPOCHS, DIVERGENCE_STREAK, SPIKE_RATIO, SPIKE_WINDOW,
    STALE_EPOCHS, STALE_ERROR_FRAC, WATCHDOG_EPOCHS,
};
pub use kernel::{EventPlane, PlaneEvent};
pub use plane::{ControlPlane, ControlPlaneBuilder, Decider, DEFAULT_PERIOD_US};
pub use plant::{ChannelId, Plant, Sensed};
pub use profiler::{ProfileSchedule, Profiler, SampleMode};
pub use soak::{cohort_epochs, run_cohort_calendar};
