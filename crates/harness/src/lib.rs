//! Shared experiment-harness types for the SmartConf reproduction.
//!
//! Each of the paper's six PerfConf case studies (Table 6) is implemented
//! as a [`Scenario`] in its host-system crate. A scenario declares its
//! PerfConf once, as a [`PerfConf`]: the Table 6 row, the goal, bounds
//! and initial setting, the profiling schedule and the guard fallbacks.
//! Every controller it runs is synthesised from that declaration and a
//! profile.
//!
//! [`Policy::resolve`] is the one path from a (scenario, seed, policy)
//! triple to a run: a named static baseline runs its setting, the
//! oracle pair keeps its run from the exhaustive static sweep
//! ([`sweep_statics`]), and a controlled policy runs its [`RunSpec`].
//! [`run_fleet`] maps its output to [`ShardReport`]s; the bench crate
//! maps it to Figure 5's bars (the SmartConf-vs-static speedup
//! comparison) and Figure 6's runs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chart;
mod fleet;
mod outcome;
mod report;
mod scenario;
mod soak;
mod sweep;

pub use chart::AsciiChart;
pub use fleet::{
    fleet_work_items, run_fleet, FleetReport, FleetWorkItem, Policy, ProfileCache, ShardReport,
};
pub use outcome::{RunResult, TradeoffDirection};
pub use report::TextTable;
pub use scenario::{Faults, PerfConf, RunSpec, Scenario};
pub use soak::{
    CohortReport, ScenarioSoakReport, SlabGuardPolicy, SoakReport, SoakSlab, SoakTemplate,
    StepOutcome, DISTURBANCE_GAIN, LAMBDA_FLOOR, RECOVERY_SLO_EPOCHS,
};
pub use sweep::{sweep_statics, StaticSweep};

// The named static baselines, the per-epoch event log, and the fleet
// executor are runtime types; scenario and bench crates reach them
// through the harness so a run and its structured log travel together.
pub use smartconf_runtime::{
    Baseline, Campaign, ChaosSpec, EpochEvent, EpochLog, EpochSummary, FaultClass, FaultPlan,
    FaultSet, FleetExecutor, GuardPolicy, GuardSet, ProfileSchedule, Profiler, SampleMode,
};
