//! Shared experiment-harness types for the SmartConf reproduction.
//!
//! Each of the paper's six PerfConf case studies (Table 6) is implemented
//! as a [`Scenario`] in its host-system crate. The bench crate drives the
//! scenarios through this common interface to regenerate Figure 5 (the
//! SmartConf-vs-static speedup comparison), the time-series figures, and
//! the exhaustive static sweep that finds the best static configuration.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chart;
mod compare;
mod fleet;
mod outcome;
mod report;
mod scenario;
mod soak;
mod sweep;

pub use chart::AsciiChart;
pub use compare::{compare, BaselineRun, Comparison};
pub use fleet::{
    fleet_work_items, run_fleet, FleetReport, FleetWorkItem, Policy, ProfileCache, ShardReport,
};
pub use outcome::{RunResult, TradeoffDirection};
pub use report::TextTable;
pub use scenario::{Faults, RunSpec, Scenario};
pub use soak::{
    CohortReport, ScenarioSoakReport, SlabGuardPolicy, SoakReport, SoakSlab, SoakTemplate,
    StepOutcome, DISTURBANCE_GAIN, LAMBDA_FLOOR, RECOVERY_SLO_EPOCHS,
};
pub use sweep::{sweep_statics, StaticSweep};

// The named static baselines, the per-epoch event log, and the fleet
// executor are runtime types; scenario and bench crates reach them
// through the harness so a comparison run and its structured log travel
// together.
pub use smartconf_runtime::{
    Baseline, Campaign, ChaosSpec, EpochEvent, EpochLog, EpochSummary, FaultClass, FaultPlan,
    FaultSet, FleetExecutor, GuardPolicy, GuardSet, ProfileSchedule, Profiler, SampleMode,
};
