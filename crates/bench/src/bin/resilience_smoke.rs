//! Resilience smoke check: runs all seven scenarios under every
//! compound-fault campaign (plus the clean SmartConf and Adaptive
//! baselines) at 1 worker thread and again at N, asserts the two
//! [`FleetReport`] renderings are byte-identical, asserts zero
//! hard-goal violations, and writes `BENCH_resilience.json` with the
//! per-(scenario, campaign) recovery-SLO aggregates: controller
//! re-engage latency, violation-burst p99/max, and per-fault-class
//! MTTR.
//!
//! Usage: `resilience_smoke [--seeds K] [--threads N] [--out PATH]`
//!
//! * `--seeds K` — number of seeds (42, 43, …); default 1. The gate
//!   requires every hard-goal scenario to hold its constraint under
//!   every campaign at every seed; seed 43's HB6728 single-class chaos
//!   gaps (see `chaos_smoke`) compound under campaigns, so the default
//!   set stays at 1.
//! * `--threads N` — parallel phase's worker count; default 4.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_resilience.json`.
//!
//! Exits non-zero if the serial and parallel reports differ, if any
//! hard-goal scenario violated its constraint under any campaign, or if
//! the report is missing an outcome ([`resilience_gate`]).
//!
//! [`FleetReport`]: smartconf_harness::FleetReport
//! [`resilience_gate`]: smartconf_bench::resilience::resilience_gate

use smartconf_bench::suite::{drive, fleet_flags, Flags};

fn main() {
    let flags = Flags::from_env(&fleet_flags("1", "BENCH_resilience.json"));
    drive(
        &smartconf_bench::resilience::smoke(flags.seeds(42)),
        flags.threads(),
        flags.out(),
    );
}
