//! Fleet smoke check: runs all seven scenarios × seeds × policies at
//! 1 worker thread and again at N, asserts the two [`FleetReport`]
//! renderings are byte-identical, and writes `BENCH_fleet.json` with
//! the wall-clock of each phase.
//!
//! Usage: `fleet_smoke [--seeds K] [--threads N] [--out PATH]`
//!
//! * `--seeds K` — number of seeds (42, 43, …); default 4.
//! * `--threads N` — parallel phase's worker count; default 4.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_fleet.json`.
//!
//! Exits non-zero if the serial and parallel reports differ.
//!
//! [`FleetReport`]: smartconf_harness::FleetReport

use smartconf_bench::suite::{drive, fleet_flags, Flags};

fn main() {
    let flags = Flags::from_env(&fleet_flags("4", "BENCH_fleet.json"));
    drive(
        &smartconf_bench::fleet::smoke(flags.seeds(42)),
        flags.threads(),
        flags.out(),
    );
}
