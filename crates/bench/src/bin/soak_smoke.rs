//! Soak smoke check: instantiates `--tenants` lightweight tenant plants
//! per scenario *per arm* (default 100 000 × 7 scenarios × 5 arms: the
//! clean control arm plus one arm per soak fault class) on the cohort
//! calendar, drives them through 24 simulated hours of diurnal +
//! flash-crowd + churn traffic — fault arms additionally under
//! tenant-keyed fault windows behind the slab guard ladder — at 1
//! worker thread and again at N, asserts the two [`SoakReport`]
//! renderings (and the cross-check arm's) are byte-identical, asserts
//! zero hard-goal cohort breaches and zero unrecovered hard-goal
//! tenants, asserts the real-plant cross-check tails sit inside the
//! distilled-template bracket, and writes `BENCH_soak.json`.
//!
//! Usage: `soak_smoke [--tenants N] [--threads T] [--real-tenants R]
//! [--out PATH] [--check BASELINE]`
//!
//! * `--tenants N` — tenants per scenario per arm; default 100 000.
//! * `--threads T` — parallel phase's worker count; default 4.
//! * `--real-tenants R` — full `ControlPlane` plants per scenario for
//!   the cross-check arm; default 64, `0` disables the arm.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_soak.json`.
//! * `--check BASELINE` — also require the artifact to equal a committed
//!   baseline byte for byte once host-dependent values (CPU count, rates,
//!   wall clocks, setup times) are masked, and tenants/sec to stay above
//!   a floor of the baseline's ([`check_soak`]).
//!
//! Exits non-zero if the serial and parallel reports differ, any hard
//! cohort's p99 overshoot exceeds its Δ budget, any hard-goal tenant
//! ends the run unrecovered, the cross-check bracket fails, or the
//! baseline check fails.
//!
//! [`SoakReport`]: smartconf_harness::SoakReport
//! [`check_soak`]: smartconf_bench::soak::check_soak

use smartconf_bench::soak::SoakSmoke;
use smartconf_bench::suite::{drive, Flags};

const FLAGS: [(&str, Option<&str>); 5] = [
    ("--tenants", Some("100000")),
    ("--threads", Some("4")),
    ("--real-tenants", Some("64")),
    ("--out", Some("BENCH_soak.json")),
    ("--check", None),
];

fn main() {
    let flags = Flags::from_env(&FLAGS);
    let (tenants, real) = (flags.count("--tenants"), flags.count("--real-tenants"));
    drive(
        &SoakSmoke::new(tenants, real, flags.get("--check")),
        flags.threads(),
        flags.out(),
    );
}
