//! Regenerates every table and figure of the SmartConf paper's
//! evaluation (§6) on the simulated substrates.
//!
//! One binary per artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table2_5` | Tables 2–5 (empirical study) |
//! | `table6` | Table 6 (benchmark suite and workloads) |
//! | `figure5` | Figure 5 (trade-off speedups vs. static settings) |
//! | `figure6` | Figure 6 (HB3813 time series, SmartConf vs static) |
//! | `figure7` | Figure 7 (SmartConf vs alternative controllers) |
//! | `figure8` | Figure 8 (two interacting PerfConfs) |
//! | `table7` | Table 7 (integration effort) |
//! | `ablations` | outcome ablations of the design choices (DESIGN.md §5) |
//! | `seeds` | constraint-satisfaction rates across seeds |
//! | `adaptive_bench` | online vs. frozen vs. proportional model under every fault class |
//! | `fleet_smoke` | all 7 scenarios × seeds × 4 policies at 1 and N threads, diffed |
//! | `chaos_smoke` | all 7 scenarios × every fault class at 1 and N threads, hard-goal gated |
//! | `resilience_smoke` | all 7 scenarios × every compound-fault campaign at 1 and N threads, hard-goal gated |
//! | `soak_smoke` | 100k-tenant-per-scenario soak at 1 and N threads, cohort-tail gated |
//!
//! The four 1-vs-N smokes are `main`s of a few lines over one function,
//! [`suite::drive`]: each supplies a [`suite::Smoke`] (its run, render,
//! artifact and gate) and `drive` owns the run-twice, diff, write,
//! print and exit-code cycle. `adaptive_bench` shares its flag parser
//! ([`suite::Flags`]).
//!
//! Performance is measured in one place, the repository benchmark under
//! `perfbench/` (see its README). It quotes its end-to-end numbers at a
//! reference host speed through a calibration kernel it owns, and its
//! traced pass times each layer: the controller step, the event kernel,
//! every scenario under every fleet policy, and profiling.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod adaptive;
pub mod chaos;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod fleet;
pub mod resilience;
pub mod soak;
pub mod suite;
pub mod table6;
pub mod table7;

/// The fixed seed every headline experiment uses, so results regenerate
/// byte-identically. (The paper reports single runs; see EXPERIMENTS.md
/// for seed-sensitivity notes.)
pub const EXPERIMENT_SEED: u64 = 42;

/// All six case-study identifiers in Figure 5's order.
pub const ISSUE_IDS: [&str; 6] = ["CA6059", "HB2149", "HB3813", "HB6728", "HD4995", "MR2820"];
