//! # smartconf — the SmartConf reproduction, in one crate
//!
//! A facade over the workspace that reproduces *Understanding and
//! Auto-Adjusting Performance-Sensitive Configurations* (ASPLOS 2018):
//!
//! * [`core`] — the paper's contribution: goals, profiling, controller
//!   synthesis (automatic poles, virtual goals, interaction splitting),
//!   the `SmartConf`/`SmartConfIndirect` developer API, and the
//!   configuration registry.
//! * [`simkernel`] — the deterministic discrete-event kernel the host
//!   simulators run on.
//! * [`workload`] — YCSB-, TestDFSIO-, and WordCount-style generators.
//! * [`kvstore`], [`dfs`], [`mapred`] — the simulated host systems and
//!   the six PerfConf case studies of the paper's Table 6.
//! * [`study`] — the Section 2 empirical study (Tables 2–5) as data.
//! * [`harness`] — the scenario/sweep machinery behind the evaluation.
//!
//! ## Example
//!
//! ```
//! use smartconf::core::{ControllerBuilder, Goal, Hardness, ProfileSet};
//!
//! let mut profile = ProfileSet::new();
//! for setting in [40.0, 80.0, 120.0, 160.0] {
//!     for k in 0..10 {
//!         profile.add(setting, 100.0 + 2.0 * setting + (k % 3) as f64);
//!     }
//! }
//! let goal = Goal::new("memory_mb", 495.0).with_hardness(Hardness::Hard)?;
//! let controller = ControllerBuilder::new(goal)
//!     .profile(&profile)?
//!     .bounds(0.0, 10_000.0)
//!     .build()?;
//! assert!(controller.effective_target() < 495.0); // virtual goal
//! # Ok::<(), smartconf::core::Error>(())
//! ```

#![warn(missing_docs)]

pub use smartconf_core as core;
pub use smartconf_dfs as dfs;
pub use smartconf_harness as harness;
pub use smartconf_kvstore as kvstore;
pub use smartconf_mapred as mapred;
pub use smartconf_metrics as metrics;
pub use smartconf_runtime as runtime;
pub use smartconf_simkernel as simkernel;
pub use smartconf_study as study;
pub use smartconf_workload as workload;

/// The repository README's Rust snippets, compiled and run as doctests
/// so a snippet that drifts from the API fails `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
