//! # SmartConf: control-theoretic performance-sensitive configuration
//!
//! A Rust reproduction of the configuration framework from *Understanding
//! and Auto-Adjusting Performance-Sensitive Configurations* (Wang, Li,
//! Sentosa, Hoffmann, Lu, Kistijantoro — ASPLOS 2018).
//!
//! Modern server systems expose hundreds of performance-sensitive
//! configurations (*PerfConfs*): queue bounds, buffer sizes, flush
//! thresholds. Their proper values depend on dynamic workload and
//! environment, so any static setting is eventually wrong. SmartConf
//! replaces the "user picks a number" interface with:
//!
//! * **Users** state a *goal* on a performance metric ([`Goal`]): a
//!   target, whether it is a hard constraint (out-of-memory is not
//!   negotiable), and which side of the target is safe.
//! * **Developers** declare which configuration affects which metric
//!   ([`Registry`]), measure the metric, and call `set_perf`/`conf`
//!   where the configuration is used ([`SmartConf`],
//!   [`SmartConfIndirect`]).
//! * **The library** synthesizes a controller per configuration from
//!   profiling data ([`ProfileSet`], [`ControllerBuilder`]) — gain by
//!   regression, pole from profiled variability, virtual goals and
//!   context-aware poles for hard constraints, interaction splitting for
//!   super-hard goals — with *no control parameters exposed to anyone*.
//!
//! ## Quick start
//!
//! ```
//! use smartconf_core::{ControllerBuilder, Goal, Hardness, ProfileSet, SmartConfIndirect};
//!
//! // 1. Profile: run the system at a few settings, record the metric.
//! //    (4 settings x 10 samples, as in the paper's evaluation.)
//! let mut profile = ProfileSet::new();
//! for setting in [40.0, 80.0, 120.0, 160.0] {
//!     for k in 0..10 {
//!         let measured_memory = 100.0 + 2.0 * setting + (k % 3) as f64;
//!         profile.add(setting, measured_memory);
//!     }
//! }
//!
//! // 2. The user's goal: memory below 495 MB, hard.
//! let goal = Goal::new("memory_mb", 495.0).with_hardness(Hardness::Hard)?;
//!
//! // 3. Synthesize and wrap.
//! let controller = ControllerBuilder::new(goal)
//!     .profile(&profile)?
//!     .bounds(0.0, 10_000.0)
//!     .initial(0.0)
//!     .build()?;
//! let mut max_queue_size = SmartConfIndirect::new("max.queue.size", controller);
//!
//! // 4. At every use site: feed the sensor reading + deputy value,
//! //    read back the adjusted configuration.
//! max_queue_size.set_perf(300.0, 80.0);
//! let limit = max_queue_size.conf_rounded();
//! assert!(limit > 80);
//! # Ok::<(), smartconf_core::Error>(())
//! ```
//!
//! ## Module map
//!
//! | paper section | here |
//! |---|---|
//! | Eq. 1 model, regression | [`LinearFit`], [`ProfileSet`] |
//! | Eq. 2 controller | [`Controller`], its bound formula [`Law`] |
//! | §5.1 automatic pole | [`pole_from_delta`], [`pole_from_profile`] |
//! | §5.2 hard goals | [`Goal::virtual_target`], two-pole logic in [`Law::step`] |
//! | §5.3 indirect configs | [`SmartConfIndirect`], [`Transducer`] |
//! | §5.4 interacting configs | [`Controller::set_interaction`], [`Registry::interaction_count`] |
//! | §4.1 system/app files | [`Registry`] |
//! | §4.1 sensors | readings reach a controller through `set_perf` ([`SmartConf::set_perf`]); the runtime's plants produce them with `Plant::sense` |
//! | §5.5 profiling capture | [`ProfilingCapture`] |
//! | online adaptation (extension) | [`GainModel`], [`RlsModel`], [`adaptive_pole`] |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capture;
mod conf;
mod controller;
mod error;
mod goal;
mod model;
mod pole;
mod profile;
mod registry;
mod synth;
mod transducer;

pub use capture::ProfilingCapture;
pub use conf::{SmartConf, SmartConfIndirect};
pub use controller::{ControlLaw, Controller, Law};
pub use error::{Error, Result};
pub use goal::{Goal, Hardness, Sense};
pub use model::{GainModel, LinearFit, ModelMode, RlsModel};
pub use pole::{adaptive_pole, pole_from_delta, pole_from_profile, ADAPTIVE_DOUBT_POLE, MAX_POLE};
pub use profile::{ProfilePoint, ProfileSet};
pub use registry::{ConfEntry, Registry};
pub use synth::ControllerBuilder;
pub use transducer::{FnTransducer, IdentityTransducer, Transducer};
