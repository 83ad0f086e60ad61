//! Deterministic discrete-event simulation kernel.
//!
//! The SmartConf paper evaluates on real Cassandra/HBase/HDFS/MapReduce
//! clusters. This reproduction replaces those hosts with discrete-event
//! simulators (see the repository `DESIGN.md` for the substitution
//! argument); this crate is the kernel they all share:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated clock.
//! * [`Simulation`] / [`Model`] — an event calendar driving a user model.
//!   The model defines an event type and a `handle` method; the [`Context`]
//!   passed to `handle` schedules future events and draws random numbers.
//! * [`SimRng`] — a seeded random source with the distributions the
//!   workload generators and disturbance processes need (uniform,
//!   exponential, normal, Pareto).
//!
//! Determinism: given the same model, seed, and schedule of initial events,
//! a simulation replays identically. All experiments in `smartconf-bench`
//! rely on this to regenerate figures byte-for-byte.
//!
//! # Example
//!
//! ```
//! use smartconf_simkernel::{Context, Model, SimDuration, Simulation};
//!
//! struct Counter {
//!     ticks: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl Model for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, _event: Ev, ctx: &mut Context<'_, Ev>) {
//!         self.ticks += 1;
//!         if self.ticks < 10 {
//!             ctx.schedule_in(SimDuration::from_millis(100), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { ticks: 0 }, 42);
//! sim.schedule_in(SimDuration::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.model().ticks, 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod churn;
mod rng;
mod sim;
mod time;

pub use churn::BackgroundChurn;
pub use rng::SimRng;
pub use sim::{Context, Model, Simulation};
pub use time::{SimDuration, SimTime};
