//! Workload generators for the SmartConf reproduction.
//!
//! The paper evaluates with three standard workloads (Table 6):
//!
//! * **YCSB** for the key-value stores (Cassandra, HBase) — here
//!   [`YcsbWorkload`]: configurable read/write mix (`xW`), request size
//!   (`yMB`), read index cache ratio (`Cz`), Poisson arrivals. Ops carry
//!   no key; no simulated store reads one.
//! * **TestDFSIO** for HDFS — here [`TestDfsIoWorkload`]: one or many
//!   clients streaming file writes, plus periodic `du` (content summary)
//!   interrogations.
//! * **WordCount** for MapReduce — here [`WordCountJob`]: an input of
//!   `x` bytes cut into `y`-byte splits executed with `z`-way parallelism
//!   per worker.
//!
//! Evaluation workloads are *two-phase* (the workload or goal changes
//! mid-run, §6.1); [`PhasedWorkload`] expresses that.
//!
//! The soak mode layers production-shaped *time-varying* load on top:
//! [`TrafficShape`] composes a diurnal wave, a flash-crowd trapezoid,
//! zipfian per-tenant popularity weights, and tenant churn, all as pure
//! functions of `(seed, tenant, time)` so soak runs stay byte-identical
//! at any worker-thread count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrival;
mod keydist;
mod phase;
mod testdfsio;
mod traffic;
mod wordcount;
mod ycsb;

pub use arrival::ArrivalProcess;
pub use keydist::KeyDistribution;
pub use phase::{Phase, PhasedWorkload};
pub use testdfsio::TestDfsIoWorkload;
pub use traffic::{TrafficShape, RESTART_SURGE_EPOCHS};
pub use wordcount::{MapTask, WordCountJob};
pub use ycsb::{KvOp, YcsbWorkload};
