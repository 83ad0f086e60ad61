//! Simulated distributed file-system namenode substrate.
//!
//! Hosts the paper's HD4995 case study: HDFS's `du`/content-summary
//! operation traverses the namespace under the global namesystem lock.
//! `content-summary.limit` bounds how many inodes one lock acquisition
//! may traverse before yielding to waiting writers:
//!
//! * too **big** — writers are blocked behind long lock quanta (write
//!   latency spikes);
//! * too **small** — the traversal pays its re-acquisition overhead over
//!   and over and the `du` takes much longer.
//!
//! The per-phase constraint caps the worst-case writer-block duration
//! (20 s, tightened to 10 s — the multi-client phases of Table 6); the
//! trade-off metric is `du` completion latency. This is a
//! **conditional, indirect, soft** PerfConf (`Y-N-N`): it only matters
//! while a `du` runs, and the deputy is the number of inodes actually
//! traversed in a quantum.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod namenode;
mod namespace;
pub mod scenario;

pub use namenode::{NamenodeEvent, NamenodeModel};
pub use namespace::{ContentSummary, InodeId, Namespace, TraversalCursor};
pub use scenario::Hd4995;
