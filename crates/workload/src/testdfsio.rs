//! TestDFSIO-style distributed file-system workload.
//!
//! HD4995's scenario: clients stream block writes into the namenode while
//! someone runs `du` (content summary) over a large directory. The `du`
//! traversal holds the namespace lock; `content-summary.limit` bounds how
//! many inodes it processes per lock acquisition.

use smartconf_simkernel::SimDuration;

use crate::ArrivalProcess;

/// TestDFSIO-like workload: block writes from a pool of clients at an
/// aggregate rate, plus periodic `du` interrogations over a namespace of
/// `du_files` inodes.
///
/// # Example
///
/// ```
/// use smartconf_simkernel::SimDuration;
/// use smartconf_workload::TestDfsIoWorkload;
///
/// let w = TestDfsIoWorkload::new(4, 200.0, 1_000_000, SimDuration::from_secs(30));
/// assert_eq!(w.arrivals().mean_rate(), 200.0);
/// assert_eq!(w.du_files(), 1_000_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TestDfsIoWorkload {
    arrivals: ArrivalProcess,
    du_files: u64,
    du_interval: SimDuration,
}

impl TestDfsIoWorkload {
    /// Creates a workload.
    ///
    /// * `clients` — number of concurrent writer clients. Their writes
    ///   merge into the one aggregate arrival process, so only the count's
    ///   positivity is checked.
    /// * `write_rate_per_sec` — aggregate block-write rate.
    /// * `du_files` — inodes per `du` traversal.
    /// * `du_interval` — time between `du` requests.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero or the rate is not positive.
    pub fn new(
        clients: u32,
        write_rate_per_sec: f64,
        du_files: u64,
        du_interval: SimDuration,
    ) -> Self {
        assert!(clients > 0, "need at least one client");
        TestDfsIoWorkload {
            arrivals: ArrivalProcess::poisson_rate(write_rate_per_sec),
            du_files,
            du_interval,
        }
    }

    /// The aggregate write-arrival process.
    pub fn arrivals(&self) -> &ArrivalProcess {
        &self.arrivals
    }

    /// Inodes visited by each `du`.
    pub fn du_files(&self) -> u64 {
        self.du_files
    }

    /// Gap between `du` requests.
    pub fn du_interval(&self) -> SimDuration {
        self.du_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_carry_parameters() {
        let w = TestDfsIoWorkload::new(2, 100.0, 5000, SimDuration::from_secs(10));
        assert_eq!(w.arrivals().mean_rate(), 100.0);
        assert_eq!(w.du_interval(), SimDuration::from_secs(10));
        assert_eq!(w.du_files(), 5000);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panics() {
        let _ = TestDfsIoWorkload::new(0, 100.0, 1000, SimDuration::from_secs(1));
    }
}
