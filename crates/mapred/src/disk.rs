//! A worker's local disk.

/// Tracks one worker's local-disk usage: a static base, the fluctuating
/// usage of co-located tenants (logs, other jobs' shuffle), and the map
/// task spills this cluster writes.
///
/// Exceeding the capacity given to [`WorkerDisk::new`] is an
/// out-of-disk failure — MR2820's hard constraint.
///
/// # Example
///
/// ```
/// use smartconf_mapred::WorkerDisk;
///
/// let mut d = WorkerDisk::new(500_000_000, 100_000_000);
/// d.set_other(150_000_000);
/// d.add_spill(100_000_000);
/// assert_eq!(d.used_bytes(), 350_000_000);
/// assert_eq!(d.free_bytes(), 150_000_000);
/// assert!(!d.is_full());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerDisk {
    capacity: u64,
    base: u64,
    other: u64,
    spills: u64,
}

impl WorkerDisk {
    /// Creates a disk with `capacity` total bytes, of which `base` are
    /// permanently used (system files, installed artifacts).
    ///
    /// # Panics
    ///
    /// Panics if `base > capacity` or `capacity` is zero.
    pub fn new(capacity: u64, base: u64) -> Self {
        assert!(capacity > 0, "disk capacity must be positive");
        assert!(base <= capacity, "base usage cannot exceed capacity");
        WorkerDisk {
            capacity,
            base,
            other: 0,
            spills: 0,
        }
    }

    /// Sets the co-tenant usage (driven by a churn process).
    pub fn set_other(&mut self, bytes: u64) {
        self.other = bytes;
    }

    /// Adds spill bytes written by a running task.
    pub fn add_spill(&mut self, bytes: u64) {
        self.spills += bytes;
    }

    /// Releases spill bytes once the shuffle has fetched them.
    ///
    /// # Panics
    ///
    /// Panics if releasing more than is resident (an accounting bug).
    pub fn release_spill(&mut self, bytes: u64) {
        assert!(
            bytes <= self.spills,
            "releasing {bytes} spill bytes but only {} resident",
            self.spills
        );
        self.spills -= bytes;
    }

    /// Current spill residency.
    pub fn spill_bytes(&self) -> u64 {
        self.spills
    }

    /// Total used bytes.
    pub fn used_bytes(&self) -> u64 {
        self.base
            .saturating_add(self.other)
            .saturating_add(self.spills)
    }

    /// Free bytes (zero when over capacity).
    pub fn free_bytes(&self) -> u64 {
        self.capacity.saturating_sub(self.used_bytes())
    }

    /// Whether usage exceeds capacity — out-of-disk.
    pub fn is_full(&self) -> bool {
        self.used_bytes() > self.capacity
    }

    /// Used bytes in decimal MB.
    pub fn used_mb(&self) -> f64 {
        self.used_bytes() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut d = WorkerDisk::new(1_000, 100);
        d.set_other(200);
        d.add_spill(300);
        assert_eq!(d.used_bytes(), 600);
        assert_eq!(d.free_bytes(), 400);
        d.release_spill(100);
        assert_eq!(d.spill_bytes(), 200);
        assert_eq!(d.used_bytes(), 500);
    }

    #[test]
    fn full_detection() {
        let mut d = WorkerDisk::new(1_000, 100);
        d.set_other(900);
        assert!(!d.is_full()); // exactly full is not over
        d.add_spill(1);
        assert!(d.is_full());
        assert_eq!(d.free_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut d = WorkerDisk::new(1_000, 0);
        d.add_spill(10);
        d.release_spill(11);
    }

    #[test]
    #[should_panic(expected = "base usage")]
    fn base_over_capacity_panics() {
        let _ = WorkerDisk::new(100, 200);
    }
}
