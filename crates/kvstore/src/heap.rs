//! A JVM-style heap with named components and a hard capacity.

use std::collections::BTreeMap;

/// Tracks heap usage as a set of named components against a fixed
/// capacity.
///
/// The hard goals of the key-value case studies are all "heap usage must
/// stay below the JVM limit"; exceeding the capacity given to
/// [`HeapModel::new`] is an OutOfMemoryError, which in the simulators
/// crashes the server (the run halts and is marked failed).
///
/// # Example
///
/// ```
/// use smartconf_kvstore::HeapModel;
///
/// let mut heap = HeapModel::new(495 * 1_000_000);
/// heap.set_component("base", 100_000_000);
/// heap.set_component("rpc_queue", 200_000_000);
/// assert_eq!(heap.used_bytes(), 300_000_000);
/// assert!(!heap.is_oom());
/// heap.set_component("churn", 300_000_000);
/// assert!(heap.is_oom());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeapModel {
    capacity: u64,
    components: BTreeMap<&'static str, u64>,
}

impl HeapModel {
    /// Creates a heap with the given capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "heap capacity must be positive");
        HeapModel {
            capacity,
            components: BTreeMap::new(),
        }
    }

    /// Sets a named component's usage.
    pub fn set_component(&mut self, name: &'static str, bytes: u64) {
        self.components.insert(name, bytes);
    }

    /// Reads a named component's usage (0 if never set).
    pub fn component(&self, name: &str) -> u64 {
        self.components.get(name).copied().unwrap_or(0)
    }

    /// Total used bytes across components (saturating).
    pub fn used_bytes(&self) -> u64 {
        self.components
            .values()
            .fold(0u64, |acc, &v| acc.saturating_add(v))
    }

    /// Used bytes as megabytes (decimal MB, matching the paper's figures).
    pub fn used_mb(&self) -> f64 {
        self.used_bytes() as f64 / 1e6
    }

    /// Remaining headroom, zero when over capacity.
    pub fn free_bytes(&self) -> u64 {
        self.capacity.saturating_sub(self.used_bytes())
    }

    /// Whether usage exceeds capacity — an OutOfMemoryError.
    pub fn is_oom(&self) -> bool {
        self.used_bytes() > self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum() {
        let mut h = HeapModel::new(1000);
        h.set_component("a", 200);
        h.set_component("b", 300);
        assert_eq!(h.used_bytes(), 500);
        assert_eq!(h.free_bytes(), 500);
        assert_eq!(h.component("a"), 200);
        assert_eq!(h.component("missing"), 0);
    }

    #[test]
    fn overwriting_component_replaces() {
        let mut h = HeapModel::new(1000);
        h.set_component("a", 200);
        h.set_component("a", 50);
        assert_eq!(h.used_bytes(), 50);
    }

    #[test]
    fn oom_at_boundary() {
        let mut h = HeapModel::new(100);
        h.set_component("x", 100);
        assert!(!h.is_oom()); // exactly full is not over
        h.set_component("x", 101);
        assert!(h.is_oom());
        assert_eq!(h.free_bytes(), 0);
    }

    #[test]
    fn used_mb_is_decimal() {
        let mut h = HeapModel::new(500_000_000);
        h.set_component("x", 250_000_000);
        assert_eq!(h.used_mb(), 250.0);
    }

    #[test]
    fn saturating_sum_does_not_overflow() {
        let mut h = HeapModel::new(100);
        h.set_component("a", u64::MAX);
        h.set_component("b", u64::MAX);
        assert!(h.is_oom());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = HeapModel::new(0);
    }
}
