//! A JVM-style heap with named components and a hard capacity.

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapModel {
    capacity: u64,
    /// Every component ever set, sorted by name (a plant sets a handful).
    components: Vec<(&'static str, u64)>,
    /// Exact sum of `components`: a `u128` cannot overflow on `u64` terms.
    total: u128,
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
            components: Vec::new(),
            total: 0,
        }
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.components.binary_search_by(|&(n, _)| n.cmp(name))
    }

    /// Sets a named component's usage.
    pub fn set_component(&mut self, name: &'static str, bytes: u64) {
        match self.find(name) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.components[i].1, bytes);
                self.total = self.total - u128::from(old) + u128::from(bytes);
            }
            Err(i) => {
                self.components.insert(i, (name, bytes));
                self.total += u128::from(bytes);
            }
        }
    }

    /// Reads a named component's usage (0 if never set).
    pub fn component(&self, name: &str) -> u64 {
        self.find(name).map_or(0, |i| self.components[i].1)
    }

    /// Total used bytes across components (saturating).
    pub fn used_bytes(&self) -> u64 {
        u64::try_from(self.total).unwrap_or(u64::MAX)
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every component name the kvstore plants set.
    const NAMES: [&str; 7] = [
        "base",
        "churn",
        "memstore",
        "memtable",
        "read_cache",
        "response_queue",
        "rpc_queue",
    ];

    /// `(name, kind, draw)` triples: `kind` picks 0, `u64::MAX`, a value
    /// just below it, a plant-sized value or the raw draw.
    fn sets() -> impl Strategy<Value = Vec<(usize, u8, u64)>> {
        prop::collection::vec((0..NAMES.len(), 0u8..5, 0u64..=u64::MAX), 0..40)
    }

    fn bytes(kind: u8, draw: u64) -> u64 {
        match kind {
            0 => 0,
            1 => u64::MAX,
            2 => u64::MAX - draw % 1_000,
            3 => draw % 1_000_000_000,
            _ => draw,
        }
    }

    fn apply(sets: &[(usize, u64)]) -> HeapModel {
        let mut heap = HeapModel::new(495_000_000);
        for &(name, bytes) in sets {
            heap.set_component(NAMES[name], bytes);
        }
        heap
    }

    fn resolve(sets: &[(usize, u8, u64)]) -> Vec<(usize, u64)> {
        sets.iter()
            .map(|&(name, kind, draw)| (name, bytes(kind, draw)))
            .collect()
    }

    proptest! {
        /// The running total equals the saturating fold over the
        /// components, and each lookup reads the last value set.
        #[test]
        fn total_matches_saturating_fold(sets in sets()) {
            let sets = resolve(&sets);
            let heap = apply(&sets);
            let mut last = BTreeMap::new();
            for &(name, bytes) in &sets {
                last.insert(NAMES[name], bytes);
            }
            let fold = last.values().fold(0u64, |acc, &v| acc.saturating_add(v));
            prop_assert_eq!(heap.used_bytes(), fold);
            prop_assert_eq!(heap.is_oom(), fold > 495_000_000);
            prop_assert_eq!(heap.free_bytes(), 495_000_000u64.saturating_sub(fold));
            for name in NAMES {
                prop_assert_eq!(heap.component(name), last.get(name).copied().unwrap_or(0));
            }
        }

        /// Two heaps holding the same final components compare equal
        /// whatever order the components were first set in.
        #[test]
        fn equality_ignores_insertion_order(sets in sets()) {
            let sets = resolve(&sets);
            let mut last = BTreeMap::new();
            for &(name, bytes) in &sets {
                last.insert(name, bytes);
            }
            let reversed: Vec<(usize, u64)> = last.iter().rev().map(|(&n, &b)| (n, b)).collect();
            prop_assert_eq!(apply(&sets), apply(&reversed));
        }
    }
}
