//! Write buffers: the Cassandra memtable and the HBase memstore.

use smartconf_simkernel::SimDuration;

/// A Cassandra-style memtable: an in-memory write buffer flushed to disk
/// when it reaches a (dynamically adjustable) size threshold.
///
/// CA6059's configuration `memtable_total_space_in_mb` is the threshold;
/// the memtable's actual size is the deputy variable. While a flush is in
/// progress new writes land in the active buffer; if that buffer reaches
/// the threshold again before the flush finishes, writes *stall* until it
/// completes — the latency cost of a too-small threshold.
///
/// # Example
///
/// ```
/// use smartconf_kvstore::Memtable;
///
/// let mut mt = Memtable::new(64_000_000, 50_000_000.0);
/// mt.write(10_000_000);
/// assert!(!mt.should_flush());
/// mt.write(60_000_000);
/// assert!(mt.should_flush());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Memtable {
    active_bytes: u64,
    flushing_bytes: u64,
    threshold: u64,
    /// Disk drain rate in bytes/second.
    flush_rate: f64,
}

impl Memtable {
    /// Creates a memtable with a flush `threshold` in bytes and a disk
    /// drain rate in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `flush_rate` is not positive and finite.
    pub fn new(threshold: u64, flush_rate: f64) -> Self {
        assert!(
            flush_rate.is_finite() && flush_rate > 0.0,
            "flush rate must be positive, got {flush_rate}"
        );
        Memtable {
            active_bytes: 0,
            flushing_bytes: 0,
            threshold,
            flush_rate,
        }
    }

    /// Buffers a write.
    pub fn write(&mut self, bytes: u64) {
        self.active_bytes += bytes;
    }

    /// Bytes in the active buffer (the deputy variable of CA6059).
    pub fn active_bytes(&self) -> u64 {
        self.active_bytes
    }

    /// Bytes currently draining to disk.
    pub fn flushing_bytes(&self) -> u64 {
        self.flushing_bytes
    }

    /// Total heap residency: active plus still-draining bytes.
    pub fn total_bytes(&self) -> u64 {
        self.active_bytes + self.flushing_bytes
    }

    /// Adjusts the threshold at run time (the SmartConf control action).
    pub fn set_threshold(&mut self, threshold: u64) {
        self.threshold = threshold;
    }

    /// Whether the active buffer has reached the threshold.
    pub fn should_flush(&self) -> bool {
        self.active_bytes >= self.threshold
    }

    /// Whether a flush is draining.
    pub fn is_flushing(&self) -> bool {
        self.flushing_bytes > 0
    }

    /// Starts a flush: the active buffer is sealed and begins draining.
    /// Returns how long the drain will take.
    ///
    /// # Panics
    ///
    /// Panics if a flush is already in progress (callers must wait for
    /// [`Memtable::finish_flush`]).
    pub fn start_flush(&mut self) -> SimDuration {
        assert!(!self.is_flushing(), "flush already in progress");
        self.flushing_bytes = self.active_bytes;
        self.active_bytes = 0;
        SimDuration::from_secs_f64(self.flushing_bytes as f64 / self.flush_rate)
    }

    /// Completes the in-progress flush, releasing its heap residency.
    pub fn finish_flush(&mut self) {
        self.flushing_bytes = 0;
    }

    /// Drops the buffered and draining bytes (an injected plant restart:
    /// heap residency is gone, the commit log replays out of band). The
    /// threshold survives.
    pub fn clear(&mut self) {
        self.active_bytes = 0;
        self.flushing_bytes = 0;
    }
}

/// An HBase-style memstore with upper/lower flush watermarks.
///
/// When the store reaches the fixed *upper* watermark, writes block and a
/// flush drains data down to the *lower* watermark (HB2149's
/// `global.memstore.lowerLimit`). A lower watermark close to the upper
/// one gives short but frequent blocking flushes; a low one gives rare
/// but long blocks. Each flush also pays a fixed setup overhead, so the
/// flush *depth* trades blocked time against flush count.
///
/// # Example
///
/// ```
/// use smartconf_kvstore::Memstore;
///
/// let mut ms = Memstore::new(200_000_000, 140_000_000, 40_000_000.0, 2.0);
/// ms.write(200_000_000);
/// assert!(ms.at_upper());
/// let block = ms.blocking_flush();
/// // Drains 60 MB at 40 MB/s plus 2 s overhead = 3.5 s.
/// assert_eq!(block.as_millis(), 3_500);
/// assert_eq!(ms.bytes(), 140_000_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Memstore {
    bytes: u64,
    upper: u64,
    lower: u64,
    drain_rate: f64,
    flush_overhead_secs: f64,
    flush_count: u64,
}

impl Memstore {
    /// Creates a memstore.
    ///
    /// * `upper` — blocking watermark in bytes (fixed by heap sizing).
    /// * `lower` — flush-until watermark in bytes (the PerfConf).
    /// * `drain_rate` — disk drain rate in bytes/second.
    /// * `flush_overhead_secs` — fixed per-flush setup cost.
    ///
    /// # Panics
    ///
    /// Panics if `drain_rate` is not positive or `upper` is zero.
    pub fn new(upper: u64, lower: u64, drain_rate: f64, flush_overhead_secs: f64) -> Self {
        assert!(upper > 0, "upper watermark must be positive");
        assert!(
            drain_rate.is_finite() && drain_rate > 0.0,
            "drain rate must be positive, got {drain_rate}"
        );
        assert!(
            flush_overhead_secs.is_finite() && flush_overhead_secs >= 0.0,
            "flush overhead must be non-negative"
        );
        Memstore {
            bytes: 0,
            upper,
            lower: lower.min(upper),
            drain_rate,
            flush_overhead_secs,
            flush_count: 0,
        }
    }

    /// Buffers a write (clamped at the upper watermark: the caller must
    /// block once [`Memstore::at_upper`] is true).
    pub fn write(&mut self, bytes: u64) {
        self.bytes = (self.bytes + bytes).min(self.upper);
    }

    /// Current store size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The fixed blocking watermark.
    pub fn upper(&self) -> u64 {
        self.upper
    }

    /// The adjustable flush-until watermark.
    pub fn lower(&self) -> u64 {
        self.lower
    }

    /// Adjusts the lower watermark (the SmartConf control action),
    /// clamped to the upper watermark.
    pub fn set_lower(&mut self, lower: u64) {
        self.lower = lower.min(self.upper);
    }

    /// Whether the store is at the blocking watermark.
    pub fn at_upper(&self) -> bool {
        self.bytes >= self.upper
    }

    /// Performs a blocking flush down to the lower watermark and returns
    /// how long writes were blocked (drain time plus fixed overhead).
    pub fn blocking_flush(&mut self) -> SimDuration {
        let drained = self.bytes.saturating_sub(self.lower);
        self.bytes = self.bytes.min(self.lower);
        self.flush_count += 1;
        SimDuration::from_secs_f64(self.flush_overhead_secs + drained as f64 / self.drain_rate)
    }

    /// Number of blocking flushes performed.
    pub fn flush_count(&self) -> u64 {
        self.flush_count
    }

    /// Empties the store (an injected plant restart). Watermarks and the
    /// flush counter survive.
    pub fn clear(&mut self) {
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memtable_flush_lifecycle() {
        let mut mt = Memtable::new(100, 50.0);
        mt.write(100);
        assert!(mt.should_flush());
        assert!(!mt.is_flushing());
        let d = mt.start_flush();
        assert_eq!(d, SimDuration::from_secs(2));
        assert!(mt.is_flushing());
        assert_eq!(mt.active_bytes(), 0);
        assert_eq!(mt.total_bytes(), 100);
        // Writes continue into the fresh active buffer during the drain.
        mt.write(30);
        assert_eq!(mt.total_bytes(), 130);
        mt.finish_flush();
        assert_eq!(mt.total_bytes(), 30);
    }

    #[test]
    fn memtable_threshold_adjustable() {
        let mut mt = Memtable::new(100, 50.0);
        mt.write(60);
        assert!(!mt.should_flush());
        mt.set_threshold(50);
        assert!(mt.should_flush());
    }

    #[test]
    #[should_panic(expected = "flush already in progress")]
    fn double_flush_panics() {
        let mut mt = Memtable::new(100, 50.0);
        mt.write(100);
        let _ = mt.start_flush();
        let _ = mt.start_flush();
    }

    #[test]
    fn memstore_flush_depth_sets_block_time() {
        let mut shallow = Memstore::new(200, 180, 10.0, 1.0);
        shallow.write(200);
        // Drain 20 bytes at 10 B/s + 1 s overhead = 3 s.
        assert_eq!(shallow.blocking_flush(), SimDuration::from_secs(3));

        let mut deep = Memstore::new(200, 20, 10.0, 1.0);
        deep.write(200);
        // Drain 180 bytes + overhead = 19 s: longer block.
        assert_eq!(deep.blocking_flush(), SimDuration::from_secs(19));
        assert_eq!(deep.bytes(), 20);
        assert_eq!(deep.flush_count(), 1);
    }

    #[test]
    fn memstore_clamps_at_upper() {
        let mut ms = Memstore::new(100, 50, 10.0, 0.0);
        ms.write(500);
        assert_eq!(ms.bytes(), 100);
        assert!(ms.at_upper());
    }

    #[test]
    fn memstore_lower_clamped_to_upper() {
        let mut ms = Memstore::new(100, 50, 10.0, 0.0);
        ms.set_lower(300);
        assert_eq!(ms.lower(), 100);
        ms.set_lower(70);
        assert_eq!(ms.lower(), 70);
        assert_eq!(ms.upper(), 100);
    }

    #[test]
    fn memstore_flush_from_below_lower_is_noop_drain() {
        let mut ms = Memstore::new(100, 50, 10.0, 2.0);
        ms.write(30);
        let d = ms.blocking_flush();
        // Nothing above lower: only the overhead is paid.
        assert_eq!(d, SimDuration::from_secs(2));
        assert_eq!(ms.bytes(), 30);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under any interleaving of writes and flush cycles, the
        /// memtable's byte accounting never goes negative and a finished
        /// flush always releases exactly what it sealed.
        #[test]
        fn memtable_accounting(
            ops in prop::collection::vec((0u8..2, 1u64..10_000), 1..200)
        ) {
            let mut mt = Memtable::new(50_000, 1e6);
            for (op, bytes) in ops {
                match op {
                    0 => mt.write(bytes),
                    _ => {
                        if mt.is_flushing() {
                            mt.finish_flush();
                            prop_assert_eq!(mt.flushing_bytes(), 0);
                        } else if mt.active_bytes() > 0 {
                            let sealed = mt.active_bytes();
                            let _ = mt.start_flush();
                            prop_assert_eq!(mt.flushing_bytes(), sealed);
                            prop_assert_eq!(mt.active_bytes(), 0);
                        }
                    }
                }
                prop_assert_eq!(
                    mt.total_bytes(),
                    mt.active_bytes() + mt.flushing_bytes()
                );
            }
        }

        /// The memstore never exceeds its upper watermark, and a blocking
        /// flush always lands at or below the lower watermark.
        #[test]
        fn memstore_watermarks(
            ops in prop::collection::vec((0u8..3, 1u64..50_000, 0u64..120_000), 1..200)
        ) {
            let mut ms = Memstore::new(100_000, 60_000, 1e6, 0.5);
            for (op, bytes, lower) in ops {
                match op {
                    0 => ms.write(bytes),
                    1 => {
                        let _ = ms.blocking_flush();
                        prop_assert!(ms.bytes() <= ms.lower());
                    }
                    _ => ms.set_lower(lower),
                }
                prop_assert!(ms.bytes() <= ms.upper());
                prop_assert!(ms.lower() <= ms.upper());
            }
        }
    }
}
