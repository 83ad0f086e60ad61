//! YCSB-style key-value workload generator.
//!
//! Table 6 of the paper describes key-value workloads by three knobs:
//! `xW` (write fraction), `yMB` (request size), `Cz` (read index cache
//! ratio). This generator reproduces that parameterization on top of an
//! arrival process. Ops carry no key, because no simulated store reads one.

use smartconf_simkernel::SimRng;

use crate::ArrivalProcess;

/// One key-value operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// A read; `cached` reflects the read-index cache draw (a cached read
    /// never touches the response path's large buffers).
    Read {
        /// Response payload size in bytes.
        size_bytes: u64,
        /// Whether the read hits the index cache (`Cz` knob).
        cached: bool,
    },
    /// A write with a payload.
    Write {
        /// Payload size in bytes.
        size_bytes: u64,
    },
}

impl KvOp {
    /// Payload size of the operation in bytes.
    pub fn size_bytes(&self) -> u64 {
        match *self {
            KvOp::Read { size_bytes, .. } | KvOp::Write { size_bytes, .. } => size_bytes,
        }
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, KvOp::Write { .. })
    }
}

/// A YCSB-style workload: op mix, request size, cache ratio, arrivals.
///
/// # Example
///
/// ```
/// use smartconf_simkernel::SimRng;
/// use smartconf_workload::YcsbWorkload;
///
/// // Paper notation "0.5W, 1MB": 50% writes, 1 MB requests.
/// let w = YcsbWorkload::paper("0.5W", 1.0, 0.0, 500.0);
/// let mut rng = SimRng::seed_from_u64(1);
/// let op = w.next_op(&mut rng);
/// assert_eq!(op.size_bytes(), 1_000_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct YcsbWorkload {
    write_fraction: f64,
    request_bytes: u64,
    cache_ratio: f64,
    arrivals: ArrivalProcess,
}

impl YcsbWorkload {
    /// Creates a workload.
    ///
    /// * `write_fraction` — fraction of operations that are writes.
    /// * `request_bytes` — payload size per operation.
    /// * `cache_ratio` — probability a read hits the index cache (`Cz`).
    /// * `arrivals` — arrival process.
    ///
    /// # Panics
    ///
    /// Panics if `write_fraction` or `cache_ratio` is outside `[0, 1]` or
    /// `request_bytes` is zero.
    pub fn new(
        write_fraction: f64,
        request_bytes: u64,
        cache_ratio: f64,
        arrivals: ArrivalProcess,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write fraction must be in [0,1], got {write_fraction}"
        );
        assert!(
            (0.0..=1.0).contains(&cache_ratio),
            "cache ratio must be in [0,1], got {cache_ratio}"
        );
        assert!(request_bytes > 0, "request size must be positive");
        YcsbWorkload {
            write_fraction,
            request_bytes,
            cache_ratio,
            arrivals,
        }
    }

    /// Builds a workload in the paper's Table 6 notation: `"xW"` (write
    /// fraction as a string like `"0.5W"`), request size in MB, cache
    /// ratio `Cz`, and a Poisson arrival rate in requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not of the form `"<float>W"` or parameters are
    /// out of range.
    pub fn paper(spec: &str, request_mb: f64, cache_ratio: f64, rate_per_sec: f64) -> Self {
        let frac: f64 = spec
            .strip_suffix('W')
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("workload spec must look like '0.5W', got '{spec}'"));
        YcsbWorkload::new(
            frac,
            (request_mb * 1e6) as u64,
            cache_ratio,
            ArrivalProcess::poisson_rate(rate_per_sec),
        )
    }

    /// Draws the next operation.
    pub fn next_op(&self, rng: &mut SimRng) -> KvOp {
        // This slot once drew a zipfian key (one draw) that no plant read.
        // The draw stays: every committed render, digest and pin replays
        // these streams, and the write and cache draws must land where
        // they always have.
        rng.next_u64();
        if rng.chance(self.write_fraction) {
            KvOp::Write {
                size_bytes: self.request_bytes,
            }
        } else {
            KvOp::Read {
                size_bytes: self.request_bytes,
                cached: rng.chance(self.cache_ratio),
            }
        }
    }

    /// The arrival process.
    pub fn arrivals(&self) -> &ArrivalProcess {
        &self.arrivals
    }

    /// Replaces the arrival process (e.g. to change load between phases).
    pub fn set_arrivals(&mut self, arrivals: ArrivalProcess) {
        self.arrivals = arrivals;
    }

    /// Write fraction.
    pub fn write_fraction(&self) -> f64 {
        self.write_fraction
    }

    /// Request payload size in bytes.
    pub fn request_bytes(&self) -> u64 {
        self.request_bytes
    }

    /// Read index cache hit ratio.
    pub fn cache_ratio(&self) -> f64 {
        self.cache_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyDistribution;

    /// `next_op` as it was while ops carried a zipfian key: the key draw,
    /// the write draw, then (reads only) the cache draw. Returns
    /// `(is_write, size_bytes, cached)`.
    fn keyed_next_op(
        w: &YcsbWorkload,
        keys: &KeyDistribution,
        rng: &mut SimRng,
    ) -> (bool, u64, bool) {
        let _key = keys.next_rank(rng);
        let write = rng.chance(w.write_fraction());
        let cached = !write && rng.chance(w.cache_ratio());
        (write, w.request_bytes(), cached)
    }

    #[test]
    fn op_stream_matches_keyed_reference() {
        // A zipfian rank is one draw whatever `n`, so a small keyspace
        // stands in for the old 10⁶ one.
        let keys = KeyDistribution::ycsb_default(1_000);
        for seed in [1, 7, 42, 0xdead_beef] {
            for spec in ["0.0W", "0.3W", "1.0W"] {
                for cache in [0.0, 0.5] {
                    let w = YcsbWorkload::paper(spec, 1.0, cache, 100.0);
                    let mut now = SimRng::seed_from_u64(seed);
                    let mut then = SimRng::seed_from_u64(seed);
                    for i in 0..1_000 {
                        let op = w.next_op(&mut now);
                        let cached = matches!(op, KvOp::Read { cached: true, .. });
                        assert_eq!(
                            (op.is_write(), op.size_bytes(), cached),
                            keyed_next_op(&w, &keys, &mut then),
                            "seed {seed} {spec} C{cache}: op {i} moved"
                        );
                    }
                    assert_eq!(
                        now.next_u64(),
                        then.next_u64(),
                        "seed {seed} {spec} C{cache}: draw count moved"
                    );
                }
            }
        }
    }

    #[test]
    fn op_mix_matches_fraction() {
        let mut rng = SimRng::seed_from_u64(1);
        let w = YcsbWorkload::paper("0.3W", 1.0, 0.0, 100.0);
        let n = 10_000;
        let writes = (0..n).filter(|_| w.next_op(&mut rng).is_write()).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn all_write_and_all_read() {
        let mut rng = SimRng::seed_from_u64(2);
        let all_w = YcsbWorkload::paper("1.0W", 1.0, 0.0, 100.0);
        assert!((0..100).all(|_| all_w.next_op(&mut rng).is_write()));
        let all_r = YcsbWorkload::paper("0.0W", 2.0, 0.0, 100.0);
        assert!((0..100).all(|_| !all_r.next_op(&mut rng).is_write()));
    }

    #[test]
    fn request_size_respected() {
        let mut rng = SimRng::seed_from_u64(3);
        let w = YcsbWorkload::paper("0.5W", 2.0, 0.0, 100.0);
        assert_eq!(w.next_op(&mut rng).size_bytes(), 2_000_000);
        assert_eq!(w.request_bytes(), 2_000_000);
    }

    #[test]
    fn cache_ratio_hits() {
        let mut rng = SimRng::seed_from_u64(4);
        let w = YcsbWorkload::paper("0.0W", 1.0, 0.5, 100.0);
        let n = 10_000;
        let mut hits = 0;
        for _ in 0..n {
            if let KvOp::Read { cached: true, .. } = w.next_op(&mut rng) {
                hits += 1;
            }
        }
        let ratio = hits as f64 / n as f64;
        assert!((ratio - 0.5).abs() < 0.03, "cache hit ratio {ratio}");
        assert_eq!(w.cache_ratio(), 0.5);
    }

    #[test]
    fn workload_presets() {
        // YCSB's A (update-heavy), B (read-mostly) and C (read-only) mixes.
        for (spec, frac) in [("0.5W", 0.5), ("0.05W", 0.05), ("0.0W", 0.0)] {
            let w = YcsbWorkload::paper(spec, 0.001, 0.0, 50.0);
            assert_eq!(w.write_fraction(), frac);
        }
        let mut rng = SimRng::seed_from_u64(1);
        let c = YcsbWorkload::paper("0.0W", 0.001, 0.0, 50.0);
        assert_eq!(c.request_bytes(), 1000);
        assert!((0..200).all(|_| !c.next_op(&mut rng).is_write()));
    }

    #[test]
    fn set_arrivals_swaps_process() {
        let mut w = YcsbWorkload::paper("0.5W", 0.001, 0.0, 50.0);
        w.set_arrivals(ArrivalProcess::poisson_rate(200.0));
        assert!((w.arrivals().mean_rate() - 200.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "workload spec")]
    fn bad_spec_panics() {
        let _ = YcsbWorkload::paper("half", 1.0, 0.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "write fraction")]
    fn bad_fraction_panics() {
        let _ = YcsbWorkload::paper("1.5W", 1.0, 0.0, 100.0);
    }

    #[test]
    fn deterministic_stream() {
        let w = YcsbWorkload::paper("0.5W", 0.001, 0.0, 50.0);
        let mut r1 = SimRng::seed_from_u64(9);
        let mut r2 = SimRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(w.next_op(&mut r1), w.next_op(&mut r2));
        }
    }
}
