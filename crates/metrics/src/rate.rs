//! Windowed throughput counter.

use std::collections::VecDeque;

/// Counts events and reports a rate over a sliding time window.
///
/// Time is supplied by the caller in integer microseconds (matching the
/// simulation kernel's clock), so the counter works identically under
/// simulated and wall-clock time. The paper's Figure 6(a) plots RPC
/// throughput; this is the sensor behind that series.
///
/// # Example
///
/// ```
/// use smartconf_metrics::RateCounter;
///
/// let mut r = RateCounter::new(1_000_000); // 1 s window
/// r.record(0, 1);
/// r.record(500_000, 1);
/// assert_eq!(r.rate_per_sec(500_000), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateCounter {
    window_us: u64,
    events: VecDeque<(u64, u64)>,
    in_window: u64,
}

impl RateCounter {
    /// Creates a counter with the given window length in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_us` is zero.
    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0, "rate window must be positive");
        RateCounter {
            window_us,
            events: VecDeque::new(),
            in_window: 0,
        }
    }

    /// Records `n` events at time `now_us`.
    pub fn record(&mut self, now_us: u64, n: u64) {
        self.evict(now_us);
        self.events.push_back((now_us, n));
        self.in_window += n;
    }

    fn evict(&mut self, now_us: u64) {
        let cutoff = now_us.saturating_sub(self.window_us);
        while let Some(&(t, n)) = self.events.front() {
            if t < cutoff {
                self.events.pop_front();
                self.in_window -= n;
            } else {
                break;
            }
        }
    }

    /// Event rate per second over the window ending at `now_us`.
    pub fn rate_per_sec(&mut self, now_us: u64) -> f64 {
        self.evict(now_us);
        self.in_window as f64 * 1e6 / self.window_us as f64
    }

    /// Window length in microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_age_out() {
        let mut r = RateCounter::new(1_000);
        r.record(0, 5);
        // 5 events over a 1 ms window = 5000/s.
        assert_eq!(r.rate_per_sec(500), 5_000.0);
        assert_eq!(r.rate_per_sec(1_500), 0.0);
    }

    #[test]
    fn rate_scales_with_window() {
        let mut r = RateCounter::new(2_000_000);
        r.record(0, 4);
        // 4 events over a 2 s window = 2/s.
        assert_eq!(r.rate_per_sec(0), 2.0);
    }

    #[test]
    fn boundary_is_inclusive() {
        let mut r = RateCounter::new(1_000);
        r.record(1_000, 1);
        // Event at exactly cutoff (2_000 - 1_000) stays in window.
        assert_eq!(r.rate_per_sec(2_000), 1_000.0);
        assert_eq!(r.rate_per_sec(2_001), 0.0);
    }

    #[test]
    #[should_panic(expected = "rate window")]
    fn zero_window_panics() {
        let _ = RateCounter::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The windowed rate equals a brute-force recount over the window
        /// for any monotone event sequence and query time.
        #[test]
        fn window_count_matches_recount(
            mut events in prop::collection::vec((0u64..100_000, 1u64..5), 1..100),
            query_offset in 0u64..120_000,
        ) {
            events.sort_by_key(|&(t, _)| t);
            let mut r = RateCounter::new(10_000);
            for &(t, n) in &events {
                r.record(t, n);
            }
            let query = events.last().unwrap().0 + query_offset % 20_000;
            let expected: u64 = events
                .iter()
                .filter(|&&(t, _)| t >= query.saturating_sub(10_000))
                .map(|&(_, n)| n)
                .sum();
            prop_assert_eq!(r.rate_per_sec(query), expected as f64 * 1e6 / 10_000.0);
        }
    }
}
