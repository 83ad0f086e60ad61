//! Sensors: how measured performance reaches the controller.
//!
//! The paper requires developers to "provide a sensor that measures the
//! performance metric M to be controlled" (§4.1.1), citing existing ones
//! like MapReduce's `MemHeapUsedM`. In this library a sensor is anything
//! implementing [`Sensor`]; [`MedianFilter`] is the admission check a
//! guarded control site puts between a sensor and its controller.

use std::fmt;

/// A source of performance measurements.
pub trait Sensor: fmt::Debug + Send {
    /// Takes the current measurement.
    fn measure(&mut self) -> f64;
}

/// Sensor-admission filter: rejects non-finite readings and spikes far
/// from the median of recent admitted readings.
///
/// This is the validation stage of the resilience guard
/// (`smartconf-runtime`'s chaos mode): a reading is admitted only when it
/// is finite and — once the window has filled — within `ratio` of the
/// recent median (with a unit floor so near-zero medians don't reject
/// everything). Rejected readings never reach the controller.
///
/// # Example
///
/// ```
/// use smartconf_core::MedianFilter;
///
/// let mut f = MedianFilter::new(3, 8.0);
/// for v in [100.0, 102.0, 98.0] {
///     assert!(f.admit(v)); // window warming up: finite values pass
/// }
/// assert!(!f.admit(f64::NAN)); // never finite-admissible
/// assert!(!f.admit(2_500.0)); // 25x the median: rejected as a spike
/// assert!(f.admit(110.0)); // plausible reading passes
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MedianFilter {
    window: Vec<f64>,
    cap: usize,
    next: usize,
    ratio: f64,
}

impl MedianFilter {
    /// Creates a filter with a window of `cap` recent admitted readings
    /// (clamped ≥ 1) and a spike threshold of `ratio` times the median.
    pub fn new(cap: usize, ratio: f64) -> Self {
        MedianFilter {
            window: Vec::new(),
            cap: cap.max(1),
            next: 0,
            ratio: ratio.max(1.0),
        }
    }

    /// The median of the admitted window, or `None` while empty.
    pub fn median(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut sorted = self.window.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Some(sorted[sorted.len() / 2])
    }

    /// Whether the window has filled (spike rejection active).
    pub fn warmed_up(&self) -> bool {
        self.window.len() >= self.cap
    }

    /// Validates one reading. Admitted readings enter the window;
    /// rejected ones (non-finite, or a spike once warmed up) do not.
    pub fn admit(&mut self, v: f64) -> bool {
        if !v.is_finite() {
            return false;
        }
        if self.warmed_up() {
            let m = self.median().unwrap();
            // Unit floor: at near-zero medians compare against ratio*1.
            if v.abs() > self.ratio * (1.0 + m.abs()) {
                return false;
            }
        }
        if self.window.len() < self.cap {
            self.window.push(v);
        } else {
            self.window[self.next] = v;
            self.next = (self.next + 1) % self.cap;
        }
        true
    }

    /// Discards the window (used after a plant restart, when old
    /// readings no longer describe the running system).
    pub fn clear(&mut self) {
        self.window.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensors_are_object_safe() {
        #[derive(Debug)]
        struct Reading(f64);
        impl Sensor for Reading {
            fn measure(&mut self) -> f64 {
                self.0
            }
        }
        let mut sensors: Vec<Box<dyn Sensor>> =
            vec![Box::new(Reading(1.0)), Box::new(Reading(2.0))];
        let vals: Vec<f64> = sensors.iter_mut().map(|s| s.measure()).collect();
        assert_eq!(vals, vec![1.0, 2.0]);
    }

    #[test]
    fn median_filter_rejects_nonfinite_always() {
        let mut f = MedianFilter::new(4, 8.0);
        assert!(!f.admit(f64::NAN));
        assert!(!f.admit(f64::INFINITY));
        assert!(!f.admit(f64::NEG_INFINITY));
        assert!(f.median().is_none());
    }

    #[test]
    fn median_filter_warmup_admits_then_rejects_spikes() {
        let mut f = MedianFilter::new(3, 8.0);
        assert!(!f.warmed_up());
        for v in [10.0, 12.0, 11.0] {
            assert!(f.admit(v));
        }
        assert!(f.warmed_up());
        assert_eq!(f.median(), Some(11.0));
        assert!(!f.admit(11.0 * 25.0), "25x median is a spike");
        assert!(f.admit(20.0), "within 8x(1+median)");
        // Spikes do not pollute the window.
        assert!(f.median().unwrap() < 21.0);
    }

    #[test]
    fn median_filter_unit_floor_near_zero() {
        let mut f = MedianFilter::new(3, 8.0);
        for _ in 0..3 {
            assert!(f.admit(0.0));
        }
        // Median 0: anything below ratio*(1+0)=8 still passes.
        assert!(f.admit(5.0));
        assert!(!f.admit(9.0));
    }

    #[test]
    fn median_filter_clear_resets_warmup() {
        let mut f = MedianFilter::new(2, 8.0);
        assert!(f.admit(1.0));
        assert!(f.admit(1.0));
        assert!(f.warmed_up());
        f.clear();
        assert!(!f.warmed_up());
        assert!(f.admit(1_000_000.0), "post-clear warmup admits any finite");
    }
}
