//! Host-speed correction for wall-clock timings.
//!
//! A shared host runs everything faster or slower from one moment to
//! the next. [`calibration_secs`] times a fixed kernel that never
//! changes with the program; dividing a timing by a calibration taken
//! right after it cancels the host's speed, and [`corrected_secs`]
//! quotes the median of those ratios at the reference speed
//! [`CALIBRATION_REF_S`]. The repository benchmark under `perfbench/`
//! carries an identical copy of the kernel; CI fails if the two drift.

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds a fixed kernel owned by the benchmark takes on this host right
/// now: build a 1 Mi-entry table of hashed keys and a random
/// permutation, chase the permutation once, and sort the keys. It mixes
/// allocation, cache-missing loads and branchy compute, as set-up and
/// the soak sweep do. The kernel never changes with the program, so the
/// ratio of a timing to it cancels how fast the host happens to be.
pub fn calibration_secs() -> f64 {
    const N: usize = 1 << 20;
    let start = std::time::Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut keys: Vec<u64> = (0..N)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        })
        .collect();
    let mut next: Vec<u32> = (0..N as u32).collect();
    for i in (1..N).rev() {
        next.swap(i, (keys[i] % (i as u64 + 1)) as usize);
    }
    let (mut p, mut acc) = (0u32, 0u64);
    for _ in 0..N {
        p = next[p as usize];
        acc = acc.wrapping_add(p as u64);
    }
    keys.sort_unstable();
    std::hint::black_box((acc, keys[N / 2]));
    start.elapsed().as_secs_f64()
}

/// What the calibration kernel takes on an idle core of the host the
/// benchmark was defined on (a shared 2-vCPU 2.1 GHz Xeon VM): the host
/// speed at which corrected timings are quoted.
pub const CALIBRATION_REF_S: f64 = 0.0625;

/// Host-speed-corrected seconds from `(seconds, calibration seconds)`
/// pairs, each calibration taken right after its timing: the median of
/// the ratios, times [`CALIBRATION_REF_S`]. A phase in which the host
/// runs everything 1.5x slower moves a timing and its calibration alike
/// and leaves the ratio; a change to the program moves only the timing.
pub fn corrected_secs(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let ratios: Vec<f64> = pairs.into_iter().map(|(s, c)| s / c).collect();
    median(&ratios) * CALIBRATION_REF_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn corrected_secs_is_the_median_ratio_at_reference_speed() {
        // Ratios 20, 20 and 30: the slow-host pair (4 s, 0.2 s) counts
        // as much as the fast one.
        let pairs = [(2.0, 0.1), (4.0, 0.2), (3.0, 0.1)];
        assert!((corrected_secs(pairs) - 20.0 * CALIBRATION_REF_S).abs() < 1e-12);
        let c = calibration_secs();
        assert!(c.is_finite() && c > 0.0);
    }

    #[test]
    fn corrected_secs_cancels_a_uniformly_slower_host() {
        let pairs = [(0.42, 0.061), (0.51, 0.074), (0.47, 0.065), (0.44, 0.063)];
        let fast = corrected_secs(pairs);
        for factor in [0.5, 1.5, 3.0] {
            let slow = pairs.map(|(s, c)| (s * factor, c * factor));
            assert!(
                (corrected_secs(slow) - fast).abs() < 1e-12 * fast,
                "{factor}"
            );
        }
    }
}
