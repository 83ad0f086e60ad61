//! Small numeric helpers: medians, host-speed correction, digests, peak
//! RSS.

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

/// FNV-1a 64-bit digest of a rendered report: a short fingerprint a
/// later change can compare to show simulated statistics did not move.
pub fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MB (`VmRSS`); 0 where
/// the platform does not expose it.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:").unwrap_or(0.0)
}

fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system) this thread has used, from
/// `/proc/thread-self/stat`; 0 where that is unavailable.
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Geometric mean of positive finite values; `None` if there are none
/// or any value is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
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
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest("report 1"), digest("report 2"));
    }

    #[test]
    fn geomean_rejects_non_positive() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }
}
