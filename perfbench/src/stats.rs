//! Exact order statistics, output digests, and host facts.

/// Percentiles tried from the top down; the first one with at least
/// [`MIN_BEYOND`] samples above it is the one reported.
const PERCENTILES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of ascending `sorted` samples.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The highest percentile of `n` samples with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when `n` is too small
/// even for the median.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of an unsorted sample of floats (mean of the middle two for
/// an even count).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// FNV-1a over everything the bridge emitted, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: std::time::Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn highest_supported_keeps_ten_beyond() {
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(100_000), Some(99.99));
        assert_eq!(highest_supported(15), None);
    }

    #[test]
    fn digest_sees_every_byte() {
        let mut a = Digest::default();
        a.update(b"abc");
        let mut b = Digest::default();
        b.update(b"abd");
        assert_ne!(a, b);
    }
}
