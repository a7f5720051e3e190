//! Sample statistics and the response digest.
//!
//! Percentiles are nearest-rank. A tail percentile is only trusted when at
//! least [`MIN_BEYOND`] of a run's samples lie beyond it — below that the
//! "percentile" is one or two outliers and moves with every scheduler hiccup.

/// Samples that must lie beyond a percentile for it to be trusted.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// such that at least `q` of the samples are `<=` it. `None` on empty input.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank position of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of a float series (mean of the middle two when even); `None` on
/// empty input. Sorts a copy — the series here are a handful of repetitions.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Median of integer samples, as a float.
pub fn median_u64(values: &[u64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5).map(|m| m as f64)
}

/// FNV-1a (64-bit) over the *semantic* content of every response: class
/// tags, ids, rows, counts. Never latencies — two repetitions of one seeded
/// program must produce the same digest bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer in (little-endian, fixed width).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a string in, length-prefixed so adjacent strings cannot alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // Five samples: p50 is the third, p90 the fifth.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), Some(30));
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.9), Some(50));
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100_000, 0.9999), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert!(samples_beyond(210, 0.75) >= MIN_BEYOND);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_u64(&[9, 1, 5]), Some(5.0));
    }

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let fold = |parts: &[&str]| {
            let mut d = Digest::default();
            for p in parts {
                d.str(p);
            }
            d.value()
        };
        assert_eq!(fold(&["ab", "c"]), fold(&["ab", "c"]));
        assert_ne!(fold(&["ab", "c"]), fold(&["a", "bc"]));
        assert_ne!(fold(&["a", "b"]), fold(&["b", "a"]));
    }
}
