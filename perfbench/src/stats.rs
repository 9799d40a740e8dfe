//! Summary statistics and the decision digest.
//!
//! Percentiles use the nearest-rank definition and enforce the
//! sample-count rule: a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie above it, so a p90 needs 100 samples and
//! a p50 needs 20.

/// Samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(pct: usize, n: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n)
}

/// The nearest-rank `pct`-th percentile (`0 < pct < 100`) of `samples`,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 || pct == 0 || pct >= 100 || n - rank(pct, n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(pct, n) - 1])
}

/// The median of a small sample set (the mean of the middle two for an
/// even count). No sample-count rule: it summarises the few set-up
/// repetitions of one run.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// 64-bit FNV-1a over everything a pass decided. Bit-exact: floats
/// enter by their bit patterns, strings and lists length-prefixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes in a float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Mixes in a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Mixes in a length-prefixed list of indices.
    pub fn usizes(&mut self, v: &[usize]) -> &mut Self {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x as u64);
        }
        self
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(100), 50), Some(50.0));
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        let mut reversed = ramp(200);
        reversed.reverse();
        assert_eq!(percentile(&reversed, 90), Some(180.0));
    }

    #[test]
    fn sample_count_rule() {
        assert_eq!(percentile(&[], 50), None);
        // The fewest samples each percentile needs, and one fewer.
        for (pct, n) in [(50, 20), (90, 100), (99, 1000)] {
            let p = percentile(&ramp(n), pct).expect("enough samples");
            assert_eq!(ramp(n).iter().filter(|&&x| x > p).count(), MIN_BEYOND);
            assert_eq!(percentile(&ramp(n - 1), pct), None);
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        // Reference values of 64-bit FNV-1a.
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Digest::default().bytes(b"foobar").value(),
            0x8594_4171_f739_67e8
        );
        assert_ne!(
            Digest::default().u64(1).u64(2).value(),
            Digest::default().u64(2).u64(1).value()
        );
        assert_ne!(
            Digest::default().f64(0.0).value(),
            Digest::default().f64(-0.0).value()
        );
        // Length prefixes keep field boundaries apart.
        assert_ne!(
            Digest::default().str("ab").str("c").value(),
            Digest::default().str("a").str("bc").value()
        );
        assert_ne!(
            Digest::default().usizes(&[1, 2]).usizes(&[]).value(),
            Digest::default().usizes(&[1]).usizes(&[2]).value()
        );
    }
}
