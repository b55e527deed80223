//! Order statistics and the answer digest.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 · n)` (1-based). `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// How many samples lie strictly beyond the nearest-rank position of
/// percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil().clamp(1.0, n.max(1) as f64) as usize
}

/// The choosing-metrics rule: a percentile is supported when at least ten
/// samples lie beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the midpoint rule for even counts (used for block medians
/// and `--repeat` summaries, not for latency percentiles).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, the one Python's
/// `statistics.quantiles(values, n=4)` uses by default, so the spread this
/// benchmark prints is the spread the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One ranked answer as every path (in-memory, store-opened, `/query`)
/// reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub node: u64,
    pub ss: f64,
    pub ks: f64,
}

/// Digest of a ranked `(node, ss, ks)` list: FNV-1a over the rank order,
/// scores rendered to nine decimals so a last-bit difference in float
/// formatting between paths cannot register as a different answer.
pub fn digest_hits(hits: &[Hit]) -> u64 {
    let mut h = Fnv::default();
    h.u64(hits.len() as u64);
    for hit in hits {
        h.u64(hit.node);
        h.bytes(format!("{:.9}|{:.9};", hit.ss, hit.ks).as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v[..5], 50.0), Some(3.0));
        assert_eq!(percentile(&v[..4], 50.0), Some(2.0));
        assert_eq!(percentile(&v[..1], 99.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_guard() {
        // p95 of 200 sits at rank 190: exactly ten beyond.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(percentile_supported(200, 95.0));
        assert!(!percentile_supported(199, 95.0));
        // p99 needs a thousand.
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(999, 99.0));
        assert!(!percentile_supported(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0, 5.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let a = Hit {
            node: 7,
            ss: 3.0,
            ks: 0.25,
        };
        let b = Hit {
            node: 9,
            ss: 2.5,
            ks: 0.5,
        };
        // Pinned value: the digest is compared across commits, so the
        // function itself must never drift.
        assert_eq!(digest_hits(&[a, b]), digest_hits(&[a, b]));
        assert_eq!(digest_hits(&[]), 0xA8C7_F832_281A_39C5);
        assert_ne!(digest_hits(&[a, b]), digest_hits(&[b, a]));
        // A difference below the ninth decimal is the same answer…
        let a2 = Hit {
            ss: 3.0 + 1e-12,
            ..a
        };
        assert_eq!(digest_hits(&[a, b]), digest_hits(&[a2, b]));
        // …one above it is not.
        let a3 = Hit {
            ss: 3.0 + 1e-8,
            ..a
        };
        assert_ne!(digest_hits(&[a, b]), digest_hits(&[a3, b]));
    }
}
