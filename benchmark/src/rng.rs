//! The benchmark's own seeded generator (SplitMix64). Everything random in
//! a run — term draws, op order, request classes — comes from here, so the
//! same `--seed` gives the same inputs on any host and any commit.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `stream` (one stream per purpose, so adding a draw to one
    /// purpose never shifts another's sequence).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// list sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3, 0).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
