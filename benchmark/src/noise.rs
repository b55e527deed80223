//! The noise guard: a fixed calibration kernel timed around every measured
//! block. A block is judged only by these readings — never by the op times
//! it measured — so the guard cannot bias the result toward fast runs of
//! the product; it only refuses stretches where the *host* was slow.

use std::time::{Duration, Instant};

/// Steps of the pointer chase: ~40 ms on the reference host. Frozen, so a
/// reading means the same thing on every commit.
const CHASE_STEPS: usize = 320_000;

/// Slots in the chased ring (32 MiB of `u32`): far larger than the last
/// level cache, so every step is a memory access the host's other tenants
/// can slow down. A pure-ALU kernel does not see them: on the reference
/// host it read 83–86 ms while the same seconds' op times moved by 20 %.
const RING_SLOTS: usize = 8 << 20;

/// A reading may exceed the run's fastest reading by this share before the
/// block next to it counts as noisy.
pub const TOLERANCE: f64 = 0.05;

/// A run re-runs at most this many blocks; further noisy blocks are only
/// counted in `bench.noisy_blocks`. The cap bounds how long a run can take
/// on a host that is noisy throughout.
pub const MAX_RERUNS: usize = 2;

/// The calibration kernel: a dependent random walk over a ring that does
/// not fit in cache, with a little integer arithmetic per step. Its time
/// tracks what the product's own inner loops (interval tests over a
/// 100 MB arena) are sensitive to: memory latency under whatever the
/// host's neighbours are doing. Every reading walks the same path from the
/// same slot, so readings differ only by the state of the host.
pub struct Kernel {
    ring: Vec<u32>,
}

impl Default for Kernel {
    fn default() -> Self {
        // Sattolo's algorithm: one cycle through every slot, fixed seed.
        let mut ring: Vec<u32> = (0..RING_SLOTS as u32).collect();
        let mut rng = crate::rng::Rng::new(0x5EED, 0);
        for i in (1..RING_SLOTS).rev() {
            ring.swap(i, rng.below(i));
        }
        Kernel { ring }
    }
}

impl Kernel {
    /// Runs the kernel once and returns how long it took.
    pub fn calibrate(&self) -> Duration {
        let start = Instant::now();
        let mut at = 0u32;
        let mut mix = 0u64;
        for _ in 0..CHASE_STEPS {
            at = self.ring[at as usize];
            mix = (mix ^ u64::from(at)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        std::hint::black_box(mix);
        start.elapsed()
    }
}

/// Tracks the fastest reading of the run and judges blocks against it.
#[derive(Default)]
pub struct NoiseGuard {
    kernel: Kernel,
    fastest: Option<Duration>,
    /// The reading after the previous block (the next block's "before").
    last: Option<Duration>,
    /// Blocks whose neighbouring readings were too slow.
    pub noisy_blocks: u64,
    /// Every reading taken, in order (written to the trace file).
    pub readings_ms: Vec<f64>,
}

impl NoiseGuard {
    /// Takes one reading and folds it into the run's fastest.
    fn reading(&mut self) -> Duration {
        let r = self.kernel.calibrate();
        self.observe(r);
        r
    }

    fn observe(&mut self, r: Duration) {
        self.readings_ms.push(r.as_secs_f64() * 1e3);
        self.fastest = Some(self.fastest.map_or(r, |f| f.min(r)));
    }

    /// Whether a block bracketed by `readings` ran on a noisy host. Counts
    /// it when so.
    fn block_is_noisy(&mut self, readings: &[Duration]) -> bool {
        let fastest = self.fastest.map_or(0.0, |f| f.as_secs_f64());
        let noisy = readings
            .iter()
            .any(|r| r.as_secs_f64() > fastest * (1.0 + TOLERANCE));
        if noisy {
            self.noisy_blocks += 1;
        }
        noisy
    }

    /// Takes the reading that closes a block and judges the block by it and
    /// by the reading that closed the previous one. Readings are taken right
    /// after a block only, when the product has just swept the caches, so
    /// all of them see the same starting state; the first block is judged
    /// by the reading after it alone.
    fn close_block(&mut self) -> bool {
        let after = self.reading();
        let around: Vec<Duration> = self.last.into_iter().chain([after]).collect();
        self.last = Some(after);
        self.block_is_noisy(&around)
    }

    /// Runs `block` once and judges it (traced passes: a fixed op count
    /// must not be repeated).
    pub fn watched<T>(&mut self, block: impl FnOnce() -> T) -> T {
        let out = block();
        self.close_block();
        out
    }

    /// Runs `block` `planned` times and re-runs — one extra block per
    /// noisy one, at most [`MAX_RERUNS`] per run. Every attempt is
    /// returned: the estimator downstream draws the run's least-disturbed
    /// stretches from all of them, so a re-run adds candidates rather than
    /// replacing any.
    pub fn guarded<T>(&mut self, planned: usize, mut block: impl FnMut() -> T) -> Vec<T> {
        let mut out = Vec::new();
        let mut extra = 0;
        while out.len() < planned + extra {
            out.push(block());
            if self.close_block() && extra < MAX_RERUNS {
                extra += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn decision_uses_only_the_calibration_readings() {
        let mut g = NoiseGuard::default();
        g.observe(ms(50));
        g.observe(ms(51));
        assert!(
            !g.block_is_noisy(&[ms(50), ms(52)]),
            "within 5 % of fastest"
        );
        assert!(g.block_is_noisy(&[ms(50), ms(53)]), "53 > 50 × 1.05");
        assert!(g.block_is_noisy(&[ms(60), ms(50)]));
        assert_eq!(g.noisy_blocks, 2);
    }

    #[test]
    fn a_faster_reading_later_tightens_the_bar() {
        let mut g = NoiseGuard::default();
        g.observe(ms(60));
        assert!(!g.block_is_noisy(&[ms(60), ms(62)]));
        g.observe(ms(50));
        assert!(g.block_is_noisy(&[ms(60), ms(62)]));
    }

    #[test]
    fn a_run_is_extended_by_at_most_the_cap_and_keeps_every_attempt() {
        // Whatever the host does, the number of blocks is bounded.
        let mut g = NoiseGuard::default();
        let mut calls = 0;
        let out = g.guarded(2, || {
            calls += 1;
            calls
        });
        assert!((2..=2 + MAX_RERUNS).contains(&out.len()));
        assert_eq!(out, (1..=calls).collect::<Vec<_>>());
        assert_eq!(g.readings_ms.len(), calls);
    }
}
