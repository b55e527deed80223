//! The threading model: deterministic fan-out over scoped worker threads.
//!
//! The paper's round structure makes FleXPath's hot path embarrassingly
//! parallel. Theorem 3 (order-invariance) says an answer's score depends
//! only on *which* relaxation admitted it, not on the derivation order, so
//! the relaxations evaluated within one DPO penalty round — and the
//! independent root-candidate subtrees of one encoded-plan evaluation — are
//! rank-independent and can be evaluated concurrently. Those are the two
//! fan-out sites: DPO's speculative round batches (`dpo.rs`) and candidate
//! chunks (`exec.rs`). The schedule is built sequentially — scoring one
//! operator costs less than waking a thread (PERFORMANCE.md,
//! "Parallelism").
//!
//! Determinism contract: every fan-out in this engine assigns work items a
//! stable index (schedule position for relaxation rounds, document order
//! for candidate chunks) and merges results **in index order**. Combined
//! with the stable tie-breaks in [`crate::topk::sort_answers`] (node id)
//! and the schedule's fixed step order, a run at `threads = N` produces
//! byte-identical top-K output to `threads = 1` — the parallel run computes
//! the *same* per-item results and concatenates them in the *same* order,
//! it just computes them on more cores.
//!
//! Budgets ([`flexpath_ftsearch::Budget`]) need no adaptation: all counters
//! are atomics shared by reference, so ticks aggregate across workers, and
//! the latched trip reason stops every in-flight sibling at its next
//! checkpoint. (Under a *cap*-type budget the point at which the cap trips
//! depends on worker interleaving, so budget-exhausted parallel runs are
//! best-effort — exactly the contract budgeted sequential runs already
//! have; see `dpo` for how DPO preserves its rank-prefix guarantee.)
//!
//! No thread pool is kept alive: fan-outs use [`std::thread::scope`], so
//! workers borrow the caller's context directly and all threads join before
//! the fan-out returns. Spawn cost (~tens of µs) is amortized by a
//! two-part **cost gate** (see PERFORMANCE.md for the calibration):
//!
//! 1. **Hardware clamp** — no fan-out ever uses more workers than the
//!    machine has hardware threads ([`hardware_threads`]). Extra software
//!    threads on a saturated machine only add spawn/join and scheduler
//!    overhead; this is what made `--threads 8` *slower* than `--threads 1`
//!    on small hosts before the clamp.
//! 2. **Work threshold** — each worker must bring at least
//!    [`ParallelConfig::min_round_size`] fine-grained work items of its
//!    own, so the per-thread spawn cost is amortized against a meaningful
//!    chunk. Below the floor the engine runs the literal sequential path.
//!
//! Both gates only *reduce* worker counts; the deterministic merge makes
//! the output identical at every effective width, so the gate never needs
//! to be bit-exact across machines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hardware threads available to this process, queried once and cached
/// (`std::thread::available_parallelism`, 1 if unknown). Fan-out widths are
/// clamped to this: beyond it, extra workers cannot run concurrently and
/// only add overhead.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How a query run uses worker threads.
///
/// The engine-level default is sequential (`threads = 1`), which is exactly
/// the pre-parallel behaviour; callers opt in per request (the CLI defaults
/// to [`ParallelConfig::auto`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Maximum worker threads a fan-out may use. `0` and `1` both mean
    /// sequential execution on the calling thread.
    pub threads: usize,
    /// Minimum number of *fine-grained* work items (root candidates in an
    /// encoded-plan evaluation) before a fan-out spins up extra threads.
    /// Coarse items — whole relaxation rounds — ignore this floor: one
    /// round is always worth a thread.
    pub min_round_size: usize,
}

/// Default floor on candidates-per-fan-out before threads are used.
pub const DEFAULT_MIN_ROUND_SIZE: usize = 128;

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::sequential()
    }
}

impl ParallelConfig {
    /// Sequential execution (`threads = 1`): byte-identical to the engine
    /// before the parallel path existed.
    pub fn sequential() -> Self {
        ParallelConfig {
            threads: 1,
            min_round_size: DEFAULT_MIN_ROUND_SIZE,
        }
    }

    /// `threads` workers with the default candidate floor.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
            min_round_size: DEFAULT_MIN_ROUND_SIZE,
        }
    }

    /// One worker per available hardware thread (what the CLI's `--threads`
    /// defaults to).
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// The configured thread count clamped to the machine
    /// ([`hardware_threads`]): the most workers any fan-out of this config
    /// will ever use.
    pub fn effective_threads(&self) -> usize {
        self.threads.clamp(1, hardware_threads())
    }

    /// Workers to use for `items` coarse work units (relaxation rounds):
    /// one thread per round, capped at the effective thread count. A round
    /// is expensive enough to be worth a thread whenever a second hardware
    /// thread exists to run it.
    pub fn workers_for_rounds(&self, items: usize) -> usize {
        if self.threads <= 1 {
            1
        } else {
            self.effective_threads().min(items.max(1))
        }
    }

    /// Workers to use for `items` fine-grained work units (candidates) —
    /// the cost gate: sequential below the `min_round_size` floor, and
    /// above it capped so every worker brings at least `min_round_size`
    /// candidates of its own (and never more workers than hardware
    /// threads). This is what keeps thread counts > 1 from regressing on
    /// small rounds or small machines.
    pub fn workers_for_candidates(&self, items: usize) -> usize {
        if self.threads <= 1 || items < self.min_round_size.max(2) {
            return 1;
        }
        let per_worker_floor = items / self.min_round_size.max(1);
        self.effective_threads().min(per_worker_floor).max(1)
    }
}

/// Runs `f(0..items)` across `workers` scoped threads and returns the
/// results **in index order** — the deterministic-merge primitive every
/// parallel stage of the engine is built on.
///
/// Work is distributed dynamically (an atomic next-index counter), so
/// uneven item costs self-balance; determinism comes from the merge, not
/// the assignment. With `workers <= 1` (or fewer than two items) the
/// closure runs inline on the calling thread, making the sequential and
/// parallel code paths literally the same computation.
///
/// A panic in any worker is resumed on the caller after all threads join.
pub fn fan_out<R, F>(items: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 || items <= 1 {
        return (0..items).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(items);
    let mut worker_items: Vec<usize> = Vec::new();
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(items))
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => {
                    worker_items.push(local.len());
                    collected.extend(local);
                }
                Err(p) => panic = Some(p),
            }
        }
    });
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    // Per-worker attribution in the process-wide registry. The split of
    // items across workers is scheduling-dependent (dynamic assignment);
    // only the merged result is deterministic.
    let reg = crate::metrics::global();
    reg.add("engine.parallel.fan_outs", 1);
    reg.add("engine.parallel.items", items as u64);
    for (w, n) in worker_items.iter().enumerate() {
        reg.add(&format!("engine.parallel.worker[{w}].items"), *n as u64);
    }
    collected.sort_unstable_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// Splits `0..items` into `workers` contiguous ranges of near-equal size
/// (first `items % workers` ranges get one extra element). Contiguity is
/// what preserves document order under chunked candidate evaluation:
/// concatenating per-chunk answer vectors in chunk order reproduces the
/// sequential answer stream exactly.
pub fn chunk_ranges(items: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers.clamp(1, items.max(1));
    let base = items / workers;
    let extra = items % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0usize;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_index_order() {
        for workers in [1, 2, 4, 8] {
            let out = fan_out(37, workers, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_handles_empty_and_single() {
        assert!(fan_out(0, 4, |i| i).is_empty());
        assert_eq!(fan_out(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn fan_out_balances_uneven_items() {
        // Items with wildly different costs still come back in order.
        let out = fan_out(16, 4, |i| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn fan_out_propagates_worker_panics() {
        fan_out(8, 4, |i| {
            if i == 5 {
                panic!("worker boom");
            }
            i
        });
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for items in [0usize, 1, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 8, 16] {
                let ranges = chunk_ranges(items, workers);
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, prev_end, "ranges must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, items);
                // Near-equal: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn config_worker_counts() {
        let seq = ParallelConfig::sequential();
        assert_eq!(seq.workers_for_rounds(10), 1);
        assert_eq!(seq.workers_for_candidates(10_000), 1);

        // Worker counts are hardware-clamped, so expectations are phrased
        // against the machine running the test.
        let hw = hardware_threads();
        let p = ParallelConfig::with_threads(4);
        assert_eq!(p.workers_for_rounds(2), 2.min(hw));
        assert_eq!(p.workers_for_rounds(64), 4.min(hw));
        // Fine-grained floor: tiny candidate sets stay sequential.
        assert_eq!(p.workers_for_candidates(8), 1);
        assert_eq!(p.workers_for_candidates(100_000), 4.min(hw));

        assert!(ParallelConfig::auto().threads >= 1);
        assert_eq!(ParallelConfig::with_threads(0).threads, 1);
    }

    #[test]
    fn cost_gate_scales_workers_with_available_work() {
        // min_round_size is the per-worker amortization floor: every
        // admitted worker must bring at least that many candidates.
        let mut p = ParallelConfig::with_threads(8);
        p.min_round_size = 100;
        let hw = hardware_threads();
        assert_eq!(p.workers_for_candidates(99), 1, "below the floor");
        assert_eq!(p.workers_for_candidates(100), 1, "one worker's worth");
        assert_eq!(p.workers_for_candidates(250), 2.min(hw));
        assert_eq!(p.workers_for_candidates(399), 3.min(hw));
        assert_eq!(p.workers_for_candidates(100_000), 8.min(hw));
        // Workers never exceed the hardware, however large the input.
        assert!(p.workers_for_candidates(usize::MAX / 2) <= hw);
        assert!(p.effective_threads() <= hw);
    }
}
