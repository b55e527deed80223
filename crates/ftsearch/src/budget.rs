//! Cooperative resource budgets and external cancellation — an
//! engineering extension beyond the paper, motivated by the Section 6
//! workloads (1–100 MB documents, relaxation spaces exponential in the
//! query).
//!
//! FleXPath's top-K algorithms enumerate a relaxation space whose size is
//! exponential in the query; on large documents a single query can run far
//! longer than an interactive caller is willing to wait. The governor's
//! contract is *graceful degradation*: a budgeted evaluation never panics
//! and never blocks forever — it stops at the next checkpoint and the
//! caller returns the best answers found so far, labelled with why the
//! search stopped.
//!
//! [`Budget`] is the checkpoint object: one instance per query execution,
//! threaded (by reference) through every hot loop of the engine and the IR
//! evaluator. A query runs on one thread, so the budget's meters are plain
//! [`Cell`]s and the type is `Send` but not `Sync`: it may move to the
//! thread that runs the query but is never shared with another. The one
//! cross-thread path is the [`CancelToken`], an atomic flag whose clone
//! another thread (a UI, a signal handler, a draining server) may set.
//!
//! Checkpoints are designed to be cheap enough for inner loops: a
//! [`Budget::checkpoint`] is a few plain loads, one store and a mask test
//! on the query's own thread (no locked instruction) plus, every
//! [`TICK_INTERVAL`] calls, a deadline/cancellation check: one clock read
//! and one atomic load of the token. At typical candidate-loop throughput
//! this bounds cancellation latency well below 50 ms.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many [`Budget::checkpoint`] calls elapse between full (deadline +
/// cancellation) checks. Power of two so the test is a mask.
pub const TICK_INTERVAL: u64 = 256;

/// Why a budgeted computation stopped before exploring everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The external [`CancelToken`] was triggered.
    Cancelled,
    /// The cap on enumerated relaxations was reached.
    RelaxationBudget,
    /// The cap on candidate answers produced was reached.
    AnswerBudget,
    /// The cap on full-text postings scanned was reached.
    PostingsBudget,
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExhaustReason::Deadline => "deadline",
            ExhaustReason::Cancelled => "cancelled",
            ExhaustReason::RelaxationBudget => "relaxation budget",
            ExhaustReason::AnswerBudget => "answer budget",
            ExhaustReason::PostingsBudget => "postings budget",
        };
        f.write_str(s)
    }
}

/// A cloneable handle that lets *another* thread stop a running query.
///
/// ```
/// use flexpath_ftsearch::CancelToken;
///
/// let token = CancelToken::new();
/// let handle = token.clone();
/// assert!(!token.is_cancelled());
/// handle.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Safe to call from any thread (the store is a
    /// single atomic write, so it is also async-signal-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Resource meter for one query execution, owned by the thread that runs
/// it.
///
/// `u64::MAX` for any cap means "unlimited". All charging/checkpoint
/// methods return `true` when the computation should stop; the first
/// reason to trip is latched and later charges keep reporting it. The
/// postings and answer meters saturate at `u64::MAX` instead of wrapping.
///
/// A budget is `Send`, so it can be built on one thread and run on
/// another:
///
/// ```
/// use flexpath_ftsearch::Budget;
///
/// let budget = Budget::unlimited();
/// let scanned = std::thread::spawn(move || {
///     budget.charge_postings(3);
///     budget.postings_scanned()
/// })
/// .join()
/// .unwrap();
/// assert_eq!(scanned, 3);
/// ```
///
/// It is not `Sync`: two threads cannot charge one budget. Whoever must
/// stop a query from elsewhere holds a [`CancelToken`] clone instead.
///
/// ```compile_fail
/// use flexpath_ftsearch::Budget;
///
/// fn sync<T: Sync>() {}
/// sync::<Budget>();
/// ```
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_postings: u64,
    max_answers: u64,
    postings: Cell<u64>,
    answers: Cell<u64>,
    ticks: Cell<u64>,
    tripped: Cell<Option<ExhaustReason>>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never trips (no deadline, no caps, no token).
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            cancel: None,
            max_postings: u64::MAX,
            max_answers: u64::MAX,
            postings: Cell::new(0),
            answers: Cell::new(0),
            ticks: Cell::new(0),
            tripped: Cell::new(None),
        }
    }

    /// A budget with explicit limits. Any `None` / `u64::MAX` component is
    /// unlimited.
    pub fn new(
        deadline: Option<Instant>,
        cancel: Option<CancelToken>,
        max_postings: u64,
        max_answers: u64,
    ) -> Self {
        Budget {
            deadline,
            cancel,
            max_postings,
            max_answers,
            ..Budget::unlimited()
        }
    }

    /// Whether this budget can ever trip. Unlimited budgets let hot loops
    /// skip checkpointing entirely.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some()
            || self.cancel.is_some()
            || self.max_postings != u64::MAX
            || self.max_answers != u64::MAX
    }

    /// The first reason this budget tripped, if any.
    pub fn tripped(&self) -> Option<ExhaustReason> {
        self.tripped.get()
    }

    /// Latches `reason` as the trip cause unless one is already latched
    /// (the first trip wins) and reports that the computation should stop.
    pub fn trip(&self, reason: ExhaustReason) -> bool {
        if self.tripped.get().is_none() {
            self.tripped.set(Some(reason));
        }
        true
    }

    /// Cheap cooperative checkpoint for inner loops: returns `true` when
    /// the computation should stop. Every [`TICK_INTERVAL`] calls it also
    /// performs the (slightly costlier) deadline and cancellation checks.
    #[inline]
    pub fn checkpoint(&self) -> bool {
        if self.tripped.get().is_some() {
            return true;
        }
        if self.deadline.is_none() && self.cancel.is_none() {
            return false;
        }
        // `ticks` only phases the full check, so it wraps: a saturated
        // counter would stop reading the clock for good.
        let t = self.ticks.get();
        self.ticks.set(t.wrapping_add(1));
        if t.is_multiple_of(TICK_INTERVAL) {
            return self.check_now();
        }
        false
    }

    /// Unconditional deadline + cancellation check (round boundaries).
    pub fn check_now(&self) -> bool {
        if self.tripped.get().is_some() {
            return true;
        }
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return self.trip(ExhaustReason::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return self.trip(ExhaustReason::Deadline);
            }
        }
        false
    }

    /// Records `n` full-text postings scanned; `true` means stop.
    ///
    /// The count always accumulates — even on unlimited budgets — so the
    /// observability layer can report postings totals; only the cap check
    /// is skipped when unlimited.
    pub fn charge_postings(&self, n: u64) -> bool {
        let total = self.postings.get().saturating_add(n);
        self.postings.set(total);
        if self.tripped.get().is_some() {
            return true;
        }
        if self.max_postings == u64::MAX {
            return false;
        }
        if total > self.max_postings {
            return self.trip(ExhaustReason::PostingsBudget);
        }
        false
    }

    /// Records one candidate answer produced; `true` means stop. Counts
    /// even when unlimited (see [`charge_postings`](Self::charge_postings)).
    pub fn charge_answer(&self) -> bool {
        let total = self.answers.get().saturating_add(1);
        self.answers.set(total);
        if self.tripped.get().is_some() {
            return true;
        }
        if self.max_answers == u64::MAX {
            return false;
        }
        if total > self.max_answers {
            return self.trip(ExhaustReason::AnswerBudget);
        }
        false
    }

    /// Postings scanned so far (for stats reporting).
    pub fn postings_scanned(&self) -> u64 {
        self.postings.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..10_000 {
            assert!(!b.checkpoint());
        }
        assert!(!b.charge_postings(1 << 40));
        assert!(!b.charge_answer());
        assert_eq!(b.tripped(), None);
    }

    #[test]
    fn cancel_token_trips_within_tick_interval() {
        let tok = CancelToken::new();
        let b = Budget::new(None, Some(tok.clone()), u64::MAX, u64::MAX);
        assert!(!b.check_now());
        tok.cancel();
        let mut stopped = false;
        for _ in 0..=TICK_INTERVAL {
            if b.checkpoint() {
                stopped = true;
                break;
            }
        }
        assert!(
            stopped,
            "cancellation must surface within one tick interval"
        );
        assert_eq!(b.tripped(), Some(ExhaustReason::Cancelled));
    }

    #[test]
    fn past_deadline_trips_immediately_on_check_now() {
        let b = Budget::new(
            Some(Instant::now() - Duration::from_millis(1)),
            None,
            u64::MAX,
            u64::MAX,
        );
        assert!(b.check_now());
        assert_eq!(b.tripped(), Some(ExhaustReason::Deadline));
    }

    #[test]
    fn first_trip_reason_is_latched() {
        let b = Budget::new(None, None, 10, 0);
        assert!(b.charge_answer());
        assert_eq!(b.tripped(), Some(ExhaustReason::AnswerBudget));
        assert!(b.charge_postings(100));
        assert_eq!(b.tripped(), Some(ExhaustReason::AnswerBudget));
        assert!(b.trip(ExhaustReason::Deadline));
        assert_eq!(b.tripped(), Some(ExhaustReason::AnswerBudget));
    }

    #[test]
    fn postings_cap_allows_exactly_the_budget() {
        let b = Budget::new(None, None, 10, u64::MAX);
        assert!(!b.charge_postings(10));
        assert!(b.charge_postings(1));
        assert_eq!(b.tripped(), Some(ExhaustReason::PostingsBudget));
    }

    #[test]
    fn an_unlimited_postings_meter_saturates_instead_of_wrapping() {
        let b = Budget::unlimited();
        assert!(!b.charge_postings(u64::MAX));
        assert!(!b.charge_postings(u64::MAX));
        assert_eq!(b.postings_scanned(), u64::MAX);
        assert!(!b.charge_postings(1));
        assert_eq!(b.postings_scanned(), u64::MAX);
        assert_eq!(b.tripped(), None);
    }

    #[test]
    fn a_capped_postings_meter_charged_past_u64_max_trips() {
        let b = Budget::new(None, None, u64::MAX - 1, u64::MAX);
        assert!(!b.charge_postings(u64::MAX - 1));
        assert!(b.charge_postings(u64::MAX));
        assert_eq!(b.postings_scanned(), u64::MAX);
        assert_eq!(b.tripped(), Some(ExhaustReason::PostingsBudget));
    }

    #[test]
    fn the_answer_meter_saturates_and_trips_its_cap() {
        let b = Budget::new(None, None, u64::MAX, u64::MAX - 1);
        b.answers.set(u64::MAX - 2);
        assert!(!b.charge_answer());
        assert!(b.charge_answer());
        assert!(b.charge_answer());
        assert_eq!(b.answers.get(), u64::MAX);
        assert_eq!(b.tripped(), Some(ExhaustReason::AnswerBudget));
    }

    #[test]
    fn the_tick_counter_wraps_and_keeps_checking_the_token() {
        let tok = CancelToken::new();
        let b = Budget::new(None, Some(tok.clone()), u64::MAX, u64::MAX);
        b.ticks.set(u64::MAX);
        tok.cancel();
        // u64::MAX is off the tick phase; the wrapped 0 is on it.
        assert!(!b.checkpoint());
        assert_eq!(b.ticks.get(), 0);
        assert!(b.checkpoint());
        assert_eq!(b.tripped(), Some(ExhaustReason::Cancelled));
    }
}
