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
//! [`Budget`] is the shared checkpoint object: one instance per query
//! execution, threaded (by reference) through every hot loop of the
//! engine and the IR evaluator. All state is atomic, so a [`CancelToken`]
//! clone held by another thread (a UI, a signal handler) can stop an
//! evaluation mid-flight.
//!
//! Checkpoints are designed to be cheap enough for inner loops: a
//! [`Budget::checkpoint`] is one relaxed atomic load plus, every
//! [`TICK_INTERVAL`] calls, a deadline/cancellation check. At typical
//! candidate-loop throughput this bounds cancellation latency well below
//! 50 ms.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
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

impl ExhaustReason {
    fn code(self) -> u8 {
        match self {
            ExhaustReason::Deadline => 1,
            ExhaustReason::Cancelled => 2,
            ExhaustReason::RelaxationBudget => 3,
            ExhaustReason::AnswerBudget => 4,
            ExhaustReason::PostingsBudget => 5,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => ExhaustReason::Deadline,
            2 => ExhaustReason::Cancelled,
            3 => ExhaustReason::RelaxationBudget,
            4 => ExhaustReason::AnswerBudget,
            5 => ExhaustReason::PostingsBudget,
            _ => return None,
        })
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

/// Shared, atomic resource meter for one query execution.
///
/// `u64::MAX` for any cap means "unlimited". All charging/checkpoint
/// methods return `true` when the computation should stop; the first
/// reason to trip is latched and later charges keep reporting it.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_postings: u64,
    max_answers: u64,
    postings: AtomicU64,
    answers: AtomicU64,
    ticks: AtomicU64,
    tripped: AtomicU8,
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
            postings: AtomicU64::new(0),
            answers: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            tripped: AtomicU8::new(0),
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
        ExhaustReason::from_code(self.tripped.load(Ordering::Acquire))
    }

    /// Latches `reason` as the trip cause (first writer wins) and reports
    /// that the computation should stop.
    pub fn trip(&self, reason: ExhaustReason) -> bool {
        let _ =
            self.tripped
                .compare_exchange(0, reason.code(), Ordering::AcqRel, Ordering::Acquire);
        true
    }

    /// Cheap cooperative checkpoint for inner loops: returns `true` when
    /// the computation should stop. Every [`TICK_INTERVAL`] calls it also
    /// performs the (slightly costlier) deadline and cancellation checks.
    #[inline]
    pub fn checkpoint(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) != 0 {
            return true;
        }
        if self.deadline.is_none() && self.cancel.is_none() {
            return false;
        }
        let t = self.ticks.fetch_add(1, Ordering::Relaxed);
        if t.is_multiple_of(TICK_INTERVAL) {
            return self.check_now();
        }
        false
    }

    /// Unconditional deadline + cancellation check (round boundaries).
    pub fn check_now(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) != 0 {
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
        let before = self.postings.fetch_add(n, Ordering::Relaxed);
        if self.tripped.load(Ordering::Relaxed) != 0 {
            return true;
        }
        if self.max_postings == u64::MAX {
            return false;
        }
        if before.saturating_add(n) > self.max_postings {
            return self.trip(ExhaustReason::PostingsBudget);
        }
        false
    }

    /// Records one candidate answer produced; `true` means stop. Counts
    /// even when unlimited (see [`charge_postings`](Self::charge_postings)).
    pub fn charge_answer(&self) -> bool {
        let before = self.answers.fetch_add(1, Ordering::Relaxed);
        if self.tripped.load(Ordering::Relaxed) != 0 {
            return true;
        }
        if self.max_answers == u64::MAX {
            return false;
        }
        if before + 1 > self.max_answers {
            return self.trip(ExhaustReason::AnswerBudget);
        }
        false
    }

    /// Postings scanned so far (for stats reporting).
    pub fn postings_scanned(&self) -> u64 {
        self.postings.load(Ordering::Relaxed)
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
    }

    #[test]
    fn postings_cap_allows_exactly_the_budget() {
        let b = Budget::new(None, None, 10, u64::MAX);
        assert!(!b.charge_postings(10));
        assert!(b.charge_postings(1));
        assert_eq!(b.tripped(), Some(ExhaustReason::PostingsBudget));
    }
}
