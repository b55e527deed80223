//! The query resource governor: per-query limits, budget construction, and
//! completeness labelling for best-effort top-K results.
//!
//! FleXPath's relaxation space is exponential in the query size; even a
//! penalty-ordered schedule can demand more evaluation rounds than an
//! interactive caller will wait for. The governor bounds a query run along
//! four axes — wall-clock time, relaxations enumerated, candidate answers
//! produced, and full-text postings scanned — plus an external
//! [`CancelToken`]. Exhaustion is *graceful*: the algorithms stop at the
//! next cooperative checkpoint and return the best answers found so far,
//! labelled [`Completeness::Exhausted`] with the first reason that tripped.
//!
//! For DPO the partial result is moreover a *correct prefix* of the
//! unbounded ranking under the structure-first scheme: answer scores depend
//! only on the reached relaxation (Theorem 3), DPO emits whole rounds in
//! strictly decreasing structural-score order, and the governor discards
//! any round interrupted mid-evaluation — so every answer returned is
//! exactly where the unbounded run would have ranked it. See
//! `DESIGN.md § Resource governance`.

use std::time::{Duration, Instant};

pub use flexpath_ftsearch::{Budget, CancelToken, ExhaustReason};

/// Per-query resource limits. The default is unlimited on every axis.
///
/// ```
/// use flexpath_engine::QueryLimits;
/// use std::time::Duration;
///
/// let limits = QueryLimits::default()
///     .with_deadline(Duration::from_millis(100))
///     .with_max_relaxations_enumerated(8);
/// assert!(limits.is_limited());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryLimits {
    /// Wall-clock budget for the whole query run, measured from the moment
    /// execution starts.
    pub deadline: Option<Duration>,
    /// Cap on relaxation steps enumerated into the schedule (beyond the
    /// request's own `max_relaxation_steps`, this marks the result
    /// `Exhausted` when the truncated schedule could not fill K).
    pub max_relaxations_enumerated: Option<usize>,
    /// Cap on candidate answers produced across all evaluation rounds.
    pub max_candidate_answers: Option<u64>,
    /// Cap on full-text postings scanned by `contains` evaluation.
    pub max_ft_postings_scanned: Option<u64>,
}

impl QueryLimits {
    /// No limits on any axis.
    pub fn unlimited() -> Self {
        QueryLimits::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the number of relaxation steps enumerated.
    pub fn with_max_relaxations_enumerated(mut self, n: usize) -> Self {
        self.max_relaxations_enumerated = Some(n);
        self
    }

    /// Caps the number of candidate answers produced.
    pub fn with_max_candidate_answers(mut self, n: u64) -> Self {
        self.max_candidate_answers = Some(n);
        self
    }

    /// Caps the number of full-text postings scanned.
    pub fn with_max_ft_postings_scanned(mut self, n: u64) -> Self {
        self.max_ft_postings_scanned = Some(n);
        self
    }

    /// Whether any axis is limited.
    pub fn is_limited(&self) -> bool {
        *self != QueryLimits::default()
    }

    /// Clamps every axis to `ceiling`: the result is the per-axis minimum,
    /// where `None` means unlimited (so a ceiling of `None` passes the
    /// request through, and a request of `None` inherits the ceiling).
    ///
    /// This is the server-side admission-control primitive: a front-end
    /// applies an operator-configured ceiling to client-requested limits so
    /// no request can exceed the server's budget policy on any axis.
    ///
    /// ```
    /// use flexpath_engine::QueryLimits;
    /// use std::time::Duration;
    ///
    /// let ceiling = QueryLimits::default()
    ///     .with_deadline(Duration::from_secs(1))
    ///     .with_max_candidate_answers(100);
    /// let greedy = QueryLimits::default().with_deadline(Duration::from_secs(60));
    /// let clamped = greedy.clamp_to(&ceiling);
    /// assert_eq!(clamped.deadline, Some(Duration::from_secs(1)));
    /// assert_eq!(clamped.max_candidate_answers, Some(100));
    /// ```
    pub fn clamp_to(&self, ceiling: &QueryLimits) -> QueryLimits {
        fn min_axis<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            }
        }
        QueryLimits {
            deadline: min_axis(self.deadline, ceiling.deadline),
            max_relaxations_enumerated: min_axis(
                self.max_relaxations_enumerated,
                ceiling.max_relaxations_enumerated,
            ),
            max_candidate_answers: min_axis(
                self.max_candidate_answers,
                ceiling.max_candidate_answers,
            ),
            max_ft_postings_scanned: min_axis(
                self.max_ft_postings_scanned,
                ceiling.max_ft_postings_scanned,
            ),
        }
    }

    /// Builds the [`Budget`] for one execution, anchoring the
    /// deadline at "now" and attaching the external token, if any.
    pub fn budget(&self, cancel: Option<CancelToken>) -> Budget {
        Budget::new(
            self.deadline.map(|d| Instant::now() + d),
            cancel,
            self.max_ft_postings_scanned.unwrap_or(u64::MAX),
            self.max_candidate_answers.unwrap_or(u64::MAX),
        )
    }
}

/// The named engine locations where a budget trip can first be observed.
///
/// Each site corresponds to one cooperative-checkpoint location in the
/// engine; when a budgeted run stops, the site that first saw the tripped
/// budget is recorded in the query trace as `governor.trip.site.<name>`
/// (see [`crate::metrics`]), alongside per-site checkpoint counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointSite {
    /// Schedule construction (one check per relaxation step scored).
    Schedule,
    /// DPO's per-round boundary (commit loop).
    DpoRound,
    /// SSO's per-pass boundary (restart loop).
    SsoPass,
    /// Hybrid's per-pass boundary (restart loop).
    HybridPass,
    /// The encoded-plan candidate loop (per outer candidate).
    CandidateLoop,
    /// Full-text `contains` evaluation (postings scans).
    FtEval,
}

impl CheckpointSite {
    /// Every checkpoint site, for coverage tests and docs.
    pub const ALL: [CheckpointSite; 6] = [
        CheckpointSite::Schedule,
        CheckpointSite::DpoRound,
        CheckpointSite::SsoPass,
        CheckpointSite::HybridPass,
        CheckpointSite::CandidateLoop,
        CheckpointSite::FtEval,
    ];

    /// The site to attribute a trip to: budget-typed reasons map to the
    /// site whose charge can trip them (postings charges happen inside FT
    /// evaluation, answer charges inside the candidate loop, the
    /// relaxation-enumeration cap during scheduling); time-based reasons
    /// (deadline, cancellation) are attributed to `observed`, the
    /// checkpoint at which the driving loop noticed the stop.
    pub fn for_reason(reason: ExhaustReason, observed: CheckpointSite) -> CheckpointSite {
        match reason {
            ExhaustReason::PostingsBudget => CheckpointSite::FtEval,
            ExhaustReason::AnswerBudget => CheckpointSite::CandidateLoop,
            ExhaustReason::RelaxationBudget => CheckpointSite::Schedule,
            ExhaustReason::Deadline | ExhaustReason::Cancelled => observed,
        }
    }

    /// Stable snake_case name used in trace/metric keys.
    pub fn name(self) -> &'static str {
        match self {
            CheckpointSite::Schedule => "schedule",
            CheckpointSite::DpoRound => "dpo_round",
            CheckpointSite::SsoPass => "sso_pass",
            CheckpointSite::HybridPass => "hybrid_pass",
            CheckpointSite::CandidateLoop => "candidate_loop",
            CheckpointSite::FtEval => "ft_eval",
        }
    }
}

impl std::fmt::Display for CheckpointSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable snake_case name for an [`ExhaustReason`], used in trace/metric
/// keys (`governor.trip.reason.<name>`).
pub fn reason_key(reason: ExhaustReason) -> &'static str {
    match reason {
        ExhaustReason::Deadline => "deadline",
        ExhaustReason::Cancelled => "cancelled",
        ExhaustReason::RelaxationBudget => "relaxation_budget",
        ExhaustReason::AnswerBudget => "answer_budget",
        ExhaustReason::PostingsBudget => "postings_budget",
    }
}

/// Whether a top-K result reflects the full search or a budgeted prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completeness {
    /// The algorithm ran to its natural end: the answers are exactly what
    /// an unbounded run returns.
    Complete,
    /// A resource limit (or cancellation) stopped the search early; the
    /// answers are the best found so far. For DPO under structure-first
    /// ranking they are a correct prefix of the unbounded ranking.
    Exhausted {
        /// The first limit that tripped.
        reason: ExhaustReason,
        /// Relaxation steps whose evaluation *completed* before the stop.
        relaxations_explored: usize,
        /// Scheduled relaxation steps that were never evaluated (an
        /// estimate of how much of the search space remains).
        relaxations_remaining_estimate: usize,
    },
}

impl Completeness {
    /// `true` for [`Completeness::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }

    /// The exhaustion reason, if any.
    pub fn exhaust_reason(&self) -> Option<ExhaustReason> {
        match self {
            Completeness::Complete => None,
            Completeness::Exhausted { reason, .. } => Some(*reason),
        }
    }
}

impl std::fmt::Display for Completeness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completeness::Complete => write!(f, "complete"),
            Completeness::Exhausted {
                reason,
                relaxations_explored,
                relaxations_remaining_estimate,
            } => write!(
                f,
                "exhausted ({reason}) after {relaxations_explored} relaxations, \
                 ~{relaxations_remaining_estimate} remaining"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_to_takes_the_per_axis_minimum() {
        let ceiling = QueryLimits::default()
            .with_deadline(Duration::from_secs(2))
            .with_max_candidate_answers(100);
        // Unlimited request inherits the ceiling wholesale.
        assert_eq!(QueryLimits::default().clamp_to(&ceiling), ceiling);
        // A greedy request is capped; a modest one passes through;
        // axes the ceiling leaves open keep the request's value.
        let req = QueryLimits::default()
            .with_deadline(Duration::from_secs(60))
            .with_max_candidate_answers(5)
            .with_max_ft_postings_scanned(77);
        let clamped = req.clamp_to(&ceiling);
        assert_eq!(clamped.deadline, Some(Duration::from_secs(2)));
        assert_eq!(clamped.max_candidate_answers, Some(5));
        assert_eq!(clamped.max_ft_postings_scanned, Some(77));
        assert_eq!(clamped.max_relaxations_enumerated, None);
        // Unlimited ceiling is the identity.
        assert_eq!(req.clamp_to(&QueryLimits::default()), req);
    }

    #[test]
    fn default_limits_are_unlimited() {
        let l = QueryLimits::default();
        assert!(!l.is_limited());
        assert!(!l.budget(None).is_limited());
    }

    #[test]
    fn builders_set_each_axis() {
        let l = QueryLimits::default()
            .with_deadline(Duration::from_secs(1))
            .with_max_relaxations_enumerated(4)
            .with_max_candidate_answers(1000)
            .with_max_ft_postings_scanned(50_000);
        assert!(l.is_limited());
        assert_eq!(l.max_relaxations_enumerated, Some(4));
        assert!(l.budget(None).is_limited());
    }

    #[test]
    fn budget_carries_the_cancel_token() {
        let tok = CancelToken::new();
        let b = QueryLimits::default().budget(Some(tok.clone()));
        assert!(!b.check_now());
        tok.cancel();
        assert!(b.check_now());
        assert_eq!(b.tripped(), Some(ExhaustReason::Cancelled));
    }

    #[test]
    fn completeness_display_and_accessors() {
        assert!(Completeness::Complete.is_complete());
        let e = Completeness::Exhausted {
            reason: ExhaustReason::Deadline,
            relaxations_explored: 2,
            relaxations_remaining_estimate: 5,
        };
        assert!(!e.is_complete());
        assert_eq!(e.exhaust_reason(), Some(ExhaustReason::Deadline));
        assert!(e.to_string().contains("deadline"));
    }
}
