//! Shared top-K request/result types and execution statistics.

use crate::attr_relax::AttrRelaxation;
use crate::governor::{CancelToken, CheckpointSite, Completeness, QueryLimits};
use crate::hierarchy::TagHierarchy;
use crate::metrics::QueryTrace;
use crate::score::{AnswerScore, RankingScheme, WeightAssignment};
use flexpath_tpq::Tpq;
use flexpath_xmldom::NodeId;

/// Which top-K algorithm to run (paper Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Dynamic Penalty Order: relax-evaluate-repeat with exact counts.
    Dpo,
    /// Static Selectivity Order: estimate-driven single encoded plan with
    /// score-sorted intermediate results.
    Sso,
    /// SSO's single plan + DPO's no-resort property via bucketization.
    Hybrid,
}

impl Algorithm {
    /// Stable lowercase key: the trace root's name and the
    /// `engine.query.<key>` counter.
    pub(crate) fn key(self) -> &'static str {
        match self {
            Algorithm::Dpo => "dpo",
            Algorithm::Sso => "sso",
            Algorithm::Hybrid => "hybrid",
        }
    }

    /// The driver-loop checkpoint (round or pass boundary) at which this
    /// algorithm observes time-based budget trips.
    pub(crate) fn checkpoint_site(self) -> CheckpointSite {
        match self {
            Algorithm::Dpo => CheckpointSite::DpoRound,
            Algorithm::Sso => CheckpointSite::SsoPass,
            Algorithm::Hybrid => CheckpointSite::HybridPass,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Dpo => write!(f, "DPO"),
            Algorithm::Sso => write!(f, "SSO"),
            Algorithm::Hybrid => write!(f, "Hybrid"),
        }
    }
}

/// A top-K query: the TPQ, K, and the ranking configuration.
#[derive(Debug, Clone)]
pub struct TopKRequest {
    /// The user query.
    pub query: Tpq,
    /// Number of answers requested.
    pub k: usize,
    /// How structural and keyword scores combine.
    pub scheme: RankingScheme,
    /// Per-predicate weights.
    pub weights: WeightAssignment,
    /// Upper bound on relaxation steps to consider (safety valve; the
    /// schedule is also capped at 64 droppable predicates).
    pub max_relaxation_steps: usize,
    /// Optional type hierarchy enabling tag relaxation (Section 3.4).
    pub hierarchy: Option<TagHierarchy>,
    /// Optional numeric attribute-bound slackening (Section 3.4).
    pub attr_relaxation: Option<AttrRelaxation>,
    /// Resource limits for this run (default: unlimited).
    pub limits: QueryLimits,
    /// External cancellation handle (default: none).
    pub cancel: Option<CancelToken>,
    /// Whether to record a [`QueryTrace`] of this execution (default: off;
    /// untraced runs pay nothing).
    pub collect_trace: bool,
}

impl TopKRequest {
    /// A request with the paper's defaults: structure-first ranking and
    /// uniform weights.
    pub fn new(query: Tpq, k: usize) -> Self {
        TopKRequest {
            query,
            k,
            scheme: RankingScheme::StructureFirst,
            weights: WeightAssignment::uniform(),
            max_relaxation_steps: 64,
            hierarchy: None,
            attr_relaxation: None,
            limits: QueryLimits::default(),
            cancel: None,
            collect_trace: false,
        }
    }
}

/// One ranked answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The document node bound to the distinguished variable.
    pub node: NodeId,
    /// Structural + keyword score.
    pub score: AnswerScore,
    /// Bitset over the encoded relaxable predicates: bit `i` set means
    /// relaxable predicate `i` *is satisfied* by this answer. All-ones for
    /// exact matches. (DPO reports the compile-time set of its round.)
    pub satisfied: u64,
    /// How many relaxation steps were needed before this answer appeared
    /// (0 = answer of the exact query).
    pub relaxation_level: usize,
}

/// Counters exposed for tests, benchmarks, and EXPERIMENTS.md narratives.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Relaxation steps encoded/applied.
    pub relaxations_used: usize,
    /// Full query evaluations performed (DPO: one per round).
    pub evaluations: usize,
    /// Candidate answers produced before pruning/truncation.
    pub intermediate_answers: usize,
    /// SSO restarts due to estimate misses.
    pub restarts: usize,
    /// Distinct score/predicate buckets materialized (SSO and Hybrid).
    pub buckets: usize,
    /// Answers pruned by the score threshold (maxScoreGrowth pruning).
    pub pruned: usize,
    /// Ancestor-descendant shortcut pairs materialized (data-relaxation
    /// baseline only).
    pub shortcut_pairs: u64,
}

/// The result of a top-K run.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Top-K answers, best first under the request's ranking scheme.
    pub answers: Vec<Answer>,
    /// Execution counters.
    pub stats: ExecStats,
    /// Whether the search ran to completion or stopped on a resource limit.
    pub completeness: Completeness,
    /// Per-query trace, present when the request set
    /// [`TopKRequest::collect_trace`].
    pub trace: Option<QueryTrace>,
}

impl TopKResult {
    /// A result of a run that explored everything it was asked to.
    pub fn complete(answers: Vec<Answer>, stats: ExecStats) -> Self {
        TopKResult {
            answers,
            stats,
            completeness: Completeness::Complete,
            trace: None,
        }
    }

    /// Answer nodes in rank order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.answers.iter().map(|a| a.node).collect()
    }

    /// `(ss, ks)` pairs in rank order.
    pub fn scores(&self) -> Vec<(f64, f64)> {
        self.answers
            .iter()
            .map(|a| (a.score.ss, a.score.ks))
            .collect()
    }
}

/// Sorts answers best-first under `scheme`, breaking exact ties by document
/// order for determinism.
pub fn sort_answers(answers: &mut [Answer], scheme: RankingScheme) {
    answers.sort_by(|a, b| {
        b.score
            .cmp_under(&a.score, scheme)
            .then(a.node.cmp(&b.node))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ans(node: u32, ss: f64, ks: f64) -> Answer {
        Answer {
            node: NodeId(node),
            score: AnswerScore { ss, ks },
            satisfied: u64::MAX,
            relaxation_level: 0,
        }
    }

    #[test]
    fn sort_answers_structure_first() {
        let mut v = vec![ans(1, 2.0, 0.9), ans(2, 3.0, 0.1), ans(3, 3.0, 0.5)];
        sort_answers(&mut v, RankingScheme::StructureFirst);
        let nodes: Vec<u32> = v.iter().map(|a| a.node.0).collect();
        assert_eq!(nodes, [3, 2, 1]);
    }

    #[test]
    fn sort_answers_keyword_first() {
        let mut v = vec![ans(1, 2.0, 0.9), ans(2, 3.0, 0.1), ans(3, 3.0, 0.5)];
        sort_answers(&mut v, RankingScheme::KeywordFirst);
        let nodes: Vec<u32> = v.iter().map(|a| a.node.0).collect();
        assert_eq!(nodes, [1, 3, 2]);
    }

    #[test]
    fn ties_break_by_document_order() {
        let mut v = vec![ans(9, 1.0, 0.0), ans(3, 1.0, 0.0), ans(5, 1.0, 0.0)];
        sort_answers(&mut v, RankingScheme::Combined);
        let nodes: Vec<u32> = v.iter().map(|a| a.node.0).collect();
        assert_eq!(nodes, [3, 5, 9]);
    }

    #[test]
    fn request_builder_defaults() {
        let q = flexpath_tpq::TpqBuilder::new("a").build();
        let r = TopKRequest::new(q, 10);
        assert_eq!(r.k, 10);
        assert_eq!(r.scheme, RankingScheme::StructureFirst);
    }
}
