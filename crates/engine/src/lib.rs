//! # flexpath-engine
//!
//! FleXPath's query processor (paper Sections 4–5): ranking schemes with
//! data-derived predicate penalties, relaxation scheduling, encoded-plan
//! evaluation, and the three top-K algorithms — **DPO** (Dynamic Penalty
//! Order), **SSO** (Static Selectivity Order), and **Hybrid** (SSO's single
//! pass + DPO's no-resort property via bucketization).
//!
//! ## Architecture (paper Figure 7)
//!
//! ```text
//!  user query ──► relaxation schedule (penalty-ordered operator steps)
//!       │                 │
//!       ▼                 ▼
//!  [XPath engine]   [IR engine: flexpath-ftsearch]
//!   encoded-plan      contains → ranked (node, score)
//!   evaluation             │
//!       └────► combine nodes & scores ────► top-K answers
//! ```
//!
//! * [`EngineContext`] owns the document, its [`DocStats`], the inverted
//!   index, and a cache of full-text evaluations.
//! * [`schedule`] builds the penalty-ordered relaxation schedule shared by
//!   all three algorithms.
//! * [`encode`]/[`exec`] implement the relaxation-encoded evaluation: one
//!   pass that, per answer, determines exactly which original closure
//!   predicates hold (the per-answer satisfied-predicate *bitset* that
//!   Hybrid's buckets are keyed on).
//! * [`dpo_topk`], [`sso_topk`], [`hybrid_topk`] are the three top-K
//!   algorithms, built from two drivers: DPO's round loop, and one
//!   single-pass restart loop that becomes SSO or Hybrid depending on how
//!   it holds intermediate answers ([`order`]: ranking-key buckets with a
//!   threshold, or satisfied-bitset buckets with a `maxScoreGrowth`
//!   floor). Both share one prologue/epilogue and one evaluator entry
//!   point, [`exec::evaluate_encoded`], which takes the run's [`Budget`]
//!   — an unlimited budget is the unbudgeted evaluation, not a separate
//!   function.
//! * [`structural_join`] is the Stack-Tree structural join primitive
//!   (Al-Khalifa et al.) the paper's implementation builds on; its
//!   semijoin halves prefilter every evaluation, and its pair join serves
//!   `flexpath-bench`'s data-relaxation baseline and micro-benchmark.
//! * One query runs on the calling thread. Concurrency is across queries:
//!   an [`EngineContext`] is `Sync`, so any number of threads may run
//!   queries against one context and share its full-text cache.
//!
//! [`DocStats`]: flexpath_xmldom::DocStats

// Library targets must stay panic-free on input-reachable paths; the
// workspace `no_panics` test enforces the same rule by source scan.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod attr_relax;
pub mod context;
pub mod encode;
pub mod error;
pub mod exec;
pub mod governor;
pub mod hierarchy;
pub mod metrics;
pub mod order;
pub mod schedule;
pub mod score;
pub mod selectivity;
pub mod structural_join;
pub mod topk;

mod dpo;
mod fixtures;
mod run;
mod single_pass;

pub use attr_relax::AttrRelaxation;
pub use context::{ContextSource, EngineContext, SourceError, SourceErrorKind, SourceResidency};
pub use dpo::dpo_topk;
pub use encode::EncodedQuery;
pub use error::EngineError;
pub use governor::{
    reason_key, Budget, CancelToken, CheckpointSite, Completeness, ExhaustReason, QueryLimits,
};
pub use hierarchy::TagHierarchy;
pub use metrics::{MetricsRegistry, MetricsSnapshot, QueryTrace, TraceSpan, Tracer};
pub use order::{Offer, PruneFloor, ScoreKey, TopKBuckets};
pub use schedule::{build_schedule, ScheduleBuildReport, ScheduledStep};
pub use score::{AnswerScore, PenaltyModel, RankingScheme, WeightAssignment};
pub use selectivity::estimate_cardinality;
pub use single_pass::{hybrid_topk, sso_topk};
pub use structural_join::stack_tree_desc;
pub use topk::{Algorithm, Answer, ExecStats, TopKRequest, TopKResult};
