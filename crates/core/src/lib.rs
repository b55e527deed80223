//! # FleXPath
//!
//! A complete implementation of **FleXPath: Flexible Structure and
//! Full-Text Querying for XML** (Amer-Yahia, Lakshmanan, Pandit — SIGMOD
//! 2004).
//!
//! FleXPath integrates XPath-style structural querying with IR-style
//! full-text search by treating the structural query as a *template*:
//! documents that match it exactly rank first, and documents that match a
//! principled *relaxation* of it are returned with lower scores instead of
//! being silently discarded.
//!
//! ## Quickstart
//!
//! ```
//! use flexpath::FleXPath;
//!
//! let corpus = r#"<site>
//!   <article><section><algorithm>A1</algorithm>
//!     <paragraph>XML streaming evaluation</paragraph></section></article>
//!   <article><section><title>XML streaming</title>
//!     <algorithm>A2</algorithm><paragraph>other topic</paragraph></section></article>
//!   <article><note>a note about XML streaming</note></article>
//! </site>"#;
//!
//! let flex = FleXPath::from_xml(corpus).unwrap();
//! let results = flex
//!     .query("//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]")
//!     .unwrap()
//!     .top(3)
//!     .execute()
//!     .unwrap();
//!
//! // All three articles are returned, ranked by how faithfully they match
//! // the structural template — the exact match first.
//! assert_eq!(results.hits.len(), 3);
//! assert!(results.hits[0].score.ss > results.hits[1].score.ss);
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate |
//! |---|---|
//! | XML document model, parser, statistics | `flexpath-xmldom` |
//! | IR engine (tokenizer, stemmer, index, FT eval) | `flexpath-ftsearch` |
//! | Tree pattern queries, closure/core, relaxation operators | `flexpath-tpq` |
//! | Penalties, selectivity, DPO / SSO / Hybrid | `flexpath-engine` |
//! | Persistent corpus store (on-disk format, catalog) | `flexpath-store` |
//! | XMark-style data generator (evaluation workload) | `flexpath-xmark` |
//!
//! This crate re-exports the pieces a downstream user needs and adds the
//! session/query-builder API plus human-readable explanations.

// The facade is the public surface downstream users read first — every
// exported item must carry a doc comment.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod explain;
pub mod session;

pub use explain::{explain_answer, explain_plan, explain_profile, explain_schedule};
pub use session::{FleXPath, QueryResults, TopKQuery};

// Re-exports for downstream users.
pub use flexpath_engine::{
    Algorithm, Answer, AnswerScore, AttrRelaxation, Budget, CancelToken, Completeness, EngineError,
    ExecStats, ExhaustReason, MetricsRegistry, MetricsSnapshot, Offer, PruneFloor, QueryLimits,
    QueryTrace, RankingScheme, ScoreKey, SourceError, SourceErrorKind, SourceResidency,
    TagHierarchy, TopKBuckets, TraceSpan, WeightAssignment,
};
pub use flexpath_store::{
    Catalog, CatalogEntry, CatalogListing, CorpusStore, LazyStore, QuarantinedEntry, StoreBuilder,
    StoreError, StoreInspection, StoreMeta,
};

/// The process-wide engine metrics registry (see
/// [`flexpath_engine::metrics`]): cumulative counters and duration
/// histograms across every query run in this process.
pub fn engine_metrics() -> MetricsSnapshot {
    flexpath_engine::metrics::global().snapshot()
}
pub use flexpath_ftsearch::{FtExpr, Thesaurus};
pub use flexpath_tpq::{
    parse_query, parse_query_weighted, QueryParseError, RelaxOp, Tpq, TpqBuilder,
};
pub use flexpath_xmldom::{parse as parse_xml, Document, NodeId, ParseError};
