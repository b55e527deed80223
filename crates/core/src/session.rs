//! The FleXPath session and query-builder API.

use flexpath_engine::{
    dpo_topk, hybrid_topk, sso_topk, Algorithm, Answer, AttrRelaxation, CancelToken, Completeness,
    EngineContext, EngineError, ExecStats, QueryLimits, QueryTrace, RankingScheme, SourceResidency,
    TagHierarchy, TopKRequest, TopKResult, TraceSpan, WeightAssignment,
};
use flexpath_ftsearch::{highlight, HighlightStyle, Thesaurus};
use flexpath_store::{LazyStore, StoreBuilder, StoreError};
use flexpath_tpq::{parse_query_weighted, QueryParseError, Tpq};
use flexpath_xmldom::{parse as parse_xml, Document, NodeId, ParseError, ParseErrorKind};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A FleXPath session over one document (collection).
///
/// Construction preprocesses the document once: structural statistics for
/// penalties and selectivity estimation, plus the full-text inverted index.
/// Alternatively, [`FleXPath::open`] restores a session from a persistent
/// store file *lazily*: the file is memory-mapped, the open does O(header)
/// work, and each part (document arena, statistics, inverted index) is
/// CRC-verified and decoded on first touch.
pub struct FleXPath {
    ctx: EngineContext,
    /// The backing store when opened via [`FleXPath::open`] /
    /// [`FleXPath::from_lazy_store`] — the same `Arc` the engine context
    /// reads from. Lets the session layer reach store-typed state
    /// (version, mapping, typed errors for `save`) that the engine cannot
    /// name.
    lazy: Option<Arc<LazyStore>>,
}

impl FleXPath {
    /// Opens a session over an already-built document.
    pub fn new(doc: Document) -> Self {
        FleXPath {
            ctx: EngineContext::new(doc),
            lazy: None,
        }
    }

    /// Parses `xml` and opens a session over it.
    pub fn from_xml(xml: &str) -> Result<Self, ParseError> {
        Ok(Self::new(parse_xml(xml)?))
    }

    /// Opens a session over a *collection* of XML documents (the paper's
    /// `D` is "an XML document collection"): each part becomes a child of a
    /// synthetic `<collection>` root.
    ///
    /// Every part is validated *before* gluing: a part carrying a document
    /// type declaration is rejected ([`EngineError::DoctypeForbidden`]),
    /// as is a part that is not a single well-formed element
    /// ([`EngineError::NotSingleElement`]) — otherwise a part like
    /// `"<a/><b/>"` or `"</collection><evil/>"` could silently reshape the
    /// merged document.
    pub fn from_xml_parts<'a>(
        parts: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self, EngineError> {
        let mut glued = String::from("<collection>");
        for (i, p) in parts.into_iter().enumerate() {
            if contains_doctype(p) {
                return Err(EngineError::DoctypeForbidden { part: i });
            }
            // Each part must parse on its own as exactly one element; the
            // parser already rejects text or a second root outside the
            // first (`ContentOutsideRoot`) and empty input (`Empty`).
            if let Err(e) = parse_xml(p) {
                return Err(match e.kind {
                    ParseErrorKind::ContentOutsideRoot | ParseErrorKind::Empty => {
                        EngineError::NotSingleElement { part: i }
                    }
                    _ => EngineError::Parse(e),
                });
            }
            glued.push_str(p);
        }
        glued.push_str("</collection>");
        Ok(Self::from_xml(&glued)?)
    }

    /// Restores a session from the persistent store file at `path`
    /// (written by [`FleXPath::save`] or the `flexpath index` command),
    /// skipping XML parsing, statistics collection, and index
    /// construction. The open is *lazy*: O(header) work up front, sections
    /// validated and decoded on first touch. Queries on the restored
    /// session return byte-identical answers and trace fingerprints to a
    /// freshly built one.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Ok(Self::from_lazy_store(LazyStore::open(path)?))
    }

    /// Wraps an opened [`LazyStore`] (e.g. from
    /// [`flexpath_store::Catalog::open_lazy`]) in a session — the one way
    /// a store-backed session is built. Nothing is decoded yet; the first
    /// [`TopKQuery::execute`] (or [`FleXPath::materialize`]) reports
    /// first-touch corruption as a typed error. A caller that prefers
    /// open-time validation over open-time speed calls `materialize(true)`
    /// right after opening.
    pub fn from_lazy_store(store: LazyStore) -> Self {
        let store = Arc::new(store);
        FleXPath {
            ctx: EngineContext::from_source(store.clone()),
            lazy: Some(store),
        }
    }

    /// The backing store, when this session was opened from one.
    pub fn lazy_store(&self) -> Option<&LazyStore> {
        self.lazy.as_deref()
    }

    /// Which parts of the session are materialized (always everything for
    /// sessions built from XML).
    pub fn residency(&self) -> SourceResidency {
        self.ctx.residency()
    }

    /// Forces materialization of the document and statistics — plus the
    /// inverted index when `with_index` — reporting the first failure as
    /// a typed error. After `Ok(())`, the rendering helpers
    /// ([`FleXPath::snippet`], [`FleXPath::xml_of`], …) cannot hit a store
    /// fault.
    pub fn materialize(&self, with_index: bool) -> Result<(), EngineError> {
        self.ctx.ensure_ready(with_index).map_err(EngineError::from)
    }

    /// Persists this session's document, statistics, and index to `path`
    /// in the store format, under the logical name `name`. Returns the
    /// number of bytes written. For store-backed sessions this
    /// materializes all parts first (reporting store faults as typed
    /// errors).
    pub fn save(&self, path: &Path, name: &str) -> Result<u64, StoreError> {
        if let Some(store) = &self.lazy {
            store.document()?;
            store.stats()?;
            store.index()?;
        }
        StoreBuilder::from_parts(name, self.ctx.doc(), self.ctx.stats(), self.ctx.index())
            .write_to(path)
    }

    /// The `store.open` trace span when this session was restored from a
    /// store (bytes, node/term counts, load wall time); `None` for
    /// sessions built from XML. Deliberately *not* spliced into query
    /// traces: answers and `counter_fingerprint()`s must be identical
    /// across the parse and load paths.
    pub fn store_trace(&self) -> Option<&TraceSpan> {
        self.lazy.as_deref().map(LazyStore::load_trace)
    }

    /// The underlying engine context (document, stats, index).
    pub fn context(&self) -> &EngineContext {
        &self.ctx
    }

    /// The document. For lazy sessions this materializes the document
    /// arena on first call and reports a store fault as a typed error.
    pub fn document(&self) -> Result<&Document, EngineError> {
        self.ctx.try_doc().map_err(EngineError::from)
    }

    /// Starts a top-K query from an XPath-subset string. `^<weight>`
    /// annotations on steps / contains predicates become weight overrides
    /// (paper Section 4.1: "this weight may be user-specified").
    pub fn query(&self, xpath: &str) -> Result<TopKQuery<'_>, QueryParseError> {
        let parse_started = std::time::Instant::now();
        let (tpq, overrides) = parse_query_weighted(xpath)?;
        let parse_time = parse_started.elapsed();
        let mut q = self.query_tpq(tpq);
        q.parse_time = Some(parse_time);
        if !overrides.is_empty() {
            let mut weights = WeightAssignment::uniform();
            for (pred, w) in overrides {
                weights = weights.with_override(pred, w);
            }
            q.request.weights = weights;
        }
        Ok(q)
    }

    /// Starts a top-K query from a programmatically built [`Tpq`].
    pub fn query_tpq(&self, tpq: Tpq) -> TopKQuery<'_> {
        TopKQuery {
            flex: self,
            request: TopKRequest::new(tpq, 10),
            algorithm: Algorithm::Hybrid,
            thesaurus: None,
            parse_time: None,
        }
    }

    /// Serializes the subtree of an answer node (useful for display).
    pub fn xml_of(&self, node: NodeId) -> String {
        let mut out = String::new();
        flexpath_xmldom::write_xml(self.ctx.doc(), node, &mut out);
        out
    }

    /// A short text snippet of an answer node's content.
    pub fn snippet(&self, node: NodeId, max_chars: usize) -> String {
        let text = self.ctx.doc().subtree_text(node);
        let mut s: String = text.chars().take(max_chars).collect();
        if text.chars().count() > max_chars {
            s.push('…');
        }
        s
    }

    /// A snippet of an answer with the query's keywords highlighted
    /// (stem-aware; `**…**` markers by default).
    pub fn highlight(&self, node: NodeId, query: &Tpq) -> String {
        self.highlight_styled(node, query, &HighlightStyle::default())
    }

    /// [`highlight`](Self::highlight) with custom markers / snippet length.
    pub fn highlight_styled(&self, node: NodeId, query: &Tpq, style: &HighlightStyle) -> String {
        // Union all the query's contains expressions into one for marking.
        let exprs: Vec<_> = query
            .nodes()
            .iter()
            .flat_map(|n| n.contains.iter().cloned())
            .collect();
        if exprs.is_empty() {
            return self.snippet(node, style.max_chars.max(1));
        }
        let combined = if exprs.len() == 1 {
            exprs.into_iter().next().expect("len checked")
        } else {
            flexpath_ftsearch::FtExpr::Or(exprs)
        };
        highlight(self.ctx.doc(), node, &combined, style)
    }

    /// Human-readable path of a node (`/collection/article[3]/section`).
    pub fn path_of(&self, node: NodeId) -> String {
        self.ctx.doc().node_path(node)
    }
}

/// Case-insensitive scan for a `<!DOCTYPE` declaration.
fn contains_doctype(part: &str) -> bool {
    let bytes = part.as_bytes();
    bytes
        .windows(9)
        .any(|w| w[0] == b'<' && w[1] == b'!' && w[2..].eq_ignore_ascii_case(b"doctype"))
}

/// A configurable top-K query (builder style).
pub struct TopKQuery<'a> {
    flex: &'a FleXPath,
    request: TopKRequest,
    algorithm: Algorithm,
    thesaurus: Option<Thesaurus>,
    parse_time: Option<Duration>,
}

impl TopKQuery<'_> {
    /// Sets K (default 10).
    pub fn top(mut self, k: usize) -> Self {
        self.request.k = k;
        self
    }

    /// Chooses the top-K algorithm (default [`Algorithm::Hybrid`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Chooses the ranking scheme (default structure-first).
    pub fn scheme(mut self, scheme: RankingScheme) -> Self {
        self.request.scheme = scheme;
        self
    }

    /// Sets the predicate weight assignment (default uniform).
    pub fn weights(mut self, weights: WeightAssignment) -> Self {
        self.request.weights = weights;
        self
    }

    /// Caps the number of relaxation steps considered.
    pub fn max_relaxations(mut self, n: usize) -> Self {
        self.request.max_relaxation_steps = n;
        self
    }

    /// Gives the query a wall-clock deadline. When it expires the run
    /// returns the best answers found so far and
    /// [`QueryResults::completeness`] reports the interruption.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.request.limits.deadline = Some(deadline);
        self
    }

    /// Sets all resource limits at once (see [`QueryLimits`]).
    pub fn limits(mut self, limits: QueryLimits) -> Self {
        self.request.limits = limits;
        self
    }

    /// Attaches an external cancellation token; calling
    /// [`CancelToken::cancel`] from any thread stops the query at its next
    /// checkpoint with a best-effort result.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.request.cancel = Some(cancel);
        self
    }

    /// Attaches a type hierarchy, enabling tag relaxation (paper
    /// Section 3.4: `article` may relax to any subtype of its declared
    /// supertype, e.g. `publication`).
    pub fn hierarchy(mut self, hierarchy: TagHierarchy) -> Self {
        self.request.hierarchy = Some(hierarchy);
        self
    }

    /// Attaches a thesaurus: every `contains` term expands to its synonym
    /// ring before evaluation (paper Section 3.4's keyword relaxation,
    /// "performed by a separate IR engine").
    pub fn thesaurus(mut self, thesaurus: Thesaurus) -> Self {
        self.thesaurus = Some(thesaurus);
        self
    }

    /// Enables numeric attribute-bound slackening (paper Section 3.4:
    /// `price ≤ 98` may match as `price ≤ 100`, at a data-derived penalty).
    pub fn attr_relaxation(mut self, relaxation: AttrRelaxation) -> Self {
        self.request.attr_relaxation = Some(relaxation);
        self
    }

    /// Does nothing: a query always runs on the calling thread, and
    /// concurrency comes from running queries on several threads against
    /// one shared session. Kept only so existing callers still compile;
    /// ROADMAP.md item 4(i) removes it.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Collects a per-query execution trace: [`QueryResults::trace`] will
    /// carry a [`QueryTrace`] span tree covering parse, scheduling, and
    /// every relaxation round / evaluation pass. Off by default (tracing
    /// allocates a span tree per round).
    pub fn trace(mut self) -> Self {
        self.request.collect_trace = true;
        self
    }

    /// The underlying request (for advanced use).
    pub fn request(&self) -> &TopKRequest {
        &self.request
    }

    /// Whether this query needs the inverted index: true iff it carries
    /// any `contains` predicate (thesaurus expansion only rewrites
    /// *existing* `contains` expressions, so it cannot change the answer).
    fn needs_index(&self) -> bool {
        self.request
            .query
            .nodes()
            .iter()
            .any(|n| !n.contains.is_empty())
    }

    /// Does what [`TopKQuery::execute`] does. Kept only so existing
    /// callers still compile; ROADMAP.md item 4(i) removes it.
    #[doc(hidden)]
    pub fn try_execute(&self) -> Result<QueryResults, EngineError> {
        self.execute()
    }

    /// Runs the query, materializing exactly the parts it needs first —
    /// the document and statistics always, the inverted index only when
    /// the query carries `contains` predicates. A first-touch store fault
    /// (checksum mismatch, corrupt section, I/O) is a typed error; for
    /// in-memory sessions this never fails. A resource limit or
    /// cancellation is not an error: it ends the run early, and
    /// [`QueryResults::completeness`] says why.
    pub fn execute(&self) -> Result<QueryResults, EngineError> {
        self.flex.ctx.ensure_ready(self.needs_index())?;
        let mut request = self.request.clone();
        if let Some(t) = &self.thesaurus {
            request.query = request.query.map_contains(|e| t.expand(e));
        }
        let result: TopKResult = match self.algorithm {
            Algorithm::Dpo => dpo_topk(&self.flex.ctx, &request),
            Algorithm::Sso => sso_topk(&self.flex.ctx, &request),
            Algorithm::Hybrid => hybrid_topk(&self.flex.ctx, &request),
        };
        let mut trace = result.trace;
        if let (Some(t), Some(parse_time)) = (trace.as_mut(), self.parse_time) {
            // The parse happened before the engine's root span existed;
            // splice it in as the first child so the tree reads in
            // pipeline order (parse → schedule → rounds).
            let mut parse_span = TraceSpan::new("parse");
            parse_span.duration = parse_time;
            t.root.children.insert(0, parse_span);
        }
        Ok(QueryResults {
            hits: result.answers,
            stats: result.stats,
            completeness: result.completeness,
            algorithm: self.algorithm,
            trace,
        })
    }
}

/// Ranked results of a top-K query.
#[derive(Debug, Clone)]
pub struct QueryResults {
    /// Ranked answers, best first.
    pub hits: Vec<Answer>,
    /// Execution counters.
    pub stats: ExecStats,
    /// Whether the run explored everything or stopped on a resource limit.
    pub completeness: Completeness,
    /// The algorithm that produced them.
    pub algorithm: Algorithm,
    /// Execution trace (present only when [`TopKQuery::trace`] was set).
    pub trace: Option<QueryTrace>,
}

impl QueryResults {
    /// Answer nodes in rank order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.hits.iter().map(|h| h.node).collect()
    }

    /// `true` when the run explored its full search space.
    pub fn is_complete(&self) -> bool {
        self.completeness.is_complete()
    }

    /// The limit that stopped the run early, if any (`None` for complete
    /// runs). Convenience for callers that degrade rather than error on
    /// budget trips — e.g. a server returning a partial with `Retry-After`.
    pub fn exhaust_reason(&self) -> Option<flexpath_engine::ExhaustReason> {
        self.completeness.exhaust_reason()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: &str = "<site>\
        <article id=\"exact\"><section><algorithm>x</algorithm>\
          <paragraph>XML streaming</paragraph></section></article>\
        <article id=\"close\"><section><title>XML streaming</title>\
          <algorithm>y</algorithm><paragraph>other</paragraph></section></article>\
        <article id=\"loose\"><note>XML streaming</note></article>\
        </site>";

    const Q1: &str =
        "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]";

    #[test]
    fn session_end_to_end() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let results = flex.query(Q1).unwrap().top(3).execute().unwrap();
        assert_eq!(results.hits.len(), 3);
        let id = flex.document().unwrap().symbols().lookup("id").unwrap();
        assert_eq!(
            flex.document().unwrap().attribute(results.hits[0].node, id),
            Some("exact")
        );
        assert!(results.hits.iter().any(|h| h.relaxation_level > 0));
    }

    #[test]
    fn all_three_algorithms_return_same_answer_set() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let mut sets = Vec::new();
        for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
            let r = flex
                .query(Q1)
                .unwrap()
                .top(3)
                .algorithm(alg)
                .execute()
                .unwrap();
            let mut nodes = r.nodes();
            nodes.sort();
            sets.push(nodes);
        }
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
    }

    #[test]
    fn exact_query_needs_no_relaxation() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let r = flex.query(Q1).unwrap().top(1).execute().unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].relaxation_level, 0);
        assert_eq!(r.stats.relaxations_used, 0);
    }

    #[test]
    fn snippets_and_xml_render() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let r = flex.query(Q1).unwrap().top(1).execute().unwrap();
        let node = r.hits[0].node;
        assert!(flex.xml_of(node).starts_with("<article"));
        let short = flex.snippet(node, 5);
        assert!(short.chars().count() <= 6); // 5 + ellipsis
    }

    #[test]
    fn builder_options_apply() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let q = flex
            .query(Q1)
            .unwrap()
            .top(2)
            .scheme(RankingScheme::Combined)
            .algorithm(Algorithm::Sso)
            .max_relaxations(8);
        assert_eq!(q.request().k, 2);
        assert_eq!(q.request().scheme, RankingScheme::Combined);
        assert_eq!(q.request().max_relaxation_steps, 8);
        let r = q.execute().unwrap();
        assert_eq!(r.algorithm, Algorithm::Sso);
        assert_eq!(r.hits.len(), 2);
    }

    #[test]
    fn collections_glue_under_a_synthetic_root() {
        let flex = FleXPath::from_xml_parts([
            "<article><p>XML streaming a</p></article>",
            "<article><p>XML streaming b</p></article>",
        ])
        .unwrap();
        assert_eq!(
            flex.document()
                .unwrap()
                .tag_name(flex.document().unwrap().root_element()),
            Some("collection")
        );
        let r = flex
            .query("//article[.contains(\"XML\")]")
            .unwrap()
            .top(5)
            .execute()
            .unwrap();
        assert_eq!(r.hits.len(), 2);
    }

    #[test]
    fn highlighting_marks_query_keywords() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let q = flexpath_tpq::parse_query(Q1).unwrap();
        let r = flex.query(Q1).unwrap().top(1).execute().unwrap();
        let hl = flex.highlight(r.hits[0].node, &q);
        assert!(hl.contains("**XML**"), "{hl}");
        assert!(hl.contains("**streaming**"), "{hl}");
        assert!(flex.path_of(r.hits[0].node).starts_with("/site/article"));
    }

    #[test]
    fn from_xml_parts_rejects_doctype_and_fragments() {
        assert!(matches!(
            FleXPath::from_xml_parts(["<!DOCTYPE a><a/>"]),
            Err(EngineError::DoctypeForbidden { part: 0 })
        ));
        assert!(matches!(
            FleXPath::from_xml_parts(["<a/>", "<!doctype b><b/>"]),
            Err(EngineError::DoctypeForbidden { part: 1 })
        ));
        assert!(matches!(
            FleXPath::from_xml_parts(["<a/>", "<b/><c/>"]),
            Err(EngineError::NotSingleElement { part: 1 })
        ));
        assert!(matches!(
            FleXPath::from_xml_parts(["<a/>", "   "]),
            Err(EngineError::NotSingleElement { part: 1 })
        ));
        assert!(FleXPath::from_xml_parts(["</collection><evil/>", "<a/>"]).is_err());
    }

    #[test]
    fn deadline_and_limits_flow_into_the_request() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let q = flex
            .query(Q1)
            .unwrap()
            .deadline(Duration::from_millis(100))
            .limits(QueryLimits::default().with_max_candidate_answers(7))
            .cancel(CancelToken::new());
        // `.limits` replaced the deadline set before it; set it again.
        let q = q.deadline(Duration::from_millis(50));
        assert_eq!(q.request().limits.deadline, Some(Duration::from_millis(50)));
        assert_eq!(q.request().limits.max_candidate_answers, Some(7));
        assert!(q.request().cancel.is_some());
        let r = q.execute().unwrap();
        assert!(r.is_complete(), "tiny corpus finishes well within limits");
    }

    #[test]
    fn zero_answer_budget_degrades_gracefully() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
            let r = flex
                .query(Q1)
                .unwrap()
                .top(3)
                .algorithm(alg)
                .limits(QueryLimits::default().with_max_candidate_answers(0))
                .execute()
                .unwrap();
            assert!(r.hits.is_empty(), "{alg}: no budget, no answers");
            assert!(!r.is_complete(), "{alg}: must report exhaustion");
        }
    }

    #[test]
    fn trace_opt_in_yields_span_tree_with_parse_span() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let untraced = flex.query(Q1).unwrap().top(3).execute().unwrap();
        assert!(untraced.trace.is_none(), "tracing must be opt-in");
        for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
            let r = flex
                .query(Q1)
                .unwrap()
                .top(3)
                .algorithm(alg)
                .trace()
                .execute()
                .unwrap();
            let trace = r.trace.expect("trace requested");
            assert_eq!(
                trace.root.children.first().map(|s| s.name.as_str()),
                Some("parse"),
                "{alg}"
            );
            assert!(trace.find("schedule").is_some(), "{alg}");
        }
    }

    #[test]
    fn parse_errors_surface() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        assert!(flex.query("not an xpath").is_err());
        assert!(FleXPath::from_xml("<broken").is_err());
    }

    #[test]
    fn save_then_open_reproduces_answers_and_fingerprints() {
        let dir = flexpath_reference::ScratchDir::new("session");
        let path = dir.path().join("corpus.fxs");

        let built = FleXPath::from_xml(CORPUS).unwrap();
        built.save(&path, "corpus").unwrap();
        assert!(
            built.store_trace().is_none(),
            "built sessions have no load span"
        );

        let loaded = FleXPath::open(&path).unwrap();
        let span = loaded
            .store_trace()
            .expect("loaded sessions expose the span");
        assert_eq!(span.name, "store.open");

        for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
            let a = built
                .query(Q1)
                .unwrap()
                .top(3)
                .algorithm(alg)
                .trace()
                .execute()
                .unwrap();
            let b = loaded
                .query(Q1)
                .unwrap()
                .top(3)
                .algorithm(alg)
                .trace()
                .execute()
                .unwrap();
            assert_eq!(a.nodes(), b.nodes(), "{alg}");
            for (x, y) in a.hits.iter().zip(&b.hits) {
                assert_eq!(x.score, y.score, "{alg}");
            }
            assert_eq!(
                a.trace.unwrap().counter_fingerprint(),
                b.trace.unwrap().counter_fingerprint(),
                "{alg}"
            );
        }
    }

    #[test]
    fn open_missing_file_is_a_typed_error() {
        let dir = flexpath_reference::ScratchDir::new("session-missing");
        let missing = dir.path().join("missing.fxs");
        assert!(matches!(FleXPath::open(&missing), Err(StoreError::Io(_))));
    }
}
