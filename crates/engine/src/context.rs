//! Shared evaluation context: document, statistics, inverted index, and a
//! cache of full-text evaluations.
//!
//! Everything FleXPath's penalties and estimates need is precomputed here
//! once per document (the paper: "we first do intensive pre-processing of
//! the document in order to obtain counts of the various types of nodes and
//! edges").
//!
//! A context has one shape: it reads its parts from a [`ContextSource`].
//! The memory-mapped store is a source that decodes each part at most
//! once, on first touch, and reports failures as typed [`SourceError`]s;
//! an in-memory corpus ([`EngineContext::new`]) is a source whose parts
//! are already resident and whose loads cannot fail. Callers that can
//! observe a store-backed source (the session layer, the server)
//! materialize the parts they need up front via
//! [`EngineContext::ensure_ready`] and handle the error; after that, the
//! infallible accessors are guaranteed to succeed. The evaluator resolves
//! the document once per run, so no candidate loop calls into the source.

use flexpath_ftsearch::{Budget, CacheStats, FtEval, FtExpr, InvertedIndex, ShardedCache};
use flexpath_xmldom::{DocStats, Document, Sym};
use std::sync::Arc;

/// Why a lazily-backed context part could not be produced. Carried by
/// [`SourceError`]; mirrors the store's error taxonomy without depending
/// on the store crate (the dependency points the other way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceErrorKind {
    /// The part's bytes failed checksum verification on first touch.
    Checksum,
    /// The part's bytes decoded to an inconsistent structure, were
    /// truncated, or were missing entirely.
    Corrupt,
    /// The underlying file or mapping failed at the I/O level.
    Io,
}

/// A typed failure while materializing a context part from its source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError {
    /// Which part could not be produced: `"document"`, `"stats"`, or
    /// `"index"`.
    pub part: &'static str,
    /// Failure category.
    pub kind: SourceErrorKind,
    /// Human-readable description from the underlying layer.
    pub detail: String,
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            SourceErrorKind::Checksum => "checksum mismatch",
            SourceErrorKind::Corrupt => "corrupt data",
            SourceErrorKind::Io => "I/O failure",
        };
        write!(
            f,
            "cannot materialize {} ({kind}): {}",
            self.part, self.detail
        )
    }
}

impl std::error::Error for SourceError {}

/// Which parts a [`ContextSource`] has already materialized (all `true`
/// for in-memory corpora). Surfaced per-session by the server so
/// operators can see what a lazy open has actually paid for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceResidency {
    /// The document arena is decoded and resident.
    pub document: bool,
    /// The structural statistics are decoded and resident.
    pub stats: bool,
    /// The inverted index is decoded and resident.
    pub index: bool,
}

impl SourceResidency {
    /// Residency of a fully-materialized context.
    pub fn full() -> Self {
        SourceResidency {
            document: true,
            stats: true,
            index: true,
        }
    }
}

/// A provider of context parts.
///
/// Implementations own the values and hand out references. For the
/// memory-mapped `LazyStore` in `flexpath-store` the first call to a
/// `load_*` method validates and decodes that part and subsequent calls
/// are cheap cache hits; for an in-memory corpus every call is. All
/// methods must be safe to call concurrently.
pub trait ContextSource: Send + Sync {
    /// The document arena, decoding it on first call.
    fn load_document(&self) -> Result<&Document, SourceError>;
    /// The structural statistics, decoding them on first call.
    fn load_stats(&self) -> Result<&DocStats, SourceError>;
    /// The inverted index, decoding it on first call.
    fn load_index(&self) -> Result<&InvertedIndex, SourceError>;
    /// Which parts are currently materialized.
    fn residency(&self) -> SourceResidency;
}

/// An in-memory corpus: the source whose parts are already resident.
struct Resident {
    doc: Document,
    stats: DocStats,
    index: InvertedIndex,
}

impl ContextSource for Resident {
    fn load_document(&self) -> Result<&Document, SourceError> {
        Ok(&self.doc)
    }

    fn load_stats(&self) -> Result<&DocStats, SourceError> {
        Ok(&self.stats)
    }

    fn load_index(&self) -> Result<&InvertedIndex, SourceError> {
        Ok(&self.index)
    }

    fn residency(&self) -> SourceResidency {
        SourceResidency::full()
    }
}

/// One document plus every auxiliary structure the engine needs, read
/// from a [`ContextSource`].
pub struct EngineContext {
    /// Shared (`Arc`) so the session layer can keep its own typed handle
    /// on the same store the context reads from.
    source: Arc<dyn ContextSource>,
    /// Memoized full-text evaluations, keyed by expression. Sharded and
    /// lock-striped so concurrent queries sharing one session probe it
    /// without serializing on a single lock.
    ft_cache: ShardedCache<FtExpr, FtEval>,
}

/// A part failed to load *after* the session layer reported it ready — a
/// contract violation (e.g. an accessor called without
/// [`EngineContext::ensure_ready`] on a corrupt store), not an
/// input-reachable state. Keeping the diverging arm out of line keeps the
/// accessors inlinable.
#[cold]
fn source_fault(e: &SourceError) -> ! {
    // lint:allow(panic): unreachable once ensure_ready has succeeded; the
    // fallible try_* accessors are the input-facing surface.
    panic!("context part unavailable after readiness check: {e}")
}

impl EngineContext {
    /// Preprocesses `doc`: collects statistics and builds the inverted index.
    pub fn new(doc: Document) -> Self {
        let stats = DocStats::compute(&doc);
        let index = InvertedIndex::build(&doc);
        Self::from_source(Arc::new(Resident { doc, stats, index }))
    }

    /// Assembles a context over `source`; nothing is loaded yet. Callers
    /// whose source can fail must run [`EngineContext::ensure_ready`] (or
    /// use the `try_*` accessors) before the infallible accessors.
    pub fn from_source(source: Arc<dyn ContextSource>) -> Self {
        EngineContext {
            source,
            ft_cache: ShardedCache::default(),
        }
    }

    /// Which parts are currently materialized.
    pub fn residency(&self) -> SourceResidency {
        self.source.residency()
    }

    /// Materializes the document and statistics — plus the inverted index
    /// when `needs_index` — reporting the first failure. After `Ok(())`,
    /// the corresponding infallible accessors cannot fail.
    pub fn ensure_ready(&self, needs_index: bool) -> Result<(), SourceError> {
        self.try_doc()?;
        self.try_stats()?;
        if needs_index {
            self.try_index()?;
        }
        Ok(())
    }

    /// The document, materializing it if needed.
    pub fn try_doc(&self) -> Result<&Document, SourceError> {
        self.source.load_document()
    }

    /// The statistics, materializing them if needed.
    pub fn try_stats(&self) -> Result<&DocStats, SourceError> {
        self.source.load_stats()
    }

    /// The inverted index, materializing it if needed.
    pub fn try_index(&self) -> Result<&InvertedIndex, SourceError> {
        self.source.load_index()
    }

    /// The document.
    pub fn doc(&self) -> &Document {
        self.try_doc().unwrap_or_else(|e| source_fault(&e))
    }

    /// Structural statistics (`#(t)`, `#pc`, `#ad`).
    pub fn stats(&self) -> &DocStats {
        self.try_stats().unwrap_or_else(|e| source_fault(&e))
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        self.try_index().unwrap_or_else(|e| source_fault(&e))
    }

    /// Evaluates (or recalls) a full-text expression under a resource
    /// [`Budget`]. The result is shared: the same `contains` expression
    /// appearing at several query nodes — or across relaxation rounds — is
    /// evaluated once (the "optimize repeated computation" goal of
    /// Section 1).
    ///
    /// A tripped evaluation is returned to the caller (best-effort partial
    /// matches) but never inserted into the shared cache — a later query
    /// must not observe a truncated evaluation. An unlimited budget never
    /// trips, so its evaluations are always cached.
    pub fn ft_eval(&self, expr: &FtExpr, budget: &Budget) -> Arc<FtEval> {
        if let Some(hit) = self.ft_cache.get(expr) {
            return hit;
        }
        let eval = Arc::new(self.index().evaluate_budgeted(self.doc(), expr, budget));
        if budget.tripped().is_some() {
            return eval;
        }
        self.ft_cache.insert_if_absent(expr, eval)
    }

    /// Number of cached full-text evaluations (for tests/stats).
    pub fn ft_cache_size(&self) -> usize {
        self.ft_cache.len()
    }

    /// Hit/miss/insert/eviction counters of the full-text cache. The
    /// counters are cumulative over the context's lifetime; observability
    /// callers snapshot before and after a run and report the delta.
    pub fn ft_cache_stats(&self) -> CacheStats {
        self.ft_cache.stats()
    }

    /// Resolves a query tag name against the document's symbol table.
    pub fn resolve_tag(&self, name: &str) -> Option<Sym> {
        self.doc().symbols().lookup(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_xmldom::parse;

    fn ctx(xml: &str) -> EngineContext {
        EngineContext::new(parse(xml).unwrap())
    }

    #[test]
    fn preprocessing_populates_stats_and_index() {
        let c = ctx("<a><b>gold</b><b>silver</b></a>");
        let b = c.resolve_tag("b").unwrap();
        assert_eq!(c.stats().tag_count(b), 2);
        assert_eq!(c.index().df("gold"), 1);
    }

    #[test]
    fn ft_eval_is_cached() {
        let c = ctx("<a><b>gold</b></a>");
        let e = FtExpr::term("gold");
        let first = c.ft_eval(&e, &Budget::unlimited());
        let second = c.ft_eval(&e, &Budget::unlimited());
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        assert_eq!(c.ft_cache_size(), 1);
    }

    #[test]
    fn unknown_tag_resolves_to_none() {
        let c = ctx("<a/>");
        assert!(c.resolve_tag("nope").is_none());
    }
}
