//! Shared server state: the catalog directory and the cache of opened
//! sessions.
//!
//! A [`FleXPath`] session is immutable after construction and `Send +
//! Sync`, so one `Arc<FleXPath>` per document serves every concurrent
//! request — queries share the document arena, statistics, inverted
//! index, and the sharded full-text cache without copying any of them.
//! The cache here is *insert-only*: a catalog document is decoded from
//! the FXPSTORE at most once per process, then shared for the lifetime
//! of the server. Decoding happens *outside* the map lock, behind a
//! per-document slot: a cold load (potentially seconds for a large
//! store) only blocks other requests for the *same* document — cache
//! hits for already-loaded documents never wait behind it.

use crate::error::ServeError;
use flexpath::{Catalog, FleXPath, SourceResidency};
use flexpath_engine::metrics::{self, Counter, Timer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// One document's place in the cache: the loaded session once ready, and
/// a mutex serializing the load among requests that raced for a cold
/// document. Holding `loading` does NOT hold the sessions map lock.
#[derive(Default)]
struct SessionSlot {
    session: OnceLock<Arc<FleXPath>>,
    /// How long the store open took for this slot (set just before
    /// `session`; zero for injected in-memory sessions). With lazy opens
    /// this measures header + meta validation, not full decode.
    open: OnceLock<Duration>,
    loading: Mutex<()>,
}

/// One loaded session's vitals, reported per catalog document in
/// `/version`.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Catalog document name.
    pub name: String,
    /// Store open duration for this slot (zero for injected sessions).
    pub open: Duration,
    /// Whether the session is lazily backed by a store file.
    pub lazy: bool,
    /// Whether the backing bytes are memory-mapped (false when owned or
    /// when the session is not store-backed).
    pub mapped: bool,
    /// Which parts have been decoded so far.
    pub residency: SourceResidency,
}

/// The catalog plus the session cache. One per server, shared by every
/// worker behind an `Arc`.
pub struct ServerState {
    catalog: Catalog,
    sessions: RwLock<BTreeMap<String, Arc<SessionSlot>>>,
    /// Anchor for `/healthz` / `/version` uptime reporting. A monotonic
    /// `Instant` (never wall-clock — `SystemTime::now` is banned
    /// workspace-wide) captured when the state was created.
    started: Instant,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // FleXPath sessions are large and not Debug; show names only.
        f.debug_struct("ServerState")
            .field("catalog", &self.catalog)
            .field(
                "sessions",
                &read_lock(&self.sessions).keys().collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ServerState {
    /// State over the catalog at `dir` (created if absent).
    pub fn open(dir: &std::path::Path) -> Result<Self, ServeError> {
        Ok(ServerState {
            catalog: Catalog::open(dir)?,
            sessions: RwLock::new(BTreeMap::new()),
            started: Instant::now(),
        })
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Time since this state (≈ the server process) was created.
    pub fn uptime(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Injects an already-built session under `name`, bypassing the
    /// catalog (tests and the load benchmark index in memory instead of
    /// round-tripping through disk).
    pub fn insert_session(&self, name: &str, flex: FleXPath) {
        let slot = Arc::new(SessionSlot::default());
        let _ = slot.open.set(Duration::ZERO);
        let _ = slot.session.set(Arc::new(flex));
        write_lock(&self.sessions).insert(name.to_string(), slot);
    }

    /// Number of loaded sessions (for `/healthz`). Slots still mid-load
    /// don't count.
    pub fn session_count(&self) -> usize {
        read_lock(&self.sessions)
            .values()
            .filter(|slot| slot.session.get().is_some())
            .count()
    }

    /// The session for document `name`, loading and caching it from the
    /// store on first use. Concurrent first requests for the same
    /// document load it once (serialized on that document's slot); cache
    /// hits for *other* documents proceed without waiting — the map's
    /// write lock is only held for the cheap slot insertion, never across
    /// the decode.
    pub fn session(&self, name: &str) -> Result<Arc<FleXPath>, ServeError> {
        if let Some(slot) = read_lock(&self.sessions).get(name) {
            if let Some(s) = slot.session.get() {
                metrics::global().add(Counter::ServeSessionsCacheHits, 1);
                return Ok(s.clone());
            }
        }
        let slot = write_lock(&self.sessions)
            .entry(name.to_string())
            .or_default()
            .clone();
        let _loading = lock(&slot.loading);
        if let Some(s) = slot.session.get() {
            metrics::global().add(Counter::ServeSessionsCacheHits, 1);
            return Ok(s.clone());
        }
        let started = Instant::now();
        // Lazy open: header + meta are validated now (O(ms) even for a
        // multi-GB store); document, statistics, and index sections decode
        // on first touch by a query. Corruption in an untouched section
        // therefore surfaces as a typed per-request `ServeError::Session`,
        // not an open failure here.
        // lint:allow(lock-order): holding the per-slot `loading` mutex
        // across the cold open is the point — it is dogpile protection so
        // concurrent requests for one store decode it once; the sessions
        // map lock is NOT held here, and other slots proceed unblocked.
        let store = match self.catalog.open_lazy(name) {
            Ok(store) => store,
            Err(e) => {
                // Failures are not cached: drop the empty slot (if it is
                // still ours) so a later request retries the load — e.g.
                // after the operator re-indexes a missing document.
                let mut sessions = write_lock(&self.sessions);
                if let Some(cur) = sessions.get(name) {
                    if Arc::ptr_eq(cur, &slot) && cur.session.get().is_none() {
                        sessions.remove(name);
                    }
                }
                return Err(e.into());
            }
        };
        let open = started.elapsed();
        let flex = Arc::new(FleXPath::from_lazy_store(store));
        let _ = slot.open.set(open);
        let _ = slot.session.set(flex.clone());
        metrics::global().add(Counter::ServeSessionsLoaded, 1);
        metrics::global().observe_duration(Timer::ServeSessionsLoad, open);
        Ok(flex)
    }

    /// Vitals for every loaded session, sorted by document name — the
    /// data behind `/version`'s per-catalog session listing. Slots still
    /// mid-load are skipped.
    pub fn sessions_info(&self) -> Vec<SessionInfo> {
        read_lock(&self.sessions)
            .iter()
            .filter_map(|(name, slot)| {
                let flex = slot.session.get()?;
                Some(SessionInfo {
                    name: name.clone(),
                    open: slot.open.get().copied().unwrap_or(Duration::ZERO),
                    lazy: flex.lazy_store().is_some(),
                    mapped: flex.lazy_store().is_some_and(|s| s.is_mapped()),
                    residency: flex.residency(),
                })
            })
            .collect()
    }
}

// Session-cache state is an insert-only map of immutable Arcs; a panic
// while holding a lock cannot corrupt it, so poison is ignored.
fn read_lock<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockReadGuard<'a, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockWriteGuard<'a, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath::StoreBuilder;
    use flexpath_reference::ScratchDir;

    #[test]
    fn sessions_load_once_and_are_shared() {
        let dir = ScratchDir::new("serve-state-shared");
        let state = ServerState::open(dir.path()).unwrap();
        let flex = FleXPath::from_xml("<a><b>gold coin</b></a>").unwrap();
        let ctx = flex.context();
        state
            .catalog()
            .save(&StoreBuilder::from_parts(
                "doc",
                ctx.doc(),
                ctx.stats(),
                ctx.index(),
            ))
            .unwrap();

        let s1 = state.session("doc").unwrap();
        let s2 = state.session("doc").unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "same Arc served twice");
        assert_eq!(state.session_count(), 1);
        assert!(matches!(
            state.session("missing"),
            Err(ServeError::Store(
                flexpath::StoreError::DocumentNotFound { .. }
            ))
        ));
    }

    #[test]
    fn failed_loads_are_not_cached() {
        let dir = ScratchDir::new("serve-state-retry");
        let state = ServerState::open(dir.path()).unwrap();
        assert!(state.session("doc").is_err());
        assert_eq!(state.session_count(), 0, "failure left no cached slot");
        // The operator indexes the document; the next request must retry
        // the load instead of finding a stale empty slot.
        let flex = FleXPath::from_xml("<a><b>silver coin</b></a>").unwrap();
        let ctx = flex.context();
        state
            .catalog()
            .save(&StoreBuilder::from_parts(
                "doc",
                ctx.doc(),
                ctx.stats(),
                ctx.index(),
            ))
            .unwrap();
        assert!(state.session("doc").is_ok());
        assert_eq!(state.session_count(), 1);
    }

    #[test]
    fn catalog_sessions_open_lazily_with_recorded_open_time() {
        let dir = ScratchDir::new("serve-state-lazy");
        let state = ServerState::open(dir.path()).unwrap();
        let flex = FleXPath::from_xml("<a><b>gold coin</b></a>").unwrap();
        let ctx = flex.context();
        state
            .catalog()
            .save(&StoreBuilder::from_parts(
                "doc",
                ctx.doc(),
                ctx.stats(),
                ctx.index(),
            ))
            .unwrap();

        let s = state.session("doc").unwrap();
        let info = state.sessions_info();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].name, "doc");
        assert!(info[0].lazy, "catalog sessions are lazily backed");
        assert!(
            !state.sessions_info()[0].residency.document,
            "nothing decoded before the first query"
        );

        // A query forces the structural sections resident; /version's
        // residency report tracks it.
        let results = s.query("//b").unwrap().top(1).execute().unwrap();
        assert_eq!(results.hits.len(), 1);
        assert!(state.sessions_info()[0].residency.document);

        // Injected sessions report as eager with a zero open time.
        state.insert_session("mem", FleXPath::from_xml("<a>x</a>").unwrap());
        let info = state.sessions_info();
        assert_eq!(info.len(), 2);
        assert!(!info[1].lazy);
        assert_eq!(info[1].open, Duration::ZERO);
        assert!(info[1].residency.index, "owned sessions are fully resident");
    }

    #[test]
    fn injected_sessions_bypass_the_catalog() {
        let dir = ScratchDir::new("serve-state-inject");
        let state = ServerState::open(dir.path()).unwrap();
        state.insert_session("mem", FleXPath::from_xml("<a>x</a>").unwrap());
        assert!(state.session("mem").is_ok());
    }
}
