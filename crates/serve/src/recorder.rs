//! Query flight recorder: the last N completed queries, in memory, plus a
//! threshold-gated slow-query log.
//!
//! Every `/query` and `/explain` request that reaches execution leaves one
//! [`QueryRecord`] behind — what ran, under which effective limits, how
//! long it took, how complete it finished, where the governor tripped and
//! a hash of the deterministic counter fingerprint. Records live in a
//! fixed-capacity, lock-striped ring ([`FlightRecorder`]) served by
//! `/debug/queries`; records at or above the slow threshold are additionally
//! kept in a separate ring (`/debug/slow`) and appended as one JSON line
//! each to the optional slow-query log file.
//!
//! ## Determinism
//!
//! The recorder is fed *after* the engine has committed the query trace,
//! on the request's own worker thread (the thread that drove the
//! algorithm). It only ever **reads** results — the record's fingerprint
//! hash is computed from the already-final
//! [`QueryTrace::counter_fingerprint`](flexpath::QueryTrace) — so enabling
//! it cannot perturb governor counters, span trees, or fingerprints, and
//! the determinism matrix in `tests/determinism.rs` holds with the
//! recorder on. Ring mutation itself is scheduling-dependent (whichever
//! request finishes first records first), which is why records carry their
//! own monotonic ids: readers sort by id, never by stripe order.

use crate::json::JsonBuf;
use flexpath::QueryLimits;
use flexpath_engine::metrics::{self, Counter};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of independent ring stripes. Records land in stripe
/// `id % STRIPES`, so concurrent recording threads contend on a mutex
/// 1/8th of the time they would on a single ring.
const STRIPES: usize = 8;

/// Longest query text kept in a record (the ring is a postmortem aid, not
/// an archive; a pathological 1 MB query must not pin 1 MB × capacity).
const MAX_QUERY_CHARS: usize = 512;

/// One completed query, as remembered by the [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Monotonic per-process record id (assigned by
    /// [`FlightRecorder::record`]; readers sort on it).
    pub id: u64,
    /// Which route produced the record: `"query"` or `"explain"`.
    pub endpoint: &'static str,
    /// Catalog document the query ran against.
    pub corpus: String,
    /// The query text (truncated to a sane length).
    pub query: String,
    /// Algorithm name (`dpo` / `sso` / `hybrid`).
    pub algorithm: String,
    /// Ranking scheme name.
    pub scheme: String,
    /// Requested K.
    pub k: u64,
    /// The *effective* limits the query executed under (after
    /// [`ServePolicy::clamp`](crate::ServePolicy::clamp)).
    pub limits: QueryLimits,
    /// Wall-clock execution time.
    pub duration: Duration,
    /// Whether the search ran to completion.
    pub complete: bool,
    /// Governor trip reason key (`deadline`, `answer_budget`, …) when the
    /// run was exhausted.
    pub exhaust_reason: Option<&'static str>,
    /// Governor trip site name, when the request was traced (the site is
    /// latched into the trace root; untraced runs record the reason only).
    pub trip_site: Option<String>,
    /// Answers returned to the client.
    pub answers: u64,
    /// FNV-1a hash of the deterministic counter fingerprint, when the
    /// request was traced. Two records of the same query on the same
    /// document must carry the same hash.
    pub fingerprint_hash: Option<u64>,
}

impl QueryRecord {
    /// Renders the record as one JSON object (the same shape is used by
    /// `/debug/queries`, `/debug/slow`, and the slow-log file lines).
    pub fn render_json(&self) -> String {
        let mut b = JsonBuf::new();
        b.raw("{");
        b.key("id");
        b.u64(self.id);
        b.key("endpoint");
        b.string(self.endpoint);
        b.key("corpus");
        b.string(&self.corpus);
        b.key("query");
        b.string(&self.query);
        b.key("algorithm");
        b.string(&self.algorithm);
        b.key("scheme");
        b.string(&self.scheme);
        b.key("k");
        b.u64(self.k);
        b.key("limits");
        b.raw("{");
        if let Some(d) = self.limits.deadline {
            b.key("deadline_ms");
            b.u64(d.as_millis().min(u128::from(u64::MAX)) as u64);
        }
        if let Some(n) = self.limits.max_relaxations_enumerated {
            b.key("max_relaxations");
            b.u64(n as u64);
        }
        if let Some(n) = self.limits.max_candidate_answers {
            b.key("max_candidates");
            b.u64(n);
        }
        if let Some(n) = self.limits.max_ft_postings_scanned {
            b.key("max_postings");
            b.u64(n);
        }
        b.raw("}");
        b.key("duration_us");
        b.u64(self.duration.as_micros().min(u128::from(u64::MAX)) as u64);
        b.key("complete");
        b.bool(self.complete);
        if let Some(reason) = self.exhaust_reason {
            b.key("exhaust_reason");
            b.string(reason);
        }
        if let Some(site) = &self.trip_site {
            b.key("trip_site");
            b.string(site);
        }
        b.key("answers");
        b.u64(self.answers);
        if let Some(h) = self.fingerprint_hash {
            b.key("fingerprint_fnv1a");
            b.string(&format!("{h:016x}"));
        }
        b.raw("}");
        b.finish()
    }

    /// Truncates `query` to the recorder's per-record cap, on a char
    /// boundary.
    pub fn clip_query(query: &str) -> String {
        if query.len() <= MAX_QUERY_CHARS {
            return query.to_string();
        }
        let mut end = MAX_QUERY_CHARS;
        while !query.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &query[..end])
    }
}

/// FNV-1a (64-bit) over `bytes` — the recorder's fingerprint digest. Tiny,
/// dependency-free, and stable across platforms; collisions are acceptable
/// for a debugging aid.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fixed-capacity, lock-striped ring of completed-query records plus the
/// slow ring and optional slow-log sink. One per server process.
#[derive(Debug)]
pub struct FlightRecorder {
    stripes: Vec<Mutex<VecDeque<Arc<QueryRecord>>>>,
    /// Per-stripe capacity; total capacity is `stripe_cap * STRIPES` ≥ the
    /// requested capacity.
    stripe_cap: usize,
    slow: Mutex<VecDeque<Arc<QueryRecord>>>,
    slow_cap: usize,
    next_id: AtomicU64,
    slow_threshold: Duration,
    slow_log: Option<Mutex<File>>,
}

impl FlightRecorder {
    /// A recorder remembering up to `capacity` records (rounded up to a
    /// multiple of the stripe count), flagging queries at or above
    /// `slow_threshold` as slow.
    pub fn new(capacity: usize, slow_threshold: Duration) -> Self {
        let stripe_cap = capacity.div_ceil(STRIPES).max(1);
        FlightRecorder {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(VecDeque::with_capacity(stripe_cap)))
                .collect(),
            stripe_cap,
            slow: Mutex::new(VecDeque::new()),
            slow_cap: capacity.max(STRIPES),
            next_id: AtomicU64::new(0),
            slow_threshold,
            slow_log: None,
        }
    }

    /// Attaches a JSON-lines slow-log file (created/appended at `path`).
    /// Records at or above the slow threshold are written as one JSON
    /// object per line.
    pub fn with_slow_log(mut self, path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        self.slow_log = Some(Mutex::new(file));
        Ok(self)
    }

    /// The configured ring capacity (total across stripes).
    pub fn capacity(&self) -> usize {
        self.stripe_cap * STRIPES
    }

    /// The slow-query threshold.
    pub fn slow_threshold(&self) -> Duration {
        self.slow_threshold
    }

    /// Total records ever accepted (monotonic; survives ring eviction).
    pub fn recorded(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Accepts one completed-query record: assigns its id, stores it in
    /// its ring stripe (evicting the stripe's oldest record at capacity),
    /// and — when the query ran at or above the slow threshold — mirrors
    /// it into the slow ring and the slow-log file. Returns the id.
    pub fn record(&self, mut rec: QueryRecord) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        rec.id = id;
        let slow = rec.duration >= self.slow_threshold;
        let rec = Arc::new(rec);
        let reg = metrics::global();
        reg.add(Counter::ServeDebugRecorded, 1);
        {
            let mut stripe = lock(&self.stripes[(id % STRIPES as u64) as usize]);
            if stripe.len() >= self.stripe_cap {
                stripe.pop_front();
            }
            stripe.push_back(rec.clone());
        }
        if slow {
            reg.add(Counter::ServeDebugSlowRecorded, 1);
            {
                let mut ring = lock(&self.slow);
                if ring.len() >= self.slow_cap {
                    ring.pop_front();
                }
                ring.push_back(rec.clone());
            }
            if let Some(file) = &self.slow_log {
                let line = format!("{}\n", rec.render_json());
                // lint:allow(lock-order): the file mutex exists to keep
                // slow-log lines whole — serializing this single buffered
                // write_all is its purpose, and no other lock is held.
                if lock(file).write_all(line.as_bytes()).is_err() {
                    reg.add(Counter::ServeDebugSlowlogErrors, 1);
                }
            }
        }
        id
    }

    /// The most recent `n` records, newest first.
    pub fn recent(&self, n: usize) -> Vec<Arc<QueryRecord>> {
        let mut all: Vec<Arc<QueryRecord>> = Vec::new();
        for stripe in &self.stripes {
            all.extend(lock(stripe).iter().cloned());
        }
        all.sort_by_key(|rec| std::cmp::Reverse(rec.id));
        all.truncate(n);
        all
    }

    /// The most recent `n` slow records, newest first.
    pub fn slow_recent(&self, n: usize) -> Vec<Arc<QueryRecord>> {
        let ring = lock(&self.slow);
        ring.iter().rev().take(n).cloned().collect()
    }
}

// Ring stripes hold only finished Arc'd records; a panicking recorder
// thread cannot leave them logically inconsistent, so poison is ignored.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(duration_ms: u64) -> QueryRecord {
        QueryRecord {
            id: 0,
            endpoint: "query",
            corpus: "doc".into(),
            query: "//article".into(),
            algorithm: "hybrid".into(),
            scheme: "structure_first".into(),
            k: 10,
            limits: QueryLimits::default().with_deadline(Duration::from_secs(2)),
            duration: Duration::from_millis(duration_ms),
            complete: true,
            exhaust_reason: None,
            trip_site: None,
            answers: 10,
            fingerprint_hash: Some(0xdead_beef),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_orders_newest_first() {
        let r = FlightRecorder::new(16, Duration::from_secs(10));
        for _ in 0..40 {
            r.record(rec(1));
        }
        assert_eq!(r.recorded(), 40);
        let recent = r.recent(100);
        assert_eq!(recent.len(), r.capacity());
        // Newest first, strictly decreasing ids, and the newest id is 39.
        assert_eq!(recent[0].id, 39);
        for w in recent.windows(2) {
            assert!(w[0].id > w[1].id);
        }
        assert_eq!(r.recent(3).len(), 3);
    }

    #[test]
    fn slow_ring_only_holds_threshold_breakers() {
        let r = FlightRecorder::new(16, Duration::from_millis(100));
        r.record(rec(5));
        r.record(rec(100));
        r.record(rec(500));
        let slow = r.slow_recent(10);
        assert_eq!(slow.len(), 2, "threshold is inclusive");
        assert!(slow[0].duration >= slow[1].duration || slow[0].id > slow[1].id);
        assert_eq!(r.recent(10).len(), 3, "main ring sees everything");
    }

    #[test]
    fn slow_log_appends_one_json_line_per_slow_record() {
        let dir = flexpath_reference::ScratchDir::new("recorder-lines");
        let path = dir.path().join("slow.jsonl");
        let r = FlightRecorder::new(8, Duration::from_millis(50))
            .with_slow_log(&path)
            .unwrap();
        r.record(rec(10)); // fast: not logged
        r.record(rec(60));
        r.record(rec(70));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = crate::json::parse(line.as_bytes()).unwrap();
            assert_eq!(v.get("endpoint").and_then(|e| e.as_str()), Some("query"));
            assert_eq!(v.get("answers").and_then(|a| a.as_u64()), Some(10));
        }
    }

    #[test]
    fn record_json_is_parseable_and_complete() {
        let mut record = rec(3);
        record.exhaust_reason = Some("deadline");
        record.trip_site = Some("dpo_round".into());
        record.complete = false;
        let json = record.render_json();
        let v = crate::json::parse(json.as_bytes()).unwrap();
        assert_eq!(v.get("corpus").and_then(|c| c.as_str()), Some("doc"));
        assert_eq!(v.get("complete").and_then(|c| c.as_bool()), Some(false));
        assert_eq!(
            v.get("exhaust_reason").and_then(|c| c.as_str()),
            Some("deadline")
        );
        assert_eq!(
            v.get("trip_site").and_then(|c| c.as_str()),
            Some("dpo_round")
        );
        assert_eq!(v.get("answers").and_then(|a| a.as_u64()), Some(10));
        let limits = v.get("limits").unwrap();
        assert_eq!(
            limits.get("deadline_ms").and_then(|d| d.as_u64()),
            Some(2000)
        );
        assert_eq!(
            v.get("fingerprint_fnv1a").and_then(|f| f.as_str()),
            Some("00000000deadbeef")
        );
    }

    #[test]
    fn query_clipping_respects_char_boundaries() {
        let short = QueryRecord::clip_query("//a");
        assert_eq!(short, "//a");
        let long = "é".repeat(600);
        let clipped = QueryRecord::clip_query(&long);
        assert!(clipped.chars().count() <= MAX_QUERY_CHARS + 1);
        assert!(clipped.ends_with('…'));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Identical fingerprints hash identically (the /debug cross-thread
        // comparison this exists for).
        assert_eq!(fnv1a(b"root x=1\n"), fnv1a(b"root x=1\n"));
    }

    #[test]
    fn concurrent_recording_keeps_every_stripe_consistent() {
        let r = std::sync::Arc::new(FlightRecorder::new(64, Duration::from_secs(1)));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        r.record(rec(0));
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 200);
        let recent = r.recent(usize::MAX);
        assert_eq!(recent.len(), r.capacity());
        // Ids are unique even under contention.
        let mut ids: Vec<u64> = recent.iter().map(|x| x.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), r.capacity());
    }
}
