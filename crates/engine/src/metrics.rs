//! Dependency-free observability: a process-wide metrics registry and
//! per-query hierarchical trace spans.
//!
//! The paper's evaluation (Section 6) reasons about per-algorithm *work* —
//! evaluations, intermediate answers, pruning — and tree-pattern surveys
//! compare algorithms on materialized-intermediate-result counts. This
//! module makes those quantities readable off any run, two ways:
//!
//! * [`MetricsRegistry`] — process-wide counters and log₂-bucketed duration
//!   histograms, shared by every query in the process (the [`global`]
//!   registry is a `static`). The names form a closed table: one [`Counter`]
//!   or [`Timer`] variant each, so a misspelled name does not build. Cheap
//!   enough for hot paths: a count is one relaxed `fetch_add`.
//! * [`QueryTrace`] — a per-query tree of timed [`TraceSpan`]s built by a
//!   [`Tracer`], carried on `TopKResult` when the caller opts in. Each span
//!   holds a duration plus named counters.
//!
//! The engine counts; it does not choose a wire format. A snapshot's JSON
//! and Prometheus text and a trace's JSON are rendered by `flexpath-serve`
//! (`json::JsonBuf`, `routes::render_prometheus`). Only the trace's
//! indented text ([`QueryTrace::render_text`]) stays here, for EXPLAIN
//! ANALYZE.
//!
//! ## Determinism of counters
//!
//! Trace *counters* double as a regression tripwire for the determinism
//! contract: a query's work is a function of the document, the query and
//! its limits, so its counters are byte-identical from run to run, however
//! many other queries share the session. Quantities that legitimately vary
//! with what those other queries did — cache hit/miss splits (two racing
//! threads may both miss the same key) and postings scanned through that
//! cache — are namespaced under the [`ND_PREFIX`] (`nd.`) and excluded,
//! together with all wall-clock durations, from
//! [`QueryTrace::counter_fingerprint`]. A fingerprint comparison across
//! runs therefore checks exactly the deterministic contract, nothing
//! weaker and nothing flaky.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Key prefix for counters that legitimately vary with concurrent queries
/// on the same session (cache races). Excluded from
/// [`QueryTrace::counter_fingerprint`].
pub const ND_PREFIX: &str = "nd.";

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Declares a closed metric enum and its name table from one list, so a
/// variant and its registry name cannot drift apart.
macro_rules! metric_table {
    ($(#[$doc:meta])* $kind:ident { $($variant:ident => $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $kind {
            $(#[doc = concat!("`", $name, "`")] $variant,)*
        }

        impl $kind {
            /// Registry names, indexed by discriminant.
            pub const NAMES: &'static [&'static str] = &[$($name,)*];
        }
    };
}

metric_table! {
    /// The process-wide counters (`engine.*` variants drop the prefix,
    /// `serve.*` ones keep it). A name outside the table does not build:
    ///
    /// ```compile_fail
    /// flexpath_engine::metrics::global().add("engine.query.count", 1);
    /// ```
    Counter {
        ExecEvaluations => "engine.exec.evaluations",
        ExecRoots => "engine.exec.roots",
        ExecCandidates => "engine.exec.candidates",
        ExecAnswers => "engine.exec.answers",
        ExecSaturated => "engine.exec.saturated",
        JoinCalls => "engine.join.calls",
        JoinPairs => "engine.join.pairs",
        JoinSkipped => "engine.join.skipped",
        QueryCount => "engine.query.count",
        QueryDpo => "engine.query.dpo",
        QuerySso => "engine.query.sso",
        QueryHybrid => "engine.query.hybrid",
        StoreOpens => "engine.store.opens",
        StoreOpenErrors => "engine.store.open_errors",
        StoreLazyDecodes => "engine.store.lazy_decodes",
        StoreLazyDecodeErrors => "engine.store.lazy_decode_errors",
        StoreBytesRead => "engine.store.bytes_read",
        StoreSaves => "engine.store.saves",
        StoreBytesWritten => "engine.store.bytes_written",
        ServeRequests => "serve.requests",
        ServeResponses2xx => "serve.responses.2xx",
        ServeResponses4xx => "serve.responses.4xx",
        ServeResponses429 => "serve.responses.429",
        ServeResponses503 => "serve.responses.503",
        ServeResponses5xx => "serve.responses.5xx",
        ServeQueryComplete => "serve.query.complete",
        ServeQueryPartial => "serve.query.partial",
        ServeShedAtDoor => "serve.shed.at_door",
        ServeShedQueueFull => "serve.shed.queue_full",
        ServeShedTimeout => "serve.shed.timeout",
        ServeShedDraining => "serve.shed.draining",
        ServeConnsAccepted => "serve.conns.accepted",
        ServeDrainDeadlineFired => "serve.drain.deadline_fired",
        ServeHttpErrors => "serve.http.errors",
        ServeSessionsCacheHits => "serve.sessions.cache_hits",
        ServeSessionsLoaded => "serve.sessions.loaded",
        ServeDebugRecorded => "serve.debug.recorded",
        ServeDebugSlowRecorded => "serve.debug.slow_recorded",
        ServeDebugSlowlogErrors => "serve.debug.slowlog_errors",
    }
}

metric_table! {
    /// The process-wide duration histograms (variants named as in [`Counter`]).
    Timer {
        QueryDuration => "engine.query_duration",
        StoreOpen => "engine.store.open",
        StoreLazyDecode => "engine.store.lazy_decode",
        StoreSave => "engine.store.save",
        ServeQueryDuration => "serve.query.duration",
        ServeSessionsLoad => "serve.sessions.load_duration",
    }
}

/// Number of log₂ histogram buckets: bucket `i` counts observations whose
/// microsecond value has bit-length `i` (i.e. `2^(i-1) ≤ v < 2^i`, with
/// bucket 0 holding zeros).
const HISTOGRAM_BUCKETS: usize = 40;

/// A log₂-bucketed histogram of durations, recorded in microseconds.
#[derive(Debug)]
struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    fn observe(&self, d: Duration) {
        let v = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| {
                        let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                        (upper, n)
                    })
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of one duration histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, in microseconds.
    pub sum_micros: u64,
    /// Non-empty buckets as `(inclusive upper bound in µs, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Process-wide counters and duration histograms: one slot per
/// [`Counter`] and per [`Timer`], indexed by the variant.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::NAMES.len()],
    timers: [Histogram; Timer::NAMES.len()],
}

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// The process-wide registry. Lives for the process lifetime; every query
/// in the process accumulates into it.
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

impl MetricsRegistry {
    const fn new() -> Self {
        MetricsRegistry {
            counters: [const { AtomicU64::new(0) }; Counter::NAMES.len()],
            timers: [const { Histogram::new() }; Timer::NAMES.len()],
        }
    }

    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records `d` into `timer`'s histogram.
    pub fn observe_duration(&self, timer: Timer, d: Duration) {
        self.timers[timer as usize].observe(d);
    }

    /// Point-in-time copy of every counter and histogram, zeros included.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::NAMES
                .iter()
                .zip(&self.counters)
                .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed)))
                .collect(),
            histograms: Timer::NAMES
                .iter()
                .zip(&self.timers)
                .map(|(name, h)| (name.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

// ---------------------------------------------------------------------------
// Per-query trace
// ---------------------------------------------------------------------------

/// One timed node of a [`QueryTrace`]: a name, a wall-clock duration, named
/// counters, and child spans in execution order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSpan {
    /// Span name (e.g. `"schedule"`, `"round[3] op=del_pred"`).
    pub name: String,
    /// Wall-clock time spent in this span (includes children).
    pub duration: Duration,
    /// Named event counters recorded while this span was current.
    pub counters: BTreeMap<String, u64>,
    /// Child spans, in the order the engine committed them.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// A fresh span with zero duration and no counters.
    pub fn new(name: impl Into<String>) -> Self {
        TraceSpan {
            name: name.into(),
            ..TraceSpan::default()
        }
    }

    /// Adds `n` to this span's counter `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += n;
    }

    /// Depth-first search for the first span whose name equals `name`
    /// (this span included).
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Sum of counter `key` over this span and all descendants.
    pub fn total(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
            + self.children.iter().map(|c| c.total(key)).sum::<u64>()
    }

    fn render_text_into(&self, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{} [{:.3} ms]",
            self.name,
            self.duration.as_secs_f64() * 1e3
        ));
        for (k, v) in &self.counters {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for c in &self.children {
            c.render_text_into(depth + 1, out);
        }
    }

    fn fingerprint_into(&self, path: &str, out: &mut String) {
        let here = if path.is_empty() {
            self.name.clone()
        } else {
            format!("{path}>{}", self.name)
        };
        out.push_str(&here);
        for (k, v) in &self.counters {
            if !k.starts_with(ND_PREFIX) {
                out.push_str(&format!(" {k}={v}"));
            }
        }
        out.push('\n');
        for c in &self.children {
            c.fingerprint_into(&here, out);
        }
    }
}

/// The full trace of one query execution: a tree of [`TraceSpan`]s rooted
/// at the algorithm's top-level span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// Top-level span covering the whole execution.
    pub root: TraceSpan,
}

impl QueryTrace {
    /// Renders the span tree as indented text with durations and counters.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.root.render_text_into(0, &mut out);
        out
    }

    /// Deterministic digest of the trace: span tree shape plus every
    /// counter, *excluding* wall-clock durations and counters under
    /// [`ND_PREFIX`]. Byte-identical across runs of the same query on the
    /// same document.
    pub fn counter_fingerprint(&self) -> String {
        let mut out = String::new();
        self.root.fingerprint_into("", &mut out);
        out
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        self.root.find(name)
    }

    /// Sum of counter `key` over the whole tree.
    pub fn total(&self, key: &str) -> u64 {
        self.root.total(key)
    }
}

/// Builder for a [`QueryTrace`]. A disabled tracer (the default for
/// untraced queries) makes every call a no-op, so instrumentation costs
/// nothing unless the caller opted in.
///
/// All spans are opened and closed on the thread running the query. A
/// stage measured into a plain [`TraceSpan`] value (a DPO round) is
/// [`attach`ed](Tracer::attach) when it commits.
#[derive(Debug)]
pub struct Tracer {
    /// Open spans, root first. Empty means tracing is disabled.
    frames: Vec<Frame>,
}

#[derive(Debug)]
struct Frame {
    span: TraceSpan,
    started: Instant,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { frames: Vec::new() }
    }

    /// A tracer recording into a root span named `root`.
    pub fn enabled(root: &str) -> Self {
        Tracer {
            frames: vec![Frame {
                span: TraceSpan::new(root),
                // lint:allow(determinism): span durations are display-only;
                // fingerprint() skips duration fields.
                started: Instant::now(),
            }],
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Opens a child span of the current span.
    pub fn begin(&mut self, name: &str) {
        if self.is_enabled() {
            self.frames.push(Frame {
                span: TraceSpan::new(name),
                // lint:allow(determinism): span durations are display-only;
                // fingerprint() skips duration fields.
                started: Instant::now(),
            });
        }
    }

    /// Closes the current span, attaching it to its parent. Closing the
    /// root is a no-op ([`finish`](Tracer::finish) closes it).
    pub fn end(&mut self) {
        if self.frames.len() > 1 {
            if let Some(mut frame) = self.frames.pop() {
                frame.span.duration = frame.started.elapsed();
                if let Some(parent) = self.frames.last_mut() {
                    parent.span.children.push(frame.span);
                }
            }
        }
    }

    /// Adds `n` to counter `key` on the current span.
    pub fn add(&mut self, key: &str, n: u64) {
        if let Some(frame) = self.frames.last_mut() {
            frame.span.add(key, n);
        }
    }

    /// Adds `n` to counter `key` on the *root* span (whole-query totals).
    pub fn add_root(&mut self, key: &str, n: u64) {
        if let Some(frame) = self.frames.first_mut() {
            frame.span.add(key, n);
        }
    }

    /// Attaches a prebuilt span (e.g. a committed DPO round) as a child of
    /// the current span.
    pub fn attach(&mut self, span: TraceSpan) {
        if let Some(frame) = self.frames.last_mut() {
            frame.span.children.push(span);
        }
    }

    /// Records the first governor trip observed by this query: counters
    /// `governor.trip.site.<site>` and `governor.trip.reason.<reason>` on
    /// the root span. Later calls are ignored (first observer wins, mirroring
    /// the budget's own latch).
    pub fn record_trip(&mut self, site: &str, reason: &str) {
        if let Some(frame) = self.frames.first_mut() {
            let already = frame
                .span
                .counters
                .keys()
                .any(|k| k.starts_with("governor.trip.site."));
            if !already {
                frame.span.add(&format!("governor.trip.site.{site}"), 1);
                frame.span.add(&format!("governor.trip.reason.{reason}"), 1);
            }
        }
    }

    /// Closes every open span and returns the finished trace (`None` when
    /// the tracer was disabled).
    pub fn finish(mut self) -> Option<QueryTrace> {
        while self.frames.len() > 1 {
            self.end();
        }
        self.frames.pop().map(|mut frame| {
            frame.span.duration = frame.started.elapsed();
            QueryTrace { root: frame.span }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::JoinCalls, 2);
        reg.add(Counter::JoinCalls, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("engine.join.calls"), Some(&5));
        assert_eq!(snap.counters.get("engine.join.pairs"), Some(&0));
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let reg = MetricsRegistry::new();
        for us in [0, 1, 3, 1000] {
            reg.observe_duration(Timer::StoreSave, Duration::from_micros(us));
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["engine.store.save"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum_micros, 1004);
        // 0 → bucket 0 (upper 0); 1 → bucket 1 (upper 1); 3 → bucket 2
        // (upper 3); 1000 → bucket 10 (upper 1023).
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 1), (1023, 1)]);
        let idle = &snap.histograms["engine.store.open"];
        assert_eq!((idle.count, idle.buckets.len()), (0, 0));
    }

    #[test]
    fn names_are_unique_namespaced_and_in_charset() {
        let all: Vec<&str> = Counter::NAMES.iter().chain(Timer::NAMES).copied().collect();
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicate name in {all:?}");
        for name in all {
            assert!(
                name.starts_with("engine.") || name.starts_with("serve."),
                "{name}: outside engine.* / serve.*"
            );
            assert!(
                name.bytes()
                    .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'.' | b'_')),
                "{name}: outside [a-z0-9._]"
            );
        }
    }

    #[test]
    fn prometheus_names_never_collide() {
        // `/metrics` maps `.` to `_`, and a histogram also exposes
        // `<name>_bucket`, `<name>_sum` and `<name>_count`.
        let prom = |name: &str| name.replace('.', "_");
        let mut taken = std::collections::BTreeSet::new();
        for name in Counter::NAMES {
            assert!(taken.insert(prom(name)), "{name} collides");
        }
        for name in Timer::NAMES {
            let base = prom(name);
            for series in ["", "_bucket", "_sum", "_count"] {
                assert!(
                    taken.insert(format!("{base}{series}")),
                    "{name}{series} collides"
                );
            }
        }
    }

    #[test]
    fn snapshot_lists_exactly_the_tables() {
        let snap = global().snapshot();
        let counters: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        let timers: Vec<&str> = snap.histograms.keys().map(String::as_str).collect();
        assert_eq!(counters, sorted(Counter::NAMES));
        assert_eq!(timers, sorted(Timer::NAMES));
        // Listed before anything counts it: nothing in this crate sheds.
        assert!(snap.counters.contains_key("serve.shed.at_door"));
        assert_eq!(
            Counter::NAMES[Counter::ServeShedAtDoor as usize],
            "serve.shed.at_door"
        );
        assert_eq!(
            Timer::NAMES[Timer::QueryDuration as usize],
            "engine.query_duration"
        );
    }

    fn sorted<'a>(names: &[&'a str]) -> Vec<&'a str> {
        let mut v = names.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn tracer_builds_nested_spans() {
        let mut t = Tracer::enabled("query");
        t.add("k", 1);
        t.begin("schedule");
        t.add("schedule.steps", 7);
        t.end();
        t.begin("round[0]");
        t.attach(TraceSpan::new("eval"));
        t.end();
        let trace = t.finish().unwrap();
        assert_eq!(trace.root.name, "query");
        assert_eq!(trace.root.children.len(), 2);
        assert_eq!(
            trace
                .find("schedule")
                .unwrap()
                .counters
                .get("schedule.steps"),
            Some(&7)
        );
        assert!(trace.find("eval").is_some());
        assert_eq!(trace.total("k"), 1);
        assert!(trace.render_text().contains("schedule.steps=7"));
    }

    #[test]
    fn disabled_tracer_is_a_noop() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.begin("x");
        t.add("k", 1);
        t.end();
        assert!(t.finish().is_none());
    }

    #[test]
    fn end_never_pops_the_root() {
        let mut t = Tracer::enabled("query");
        t.end();
        t.end();
        t.add("still.here", 1);
        let trace = t.finish().unwrap();
        assert_eq!(trace.root.counters.get("still.here"), Some(&1));
    }

    #[test]
    fn fingerprint_excludes_durations_and_nd_counters() {
        let mut a = Tracer::enabled("query");
        a.add("det", 5);
        a.add("nd.cache.hits", 100);
        a.begin("pass");
        a.add("pruned", 2);
        a.end();
        let fa = a.finish().unwrap().counter_fingerprint();

        let mut b = Tracer::enabled("query");
        b.add("det", 5);
        b.add("nd.cache.hits", 7); // different nd value, same fingerprint
        b.begin("pass");
        std::thread::sleep(Duration::from_millis(2)); // different duration
        b.add("pruned", 2);
        b.end();
        let fb = b.finish().unwrap().counter_fingerprint();

        assert_eq!(fa, fb);
        assert!(fa.contains("det=5"));
        assert!(!fa.contains("nd.cache.hits"));
        assert!(fa.contains("query>pass pruned=2"));
    }

    #[test]
    fn record_trip_latches_first_site() {
        let mut t = Tracer::enabled("query");
        t.record_trip("dpo_round", "deadline");
        t.record_trip("ft_eval", "deadline");
        let trace = t.finish().unwrap();
        assert_eq!(
            trace.root.counters.get("governor.trip.site.dpo_round"),
            Some(&1)
        );
        assert_eq!(
            trace.root.counters.get("governor.trip.reason.deadline"),
            Some(&1)
        );
        assert!(!trace
            .root
            .counters
            .contains_key("governor.trip.site.ft_eval"));
    }
}
