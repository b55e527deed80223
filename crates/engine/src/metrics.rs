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
//!   registry lives for the process lifetime). Cheap enough for hot paths:
//!   a pre-interned counter handle is one relaxed `fetch_add`.
//! * [`QueryTrace`] — a per-query tree of timed [`TraceSpan`]s built by a
//!   [`Tracer`], carried on `TopKResult` when the caller opts in. Each span
//!   holds a duration plus named counters.
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
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Key prefix for counters that legitimately vary with concurrent queries
/// on the same session (cache races). Excluded from
/// [`QueryTrace::counter_fingerprint`].
pub const ND_PREFIX: &str = "nd.";

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Number of log₂ histogram buckets: bucket `i` counts observations whose
/// microsecond value has bit-length `i` (i.e. `2^(i-1) ≤ v < 2^i`, with
/// bucket 0 holding zeros).
const HISTOGRAM_BUCKETS: usize = 40;

/// A log₂-bucketed histogram of durations, recorded in microseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn observe(&self, d: Duration) {
        self.observe_value(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one raw integer observation. Durations land here as
    /// microseconds; dimensionless series (e.g. `engine.skew.*` millibit
    /// ratios) use the same log₂ bucketing over their own unit.
    pub fn observe_value(&self, v: u64) {
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

/// Point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, in microseconds.
    pub sum_micros: u64,
    /// Non-empty buckets as `(inclusive upper bound in µs, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Process-wide registry of named counters and duration histograms.
///
/// Counter handles are interned [`Arc<AtomicU64>`]s: resolve once with
/// [`MetricsRegistry::counter`], then bump with a relaxed `fetch_add` in
/// hot loops. The registry never forgets a name; its memory is bounded by
/// the (static) set of instrumentation sites.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// The process-wide registry. Lives for the process lifetime; every query
/// in the process accumulates into it.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

impl MetricsRegistry {
    /// A fresh, empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    // Metric maps hold only monotone atomics, so a panic while holding the
    // write lock cannot leave them logically inconsistent.
    fn read<'a, T>(lock: &'a RwLock<T>) -> std::sync::RwLockReadGuard<'a, T> {
        lock.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write<'a, T>(lock: &'a RwLock<T>) -> std::sync::RwLockWriteGuard<'a, T> {
        lock.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the interned counter named `name`, creating it at zero.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = Self::read(&self.counters).get(name) {
            return c.clone();
        }
        Self::write(&self.counters)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone()
    }

    /// Adds `n` to the counter named `name` (interning it if new).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the interned histogram named `name`, creating it empty.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = Self::read(&self.histograms).get(name) {
            return h.clone();
        }
        Self::write(&self.histograms)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Records `d` into the histogram named `name`.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.histogram(name).observe(d);
    }

    /// Records a raw integer observation into the histogram named `name`.
    pub fn observe_value(&self, name: &str, v: u64) {
        self.histogram(name).observe_value(v);
    }

    /// Records one estimate-vs-actual observation for `algo` (e.g. `"dpo"`)
    /// under the `engine.skew.*` namespace: the absolute log₂-ratio skew in
    /// millibits goes into a histogram, and the sign of the divergence bumps
    /// an `over` / `under` / `exact` counter. See [`skew_millibits`].
    pub fn record_skew(&self, algo: &str, estimated: f64, observed: u64) {
        let mb = skew_millibits(estimated, observed);
        self.observe_value(&format!("engine.skew.{algo}.millibits"), mb.unsigned_abs());
        let sign = match mb.cmp(&0) {
            std::cmp::Ordering::Greater => "over",
            std::cmp::Ordering::Less => "under",
            std::cmp::Ordering::Equal => "exact",
        };
        self.add(&format!("engine.skew.{algo}.{sign}"), 1);
    }

    /// Point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Self::read(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: Self::read(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
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

impl MetricsSnapshot {
    /// Renders the snapshot as aligned `name value` lines, histograms as
    /// `name count/mean-µs` plus their non-empty buckets.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let mean = h.sum_micros.checked_div(h.count).unwrap_or(0);
            out.push_str(&format!(
                "{name} count={} sum_us={} mean_us={mean}\n",
                h.count, h.sum_micros
            ));
            for (upper, n) in &h.buckets {
                out.push_str(&format!("  le_us={upper} {n}\n"));
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object (hand-rolled; the workspace
    /// deliberately takes no serialization dependency).
    ///
    /// Shape (snapshot schema 2 — the bump is made here and nowhere else):
    /// the top level gains `"schema"` and `"bucket_scheme"` keys, and each
    /// histogram carries its bucket *boundaries* explicitly as
    /// `[upper_inclusive, count]` pairs plus a `"mean"` convenience field,
    /// so consumers never hardcode the log₂ bucketing. Schema 1 readers
    /// (which only looked up `counters` / `histograms` / `count` / `sum_us`
    /// / `buckets`) parse schema 2 unchanged.
    pub fn render_json(&self) -> String {
        let mut out =
            String::from("{\"schema\":2,\"bucket_scheme\":\"log2-upper-inclusive\",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(name)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mean = h.sum_micros.checked_div(h.count).unwrap_or(0);
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum_us\":{},\"mean\":{mean},\"buckets\":[",
                json_string(name),
                h.count,
                h.sum_micros
            ));
            for (j, (upper, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{upper},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters as `# TYPE <name> counter` plus one sample
    /// line, histograms as cumulative `<name>_bucket{le="..."}` series
    /// ending in `le="+Inf"`, followed by `<name>_sum` and `<name>_count`.
    /// Names are passed through [`prometheus_name`]; histogram units stay
    /// whatever the series records (microseconds for durations, millibits
    /// for `engine.skew.*`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (upper, count) in &h.buckets {
                cumulative += count;
                out.push_str(&format!("{n}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
            // A racing observe() can bump `count` between bucket loads; keep
            // the +Inf bucket monotone per the exposition-format contract.
            let total = cumulative.max(h.count);
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {total}\n"));
            out.push_str(&format!("{n}_sum {}\n{n}_count {total}\n", h.sum_micros));
        }
        out
    }
}

/// Sanitizes `name` for Prometheus exposition: characters outside
/// `[a-zA-Z0-9_:]` map to `_`, and a leading digit gets a `_` prefix. The
/// registry's dotted lowercase naming convention (enforced by
/// `flexpath-lint`'s metrics-name rule) keeps this mapping injective in
/// practice — distinct registry names never collide after sanitization.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if out.is_empty() && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Signed log₂ ratio of `estimated` to `observed` cardinality, in
/// *millibits* (thousandths of a doubling): positive when the estimator
/// overshot, negative when it undershot, `0` on exact agreement. Both sides
/// are shifted by `+1` so empty results and zero estimates stay finite.
/// This is the aggregation unit for the `engine.skew.*` histograms and the
/// per-op skew column in EXPLAIN ANALYZE.
pub fn skew_millibits(estimated: f64, observed: u64) -> i64 {
    let est = estimated.max(0.0) + 1.0;
    let obs = observed as f64 + 1.0;
    ((est / obs).log2() * 1000.0).round() as i64
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

    fn render_json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"name\":{},\"duration_us\":{},\"counters\":{{",
            json_string(&self.name),
            self.duration.as_micros()
        ));
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(k)));
        }
        out.push_str("},\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.render_json_into(out);
        }
        out.push_str("]}");
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

    /// Renders the span tree as JSON (hand-rolled, no dependencies).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.root.render_json_into(&mut out);
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

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

/// Quotes and escapes `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.add("engine.join.calls", 2);
        let handle = reg.counter("engine.join.calls");
        handle.fetch_add(3, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("engine.join.calls"), Some(&5));
        assert!(snap.render_text().contains("engine.join.calls 5"));
        assert!(snap.render_json().contains("\"engine.join.calls\":5"));
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let reg = MetricsRegistry::new();
        reg.observe_duration("q", Duration::from_micros(0));
        reg.observe_duration("q", Duration::from_micros(1));
        reg.observe_duration("q", Duration::from_micros(3));
        reg.observe_duration("q", Duration::from_micros(1000));
        let snap = reg.snapshot();
        let h = snap.histograms.get("q").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum_micros, 1004);
        // 0 → bucket 0 (upper 0); 1 → bucket 1 (upper 1); 3 → bucket 2
        // (upper 3); 1000 → bucket 10 (upper 1023).
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 1), (1023, 1)]);
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
        assert!(trace.render_json().contains("\"schedule.steps\":7"));
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

    #[test]
    fn observe_value_shares_bucketing_with_durations() {
        let reg = MetricsRegistry::new();
        reg.observe_value("engine.skew.dpo.millibits", 0);
        reg.observe_value("engine.skew.dpo.millibits", 3);
        reg.observe_value("engine.skew.dpo.millibits", 1000);
        let snap = reg.snapshot();
        let h = snap.histograms.get("engine.skew.dpo.millibits").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_micros, 1003);
        assert_eq!(h.buckets, vec![(0, 1), (3, 1), (1023, 1)]);
    }

    #[test]
    fn skew_millibits_sign_and_magnitude() {
        assert_eq!(skew_millibits(0.0, 0), 0); // 1/1
        assert_eq!(skew_millibits(7.0, 7), 0); // exact agreement
        assert_eq!(skew_millibits(3.0, 1), 1000); // 4/2 = one doubling over
        assert_eq!(skew_millibits(1.0, 3), -1000); // one doubling under
        assert_eq!(skew_millibits(1023.0, 0), 10_000); // 1024/1
        assert!(skew_millibits(-5.0, 0) == 0); // negative estimates clamp
    }

    #[test]
    fn record_skew_feeds_histogram_and_sign_counters() {
        let reg = MetricsRegistry::new();
        reg.record_skew("sso", 3.0, 1);
        reg.record_skew("sso", 1.0, 3);
        reg.record_skew("sso", 4.0, 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("engine.skew.sso.over"), Some(&1));
        assert_eq!(snap.counters.get("engine.skew.sso.under"), Some(&1));
        assert_eq!(snap.counters.get("engine.skew.sso.exact"), Some(&1));
        let h = snap.histograms.get("engine.skew.sso.millibits").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_micros, 2000); // |±1000| twice, 0 once
    }

    #[test]
    fn prometheus_name_sanitizes_outside_charset() {
        assert_eq!(prometheus_name("engine.query.count"), "engine_query_count");
        assert_eq!(
            prometheus_name("engine.shard[3].items"),
            "engine_shard_3__items"
        );
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name(""), "_");
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_typed() {
        let reg = MetricsRegistry::new();
        reg.add("engine.query.count", 3);
        reg.observe_duration("engine.query_duration", Duration::from_micros(1));
        reg.observe_duration("engine.query_duration", Duration::from_micros(3));
        reg.observe_duration("engine.query_duration", Duration::from_micros(3));
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE engine_query_count counter\n"));
        assert!(text.contains("engine_query_count 3\n"));
        assert!(text.contains("# TYPE engine_query_duration histogram\n"));
        // Bucket counts are cumulative: 1 obs ≤ 1µs, then 3 obs ≤ 3µs.
        assert!(text.contains("engine_query_duration_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("engine_query_duration_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("engine_query_duration_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("engine_query_duration_sum 7\n"));
        assert!(text.contains("engine_query_duration_count 3\n"));
    }

    #[test]
    fn json_snapshot_declares_schema_and_bucket_scheme() {
        let reg = MetricsRegistry::new();
        reg.observe_duration("q", Duration::from_micros(6));
        let json = reg.snapshot().render_json();
        assert!(json.starts_with("{\"schema\":2,"));
        assert!(json.contains("\"bucket_scheme\":\"log2-upper-inclusive\""));
        assert!(json.contains("\"buckets\":[[7,1]]"));
        assert!(json.contains("\"mean\":6"));
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
