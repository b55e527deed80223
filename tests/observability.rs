//! Observability-layer acceptance: EXPLAIN ANALYZE renders the full span
//! tree for a relaxed XMark query (per-round operator, candidate / prune /
//! cache / governor-checkpoint counters), the trace JSON is well-formed,
//! the process-wide metrics registry accumulates across queries, and the
//! wire formats of a snapshot and a trace are pinned byte for byte.

use flexpath::{explain_profile, Algorithm, FleXPath, MetricsSnapshot, QueryTrace, TraceSpan};
use flexpath_engine::metrics::HistogramSnapshot;
use flexpath_reference::assert_prometheus_parses;
use flexpath_serve::json::{self, Json, JsonBuf};
use flexpath_serve::routes::render_prometheus;
use flexpath_xmark::{generate, XmarkConfig};
use std::sync::OnceLock;
use std::time::Duration;

fn session() -> &'static FleXPath {
    static SESSION: OnceLock<FleXPath> = OnceLock::new();
    SESSION.get_or_init(|| FleXPath::new(generate(&XmarkConfig::sized(2 * 1024 * 1024, 42))))
}

/// A query that *requires* relaxation to fill k, so the profile shows
/// relaxation rounds beyond round[0].
const RELAXED: &str =
    "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword]]";

#[test]
fn explain_profile_renders_rounds_counters_and_fingerprint() {
    let results = session()
        .query(RELAXED)
        .unwrap()
        .top(500)
        .algorithm(Algorithm::Dpo)
        .trace()
        .execute()
        .unwrap();
    let text = explain_profile(&results, RELAXED, 500);
    // Header and outcome.
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("completeness: complete"), "{text}");
    // Span tree: parse, schedule, and relaxation rounds with their operator.
    assert!(text.contains("parse ["), "{text}");
    assert!(text.contains("schedule ["), "{text}");
    assert!(text.contains("round[0] op=exact"), "{text}");
    assert!(
        text.contains("round[1] op="),
        "relaxation must have run: {text}"
    );
    // Per-round counters.
    assert!(text.contains("round.candidates="), "{text}");
    assert!(text.contains("round.duplicates_pruned="), "{text}");
    assert!(text.contains("round.admitted="), "{text}");
    // Cache delta (nd.* namespace) and governor checkpoint counters.
    assert!(text.contains("nd.cache.hits="), "{text}");
    assert!(text.contains("nd.cache.misses="), "{text}");
    assert!(text.contains("governor.checkpoint.dpo_round="), "{text}");
    assert!(
        text.contains("governor.checkpoint.candidate_loop="),
        "{text}"
    );
    // Deterministic fingerprint section, nd.* excluded from it.
    let fp = text
        .split("--- deterministic counter fingerprint ---")
        .nth(1)
        .expect("fingerprint section");
    // Counter keys are space-separated in fingerprint lines; no key may
    // come from the scheduling-dependent nd.* namespace.
    assert!(!fp.contains(" nd."), "fingerprint must exclude nd.*: {fp}");
    assert!(fp.contains("dpo>round[0] op=exact"), "{fp}");
}

#[test]
fn trace_json_is_balanced_and_carries_spans() {
    let r = session()
        .query(RELAXED)
        .unwrap()
        .top(10)
        .algorithm(Algorithm::Hybrid)
        .trace()
        .execute()
        .unwrap();
    let trace = r.trace.expect("trace requested");
    let mut b = JsonBuf::new();
    b.trace(&trace);
    let text = b.finish();
    let root = json::parse(text.as_bytes()).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(root.get("name").and_then(Json::as_str), Some("hybrid"));
    // Every span carries the four fields a trace reader walks by, and the
    // walk meets exactly the spans the engine recorded.
    fn walk(span: &Json, seen: &mut usize) {
        *seen += 1;
        assert!(
            span.get("name").and_then(Json::as_str).is_some(),
            "{span:?}"
        );
        assert!(
            span.get("duration_us").and_then(Json::as_u64).is_some(),
            "{span:?}"
        );
        match span.get("counters") {
            Some(Json::Object(counters)) => {
                assert!(counters.values().all(|v| v.as_u64().is_some()), "{span:?}")
            }
            other => panic!("counters must be an object: {other:?}"),
        }
        match span.get("children") {
            Some(Json::Array(children)) => children.iter().for_each(|c| walk(c, seen)),
            other => panic!("children must be an array: {other:?}"),
        }
    }
    fn count(span: &TraceSpan) -> usize {
        1 + span.children.iter().map(count).sum::<usize>()
    }
    let mut seen = 0;
    walk(&root, &mut seen);
    assert_eq!(seen, count(&trace.root));
    assert!(seen > 1, "a relaxed query records nested spans: {text}");
}

#[test]
fn registry_accumulates_queries_and_their_durations() {
    let flex = session();
    let before = flexpath::engine_metrics();
    for _ in 0..3 {
        let r = flex
            .query(RELAXED)
            .unwrap()
            .top(25)
            .algorithm(Algorithm::Dpo)
            .execute()
            .unwrap();
        assert!(!r.hits.is_empty());
    }
    let after = flexpath::engine_metrics();
    let delta = |k: &str| {
        after.counters.get(k).copied().unwrap_or(0) - before.counters.get(k).copied().unwrap_or(0)
    };
    assert!(delta("engine.query.count") >= 3);
    assert!(delta("engine.query.dpo") >= 3);
    assert!(delta("engine.exec.evaluations") > 0);
    assert!(delta("engine.exec.candidates") > 0);
    // The duration histogram saw every query.
    let hist_before = before
        .histograms
        .get("engine.query_duration")
        .map(|h| h.count)
        .unwrap_or(0);
    let hist_after = after
        .histograms
        .get("engine.query_duration")
        .map(|h| h.count)
        .unwrap_or(0);
    assert!(hist_after >= hist_before + 3);
    // The exposition carries the counters.
    let text = render_prometheus(&after);
    assert!(text.contains("engine_query_count"), "{text}");
}

#[test]
fn prometheus_exposition_parses_and_carries_duration_histograms() {
    let flex = session();
    let _ = flex
        .query(RELAXED)
        .unwrap()
        .top(25)
        .algorithm(Algorithm::Dpo)
        .execute()
        .unwrap();
    let text = render_prometheus(&flexpath::engine_metrics());
    // Sanitized duration histogram series with the full Prometheus triplet.
    assert!(
        text.contains("engine_query_duration_bucket{le=\""),
        "{text}"
    );
    assert!(text.contains("engine_query_duration_sum"), "{text}");
    assert!(text.contains("engine_query_duration_count"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");
    assert_prometheus_parses(&text);
}

/// A snapshot built by hand: one counter whose name needs every escape
/// class (`"`, `\`, `\n`, a control character) and one histogram with two
/// buckets.
fn pinned_snapshot() -> MetricsSnapshot {
    let mut s = MetricsSnapshot::default();
    s.counters.insert("engine.query.count".into(), 3);
    s.counters.insert("odd\"name\\with\nbreak\u{1}".into(), 7);
    s.histograms.insert(
        "engine.query_duration".into(),
        HistogramSnapshot {
            count: 3,
            sum_micros: 7,
            buckets: vec![(1, 1), (3, 2)],
        },
    );
    s
}

fn span(name: &str, micros: u64, counters: &[(&str, u64)], children: Vec<TraceSpan>) -> TraceSpan {
    TraceSpan {
        name: name.into(),
        duration: Duration::from_micros(micros),
        counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        children,
    }
}

/// A three-level trace; the leaf has no counters and a quoted name.
fn pinned_trace() -> QueryTrace {
    QueryTrace {
        root: span(
            "dpo",
            1234,
            &[("k", 10), ("nd.cache.hits", 2)],
            vec![
                span("schedule", 300, &[("schedule.steps", 2)], vec![]),
                span(
                    "round[0] op=exact",
                    800,
                    &[("round.candidates", 5)],
                    vec![span("eval \"quoted\"", 0, &[], vec![])],
                ),
            ],
        ),
    }
}

// The wire format of `/metrics`, `/metrics?format=json`, the `/query`
// trace and `flexpath-cli --trace-json`. Scrapers and the benchmark parse
// these bytes, so a renderer change must leave them as they are.

const PINNED_SNAPSHOT_JSON: &str = r#"{"schema":2,"bucket_scheme":"log2-upper-inclusive","counters":{"engine.query.count":3,"odd\"name\\with\nbreak\u0001":7},"histograms":{"engine.query_duration":{"count":3,"sum_us":7,"mean":2,"buckets":[[1,1],[3,2]]}}}"#;

const PINNED_PROMETHEUS: &str = "\
# TYPE engine_query_count counter
engine_query_count 3
# TYPE odd_name_with_break_ counter
odd_name_with_break_ 7
# TYPE engine_query_duration histogram
engine_query_duration_bucket{le=\"1\"} 1
engine_query_duration_bucket{le=\"3\"} 3
engine_query_duration_bucket{le=\"+Inf\"} 3
engine_query_duration_sum 7
engine_query_duration_count 3
";

const PINNED_TRACE_JSON: &str = r#"{"name":"dpo","duration_us":1234,"counters":{"k":10,"nd.cache.hits":2},"children":[{"name":"schedule","duration_us":300,"counters":{"schedule.steps":2},"children":[]},{"name":"round[0] op=exact","duration_us":800,"counters":{"round.candidates":5},"children":[{"name":"eval \"quoted\"","duration_us":0,"counters":{},"children":[]}]}]}"#;

#[test]
fn snapshot_json_is_pinned_and_parses_back() {
    let mut b = JsonBuf::new();
    b.metrics_snapshot(&pinned_snapshot());
    let text = b.finish();
    assert_eq!(text, PINNED_SNAPSHOT_JSON);
    let v = json::parse(text.as_bytes()).expect("snapshot JSON parses");
    let counters = v.get("counters").expect("counters");
    assert_eq!(
        counters
            .get("odd\"name\\with\nbreak\u{1}")
            .and_then(Json::as_u64),
        Some(7)
    );
    let h = v
        .get("histograms")
        .and_then(|h| h.get("engine.query_duration"))
        .expect("histogram");
    assert_eq!(h.get("count").and_then(Json::as_u64), Some(3));
    assert_eq!(h.get("sum_us").and_then(Json::as_u64), Some(7));
}

#[test]
fn snapshot_prometheus_is_pinned_and_parses() {
    let text = render_prometheus(&pinned_snapshot());
    assert_eq!(text, PINNED_PROMETHEUS);
    assert_prometheus_parses(&text);
}

#[test]
fn trace_json_is_pinned_and_parses_back() {
    let mut b = JsonBuf::new();
    b.trace(&pinned_trace());
    let text = b.finish();
    assert_eq!(text, PINNED_TRACE_JSON);
    let v = json::parse(text.as_bytes()).expect("trace JSON parses");
    let leaf = v
        .get("children")
        .and_then(|c| match c {
            Json::Array(children) => children.get(1),
            _ => None,
        })
        .and_then(|round| match round.get("children") {
            Some(Json::Array(children)) => children.first(),
            _ => None,
        })
        .expect("third-level span");
    assert_eq!(
        leaf.get("name").and_then(Json::as_str),
        Some("eval \"quoted\"")
    );
    assert_eq!(
        leaf.get("counters"),
        Some(&Json::Object(Default::default()))
    );
}
