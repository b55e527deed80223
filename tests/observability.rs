//! Observability-layer acceptance: EXPLAIN ANALYZE renders the full span
//! tree for a relaxed XMark query (per-round operator, candidate / prune /
//! cache / governor-checkpoint counters), the trace JSON is well-formed,
//! and the process-wide metrics registry accumulates across queries.

use flexpath::{explain_profile, Algorithm, FleXPath};
use flexpath_xmark::{generate, XmarkConfig};
use std::sync::OnceLock;

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
    let json = r.trace.expect("trace requested").render_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced braces: {json}"
    );
    assert!(json.contains("\"name\":\"hybrid\""), "{json}");
    assert!(json.contains("\"duration_us\":"), "{json}");
    assert!(json.contains("\"children\":["), "{json}");
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
    // Text rendering mentions the counters.
    let text = after.render_text();
    assert!(text.contains("engine.query.count"), "{text}");
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
    let text = flexpath::engine_metrics().render_prometheus();
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

/// A minimal Prometheus text-exposition parser: every line must be a
/// `# TYPE`/`# HELP` comment or a `name[{labels}] value` sample with a
/// metric name in `[a-zA-Z0-9_:]` and a float-parseable value, and every
/// histogram's `_bucket` series must be cumulative (monotone in `le`).
fn assert_prometheus_parses(text: &str) {
    let mut samples = 0usize;
    let mut last_bucket: Option<(String, u64)> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line names a metric");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                kind == "counter" || kind == "histogram" || kind == "gauge",
                "unknown TYPE in {line:?}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or other comments
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let name = match series.split_once('{') {
            Some((n, labels)) => {
                assert!(labels.ends_with('}'), "unterminated labels in {line:?}");
                n
            }
            None => series,
        };
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad series name in {line:?}"
        );
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        // Cumulative-bucket check: within one _bucket series, counts never
        // decrease ("+Inf" is ordered last by the renderer).
        if let Some(base) = name.strip_suffix("_bucket") {
            let count = v as u64;
            match &last_bucket {
                Some((prev, prev_count)) if prev == base => {
                    assert!(
                        count >= *prev_count,
                        "non-cumulative bucket in {line:?} (prev {prev_count})"
                    );
                    last_bucket = Some((base.to_string(), count));
                }
                _ => last_bucket = Some((base.to_string(), count)),
            }
        } else {
            last_bucket = None;
        }
        samples += 1;
    }
    assert!(samples > 0, "exposition was empty");
}
