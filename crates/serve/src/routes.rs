//! Endpoint dispatch: maps parsed requests to responses.
//!
//! Every route returns a [`Response`]; failures flow through
//! [`ServeError`] so each gets a consistent JSON error body and status.
//! The `/query` route is where the robustness story comes together:
//! admission control first (shed with `429`/`503` *before* any work),
//! then server-clamped limits, then execution under the drain token —
//! so a budget trip degrades into a `200` partial with `Retry-After`
//! rather than an error.

use crate::admission::{AdmissionController, AdmissionError};
use crate::error::ServeError;
use crate::http::{Method, Request, Response};
use crate::json::{self, Json, JsonBuf};
use crate::policy::ServePolicy;
use crate::recorder::{fnv1a, FlightRecorder, QueryRecord};
use crate::state::ServerState;
use flexpath::{skew_millibits, Algorithm, CancelToken, QueryLimits, QueryResults, RankingScheme};
use flexpath_engine::metrics;
use flexpath_engine::reason_key;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a route handler needs, borrowed from the server for the
/// duration of one request.
#[derive(Debug)]
pub struct RouteContext<'a> {
    /// Session cache + catalog.
    pub state: &'a ServerState,
    /// Server policy (limit ceilings, timeouts, Retry-After hint).
    pub policy: &'a ServePolicy,
    /// The admission controller queries must pass.
    pub admission: &'a AdmissionController,
    /// Cancelled when the drain deadline expires; attached to every query
    /// so in-flight work stops at its next checkpoint instead of
    /// overstaying the drain window.
    pub drain_cancel: &'a CancelToken,
    /// The process-wide query flight recorder fed by `/query` and
    /// `/explain` after execution; served by `/debug/queries` and
    /// `/debug/slow`.
    pub recorder: &'a FlightRecorder,
}

/// Routes one request. Never panics; anything unexpected becomes a typed
/// error response.
pub fn dispatch(ctx: &RouteContext<'_>, req: &Request) -> Response {
    metrics::global().add("serve.requests", 1);
    let resp = match (req.method, req.path.as_str()) {
        (Method::Get | Method::Head, "/healthz") => healthz(ctx),
        (Method::Get | Method::Head, "/version") => version(ctx),
        (Method::Get | Method::Head, "/metrics") => metrics_endpoint(req),
        (Method::Get | Method::Head, "/catalogs") => catalogs(ctx),
        (Method::Get | Method::Head, "/debug/queries") => debug_ring(ctx, req, false),
        (Method::Get | Method::Head, "/debug/slow") => debug_ring(ctx, req, true),
        (Method::Post, "/query") => query(ctx, req).unwrap_or_else(|e| error_response(ctx, &e)),
        (Method::Post, "/explain") => explain(ctx, req).unwrap_or_else(|e| error_response(ctx, &e)),
        (_, "/query" | "/explain") => error_response(
            ctx,
            &ServeError::Http(crate::http::HttpError::MethodUnknown),
        ),
        _ => err_json(404, "not_found", &format!("no route for {}", req.path)),
    };
    metrics::global().add(status_metric(resp.status), 1);
    resp
}

/// The metric key for a response status class.
fn status_metric(status: u16) -> &'static str {
    match status {
        200..=299 => "serve.responses.2xx",
        429 => "serve.responses.429",
        503 => "serve.responses.503",
        400..=499 => "serve.responses.4xx",
        _ => "serve.responses.5xx",
    }
}

/// Renders a `ServeError` as its JSON error response, attaching
/// `Retry-After` to shed responses so well-behaved clients back off.
pub fn error_response(ctx: &RouteContext<'_>, e: &ServeError) -> Response {
    if let ServeError::Shed(reason) = e {
        let key = match reason {
            AdmissionError::QueueFull => "serve.shed.queue_full",
            AdmissionError::Timeout => "serve.shed.timeout",
            AdmissionError::Draining => "serve.shed.draining",
        };
        metrics::global().add(key, 1);
    }
    let resp = err_json(e.status(), e.kind(), &e.to_string());
    match e {
        ServeError::Shed(_) => resp.retry_after(ctx.policy.retry_after_secs),
        _ => resp,
    }
}

/// A JSON error body: `{"error":{"status":s,"kind":"k","message":"m"}}`.
pub fn err_json(status: u16, kind: &str, message: &str) -> Response {
    let mut b = JsonBuf::new();
    b.raw("{").key("error").raw("{");
    b.key("status").u64(u64::from(status));
    b.key("kind").string(kind);
    b.key("message").string(message);
    b.raw("}}");
    Response::json(status, b.finish())
}

fn healthz(ctx: &RouteContext<'_>) -> Response {
    let mut b = JsonBuf::new();
    b.raw("{");
    b.key("status").string(if ctx.admission.is_draining() {
        "draining"
    } else {
        "ok"
    });
    b.key("sessions").u64(ctx.state.session_count() as u64);
    b.key("in_flight").u64(ctx.admission.in_flight() as u64);
    b.key("concurrency_limit")
        .u64(ctx.admission.current_limit() as u64);
    b.key("uptime_s").u64(ctx.state.uptime().as_secs());
    b.raw("}");
    let status = if ctx.admission.is_draining() {
        503
    } else {
        200
    };
    Response::json(status, b.finish())
}

/// Build/version info plus process vitals: uptime, drain state, session
/// cache, and flight-recorder configuration. Unlike `/healthz` this never
/// returns 503 — it describes the process, it does not gate traffic.
fn version(ctx: &RouteContext<'_>) -> Response {
    let mut b = JsonBuf::new();
    b.raw("{");
    b.key("name").string(env!("CARGO_PKG_NAME"));
    b.key("version").string(env!("CARGO_PKG_VERSION"));
    b.key("uptime_s").u64(ctx.state.uptime().as_secs());
    b.key("draining").bool(ctx.admission.is_draining());
    b.key("sessions").raw("{");
    b.key("loaded").u64(ctx.state.session_count() as u64);
    // Per-catalog session vitals: how long each store open took, whether
    // the session is lazily backed / memory-mapped, and which parts have
    // actually been decoded so far. `open_ms` for a lazy open measures
    // header + meta validation only — the operator-visible proof that
    // opening is O(ms) regardless of store size.
    b.key("catalogs").raw("[");
    for info in ctx.state.sessions_info() {
        b.comma().raw("{");
        b.key("name").string(&info.name);
        b.key("open_ms").f64(info.open.as_secs_f64() * 1e3);
        b.key("lazy").bool(info.lazy);
        b.key("mapped").bool(info.mapped);
        b.key("resident").raw("{");
        b.key("document").bool(info.residency.document);
        b.key("stats").bool(info.residency.stats);
        b.key("index").bool(info.residency.index);
        b.raw("}");
        b.raw("}");
    }
    b.raw("]");
    b.raw("}");
    b.key("recorder").raw("{");
    b.key("capacity").u64(ctx.recorder.capacity() as u64);
    b.key("recorded").u64(ctx.recorder.recorded());
    b.key("slow_threshold_ms").u64(
        ctx.recorder
            .slow_threshold()
            .as_millis()
            .min(u128::from(u64::MAX)) as u64,
    );
    b.raw("}");
    b.raw("}");
    Response::json(200, b.finish())
}

/// `/metrics`: Prometheus text exposition by default (`# TYPE`d counters
/// and cumulative `_bucket`/`_sum`/`_count` histograms); `?format=json`
/// returns the machine-readable snapshot.
fn metrics_endpoint(req: &Request) -> Response {
    let snapshot = metrics::global().snapshot();
    if req.query.split('&').any(|kv| kv == "format=json") {
        Response::json(200, snapshot.render_json())
    } else {
        Response::text(200, snapshot.render_prometheus())
    }
}

/// `/debug/queries` and `/debug/slow`: the flight-recorder rings as JSON,
/// newest record first. `?n=` bounds the count (default 50, max 1000).
fn debug_ring(ctx: &RouteContext<'_>, req: &Request, slow_only: bool) -> Response {
    let n = req
        .query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(50)
        .min(1000);
    let records: Vec<Arc<QueryRecord>> = if slow_only {
        ctx.recorder.slow_recent(n)
    } else {
        ctx.recorder.recent(n)
    };
    let mut b = JsonBuf::new();
    b.raw("{");
    b.key("recorded").u64(ctx.recorder.recorded());
    b.key("capacity").u64(ctx.recorder.capacity() as u64);
    b.key("slow_threshold_ms").u64(
        ctx.recorder
            .slow_threshold()
            .as_millis()
            .min(u128::from(u64::MAX)) as u64,
    );
    b.key("queries").raw("[");
    for rec in &records {
        b.comma().raw(&rec.render_json());
    }
    b.raw("]}");
    Response::json(200, b.finish())
}

fn catalogs(ctx: &RouteContext<'_>) -> Response {
    let listing = match ctx.state.catalog().list_report() {
        Ok(l) => l,
        Err(e) => return err_json(500, "store", &e.to_string()),
    };
    let mut b = JsonBuf::new();
    b.raw("{").key("documents").raw("[");
    for entry in &listing.entries {
        b.comma().raw("{");
        b.key("name").string(&entry.meta.name);
        b.key("nodes").u64(entry.meta.nodes);
        b.key("terms").u64(entry.meta.terms);
        b.key("posting_entries").u64(entry.meta.posting_entries);
        b.key("file_bytes").u64(entry.file_bytes);
        b.raw("}");
    }
    b.raw("]").key("quarantined").raw("[");
    for q in &listing.quarantined {
        b.comma().raw("{");
        b.key("path").string(&q.path.to_string_lossy());
        b.key("error").string(&q.error.to_string());
        b.raw("}");
    }
    b.raw("]}");
    Response::json(200, b.finish())
}

/// The parsed, validated body of a `/query` (or `/explain`) request.
#[derive(Debug)]
struct QueryRequest {
    catalog: String,
    query: String,
    k: usize,
    algorithm: Algorithm,
    scheme: RankingScheme,
    limits: QueryLimits,
    trace: bool,
    snippet_chars: usize,
    test_delay: Duration,
}

impl QueryRequest {
    /// Parses and validates the request body. Unknown top-level keys are
    /// rejected — a typo like `deadine_ms` must not silently run an
    /// undeadlined query.
    fn parse(body: &[u8], policy: &ServePolicy) -> Result<QueryRequest, ServeError> {
        let bad = |m: String| ServeError::BadRequest(m);
        let v = json::parse(body).map_err(|e| bad(e.to_string()))?;
        let Json::Object(map) = &v else {
            return Err(bad("request body must be a JSON object".into()));
        };
        const KNOWN: &[&str] = &[
            "catalog",
            "query",
            "k",
            "algorithm",
            "scheme",
            "deadline_ms",
            "max_relaxations",
            "max_candidates",
            "max_postings",
            "max_memory",
            "threads",
            "trace",
            "snippet_chars",
            "test_delay_ms",
        ];
        for key in map.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(bad(format!("unknown field {key:?}")));
            }
        }
        let str_field = |name: &str| -> Result<String, ServeError> {
            map.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("field {name:?} (string) is required")))
        };
        let uint = |name: &str| -> Result<Option<u64>, ServeError> {
            match map.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| bad(format!("field {name:?} must be a non-negative integer"))),
            }
        };
        let algorithm = match map.get("algorithm").map(|v| v.as_str()) {
            None => Algorithm::Hybrid,
            Some(Some(s)) => match s.to_ascii_lowercase().as_str() {
                "dpo" => Algorithm::Dpo,
                "sso" => Algorithm::Sso,
                "hybrid" => Algorithm::Hybrid,
                other => return Err(bad(format!("unknown algorithm {other:?}"))),
            },
            Some(None) => return Err(bad("field \"algorithm\" must be a string".into())),
        };
        let scheme = match map.get("scheme").map(|v| v.as_str()) {
            None => RankingScheme::StructureFirst,
            Some(Some(s)) => match s.to_ascii_lowercase().as_str() {
                "structure_first" => RankingScheme::StructureFirst,
                "keyword_first" => RankingScheme::KeywordFirst,
                "combined" => RankingScheme::Combined,
                other => return Err(bad(format!("unknown scheme {other:?}"))),
            },
            Some(None) => return Err(bad("field \"scheme\" must be a string".into())),
        };
        let trace = match map.get("trace") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad("field \"trace\" must be a boolean".into()))?,
        };
        let mut limits = QueryLimits::default();
        if let Some(ms) = uint("deadline_ms")? {
            limits.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(n) = uint("max_relaxations")? {
            limits.max_relaxations_enumerated = Some(n as usize);
        }
        limits.max_candidate_answers = uint("max_candidates")?;
        limits.max_ft_postings_scanned = uint("max_postings")?;
        limits.max_memory_hint = uint("max_memory")?;
        // A query runs on one thread. `threads` is still accepted, so
        // existing clients keep working: validated, then ignored.
        uint("threads")?;
        let test_delay_ms = uint("test_delay_ms")?.unwrap_or(0);
        if test_delay_ms > 0 && !policy.allow_test_delay {
            return Err(bad(
                "field \"test_delay_ms\" is disabled by server policy".into()
            ));
        }
        Ok(QueryRequest {
            catalog: str_field("catalog")?,
            query: str_field("query")?,
            k: uint("k")?.unwrap_or(10).min(10_000) as usize,
            algorithm,
            scheme,
            limits,
            trace,
            snippet_chars: uint("snippet_chars")?.unwrap_or(0).min(10_000) as usize,
            test_delay: Duration::from_millis(test_delay_ms.min(60_000)),
        })
    }
}

fn query(ctx: &RouteContext<'_>, req: &Request) -> Result<Response, ServeError> {
    let parsed = QueryRequest::parse(&req.body, ctx.policy)?;
    // Admission *before* session load: an overloaded server must shed
    // without doing per-request work.
    let _permit = ctx.admission.admit()?;
    let flex = ctx.state.session(&parsed.catalog)?;
    hold_test_delay(ctx, parsed.test_delay);
    let effective_limits = ctx.policy.clamp(&parsed.limits);
    let started = Instant::now();
    let mut q = flex
        .query(&parsed.query)
        .map_err(|e| ServeError::BadRequest(e.to_string()))?
        .top(parsed.k)
        .algorithm(parsed.algorithm)
        .scheme(parsed.scheme)
        .limits(effective_limits.clone())
        .cancel(ctx.drain_cancel.clone());
    if parsed.trace {
        q = q.trace();
    }
    // Fallible execute: a lazy session's first touch of a corrupt or
    // unreadable section surfaces here as a typed 500 (`session`), never
    // a worker panic.
    let results = q.try_execute()?;
    let elapsed = started.elapsed();
    metrics::global().observe_duration("serve.query.duration", elapsed);
    metrics::global().add(
        if results.is_complete() {
            "serve.query.complete"
        } else {
            "serve.query.partial"
        },
        1,
    );
    record_completed(ctx, "query", &parsed, effective_limits, &results, elapsed);

    let body = render_results(&flex, &parsed, &results, elapsed);
    let resp = Response::json(200, body);
    // Graceful degradation: a budget trip is not an error — the client
    // gets the best answers found plus a hint to retry for the rest.
    if results.is_complete() {
        Ok(resp)
    } else {
        Ok(resp.retry_after(ctx.policy.retry_after_secs))
    }
}

/// The stable wire name of a ranking scheme (matches the request field
/// vocabulary accepted by [`QueryRequest::parse`]).
fn scheme_key(scheme: RankingScheme) -> &'static str {
    match scheme {
        RankingScheme::StructureFirst => "structure_first",
        RankingScheme::KeywordFirst => "keyword_first",
        RankingScheme::Combined => "combined",
    }
}

/// Feeds one completed execution into the flight recorder. Runs on the
/// request's worker thread *after* the engine committed the results —
/// strictly read-only over them, so recording cannot perturb governor
/// counters or the deterministic trace fingerprint (whose FNV-1a hash the
/// record carries when the request was traced).
fn record_completed(
    ctx: &RouteContext<'_>,
    endpoint: &'static str,
    parsed: &QueryRequest,
    effective_limits: QueryLimits,
    results: &QueryResults,
    elapsed: Duration,
) {
    let (complete, exhaust_reason) = match &results.completeness {
        flexpath::Completeness::Complete => (true, None),
        flexpath::Completeness::Exhausted { reason, .. } => (false, Some(reason_key(*reason))),
    };
    // The governor latches its trip site into the trace root as a
    // `governor.trip.site.<name>` counter; untraced runs record the
    // reason only.
    let trip_site = results.trace.as_ref().and_then(|t| {
        t.root
            .counters
            .keys()
            .find_map(|k| k.strip_prefix("governor.trip.site.").map(str::to_string))
    });
    let fingerprint_hash = results
        .trace
        .as_ref()
        .map(|t| fnv1a(t.counter_fingerprint().as_bytes()));
    ctx.recorder.record(QueryRecord {
        id: 0, // assigned by the recorder
        endpoint,
        corpus: parsed.catalog.clone(),
        query: QueryRecord::clip_query(&parsed.query),
        algorithm: results.algorithm.to_string().to_ascii_lowercase(),
        scheme: scheme_key(parsed.scheme).to_string(),
        k: parsed.k as u64,
        limits: effective_limits,
        duration: elapsed,
        complete,
        exhaust_reason,
        trip_site,
        answers: results.hits.len() as u64,
        estimated_answers: results.stats.estimated_answers,
        observed_answers: results.stats.observed_answers,
        skew_millibits: skew_millibits(
            results.stats.estimated_answers,
            results.stats.observed_answers,
        ),
        fingerprint_hash,
    });
}

/// Holds the execution slot for a fixed time (tests and the load harness
/// only — gated by `ServePolicy::allow_test_delay` at parse time). Wakes
/// early if the drain token fires so a draining server is never stuck
/// behind artificial delays.
fn hold_test_delay(ctx: &RouteContext<'_>, delay: Duration) {
    let until = Instant::now() + delay;
    while !ctx.drain_cancel.is_cancelled() {
        let now = Instant::now();
        if now >= until {
            break;
        }
        std::thread::sleep((until - now).min(Duration::from_millis(5)));
    }
}

fn render_results(
    flex: &flexpath::FleXPath,
    req: &QueryRequest,
    results: &QueryResults,
    elapsed: Duration,
) -> String {
    let mut b = JsonBuf::new();
    b.raw("{");
    b.key("catalog").string(&req.catalog);
    b.key("algorithm").string(&results.algorithm.to_string());
    b.key("k").u64(req.k as u64);
    b.key("elapsed_us").u64(elapsed.as_micros() as u64);
    b.key("completeness").raw("{");
    b.key("complete").bool(results.is_complete());
    if let flexpath::Completeness::Exhausted {
        reason,
        relaxations_explored,
        relaxations_remaining_estimate,
    } = &results.completeness
    {
        b.key("reason").string(reason_key(*reason));
        b.key("relaxations_explored")
            .u64(*relaxations_explored as u64);
        b.key("relaxations_remaining_estimate")
            .u64(*relaxations_remaining_estimate as u64);
    }
    b.raw("}");
    b.key("hits").raw("[");
    for hit in &results.hits {
        b.comma().raw("{");
        b.key("node").u64(u64::from(hit.node.0));
        b.key("path").string(&flex.path_of(hit.node));
        b.key("ss").f64(hit.score.ss);
        b.key("ks").f64(hit.score.ks);
        b.key("relaxation_level").u64(hit.relaxation_level as u64);
        if req.snippet_chars > 0 {
            b.key("snippet")
                .string(&flex.snippet(hit.node, req.snippet_chars));
        }
        b.raw("}");
    }
    b.raw("]");
    b.key("stats").raw("{");
    b.key("relaxations_used")
        .u64(results.stats.relaxations_used as u64);
    b.key("evaluations").u64(results.stats.evaluations as u64);
    b.key("intermediate_answers")
        .u64(results.stats.intermediate_answers as u64);
    b.key("restarts").u64(results.stats.restarts as u64);
    b.key("pruned").u64(results.stats.pruned as u64);
    b.raw("}");
    if let Some(trace) = &results.trace {
        b.key("trace").raw(&trace.render_json());
    }
    b.raw("}");
    b.finish()
}

fn explain(ctx: &RouteContext<'_>, req: &Request) -> Result<Response, ServeError> {
    let parsed = QueryRequest::parse(&req.body, ctx.policy)?;
    let _permit = ctx.admission.admit()?;
    let flex = ctx.state.session(&parsed.catalog)?;
    // Same governor contract as /query: clamped limits and the drain
    // token — an explain run must not outlive the drain deadline or
    // escape the operator's budget ceilings.
    let effective_limits = ctx.policy.clamp(&parsed.limits);
    // The explain renderer runs the query through the infallible
    // `execute()`; materialize every part up front so a corrupt lazy
    // section becomes a typed 500 here instead of a fault mid-render.
    flex.materialize(true)?;
    let started = Instant::now();
    let text = flexpath::explain_profile_with(
        &flex,
        &parsed.query,
        parsed.k,
        parsed.algorithm,
        effective_limits.clone(),
        ctx.drain_cancel.clone(),
    )
    .map_err(|e| ServeError::BadRequest(e.to_string()))?;
    let elapsed = started.elapsed();
    // EXPLAIN returns rendered text, not a results struct; the record is
    // recovered from the report's own header lines (best effort — an
    // explain record documents that a profiled run happened and how long
    // it held its slot, not the full skew summary).
    let complete = text.lines().any(|l| l == "completeness: complete");
    let answers = text
        .lines()
        .find_map(|l| l.strip_prefix("answers returned: "))
        .and_then(|n| n.trim().parse::<u64>().ok())
        .unwrap_or(0);
    ctx.recorder.record(QueryRecord {
        id: 0, // assigned by the recorder
        endpoint: "explain",
        corpus: parsed.catalog.clone(),
        query: QueryRecord::clip_query(&parsed.query),
        algorithm: parsed.algorithm.to_string().to_ascii_lowercase(),
        scheme: scheme_key(parsed.scheme).to_string(),
        k: parsed.k as u64,
        limits: effective_limits,
        duration: elapsed,
        complete,
        exhaust_reason: None,
        trip_site: None,
        answers,
        estimated_answers: 0.0,
        observed_answers: 0,
        skew_millibits: 0,
        fingerprint_hash: None,
    });
    Ok(Response::text(200, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpLimits;

    fn test_ctx() -> (
        ServerState,
        ServePolicy,
        AdmissionController,
        CancelToken,
        FlightRecorder,
        crate::scratch::ScratchDir,
    ) {
        let dir = crate::scratch::ScratchDir::new("serve-routes");
        let state = ServerState::open(dir.path()).unwrap();
        state.insert_session(
            "doc",
            flexpath::FleXPath::from_xml(
                "<site><article><section><paragraph>XML streaming</paragraph>\
                 </section></article></site>",
            )
            .unwrap(),
        );
        let policy = ServePolicy::for_tests();
        let admission = AdmissionController::new(2, 2, 1, Duration::from_millis(50));
        let recorder = FlightRecorder::new(policy.recorder_capacity, policy.slow_query_threshold);
        (state, policy, admission, CancelToken::new(), recorder, dir)
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: Method::Post,
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            pipelined_excess: false,
        }
    }

    #[test]
    fn query_round_trips_json() {
        let (state, policy, admission, cancel, recorder, _dir) = test_ctx();
        let ctx = RouteContext {
            state: &state,
            policy: &policy,
            admission: &admission,
            drain_cancel: &cancel,
            recorder: &recorder,
        };
        let req = post(
            "/query",
            r#"{"catalog":"doc","query":"//article[.contains(\"XML\")]","k":3,"snippet_chars":20,"threads":4}"#,
        );
        let resp = dispatch(&ctx, &req);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(
            v.get("completeness").and_then(|c| c.get("complete")),
            Some(&Json::Bool(true))
        );
        let hits = v.get("hits").cloned();
        assert!(matches!(hits, Some(Json::Array(a)) if !a.is_empty()));
    }

    #[test]
    fn partial_results_carry_retry_after() {
        let (state, policy, admission, cancel, recorder, _dir) = test_ctx();
        let ctx = RouteContext {
            state: &state,
            policy: &policy,
            admission: &admission,
            drain_cancel: &cancel,
            recorder: &recorder,
        };
        // max_candidates: 0 deterministically trips the answer budget.
        let req = post(
            "/query",
            r#"{"catalog":"doc","query":"//article[.contains(\"XML\")]","max_candidates":0}"#,
        );
        let resp = dispatch(&ctx, &req);
        assert_eq!(resp.status, 200, "partials degrade, not error");
        assert!(resp.headers.iter().any(|(n, _)| *n == "Retry-After"));
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(
            v.get("completeness").and_then(|c| c.get("complete")),
            Some(&Json::Bool(false))
        );
        assert_eq!(
            v.get("completeness")
                .and_then(|c| c.get("reason"))
                .and_then(Json::as_str),
            Some("answer_budget")
        );
    }

    #[test]
    fn bad_bodies_and_unknown_fields_are_400() {
        let (state, policy, admission, cancel, recorder, _dir) = test_ctx();
        let ctx = RouteContext {
            state: &state,
            policy: &policy,
            admission: &admission,
            drain_cancel: &cancel,
            recorder: &recorder,
        };
        for body in [
            "not json",
            "[]",
            r#"{"query":"//a"}"#,
            r#"{"catalog":"doc"}"#,
            r#"{"catalog":"doc","query":"//a","deadine_ms":5}"#,
            r#"{"catalog":"doc","query":"//a","k":"ten"}"#,
            r#"{"catalog":"doc","query":"//a","threads":"two"}"#,
            r#"{"catalog":"doc","query":"//a","threads":-1}"#,
            r#"{"catalog":"doc","query":"//a","algorithm":"magic"}"#,
            r#"{"catalog":"doc","query":"not an xpath"}"#,
        ] {
            let resp = dispatch(&ctx, &post("/query", body));
            assert_eq!(resp.status, 400, "{body}");
        }
        // Missing catalog document: 404.
        let resp = dispatch(&ctx, &post("/query", r#"{"catalog":"nope","query":"//a"}"#));
        assert_eq!(resp.status, 404);
        // Wrong method: 405.
        let mut req = post("/query", "");
        req.method = Method::Get;
        assert_eq!(dispatch(&ctx, &req).status, 405);
        // Unknown route: 404.
        let mut req = post("/nope", "");
        req.method = Method::Get;
        assert_eq!(dispatch(&ctx, &req).status, 404);
    }

    #[test]
    fn draining_sheds_with_503_and_retry_after() {
        let (state, policy, admission, cancel, recorder, _dir) = test_ctx();
        admission.drain();
        let ctx = RouteContext {
            state: &state,
            policy: &policy,
            admission: &admission,
            drain_cancel: &cancel,
            recorder: &recorder,
        };
        let resp = dispatch(&ctx, &post("/query", r#"{"catalog":"doc","query":"//a"}"#));
        assert_eq!(resp.status, 503);
        assert!(resp.headers.iter().any(|(n, _)| *n == "Retry-After"));
    }

    #[test]
    fn auxiliary_endpoints_respond() {
        let (state, policy, admission, cancel, recorder, _dir) = test_ctx();
        let ctx = RouteContext {
            state: &state,
            policy: &policy,
            admission: &admission,
            drain_cancel: &cancel,
            recorder: &recorder,
        };
        let get = |path: &str, query: &str| Request {
            method: Method::Get,
            path: path.to_string(),
            query: query.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
            pipelined_excess: false,
        };
        let health = dispatch(&ctx, &get("/healthz", ""));
        assert_eq!(health.status, 200);
        assert!(json::parse(&health.body).is_ok());
        let m = dispatch(&ctx, &get("/metrics", ""));
        assert_eq!(m.status, 200);
        assert_eq!(m.content_type, "text/plain; charset=utf-8");
        let prom = String::from_utf8_lossy(&m.body);
        assert!(prom.contains("# TYPE"), "default is Prometheus: {prom}");
        assert!(prom.contains("serve_requests"), "{prom}");
        let mj = dispatch(&ctx, &get("/metrics", "format=json"));
        assert!(json::parse(&mj.body).is_ok());
        let cats = dispatch(&ctx, &get("/catalogs", ""));
        assert_eq!(cats.status, 200);
        let explain = dispatch(
            &ctx,
            &post("/explain", r#"{"catalog":"doc","query":"//article"}"#),
        );
        assert_eq!(explain.status, 200);
        assert!(String::from_utf8_lossy(&explain.body).contains("EXPLAIN ANALYZE"));
    }

    #[test]
    fn explain_runs_under_clamped_limits_and_drain_token() {
        let (state, policy, admission, cancel, recorder, _dir) = test_ctx();
        {
            let ctx = RouteContext {
                state: &state,
                policy: &policy,
                admission: &admission,
                drain_cancel: &cancel,
                recorder: &recorder,
            };
            // Request limits reach the profiled run (zero answer budget
            // trips the governor, visible in the rendered completeness).
            let resp = dispatch(
                &ctx,
                &post(
                    "/explain",
                    r#"{"catalog":"doc","query":"//article[.contains(\"XML\")]","max_candidates":0}"#,
                ),
            );
            assert_eq!(resp.status, 200);
            let text = String::from_utf8_lossy(&resp.body);
            assert!(text.contains("completeness: exhausted"), "{text}");
        }
        // A fired drain token stops an explain run at its first governor
        // checkpoint — explain cannot outlive the drain deadline.
        cancel.cancel();
        let ctx = RouteContext {
            state: &state,
            policy: &policy,
            admission: &admission,
            drain_cancel: &cancel,
            recorder: &recorder,
        };
        let resp = dispatch(
            &ctx,
            &post(
                "/explain",
                r#"{"catalog":"doc","query":"//article[.contains(\"XML\")]"}"#,
            ),
        );
        assert_eq!(resp.status, 200);
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains("completeness: exhausted"), "{text}");
    }

    #[test]
    fn flight_recorder_feeds_debug_endpoints() {
        let (state, policy, admission, cancel, recorder, _dir) = test_ctx();
        let ctx = RouteContext {
            state: &state,
            policy: &policy,
            admission: &admission,
            drain_cancel: &cancel,
            recorder: &recorder,
        };
        let get = |path: &str, query: &str| Request {
            method: Method::Get,
            path: path.to_string(),
            query: query.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
            pipelined_excess: false,
        };
        // One traced query and one explain leave two records behind.
        let q = post(
            "/query",
            r#"{"catalog":"doc","query":"//article[.contains(\"XML\")]","trace":true}"#,
        );
        assert_eq!(dispatch(&ctx, &q).status, 200);
        let e = post("/explain", r#"{"catalog":"doc","query":"//article"}"#);
        assert_eq!(dispatch(&ctx, &e).status, 200);

        let resp = dispatch(&ctx, &get("/debug/queries", "n=10"));
        assert_eq!(resp.status, 200);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v.get("recorded").and_then(Json::as_u64), Some(2));
        let Some(Json::Array(queries)) = v.get("queries") else {
            panic!("queries array: {}", String::from_utf8_lossy(&resp.body));
        };
        assert_eq!(queries.len(), 2);
        // Newest first: the explain record precedes the query record.
        assert_eq!(
            queries[0].get("endpoint").and_then(Json::as_str),
            Some("explain")
        );
        let query_rec = &queries[1];
        assert_eq!(
            query_rec.get("endpoint").and_then(Json::as_str),
            Some("query")
        );
        assert_eq!(query_rec.get("corpus").and_then(Json::as_str), Some("doc"));
        assert_eq!(
            query_rec.get("scheme").and_then(Json::as_str),
            Some("structure_first")
        );
        assert!(query_rec
            .get("skew")
            .and_then(|s| s.get("millibits"))
            .is_some());
        assert!(
            query_rec.get("fingerprint_fnv1a").is_some(),
            "traced query carries a fingerprint hash"
        );
        assert!(
            query_rec
                .get("limits")
                .and_then(|l| l.get("deadline_ms"))
                .and_then(Json::as_u64)
                .is_some(),
            "effective limits include the defaulted deadline"
        );

        // The test policy's zero slow threshold mirrors everything slow.
        let slow = dispatch(&ctx, &get("/debug/slow", ""));
        let v = json::parse(&slow.body).unwrap();
        assert!(matches!(v.get("queries"), Some(Json::Array(a)) if a.len() == 2));

        let ver = dispatch(&ctx, &get("/version", ""));
        assert_eq!(ver.status, 200);
        let v = json::parse(&ver.body).unwrap();
        assert_eq!(
            v.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(
            v.get("recorder")
                .and_then(|r| r.get("recorded"))
                .and_then(Json::as_u64),
            Some(2)
        );
        let health = dispatch(&ctx, &get("/healthz", ""));
        let v = json::parse(&health.body).unwrap();
        assert!(v.get("uptime_s").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn test_delay_requires_policy_opt_in() {
        let (state, mut policy, admission, cancel, recorder, _dir) = test_ctx();
        policy.allow_test_delay = false;
        policy.http = HttpLimits::default();
        let ctx = RouteContext {
            state: &state,
            policy: &policy,
            admission: &admission,
            drain_cancel: &cancel,
            recorder: &recorder,
        };
        let resp = dispatch(
            &ctx,
            &post(
                "/query",
                r#"{"catalog":"doc","query":"//a","test_delay_ms":50}"#,
            ),
        );
        assert_eq!(resp.status, 400);
    }
}
