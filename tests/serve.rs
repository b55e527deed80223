//! End-to-end tests for `flexpath-serve` over real sockets: the full
//! robustness contract from the ISSUE — typed shedding under overload
//! (`429`/`503` + `Retry-After`), graceful degradation into `200`
//! partials on budget trips, typed statuses for malformed HTTP, and a
//! drain that finishes in-flight work while shedding new work — all
//! without ever poisoning the shared session.

use flexpath::FleXPath;
use flexpath_reference::{assert_prometheus_parses, ScratchDir};
use flexpath_serve::json::{self, Json};
use flexpath_serve::{http_call, Client, ServePolicy, Server, ServerHandle, ServerState};
use flexpath_xmark::{generate, XmarkConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERY: &str = "//item[./description/parlist and ./mailbox/mail/text]";

const TIMEOUT: Duration = Duration::from_secs(5);

/// A running server over an in-memory XMark session, plus the bits a test
/// needs to talk to it and shut it down.
struct Harness {
    addr: SocketAddr,
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<()>>,
    /// The catalog directory; removed after `Drop::drop` stopped the server.
    _dir: ScratchDir,
}

impl Harness {
    fn start(tag: &str, policy: ServePolicy) -> Harness {
        let dir = ScratchDir::new(tag);
        let state = ServerState::open(dir.path()).expect("catalog opens");
        let flex = FleXPath::new(generate(&XmarkConfig::sized(64 * 1024, 41)));
        // Save to the catalog so /catalogs lists it, and inject the
        // already-built session so tests don't pay a reload.
        let ctx = flex.context();
        state
            .catalog()
            .save(&flexpath::StoreBuilder::from_parts(
                "doc",
                ctx.doc(),
                ctx.stats(),
                ctx.index(),
            ))
            .expect("store saves");
        state.insert_session("doc", flex);
        let server = Server::bind("127.0.0.1:0", Arc::new(state), policy).expect("binds port 0");
        let addr = server.local_addr().expect("bound addr");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        Harness {
            addr,
            handle,
            join: Some(join),
            _dir: dir,
        }
    }

    fn query_body(extra: &str) -> String {
        format!(r#"{{"catalog":"doc","query":"{QUERY}","k":5{extra}}}"#)
    }

    fn post_query(&self, extra: &str) -> flexpath_serve::ClientResponse {
        http_call(
            self.addr,
            "POST",
            "/query",
            Self::query_body(extra).as_bytes(),
            TIMEOUT,
        )
        .expect("query call completes")
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            join.join().expect("server thread exits cleanly");
        }
    }
}

/// Sends raw bytes on a fresh connection and returns the status code the
/// server answered with (0 if it closed without answering).
fn raw_status(addr: SocketAddr, bytes: &[u8]) -> u16 {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).expect("connects");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(bytes).expect("request bytes written");
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    let head = String::from_utf8_lossy(&buf);
    head.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[test]
fn query_round_trips_over_a_real_socket() {
    let h = Harness::start("roundtrip", ServePolicy::for_tests());

    let resp = h.post_query("");
    assert_eq!(resp.status, 200, "body: {}", resp.body_text());
    let body = resp.body_text();
    assert!(body.contains(r#""complete":true"#), "complete: {body}");
    assert!(body.contains(r#""hits":["#), "hits present: {body}");
    assert!(body.contains(r#""path":"#), "paths rendered: {body}");

    // Keep-alive: the same client connection serves several requests.
    let mut client = Client::connect(h.addr, TIMEOUT);
    for _ in 0..3 {
        let r = client
            .call("POST", "/query", Harness::query_body("").as_bytes())
            .expect("keep-alive call");
        assert_eq!(r.status, 200);
    }

    let health = http_call(h.addr, "GET", "/healthz", b"", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body_text().contains(r#""status":"ok""#));

    let catalogs = http_call(h.addr, "GET", "/catalogs", b"", TIMEOUT).expect("catalogs");
    assert_eq!(catalogs.status, 200);
    assert!(catalogs.body_text().contains(r#""doc""#));

    // Default /metrics is Prometheus text exposition (sanitized names);
    // the JSON snapshot stays reachable via ?format=json.
    let metrics = http_call(h.addr, "GET", "/metrics", b"", TIMEOUT).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body_text().contains("# TYPE"));
    assert!(metrics.body_text().contains("serve_requests"));
    let metrics = http_call(h.addr, "GET", "/metrics?format=json", b"", TIMEOUT).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body_text().contains(r#""serve.requests""#));
}

#[test]
fn overload_sheds_with_429_and_never_poisons_the_session() {
    // for_tests(): 2 slots, wait queue of 1, 50 ms admission timeout —
    // six concurrent 300 ms holders guarantee sheds.
    let h = Harness::start("overload", ServePolicy::for_tests());
    let mut workers = Vec::new();
    for _ in 0..6 {
        let addr = h.addr;
        workers.push(std::thread::spawn(move || {
            http_call(
                addr,
                "POST",
                "/query",
                Harness::query_body(r#","test_delay_ms":300"#).as_bytes(),
                TIMEOUT,
            )
            .expect("overloaded call still answers")
        }));
    }
    let mut ok = 0usize;
    let mut shed = 0usize;
    for w in workers {
        let resp = w.join().expect("client thread");
        match resp.status {
            200 => ok += 1,
            // 429: admission shed (wait queue full or admission timeout).
            // 503: door shed (the bounded connection queue overflowed).
            429 | 503 => {
                shed += 1;
                assert!(
                    resp.header("retry-after").is_some(),
                    "shed responses carry Retry-After"
                );
                if resp.status == 429 {
                    let body = resp.body_text();
                    assert!(
                        body.contains("shed_queue_full") || body.contains("shed_timeout"),
                        "typed shed reason: {body}"
                    );
                }
            }
            other => panic!("unexpected status under overload: {other}"),
        }
    }
    assert!(ok >= 2, "slot holders complete ({ok} ok)");
    assert!(shed >= 1, "overflow is shed ({shed} shed)");

    // The session is untouched by shedding: a fresh query still answers
    // completely.
    let resp = h.post_query("");
    assert_eq!(resp.status, 200, "post-shed body: {}", resp.body_text());
    assert!(resp.body_text().contains(r#""complete":true"#));
}

#[test]
fn budget_trips_degrade_into_partials_with_retry_after() {
    let h = Harness::start("partial", ServePolicy::for_tests());
    // max_candidates: 0 exhausts the answer budget deterministically.
    let resp = h.post_query(r#","max_candidates":0"#);
    assert_eq!(resp.status, 200, "partials are 200s: {}", resp.body_text());
    let body = resp.body_text();
    assert!(body.contains(r#""complete":false"#), "partial: {body}");
    assert!(
        body.contains(r#""reason":"answer_budget""#),
        "typed reason: {body}"
    );
    assert!(
        resp.header("retry-after").is_some(),
        "partials hint Retry-After so clients back off"
    );
}

#[test]
fn malformed_http_maps_to_typed_statuses() {
    let h = Harness::start("malformed", ServePolicy::for_tests());

    assert_eq!(raw_status(h.addr, b"not http at all\r\n\r\n"), 400);
    assert_eq!(raw_status(h.addr, b"GET /healthz HTTP/3.0\r\n\r\n"), 505);
    assert_eq!(raw_status(h.addr, b"BREW /query HTTP/1.1\r\n\r\n"), 405);
    assert_eq!(
        raw_status(
            h.addr,
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        ),
        501
    );
    assert_eq!(
        raw_status(
            h.addr,
            b"POST /query HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"
        ),
        413
    );
    // An oversized head trips the cap mid-read.
    let mut big = b"GET /healthz HTTP/1.1\r\n".to_vec();
    big.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(64 * 1024)).as_bytes());
    assert_eq!(raw_status(h.addr, &big), 431);

    // Bad JSON and unknown routes are typed too.
    let resp = http_call(h.addr, "POST", "/query", b"{not json", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    let resp = http_call(h.addr, "GET", "/nope", b"", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404);

    // After all that abuse the server still answers real queries.
    assert_eq!(h.post_query("").status, 200);
}

/// Posts `query` (JSON-escaping its quotes) against the test catalog.
fn post_text(h: &Harness, query: &str) -> flexpath_serve::ClientResponse {
    let body = format!(
        r#"{{"catalog":"doc","query":"{}","k":5}}"#,
        query.replace('"', "\\\"")
    );
    http_call(h.addr, "POST", "/query", body.as_bytes(), TIMEOUT).expect("the server replies")
}

#[test]
fn multi_byte_whitespace_in_a_query_is_whitespace() {
    // Both parsers used to step one *byte* over a multi-byte space and
    // slice inside it: the worker thread panicked with the connection open,
    // and one such request per worker left a server that accepts and never
    // answers. More requests than workers, then a plain one.
    let policy = ServePolicy {
        workers: 2,
        ..ServePolicy::for_tests()
    };
    let h = Harness::start("nbsp", policy);
    let plain = post_text(&h, "//item[./name and .contains(\"gold\" and \"silver\")]");
    assert_eq!(plain.status, 200, "{}", plain.body_text());
    for ws in ['\u{a0}', '\u{2003}', '\u{3000}'] {
        let spaced = post_text(
            &h,
            &format!("//item[{ws}./name and{ws}.contains(\"gold\" and{ws}\"silver\"{ws})]"),
        );
        assert_eq!(spaced.status, 200, "{ws:?}: {}", spaced.body_text());
        assert_eq!(hits_of(&spaced.body_text()), hits_of(&plain.body_text()));
    }
    assert_eq!(h.post_query("").status, 200);
}

/// The `"hits":[…]` part of a query response body.
fn hits_of(body: &str) -> String {
    let from = body.find(r#""hits":["#).expect("hits present");
    body[from..].to_string()
}

#[test]
fn over_deep_queries_are_rejected_not_recursed() {
    // A recursive-descent frame per `(`, `not` and `[` overflowed the worker's
    // stack — not a panic but an abort of the whole process — from a 12 KB
    // request. Both parsers now cap nesting and answer 400.
    let policy = ServePolicy {
        workers: 2,
        ..ServePolicy::for_tests()
    };
    let h = Harness::start("deep", policy);
    for deep in [
        format!(
            "//item[.contains({}\"a\"{})]",
            "(".repeat(6_000),
            ")".repeat(6_000)
        ),
        format!(
            "//item[.contains(\"a\" and {}\"b\")]",
            "not ".repeat(200_000)
        ),
        format!("//item{}{}", "[./a".repeat(20_000), "]".repeat(20_000)),
    ] {
        let resp = post_text(&h, &deep);
        assert_eq!(resp.status, 400);
        assert!(
            resp.body_text().contains("nesting deeper than 64"),
            "positioned, typed: {}",
            resp.body_text()
        );
    }
    assert_eq!(h.post_query("").status, 200);
}

#[test]
fn flight_recorder_and_metrics_endpoints_e2e() {
    let log_dir = ScratchDir::new("serve-slowlog");
    let slow_log = log_dir.path().join("slow.jsonl");
    let mut policy = ServePolicy::for_tests();
    // for_tests() sets a zero slow threshold, so *every* completed query
    // counts as slow — deterministic coverage for /debug/slow and the log.
    policy.slow_log = Some(slow_log.clone());
    let h = Harness::start("recorder", policy);

    // One complete query and one deterministic budget-tripped partial.
    assert_eq!(h.post_query("").status, 200);
    let partial = h.post_query(r#","max_candidates":0"#);
    assert_eq!(partial.status, 200);
    assert!(partial.body_text().contains(r#""complete":false"#));

    // /debug/queries: both records, with answer counts, the effective
    // limits, and the partial's typed exhaust reason.
    let resp = http_call(h.addr, "GET", "/debug/queries?n=10", b"", TIMEOUT).expect("debug");
    assert_eq!(resp.status, 200);
    let body = resp.body_text();
    assert!(body.contains(r#""recorded":2"#), "{body}");
    assert!(body.contains(r#""endpoint":"query""#), "{body}");
    assert!(body.contains(r#""answers":"#), "{body}");
    assert!(!body.contains(r#""skew":"#), "{body}");
    assert!(body.contains(r#""limits":{"#), "{body}");
    assert!(
        body.contains(r#""exhaust_reason":"answer_budget""#),
        "{body}"
    );

    // /debug/slow mirrors both (zero threshold), and ?n clamps the list.
    let resp = http_call(h.addr, "GET", "/debug/slow?n=10", b"", TIMEOUT).expect("debug slow");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_text().matches(r#""endpoint":"#).count(), 2);
    let resp = http_call(h.addr, "GET", "/debug/slow?n=1", b"", TIMEOUT).expect("debug slow n=1");
    assert_eq!(resp.body_text().matches(r#""endpoint":"#).count(), 1);

    // The slow log got one JSON line per slow query.
    let text = std::fs::read_to_string(&slow_log).expect("slow log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains(r#""duration_us":"#), "{line}");
    }

    // /version reports build identity and recorder state; /healthz uptime.
    let resp = http_call(h.addr, "GET", "/version", b"", TIMEOUT).expect("version");
    assert_eq!(resp.status, 200);
    let body = resp.body_text();
    assert!(body.contains(r#""version":"#), "{body}");
    assert!(body.contains(r#""recorder":{"#), "{body}");
    assert!(body.contains(r#""recorded":2"#), "{body}");
    let resp = http_call(h.addr, "GET", "/healthz", b"", TIMEOUT).expect("healthz");
    assert!(resp.body_text().contains(r#""uptime_s":"#));

    // /metrics parses as Prometheus text exposition and carries the
    // recorder counters.
    let resp = http_call(h.addr, "GET", "/metrics", b"", TIMEOUT).expect("metrics");
    assert_eq!(resp.status, 200);
    let text = resp.body_text();
    assert!(text.contains("serve_debug_recorded"), "{text}");
    assert_prometheus_parses(&text);
}

/// The flight-recorder records, newest first.
fn recorded(h: &Harness) -> Vec<Json> {
    let resp = http_call(h.addr, "GET", "/debug/queries?n=10", b"", TIMEOUT).expect("debug");
    match json::parse(&resp.body).expect("debug JSON").get("queries") {
        Some(Json::Array(records)) => records.clone(),
        other => panic!("queries array: {other:?}"),
    }
}

fn field<'a>(record: &'a Json, name: &str) -> Option<&'a str> {
    record.get(name).and_then(Json::as_str)
}

#[test]
fn explain_records_the_run_it_renders() {
    let h = Harness::start("explain", ServePolicy::for_tests());
    let body = |extra: &str| {
        format!(
            r#"{{"catalog":"doc","query":"//item[./name and .contains(\"gold\")]","k":5,"algorithm":"sso","scheme":"keyword_first"{extra}}}"#
        )
    };
    for extra in ["", r#","max_candidates":0"#] {
        let query = body(&format!(r#"{extra},"trace":true"#));
        let resp = http_call(h.addr, "POST", "/query", query.as_bytes(), TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let resp = http_call(h.addr, "POST", "/explain", body(extra).as_bytes(), TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        assert!(resp
            .body_text()
            .starts_with("EXPLAIN ANALYZE  algorithm=SSO k=5"));

        let records = recorded(&h);
        let (explain, query) = (&records[0], &records[1]);
        assert_eq!(field(explain, "endpoint"), Some("explain"));
        assert_eq!(field(query, "endpoint"), Some("query"));
        for record in [explain, query] {
            assert_eq!(field(record, "scheme"), Some("keyword_first"));
            assert_eq!(field(record, "algorithm"), Some("sso"));
        }
        let hash = field(query, "fingerprint_fnv1a");
        assert!(hash.is_some(), "traced query records a fingerprint");
        assert_eq!(field(explain, "fingerprint_fnv1a"), hash);
        if !extra.is_empty() {
            assert_eq!(field(explain, "exhaust_reason"), Some("answer_budget"));
            assert!(field(explain, "trip_site").is_some(), "{explain:?}");
        }
    }
}

#[test]
fn max_memory_is_an_unknown_field() {
    let h = Harness::start("max-memory", ServePolicy::for_tests());
    let resp = h.post_query(r#","max_memory":1"#);
    assert_eq!(resp.status, 400);
    assert!(
        resp.body_text().contains("max_memory"),
        "{}",
        resp.body_text()
    );
}

/// A process-wide counter. Tests run in parallel, so callers compare
/// with `>`, never with an exact delta.
fn counter(name: &str) -> u64 {
    flexpath::engine_metrics()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn responses_written_outside_dispatch_are_counted() {
    let h = Harness::start("counted", ServePolicy::for_tests());
    let before = counter("serve.responses.4xx");
    // A malformed head is answered by the connection loop, not by a route.
    assert_eq!(raw_status(h.addr, b"not http at all\r\n\r\n"), 400);
    assert!(counter("serve.responses.4xx") > before);
}

#[test]
fn door_sheds_with_503_when_the_connection_queue_is_full() {
    let h = Harness::start(
        "door",
        ServePolicy {
            workers: 1,
            conn_queue_depth: 1,
            ..ServePolicy::for_tests()
        },
    );
    let before = counter("serve.shed.at_door");

    // A: one kept-alive call parks the only worker on A's next read.
    let mut a = Client::connect(h.addr, TIMEOUT);
    let resp = a
        .call("POST", "/query", Harness::query_body("").as_bytes())
        .expect("A answers");
    assert_eq!(resp.status, 200, "A: {}", resp.body_text());

    // B: connects and sends nothing, filling the one-slot queue.
    let _b = TcpStream::connect_timeout(&h.addr, TIMEOUT).expect("B connects");

    // C: answered at the door without a request being read.
    let mut c = TcpStream::connect_timeout(&h.addr, TIMEOUT).expect("C connects");
    c.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut reply = String::new();
    let _ = c.read_to_string(&mut reply);
    assert_eq!(reply.split(' ').nth(1), Some("503"), "C: {reply}");
    assert!(
        reply.to_ascii_lowercase().contains("\r\nretry-after:"),
        "C: {reply}"
    );
    assert!(counter("serve.shed.at_door") > before);
}

#[test]
fn drain_deadline_cancels_in_flight_work() {
    let deadline = Duration::from_millis(200);
    let mut h = Harness::start(
        "deadline",
        ServePolicy {
            drain_deadline: deadline,
            ..ServePolicy::for_tests()
        },
    );
    let before = counter("serve.drain.deadline_fired");

    // A query that would hold its slot for 5 s...
    let addr = h.addr;
    let slow = std::thread::spawn(move || {
        http_call(
            addr,
            "POST",
            "/query",
            Harness::query_body(r#","test_delay_ms":5000"#).as_bytes(),
            TIMEOUT,
        )
        .expect("in-flight request answered")
    });
    let asked = Instant::now();
    while !http_call(h.addr, "GET", "/healthz", b"", TIMEOUT)
        .expect("healthz answers")
        .body_text()
        .contains(r#""in_flight":1"#)
    {
        assert!(asked.elapsed() < TIMEOUT, "the slow query never got a slot");
    }

    // ...is cancelled at the drain deadline, and run() returns with it.
    let started = Instant::now();
    h.handle.shutdown();
    h.join
        .take()
        .expect("server running")
        .join()
        .expect("server thread exits cleanly");
    let drained = started.elapsed();

    let resp = slow.join().expect("slow client thread");
    assert_eq!(resp.status, 200, "cancelled work: {}", resp.body_text());
    assert!(
        resp.body_text().contains(r#""reason":"cancelled""#),
        "{}",
        resp.body_text()
    );
    assert!(resp.header("retry-after").is_some());
    assert!(counter("serve.drain.deadline_fired") > before);
    assert!(
        drained <= deadline + Duration::from_millis(100),
        "run() returned {drained:?} after shutdown"
    );
}

#[test]
fn drain_finishes_in_flight_work_and_sheds_new_work() {
    let h = Harness::start("drain", ServePolicy::for_tests());

    // An in-flight slow request...
    let addr = h.addr;
    let slow = std::thread::spawn(move || {
        http_call(
            addr,
            "POST",
            "/query",
            Harness::query_body(r#","test_delay_ms":300"#).as_bytes(),
            TIMEOUT,
        )
        .expect("in-flight request answered")
    });
    std::thread::sleep(Duration::from_millis(100));

    // ...survives the shutdown and completes as a 200...
    h.handle.shutdown();
    let resp = slow.join().expect("slow client thread");
    assert_eq!(
        resp.status,
        200,
        "in-flight work finishes: {}",
        resp.body_text()
    );

    // ...while new work after the drain began is shed with 503.
    let resp = http_call(
        h.addr,
        "POST",
        "/query",
        Harness::query_body("").as_bytes(),
        TIMEOUT,
    );
    // (An Err is equally fine: the listener may already be gone.)
    if let Ok(resp) = resp {
        assert_eq!(resp.status, 503, "draining sheds: {}", resp.body_text());
        assert!(resp.header("retry-after").is_some());
    }
}
