//! End-to-end smoke test for `flexpath-serve`, runnable from CI: boot the
//! server over a small XMark store, drive every endpoint through the real
//! HTTP client, prove the robustness headlines (server-clamped limits,
//! budget trips degrading into partials with `Retry-After`, drain
//! shedding with typed 503s), and exit non-zero (panic) on any
//! divergence.
//!
//! It also checks the front door: the p50 of a `/query` on a fresh
//! connection must stay within 4× of the same call on a kept-alive one.
//! The bound is a ratio, not milliseconds, because host speed drifts
//! between CI machines while a clock-driven accept loop would add a fixed
//! tick to every fresh connection on all of them.

use flexpath::FleXPath;
use flexpath_serve::{
    http_call, Client, ClientError, ClientResponse, ServePolicy, Server, ServerState,
};
use flexpath_xmark::{generate, XmarkConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERY: &str = "//item[./description/parlist and ./mailbox/mail/text]";
const TIMEOUT: Duration = Duration::from_secs(5);
/// The front-door probe: a cheap query, so connection setup dominates.
const PROBE: &str = r#"{"catalog":"doc","query":"//item[./name]","k":5}"#;
const PROBE_CALLS: usize = 200;

fn main() {
    let dir = std::path::Path::new("target/smoke/serve");
    let _ = std::fs::remove_dir_all(dir);

    // A catalog with one stored document, loaded through the real
    // FXPSTORE path (not injected) so the smoke covers store -> session.
    let state = ServerState::open(dir).expect("catalog opens");
    let flex = FleXPath::new(generate(&XmarkConfig::sized(128 * 1024, 1)));
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
    drop(flex);

    let server = Server::bind("127.0.0.1:0", Arc::new(state), ServePolicy::for_tests())
        .expect("binds port 0");
    let addr = server.local_addr().expect("bound addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server runs"));

    // A complete query answers 200 with hits.
    let body = format!(r#"{{"catalog":"doc","query":"{QUERY}","k":5}}"#);
    let resp = http_call(addr, "POST", "/query", body.as_bytes(), TIMEOUT).expect("query");
    assert_eq!(resp.status, 200, "query: {}", resp.body_text());
    assert!(resp.body_text().contains(r#""complete":true"#));
    println!("query OK: {} bytes", resp.body.len());

    // A budget trip degrades into a 200 partial with Retry-After.
    let body = format!(r#"{{"catalog":"doc","query":"{QUERY}","k":5,"max_candidates":0}}"#);
    let resp = http_call(addr, "POST", "/query", body.as_bytes(), TIMEOUT).expect("partial");
    assert_eq!(resp.status, 200, "partial: {}", resp.body_text());
    assert!(resp.body_text().contains(r#""reason":"answer_budget""#));
    assert!(resp.header("retry-after").is_some());
    println!("degradation OK: partial + Retry-After");

    // Explain, catalogs, metrics, health all answer.
    let body = format!(r#"{{"catalog":"doc","query":"{QUERY}","k":5}}"#);
    let resp = http_call(addr, "POST", "/explain", body.as_bytes(), TIMEOUT).expect("explain");
    assert_eq!(resp.status, 200);
    let resp = http_call(addr, "GET", "/catalogs", b"", TIMEOUT).expect("catalogs");
    assert!(resp.body_text().contains(r#""doc""#));
    let resp = http_call(addr, "GET", "/metrics", b"", TIMEOUT).expect("metrics");
    assert!(resp.body_text().contains("serve_requests"));
    let resp = http_call(addr, "GET", "/healthz", b"", TIMEOUT).expect("healthz");
    assert_eq!(resp.status, 200);
    println!("endpoints OK: explain, catalogs, metrics, healthz");

    // Malformed bytes get a typed status, not a hang or a panic.
    let resp = http_call(addr, "POST", "/query", b"{broken", TIMEOUT).expect("bad json");
    assert_eq!(resp.status, 400);

    // The front door, in two blocks: interleaved, each fresh connection's
    // teardown would overlap the kept-alive call after it.
    let fresh_ms = (0..PROBE_CALLS)
        .map(|_| timed_ms(|| http_call(addr, "POST", "/query", PROBE.as_bytes(), TIMEOUT)))
        .collect();
    let mut client = Client::connect(addr, TIMEOUT);
    let kept_ms = (0..PROBE_CALLS)
        .map(|_| timed_ms(|| client.call("POST", "/query", PROBE.as_bytes())))
        .collect();
    let (fresh, kept) = (p50(fresh_ms), p50(kept_ms));
    println!("front door: fresh p50 {fresh:.3} ms, kept-alive p50 {kept:.3} ms");
    assert!(
        fresh <= 4.0 * kept,
        "a fresh connection costs {:.1}× a kept-alive one (bound 4×)",
        fresh / kept
    );

    // Drain: shutdown answers new work with 503 and run() returns.
    handle.shutdown();
    if let Ok(resp) = http_call(addr, "GET", "/healthz", b"", TIMEOUT) {
        assert_eq!(resp.status, 503, "draining healthz: {}", resp.body_text());
    }
    join.join().expect("server thread");
    println!("drain OK: serve smoke passed");
}

/// Wall time of one probe call in ms; panics unless it answered 200.
fn timed_ms(call: impl FnOnce() -> Result<ClientResponse, ClientError>) -> f64 {
    let started = Instant::now();
    let resp = call().expect("probe call");
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(resp.status, 200, "probe: {}", resp.body_text());
    ms
}

fn p50(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
