//! Closed-loop load benchmark for `flexpath-serve`.
//!
//! Boots an in-process server over an XMark session and drives it with a
//! sweep of closed-loop client fleets (each client issues its next
//! request the moment the previous response lands). For every
//! concurrency level the run records throughput, latency percentiles,
//! and the *outcome mix* — complete `200`s, degraded `200` partials, and
//! typed `429`/`503` sheds — so the resulting series shows the
//! shed-vs-degrade knee: where admission control starts trading answers
//! for stability instead of queueing itself to death.
//!
//! Driven by `repro --serve-load results/serve_load.json`.

use flexpath::FleXPath;
use flexpath_serve::{Client, ServePolicy, Server, ServerState};
use flexpath_xmark::{generate, XmarkConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The query every load client issues (structure + full-text, relaxable).
const QUERY: &str = "//item[./description/parlist and ./mailbox/mail/text[.contains(\"gold\")]]";

/// One concurrency level's aggregate results.
#[derive(Debug, Clone)]
pub struct LoadCell {
    /// Closed-loop clients driving the server.
    pub clients: usize,
    /// Requests answered `200` with `"complete": true`.
    pub complete: u64,
    /// Requests answered `200` as budget-degraded partials.
    pub partial: u64,
    /// Requests shed with `429`/`503`.
    pub shed: u64,
    /// Client-side errors (connect refused, timeouts).
    pub errors: u64,
    /// Answered requests (complete + partial + shed) per second.
    pub qps: f64,
    /// Latency percentiles over answered requests, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
}

/// The whole sweep plus the policy knobs that shaped it.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Corpus size driven through the server, bytes.
    pub corpus_bytes: usize,
    /// Query execution slots at full ramp.
    pub max_concurrent_queries: usize,
    /// Wall-clock spent measuring each cell, milliseconds.
    pub cell_millis: u64,
    /// One cell per closed-loop concurrency level.
    pub cells: Vec<LoadCell>,
}

impl LoadReport {
    /// Machine-readable report for `results/serve_load.json`.
    pub fn render_json(&self) -> String {
        let mut s = format!(
            "{{\"benchmark\":\"serve_load\",\"corpus_bytes\":{},\
             \"max_concurrent_queries\":{},\"cell_millis\":{},\"cells\":[",
            self.corpus_bytes, self.max_concurrent_queries, self.cell_millis
        );
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"clients\":{},\"complete\":{},\"partial\":{},\"shed\":{},\
                 \"errors\":{},\"qps\":{:.1},\"p50_us\":{},\"p95_us\":{},\
                 \"p99_us\":{}}}",
                c.clients,
                c.complete,
                c.partial,
                c.shed,
                c.errors,
                c.qps,
                c.p50_us,
                c.p95_us,
                c.p99_us
            ));
        }
        s.push_str("]}");
        s
    }

    /// Human-readable table for the console.
    pub fn render_table(&self) -> String {
        let mut s = format!(
            "serve_load: {} B corpus, {} query slots, {} ms/cell\n\
             {:>8} {:>10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9} {:>9}\n",
            self.corpus_bytes,
            self.max_concurrent_queries,
            self.cell_millis,
            "clients",
            "qps",
            "complete",
            "partial",
            "shed",
            "errors",
            "p50_us",
            "p95_us",
            "p99_us",
        );
        for c in &self.cells {
            s.push_str(&format!(
                "{:>8} {:>10.1} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9} {:>9}\n",
                c.clients,
                c.qps,
                c.complete,
                c.partial,
                c.shed,
                c.errors,
                c.p50_us,
                c.p95_us,
                c.p99_us
            ));
        }
        s
    }
}

/// Runs the sweep: one in-process server, closed-loop fleets of
/// 1..=`max_clients` (powers of two), `cell_millis` of measurement per
/// level after a short warmup.
pub fn run(scale: f64) -> LoadReport {
    let corpus_bytes = ((256.0 * 1024.0) * scale.max(0.05)) as usize;
    let cell_millis = ((400.0 * scale.max(0.05)) as u64).clamp(150, 5_000);
    let max_clients = 32usize;

    let policy = ServePolicy {
        // A small, fixed slot count makes the knee land inside the sweep
        // regardless of the host's core count.
        max_concurrent_queries: 4,
        initial_concurrent_queries: 4,
        admission_queue_depth: 8,
        admission_timeout: Duration::from_millis(100),
        conn_queue_depth: 16,
        workers: 16,
        // A tight deadline so the overloaded tail degrades into partials
        // rather than queueing: that is the knee the figure shows.
        default_deadline: Duration::from_millis(50),
        ..ServePolicy::default()
    };
    let max_concurrent_queries = policy.max_concurrent_queries;

    let dir = crate::scratch::ScratchDir::new("serve-load");
    let state = ServerState::open(dir.path()).expect("catalog opens");
    state.insert_session(
        "doc",
        FleXPath::new(generate(&XmarkConfig::sized(corpus_bytes, 7))),
    );
    let server = Server::bind("127.0.0.1:0", Arc::new(state), policy).expect("binds port 0");
    let addr = server.local_addr().expect("bound addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    let mut cells = Vec::new();
    let mut clients = 1usize;
    while clients <= max_clients {
        cells.push(run_cell(addr, clients, cell_millis));
        clients *= 2;
    }

    handle.shutdown();
    let _ = server_thread.join();
    LoadReport {
        corpus_bytes,
        max_concurrent_queries,
        cell_millis,
        cells,
    }
}

/// One concurrency level: `clients` closed-loop threads for
/// `cell_millis` ms (plus a 20% warmup that is not recorded).
fn run_cell(addr: SocketAddr, clients: usize, cell_millis: u64) -> LoadCell {
    // The query's inner quotes must be JSON-escaped inside the body.
    let escaped = QUERY.replace('"', "\\\"");
    let body = format!(r#"{{"catalog":"doc","query":"{escaped}","k":10}}"#);
    let warmup = Duration::from_millis(cell_millis / 5);
    let measure = Duration::from_millis(cell_millis);
    let stop = AtomicBool::new(false);
    let tally: Mutex<(u64, u64, u64, u64, Vec<u64>)> = Mutex::new((0, 0, 0, 0, Vec::new()));

    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = Client::connect(addr, Duration::from_secs(5));
                let mut local = (0u64, 0u64, 0u64, 0u64, Vec::new());
                let start = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    let begin = Instant::now();
                    let resp = client.call("POST", "/query", body.as_bytes());
                    let in_warmup = start.elapsed() < warmup;
                    match resp {
                        Ok(resp) if !in_warmup => {
                            local.4.push(begin.elapsed().as_micros() as u64);
                            match resp.status {
                                200 if resp.body_text().contains("\"complete\":true") => {
                                    local.0 += 1
                                }
                                200 => local.1 += 1,
                                429 | 503 => local.2 += 1,
                                _ => local.3 += 1,
                            }
                        }
                        Err(_) if !in_warmup => local.3 += 1,
                        _ => {}
                    }
                }
                let mut t = tally.lock().unwrap_or_else(|e| e.into_inner());
                t.0 += local.0;
                t.1 += local.1;
                t.2 += local.2;
                t.3 += local.3;
                t.4.extend(local.4);
            });
        }
        std::thread::sleep(warmup + measure);
        stop.store(true, Ordering::Relaxed);
    });

    let (complete, partial, shed, errors, mut lat) =
        tally.into_inner().unwrap_or_else(|e| e.into_inner());
    lat.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        let idx = ((lat.len() as f64 - 1.0) * p) as usize;
        lat[idx.min(lat.len() - 1)]
    };
    let answered = complete + partial + shed;
    LoadCell {
        clients,
        complete,
        partial,
        shed,
        errors,
        qps: answered as f64 / measure.as_secs_f64(),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
    }
}
