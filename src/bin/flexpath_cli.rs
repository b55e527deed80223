//! `flexpath-cli` — run flexible XPath + full-text queries against an XML
//! file (or a prebuilt persistent store) from the command line.
//!
//! ```text
//! flexpath-cli <corpus.xml> '<query>' [options]
//! flexpath-cli --store DIR <name> '<query>' [options]
//! flexpath-cli index <corpus.xml> --store DIR [--name NAME]
//! flexpath-cli serve --store DIR [--addr HOST:PORT] [options]
//! flexpath-cli store inspect <file.fxs>
//!
//! options:
//!   --store DIR           store directory: `index` writes into it; query
//!                         mode loads <name> from it instead of parsing XML
//!   --name NAME           document name in the store (default: file stem)
//!   --k N                 number of answers (default 10)
//!   --algorithm A         dpo | sso | hybrid (default hybrid)
//!   --scheme S            structure | keyword | combined (default structure)
//!   --explain             print the relaxation schedule before the results
//!   --plan                print the relaxation-encoded plan (Figure 8 style)
//!   --xml                 print each answer's XML subtree
//!   --snippet N           snippet length in characters (default 80)
//!   --highlight           mark the query keywords in snippets
//!   --paths               print each answer's node path
//!   --stats               print execution statistics
//!   --trace               print the execution trace (span tree with
//!                         per-round counters) after the results
//!   --trace-json          print the execution trace as JSON
//!   --metrics             print the process-wide engine metrics registry
//!                         in Prometheus text exposition (as GET /metrics)
//!   --deadline-ms N       stop after N milliseconds with the best answers
//!                         found so far
//!   --addr HOST:PORT      serve: listen address (default 127.0.0.1:7171)
//!   --workers N           serve: connection worker threads
//!   --queue N             serve: accepted-connection queue depth
//!   --max-concurrent N    serve: concurrent query execution slots
//!   --drain-ms N          serve: drain deadline after SIGINT
//!   --slow-ms N           serve: slow-query threshold in milliseconds
//!   --slow-log PATH       serve: append slow queries to PATH (JSON lines)
//! ```
//!
//! `serve` starts the overload-safe HTTP query service over a store
//! directory (`POST /query`, `POST /explain`, `GET /catalogs`,
//! `GET /metrics` in Prometheus text exposition, `GET /healthz`,
//! `GET /version`, and the flight-recorder endpoints `GET /debug/queries`
//! / `GET /debug/slow`). Queries at or above `--slow-ms` land in the slow
//! ring and, with `--slow-log`, in a JSON-lines log file. SIGINT drains:
//! in-flight requests finish (bounded by `--drain-ms`), new work is shed
//! with 429/503.
//!
//! On Unix, Ctrl-C cancels a running query at its next checkpoint: the best
//! answers found so far are printed together with a note that the search
//! was interrupted.
//!
//! Example:
//!
//! ```text
//! flexpath-cli articles.xml \
//!   '//article[./section[./algorithm and ./paragraph[.contains("XML" and "streaming")]]]' \
//!   --k 5 --explain
//! ```

use flexpath::{
    explain_answer, explain_plan, explain_schedule, Algorithm, CancelToken, Catalog, FleXPath,
    RankingScheme, StoreBuilder,
};
use flexpath_serve::json::JsonBuf;
use flexpath_serve::routes::render_prometheus;
use flexpath_serve::{ServePolicy, Server, ServerState};
use std::path::Path;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Duration;

/// The token the SIGINT handler flips; installed once before the query runs.
static CANCEL: OnceLock<CancelToken> = OnceLock::new();

/// Installs a Ctrl-C (SIGINT) handler that cancels the running query.
///
/// Uses a raw `signal(2)` registration to stay dependency-free; the handler
/// only performs an atomic store, which is async-signal-safe.
#[cfg(unix)]
fn install_ctrl_c(token: &CancelToken) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    extern "C" fn on_sigint(_: i32) {
        if let Some(t) = CANCEL.get() {
            t.cancel();
        }
    }
    if CANCEL.set(token.clone()).is_ok() {
        // SAFETY: both handlers are async-signal-safe — `on_sigint` only
        // performs an atomic store, and SIG_DFL restores the default
        // disposition; the fn pointers outlive the process.
        // lint:allow(unsafe-boundary): the CLI's dependency-free signal(2)
        // registration is the one non-library unsafe site; the module
        // allowlist deliberately stays store::mmap-only.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
            // Since we survive Ctrl-C, a piped consumer (`… | head`) may be
            // gone by the time partial results are printed. Restore the
            // default SIGPIPE disposition (Rust ignores it at startup) so a
            // closed pipe ends the process quietly instead of panicking.
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(not(unix))]
fn install_ctrl_c(_token: &CancelToken) {}

/// What the invocation asks for: run a query, or build a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `flexpath-cli <corpus.xml|name> '<query>' …`
    Query,
    /// `flexpath-cli index <corpus.xml> --store DIR [--name NAME]`
    Index,
    /// `flexpath-cli serve --store DIR [--addr HOST:PORT] …`
    Serve,
    /// `flexpath-cli store inspect <file.fxs>`
    StoreInspect,
}

struct Options {
    mode: Mode,
    corpus: String,
    query: String,
    store: Option<String>,
    name: Option<String>,
    k: usize,
    algorithm: Algorithm,
    scheme: RankingScheme,
    explain: bool,
    plan: bool,
    xml: bool,
    snippet: usize,
    highlight: bool,
    paths: bool,
    stats: bool,
    trace: bool,
    trace_json: bool,
    metrics: bool,
    deadline_ms: Option<u64>,
    addr: String,
    workers: Option<usize>,
    queue: Option<usize>,
    max_concurrent: Option<usize>,
    drain_ms: Option<u64>,
    slow_ms: Option<u64>,
    slow_log: Option<String>,
}

/// Every flag the parser accepts, with `true` for flags that consume a
/// value. The usage text is generated from this table, so the help output
/// can never drift from what the parser actually accepts again.
const FLAGS: &[(&str, bool, &str)] = &[
    ("--k", true, "number of answers (default 10)"),
    ("--algorithm", true, "dpo | sso | hybrid (default hybrid)"),
    (
        "--scheme",
        true,
        "structure | keyword | combined (default structure)",
    ),
    ("--explain", false, "print the relaxation schedule first"),
    ("--plan", false, "print the relaxation-encoded plan"),
    ("--xml", false, "print each answer's XML subtree"),
    (
        "--snippet",
        true,
        "snippet length in characters (default 80)",
    ),
    ("--highlight", false, "mark the query keywords in snippets"),
    ("--paths", false, "print each answer's node path"),
    ("--stats", false, "print execution statistics"),
    ("--trace", false, "print the execution trace (span tree)"),
    ("--trace-json", false, "print the execution trace as JSON"),
    (
        "--metrics",
        false,
        "print the engine metrics as Prometheus text",
    ),
    (
        "--deadline-ms",
        true,
        "stop after N ms with best answers so far",
    ),
    (
        "--store",
        true,
        "store directory; query mode loads <name> from it",
    ),
    (
        "--name",
        true,
        "document name in the store (default: file stem)",
    ),
    (
        "--addr",
        true,
        "serve: listen address (default 127.0.0.1:7171)",
    ),
    ("--workers", true, "serve: connection worker threads"),
    ("--queue", true, "serve: accepted-connection queue depth"),
    ("--max-concurrent", true, "serve: concurrent query slots"),
    ("--drain-ms", true, "serve: drain deadline after SIGINT"),
    (
        "--slow-ms",
        true,
        "serve: slow-query threshold in milliseconds",
    ),
    (
        "--slow-log",
        true,
        "serve: append slow queries to PATH (JSON lines)",
    ),
    ("--help", false, "print this help"),
];

fn usage_text() -> String {
    let mut out = String::from(
        "usage: flexpath-cli <corpus.xml> '<query>' [options]\n\
         \x20      flexpath-cli --store DIR <name> '<query>' [options]\n\
         \x20      flexpath-cli index <corpus.xml> --store DIR [--name NAME]\n\
         \x20      flexpath-cli store inspect <file.fxs>\n\noptions:\n",
    );
    for (flag, takes_value, help) in FLAGS {
        let arg = if *takes_value {
            format!("{flag} N")
        } else {
            (*flag).to_string()
        };
        out.push_str(&format!("  {arg:<18} {help}\n"));
    }
    out
}

fn usage() -> ExitCode {
    eprint!("{}", usage_text());
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    parse_args_from(std::env::args().skip(1).collect())
}

fn parse_args_from(mut args: Vec<String>) -> Result<Options, ExitCode> {
    let mode = match args.first().map(String::as_str) {
        Some("index") => {
            args.remove(0);
            Mode::Index
        }
        Some("serve") => {
            args.remove(0);
            Mode::Serve
        }
        Some("store") => {
            args.remove(0);
            Mode::StoreInspect
        }
        _ => Mode::Query,
    };
    let mut positional: Vec<String> = Vec::new();
    let mut opts = Options {
        mode,
        corpus: String::new(),
        query: String::new(),
        store: None,
        name: None,
        k: 10,
        algorithm: Algorithm::Hybrid,
        scheme: RankingScheme::StructureFirst,
        explain: false,
        plan: false,
        xml: false,
        snippet: 80,
        highlight: false,
        paths: false,
        stats: false,
        trace: false,
        trace_json: false,
        metrics: false,
        deadline_ms: None,
        addr: "127.0.0.1:7171".to_string(),
        workers: None,
        queue: None,
        max_concurrent: None,
        drain_ms: None,
        slow_ms: None,
        slow_log: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--k" => {
                i += 1;
                opts.k = args.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?;
            }
            "--algorithm" => {
                i += 1;
                opts.algorithm = match args.get(i).map(String::as_str) {
                    Some("dpo") => Algorithm::Dpo,
                    Some("sso") => Algorithm::Sso,
                    Some("hybrid") => Algorithm::Hybrid,
                    _ => return Err(usage()),
                };
            }
            "--scheme" => {
                i += 1;
                opts.scheme = match args.get(i).map(String::as_str) {
                    Some("structure") => RankingScheme::StructureFirst,
                    Some("keyword") => RankingScheme::KeywordFirst,
                    Some("combined") => RankingScheme::Combined,
                    _ => return Err(usage()),
                };
            }
            "--snippet" => {
                i += 1;
                opts.snippet = args.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?;
            }
            "--deadline-ms" => {
                i += 1;
                opts.deadline_ms =
                    Some(args.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?);
            }
            "--store" => {
                i += 1;
                opts.store = Some(args.get(i).cloned().ok_or_else(usage)?);
            }
            "--name" => {
                i += 1;
                opts.name = Some(args.get(i).cloned().ok_or_else(usage)?);
            }
            "--addr" => {
                i += 1;
                opts.addr = args.get(i).cloned().ok_or_else(usage)?;
            }
            "--workers" => {
                i += 1;
                opts.workers = Some(args.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?);
            }
            "--queue" => {
                i += 1;
                opts.queue = Some(args.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?);
            }
            "--max-concurrent" => {
                i += 1;
                opts.max_concurrent =
                    Some(args.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?);
            }
            "--drain-ms" => {
                i += 1;
                opts.drain_ms = Some(args.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?);
            }
            "--slow-ms" => {
                i += 1;
                opts.slow_ms = Some(args.get(i).and_then(|s| s.parse().ok()).ok_or_else(usage)?);
            }
            "--slow-log" => {
                i += 1;
                opts.slow_log = Some(args.get(i).cloned().ok_or_else(usage)?);
            }
            "--explain" => opts.explain = true,
            "--plan" => opts.plan = true,
            "--xml" => opts.xml = true,
            "--highlight" => opts.highlight = true,
            "--paths" => opts.paths = true,
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = true,
            "--trace-json" => opts.trace_json = true,
            "--metrics" => opts.metrics = true,
            "--help" | "-h" => return Err(usage()),
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    match opts.mode {
        Mode::Query => {
            // Two positionals: the corpus (an XML path, or with `--store`
            // a document name inside the store) and the query.
            if positional.len() != 2 {
                return Err(usage());
            }
            opts.corpus = positional.remove(0);
            opts.query = positional.remove(0);
        }
        Mode::Index => {
            if positional.len() != 1 || opts.store.is_none() {
                return Err(usage());
            }
            opts.corpus = positional.remove(0);
        }
        Mode::Serve => {
            if !positional.is_empty() || opts.store.is_none() {
                return Err(usage());
            }
        }
        Mode::StoreInspect => {
            // `store inspect <file>`: the subcommand word plus a file path.
            if positional.len() != 2 || positional[0] != "inspect" {
                return Err(usage());
            }
            opts.corpus = positional.remove(1);
        }
    }
    Ok(opts)
}

/// The document name used when `--name` is absent: the corpus file stem.
fn default_name(corpus: &str) -> String {
    Path::new(corpus)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("document")
        .to_string()
}

/// `flexpath-cli index`: parse + preprocess the corpus once and persist it.
fn run_index(opts: &Options, store_dir: &str) -> ExitCode {
    let xml = match std::fs::read_to_string(&opts.corpus) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.corpus);
            return ExitCode::FAILURE;
        }
    };
    let flex = match FleXPath::from_xml(&xml) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", opts.corpus);
            return ExitCode::FAILURE;
        }
    };
    let name = opts
        .name
        .clone()
        .unwrap_or_else(|| default_name(&opts.corpus));
    let catalog = match Catalog::open(Path::new(store_dir)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot open store {store_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = flex.context();
    let builder = StoreBuilder::from_parts(&name, ctx.doc(), ctx.stats(), ctx.index());
    match catalog.save(&builder) {
        Ok(path) => {
            let meta = builder.meta();
            println!(
                "indexed {} -> {} ({} nodes, {} terms, {} posting entries)",
                opts.corpus,
                path.display(),
                meta.nodes,
                meta.terms,
                meta.posting_entries
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write store: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `flexpath-cli store inspect`: dump a store file's section table —
/// container version, per-section offsets/lengths, and CRC verification
/// state — without decoding any payload. Works on damaged files (that is
/// the point): payload corruption shows as `crc FAIL`, and only an
/// unparseable header is fatal.
fn run_store_inspect(path: &str) -> ExitCode {
    let report = match flexpath_store::inspect_file(Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot inspect {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{path}: FXPSTORE v{} ({} bytes, aligned layout, columns, lazy decode)",
        flexpath_store::FORMAT_VERSION,
        report.file_bytes,
    );
    match &report.meta {
        Some(meta) => println!(
            "document {:?}: {} nodes, {} terms, {} posting entries",
            meta.name, meta.nodes, meta.terms, meta.posting_entries
        ),
        None => println!("document meta unreadable"),
    }
    println!(
        "{:<4} {:<10} {:>10} {:>12} {:>10}  crc",
        "id", "section", "offset", "len", "stored"
    );
    for s in &report.sections {
        println!(
            "{:<4} {:<10} {:>10} {:>12} {:>10}  {}",
            s.id,
            s.name,
            s.offset,
            s.len,
            format!("{:08x}", s.crc_stored),
            if s.crc_ok { "ok" } else { "FAIL" }
        );
    }
    if report.all_crc_ok() {
        println!("all sections verified");
        ExitCode::SUCCESS
    } else {
        println!("CORRUPT: one or more sections failed verification");
        ExitCode::FAILURE
    }
}

/// `flexpath-cli serve`: run the HTTP query service until SIGINT drains it.
fn run_serve(opts: &Options, store_dir: &str) -> ExitCode {
    let state = match ServerState::open(Path::new(store_dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open store {store_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let docs = state.catalog().list().map(|l| l.len()).unwrap_or(0);
    let mut policy = ServePolicy::default();
    if let Some(n) = opts.workers {
        policy.workers = n.max(1);
    }
    if let Some(n) = opts.queue {
        policy.conn_queue_depth = n;
    }
    if let Some(n) = opts.max_concurrent {
        policy.max_concurrent_queries = n.max(1);
        policy.initial_concurrent_queries = policy.initial_concurrent_queries.min(n.max(1));
    }
    if let Some(ms) = opts.drain_ms {
        policy.drain_deadline = Duration::from_millis(ms);
    }
    if let Some(ms) = opts.deadline_ms {
        policy.default_deadline = Duration::from_millis(ms);
    }
    if let Some(ms) = opts.slow_ms {
        policy.slow_query_threshold = Duration::from_millis(ms);
    }
    if let Some(path) = &opts.slow_log {
        policy.slow_log = Some(std::path::PathBuf::from(path));
    }
    let server = match Server::bind(&opts.addr, std::sync::Arc::new(state), policy) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a.to_string(),
        Err(_) => opts.addr.clone(),
    };
    println!("flexpath-serve: store {store_dir} ({docs} documents) on http://{addr}");
    println!(
        "endpoints: POST /query /explain · GET /catalogs /metrics /healthz /version \
         /debug/queries /debug/slow"
    );
    println!("Ctrl-C drains: in-flight requests finish, new work is shed");

    // SIGINT flips the CancelToken (async-signal-safe); a monitor thread
    // translates that into the server's drain sequence.
    let cancel = CancelToken::new();
    install_ctrl_c(&cancel);
    let handle = server.handle();
    std::thread::spawn(move || {
        while !cancel.is_cancelled() {
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("flexpath-serve: draining…");
        handle.shutdown();
    });
    match server.run() {
        Ok(()) => {
            println!("flexpath-serve: drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    if opts.mode == Mode::Serve {
        // `parse_args_from` guarantees --store is present in serve mode.
        let store_dir = opts.store.clone().unwrap_or_default();
        return run_serve(&opts, &store_dir);
    }

    if opts.mode == Mode::Index {
        // `parse_args_from` guarantees --store is present in index mode.
        let store_dir = opts.store.clone().unwrap_or_default();
        return run_index(&opts, &store_dir);
    }

    if opts.mode == Mode::StoreInspect {
        return run_store_inspect(&opts.corpus);
    }

    let flex = match &opts.store {
        // `--store DIR`: the first positional is a document name in the
        // catalog; the parse/stats/index cold start is skipped entirely.
        Some(dir) => {
            let catalog = match Catalog::open(Path::new(dir)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot open store {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Lazy open: header + meta validate in O(ms); sections decode
            // on first touch, so a structure-only query never pays for the
            // postings. `execute` below turns first-touch corruption
            // into a typed failure instead of a panic.
            match catalog.open_lazy(&opts.corpus) {
                Ok(store) => FleXPath::from_lazy_store(store),
                Err(e) => {
                    eprintln!("cannot load {:?} from store {dir}: {e}", opts.corpus);
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let xml = match std::fs::read_to_string(&opts.corpus) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", opts.corpus);
                    return ExitCode::FAILURE;
                }
            };
            match FleXPath::from_xml(&xml) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot parse {}: {e}", opts.corpus);
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let (query, tpq) = match (flex.query(&opts.query), flexpath::parse_query(&opts.query)) {
        (Ok(q), Ok(t)) => (q, t),
        (Err(e), _) => {
            eprintln!("bad query: {e}");
            return ExitCode::FAILURE;
        }
        (_, Err(e)) => {
            eprintln!("bad query: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.explain || opts.plan {
        // The explain renderers use the infallible context accessors;
        // materialize the structural parts first so a corrupt store file
        // fails with a message, not a panic.
        if let Err(e) = flex.materialize(false) {
            eprintln!("cannot read store sections: {e}");
            return ExitCode::FAILURE;
        }
        if opts.explain {
            print!("{}", explain_schedule(flex.context(), &tpq, 32));
            println!();
        }
        if opts.plan {
            print!("{}", explain_plan(flex.context(), &tpq, 32));
            println!();
        }
    }

    let cancel = CancelToken::new();
    install_ctrl_c(&cancel);
    let mut query = query
        .top(opts.k)
        .algorithm(opts.algorithm)
        .scheme(opts.scheme)
        .cancel(cancel);
    if let Some(ms) = opts.deadline_ms {
        query = query.deadline(Duration::from_millis(ms));
    }
    if opts.trace || opts.trace_json {
        query = query.trace();
    }
    let results = match query.execute() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("query failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !results.is_complete() {
        println!("note: search interrupted ({})", results.completeness);
    }
    if results.hits.is_empty() {
        if results.is_complete() {
            println!("no answers (even after relaxation)");
        } else {
            println!("no answers found before the search was interrupted");
        }
        return ExitCode::SUCCESS;
    }
    for (rank, hit) in results.hits.iter().enumerate() {
        println!("#{:<3} {}", rank + 1, explain_answer(flex.context(), hit));
        if opts.paths {
            println!("     {}", flex.path_of(hit.node));
        }
        if opts.xml {
            println!("{}", flex.xml_of(hit.node));
        } else if opts.highlight {
            let style = flexpath_ftsearch::HighlightStyle {
                max_chars: opts.snippet,
                ..Default::default()
            };
            println!("     {}", flex.highlight_styled(hit.node, &tpq, &style));
        } else {
            println!("     {}", flex.snippet(hit.node, opts.snippet));
        }
    }
    if opts.stats {
        let s = &results.stats;
        println!(
            "\nstats: algorithm={} relaxations={} evaluations={} intermediates={} \
             pruned={} buckets={} restarts={}",
            results.algorithm,
            s.relaxations_used,
            s.evaluations,
            s.intermediate_answers,
            s.pruned,
            s.buckets,
            s.restarts
        );
    }
    if let Some(trace) = &results.trace {
        if opts.trace {
            // The store-load span is printed separately from the query
            // trace: it belongs to the session, and query fingerprints
            // must match the in-memory path exactly.
            if let Some(span) = flex.store_trace() {
                println!(
                    "\n-- store --\nstore.open [{:.3} ms]{}",
                    span.duration.as_secs_f64() * 1e3,
                    span.counters
                        .iter()
                        .map(|(k, v)| format!(" {k}={v}"))
                        .collect::<String>()
                );
            }
            println!("\n-- trace --");
            print!("{}", trace.render_text());
        }
        if opts.trace_json {
            let mut b = JsonBuf::new();
            b.trace(trace);
            println!("{}", b.finish());
        }
    }
    if opts.metrics {
        println!("\n-- engine metrics --");
        print!("{}", render_prometheus(&flexpath::engine_metrics()));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_accepted_flag() {
        // The parser and the help text share the FLAGS table; this guards
        // the table itself against missing entries for hand-written match
        // arms (and vice versa) by exercising both sides.
        let text = usage_text();
        for (flag, _, _) in FLAGS {
            assert!(text.contains(flag), "usage text is missing {flag}");
        }
    }

    #[test]
    fn parser_accepts_every_flag_in_the_table() {
        let mut args = vec!["corpus.xml".to_string(), "//a".to_string()];
        for (flag, takes_value, _) in FLAGS {
            if *flag == "--help" {
                continue; // exits with usage by design
            }
            args.push((*flag).to_string());
            if *takes_value {
                // Every value-taking flag accepts a number except the two
                // enum-valued ones.
                args.push(
                    match *flag {
                        "--algorithm" => "dpo",
                        "--scheme" => "combined",
                        _ => "3",
                    }
                    .to_string(),
                );
            }
        }
        let opts = parse_args_from(args).expect("all flags parse");
        assert_eq!(opts.mode, Mode::Query);
        assert_eq!(opts.k, 3);
        assert_eq!(opts.algorithm, Algorithm::Dpo);
        assert_eq!(opts.scheme, RankingScheme::Combined);
        assert!(opts.explain && opts.plan && opts.xml && opts.highlight);
        assert!(opts.paths && opts.stats && opts.trace && opts.trace_json);
        assert!(opts.metrics);
        assert_eq!(opts.deadline_ms, Some(3));
        assert_eq!(opts.snippet, 3);
        assert_eq!(opts.store.as_deref(), Some("3"));
        assert_eq!(opts.name.as_deref(), Some("3"));
        assert_eq!(opts.addr, "3");
        assert_eq!(opts.workers, Some(3));
        assert_eq!(opts.queue, Some(3));
        assert_eq!(opts.max_concurrent, Some(3));
        assert_eq!(opts.drain_ms, Some(3));
        assert_eq!(opts.slow_ms, Some(3));
        assert_eq!(opts.slow_log.as_deref(), Some("3"));
        // With --store, the first positional is a document name.
        assert_eq!(opts.corpus, "corpus.xml");
        assert_eq!(opts.query, "//a");
    }

    #[test]
    fn index_mode_requires_corpus_and_store() {
        let opts = parse_args_from(vec![
            "index".into(),
            "corpus.xml".into(),
            "--store".into(),
            "stores".into(),
            "--name".into(),
            "auctions".into(),
        ])
        .expect("index invocation parses");
        assert_eq!(opts.mode, Mode::Index);
        assert_eq!(opts.corpus, "corpus.xml");
        assert_eq!(opts.store.as_deref(), Some("stores"));
        assert_eq!(opts.name.as_deref(), Some("auctions"));
        // Missing --store: rejected.
        assert!(parse_args_from(vec!["index".into(), "corpus.xml".into()]).is_err());
        // Extra positional: rejected.
        assert!(parse_args_from(vec![
            "index".into(),
            "a.xml".into(),
            "b.xml".into(),
            "--store".into(),
            "s".into()
        ])
        .is_err());
    }

    #[test]
    fn store_query_mode_takes_name_and_query() {
        let opts = parse_args_from(vec![
            "--store".into(),
            "stores".into(),
            "auctions".into(),
            "//item".into(),
        ])
        .expect("store query parses");
        assert_eq!(opts.mode, Mode::Query);
        assert_eq!(opts.store.as_deref(), Some("stores"));
        assert_eq!(opts.corpus, "auctions");
        assert_eq!(opts.query, "//item");
    }

    #[test]
    fn serve_mode_requires_store_and_no_positionals() {
        let opts = parse_args_from(vec![
            "serve".into(),
            "--store".into(),
            "stores".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            "2".into(),
        ])
        .expect("serve invocation parses");
        assert_eq!(opts.mode, Mode::Serve);
        assert_eq!(opts.store.as_deref(), Some("stores"));
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.workers, Some(2));
        // Missing --store: rejected.
        assert!(parse_args_from(vec!["serve".into()]).is_err());
        // Stray positional: rejected.
        assert!(parse_args_from(vec![
            "serve".into(),
            "extra".into(),
            "--store".into(),
            "s".into()
        ])
        .is_err());
    }

    #[test]
    fn default_name_is_the_file_stem() {
        assert_eq!(default_name("data/auctions.xml"), "auctions");
        assert_eq!(default_name("plain"), "plain");
        assert_eq!(default_name(""), "document");
    }

    #[test]
    fn missing_positionals_or_bad_values_are_rejected() {
        assert!(parse_args_from(vec!["only-one".into()]).is_err());
        assert!(parse_args_from(vec![
            "c.xml".into(),
            "//a".into(),
            "--algorithm".into(),
            "nope".into()
        ])
        .is_err());
        assert!(parse_args_from(vec![
            "c.xml".into(),
            "//a".into(),
            "--k".into(),
            "NaN".into()
        ])
        .is_err());
    }
}
