//! The one adapter file: every call into a product crate lives here.
//!
//! The rest of the benchmark speaks only the plain types this module
//! exports, so the list of product functions below (and in `README.md`) is
//! the whole API the benchmark pins. An API change in the product is
//! absorbed by editing this file and nothing else.
//!
//! Long-lived surface (the workloads' measured paths):
//! `flexpath_xmark::generate`, `flexpath_xmldom::to_xml_string`,
//! `FleXPath::{from_xml, save, open, query, snippet, context}`,
//! `TopKQuery::{top, algorithm, scheme, limits, threads, trace, try_execute}`,
//! `ServePolicy::{default, clamp}`, `ServerState::open`,
//! `Server::{bind, local_addr, handle, run}`, `ServerHandle::shutdown`,
//! `flexpath_serve::Client::{connect, call}` (`POST /query`,
//! `GET /metrics?format=json`), `flexpath::engine_metrics`,
//! `EngineContext::ft_cache_stats`.
//!
//! Probe surface (traced runs only, one layer at a time):
//! `flexpath_xmldom::parse`, `DocStats::compute`, `InvertedIndex::{build,
//! evaluate, term_count, posting_entry_count}`, `parse_query`,
//! `Tpq::{logical, nodes}`, `closure_of`, `PenaltyModel::new`,
//! `build_schedule`, `stack_tree_desc`, `TopKBuckets::{new, offer,
//! into_ranked}`, `LazyStore::{open, document, stats, index}`,
//! `CorpusStore::open`, `http::read_request`, `json::{parse, quote}`,
//! `Response::{json, write_to}`, `routes::dispatch`.

use crate::spans::ProductSpan;
use crate::stats::Hit;
use flexpath::{
    Algorithm, Answer as EngineAnswer, AnswerScore, CancelToken, FleXPath, NodeId, QueryLimits,
    RankingScheme, TopKBuckets, TraceSpan,
};
use flexpath_serve::http::{self, HttpLimits, Response};
use flexpath_serve::json::{self, Json};
use flexpath_serve::routes::{self, RouteContext};
use flexpath_serve::{
    AdmissionController, Client, FlightRecorder, ServePolicy, Server, ServerHandle, ServerState,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Query vocabulary
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Alg {
    Dpo,
    Sso,
    Hybrid,
}

impl Alg {
    pub const ALL: [Alg; 3] = [Alg::Dpo, Alg::Sso, Alg::Hybrid];

    pub fn name(self) -> &'static str {
        match self {
            Alg::Dpo => "dpo",
            Alg::Sso => "sso",
            Alg::Hybrid => "hybrid",
        }
    }

    fn product(self) -> Algorithm {
        match self {
            Alg::Dpo => Algorithm::Dpo,
            Alg::Sso => Algorithm::Sso,
            Alg::Hybrid => Algorithm::Hybrid,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    StructureFirst,
    KeywordFirst,
    Combined,
}

impl Scheme {
    pub const ALL: [Scheme; 3] = [
        Scheme::StructureFirst,
        Scheme::KeywordFirst,
        Scheme::Combined,
    ];

    /// The `/query` wire name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::StructureFirst => "structure_first",
            Scheme::KeywordFirst => "keyword_first",
            Scheme::Combined => "combined",
        }
    }

    fn product(self) -> RankingScheme {
        match self {
            Scheme::StructureFirst => RankingScheme::StructureFirst,
            Scheme::KeywordFirst => RankingScheme::KeywordFirst,
            Scheme::Combined => RankingScheme::Combined,
        }
    }
}

/// One query as a user would issue it. Query threads are pinned to 1 on
/// every path (the reference host has two cores; fan-out scaling is a later
/// benchmark's subject).
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub text: String,
    pub k: usize,
    pub alg: Alg,
    pub scheme: Scheme,
    /// `false`: `QueryLimits::unlimited()`. `true`: the limits
    /// `ServePolicy::default().clamp(..)` hands the engine for a request
    /// that asked for none — the path production uses.
    pub governed: bool,
}

/// The deterministic work counters of one execution (`ExecStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub relaxations_used: u64,
    pub evaluations: u64,
    pub intermediates: u64,
    pub buckets: u64,
    pub pruned: u64,
}

impl Work {
    pub fn add(&mut self, o: &Work) {
        self.relaxations_used += o.relaxations_used;
        self.evaluations += o.evaluations;
        self.intermediates += o.intermediates;
        self.buckets += o.buckets;
        self.pruned += o.pruned;
    }
}

#[derive(Debug, Clone)]
pub struct Answer {
    pub hits: Vec<Hit>,
    /// `false` for a partial (`Completeness::Exhausted`).
    pub complete: bool,
    pub work: Work,
    /// The product's own trace, when the run asked for one.
    pub trace: Option<ProductSpan>,
    pub started: Instant,
    /// Time in `FleXPath::query` (parse + builder).
    pub parse: Duration,
    /// Time in `TopKQuery::try_execute`.
    pub execute: Duration,
}

fn product_span(span: &TraceSpan) -> ProductSpan {
    ProductSpan {
        name: span.name.clone(),
        duration_ns: span.duration.as_nanos() as u64,
        counters: span.counters.clone(),
        children: span.children.iter().map(product_span).collect(),
    }
}

/// The words the generator fills text with, most frequent first (Zipf
/// rank), reduced to those a `contains` can name unambiguously: a single
/// token of three letters or more, one word per stem.
pub fn vocabulary() -> Vec<&'static str> {
    let mut stems = std::collections::BTreeSet::new();
    flexpath_xmark::vocab::WORDS
        .iter()
        .copied()
        .filter(|w| w.len() >= 3 && !matches!(*w, "and" | "not"))
        .filter(|w| match flexpath::FtExpr::term(w) {
            flexpath::FtExpr::Term(stem) => stems.insert(stem),
            _ => false,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ingest path and sessions
// ---------------------------------------------------------------------------

/// The calibrated generator probabilities of
/// `crates/bench/src/workload.rs::bench_config`, copied (not imported) so
/// edits to `flexpath-bench` cannot change this corpus. They keep Q2/Q3
/// selective: sparse `parlist`s and mailboxes, ~33 % inline markup.
fn corpus_config(target_bytes: usize, seed: u64) -> flexpath_xmark::XmarkConfig {
    flexpath_xmark::XmarkConfig {
        target_bytes,
        seed,
        parlist_prob: 0.28,
        nested_parlist_prob: 0.30,
        max_parlist_depth: 3,
        incategory_zero_prob: 0.40,
        max_incategory: 2,
        max_mail: 2,
        inline_prob: 0.33,
        zipf_exponent: 1.0,
    }
}

pub struct Corpus {
    pub xml: String,
    pub generate: Duration,
}

/// `generate` → `to_xml_string`: the only form in which the product later
/// receives the corpus is this XML text.
pub fn generate_corpus(target_bytes: usize, seed: u64) -> Corpus {
    let start = Instant::now();
    let doc = flexpath_xmark::generate(&corpus_config(target_bytes, seed));
    let generate = start.elapsed();
    Corpus {
        xml: flexpath_xmldom::to_xml_string(&doc),
        generate,
    }
}

fn governed_limits() -> QueryLimits {
    ServePolicy::default().clamp(&QueryLimits::default())
}

pub struct Session {
    flex: FleXPath,
    governed: QueryLimits,
}

impl Session {
    fn wrap(flex: FleXPath) -> Session {
        Session {
            flex,
            governed: governed_limits(),
        }
    }

    /// Parse + statistics + inverted index.
    pub fn from_xml(xml: &str) -> Res<Session> {
        FleXPath::from_xml(xml)
            .map(Session::wrap)
            .map_err(err("from_xml"))
    }

    /// Lazy open of a store file written by [`Session::save`].
    pub fn open(path: &Path) -> Res<Session> {
        FleXPath::open(path).map(Session::wrap).map_err(err("open"))
    }

    /// Writes the store file; returns its length in bytes.
    pub fn save(&self, path: &Path, name: &str) -> Res<u64> {
        self.flex.save(path, name).map_err(err("save"))
    }

    pub fn run(&self, spec: &QuerySpec, traced: bool) -> Res<Answer> {
        let started = Instant::now();
        let query = self.flex.query(&spec.text).map_err(err("query"))?;
        let limits = if spec.governed {
            self.governed.clone()
        } else {
            QueryLimits::unlimited()
        };
        let mut query = query
            .top(spec.k)
            .algorithm(spec.alg.product())
            .scheme(spec.scheme.product())
            .limits(limits)
            .threads(1);
        if traced {
            query = query.trace();
        }
        let parse = started.elapsed();
        let results = query.try_execute().map_err(err("try_execute"))?;
        let execute = started.elapsed() - parse;
        Ok(Answer {
            hits: results
                .hits
                .iter()
                .map(|h| Hit {
                    node: u64::from(h.node.0),
                    ss: h.score.ss,
                    ks: h.score.ks,
                })
                .collect(),
            complete: results.is_complete(),
            work: Work {
                relaxations_used: results.stats.relaxations_used as u64,
                evaluations: results.stats.evaluations as u64,
                intermediates: results.stats.intermediate_answers as u64,
                buckets: results.stats.buckets as u64,
                pruned: results.stats.pruned as u64,
            },
            trace: results.trace.as_ref().map(|t| product_span(&t.root)),
            started,
            parse,
            execute,
        })
    }

    /// `(hits, misses)` of the session's full-text cache, cumulative.
    pub fn ft_cache(&self) -> (u64, u64) {
        let s = self.flex.context().ft_cache_stats();
        (s.hits, s.misses)
    }

    pub fn snippet(&self, node: u64, max_chars: usize) -> String {
        self.flex.snippet(NodeId(node as u32), max_chars)
    }
}

/// Cumulative process-wide engine counters (`flexpath::engine_metrics()`).
pub fn engine_counters() -> BTreeMap<String, u64> {
    flexpath::engine_metrics().counters
}

/// `after − before` for one counter.
pub fn counter_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    key: &str,
) -> u64 {
    after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Layer probes (traced runs only)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
pub struct IngestProbe {
    pub parse_ms: f64,
    pub stats_ms: f64,
    pub index_build_ms: f64,
    pub nodes: u64,
    pub terms: u64,
    pub posting_entries: u64,
}

/// The three steps of `FleXPath::from_xml`, timed one at a time.
pub fn probe_ingest(xml: &str) -> Res<IngestProbe> {
    let t = Instant::now();
    let doc = flexpath_xmldom::parse(xml).map_err(err("parse"))?;
    let parse_ms = ms(t.elapsed());
    let t = Instant::now();
    let stats = flexpath_xmldom::DocStats::compute(&doc);
    let stats_ms = ms(t.elapsed());
    let t = Instant::now();
    let index = flexpath_ftsearch::InvertedIndex::build(&doc);
    let index_build_ms = ms(t.elapsed());
    std::hint::black_box(&stats);
    Ok(IngestProbe {
        parse_ms,
        stats_ms,
        index_build_ms,
        nodes: doc.node_count() as u64,
        terms: index.term_count() as u64,
        posting_entries: index.posting_entry_count(),
    })
}

/// Mean `parse_query` and `closure_of` time per query text, microseconds.
pub fn probe_tpq(texts: &[String]) -> Res<(f64, f64)> {
    const REPS: usize = 20;
    if texts.is_empty() {
        return Ok((0.0, 0.0));
    }
    let (mut parse, mut closure) = (Duration::ZERO, Duration::ZERO);
    for text in texts {
        for _ in 0..REPS {
            let t = Instant::now();
            let tpq = flexpath_tpq::parse_query(std::hint::black_box(text))
                .map_err(err("parse_query"))?;
            parse += t.elapsed();
            let logical = tpq.logical();
            let t = Instant::now();
            std::hint::black_box(flexpath_tpq::closure_of(std::hint::black_box(&logical)));
            closure += t.elapsed();
        }
    }
    let n = (texts.len() * REPS) as f64;
    Ok((
        parse.as_secs_f64() * 1e6 / n,
        closure.as_secs_f64() * 1e6 / n,
    ))
}

/// `InvertedIndex::evaluate(doc, expr)` for every distinct `contains`
/// expression in `texts`: `(total ms, calls)`. Bypasses the session's FT
/// cache, so this is the cost a cold op pays.
pub fn probe_ft_eval(session: &Session, texts: &[String]) -> Res<(f64, u64)> {
    let mut exprs = std::collections::BTreeSet::new();
    for text in texts {
        let tpq = flexpath_tpq::parse_query(text).map_err(err("parse_query"))?;
        for node in tpq.nodes() {
            exprs.extend(node.contains.iter().cloned());
        }
    }
    let ctx = session.flex.context();
    let (doc, index) = (ctx.doc(), ctx.index());
    let t = Instant::now();
    for expr in &exprs {
        std::hint::black_box(index.evaluate(doc, expr));
    }
    Ok((ms(t.elapsed()), exprs.len() as u64))
}

/// `build_schedule` timed directly for every query text (uniform weights,
/// the step cap `TopKRequest::new` defaults to): total ms.
pub fn probe_schedule(session: &Session, texts: &[String]) -> Res<f64> {
    let ctx = session.flex.context();
    let mut total = Duration::ZERO;
    for text in texts {
        let tpq = flexpath_tpq::parse_query(text).map_err(err("parse_query"))?;
        let max_steps = flexpath_engine::TopKRequest::new(tpq.clone(), 10).max_relaxation_steps;
        let model = flexpath_engine::PenaltyModel::new(&tpq, flexpath::WeightAssignment::uniform());
        let t = Instant::now();
        std::hint::black_box(flexpath_engine::build_schedule(
            ctx, &model, &tpq, max_steps,
        ));
        total += t.elapsed();
    }
    Ok(ms(total))
}

/// One Stack-Tree ancestor–descendant join of the corpus's `item` × `text`
/// lists, ms (best of three).
pub fn probe_structural_join(session: &Session) -> f64 {
    let doc = session.flex.context().doc();
    let (items, texts) = (
        doc.nodes_with_tag_name("item"),
        doc.nodes_with_tag_name("text"),
    );
    (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(flexpath_engine::stack_tree_desc(doc, items, texts));
            ms(t.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

/// Replays a recorded score stream through `TopKBuckets::offer` +
/// `into_ranked` at K = `k`: nanoseconds per offer.
pub fn probe_order_offer(stream: &[Hit], k: usize) -> f64 {
    const REPS: usize = 50;
    if stream.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for _ in 0..REPS {
        let mut buckets = TopKBuckets::new(k, RankingScheme::StructureFirst);
        for h in stream {
            buckets.offer(EngineAnswer {
                node: NodeId(h.node as u32),
                score: AnswerScore { ss: h.ss, ks: h.ks },
                satisfied: u64::MAX,
                relaxation_level: 0,
            });
        }
        std::hint::black_box(buckets.into_ranked());
    }
    t.elapsed().as_secs_f64() * 1e9 / (REPS * stream.len()) as f64
}

/// `FleXPath::snippet` at `chars` on each hit: microseconds per hit.
pub fn probe_render(session: &Session, hits: &[Hit], chars: usize) -> f64 {
    if hits.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for h in hits {
        std::hint::black_box(session.snippet(h.node, chars));
    }
    t.elapsed().as_secs_f64() * 1e6 / hits.len() as f64
}

#[derive(Debug, Clone, Copy, Default)]
pub struct StoreProbe {
    pub open_us: f64,
    pub decode_doc_ms: f64,
    pub decode_stats_ms: f64,
    pub decode_index_ms: f64,
    pub eager_open_ms: f64,
}

/// First-touch cost of each lazily decoded part on a fresh handle, and the
/// eager open as a cross-check (≈ the sum of the three decodes).
pub fn probe_store(path: &Path) -> Res<StoreProbe> {
    let t = Instant::now();
    let store = flexpath_store::LazyStore::open(path).map_err(err("LazyStore::open"))?;
    let open_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    store.document().map_err(err("document"))?;
    let decode_doc_ms = ms(t.elapsed());
    let t = Instant::now();
    store.stats().map_err(err("stats"))?;
    let decode_stats_ms = ms(t.elapsed());
    let t = Instant::now();
    store.index().map_err(err("index"))?;
    let decode_index_ms = ms(t.elapsed());
    drop(store);
    let t = Instant::now();
    let eager = flexpath_store::CorpusStore::open(path).map_err(err("CorpusStore::open"))?;
    let eager_open_ms = ms(t.elapsed());
    drop(eager);
    Ok(StoreProbe {
        open_us,
        decode_doc_ms,
        decode_stats_ms,
        decode_index_ms,
        eager_open_ms,
    })
}

// ---------------------------------------------------------------------------
// The HTTP service
// ---------------------------------------------------------------------------

/// An in-process `flexpath_serve::Server` on `127.0.0.1:0` with
/// `ServePolicy::default()`, serving the catalog directory `dir`.
pub struct TestServer {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<Result<(), flexpath_serve::ServeError>>>,
}

impl TestServer {
    pub fn boot(dir: &Path) -> Res<TestServer> {
        let state = ServerState::open(dir).map_err(err("ServerState::open"))?;
        let server = Server::bind("127.0.0.1:0", Arc::new(state), ServePolicy::default())
            .map_err(err("Server::bind"))?;
        let addr = server.local_addr().map_err(err("local_addr"))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(TestServer {
            addr,
            handle,
            thread: Some(thread),
        })
    }
}

impl Drop for TestServer {
    /// Drains and joins: no server thread outlives the value.
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive connection.
pub struct Http {
    client: Client,
}

impl Http {
    pub fn connect(addr: SocketAddr) -> Http {
        Http {
            client: Client::connect(addr, Duration::from_secs(30)),
        }
    }

    pub fn post_query(&mut self, body: &[u8]) -> Res<Reply> {
        self.call("POST", "/query", body)
    }

    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> Res<Reply> {
        let r = self.client.call(method, path, body).map_err(err("http"))?;
        Ok(Reply {
            status: r.status,
            body: r.body,
        })
    }

    /// `GET /metrics?format=json`, reduced to what the ledger reads.
    pub fn serve_metrics(&mut self) -> Res<ServeMetrics> {
        let reply = self.call("GET", "/metrics?format=json", b"")?;
        let v = json::parse(&reply.body).map_err(err("metrics json"))?;
        let counter = |name: &str| {
            v.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let hist = v
            .get("histograms")
            .and_then(|h| h.get("serve.query.duration"));
        let field = |name: &str| {
            hist.and_then(|h| h.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(ServeMetrics {
            query_count: field("count"),
            query_sum_us: field("sum_us"),
            shed: counter("serve.shed.at_door")
                + counter("serve.shed.queue_full")
                + counter("serve.shed.timeout")
                + counter("serve.shed.draining"),
        })
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ServeMetrics {
    /// `serve.query.duration` histogram: observations and their sum.
    pub query_count: u64,
    pub query_sum_us: u64,
    /// Sum of the `serve.shed.*` counters.
    pub shed: u64,
}

/// The `/query` request body for `spec` against catalog document `catalog`.
pub fn query_body(catalog: &str, spec: &QuerySpec, snippet_chars: usize, trace: bool) -> String {
    format!(
        "{{\"catalog\":{},\"query\":{},\"k\":{},\"algorithm\":\"{}\",\"scheme\":\"{}\",\
         \"threads\":1,\"snippet_chars\":{snippet_chars},\"trace\":{trace}}}",
        json::quote(catalog),
        json::quote(&spec.text),
        spec.k,
        spec.alg.name(),
        spec.scheme.name(),
    )
}

pub struct ParsedReply {
    pub hits: Vec<Hit>,
    pub complete: bool,
    pub trace: Option<ProductSpan>,
}

fn span_from_json(v: &Json) -> ProductSpan {
    let counters = match v.get("counters") {
        Some(Json::Object(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    let children = match v.get("children") {
        Some(Json::Array(a)) => a.iter().map(span_from_json).collect(),
        _ => Vec::new(),
    };
    ProductSpan {
        name: v
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        duration_ns: v.get("duration_us").and_then(Json::as_u64).unwrap_or(0) * 1000,
        counters,
        children,
    }
}

/// Decodes a `200` body of `/query` into the ranked list it carries.
pub fn parse_query_reply(body: &[u8]) -> Res<ParsedReply> {
    let v = json::parse(body).map_err(err("reply json"))?;
    let Some(Json::Array(raw)) = v.get("hits") else {
        return Err("reply has no hits array".into());
    };
    let mut hits = Vec::with_capacity(raw.len());
    for h in raw {
        let num = |k: &str| {
            h.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("hit lacks {k}"))
        };
        hits.push(Hit {
            node: h
                .get("node")
                .and_then(Json::as_u64)
                .ok_or("hit lacks node")?,
            ss: num("ss")?,
            ks: num("ks")?,
        });
    }
    Ok(ParsedReply {
        hits,
        complete: v
            .get("completeness")
            .and_then(|c| c.get("complete"))
            .and_then(Json::as_bool)
            .unwrap_or(false),
        trace: v.get("trace").map(span_from_json),
    })
}

/// The bytes `flexpath_serve::Client` puts on the wire for a `/query`.
pub fn request_bytes(body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST /query HTTP/1.1\r\nHost: flexpath\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

#[derive(Debug, Clone, Copy, Default)]
pub struct HttpProbe {
    pub read_request_us: f64,
    pub json_parse_us: f64,
    pub write_us: f64,
}

/// `http::read_request`, `json::parse` and `Response::write_to` on recorded
/// request/response bytes, mean microseconds per pair.
pub fn probe_http(pairs: &[(Vec<u8>, Vec<u8>)]) -> Res<HttpProbe> {
    const REPS: usize = 20;
    if pairs.is_empty() {
        return Ok(HttpProbe::default());
    }
    let limits = HttpLimits::default();
    let (mut read, mut parse, mut write) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for (body, reply) in pairs {
        let wire = request_bytes(body);
        let response = Response::json(200, String::from_utf8_lossy(reply).into_owned());
        let mut sink = Vec::with_capacity(reply.len() + 256);
        for _ in 0..REPS {
            let t = Instant::now();
            let req =
                http::read_request(&mut wire.as_slice(), &limits).map_err(err("read_request"))?;
            read += t.elapsed();
            let t = Instant::now();
            std::hint::black_box(json::parse(&req.body).map_err(err("json::parse"))?);
            parse += t.elapsed();
            sink.clear();
            let t = Instant::now();
            response
                .write_to(&mut sink, false, false)
                .map_err(err("write_to"))?;
            write += t.elapsed();
        }
    }
    let n = (pairs.len() * REPS) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
    Ok(HttpProbe {
        read_request_us: us(read),
        json_parse_us: us(parse),
        write_us: us(write),
    })
}

/// `routes::dispatch` called in-process — the request path without the
/// socket — over the same catalog and the default policy.
pub struct Dispatcher {
    state: ServerState,
    policy: ServePolicy,
    admission: AdmissionController,
    cancel: CancelToken,
    recorder: FlightRecorder,
}

impl Dispatcher {
    pub fn open(dir: &Path) -> Res<Dispatcher> {
        let policy = ServePolicy::default();
        Ok(Dispatcher {
            state: ServerState::open(dir).map_err(err("ServerState::open"))?,
            // Start fully ramped: one caller, so slow-start is not the
            // subject here.
            admission: AdmissionController::new(
                policy.max_concurrent_queries,
                policy.max_concurrent_queries,
                policy.admission_queue_depth,
                policy.admission_timeout,
            ),
            cancel: CancelToken::new(),
            recorder: FlightRecorder::new(policy.recorder_capacity, policy.slow_query_threshold),
            policy,
        })
    }

    /// Dispatches one `/query` body; returns the status and the time spent.
    pub fn query(&self, body: &[u8]) -> Res<(u16, Duration)> {
        let req = http::read_request(&mut request_bytes(body).as_slice(), &self.policy.http)
            .map_err(err("read_request"))?;
        let ctx = RouteContext {
            state: &self.state,
            policy: &self.policy,
            admission: &self.admission,
            drain_cancel: &self.cancel,
            recorder: &self.recorder,
        };
        let t = Instant::now();
        let resp = routes::dispatch(&ctx, &req);
        Ok((resp.status, t.elapsed()))
    }
}

// ---------------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------------

pub fn mmap_enabled() -> bool {
    cfg!(feature = "mmap")
}
