//! `serve_open_loop`: independent users against an in-process
//! `flexpath_serve::Server` with `ServePolicy::default()`, serving the
//! 10 MB document from a catalog the ingest path wrote.
//!
//! Why it exists: it is the only workload where `serve` does most of the
//! work (60 % of requests are `cheap`: ~0.05 ms in the engine, so HTTP
//! read, JSON decode, admission, render and write are the request) and
//! where queueing, admission and the governed path production uses are on
//! the clock. `engine` changes should barely move its p50 (cheap class) but
//! do move its p95/p99 (`mid`/`ft` classes and the queueing behind them).
//!
//! The generator uses at most `nproc` keep-alive connections, one thread
//! each, sends on a fixed schedule and times every request from its due
//! time. The untraced pass alternates a slice at 0.25 C (the end-to-end
//! latency percentiles) with closed-loop saturation (`ops_per_s`); the
//! traced pass offers the whole ladder 0.25 C, 0.5 C, 0.75 C, 1.0 C (C
//! frozen, see `frozen.rs`) for the p99s and `serve.max_rate_ok_qps`.

use super::{check_expected, Checker, EndToEnd, Params, Res, Traced};
use crate::frozen;
use crate::layers::{self, Alg, Dispatcher, Http, QuerySpec, Scheme, Session, TestServer, Work};
use crate::metrics::Ledger;
use crate::noise::NoiseGuard;
use crate::openloop::{self, RealClock, Sample};
use crate::rng::Rng;
use crate::scratch::ScratchDir;
use crate::spans::Recorder;
use crate::stats;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_open_loop";

/// `(class, query)`. `cheap`: highly selective structural queries. `mid`:
/// the paper's Q1/Q2 class, 2–7 ms in the engine. `ft`: two-term `contains`
/// whose evaluation the warm-up leaves in the FT cache.
const REQUESTS: [(&str, &str); 8] = [
    ("cheap", "//category[./name]"),
    ("cheap", "//category[./description]"),
    ("cheap", "//categories/category"),
    ("mid", "//item[./description/parlist]"),
    (
        "mid",
        "//item[./description/parlist and ./mailbox/mail/text]",
    ),
    ("mid", "//person[./emailaddress and ./phone]"),
    (
        "ft",
        "//item[./description//text[.contains(\"vintage\" and \"rare\")]]",
    ),
    (
        "ft",
        "//item[./description//text[.contains(\"gold\" or \"antique\")]]",
    ),
];

/// Requests per mix unit of twenty, shuffled by the seed: 70 % cheap, 20 %
/// mid, 10 % ft.
///
/// Where the percentiles fall: each connection's requests are due one
/// every 14 ms at 0.25 C, so a request waits only when the one before it
/// on its connection was an `ft` (~17 ms) — about one request in nine.
/// `cheap` requests that did not wait are therefore ~62 % of all requests:
/// p50 sits twelve points inside that group and reads what a cheap request
/// costs end to end (HTTP, JSON, admission, render), not queueing. p95 sits
/// in the top tenth, which is the `ft` class. The issue's 60/30/10 mix at
/// 0.5 C put p50 *on* the edge between "did not wait" and "waited" (half of
/// all requests queue at 50 % utilisation, whatever the mix): it moved
/// three times as much as the host's speed did (30 % between two half
/// hours in which goodput moved 11 %).
const MIX_UNIT: [(&str, usize); 3] = [("cheap", 14), ("mid", 4), ("ft", 2)];

const CLASSES: [&str; 3] = ["cheap", "mid", "ft"];
const RATE_KEYS: [&str; 4] = ["r25", "r50", "r75", "r100"];
const STREAM_MIX: u64 = 4;

struct Request {
    class: &'static str,
    spec: QuerySpec,
    body: Vec<u8>,
    traced_body: Vec<u8>,
    /// Digest of the in-memory session's answer: what every reply must
    /// carry.
    digest: u64,
}

struct World {
    /// Declared before `dir`: the server must stop before its catalog goes.
    server: TestServer,
    dir: ScratchDir,
    store_path: PathBuf,
    requests: Vec<Request>,
    xml_bytes: u64,
    file_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Complete,
    Partial,
    Shed,
    Error,
}

#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    complete: u64,
    partial: u64,
    shed: u64,
    errors: u64,
}

impl Tally {
    fn add(&mut self, v: Verdict) {
        match v {
            Verdict::Complete => self.complete += 1,
            Verdict::Partial => self.partial += 1,
            Verdict::Shed => self.shed += 1,
            Verdict::Error => self.errors += 1,
        }
    }

    fn merge(&mut self, o: &Tally) {
        self.complete += o.complete;
        self.partial += o.partial;
        self.shed += o.shed;
        self.errors += o.errors;
    }

    fn attempted(&self) -> u64 {
        self.complete + self.partial + self.shed + self.errors
    }

    fn failed(&self) -> u64 {
        self.attempted() - self.complete
    }
}

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn setup(p: &Params) -> Res<World> {
    let corpus = layers::generate_corpus(p.corpus_bytes(frozen::WARM_CORPUS_BYTES), p.seed);
    let session = Session::from_xml(&corpus.xml)?;
    let xml_bytes = corpus.xml.len() as u64;
    drop(corpus);
    let dir = ScratchDir::new("serve").map_err(|e| format!("scratch: {e}"))?;
    let store_path = dir.path().join("doc.fxs");
    let file_bytes = session.save(&store_path, "doc")?;
    let mut requests = Vec::new();
    for (class, text) in REQUESTS {
        let spec = QuerySpec {
            text: text.to_string(),
            k: 10,
            alg: Alg::Hybrid,
            scheme: Scheme::StructureFirst,
            governed: true,
        };
        let answer = session.run(&spec, false)?;
        requests.push(Request {
            class,
            body: layers::query_body("doc", &spec, frozen::SNIPPET_CHARS, false).into_bytes(),
            traced_body: layers::query_body("doc", &spec, frozen::SNIPPET_CHARS, true).into_bytes(),
            digest: stats::digest_hits(&answer.hits),
            spec,
        });
    }
    drop(session);
    let server = TestServer::boot(dir.path())?;
    // Warm-up: every distinct request once per connection's worth — pays
    // the lazy first-touch decode and the admission slow-start ramp — and
    // doubles as the path-equivalence check (memory vs store + `/query`).
    let mut http = Http::connect(server.addr);
    for _ in 0..connections().max(2) {
        for req in &requests {
            if send(&mut http, req, false).0 != Verdict::Complete {
                return Err(format!(
                    "warm-up: {:?} did not return the in-memory answer",
                    req.spec.text
                ));
            }
        }
    }
    Ok(World {
        server,
        dir,
        store_path,
        requests,
        xml_bytes,
        file_bytes,
    })
}

/// Sends one request, classifies the reply, returns it for inspection.
fn send(http: &mut Http, req: &Request, traced: bool) -> (Verdict, Option<layers::ParsedReply>) {
    let body = if traced { &req.traced_body } else { &req.body };
    match http.post_query(body) {
        Err(_) => (Verdict::Error, None),
        Ok(reply) => match reply.status {
            429 | 503 => (Verdict::Shed, None),
            200 => match layers::parse_query_reply(&reply.body) {
                Ok(parsed) if !parsed.complete => (Verdict::Partial, Some(parsed)),
                Ok(parsed) if stats::digest_hits(&parsed.hits) == req.digest => {
                    (Verdict::Complete, Some(parsed))
                }
                _ => (Verdict::Error, None),
            },
            _ => (Verdict::Error, None),
        },
    }
}

/// `count` request indices in the frozen 70/20/10 mix, each unit of twenty
/// shuffled by the seed; within a class the distinct queries take turns.
fn mix(world_requests: &[Request], seed: u64, stream: u64, count: usize) -> Vec<usize> {
    let members: Vec<Vec<usize>> = MIX_UNIT
        .iter()
        .map(|(class, _)| {
            (0..world_requests.len())
                .filter(|i| world_requests[*i].class == *class)
                .collect()
        })
        .collect();
    let mut rng = Rng::new(seed, STREAM_MIX.wrapping_add(stream << 8));
    let mut turn = [0usize; 3];
    let mut out = Vec::with_capacity(count + 20);
    while out.len() < count {
        let mut unit = Vec::with_capacity(20);
        for (c, (_, n)) in MIX_UNIT.iter().enumerate() {
            for _ in 0..*n {
                unit.push(members[c][turn[c] % members[c].len()]);
                turn[c] += 1;
            }
        }
        rng.shuffle(&mut unit);
        out.extend(unit);
    }
    out.truncate(count);
    out
}

struct Shot {
    sample: Sample,
    verdict: Verdict,
}

/// One fixed-rate slice: `rate × duration` requests, due on an even
/// schedule, spread round-robin over the connections.
fn open_slice(
    world: &World,
    conns: &mut [Http],
    p: &Params,
    stream: u64,
    rate: f64,
    duration: f64,
) -> Vec<Shot> {
    let count = ((rate * duration).round() as usize).max(conns.len());
    let dues = openloop::due_times(rate, count);
    let sequence = mix(&world.requests, p.seed, stream, count);
    let n = conns.len();
    let clock = RealClock::starting_at(Instant::now() + Duration::from_millis(2));
    let mut shots = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, http)| {
                let (dues, sequence, requests) = (&dues, &sequence, &world.requests);
                scope.spawn(move || {
                    let mut verdicts = Vec::new();
                    let samples =
                        openloop::drive(&clock, dues, &openloop::assigned(count, c, n), |i| {
                            let v = send(http, &requests[sequence[i]], false).0;
                            verdicts.push(v);
                            v == Verdict::Complete
                        });
                    samples
                        .into_iter()
                        .zip(verdicts)
                        .map(|(sample, verdict)| Shot { sample, verdict })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            shots.extend(h.join().expect("generator thread"));
        }
    });
    shots
}

/// Closed-loop saturation: every connection sends back to back for
/// `duration`; returns complete-200 goodput in req/s and the tally.
fn saturate(
    world: &World,
    conns: &mut [Http],
    p: &Params,
    stream: u64,
    duration: f64,
) -> (f64, Tally) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(duration);
    let mut tally = Tally::default();
    let mut end = start;
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, http)| {
                let requests = &world.requests;
                let sequence = mix(requests, p.seed, stream.wrapping_add(1 + c as u64), 4096);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        tally.add(send(http, &requests[sequence[i % sequence.len()]], false).0);
                        i += 1;
                    }
                    (tally, Instant::now())
                })
            })
            .collect();
        for h in handles {
            let (t, finished) = h.join().expect("generator thread");
            tally.merge(&t);
            end = end.max(finished);
        }
    });
    (tally.complete as f64 / (end - start).as_secs_f64(), tally)
}

/// Latency from due time of every request of a slice, ms; a failed one
/// counts as +∞ — it missed every limit.
fn latencies(slice: &[Shot]) -> Vec<f64> {
    slice
        .iter()
        .map(|s| match s.verdict {
            Verdict::Complete => s.sample.latency_ms(),
            _ => f64::INFINITY,
        })
        .collect()
}

fn tally_of(slice: &[Shot]) -> Tally {
    let mut t = Tally::default();
    for s in slice {
        t.add(s.verdict);
    }
    t
}

fn open_connections(world: &World) -> Vec<Http> {
    (0..connections())
        .map(|_| Http::connect(world.server.addr))
        .collect()
}

/// The rate ladder of the traced run: per cycle one slice at each fixed
/// rate, then closed-loop saturation, in the frozen shares.
struct Ladder {
    /// Per rate step: latency from due time, ascending, pooled over cycles.
    latency: Vec<Vec<f64>>,
    lateness_r50: Vec<f64>,
    /// Per rate step: cycles in which the generator's lateness grew.
    growing: Vec<usize>,
    failed_at: Vec<u64>,
    cycles: usize,
    tally: Tally,
    noisy_blocks: u64,
    calibration_ms: Vec<f64>,
}

fn ladder(world: &World, p: &Params, seconds: f64) -> Ladder {
    let mut conns = open_connections(world);
    let mut guard = NoiseGuard::default();
    let cycle_seconds = seconds / frozen::BLOCKS as f64;
    let mut cycle = 0u64;
    // A re-run offers a fresh schedule; the server holds no state a repeat
    // could profit from (the FT cache is warm already).
    let cycles = guard.guarded(frozen::BLOCKS, || {
        cycle += 1;
        let mut slices = Vec::new();
        for (i, step) in frozen::SERVE_RATE_STEPS.iter().enumerate() {
            let duration = cycle_seconds * frozen::SERVE_PHASE_SHARES[i];
            slices.push(open_slice(
                world,
                &mut conns,
                p,
                cycle * 16 + i as u64,
                frozen::SERVE_C_QPS * step,
                duration,
            ));
        }
        let (_, saturation) = saturate(
            world,
            &mut conns,
            p,
            cycle * 16 + 8,
            cycle_seconds * frozen::SERVE_PHASE_SHARES[4],
        );
        (slices, saturation)
    });
    let steps = frozen::SERVE_RATE_STEPS.len();
    let mut out = Ladder {
        latency: vec![Vec::new(); steps],
        lateness_r50: Vec::new(),
        growing: vec![0; steps],
        failed_at: vec![0; steps],
        cycles: cycles.len(),
        tally: Tally::default(),
        noisy_blocks: guard.noisy_blocks,
        calibration_ms: guard.readings_ms.clone(),
    };
    for (slices, saturation) in &cycles {
        out.tally.merge(saturation);
        for (i, slice) in slices.iter().enumerate() {
            let samples: Vec<Sample> = slice.iter().map(|s| s.sample).collect();
            if openloop::lateness_grows(&samples, frozen::SERVE_L_MS / 5.0) {
                out.growing[i] += 1;
            }
            let t = tally_of(slice);
            out.tally.merge(&t);
            out.failed_at[i] += t.failed();
            out.latency[i].extend(latencies(slice));
            if i == 1 {
                out.lateness_r50
                    .extend(slice.iter().map(|s| s.sample.late_ms()));
            }
        }
    }
    for l in &mut out.latency {
        l.sort_by(f64::total_cmp);
    }
    out.lateness_r50.sort_by(f64::total_cmp);
    out
}

impl Ladder {
    /// The highest fixed rate whose p99 met the frozen limit with nothing
    /// failed and no growing backlog in most cycles; 0 when none did.
    fn max_rate_ok_qps(&self) -> f64 {
        let mut best = 0.0;
        for (i, step) in frozen::SERVE_RATE_STEPS.iter().enumerate() {
            let p99 = stats::percentile(&self.latency[i], 99.0).unwrap_or(f64::INFINITY);
            let ok = p99 <= frozen::SERVE_L_MS
                && self.failed_at[i] == 0
                && self.growing[i] * 2 < self.cycles;
            if ok {
                best = frozen::SERVE_C_QPS * step;
            }
        }
        best
    }
}

/// The answers digest of this workload: the reference digests of the
/// distinct requests, which every reply of the run was checked against.
fn answers_digest(world: &World) -> u64 {
    let mut h = stats::Fnv::default();
    for r in &world.requests {
        h.bytes(r.spec.text.as_bytes()).u64(r.digest);
    }
    h.finish()
}

fn checker_from(tally: &Tally) -> Checker {
    Checker {
        attempted: tally.attempted(),
        failed: tally.failed(),
        first_failure: (tally.failed() > 0).then(|| {
            format!(
                "{} partial, {} shed, {} error/wrong-answer replies",
                tally.partial, tally.shed, tally.errors
            )
        }),
        ..Checker::default()
    }
}

/// Cycles of an untraced run: twice the block count, so the fastest
/// quarter is two or three cycles, not one.
const E2E_CYCLES: usize = 2 * frozen::BLOCKS;

/// Share of an untraced cycle spent at the fixed rate; the rest is
/// saturation.
const E2E_OPEN_SHARE: f64 = 2.0 / 3.0;

/// The untraced run spends its time on the two things it reports: ten
/// cycles, each one slice at 0.25 C (latency percentiles) and one of
/// closed-loop saturation (`ops_per_s`). As on the closed-loop workloads,
/// both are taken over the run's least-disturbed quarter: the slices with
/// the lowest mean latency, the saturation phases with the highest goodput.
pub fn end_to_end(p: &Params) -> Res<EndToEnd> {
    let (world, setup_s) = super::timed_setups(|| setup(p))?;
    let mut conns = open_connections(&world);
    let mut guard = NoiseGuard::default();
    let cycle_seconds = p.seconds / E2E_CYCLES as f64;
    let rate = frozen::SERVE_C_QPS * frozen::SERVE_LATENCY_STEP;
    let mut cycle = 0u64;
    let cycles = guard.guarded(E2E_CYCLES, || {
        cycle += 1;
        let slice = open_slice(
            &world,
            &mut conns,
            p,
            cycle * 16,
            rate,
            cycle_seconds * E2E_OPEN_SHARE,
        );
        let (goodput, saturation) = saturate(
            &world,
            &mut conns,
            p,
            cycle * 16 + 8,
            cycle_seconds * (1.0 - E2E_OPEN_SHARE),
        );
        (slice, goodput, saturation)
    });
    drop(conns);
    let peak_rss_mb = super::peak_rss_mb();

    let mut tally = Tally::default();
    let mut slices: Vec<Vec<f64>> = Vec::new();
    let mut goodputs = Vec::new();
    let mut lateness = Vec::new();
    for (slice, goodput, saturation) in &cycles {
        tally.merge(saturation);
        tally.merge(&tally_of(slice));
        slices.push(latencies(slice));
        goodputs.push(*goodput);
        lateness.extend(slice.iter().map(|s| s.sample.late_ms()));
    }
    let quarter = cycles.len().div_ceil(4);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    slices.sort_by(|a, b| mean(a).total_cmp(&mean(b)));
    let calm = stats::sorted(slices.iter().take(quarter).flatten().copied().collect());
    goodputs.sort_by(|a, b| b.total_cmp(a));
    let lateness = stats::sorted(lateness);

    let digest = answers_digest(&world);
    let mut checker = checker_from(&tally);
    check_expected(NAME, p, digest, &mut checker);
    let mut notes = vec![
        format!(
            "saturation goodput per cycle, best first: {} req/s",
            goodputs
                .iter()
                .map(|g| format!("{g:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "latency percentiles at {} C = {rate:.1} req/s over the {quarter} calmest of {} slices \
             ({} requests); generator lateness p99 {:.3} ms over all slices",
            frozen::SERVE_LATENCY_STEP,
            cycles.len(),
            calm.len(),
            stats::percentile(&lateness, 99.0).unwrap_or(0.0)
        ),
        format!(
            "calibration readings ms: {}",
            guard
                .readings_ms
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    if !stats::percentile_supported(calm.len(), 95.0) {
        notes.push("p95 has fewer than ten samples beyond it".to_string());
    }
    Ok(EndToEnd {
        setup_s,
        ops_per_s: mean(&goodputs[..quarter.min(goodputs.len())]),
        latency_p50_ms: stats::percentile(&calm, 50.0).unwrap_or(0.0),
        latency_p95_ms: stats::percentile(&calm, 95.0).unwrap_or(0.0),
        peak_rss_mb,
        samples: calm.len(),
        attempted: checker.attempted,
        failed: checker.failed,
        first_failure: checker.first_failure,
        noisy_blocks: guard.noisy_blocks,
        answers_digest: digest,
        notes,
    })
}

/// Requests replayed, closed loop on one connection, by the traced run:
/// five mix units, so the counts it reports are the same on every run.
const REPLAY_REQUESTS: usize = 100;

struct Replay {
    /// `(class, ms)` per request.
    times: Vec<(&'static str, f64)>,
    tally: Tally,
}

fn replay(world: &World, p: &Params, count: usize, mut recorder: Option<&mut Recorder>) -> Replay {
    let mut http = Http::connect(world.server.addr);
    let sequence = mix(&world.requests, p.seed, 1 << 20, count);
    let mut out = Replay {
        times: Vec::new(),
        tally: Tally::default(),
    };
    for (op_id, idx) in sequence.into_iter().enumerate() {
        let req = &world.requests[idx];
        let sent = Instant::now();
        let (verdict, parsed) = send(&mut http, req, recorder.is_some());
        let done = Instant::now();
        out.tally.add(verdict);
        out.times
            .push((req.class, (done - sent).as_secs_f64() * 1e3));
        if let Some(rec) = recorder.as_deref_mut() {
            let (s, e) = (rec.ns_of(sent), rec.ns_of(done));
            let span = rec.push("serve.request", None, s, e, op_id as u64, req.class);
            if let Some(root) = parsed.and_then(|r| r.trace) {
                // The reply carries durations, not clock times: centre the
                // engine's interval in the request's.
                let lead = (e - s).saturating_sub(root.duration_ns) / 2;
                let exec = rec.push(
                    "core.execute",
                    Some(span),
                    s + lead,
                    s + lead + root.duration_ns,
                    op_id as u64,
                    req.class,
                );
                rec.attach_product(exec, &root, s + lead, op_id as u64, req.class);
            }
        }
    }
    out
}

fn class_median(times: &[(&'static str, f64)], class: &str) -> f64 {
    let v: Vec<f64> = times.iter().filter(|t| t.0 == class).map(|t| t.1).collect();
    stats::median(&v)
}

pub fn traced(p: &Params) -> Res<Traced> {
    let world = setup(p)?;
    let mut ledger = Ledger::default();

    // The open-loop cycles, untraced: the rate ladder behind
    // `max_rate_ok_qps` and the p99 the end-to-end run has no room for.
    let run = ladder(&world, p, p.seconds * 0.6);
    for (i, key) in RATE_KEYS.iter().enumerate() {
        let p99 = stats::percentile(&run.latency[i], 99.0).unwrap_or(0.0);
        ledger.set(
            &format!("serve.rate_p99_ms.{key}"),
            if p99.is_finite() { p99 } else { 0.0 },
        );
    }
    ledger.set("serve.latency_p99_ms", ledger.get("serve.rate_p99_ms.r50"));
    ledger.set("serve.max_rate_ok_qps", run.max_rate_ok_qps());
    ledger.set(
        "serve.generator_late_ms_p99",
        stats::percentile(&run.lateness_r50, 99.0).unwrap_or(0.0),
    );

    // The same fixed request sequence, closed loop on one connection:
    // untraced, then traced.
    let count = if p.smoke { 20 } else { REPLAY_REQUESTS };
    let mut metrics_http = Http::connect(world.server.addr);
    let before = metrics_http.serve_metrics()?;
    let plain = replay(&world, p, count, None);
    let after = metrics_http.serve_metrics()?;
    let mut recorder = Recorder::default();
    let with_trace = replay(&world, p, count, Some(&mut recorder));
    let final_metrics = metrics_http.serve_metrics()?;

    let mut tally = run.tally;
    tally.merge(&plain.tally);
    tally.merge(&with_trace.tally);
    ledger.set("serve.complete", plain.tally.complete as f64);
    ledger.set("serve.partial", plain.tally.partial as f64);
    ledger.set("serve.errors", plain.tally.errors as f64);
    ledger.set("serve.shed", (final_metrics.shed.max(tally.shed)) as f64);
    ledger.set(
        "serve.query_duration_ms",
        (after.query_sum_us - before.query_sum_us) as f64 / 1e3,
    );
    if after.query_count - before.query_count != count as u64 {
        return Err(format!(
            "/metrics counted {} queries for {count} requests",
            after.query_count - before.query_count
        ));
    }
    let sum = |r: &Replay| r.times.iter().map(|t| t.1).sum::<f64>();
    ledger.set(
        "bench.trace_overhead_share",
        (sum(&with_trace) - sum(&plain)) / sum(&plain),
    );
    super::set_engine_span_times(&recorder, &mut ledger);
    let count_of = |key: &str| recorder.counts.get(key).copied().unwrap_or(0) as f64;
    ledger.set("engine.evaluations", count_of("product.evaluations"));
    ledger.set(
        "engine.schedule_ops_scored",
        count_of("product.schedule.ops_scored"),
    );
    ledger.set(
        "ftsearch.postings_scanned",
        count_of("product.nd.ft.postings_scanned"),
    );

    // The same queries without the socket (`routes::dispatch` in-process)
    // and without the server (a store-opened session, `free`).
    let dispatcher = Dispatcher::open(world.dir.path())?;
    let stored = Session::open(&world.store_path)?;
    let mut direct: Vec<(&'static str, f64)> = Vec::new();
    let mut dispatched: Vec<(&'static str, f64)> = Vec::new();
    let mut work = Work::default();
    let mut hits_shown = Vec::new();
    for req in &world.requests {
        let free = QuerySpec {
            governed: false,
            ..req.spec.clone()
        };
        for rep in 0..6 {
            let answer = stored.run(&free, false)?;
            let (status, took) = dispatcher.query(&req.body)?;
            if status != 200 || stats::digest_hits(&answer.hits) != req.digest {
                return Err(format!("in-process paths disagree on {:?}", req.spec.text));
            }
            // The first repetition pays first-touch decode on both.
            if rep > 0 {
                direct.push((
                    req.class,
                    (answer.parse + answer.execute).as_secs_f64() * 1e3,
                ));
                dispatched.push((req.class, took.as_secs_f64() * 1e3));
            } else {
                work.add(&answer.work);
                hits_shown.extend(answer.hits);
            }
        }
    }
    for class in CLASSES {
        let in_memory = class_median(&direct, class);
        ledger.set(&format!("core.class_ms.{class}"), in_memory);
        ledger.set(
            &format!("serve.dispatch_ms.{class}"),
            class_median(&dispatched, class),
        );
        ledger.set(
            &format!("serve.overhead_ms.{class}"),
            class_median(&plain.times, class) - in_memory,
        );
    }
    ledger.set("engine.intermediates", work.intermediates as f64);
    ledger.set("engine.relaxations_used", work.relaxations_used as f64);
    ledger.set("engine.buckets", work.buckets as f64);
    ledger.set("engine.pruned", work.pruned as f64);

    // Wire-level probes on recorded request/response bytes.
    let mut pairs = Vec::new();
    let mut http = Http::connect(world.server.addr);
    for req in &world.requests {
        pairs.push((req.body.clone(), http.post_query(&req.body)?.body));
    }
    let wire = layers::probe_http(&pairs)?;
    ledger.set("serve.read_request_us", wire.read_request_us);
    ledger.set("serve.json_parse_us", wire.json_parse_us);
    ledger.set("serve.write_us", wire.write_us);

    let texts: Vec<String> = world.requests.iter().map(|r| r.spec.text.clone()).collect();
    super::probe_common(
        p,
        p.corpus_bytes(frozen::WARM_CORPUS_BYTES),
        &stored,
        &texts,
        &mut ledger,
    )?;
    ledger.set(
        "core.render_us_per_hit",
        layers::probe_render(&stored, &hits_shown, frozen::SNIPPET_CHARS),
    );
    super::probe_store_layer(
        &stored,
        &world.store_path,
        world.xml_bytes,
        world.file_bytes,
        &mut ledger,
    )?;
    let (hits, misses) = stored.ft_cache();
    if hits + misses > 0 {
        ledger.set(
            "ftsearch.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }

    ledger.set("bench.noisy_blocks", run.noisy_blocks as f64);
    let digest = answers_digest(&world);
    let mut checker = checker_from(&tally);
    check_expected(NAME, p, digest, &mut checker);
    ledger.set(
        "bench.failed_share",
        checker.failed as f64 / checker.attempted.max(1) as f64,
    );

    let trace_file = super::write_trace(NAME, &recorder, &run.calibration_ms)?;
    Ok(Traced {
        ledger,
        self_times: recorder.by_name(),
        attempted: checker.attempted,
        failed: checker.failed,
        first_failure: checker.first_failure,
        answers_digest: digest,
        trace_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_requests() -> Vec<Request> {
        REQUESTS
            .iter()
            .map(|(class, text)| Request {
                class,
                spec: QuerySpec {
                    text: text.to_string(),
                    k: 10,
                    alg: Alg::Hybrid,
                    scheme: Scheme::StructureFirst,
                    governed: true,
                },
                body: Vec::new(),
                traced_body: Vec::new(),
                digest: 0,
            })
            .collect()
    }

    #[test]
    fn the_mix_is_exactly_70_20_10_and_follows_the_seed() {
        let reqs = fake_requests();
        let seq = mix(&reqs, 9, 0, 200);
        let share = |class: &str| seq.iter().filter(|i| reqs[**i].class == class).count();
        assert_eq!((share("cheap"), share("mid"), share("ft")), (140, 40, 20));
        assert_eq!(seq, mix(&reqs, 9, 0, 200));
        assert_ne!(seq, mix(&reqs, 10, 0, 200));
        assert_ne!(seq, mix(&reqs, 9, 1, 200));
        // Every distinct query gets its turn.
        assert!((0..reqs.len()).all(|i| seq.contains(&i)));
    }

    #[test]
    fn a_rate_step_counts_only_with_a_met_limit_no_failures_and_no_backlog() {
        let fine = vec![1.0; 200];
        let slow = vec![frozen::SERVE_L_MS * 2.0; 200];
        let mut run = Ladder {
            latency: vec![fine.clone(), fine.clone(), fine.clone(), slow],
            lateness_r50: Vec::new(),
            growing: vec![0, 0, 0, 0],
            failed_at: vec![0; 4],
            cycles: 5,
            tally: Tally::default(),
            noisy_blocks: 0,
            calibration_ms: Vec::new(),
        };
        assert_eq!(run.max_rate_ok_qps(), frozen::SERVE_C_QPS * 0.75);
        run.growing[2] = 3; // backlog grew in most cycles at 0.75 C
        assert_eq!(run.max_rate_ok_qps(), frozen::SERVE_C_QPS * 0.5);
        run.failed_at[1] = 1;
        assert_eq!(run.max_rate_ok_qps(), frozen::SERVE_C_QPS * 0.25);
        run.latency[0][199] = f64::INFINITY; // but only 1 of 200 failed: p99 holds
        run.failed_at[0] = 1;
        assert_eq!(run.max_rate_ok_qps(), 0.0);
    }
}
