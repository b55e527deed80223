//! The harness shared by the closed-loop workloads (`structural_relax`,
//! `fulltext_mix`, `cold_start`): set-up timing, the five guarded blocks,
//! answer checking, the traced replay, and the path-equivalence check.
//! `serve_open_loop` has its own driver in [`serve`] and reuses the pieces.

pub mod cold;
pub mod fulltext;
pub mod serve;
pub mod structural;

use crate::frozen;
use crate::layers::{self, Http, QuerySpec, Session, TestServer, Work};
use crate::metrics::Ledger;
use crate::noise::NoiseGuard;
use crate::scratch::ScratchDir;
use crate::spans::Recorder;
use crate::stats::{self, Fnv};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

pub const NAMES: [&str; 4] = [
    "structural_relax",
    "fulltext_mix",
    "serve_open_loop",
    "cold_start",
];

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// How long the timed part of an untraced run measures.
    pub seconds: f64,
    /// 256 KB corpora and a few dozen ops: a plumbing check, not a
    /// measurement.
    pub smoke: bool,
}

impl Params {
    pub fn corpus_bytes(&self, full: usize) -> usize {
        if self.smoke {
            frozen::SMOKE_CORPUS_BYTES
        } else {
            full
        }
    }
}

/// One unit of user-visible work.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub class: &'static str,
    /// One query for the warm workloads; the first structural and first
    /// full-text query of a `cold_start` op.
    pub specs: Vec<QuerySpec>,
}

impl Op {
    pub fn single(class: &'static str, spec: QuerySpec) -> Op {
        Op {
            class,
            specs: vec![spec],
        }
    }

    /// Identity of the op's inputs: two ops with one key must give one
    /// digest.
    pub fn key(&self) -> String {
        self.specs
            .iter()
            .map(|s| {
                format!(
                    "{}|{}|{}|{}|{};",
                    s.text,
                    s.k,
                    s.alg.name(),
                    s.scheme.name(),
                    if s.governed { "governed" } else { "free" }
                )
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// What the caller waited.
    pub latency: Duration,
    /// Time the op kept the caller busy (latency plus, for `cold_start`,
    /// dropping the session); the denominator of `ops_per_s`.
    pub busy: Duration,
    pub digest: u64,
    pub complete: bool,
    pub work: Work,
}

/// Where a traced op records its spans.
pub struct Tracing<'a> {
    pub recorder: &'a mut Recorder,
    pub op_id: u64,
}

/// Runs one query on a session, recording (when traced) the benchmark's
/// spans around the two facade calls and the product's own spans under
/// `core.execute`, and counting the facade's self time (op time minus the
/// product trace's root) under `bench.facade_self_ns`.
pub fn run_spec(
    session: &Session,
    spec: &QuerySpec,
    class: &'static str,
    parent: Option<u32>,
    tracing: Option<&mut Tracing<'_>>,
) -> Res<layers::Answer> {
    let answer = session.run(spec, tracing.is_some())?;
    if let Some(t) = tracing {
        let start = t.recorder.ns_of(answer.started);
        let parsed = start + answer.parse.as_nanos() as u64;
        let end = parsed + answer.execute.as_nanos() as u64;
        t.recorder
            .push("tpq.parse", parent, start, parsed, t.op_id, class);
        let exec = t
            .recorder
            .push("core.execute", parent, parsed, end, t.op_id, class);
        if let Some(mut root) = answer.trace.clone() {
            let facade_self = (end - start).saturating_sub(root.duration_ns);
            t.recorder.count("bench.facade_self_ns", facade_self);
            // The product splices its own `parse` child in front; that
            // interval is the `tpq.parse` span above, not part of execute.
            root.children.retain(|c| c.name != "parse");
            t.recorder
                .attach_product(exec, &root, parsed, t.op_id, class);
        }
    }
    Ok(answer)
}

pub trait ClosedLoop {
    type World;
    const NAME: &'static str;

    /// The ingest path up to and including warm-up: everything before the
    /// first timed op.
    fn setup(&self, p: &Params) -> Res<Self::World>;

    /// The ops of round `r`, a pure function of the seed and `r`. Every
    /// round has the same class mix. `None` when the seed's supply of
    /// never-seen inputs is used up.
    fn round(&self, p: &Params, r: u64) -> Option<Vec<Op>>;

    fn execute(
        &self,
        world: &Self::World,
        op: &Op,
        tracing: Option<&mut Tracing<'_>>,
    ) -> Res<Outcome>;

    /// The in-memory session built from the XML (the reference path).
    fn session<'a>(&self, world: &'a Self::World) -> &'a Session;

    /// Rounds replayed by a traced run. Fixed, not timed, so the exact
    /// counters repeat.
    fn trace_rounds(&self, p: &Params) -> u64;

    /// Whether the traced pass needs a world of its own (session caches
    /// must be in the state the untraced pass found them in).
    const FRESH_WORLD_FOR_TRACE: bool;

    /// Size of the corpus set-up generates.
    fn corpus_bytes(&self, p: &Params) -> usize;

    /// Workload-specific per-layer probes (none by default).
    fn probe(&self, _world: &Self::World, _ledger: &mut Ledger) -> Res<()> {
        Ok(())
    }
}

/// First-seen digest per op key; later sightings must match.
#[derive(Debug, Default)]
pub struct Checker {
    reference: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checker {
    /// Counts one op; returns whether it passed.
    pub fn check(&mut self, op: &Op, outcome: &Res<Outcome>) -> bool {
        self.attempted += 1;
        let verdict = match outcome {
            Err(e) => Err(format!("error: {e}")),
            Ok(o) if !o.complete => Err("partial answer".to_string()),
            Ok(o) => {
                let seen = *self.reference.entry(op.key()).or_insert(o.digest);
                if seen == o.digest {
                    Ok(())
                } else {
                    Err(format!(
                        "digest {:016x} differs from first sighting {seen:016x}",
                        o.digest
                    ))
                }
            }
        };
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("{}: {why}", op.key()));
                false
            }
        }
    }

    /// Digest over the first-seen answers of `ops`, in the order given.
    pub fn answers_digest(&self, ops: &[Op]) -> u64 {
        let mut h = Fnv::default();
        for op in ops {
            h.bytes(op.key().as_bytes());
            h.u64(self.reference.get(&op.key()).copied().unwrap_or(0));
        }
        h.finish()
    }

    pub fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.first_failure.get_or_insert(why);
    }
}

/// The committed digest for the default seed, when there is one for this
/// workload and mode: `expected/<workload>.txt`, lines `full <hex>` and
/// `smoke <hex>`.
pub fn expected_digest(workload: &str, p: &Params) -> Option<u64> {
    if p.seed != frozen::DEFAULT_SEED {
        return None;
    }
    let path = format!("{}/expected/{workload}.txt", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).ok()?;
    let mode = if p.smoke { "smoke" } else { "full" };
    text.lines().find_map(|l| {
        let (m, hex) = l.split_once(' ')?;
        (m == mode).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

/// Applies the committed-digest check: a mismatch fails every op of the run.
pub fn check_expected(workload: &str, p: &Params, digest: u64, checker: &mut Checker) {
    if let Some(want) = expected_digest(workload, p) {
        if want != digest {
            checker.fail_all(format!(
                "answers_digest {digest:016x} differs from expected/{workload}.txt ({want:016x})"
            ));
        }
    }
}

#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub peak_rss_mb: f64,
    pub samples: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub noisy_blocks: u64,
    pub answers_digest: u64,
    /// Human-readable extras (block rates, sample-count caveats).
    pub notes: Vec<String>,
}

impl EndToEnd {
    pub fn value(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "ops_per_s" => self.ops_per_s,
            "latency_p50_ms" => self.latency_p50_ms,
            "latency_p95_ms" => self.latency_p95_ms,
            "peak_rss_mb" => self.peak_rss_mb,
            _ => panic!("{name:?} is not an end-to-end metric"),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Traced {
    pub ledger: Ledger,
    /// Per span name: `(total, self)` nanoseconds over the traced pass.
    pub self_times: BTreeMap<String, (u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub answers_digest: u64,
    pub trace_file: std::path::PathBuf,
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets the world up [`frozen::SETUP_REPEATS`] times (dropping each before
/// building the next, so peak memory is one world's) and returns the last
/// world with the median set-up time in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Res<T>) -> Res<(T, f64)> {
    let mut times = Vec::new();
    let mut world = None;
    for _ in 0..frozen::SETUP_REPEATS {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((world.expect("SETUP_REPEATS >= 1"), stats::median(&times)))
}

/// One pass over a round's ops: the unit the estimator selects.
struct Round {
    /// Latency of each passed op, ms.
    latencies: Vec<f64>,
    busy: Duration,
}

impl Round {
    fn seconds_per_op(&self) -> f64 {
        self.busy.as_secs_f64() / self.latencies.len().max(1) as f64
    }
}

/// Runs whole rounds until `budget` is spent (a round is started only when
/// half of a typical round still fits, so blocks average `budget`).
fn run_block<W: ClosedLoop>(
    w: &W,
    world: &W::World,
    p: &Params,
    checker: &mut Checker,
    next_round: &mut u64,
    budget: Duration,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    let start = Instant::now();
    while let Some(ops) = w.round(p, *next_round) {
        *next_round += 1;
        let mut round = Round {
            latencies: Vec::with_capacity(ops.len()),
            busy: Duration::ZERO,
        };
        for op in &ops {
            let outcome = w.execute(world, op, None);
            if checker.check(op, &outcome) {
                let o = outcome.expect("checked ok");
                round.latencies.push(o.latency.as_secs_f64() * 1e3);
                round.busy += o.busy;
            }
        }
        rounds.push(round);
        let elapsed = start.elapsed();
        if elapsed + elapsed / rounds.len() as u32 / 2 >= budget {
            break;
        }
    }
    rounds
}

/// The fastest quarter of the rounds (at least one), by time per op.
///
/// Every round runs the same op mix, and on a shared host interference
/// only ever adds time, in stretches of seconds: the reference host ran the
/// same round in 580–960 ms within one run. The median over rounds moved
/// 5–10 % between runs of one binary; the fastest quarter moved 2 %. The
/// selection is the same on every commit, so it compares like with like —
/// the least-disturbed quarter of each run.
fn fastest_quarter(mut rounds: Vec<Round>) -> Vec<Round> {
    rounds.retain(|r| !r.latencies.is_empty());
    rounds.sort_by(|a, b| a.seconds_per_op().total_cmp(&b.seconds_per_op()));
    rounds.truncate(rounds.len().div_ceil(4));
    rounds
}

pub fn end_to_end<W: ClosedLoop>(w: &W, p: &Params) -> Res<EndToEnd> {
    let (world, setup_s) = timed_setups(|| w.setup(p))?;
    let mut guard = NoiseGuard::default();
    let mut checker = Checker::default();
    let mut next_round = 0u64;
    let budget = Duration::from_secs_f64(p.seconds / frozen::BLOCKS as f64);
    let rounds: Vec<Round> = guard
        .guarded(frozen::BLOCKS, || {
            run_block(w, &world, p, &mut checker, &mut next_round, budget)
        })
        .into_iter()
        .flatten()
        .collect();
    let all_rates = stats::sorted(
        rounds
            .iter()
            .filter(|r| !r.latencies.is_empty())
            .map(|r| 1.0 / r.seconds_per_op())
            .collect(),
    );
    let kept = fastest_quarter(rounds);
    let ops: usize = kept.iter().map(|r| r.latencies.len()).sum();
    let busy: f64 = kept.iter().map(|r| r.busy.as_secs_f64()).sum();
    let ops_per_s = if busy > 0.0 { ops as f64 / busy } else { 0.0 };
    let latencies = stats::sorted(
        kept.iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect(),
    );
    let peak_rss_mb = peak_rss_mb();

    let round0 = w.round(p, 0).unwrap_or_default();
    let answers_digest = checker.answers_digest(&round0);
    check_expected(W::NAME, p, answers_digest, &mut checker);
    let sample: Vec<QuerySpec> = verify_sample(&round0);
    for why in verify_paths(w.session(&world), &sample)? {
        checker.attempted += 1;
        checker.failed += 1;
        checker.first_failure.get_or_insert(why);
    }

    let mut notes = vec![format!(
        "{} rounds; per-round rate min {:.2} median {:.2} max {:.2} op/s; \
         metrics are taken over the fastest quarter ({} rounds, {} ops)",
        all_rates.len(),
        all_rates.first().copied().unwrap_or(0.0),
        stats::median(&all_rates),
        all_rates.last().copied().unwrap_or(0.0),
        kept.len(),
        ops
    )];
    notes.push(format!(
        "calibration readings after each block, ms: {}",
        guard
            .readings_ms
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if !stats::percentile_supported(latencies.len(), 95.0) {
        notes.push(format!(
            "p95 has only {} samples beyond it (fewer than ten)",
            stats::samples_beyond(latencies.len(), 95.0)
        ));
    }
    Ok(EndToEnd {
        setup_s,
        ops_per_s,
        latency_p50_ms: stats::percentile(&latencies, 50.0).unwrap_or(0.0),
        latency_p95_ms: stats::percentile(&latencies, 95.0).unwrap_or(0.0),
        peak_rss_mb,
        samples: latencies.len(),
        attempted: checker.attempted,
        failed: checker.failed,
        first_failure: checker.first_failure,
        noisy_blocks: guard.noisy_blocks,
        answers_digest,
        notes,
    })
}

/// Up to [`frozen::VERIFY_SAMPLE`] queries of a round, spread over it.
pub fn verify_sample(round: &[Op]) -> Vec<QuerySpec> {
    let specs: Vec<&QuerySpec> = round.iter().flat_map(|op| op.specs.iter()).collect();
    let step = (specs.len() / frozen::VERIFY_SAMPLE).max(1);
    specs
        .into_iter()
        .step_by(step)
        .take(frozen::VERIFY_SAMPLE)
        .cloned()
        .collect()
}

/// Path equivalence: the in-memory session, a session opened from the
/// store it saves, and `/query` on a server over that store must return
/// the same ranked `(node, ss, ks)` list, and repeating the in-memory run
/// must too. Returns one message per mismatch.
pub fn verify_paths(session: &Session, sample: &[QuerySpec]) -> Res<Vec<String>> {
    let dir = ScratchDir::new("verify").map_err(|e| format!("scratch: {e}"))?;
    session.save(&dir.path().join("doc.fxs"), "doc")?;
    let stored = Session::open(&dir.path().join("doc.fxs"))?;
    let server = TestServer::boot(dir.path())?;
    let mut http = Http::connect(server.addr);
    let mut mismatches = Vec::new();
    for spec in sample {
        let memory = stats::digest_hits(&session.run(spec, false)?.hits);
        let again = stats::digest_hits(&session.run(spec, false)?.hits);
        let store = stats::digest_hits(&stored.run(spec, false)?.hits);
        let reply = http.post_query(layers::query_body("doc", spec, 0, false).as_bytes())?;
        let served = match reply.status {
            200 => stats::digest_hits(&layers::parse_query_reply(&reply.body)?.hits),
            status => return Err(format!("/query answered {status} during verification")),
        };
        if !(memory == again && memory == store && memory == served) {
            mismatches.push(format!(
                "paths disagree on {:?}: memory {memory:016x} repeat {again:016x} \
                 store {store:016x} /query {served:016x}",
                spec.text
            ));
        }
    }
    Ok(mismatches)
}

struct PassOp {
    class: &'static str,
    alg: layers::Alg,
    governed: bool,
    ms: f64,
}

/// One pass over rounds `0..rounds`: per-op times plus summed work, for
/// the traced/untraced comparison.
struct Pass {
    ops: Vec<PassOp>,
    /// Time of each round, ms.
    round_ms: Vec<f64>,
    work: Work,
}

fn run_pass<W: ClosedLoop>(
    w: &W,
    world: &W::World,
    p: &Params,
    rounds: u64,
    checker: &mut Checker,
    mut recorder: Option<&mut Recorder>,
) -> Pass {
    let mut pass = Pass {
        ops: Vec::new(),
        round_ms: Vec::new(),
        work: Work::default(),
    };
    let mut op_id = 0u64;
    for r in 0..rounds {
        pass.round_ms.push(0.0);
        for op in w.round(p, r).unwrap_or_default() {
            op_id += 1;
            let outcome = match recorder.as_deref_mut() {
                Some(rec) => w.execute(
                    world,
                    &op,
                    Some(&mut Tracing {
                        recorder: rec,
                        op_id,
                    }),
                ),
                None => w.execute(world, &op, None),
            };
            if checker.check(&op, &outcome) {
                let o = outcome.expect("checked ok");
                let ms = o.latency.as_secs_f64() * 1e3;
                pass.ops.push(PassOp {
                    class: op.class,
                    alg: op.specs[0].alg,
                    governed: op.specs[0].governed,
                    ms,
                });
                *pass.round_ms.last_mut().expect("pushed above") += ms;
                pass.work.add(&o.work);
            }
        }
    }
    pass
}

fn times_where(pass: &Pass, keep: impl Fn(&PassOp) -> bool) -> Vec<f64> {
    pass.ops.iter().filter(|o| keep(o)).map(|o| o.ms).collect()
}

pub fn traced<W: ClosedLoop>(w: &W, p: &Params) -> Res<Traced> {
    let rounds = w.trace_rounds(p);
    let mut guard = NoiseGuard::default();
    let mut checker = Checker::default();
    let mut ledger = Ledger::default();

    // Untraced pass.
    let world = w.setup(p)?;
    let untraced = guard.watched(|| run_pass(w, &world, p, rounds, &mut checker, None));

    // Traced replay of the same op sequence.
    let world = if W::FRESH_WORLD_FOR_TRACE {
        drop(world);
        w.setup(p)?
    } else {
        world
    };
    let mut recorder = Recorder::default();
    let counters_before = layers::engine_counters();
    let cache_before = w.session(&world).ft_cache();
    let traced =
        guard.watched(|| run_pass(w, &world, p, rounds, &mut checker, Some(&mut recorder)));
    let counters_after = layers::engine_counters();
    let cache_after = w.session(&world).ft_cache();

    // The deterministic work counters must not depend on tracing.
    if untraced.work != traced.work {
        checker.fail_all(format!(
            "work counters differ between the untraced and traced pass: {:?} vs {:?}",
            untraced.work, traced.work
        ));
    }

    let texts: Vec<String> = {
        let mut seen = std::collections::BTreeSet::new();
        (0..rounds)
            .flat_map(|r| w.round(p, r).unwrap_or_default())
            .flat_map(|op| op.specs.into_iter().map(|s| s.text))
            .filter(|t| seen.insert(t.clone()))
            .collect()
    };

    // engine.* from the product's trace spans and counters.
    set_engine_span_times(&recorder, &mut ledger);
    for alg in layers::Alg::ALL {
        ledger.set(
            &format!("engine.alg_ms.{}", alg.name()),
            times_where(&untraced, |o| o.alg == alg).iter().sum(),
        );
    }
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let governed = times_where(&untraced, |o| o.governed);
    let free = times_where(&untraced, |o| !o.governed);
    if !governed.is_empty() && !free.is_empty() {
        ledger.set("engine.governed_ratio", mean(governed) / mean(free));
    }
    ledger.set("engine.evaluations", traced.work.evaluations as f64);
    ledger.set("engine.intermediates", traced.work.intermediates as f64);
    ledger.set("engine.buckets", traced.work.buckets as f64);
    ledger.set(
        "engine.relaxations_used",
        traced.work.relaxations_used as f64,
    );
    ledger.set("engine.pruned", traced.work.pruned as f64);
    let delta = |key: &str| layers::counter_delta(&counters_before, &counters_after, key) as f64;
    ledger.set("engine.candidates", delta("engine.exec.candidates"));
    ledger.set("engine.join_pairs", delta("engine.join.pairs"));
    ledger.set("engine.saturated_breaks", delta("engine.exec.saturated"));
    let count = |key: &str| recorder.counts.get(key).copied().unwrap_or(0) as f64;
    ledger.set(
        "engine.schedule_ops_scored",
        count("product.schedule.ops_scored"),
    );
    if delta("engine.exec.candidates") > 0.0 {
        ledger.set(
            "engine.answers_per_candidate",
            delta("engine.exec.answers") / delta("engine.exec.candidates"),
        );
    }
    ledger.set(
        "ftsearch.postings_scanned",
        count("product.nd.ft.postings_scanned"),
    );
    let (hits, misses) = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
    );
    if hits + misses > 0 {
        ledger.set(
            "ftsearch.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }

    for class in ["ft_hot", "ft_cold"] {
        let hits = count(&format!("bench.ft_cache.{class}.hits"));
        let probes = hits + count(&format!("bench.ft_cache.{class}.misses"));
        if probes > 0.0 {
            ledger.set(&format!("ftsearch.cache_hit_ratio.{class}"), hits / probes);
        }
    }
    let cold_ops = count("bench.cold_ops");
    if cold_ops > 0.0 {
        ledger.set(
            "store.first_structural_ms",
            count("bench.first_structural_ns") / cold_ops / 1e6,
        );
        ledger.set(
            "store.first_fulltext_ms",
            count("bench.first_fulltext_ns") / cold_ops / 1e6,
        );
    }

    // core.* from op times.
    for class in ["q1", "q2", "q3_k10", "q3_k500", "ft_hot", "ft_cold"] {
        ledger.set(
            &format!("core.class_ms.{class}"),
            stats::median(&times_where(&untraced, |o| o.class == class)),
        );
    }
    ledger.set("core.facade_self_ms", count("bench.facade_self_ns") / 1e6);

    // bench.*: the traced pass replays the untraced pass round for round,
    // so each round gives one traced/untraced ratio; the median ratio is
    // not moved by a round the host disturbed in one pass only.
    let ratios: Vec<f64> = untraced
        .round_ms
        .iter()
        .zip(&traced.round_ms)
        .filter(|(u, _)| **u > 0.0)
        .map(|(u, t)| t / u)
        .collect();
    if !ratios.is_empty() {
        ledger.set("bench.trace_overhead_share", stats::median(&ratios) - 1.0);
    }

    probe_common(p, w.corpus_bytes(p), w.session(&world), &texts, &mut ledger)?;
    w.probe(&world, &mut ledger)?;
    ledger.set("bench.noisy_blocks", guard.noisy_blocks as f64);

    let round0 = w.round(p, 0).unwrap_or_default();
    let answers_digest = checker.answers_digest(&round0);
    check_expected(W::NAME, p, answers_digest, &mut checker);
    if checker.attempted > 0 {
        ledger.set(
            "bench.failed_share",
            checker.failed as f64 / checker.attempted as f64,
        );
    }

    let trace_file = write_trace(W::NAME, &recorder, &guard.readings_ms)?;

    Ok(Traced {
        ledger,
        self_times: recorder.by_name(),
        attempted: checker.attempted,
        failed: checker.failed,
        first_failure: checker.first_failure,
        answers_digest,
        trace_file,
    })
}

/// `engine.schedule_ms` and `engine.eval_ms` from the product's trace spans.
pub fn set_engine_span_times(recorder: &Recorder, ledger: &mut Ledger) {
    ledger.set("engine.schedule_ms", recorder.total_ms("schedule"));
    ledger.set(
        "engine.eval_ms",
        recorder.total_ms("round") + recorder.total_ms("pass") + recorder.total_ms("choose_prefix"),
    );
}

/// Writes the pass's spans, counts and calibration readings to
/// `benchmark/out/<workload>.trace.jsonl`.
pub fn write_trace(
    workload: &str,
    recorder: &Recorder,
    calibration_ms: &[f64],
) -> Res<std::path::PathBuf> {
    let path = crate::scratch::out_dir().join(format!("{workload}.trace.jsonl"));
    let readings: Vec<String> = calibration_ms.iter().map(|r| format!("{r:.3}")).collect();
    let extra = [format!("{{\"calibration_ms\":[{}]}}", readings.join(","))];
    recorder
        .write_jsonl(&path, &extra)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Probes every workload takes: the ingest path step by step on a fresh
/// copy of the set-up corpus, the query front end on the workload's query
/// texts, and two corpus-level engine micro-probes.
pub fn probe_common(
    p: &Params,
    corpus_bytes: usize,
    session: &Session,
    texts: &[String],
    ledger: &mut Ledger,
) -> Res<()> {
    let corpus = layers::generate_corpus(corpus_bytes, p.seed);
    ledger.set("xmark.generate_ms", corpus.generate.as_secs_f64() * 1e3);
    let ingest = layers::probe_ingest(&corpus.xml)?;
    drop(corpus);
    ledger.set("xmldom.parse_ms", ingest.parse_ms);
    ledger.set("xmldom.stats_ms", ingest.stats_ms);
    ledger.set("xmldom.nodes", ingest.nodes as f64);
    ledger.set("ftsearch.index_build_ms", ingest.index_build_ms);
    ledger.set("ftsearch.terms", ingest.terms as f64);
    ledger.set("ftsearch.posting_entries", ingest.posting_entries as f64);

    let (eval_ms, eval_calls) = layers::probe_ft_eval(session, texts)?;
    ledger.set("ftsearch.eval_ms", eval_ms);
    ledger.set("ftsearch.eval_calls", eval_calls as f64);
    let (parse_us, closure_us) = layers::probe_tpq(texts)?;
    ledger.set("tpq.parse_us_per_query", parse_us);
    ledger.set("tpq.closure_us_per_query", closure_us);
    ledger.set(
        "engine.schedule_direct_ms",
        layers::probe_schedule(session, texts)?,
    );
    ledger.set(
        "engine.structural_join_ms",
        layers::probe_structural_join(session),
    );

    // Order maintenance: the score stream of the least selective query at a
    // large K, replayed at K = 500.
    let stream = session.run(
        &QuerySpec {
            text: "//item[./description]".to_string(),
            k: 5000,
            alg: layers::Alg::Hybrid,
            scheme: layers::Scheme::StructureFirst,
            governed: false,
        },
        false,
    )?;
    ledger.set(
        "engine.order_offer_ns",
        layers::probe_order_offer(&stream.hits, 500),
    );
    let shown = &stream.hits[..stream.hits.len().min(200)];
    ledger.set(
        "core.render_us_per_hit",
        layers::probe_render(session, shown, frozen::SNIPPET_CHARS),
    );
    Ok(())
}

/// The store layer, probed on the file a workload's set-up wrote: write
/// time (saving again next to it), size, and first-touch decode of each
/// part on a fresh handle.
pub fn probe_store_layer(
    session: &Session,
    path: &std::path::Path,
    xml_bytes: u64,
    file_bytes: u64,
    ledger: &mut Ledger,
) -> Res<()> {
    let t = Instant::now();
    let rewritten = session.save(&path.with_extension("probe"), "doc")?;
    ledger.set("store.write_ms", t.elapsed().as_secs_f64() * 1e3);
    if rewritten != file_bytes {
        return Err(format!(
            "store size changed between saves: {file_bytes} vs {rewritten}"
        ));
    }
    ledger.set("store.file_bytes", file_bytes as f64);
    ledger.set(
        "store.bytes_per_xml_byte",
        file_bytes as f64 / xml_bytes as f64,
    );
    let probe = layers::probe_store(path)?;
    ledger.set("store.open_us", probe.open_us);
    ledger.set("store.decode_doc_ms", probe.decode_doc_ms);
    ledger.set("store.decode_stats_ms", probe.decode_stats_ms);
    ledger.set("store.decode_index_ms", probe.decode_index_ms);
    ledger.set("store.eager_open_ms", probe.eager_open_ms);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Alg, Scheme};

    fn op(text: &str, k: usize) -> Op {
        Op::single(
            "q1",
            QuerySpec {
                text: text.to_string(),
                k,
                alg: Alg::Dpo,
                scheme: Scheme::StructureFirst,
                governed: false,
            },
        )
    }

    fn outcome(digest: u64, complete: bool) -> Res<Outcome> {
        Ok(Outcome {
            latency: Duration::from_millis(1),
            busy: Duration::from_millis(1),
            digest,
            complete,
            work: Work::default(),
        })
    }

    #[test]
    fn checker_fails_errors_partials_and_changed_answers() {
        let mut c = Checker::default();
        assert!(c.check(&op("//a", 10), &outcome(1, true)));
        assert!(
            c.check(&op("//a", 10), &outcome(1, true)),
            "same key, same digest"
        );
        assert!(c.check(&op("//a", 500), &outcome(2, true)), "another key");
        assert!(
            !c.check(&op("//a", 10), &outcome(3, true)),
            "answer changed"
        );
        assert!(!c.check(&op("//b", 10), &outcome(4, false)), "partial");
        assert!(!c.check(&op("//c", 10), &Err("boom".into())));
        assert_eq!((c.attempted, c.failed), (6, 3));
        assert!(c
            .first_failure
            .as_deref()
            .unwrap()
            .contains("differs from first sighting"));
        // The digest covers the first sightings, in the order asked for.
        let d = c.answers_digest(&[op("//a", 10), op("//a", 500)]);
        assert_eq!(d, c.answers_digest(&[op("//a", 10), op("//a", 500)]));
        assert_ne!(d, c.answers_digest(&[op("//a", 500), op("//a", 10)]));
    }
}
