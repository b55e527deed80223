//! Determinism contract: a query's observable output — answer ids, both
//! scores, satisfied-predicate bitsets, Completeness, work counters and the
//! trace's deterministic counter fingerprint — depends only on the
//! document, the query and its limits. It is **byte-identical** whether the
//! query runs alone (one thread) or while other threads run queries on the
//! same session (2, 4 or 8 threads), for every algorithm and ranking
//! scheme, and feeding the results to the flight recorder changes none of
//! it. A query runs on the thread that executes it; concurrency is across
//! queries sharing one session (see ARCHITECTURE.md, "Concurrency").
//!
//! Also covered: a DPO run cancelled from another thread still returns an
//! exact rank prefix of the unbounded ranking (the interrupted round is
//! discarded whole, never torn).

use flexpath::{Algorithm, CancelToken, FleXPath, QueryResults, RankingScheme};
use flexpath_serve::recorder::{fnv1a, FlightRecorder, QueryRecord};
use flexpath_xmark::{generate, XmarkConfig};
use std::sync::OnceLock;
use std::time::Duration;

/// A ~2MB XMark document: enough relaxation rounds and candidates that
/// concurrent queries overlap, small enough to keep the matrix fast.
fn session() -> &'static FleXPath {
    static SESSION: OnceLock<FleXPath> = OnceLock::new();
    SESSION.get_or_init(|| FleXPath::new(generate(&XmarkConfig::sized(2 * 1024 * 1024, 42))))
}

const QUERIES: &[&str] = &[
    "//item[./description/parlist/listitem and ./mailbox/mail/text and ./name]",
    "//item[./description/parlist and ./mailbox/mail/text[./bold and ./keyword]]",
];

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid];
const SCHEMES: [RankingScheme; 3] = [
    RankingScheme::StructureFirst,
    RankingScheme::KeywordFirst,
    RankingScheme::Combined,
];

/// Threads sharing the session in the concurrent half of each check.
const READERS: usize = 4;

/// The full serialized observable state of a result — if any byte of this
/// differs between a lone and a concurrent run, the contract is broken.
fn render(r: &QueryResults) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "completeness={:?}", r.completeness);
    for (rank, hit) in r.hits.iter().enumerate() {
        let _ = writeln!(
            out,
            "#{rank} node={:?} ss={:.17} ks={:.17} satisfied={:#x} level={}",
            hit.node, hit.score.ss, hit.score.ks, hit.satisfied, hit.relaxation_level
        );
    }
    out
}

/// One `(query, algorithm, scheme)` cell of the matrix.
#[derive(Clone, Copy)]
struct Cell {
    query: &'static str,
    algorithm: Algorithm,
    scheme: RankingScheme,
}

impl Cell {
    fn label(&self) -> String {
        format!("{} / {:?} / {}", self.algorithm, self.scheme, self.query)
    }
}

/// Every `(algorithm, scheme)` pair over `queries`.
fn cells(queries: &[&'static str]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &query in queries {
        for algorithm in ALGORITHMS {
            for scheme in SCHEMES {
                cells.push(Cell {
                    query,
                    algorithm,
                    scheme,
                });
            }
        }
    }
    cells
}

/// Runs `cell` traced and returns the results with their fingerprint.
fn run(flex: &FleXPath, cell: Cell) -> (QueryResults, String) {
    let results = flex
        .query(cell.query)
        .unwrap()
        .top(25)
        .algorithm(cell.algorithm)
        .scheme(cell.scheme)
        .trace()
        .execute();
    let fp = results
        .trace
        .as_ref()
        .expect("trace requested")
        .counter_fingerprint();
    (results, fp)
}

/// Runs every cell alone, one after another on this thread: the reference
/// every concurrent run is held to.
fn lone(flex: &FleXPath, cells: &[Cell]) -> Vec<(QueryResults, String)> {
    cells
        .iter()
        .map(|&cell| {
            let (results, fp) = run(flex, cell);
            assert!(
                !results.hits.is_empty(),
                "{}: cell must exercise answers",
                cell.label()
            );
            (results, fp)
        })
        .collect()
}

/// Runs the whole of `cells` on each of `threads` threads sharing `flex`,
/// each thread starting at a different cell so that different algorithms
/// and schemes overlap in time, feeding `recorder` after every run the way
/// the server's `/query` route does. Returns every run as
/// `(cell index, results, fingerprint)`.
fn concurrently(
    flex: &FleXPath,
    cells: &[Cell],
    threads: usize,
    recorder: Option<&FlightRecorder>,
) -> Vec<(usize, QueryResults, String)> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|thread| {
                scope.spawn(move || {
                    (0..cells.len())
                        .map(|i| {
                            let at = (i + thread * cells.len() / threads) % cells.len();
                            let (results, fp) = run(flex, cells[at]);
                            if let Some(recorder) = recorder {
                                record(recorder, cells[at], &results, &fp);
                            }
                            (at, results, fp)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("query thread"))
            .collect()
    })
}

/// Feeds one completed run into `recorder`.
fn record(recorder: &FlightRecorder, cell: Cell, results: &QueryResults, fp: &str) {
    recorder.record(QueryRecord {
        id: 0,
        endpoint: "query",
        corpus: "xmark".into(),
        query: QueryRecord::clip_query(cell.query),
        algorithm: results.algorithm.to_string().to_ascii_lowercase(),
        scheme: format!("{:?}", cell.scheme),
        k: 25,
        limits: flexpath::QueryLimits::default(),
        duration: Duration::ZERO,
        complete: results.is_complete(),
        exhaust_reason: None,
        trip_site: None,
        answers: results.hits.len() as u64,
        estimated_answers: results.stats.estimated_answers,
        observed_answers: results.stats.observed_answers,
        skew_millibits: skew(results),
        fingerprint_hash: Some(fnv1a(fp.as_bytes())),
    });
}

fn skew(results: &QueryResults) -> i64 {
    flexpath::skew_millibits(
        results.stats.estimated_answers,
        results.stats.observed_answers,
    )
}

/// The cell a flight record was made from.
fn cell_of(cells: &[Cell], record: &QueryRecord) -> usize {
    cells
        .iter()
        .position(|c| {
            c.query == record.query
                && c.algorithm.to_string().to_ascii_lowercase() == record.algorithm
                && format!("{:?}", c.scheme) == record.scheme
        })
        .expect("every record names a cell")
}

#[test]
fn threads_8_output_is_byte_identical_to_threads_1() {
    // Every cell of 2 queries x 3 algorithms x 3 schemes, run alone, then
    // run again on each of eight threads sharing the session: every
    // concurrent rendering must match the lone one byte for byte.
    let flex = session();
    let cells = cells(QUERIES);
    let alone = lone(flex, &cells);
    let runs = concurrently(flex, &cells, 8, None);
    assert_eq!(runs.len(), cells.len() * 8, "every thread runs every cell");
    for (at, results, _) in &runs {
        assert_eq!(
            render(results),
            render(&alone[*at].0),
            "{}: threads=8 diverged from threads=1",
            cells[*at].label()
        );
    }
}

#[test]
fn dpo_work_counters_match_across_thread_counts() {
    // The committed work counters of a DPO run — evaluations, relaxations
    // used, intermediate answers — reflect its own rounds only, so they are
    // the same alone and with seven other DPO runs on the session.
    let flex = session();
    let cells: Vec<Cell> = cells(&QUERIES[..1])
        .into_iter()
        .filter(|c| c.algorithm == Algorithm::Dpo)
        .collect();
    let alone = lone(flex, &cells);
    for (at, results, _) in concurrently(flex, &cells, 8, None) {
        let (seq, par) = (&alone[at].0.stats, &results.stats);
        let label = cells[at].label();
        assert_eq!(seq.evaluations, par.evaluations, "{label}: evaluations");
        assert_eq!(
            seq.relaxations_used, par.relaxations_used,
            "{label}: relaxations_used"
        );
        assert_eq!(
            seq.intermediate_answers, par.intermediate_answers,
            "{label}: intermediate_answers"
        );
    }
}

#[test]
fn trace_counter_fingerprints_are_identical_across_thread_counts() {
    // The observability contract on top of the output contract: the
    // deterministic counter fingerprint (span tree + all counters except
    // durations and the nd.* namespace) is byte-identical alone and with
    // 2, 4 or 8 threads on the session, for every algorithm and scheme.
    let flex = session();
    let cells = cells(&QUERIES[..1]);
    let alone = lone(flex, &cells);
    for (cell, (_, fp)) in cells.iter().zip(&alone) {
        let label = cell.label();
        assert!(
            fp.contains("governor.checkpoint."),
            "{label}: fingerprint must carry checkpoint counters"
        );
        // The estimate-vs-actual skew counters are span counters and
        // therefore part of the fingerprint — they must be present and,
        // below, identical at every thread count.
        let skew_key = match cell.algorithm {
            Algorithm::Dpo => "round.estimated",
            Algorithm::Sso | Algorithm::Hybrid => "pass.estimated",
        };
        assert!(
            fp.contains(skew_key),
            "{label}: fingerprint must carry {skew_key}"
        );
    }
    for threads in [2, 4, 8] {
        for (at, _, fp) in concurrently(flex, &cells, threads, None) {
            assert_eq!(
                fp,
                alone[at].1,
                "{}: fingerprint diverged at threads={threads}",
                cells[at].label()
            );
        }
    }
}

#[test]
fn fingerprints_survive_flight_recording_at_every_thread_count() {
    // The serve-side flight recorder hashes the committed fingerprint and
    // pushes a record after execution; all of that is read-only over the
    // trace, so feeding one recorder from 1, 2, 4 or 8 threads sharing the
    // session leaves every recorded fingerprint hash and skew equal to the
    // lone run's.
    let flex = session();
    let cells = cells(&QUERIES[1..]);
    let alone = lone(flex, &cells);
    for threads in [1, 2, 4, 8] {
        let recorder = FlightRecorder::new(cells.len() * threads, Duration::ZERO);
        for (at, _, fp) in concurrently(flex, &cells, threads, Some(&recorder)) {
            assert_eq!(
                fp,
                alone[at].1,
                "{}: fingerprint diverged at threads={threads} with recorder on",
                cells[at].label()
            );
        }
        let records = recorder.recent(cells.len() * threads);
        assert_eq!(
            records.len(),
            cells.len() * threads,
            "threads={threads}: one record per run"
        );
        for record in &records {
            let at = cell_of(&cells, record);
            assert_eq!(
                record.fingerprint_hash,
                Some(fnv1a(alone[at].1.as_bytes())),
                "{}: recorded fingerprint hash diverged at threads={threads}",
                cells[at].label()
            );
            assert_eq!(
                record.skew_millibits,
                skew(&alone[at].0),
                "{}: recorded skew diverged at threads={threads}",
                cells[at].label()
            );
        }
    }
}

#[test]
fn shared_session_parallel_queries_from_many_threads_agree() {
    // The whole matrix on READERS threads sharing the session, all feeding
    // one flight recorder. Every concurrent run must reproduce its cell's
    // lone run byte for byte: rendering, fingerprint and recorded hash.
    let flex = session();
    let cells = cells(QUERIES);
    let alone = lone(flex, &cells);
    let recorder = FlightRecorder::new(cells.len() * READERS, Duration::ZERO);
    for (at, results, fp) in concurrently(flex, &cells, READERS, Some(&recorder)) {
        let label = cells[at].label();
        assert_eq!(
            render(&results),
            render(&alone[at].0),
            "{label}: answers diverged with {READERS} threads on the session"
        );
        assert_eq!(
            fp, alone[at].1,
            "{label}: fingerprint diverged with {READERS} threads on the session"
        );
    }

    let records = recorder.recent(cells.len() * READERS);
    assert_eq!(records.len(), cells.len() * READERS, "one record per run");
    for record in &records {
        let at = cell_of(&cells, record);
        assert_eq!(
            record.fingerprint_hash,
            Some(fnv1a(alone[at].1.as_bytes())),
            "recorded fingerprint hash diverged from the lone run"
        );
    }
}

#[test]
fn concurrent_cancel_stops_all_workers_and_keeps_exact_rank_prefix() {
    let flex = session();
    let unbounded = flex
        .query(QUERIES[0])
        .unwrap()
        .top(60)
        .algorithm(Algorithm::Dpo)
        .execute();
    assert!(unbounded.is_complete());

    // READERS threads run the same DPO query on the shared session under
    // one cancel token; another thread cancels it mid-run. Every run stops
    // at its next checkpoint, and each returns whole rounds only.
    for delay_us in [50u64, 200, 1_000, 5_000] {
        let cancel = CancelToken::new();
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..READERS)
                .map(|_| {
                    let cancel = cancel.clone();
                    scope.spawn(move || {
                        flex.query(QUERIES[0])
                            .unwrap()
                            .top(60)
                            .algorithm(Algorithm::Dpo)
                            .cancel(cancel)
                            .execute()
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_micros(delay_us));
            cancel.cancel();
            for run in runs {
                let bounded = run.join().expect("query thread");
                assert!(
                    bounded.hits.len() <= unbounded.hits.len(),
                    "cancelled run returned more answers than the complete run"
                );
                assert_eq!(
                    bounded.nodes(),
                    unbounded.nodes()[..bounded.hits.len()].to_vec(),
                    "cancelled DPO must return an exact rank prefix (delay={delay_us}µs)"
                );
            }
        });
    }
}
