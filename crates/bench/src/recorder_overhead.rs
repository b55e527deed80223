//! Flight-recorder overhead micro-benchmark.
//!
//! Measures what feeding one [`QueryRecord`] into the serve-side
//! [`FlightRecorder`] costs relative to executing the query it records,
//! on the Fig 10 workload (XMark document, Q3, a K sweep). The feed path
//! timed here is exactly what `flexpath-serve` runs after every `/query`:
//! clip the query text, scan the trace root for the governor trip site,
//! hash the deterministic counter fingerprint (FNV-1a), and push the record
//! into its ring stripe.
//!
//! Driven by `repro --recorder-overhead results/recorder_overhead.json`.
//! The acceptance bar is overhead < 2% of query execution time; in
//! practice a record costs microseconds against queries costing
//! milliseconds, so the measured ratio lands orders of magnitude below
//! the bar.

use crate::workload::{bench_session, XQ3};
use flexpath::{Algorithm, FleXPath, QueryLimits, QueryResults};
use flexpath_serve::json::JsonBuf;
use flexpath_serve::recorder::{fnv1a, FlightRecorder, QueryRecord};
use std::time::{Duration, Instant};

/// K values swept per round (Fig 10 uses Q3 with K varying; the smaller
/// sweep here keeps the micro-benchmark's wall-clock proportionate).
const KS: [usize; 3] = [50, 200, 500];

/// Aggregate of one overhead run.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// XMark corpus size, bytes.
    pub corpus_bytes: usize,
    /// Queries executed (and records fed).
    pub queries: u64,
    /// Total query execution time, microseconds.
    pub exec_us: u64,
    /// Total time spent building + recording flight records, microseconds.
    pub record_us: u64,
    /// Mean cost of one record feed, nanoseconds.
    pub per_record_ns: u64,
    /// `record_us / exec_us`, percent — the recorder's overhead relative
    /// to the work it observes.
    pub overhead_percent: f64,
}

impl OverheadReport {
    /// Machine-readable report for `results/recorder_overhead.json`.
    pub fn render_json(&self) -> String {
        let mut b = JsonBuf::new();
        b.raw("{");
        b.key("benchmark").string("recorder_overhead");
        b.key("workload").string("fig10 (XMark Q3, K sweep)");
        b.key("corpus_bytes").u64(self.corpus_bytes as u64);
        b.key("queries").u64(self.queries);
        b.key("exec_us").u64(self.exec_us);
        b.key("record_us").u64(self.record_us);
        b.key("per_record_ns").u64(self.per_record_ns);
        b.key("overhead_percent")
            .raw(&format!("{:.4}", self.overhead_percent));
        b.raw("}");
        b.finish()
    }

    /// Human-readable summary for the console.
    pub fn render_table(&self) -> String {
        format!(
            "recorder_overhead: {} B corpus, {} queries (fig10 workload)\n\
             exec total      {:>12} us\n\
             record total    {:>12} us\n\
             per record      {:>12} ns\n\
             overhead        {:>11.4} %\n",
            self.corpus_bytes,
            self.queries,
            self.exec_us,
            self.record_us,
            self.per_record_ns,
            self.overhead_percent
        )
    }
}

/// Runs the micro-benchmark: traced Q3 executions over the Fig 10
/// document, each followed by a timed record feed (the exec and feed are
/// timed separately, so scheduling noise in the multi-millisecond query
/// cannot masquerade as recorder cost).
pub fn run(scale: f64) -> OverheadReport {
    let corpus_bytes = ((10.0 * scale * (1 << 20) as f64) as usize).max(64 * 1024);
    let flex = bench_session(corpus_bytes);
    let recorder = FlightRecorder::new(256, Duration::from_millis(500));

    // Warmup: one pass over the sweep primes the session caches.
    for &k in &KS {
        let _ = run_query(&flex, k);
    }

    let rounds = 5u64;
    let mut exec = Duration::ZERO;
    let mut record = Duration::ZERO;
    let mut queries = 0u64;
    for _ in 0..rounds {
        for &k in &KS {
            let t = Instant::now();
            let results = run_query(&flex, k);
            let elapsed = t.elapsed();
            exec += elapsed;
            let t = Instant::now();
            feed(&recorder, k, &results, elapsed);
            record += t.elapsed();
            queries += 1;
        }
    }

    let exec_us = exec.as_micros().max(1) as u64;
    let record_us = record.as_micros() as u64;
    OverheadReport {
        corpus_bytes,
        queries,
        exec_us,
        record_us,
        per_record_ns: (record.as_nanos() / u128::from(queries.max(1))) as u64,
        overhead_percent: record_us as f64 / exec_us as f64 * 100.0,
    }
}

fn run_query(flex: &FleXPath, k: usize) -> QueryResults {
    flex.query(XQ3)
        .expect("Q3 parses")
        .top(k)
        .algorithm(Algorithm::Hybrid)
        .trace()
        .execute()
        .unwrap()
}

/// Builds and records one flight record from completed results — the same
/// work `flexpath-serve` does per request (see `routes::record_completed`).
fn feed(recorder: &FlightRecorder, k: usize, results: &QueryResults, elapsed: Duration) {
    let trip_site = results.trace.as_ref().and_then(|t| {
        t.root
            .counters
            .keys()
            .find_map(|key| key.strip_prefix("governor.trip.site.").map(str::to_string))
    });
    let fingerprint_hash = results
        .trace
        .as_ref()
        .map(|t| fnv1a(t.counter_fingerprint().as_bytes()));
    recorder.record(QueryRecord {
        id: 0,
        endpoint: "query",
        corpus: "xmark".to_string(),
        query: QueryRecord::clip_query(XQ3),
        algorithm: results.algorithm.to_string().to_ascii_lowercase(),
        scheme: "structure_first".to_string(),
        k: k as u64,
        limits: QueryLimits::default().with_deadline(Duration::from_secs(2)),
        duration: elapsed,
        complete: results.is_complete(),
        exhaust_reason: None,
        trip_site,
        answers: results.hits.len() as u64,
        fingerprint_hash,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_reports_sane_numbers() {
        let report = run(0.01);
        assert_eq!(report.queries, (KS.len() * 5) as u64);
        assert!(report.exec_us > 0);
        assert!(report.overhead_percent >= 0.0);
        let json = report.render_json();
        assert!(
            json.contains("\"benchmark\":\"recorder_overhead\""),
            "{json}"
        );
        assert!(json.contains("overhead_percent"), "{json}");
    }
}
