//! Concurrency contract: one [`FleXPath`] session serves queries from many
//! threads simultaneously with identical results, and the shared full-text
//! cache is populated exactly once per expression.

use flexpath::{Algorithm, CancelToken, FleXPath, QueryLimits};
use flexpath_xmark::{generate, XmarkConfig};
use std::sync::Arc;
use std::time::Duration;

const QUERY: &str =
    "//item[./description/parlist and ./mailbox/mail/text[.contains(\"vintage\" and \"gold\")]]";

#[test]
fn session_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FleXPath>();
    assert_send_sync::<flexpath::TagHierarchy>();
    assert_send_sync::<flexpath::Thesaurus>();
}

#[test]
fn parallel_queries_agree_with_serial_execution() {
    let flex = Arc::new(FleXPath::new(generate(&XmarkConfig::sized(128 * 1024, 33))));
    let serial = flex.query(QUERY).unwrap().top(25).execute().unwrap();

    let mut handles = Vec::new();
    for t in 0..8 {
        let flex = Arc::clone(&flex);
        handles.push(std::thread::spawn(move || {
            let alg = match t % 3 {
                0 => Algorithm::Dpo,
                1 => Algorithm::Sso,
                _ => Algorithm::Hybrid,
            };
            let r = flex
                .query(QUERY)
                .unwrap()
                .top(25)
                .algorithm(alg)
                .execute()
                .unwrap();
            (alg, r.nodes())
        }));
    }
    for h in handles {
        let (alg, nodes) = h.join().expect("worker did not panic");
        if alg != Algorithm::Dpo {
            assert_eq!(nodes, serial.nodes(), "{alg} differs under concurrency");
        } else {
            // DPO's round-level scores may tie-break differently; the sets
            // must still agree.
            let mut a = nodes;
            let mut b = serial.nodes();
            a.sort();
            b.sort();
            assert_eq!(a, b, "DPO set differs under concurrency");
        }
    }
}

/// The serving contract: a shared session stays byte-deterministic even
/// while sibling threads are having their queries cancelled or tripped by
/// deadlines mid-flight. Budget trips on one thread must never leak into
/// another thread's schedule, scores, or trace counters.
#[test]
fn cancellation_on_one_thread_never_perturbs_another() {
    let flex = Arc::new(FleXPath::new(generate(&XmarkConfig::sized(128 * 1024, 35))));
    let fingerprint = |flex: &FleXPath| {
        let r = flex
            .query(QUERY)
            .unwrap()
            .top(25)
            .algorithm(Algorithm::Hybrid)
            .trace()
            .execute()
            .unwrap();
        assert!(r.completeness.is_complete(), "reference run is complete");
        (
            r.nodes(),
            format!("{:?}", r.hits.iter().map(|h| h.score).collect::<Vec<_>>()),
            r.trace.expect("trace requested").counter_fingerprint(),
        )
    };
    let serial = fingerprint(&flex);

    let mut handles = Vec::new();
    for t in 0..12 {
        let flex = Arc::clone(&flex);
        handles.push(std::thread::spawn(move || match t % 3 {
            // A third of the threads run the real query with a trace.
            0 => {
                let r = flex
                    .query(QUERY)
                    .unwrap()
                    .top(25)
                    .algorithm(Algorithm::Hybrid)
                    .trace()
                    .execute()
                    .unwrap();
                Some((
                    r.nodes(),
                    format!("{:?}", r.hits.iter().map(|h| h.score).collect::<Vec<_>>()),
                    r.trace.expect("trace requested").counter_fingerprint(),
                ))
            }
            // A third get cancelled before they start: zero answers, a
            // typed Cancelled completeness, no panic.
            1 => {
                let token = CancelToken::new();
                token.cancel();
                let r = flex
                    .query(QUERY)
                    .unwrap()
                    .top(25)
                    .cancel(token)
                    .execute()
                    .unwrap();
                assert!(!r.completeness.is_complete(), "cancelled run is partial");
                None
            }
            // A third trip an absurdly small deadline mid-flight.
            _ => {
                let r = flex
                    .query(QUERY)
                    .unwrap()
                    .top(25)
                    .limits(QueryLimits::default().with_deadline(Duration::from_nanos(1)))
                    .execute()
                    .unwrap();
                assert!(!r.completeness.is_complete(), "deadline run is partial");
                None
            }
        }));
    }
    for h in handles {
        if let Some(observed) = h.join().expect("worker did not panic") {
            assert_eq!(
                observed, serial,
                "concurrent run diverged from serial fingerprint"
            );
        }
    }

    // After all that mid-flight cancellation, the shared session still
    // produces the identical bytes: nothing was poisoned.
    assert_eq!(fingerprint(&flex), serial, "session state perturbed");
}

#[test]
fn ft_cache_is_shared_across_threads() {
    let flex = Arc::new(FleXPath::new(generate(&XmarkConfig::sized(64 * 1024, 34))));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let flex = Arc::clone(&flex);
        handles.push(std::thread::spawn(move || {
            flex.query(QUERY)
                .unwrap()
                .top(5)
                .execute()
                .unwrap()
                .hits
                .len()
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // One distinct contains expression → at most a couple of cache entries
    // (the expression plus any schedule-derived duplicates), not 4×.
    assert!(
        flex.context().ft_cache_size() <= 2,
        "cache should be shared, found {} entries",
        flex.context().ft_cache_size()
    );
}
