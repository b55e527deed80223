//! Cross-commit fingerprint golden: `tests/determinism.rs` proves a build
//! agrees with *itself* when threads share a session; this file proves a
//! build agrees with the *previous* build. `tests/golden/fingerprints.txt`
//! holds one line per (query × algorithm × scheme) cell on a fixed-seed
//! XMark corpus: an FNV-1a digest of the ranked answers (node, score bits,
//! satisfied set, relaxation level), an FNV-1a digest of the trace's
//! deterministic counter fingerprint, and the work counters of
//! [`ExecStats`]. A refactor that claims to be behaviour-preserving must
//! leave the file byte-identical.
//!
//! Every line carries a `t1` token: the file once held a second, identical
//! `t4` line per cell, run with in-query worker threads. That mode is gone
//! and its 63 lines with it; the token stays so the remaining lines did not
//! change by a byte.
//!
//! The answers it pins are checked against `tests/relaxation_oracle.rs`
//! (encoded plan ≡ exact evaluation of the relaxed query ≡ brute force),
//! not merely carried over from the previous build. Every regeneration is
//! accounted for (two so far):
//!
//! 1. *`ghost_skip` propagates every `None`* (DESIGN.md §6.8) changed `q3`
//!    × {SSO, Hybrid} × {StructureFirst, Combined} in counters only
//!    (`intermediates` 133 → 103 — the plan no longer admits items the
//!    relaxed query rejects; the top 50 are the same), and `restart` ×
//!    {SSO, Hybrid} × Combined in answers, `restarts` 3 → 4 and
//!    `relaxations_used` 9 → 14 (the old run stopped at prefix 9 with 11
//!    hits that do not match it).
//! 2. *The required-skeleton prefilter* (DESIGN.md §6.6) changed **only**
//!    `trace=` digests (new `roots` counters, fewer candidates): every
//!    `answers=` digest and every work counter is byte-identical to (1).
//!
//! A failure is the prompt: either the engine's observable behaviour
//! changed by accident (revert), or deliberately (regenerate, and say so in
//! the change description):
//!
//! ```text
//! cargo test -q --test fingerprint_golden -- --ignored regenerate
//! ```

use flexpath::{Algorithm, FleXPath, QueryResults, RankingScheme};
use flexpath_serve::recorder::fnv1a;
use flexpath_xmark::{generate, XmarkConfig};
use std::fmt::Write;
use std::path::PathBuf;

/// The fixed corpus. Never edit: the golden digests encode exactly this.
const CORPUS_BYTES: usize = 256 * 1024;
const CORPUS_SEED: u64 = 20_040_613;

/// `(label, query, k)`. Never reorder or edit: lines are keyed by label.
const QUERIES: &[(&str, &str, usize)] = &[
    // Q1/Q2/Q3 of the benchmark's `structural_relax` workload.
    ("q1", "//item[./description/parlist]", 10),
    (
        "q2",
        "//item[./description/parlist and ./mailbox/mail/text]",
        100,
    ),
    (
        "q3",
        "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]",
        50,
    ),
    // Two `contains` shapes: a conjunction below a descendant edge, and a
    // disjunction at the root.
    (
        "ft_and",
        "//item[./description//text[.contains(\"vintage\" and \"rare\")]]",
        100,
    ),
    ("ft_or", "//item[.contains(\"gold\" or \"antique\")]", 10),
    // The independence estimate overshoots here, so SSO and Hybrid restart
    // (asserted below — the restart loop must stay covered).
    (
        "restart",
        "//item[./description/parlist/listitem/text[.contains(\"gold\")]]",
        100,
    ),
    // Distinguished node below the root: the pinned candidate driver.
    ("below_root", "//item/description/parlist", 100),
];

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid];
const SCHEMES: [RankingScheme; 3] = [
    RankingScheme::StructureFirst,
    RankingScheme::KeywordFirst,
    RankingScheme::Combined,
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fingerprints.txt")
}

fn answers_digest(r: &QueryResults) -> u64 {
    let mut bytes = Vec::with_capacity(r.hits.len() * 36);
    for h in &r.hits {
        bytes.extend_from_slice(&h.node.0.to_le_bytes());
        bytes.extend_from_slice(&h.score.ss.to_bits().to_le_bytes());
        bytes.extend_from_slice(&h.score.ks.to_bits().to_le_bytes());
        bytes.extend_from_slice(&h.satisfied.to_le_bytes());
        bytes.extend_from_slice(&(h.relaxation_level as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

fn run(
    flex: &FleXPath,
    query: &str,
    k: usize,
    algorithm: Algorithm,
    scheme: RankingScheme,
) -> QueryResults {
    flex.query(query)
        .expect("golden query parses")
        .top(k)
        .algorithm(algorithm)
        .scheme(scheme)
        .trace()
        .execute()
}

fn session() -> FleXPath {
    FleXPath::new(generate(&XmarkConfig::sized(CORPUS_BYTES, CORPUS_SEED)))
}

fn current_lines() -> String {
    let flex = session();
    let mut out = String::new();
    for &(label, query, k) in QUERIES {
        for algorithm in ALGORITHMS {
            for scheme in SCHEMES {
                let r = run(&flex, query, k, algorithm, scheme);
                let trace = r.trace.as_ref().expect("trace requested");
                let s = &r.stats;
                let _ = writeln!(
                    out,
                    "{label} {algorithm} {scheme:?} t1 hits={} answers={:016x} \
                     trace={:016x} evaluations={} intermediates={} pruned={} buckets={} \
                     restarts={} relaxations_used={}",
                    r.hits.len(),
                    answers_digest(&r),
                    fnv1a(trace.counter_fingerprint().as_bytes()),
                    s.evaluations,
                    s.intermediate_answers,
                    s.pruned,
                    s.buckets,
                    s.restarts,
                    s.relaxations_used,
                );
            }
        }
    }
    out
}

#[test]
fn fingerprints_match_committed_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).unwrap_or_else(|_| {
        panic!(
            "tests/golden/fingerprints.txt missing — regenerate with \
             `cargo test -q --test fingerprint_golden -- --ignored regenerate`"
        )
    });
    let current = current_lines();
    for (n, (want, got)) in golden.lines().zip(current.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "engine behaviour drifted from the committed golden at line {} \
             (answers, trace counters or work counters differ from the build \
             that wrote tests/golden/fingerprints.txt)",
            n + 1
        );
    }
    assert_eq!(
        current.lines().count(),
        golden.lines().count(),
        "golden matrix size changed"
    );
}

#[test]
fn the_matrix_covers_what_it_claims() {
    // The golden is only a proof if its cells exercise the paths named in
    // QUERIES: answers everywhere, a real restart, a projected answer node.
    let flex = session();
    for &(label, query, k) in QUERIES {
        let r = run(
            &flex,
            query,
            k,
            Algorithm::Sso,
            RankingScheme::StructureFirst,
        );
        assert!(!r.hits.is_empty(), "{label}: cell must produce answers");
        if label == "restart" {
            assert!(r.stats.restarts > 0, "{label}: SSO must restart");
            let h = run(
                &flex,
                query,
                k,
                Algorithm::Hybrid,
                RankingScheme::StructureFirst,
            );
            assert!(h.stats.restarts > 0, "{label}: Hybrid must restart");
        }
        if label == "below_root" {
            let doc = flex.document();
            assert_eq!(doc.tag_name(r.hits[0].node), Some("parlist"));
        }
    }
}

/// Rewrites the golden file from the current build. Run explicitly, and
/// only when an observable engine change is intended:
/// `cargo test -q --test fingerprint_golden -- --ignored regenerate`.
#[test]
#[ignore = "writes tests/golden/fingerprints.txt; run explicitly after a deliberate behaviour change"]
fn regenerate() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("parent")).expect("golden dir");
    std::fs::write(&path, current_lines()).expect("write golden file");
}
