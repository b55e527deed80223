//! End-to-end tests on the XMark workload (the paper's Section 6 setup):
//! the three benchmark queries, growing K forcing relaxation, scheme
//! coverage, and cross-algorithm consistency at scale.

use flexpath::{Algorithm, FleXPath, RankingScheme};
use flexpath_xmark::{generate, XmarkConfig};

const XQ1: &str = "//item[./description/parlist]";
const XQ2: &str = "//item[./description/parlist and ./mailbox/mail/text]";
const XQ3: &str = "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]";

fn session(kb: usize, seed: u64) -> FleXPath {
    FleXPath::new(generate(&XmarkConfig::sized(kb * 1024, seed)))
}

#[test]
fn benchmark_queries_produce_answers_at_every_k() {
    let flex = session(256, 1);
    for q in [XQ1, XQ2, XQ3] {
        for k in [1, 10, 50] {
            let r = flex.query(q).unwrap().top(k).execute().unwrap();
            assert!(!r.hits.is_empty(), "{q} at k={k}");
            assert!(r.hits.len() <= k);
            for w in r.hits.windows(2) {
                assert!(w[0].score.ss >= w[1].score.ss - 1e-12);
            }
        }
    }
}

#[test]
fn growing_k_forces_relaxation_and_preserves_prefix() {
    let flex = session(256, 2);
    let small = flex.query(XQ3).unwrap().top(5).execute().unwrap();
    let big = flex.query(XQ3).unwrap().top(100).execute().unwrap();
    assert!(big.hits.len() >= small.hits.len());
    // Structure-first: the top-5 of the big run equals the small run.
    assert_eq!(
        small.nodes(),
        big.nodes()[..small.hits.len()].to_vec(),
        "top-K prefix stability"
    );
    // The big run needed relaxation or already had enough exact matches; in
    // either case levels are consistent with scores.
    for w in big.hits.windows(2) {
        assert!(w[0].score.ss >= w[1].score.ss - 1e-12);
    }
}

#[test]
fn exact_answers_rank_before_relaxed_ones() {
    let flex = session(256, 3);
    let r = flex.query(XQ3).unwrap().top(200).execute().unwrap();
    let first_relaxed = r
        .hits
        .iter()
        .position(|h| h.relaxation_level > 0)
        .unwrap_or(r.hits.len());
    for h in &r.hits[..first_relaxed] {
        assert_eq!(h.relaxation_level, 0);
        assert!((h.score.ss - r.hits[0].score.ss).abs() < 1e-9);
    }
}

#[test]
fn algorithms_agree_on_xmark_across_sizes_and_k() {
    for (kb, seed) in [(64, 10), (256, 11)] {
        let flex = session(kb, seed);
        for q in [XQ1, XQ2] {
            for k in [5, 40] {
                let sso = flex
                    .query(q)
                    .unwrap()
                    .top(k)
                    .algorithm(Algorithm::Sso)
                    .execute()
                    .unwrap();
                let hyb = flex
                    .query(q)
                    .unwrap()
                    .top(k)
                    .algorithm(Algorithm::Hybrid)
                    .execute()
                    .unwrap();
                assert_eq!(sso.nodes(), hyb.nodes(), "{q} k={k} kb={kb}");
                let dpo = flex
                    .query(q)
                    .unwrap()
                    .top(k)
                    .algorithm(Algorithm::Dpo)
                    .execute()
                    .unwrap();
                // DPO scores whole relaxation rounds (compile-time), SSO
                // scores each answer (Section 5.2.1) — so when relaxation
                // kicks in, their rankings may resolve boundary cases
                // differently. What is guaranteed: same answer count, and
                // agreement on the exact (level-0) matches.
                assert_eq!(dpo.hits.len(), sso.hits.len(), "{q} k={k} kb={kb}");
                let exact = |r: &flexpath::QueryResults| {
                    let mut v: Vec<_> = r
                        .hits
                        .iter()
                        .filter(|h| h.relaxation_level == 0)
                        .map(|h| h.node)
                        .collect();
                    v.sort();
                    v
                };
                if sso.hits.iter().all(|h| h.relaxation_level == 0) {
                    assert_eq!(exact(&dpo), exact(&sso), "{q} k={k} kb={kb}");
                }
            }
        }
    }
}

#[test]
fn full_text_queries_combine_with_structure() {
    let flex = session(256, 4);
    let q = "//item[./description/parlist and .contains(\"gold\")]";
    let r = flex.query(q).unwrap().top(25).execute().unwrap();
    assert!(!r.hits.is_empty());
    // Every answer's subtree mentions (a stem of) gold.
    for h in &r.hits {
        let text = flex.document().unwrap().subtree_text(h.node).to_lowercase();
        assert!(text.contains("gold"), "answer without keyword");
        assert!(h.score.ks > 0.0);
    }
}

#[test]
fn ranking_schemes_reorder_but_do_not_invent_answers() {
    let flex = session(128, 5);
    let q = "//item[./description/parlist and .contains(\"vintage\")]";
    let k = 15;
    let sf = flex
        .query(q)
        .unwrap()
        .top(k)
        .scheme(RankingScheme::StructureFirst)
        .execute()
        .unwrap();
    let kf = flex
        .query(q)
        .unwrap()
        .top(k)
        .scheme(RankingScheme::KeywordFirst)
        .execute()
        .unwrap();
    let cb = flex
        .query(q)
        .unwrap()
        .top(k)
        .scheme(RankingScheme::Combined)
        .execute()
        .unwrap();
    // Keyword-first is sorted on ks; combined on ss+ks.
    for w in kf.hits.windows(2) {
        assert!(w[0].score.ks >= w[1].score.ks - 1e-12);
    }
    for w in cb.hits.windows(2) {
        assert!(w[0].score.ss + w[0].score.ks >= w[1].score.ss + w[1].score.ks - 1e-12);
    }
    // All schemes draw from the same answer universe.
    for h in kf.hits.iter().chain(cb.hits.iter()) {
        let text = flex.document().unwrap().subtree_text(h.node).to_lowercase();
        assert!(text.contains("vintag"), "stemmed keyword must occur");
    }
    let _ = sf;
}

#[test]
fn deterministic_across_runs() {
    let flex = session(128, 6);
    let a = flex.query(XQ2).unwrap().top(30).execute().unwrap();
    let b = flex.query(XQ2).unwrap().top(30).execute().unwrap();
    assert_eq!(a.nodes(), b.nodes());
    assert_eq!(a.scores_vec(), b.scores_vec());
}

trait ScoresVec {
    fn scores_vec(&self) -> Vec<(f64, f64)>;
}

impl ScoresVec for flexpath::QueryResults {
    fn scores_vec(&self) -> Vec<(f64, f64)> {
        self.hits.iter().map(|h| (h.score.ss, h.score.ks)).collect()
    }
}
