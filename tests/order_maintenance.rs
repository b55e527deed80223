//! Property tests for the bucketized order-maintenance structure
//! (`flexpath_engine::order`) that replaced the score-sorted intermediate
//! `Vec` in PR 7.
//!
//! The contract under test: [`TopKBuckets`] makes the **same keep/prune
//! decision** on every offered answer, and emits the **same ranked
//! sequence** (best key first, ties in arrival order, truncated to K), as
//! the naive shifting implementation it replaced — for every ranking
//! scheme, every K, and every prefix of the offer stream (a governor
//! budget trip can cut the stream anywhere, so prefix equivalence is what
//! makes the replacement observable-behavior-preserving under
//! cancellation too).
//!
//! The oracle here *is* the old implementation in miniature: a `Vec` kept
//! sorted best-first via binary search + `insert` (the shift storm), with
//! the identical prune rule (`len ≥ k` and key ≤ the K-th best).
//!
//! Also covered: [`PruneFloor`] against a sort-based oracle, and the
//! end-to-end check that the bucketized path is the one in use on the
//! Fig. 13 workload (XQ3 over XMark).

use flexpath::{
    Algorithm, Answer, AnswerScore, FleXPath, Offer, PruneFloor, RankingScheme, ScoreKey,
    TopKBuckets,
};
use flexpath_xmark::{generate, XmarkConfig};

/// Deterministic splitmix-style LCG so failures reproduce exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, m: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as u32) % m
    }
}

fn answer(node: u32, ss: f64, ks: f64) -> Answer {
    Answer {
        node: flexpath_xmldom::NodeId(node),
        score: AnswerScore { ss, ks },
        satisfied: 0,
        relaxation_level: 0,
    }
}

/// The naive sorted-`Vec` top-K: the pre-PR-7 implementation, re-stated as
/// an oracle. Insert position via the same "after every ≥ key" rule that
/// binary search + stable shift produced; prune iff K answers are held and
/// the key does not beat the K-th best.
struct VecOracle {
    k: usize,
    scheme: RankingScheme,
    /// Best-first; ties in arrival order.
    list: Vec<Answer>,
}

impl VecOracle {
    fn new(k: usize, scheme: RankingScheme) -> Self {
        VecOracle {
            k,
            scheme,
            list: Vec::new(),
        }
    }

    /// Returns `true` when the answer was kept (mirror of `Offer::Kept`).
    fn offer(&mut self, answer: Answer) -> bool {
        if self.k == 0 {
            return false;
        }
        let key = ScoreKey::new(&answer.score, self.scheme);
        if self.list.len() >= self.k {
            let kth = ScoreKey::new(&self.list[self.k - 1].score, self.scheme);
            if key <= kth {
                return false;
            }
        }
        // Position after every held answer with key ≥ ours: stable
        // best-first order, ties resolved by arrival.
        let pos = self
            .list
            .partition_point(|held| ScoreKey::new(&held.score, self.scheme) >= key);
        self.list.insert(pos, answer); // the shift the buckets avoid
        true
    }

    fn into_ranked(mut self) -> Vec<Answer> {
        self.list.truncate(self.k);
        self.list
    }
}

fn render(answers: &[Answer]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for a in answers {
        let _ = writeln!(
            out,
            "node={} ss={:.17} ks={:.17}",
            a.node.0, a.score.ss, a.score.ks
        );
    }
    out
}

const SCHEMES: [RankingScheme; 3] = [
    RankingScheme::StructureFirst,
    RankingScheme::KeywordFirst,
    RankingScheme::Combined,
];

/// Random offer streams on a coarse score grid (ties are common): the
/// buckets and the sorted-`Vec` oracle agree on every keep/prune decision
/// and on the final ranked sequence, for every scheme and assorted K.
#[test]
fn buckets_match_vec_oracle_on_random_streams() {
    let mut rng = Lcg(0x9E3779B97F4A7C15);
    for trial in 0..120 {
        let scheme = SCHEMES[(trial % 3) as usize];
        let k = [0, 1, 2, 3, 7, 16, 64][rng.next(7) as usize];
        let n = 1 + rng.next(200);
        let mut buckets = TopKBuckets::new(k, scheme);
        let mut oracle = VecOracle::new(k, scheme);
        for node in 0..n {
            // Grid of 8 distinct values per component → dense ties, plus
            // signed zero to exercise total_cmp's -0.0 < +0.0 ordering.
            let ss = match rng.next(8) {
                0 => -0.0,
                v => f64::from(v) / 8.0,
            };
            let ks = f64::from(rng.next(8)) / 8.0;
            let a = answer(node, ss, ks);
            let kept = buckets.offer(a.clone()) == Offer::Kept;
            let kept_oracle = oracle.offer(a);
            assert_eq!(
                kept, kept_oracle,
                "trial {trial} node {node}: keep/prune decision diverged"
            );
            if buckets.len() < k {
                assert_eq!(buckets.len(), oracle.list.len(), "len below K must agree");
            }
        }
        assert_eq!(
            render(&buckets.into_ranked()),
            render(&oracle.into_ranked()),
            "trial {trial} (k={k}, scheme={scheme:?}): ranked output diverged"
        );
    }
}

/// Budget-trip prefixes: a governor can cut the offer stream at any point,
/// and whatever prefix was offered must rank identically in both
/// structures. Replays every prefix length of a tie-heavy stream.
#[test]
fn every_prefix_of_the_stream_ranks_identically() {
    let mut rng = Lcg(0xDEADBEEFCAFE);
    let stream: Vec<Answer> = (0..80)
        .map(|node| {
            answer(
                node,
                f64::from(rng.next(4)) / 4.0,
                f64::from(rng.next(4)) / 4.0,
            )
        })
        .collect();
    for scheme in SCHEMES {
        for prefix in 0..=stream.len() {
            let mut buckets = TopKBuckets::new(5, scheme);
            let mut oracle = VecOracle::new(5, scheme);
            for a in &stream[..prefix] {
                buckets.offer(a.clone());
                oracle.offer(a.clone());
            }
            assert_eq!(
                render(&buckets.into_ranked()),
                render(&oracle.into_ranked()),
                "{scheme:?}: prefix {prefix} diverged"
            );
        }
    }
}

/// Arrival order within a tied bucket is preserved exactly — document
/// order when fed from the structural join, which is what makes the
/// replacement byte-identical rather than merely rank-equivalent.
#[test]
fn tied_keys_preserve_arrival_order() {
    for scheme in SCHEMES {
        let mut buckets = TopKBuckets::new(10, scheme);
        let mut oracle = VecOracle::new(10, scheme);
        for node in 0..12 {
            let a = answer(node, 0.5, 0.5); // all tied
            buckets.offer(a.clone());
            oracle.offer(a);
        }
        let got: Vec<u32> = buckets.into_ranked().iter().map(|a| a.node.0).collect();
        let want: Vec<u32> = oracle.into_ranked().iter().map(|a| a.node.0).collect();
        assert_eq!(got, want, "{scheme:?}");
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "{scheme:?}");
    }
}

/// `PruneFloor` against a sort-based oracle: after any observation
/// sequence, the floor is the K-th best value seen (or `None` below K).
#[test]
fn prune_floor_matches_sort_oracle() {
    let mut rng = Lcg(0x1234_5678_9ABC);
    for trial in 0..60 {
        let k = rng.next(6) as usize; // includes k = 0
        let mut floor = PruneFloor::new(k);
        let mut seen: Vec<f64> = Vec::new();
        for _ in 0..rng.next(40) {
            let v = f64::from(rng.next(16)) / 16.0;
            floor.observe(v);
            seen.push(v);
            seen.sort_by(|a, b| b.total_cmp(a));
            let want = if k == 0 || seen.len() < k {
                None
            } else {
                Some(seen[k - 1])
            };
            assert_eq!(floor.floor(), want, "trial {trial} (k={k})");
        }
    }
}

/// Fig. 13 workload (XQ3 over XMark): every algorithm answers it, and SSO
/// and Hybrid do so through their bucket structures — the `bk` column of
/// `repro fig13`.
#[test]
fn fig13_workload_answers_through_the_bucketized_path() {
    const XQ3: &str = "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]";
    let flex = FleXPath::new(generate(&XmarkConfig::sized(2 * 1024 * 1024, 1)));
    for algorithm in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
        let r = flex
            .query(XQ3)
            .unwrap()
            .top(500)
            .algorithm(algorithm)
            .execute()
            .unwrap();
        assert!(
            !r.hits.is_empty(),
            "{algorithm}: workload must produce answers"
        );
        // DPO ranks each round's delta wholesale and never maintains a
        // cross-relaxation intermediate, so only SSO/Hybrid report buckets.
        if algorithm != Algorithm::Dpo {
            assert!(
                r.stats.buckets > 0,
                "{algorithm}: bucketized path must actually be in use"
            );
        }
    }
}
