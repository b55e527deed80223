//! Score-order maintenance for top-K intermediate answers.
//!
//! The paper's Section 6 experiments (Fig. 13–16) trace SSO's cost to one
//! structural tension: "the algorithm used to evaluate the structural join
//! expects its result to be sorted on node identifiers while pruning …
//! requires their sorting on scores." A score-sorted `Vec` resolves that
//! tension by paying for it — every insert binary-searches a position and
//! shifts the tail (753 k shifted elements on the 10 MB workload, before
//! this module existed).
//!
//! This module resolves it the way Hybrid does, generalized to *any*
//! ranking scheme: answers with equal ranking keys land in the same bucket
//! of a [`TopKBuckets`], and since the structural join streams answers in
//! document order, each bucket's `Vec` push preserves node-id order for
//! free. Buckets live in a `BTreeMap` keyed by [`ScoreKey`] (the scheme's
//! `(primary, secondary)` key under `f64::total_cmp`), so "sorted on
//! scores" becomes a property of the map rather than work performed per
//! answer: inserts are O(log #buckets) with **zero** element shifts, and
//! [`TopKBuckets::into_ranked`] emits the same sequence the shifting
//! implementation produced — best key first, arrival (= document) order
//! within a key — byte for byte.
//!
//! Pruning uses a cached *floor*: the key of the K-th best answer held.
//! An incoming answer with `key ≤ floor` can never enter the top K
//! (scores of held answers only improve as more arrive) and is rejected
//! without touching the map, exactly matching the `Vec` implementation's
//! "cannot beat the current K-th score" test. Whole buckets strictly
//! below the floor bucket are evicted wholesale — the paper's "pruning of
//! intermediate answers translates to elimination of buckets".
//!
//! [`PruneFloor`] is the scalar sibling used by Hybrid: a min-heap over
//! the top-K *structural* scores whose minimum is the `maxScoreGrowth`
//! pruning threshold (Section 5.2.3). The crate-internal
//! `SatisfiedBuckets` wraps it into Hybrid's bucket set, keyed on the
//! satisfied-predicate bitset.
//!
//! Both bucket sets implement the crate-internal `IntermediateAnswers`
//! trait, the one point where SSO and Hybrid differ: the single-pass driver
//! behind [`crate::sso_topk`] and [`crate::hybrid_topk`] is the same code
//! monomorphized over it.
//!
//! Everything here is deterministic: `BTreeMap` iteration order is defined
//! by `ScoreKey`'s total order, and no wall-clock or hash state is
//! consulted (this module is covered by `flexpath-lint`'s determinism
//! rule).

use crate::score::{AnswerScore, RankingScheme};
use crate::topk::{sort_answers, Answer};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

/// An `f64` with the total order of [`f64::total_cmp`], usable as a heap
/// or map key. NaNs sort above +∞; the engine never produces them, but the
/// order stays total (and deterministic) even if one slips through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotalF64(pub f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// An answer's ranking key under a fixed [`RankingScheme`], totally
/// ordered to agree exactly with [`AnswerScore::cmp_under`]: primary
/// component first, `total_cmp` on each. Higher keys rank better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScoreKey {
    primary: TotalF64,
    secondary: TotalF64,
}

impl ScoreKey {
    /// Builds the key `scheme` assigns to `score` (see
    /// [`AnswerScore::key`]).
    pub fn new(score: &AnswerScore, scheme: RankingScheme) -> Self {
        let (primary, secondary) = score.key(scheme);
        ScoreKey {
            primary: TotalF64(primary),
            secondary: TotalF64(secondary),
        }
    }
}

/// What [`TopKBuckets::offer`] decided for one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The answer entered its score bucket (it may still be displaced by
    /// later, better answers).
    Kept,
    /// The answer cannot enter the current top K and was discarded.
    Pruned,
}

/// Bucketized top-K order maintenance: a drop-in replacement for the
/// score-sorted intermediate `Vec` that performs no element shifts.
///
/// Contract (matched against the shifting implementation element for
/// element, see `tests/order_maintenance.rs`):
///
/// * [`offer`](TopKBuckets::offer) prunes an answer iff at least K answers
///   are held and the answer's key is ≤ the K-th best held key — the same
///   decision, in the same arrival order, as the `Vec` implementation's
///   binary-search-and-compare against `list[k-1]`.
/// * [`into_ranked`](TopKBuckets::into_ranked) emits answers best key
///   first, ties in arrival order, truncated to K — byte-identical to the
///   sorted `Vec` after its final `truncate(k)`.
/// * [`len`](TopKBuckets::len) agrees with the `Vec`'s length whenever it
///   matters: below K the counts are equal (eviction only begins once K
///   answers are held), so `len() < k` restart checks behave identically.
#[derive(Debug)]
pub struct TopKBuckets {
    k: usize,
    scheme: RankingScheme,
    /// Answers grouped by ranking key; within a bucket, arrival order
    /// (document order when fed from the structural join).
    buckets: BTreeMap<ScoreKey, Vec<Answer>>,
    /// Live answers across all buckets.
    held: usize,
    /// Key of the K-th best held answer once `held ≥ k` — the pruning
    /// threshold. `None` until K answers are held (nothing can be pruned).
    floor: Option<ScoreKey>,
    /// Answers admitted and later discarded by whole-bucket eviction.
    evicted: u64,
}

impl TopKBuckets {
    /// An empty structure targeting the best `k` answers under `scheme`.
    pub fn new(k: usize, scheme: RankingScheme) -> Self {
        TopKBuckets {
            k,
            scheme,
            buckets: BTreeMap::new(),
            held: 0,
            floor: None,
            evicted: 0,
        }
    }

    /// Offers one answer. Returns [`Offer::Pruned`] iff the answer cannot
    /// enter the current top K (K answers held and `key ≤ floor`); callers
    /// count those for [`ExecStats::pruned`].
    ///
    /// With `k == 0` every answer is pruned — an empty result needs no
    /// intermediates.
    ///
    /// [`ExecStats::pruned`]: crate::topk::ExecStats::pruned
    pub fn offer(&mut self, answer: Answer) -> Offer {
        if self.k == 0 {
            return Offer::Pruned;
        }
        let key = ScoreKey::new(&answer.score, self.scheme);
        if let Some(floor) = self.floor {
            if key <= floor {
                return Offer::Pruned;
            }
        }
        self.buckets.entry(key).or_default().push(answer);
        self.held += 1;
        if self.held >= self.k {
            self.refresh_floor();
        }
        Offer::Kept
    }

    /// Recomputes the K-th best key and evicts buckets strictly below it.
    ///
    /// Eviction is safe: the floor only rises as answers arrive, so a
    /// bucket entirely below the current floor bucket can never re-enter
    /// the top K; and the surviving buckets hold ≥ K answers by
    /// construction, so `len()` never drops below K here.
    fn refresh_floor(&mut self) {
        let mut covered = 0usize;
        let mut floor = None;
        for (key, bucket) in self.buckets.iter().rev() {
            covered += bucket.len();
            if covered >= self.k {
                floor = Some(*key);
                break;
            }
        }
        self.floor = floor;
        let Some(floor) = floor else { return };
        let worse_exists = self
            .buckets
            .keys()
            .next()
            .is_some_and(|lowest| *lowest < floor);
        if !worse_exists {
            return;
        }
        let kept = self.buckets.split_off(&floor);
        let dropped = std::mem::replace(&mut self.buckets, kept);
        let dropped_answers: usize = dropped.values().map(Vec::len).sum();
        self.held -= dropped_answers;
        self.evicted += dropped_answers as u64;
    }

    /// Live answers currently held. Below K this equals the number of
    /// non-pruned offers; at or above K it stays ≥ K (eviction never cuts
    /// into the top K), so `len() < k` means exactly what it meant for the
    /// sorted `Vec`.
    pub fn len(&self) -> usize {
        self.held
    }

    /// `true` when no answers are held.
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Consumes the structure and emits the ranked answers: best key
    /// first, arrival order within a key, truncated to K. This is exactly
    /// the sequence the score-sorted `Vec` held after `truncate(k)`.
    pub fn into_ranked(self) -> Vec<Answer> {
        let mut out = Vec::with_capacity(self.held.min(self.k));
        'emit: for bucket in self.buckets.into_values().rev() {
            for answer in bucket {
                if out.len() == self.k {
                    break 'emit;
                }
                out.push(answer);
            }
        }
        out
    }
}

/// Min-heap pruning floor over the best K scalar scores observed —
/// Hybrid's `maxScoreGrowth` threshold (paper Section 5.2.3): once K
/// structural scores have been seen, the smallest of the best K is the
/// bar an incoming answer (plus its keyword headroom) must clear.
#[derive(Debug)]
pub struct PruneFloor {
    k: usize,
    heap: BinaryHeap<Reverse<TotalF64>>,
}

impl PruneFloor {
    /// A floor over the best `k` observations.
    pub fn new(k: usize) -> Self {
        PruneFloor {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// The current threshold: the K-th best value observed, once K values
    /// have been observed. `None` before that (and always for `k == 0` —
    /// an empty top list prunes nothing, it is handled by the caller's
    /// `k == 0` emptiness).
    pub fn floor(&self) -> Option<f64> {
        if self.k == 0 || self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|Reverse(TotalF64(v))| *v)
    }

    /// Records one observation in O(log K); values below the current floor
    /// leave it unchanged.
    pub fn observe(&mut self, value: f64) {
        if self.k == 0 {
            return;
        }
        self.heap.push(Reverse(TotalF64(value)));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    /// Forgets all observations.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Hybrid's intermediate answers (paper Section 5.2.3, Algorithm 2):
/// "create buckets of intermediate results … where each bucket corresponds
/// to a set of predicates. Answers in a bucket satisfy the same set of
/// predicates and so have the same score. Within each bucket, answers are
/// sorted on their node id. Since this sort order is preserved by the join
/// algorithm we use, no additional sorting is necessary."
///
/// Buckets are keyed on the satisfied-predicate bitset the evaluator
/// computes per answer; answers stream in document order, so each bucket's
/// `Vec` push keeps node-id order for free. Pruning happens per answer
/// against the current K-th structural score — a [`PruneFloor`] — plus
/// `maxScoreGrowth` (the keyword headroom, for schemes that rank on `ks`).
#[derive(Debug)]
pub(crate) struct SatisfiedBuckets {
    k: usize,
    scheme: RankingScheme,
    /// The most an answer's rank can still gain over its `ss`.
    max_growth: f64,
    /// `BTreeMap` so the final concatenation visits equal-`ss` buckets in
    /// key order — the stable sort then yields one deterministic ranking.
    buckets: BTreeMap<u64, Vec<Answer>>,
    /// Answers held across all buckets.
    kept: usize,
    /// Min-heap of the top-K structural scores seen so far: its minimum is
    /// the pruning floor, maintained in O(log K) per answer — no score
    /// sorting of intermediate results ever happens. (`floor()` is `None`
    /// when `k == 0`: the heap never fills, and nothing can be pruned
    /// against an empty floor.)
    top_ss: PruneFloor,
}

/// How the single-pass driver holds the answers streaming out of its one
/// encoded plan: what is pruned on arrival, what is kept, and how the
/// survivors are ranked at the end. The two implementers are the whole
/// difference between SSO and Hybrid.
///
/// | | [`TopKBuckets`] (SSO) | [`SatisfiedBuckets`] (Hybrid) |
/// |---|---|---|
/// | bucket key | ranking key under the scheme | satisfied-predicate bitset |
/// | prune test | `key ≤` K-th best key held | `ss + maxScoreGrowth <` K-th best `ss` seen |
/// | eviction | buckets below the floor, on arrival | buckets that cannot contribute, at the end |
/// | final ranking | emit buckets best key first | concatenate best-`ss`-first, sort survivors |
pub(crate) trait IntermediateAnswers {
    /// Offers one answer, in document order. [`Offer::Pruned`] means it
    /// cannot enter the top K and was discarded.
    fn offer(&mut self, answer: Answer) -> Offer;

    /// Answers currently held; `len() < k` after a pass means the encoded
    /// prefix produced too few and the driver restarts.
    fn len(&self) -> usize;

    /// Buckets currently holding answers ([`ExecStats::buckets`]).
    ///
    /// [`ExecStats::buckets`]: crate::topk::ExecStats::buckets
    fn bucket_count(&self) -> usize;

    /// Answers admitted and later evicted since the last clear, for
    /// policies that evict on arrival (the `pass.evicted` trace counter).
    fn evicted(&self) -> Option<u64>;

    /// Resets to empty, counters included: a restart re-evaluates the
    /// extended plan from scratch and each pass reports its own tallies.
    fn clear(&mut self);

    /// Consumes the set and emits the top K, best first.
    fn into_ranked(self) -> Vec<Answer>;
}

impl IntermediateAnswers for TopKBuckets {
    fn offer(&mut self, answer: Answer) -> Offer {
        TopKBuckets::offer(self, answer)
    }

    fn len(&self) -> usize {
        self.held
    }

    fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn evicted(&self) -> Option<u64> {
        Some(self.evicted)
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.held = 0;
        self.floor = None;
        self.evicted = 0;
    }

    fn into_ranked(self) -> Vec<Answer> {
        TopKBuckets::into_ranked(self)
    }
}

impl SatisfiedBuckets {
    /// An empty set targeting the best `k` answers under `scheme`.
    /// `keyword_headroom` bounds what `ks` can add to any answer (each
    /// `contains` predicate is weighted 1 and IR scores are ≤ 1).
    pub(crate) fn new(k: usize, scheme: RankingScheme, keyword_headroom: f64) -> Self {
        SatisfiedBuckets {
            k,
            scheme,
            max_growth: match scheme {
                RankingScheme::Combined | RankingScheme::KeywordFirst => keyword_headroom,
                RankingScheme::StructureFirst => 0.0,
            },
            buckets: BTreeMap::new(),
            kept: 0,
            top_ss: PruneFloor::new(k),
        }
    }
}

impl IntermediateAnswers for SatisfiedBuckets {
    fn offer(&mut self, answer: Answer) -> Offer {
        if let Some(floor) = self.top_ss.floor() {
            if answer.score.ss + self.max_growth < floor {
                return Offer::Pruned;
            }
        }
        self.top_ss.observe(answer.score.ss);
        self.buckets
            .entry(answer.satisfied)
            .or_default()
            .push(answer);
        self.kept += 1;
        Offer::Kept
    }

    fn len(&self) -> usize {
        self.kept
    }

    fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn evicted(&self) -> Option<u64> {
        None
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.kept = 0;
        self.top_ss.clear();
    }

    /// Buckets are ordered by score "since each bucket is uniquely
    /// identified by the set of structural predicates satisfied":
    /// concatenate buckets best-`ss`-first, then rank the (small) survivor
    /// set under the scheme.
    fn into_ranked(self) -> Vec<Answer> {
        let mut answers: Vec<Answer> = Vec::new();
        let mut keyed: Vec<(f64, Vec<Answer>)> = self
            .buckets
            .into_values()
            .map(|v| (v[0].score.ss, v))
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut taken = 0usize;
        for (ss, bucket) in keyed {
            // Buckets that can no longer contribute are dropped wholesale
            // ("pruning of intermediate answers translates to elimination
            // of buckets").
            if taken >= self.k {
                let worst_kept = answers
                    .iter()
                    .map(|a| a.score.ss)
                    .fold(f64::INFINITY, f64::min);
                if ss + self.max_growth < worst_kept {
                    break;
                }
            }
            taken += bucket.len();
            answers.extend(bucket);
        }
        sort_answers(&mut answers, self.scheme);
        answers.truncate(self.k);
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(node: u32, ss: f64, ks: f64) -> Answer {
        Answer {
            node: flexpath_xmldom::NodeId(node),
            score: AnswerScore { ss, ks },
            satisfied: 0,
            relaxation_level: 0,
        }
    }

    #[test]
    fn emits_best_first_with_arrival_order_ties() {
        let mut b = TopKBuckets::new(10, RankingScheme::StructureFirst);
        for (node, ss) in [(0, 0.5), (1, 0.9), (2, 0.5), (3, 0.7)] {
            assert_eq!(b.offer(answer(node, ss, 0.0)), Offer::Kept);
        }
        let nodes: Vec<u32> = b.into_ranked().iter().map(|a| a.node.0).collect();
        // 0.9, 0.7, then the two 0.5s in arrival order.
        assert_eq!(nodes, vec![1, 3, 0, 2]);
    }

    #[test]
    fn prunes_at_or_below_the_kth_key() {
        let mut b = TopKBuckets::new(2, RankingScheme::StructureFirst);
        assert_eq!(b.offer(answer(0, 0.9, 0.0)), Offer::Kept);
        assert_eq!(b.offer(answer(1, 0.8, 0.0)), Offer::Kept);
        // Equal to the 2nd-best key → pruned (ties cannot displace).
        assert_eq!(b.offer(answer(2, 0.8, 0.0)), Offer::Pruned);
        // Better → kept; the old 2nd now sits below the floor.
        assert_eq!(b.offer(answer(3, 0.85, 0.0)), Offer::Kept);
        assert_eq!(b.offer(answer(4, 0.8, 0.0)), Offer::Pruned);
        let nodes: Vec<u32> = b.into_ranked().iter().map(|a| a.node.0).collect();
        assert_eq!(nodes, vec![0, 3]);
    }

    #[test]
    fn eviction_drops_whole_buckets_but_never_the_top_k() {
        let mut b = TopKBuckets::new(2, RankingScheme::StructureFirst);
        b.offer(answer(0, 0.1, 0.0));
        b.offer(answer(1, 0.2, 0.0));
        b.offer(answer(2, 0.3, 0.0));
        b.offer(answer(3, 0.4, 0.0));
        // 0.1 and 0.2 fell strictly below the floor bucket and are gone.
        assert_eq!(b.evicted(), Some(2));
        assert!(b.len() >= 2);
        let nodes: Vec<u32> = b.into_ranked().iter().map(|a| a.node.0).collect();
        assert_eq!(nodes, vec![3, 2]);
    }

    #[test]
    fn len_below_k_counts_every_kept_offer() {
        let mut b = TopKBuckets::new(5, RankingScheme::Combined);
        assert!(b.is_empty());
        b.offer(answer(0, 0.5, 0.5));
        b.offer(answer(1, 0.5, 0.5));
        assert_eq!(b.len(), 2);
        assert_eq!(b.bucket_count(), 1);
    }

    #[test]
    fn k_zero_prunes_everything() {
        let mut b = TopKBuckets::new(0, RankingScheme::StructureFirst);
        assert_eq!(b.offer(answer(0, 1.0, 1.0)), Offer::Pruned);
        assert!(b.into_ranked().is_empty());
    }

    #[test]
    fn clear_resets_state_and_counters() {
        let mut b = TopKBuckets::new(1, RankingScheme::StructureFirst);
        b.offer(answer(0, 0.1, 0.0));
        b.offer(answer(1, 0.2, 0.0));
        assert!(b.evicted() > Some(0));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.evicted(), Some(0));
        assert_eq!(b.bucket_count(), 0);
        assert_eq!(b.offer(answer(2, 0.05, 0.0)), Offer::Kept);
        assert_eq!(b.into_ranked().len(), 1);
    }

    #[test]
    fn score_key_order_matches_cmp_under() {
        let scores = [
            AnswerScore { ss: 0.2, ks: 0.9 },
            AnswerScore { ss: 0.9, ks: 0.2 },
            AnswerScore { ss: 0.9, ks: 0.9 },
            AnswerScore { ss: 0.0, ks: 0.0 },
            AnswerScore { ss: 0.55, ks: 0.55 },
        ];
        for scheme in [
            RankingScheme::StructureFirst,
            RankingScheme::KeywordFirst,
            RankingScheme::Combined,
        ] {
            for a in &scores {
                for b in &scores {
                    assert_eq!(
                        ScoreKey::new(a, scheme).cmp(&ScoreKey::new(b, scheme)),
                        a.cmp_under(b, scheme),
                        "{scheme:?}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn prune_floor_tracks_kth_best() {
        let mut f = PruneFloor::new(3);
        assert_eq!(f.floor(), None);
        f.observe(0.5);
        f.observe(0.1);
        assert_eq!(f.floor(), None);
        f.observe(0.9);
        assert_eq!(f.floor(), Some(0.1));
        f.observe(0.7);
        assert_eq!(f.floor(), Some(0.5));
        f.observe(0.01);
        assert_eq!(f.floor(), Some(0.5));
        f.clear();
        assert_eq!(f.floor(), None);
    }

    #[test]
    fn prune_floor_k_zero_never_fires() {
        let mut f = PruneFloor::new(0);
        f.observe(1.0);
        assert_eq!(f.floor(), None);
    }
}
