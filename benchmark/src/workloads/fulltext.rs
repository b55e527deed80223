//! `fulltext_mix`: closed loop, one caller, the same warm session;
//! content-and-structure queries with `contains` in five shapes.
//!
//! Why it exists: one third of the ops are `ft_hot` (eight fixed
//! expressions evaluated during warm-up, so `EngineContext::ft_eval` finds
//! them in its `ShardedCache`) and two thirds are `ft_cold` (a term
//! combination this session has never seen, so the op pays
//! `InvertedIndex::evaluate`). `ftsearch` evaluation and keyword scoring
//! dominate `ft_cold`, the engine dominates `ft_hot`: a postings or FT-eval
//! optimisation must move `ft_cold` and leave `structural_relax` flat, and
//! a cache change that helps `ft_hot` at the cost of `ft_cold` is visible
//! in one run. With cold ops at 33–100 % of the latency ranking, p50 and
//! p95 both fall inside `ft_cold` (17 and 5 points from its edge).

use super::{ClosedLoop, Op, Outcome, Params, Res, Tracing};
use crate::frozen;
use crate::layers::{self, Alg, QuerySpec, Scheme, Session};
use crate::rng::Rng;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One term on a short leaf.
    Single,
    /// Conjunction of two terms on a text block.
    And,
    /// Disjunction of two terms anywhere under the answer.
    Or,
    /// Two terms at consecutive positions.
    Phrase,
    /// A conjunction on an inline leaf (`keyword`), which contains-promotion
    /// (κ) can move up to the enclosing `text`.
    Leaf,
}

impl Shape {
    fn query(self, a: &str, b: &str) -> String {
        match self {
            Shape::Single => format!("//item[./name[.contains(\"{a}\")]]"),
            Shape::And => format!("//mail[./text[.contains(\"{a}\" and \"{b}\")]]"),
            Shape::Or => format!("//item[.contains(\"{a}\" or \"{b}\")]"),
            Shape::Phrase => format!("//listitem[./text[.contains(\"{a} {b}\")]]"),
            Shape::Leaf => format!("//mail[./text/keyword[.contains(\"{a}\" and \"{b}\")]]"),
        }
    }
}

/// The eight hot expressions. Fixed words (not drawn by the seed) so the
/// class costs the same on every seed's corpus; they are removed from the
/// vocabulary cold terms are drawn from.
const HOT: [(Shape, &str, &str); 8] = [
    (Shape::Single, "vintage", ""),
    (Shape::Single, "porcelain", ""),
    (Shape::And, "gold", "silver"),
    (Shape::And, "rare", "antique"),
    (Shape::Or, "jade", "ivory"),
    (Shape::Or, "mint", "pristine"),
    (Shape::Phrase, "limited", "edition"),
    (Shape::Leaf, "signed", "certificate"),
];

/// Frequency bands of the cold vocabulary, by Zipf rank: band 0 holds the
/// twelve most frequent words, band 3 the long tail. A cold slot always
/// draws from the same pair of bands, so every round pays for the same
/// spread of posting-list lengths and only the words change — rounds stay
/// comparable, which the fastest-quarter estimator relies on.
const BAND_STARTS: [usize; 4] = [0, 12, 36, 84];

/// The sixteen cold slots of a round: `(shape, band of a, band of b)`.
/// `And` and `Leaf` both build a conjunction, so no band pair is shared
/// between them (one cached evaluation would serve both); within one
/// expression kind a band pair is used once.
const COLD_SLOTS: [(Shape, usize, usize); 16] = [
    (Shape::Single, 0, 0),
    (Shape::And, 0, 1),
    (Shape::And, 0, 2),
    (Shape::And, 1, 3),
    (Shape::And, 2, 3),
    (Shape::Leaf, 0, 3),
    (Shape::Leaf, 1, 2),
    (Shape::Or, 0, 1),
    (Shape::Or, 0, 2),
    (Shape::Or, 0, 3),
    (Shape::Or, 1, 2),
    (Shape::Or, 1, 3),
    (Shape::Phrase, 2, 0),
    (Shape::Phrase, 3, 1),
    (Shape::Phrase, 1, 2),
    (Shape::Phrase, 0, 3),
];

const STREAM_TERMS: u64 = 2;
const STREAM_ORDER: u64 = 3;

pub struct FullText {
    /// Per cold slot, the seed's shuffled supply of term pairs; round `r`
    /// uses entry `r` of each, so nothing is drawn twice.
    supply: Vec<Vec<(&'static str, &'static str)>>,
}

impl FullText {
    pub fn new(seed: u64) -> FullText {
        let hot: Vec<&str> = HOT.iter().flat_map(|(_, a, b)| [*a, *b]).collect();
        let cold: Vec<&'static str> = layers::vocabulary()
            .into_iter()
            .filter(|w| !hot.contains(w))
            .collect();
        let band = |i: usize| {
            let end = BAND_STARTS
                .get(i + 1)
                .copied()
                .unwrap_or(cold.len())
                .min(cold.len());
            &cold[BAND_STARTS[i].min(end)..end]
        };
        let supply = COLD_SLOTS
            .iter()
            .enumerate()
            .map(|(slot, (shape, a, b))| {
                let mut pairs: Vec<(&str, &str)> = match shape {
                    Shape::Single => cold.iter().map(|w| (*w, "")).collect(),
                    // Both orders: `"a" and "b"` and `"b" and "a"` are
                    // different cache keys that cost the same.
                    _ => band(*a)
                        .iter()
                        .flat_map(|x| band(*b).iter().flat_map(move |y| [(*x, *y), (*y, *x)]))
                        .collect(),
                };
                Rng::new(seed, STREAM_TERMS.wrapping_add((slot as u64) << 8)).shuffle(&mut pairs);
                pairs
            })
            .collect();
        FullText { supply }
    }

    /// Scheme, algorithm and K rotate with the slot and the round, so every
    /// combination meets every shape.
    fn spec(text: String, turn: u64) -> QuerySpec {
        QuerySpec {
            text,
            k: [10, 100][(turn / 6 % 2) as usize],
            alg: [Alg::Hybrid, Alg::Dpo][(turn / 3 % 2) as usize],
            scheme: Scheme::ALL[(turn % 3) as usize],
            governed: false,
        }
    }
}

pub struct World {
    session: Session,
}

impl ClosedLoop for FullText {
    type World = World;
    const NAME: &'static str = "fulltext_mix";
    const FRESH_WORLD_FOR_TRACE: bool = true;

    fn corpus_bytes(&self, p: &Params) -> usize {
        p.corpus_bytes(frozen::WARM_CORPUS_BYTES)
    }

    fn setup(&self, p: &Params) -> Res<World> {
        let corpus = layers::generate_corpus(self.corpus_bytes(p), p.seed);
        let world = World {
            session: Session::from_xml(&corpus.xml)?,
        };
        drop(corpus);
        // Warm-up: the eight hot expressions, once each.
        for (i, (shape, a, b)) in HOT.iter().enumerate() {
            let op = Op::single("ft_hot", FullText::spec(shape.query(a, b), i as u64));
            self.execute(&world, &op, None)?;
        }
        Ok(world)
    }

    fn round(&self, p: &Params, r: u64) -> Option<Vec<Op>> {
        let mut ops = Vec::with_capacity(HOT.len() + COLD_SLOTS.len());
        for (i, (shape, a, b)) in HOT.iter().enumerate() {
            ops.push(Op::single(
                "ft_hot",
                FullText::spec(shape.query(a, b), i as u64 + r),
            ));
        }
        for (slot, (shape, _, _)) in COLD_SLOTS.iter().enumerate() {
            let (a, b) = *self.supply[slot].get(r as usize)?;
            ops.push(Op::single(
                "ft_cold",
                FullText::spec(shape.query(a, b), slot as u64 + r),
            ));
        }
        Rng::new(p.seed, STREAM_ORDER.wrapping_add(r << 8)).shuffle(&mut ops);
        Some(ops)
    }

    fn execute(
        &self,
        world: &World,
        op: &Op,
        mut tracing: Option<&mut Tracing<'_>>,
    ) -> Res<Outcome> {
        let cache_before = tracing.is_some().then(|| world.session.ft_cache());
        let answer = super::run_spec(
            &world.session,
            &op.specs[0],
            op.class,
            None,
            tracing.as_deref_mut(),
        )?;
        if let (Some(t), Some(before)) = (tracing, cache_before) {
            let after = world.session.ft_cache();
            t.recorder.count(
                &format!("bench.ft_cache.{}.hits", op.class),
                after.0 - before.0,
            );
            t.recorder.count(
                &format!("bench.ft_cache.{}.misses", op.class),
                after.1 - before.1,
            );
        }
        let latency = answer.parse + answer.execute;
        Ok(Outcome {
            latency,
            busy: latency,
            digest: stats::digest_hits(&answer.hits),
            complete: answer.complete,
            work: answer.work,
        })
    }

    fn session<'a>(&self, world: &'a World) -> &'a Session {
        &world.session
    }

    fn trace_rounds(&self, p: &Params) -> u64 {
        if p.smoke {
            1
        } else {
            10
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> Params {
        Params {
            seed,
            seconds: 1.0,
            smoke: true,
        }
    }

    fn cold_texts(seed: u64, rounds: u64) -> Vec<String> {
        let w = FullText::new(seed);
        (0..rounds)
            .flat_map(|r| w.round(&params(seed), r).unwrap())
            .filter(|o| o.class == "ft_cold")
            .map(|o| o.specs[0].text.clone())
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_ops_and_another_seed_other_cold_terms() {
        let a = FullText::new(11).round(&params(11), 0).unwrap();
        assert_eq!(a, FullText::new(11).round(&params(11), 0).unwrap());
        assert_eq!(a.iter().filter(|o| o.class == "ft_hot").count(), 8);
        assert_eq!(a.iter().filter(|o| o.class == "ft_cold").count(), 16);
        assert_ne!(cold_texts(11, 1), cold_texts(12, 1));
    }

    #[test]
    fn a_cold_expression_is_never_issued_twice_and_never_hot() {
        let rounds = 150;
        let texts = cold_texts(11, rounds);
        let distinct: std::collections::BTreeSet<&String> = texts.iter().collect();
        assert_eq!(distinct.len(), texts.len(), "drawn without replacement");
        let hot_words: Vec<&str> = HOT
            .iter()
            .flat_map(|(_, a, b)| [*a, *b])
            .filter(|w| !w.is_empty())
            .collect();
        for t in &texts {
            assert!(
                hot_words.iter().all(|w| !t.contains(&format!("\"{w}\""))),
                "{t}"
            );
        }
        // Conjunctions are built by two shapes; their term pairs must not
        // coincide, or the second would find the first's cached evaluation.
        let pair = |t: &String| {
            t.split('"')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let ands: Vec<_> = texts
            .iter()
            .filter(|t| t.contains("\" and \""))
            .map(pair)
            .collect();
        let distinct: std::collections::BTreeSet<_> = ands.iter().collect();
        assert_eq!(distinct.len(), ands.len());
    }

    #[test]
    fn the_supply_lasts_well_past_a_run() {
        let w = FullText::new(3);
        let sizes: Vec<usize> = w.supply.iter().map(Vec::len).collect();
        assert!(sizes[0] >= 150, "single terms: {sizes:?}");
        assert!(sizes[1..].iter().all(|n| *n >= 500), "{sizes:?}");
        assert!(w.round(&params(3), 149).is_some());
        assert!(
            w.round(&params(3), 100_000).is_none(),
            "ends, never wraps into repeats"
        );
    }
}
