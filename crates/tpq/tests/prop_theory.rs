//! Randomized (seeded, deterministic) tests for the relaxation theory
//! (Sections 3.2–3.5): closure algebra, core uniqueness, operator soundness
//! via containment, and relaxation-space structure — over randomly
//! generated tree pattern queries, plus the soundness half of Theorem 2 on
//! Figure 1's Q1. Containment and the space come from
//! `flexpath-reference`.

use flexpath_ftsearch::FtExpr;
use flexpath_reference::{contains_query, enumerate_space};
use flexpath_tpq::{
    applicable_ops, apply_op, closure_of, core_of, relaxation_step, tpq_from_predicates, Tpq,
    TpqBuilder,
};

/// Tiny deterministic PRNG (splitmix64) so cases reproduce without any
/// property-testing dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
const WORDS: [&str; 3] = ["gold", "silver", "rare"];
const CASES: u64 = 128;

/// Random TPQ: a root plus up to 5 nodes attached to random earlier nodes
/// with random axes; optional contains on a random node.
fn random_tpq(rng: &mut Rng) -> Tpq {
    let mut b = TpqBuilder::new(TAGS[rng.below(TAGS.len())]);
    let mut created = vec![0usize];
    for _ in 0..rng.below(5) {
        let tag = TAGS[rng.below(TAGS.len())];
        let parent = created[rng.below(created.len())];
        let idx = if rng.below(2) == 0 {
            b.child(parent, tag)
        } else {
            b.descendant(parent, tag)
        };
        created.push(idx);
    }
    if rng.below(2) == 0 {
        let target = created[rng.below(created.len())];
        b.add_contains(target, FtExpr::term(WORDS[rng.below(WORDS.len())]));
    }
    b.build()
}

/// Runs `body` over `CASES` deterministic random queries.
fn for_queries(seed: u64, mut body: impl FnMut(&Tpq)) {
    for case in 0..CASES {
        let mut rng = Rng(seed ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D));
        body(&random_tpq(&mut rng));
    }
}

/// Q1 of Figure 1.
fn q1() -> Tpq {
    let mut b = TpqBuilder::new("article");
    let s = b.child(0, "section");
    let _a = b.child(s, "algorithm");
    let p = b.child(s, "paragraph");
    b.add_contains(p, FtExpr::all_of(&["XML", "streaming"]));
    b.build()
}

#[test]
fn every_operator_is_sound() {
    // Soundness half of Theorem 2: op(Q) contains Q, for every
    // applicable op.
    let q = q1();
    let ops = applicable_ops(&q);
    assert!(!ops.is_empty());
    for op in &ops {
        let relaxed = apply_op(&q, op).unwrap();
        assert!(
            contains_query(&q, &relaxed),
            "{op} must produce a containing query"
        );
    }
}

#[test]
fn soundness_holds_along_composition_chains() {
    // Apply operators greedily until exhaustion; containment must hold
    // at every step, transitively back to the original.
    let original = q1();
    let mut cur = original.clone();
    for _ in 0..32 {
        let ops = applicable_ops(&cur);
        let Some(op) = ops.first() else { break };
        let next = apply_op(&cur, op).unwrap();
        assert!(contains_query(&cur, &next), "step {op} unsound");
        assert!(contains_query(&original, &next), "chain unsound at {op}");
        cur = next;
    }
}

#[test]
fn closure_is_idempotent_and_extensive() {
    for_queries(1, |q| {
        let logical = q.logical();
        let closed = closure_of(&logical);
        assert!(logical.is_subset_of(&closed), "closure is extensive");
        assert_eq!(closure_of(&closed), closed, "closure is idempotent");
    });
}

#[test]
fn core_is_minimal_and_equivalent() {
    for_queries(2, |q| {
        let closed = q.closure();
        let core = core_of(&closed);
        assert!(core.is_subset_of(&closed));
        assert_eq!(closure_of(&core), closed, "core ≡ closure");
        // Minimality: removing any core predicate loses information.
        for p in core.iter() {
            let mut without = core.clone();
            without.remove(p);
            assert!(
                !closure_of(&without).contains(p),
                "core predicate {p} is redundant"
            );
        }
    });
}

#[test]
fn core_reconstructs_an_equivalent_tpq() {
    for_queries(3, |q| {
        let core = q.core();
        let rebuilt = tpq_from_predicates(&core, q.distinguished_var()).unwrap();
        assert_eq!(rebuilt.closure(), q.closure());
        assert_eq!(rebuilt.distinguished_var(), q.distinguished_var());
    });
}

#[test]
fn operators_are_sound_by_containment() {
    for_queries(4, |q| {
        for op in applicable_ops(q) {
            let relaxed = apply_op(q, &op).unwrap();
            assert!(
                contains_query(q, &relaxed),
                "{op} on {} is not a containment relaxation",
                q.to_xpath()
            );
        }
    });
}

#[test]
fn dropped_predicates_come_from_the_original_closure() {
    for_queries(5, |q| {
        let closure = q.closure();
        for op in applicable_ops(q) {
            let step = relaxation_step(q, &op).unwrap();
            assert!(
                step.dropped.is_subset_of(&closure),
                "{op} dropped predicates outside the closure"
            );
            // Operators may be no-ops w.r.t. the closure only when the
            // query has redundant structure; the result must still be a
            // containment.
            let ok = !step.dropped.is_empty() || contains_query(q, &step.result);
            assert!(ok);
        }
    });
}

#[test]
fn containment_is_reflexive_and_transitive_along_chains() {
    for_queries(6, |q| {
        assert!(contains_query(q, q));
        let mut cur = q.clone();
        let mut chain = vec![q.clone()];
        for _ in 0..4 {
            let ops = applicable_ops(&cur);
            let Some(op) = ops.first() else { break };
            cur = apply_op(&cur, op).unwrap();
            chain.push(cur.clone());
        }
        for earlier in &chain {
            assert!(
                contains_query(earlier, chain.last().unwrap()),
                "chain end must contain every predecessor"
            );
        }
    });
}

#[test]
fn space_entries_all_contain_the_original() {
    for_queries(7, |q| {
        let space = enumerate_space(q, 200);
        for e in &space.entries {
            assert!(contains_query(q, &e.tpq));
            // Cumulative drops are consistent with the entry's closure.
            let expected = q.closure().difference(&e.tpq.closure());
            assert_eq!(&e.dropped, &expected);
        }
    });
}

#[test]
fn dropped_sets_depend_only_on_the_endpoint() {
    for_queries(8, |q| {
        // Theorem 3's foundation: the dropped-predicate set (and hence the
        // score) of a relaxation is a function of the *resulting query*,
        // never of the derivation. Operators need not commute (κ's target
        // depends on whether σ re-anchored the node first — two different
        // endpoints are two different relaxations), so we compare drops
        // only when both orders reach the same closure.
        let ops = applicable_ops(q);
        if ops.len() < 2 {
            return;
        }
        let base = q.closure();
        for a in &ops {
            for b in &ops {
                if a == b {
                    continue;
                }
                let ab = apply_op(q, a).ok().and_then(|x| apply_op(&x, b).ok());
                let ba = apply_op(q, b).ok().and_then(|x| apply_op(&x, a).ok());
                if let (Some(ab), Some(ba)) = (ab, ba) {
                    if ab.closure() == ba.closure() {
                        assert_eq!(
                            base.difference(&ab.closure()),
                            base.difference(&ba.closure())
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn xpath_rendering_round_trips_logically() {
    for_queries(9, |q| {
        // to_xpath() → parse_query() reproduces the logical form whenever
        // the distinguished node is the root (the parser's output shape).
        if q.distinguished() == q.root() {
            let rendered = q.to_xpath();
            let reparsed = flexpath_tpq::parse_query(&rendered).unwrap();
            // Variable numbering may differ; compare via mutual containment.
            assert!(contains_query(q, &reparsed), "{rendered} ⊈ reparsed");
            assert!(contains_query(&reparsed, q), "reparsed ⊈ {rendered}");
        }
    });
}
