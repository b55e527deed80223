//! An independent reference for the encoded evaluator (first slice of
//! ROADMAP item 1).
//!
//! `tests/properties.rs` makes DPO, SSO and Hybrid agree with each other,
//! but all three evaluate through `exec.rs`, so a bug there passes. Here,
//! for seeded random small documents × random TPQs × **every** schedule
//! prefix `p`, three answer sets must be equal:
//!
//! * (a) the encoded plan — `evaluate_encoded(build(schedule[..p]))`,
//!   ghosts, relaxable bits and all;
//! * (b) the exact evaluation of the relaxed query itself —
//!   `evaluate_encoded(exact(schedule[p-1].query))`;
//! * (c) the brute-force matcher of `tests/common/brute_force.rs`, which
//!   shares no code with the engine.
//!
//! (a) = (b) is the paper's "the encoded plan admits exactly the answers
//! of the relaxations it encodes" (Section 5.1.1, Theorem 2); (c) anchors
//! both to something that is not `exec.rs`. The document shapes include the
//! ones XMark never produces: one tag recursing five deep, repeated labels
//! on one path, 200-way fan-out, a required leaf below two deleted
//! ancestors.

#[path = "common/brute_force.rs"]
mod brute_force;

use brute_force::naive_exact_answers;
use flexpath_engine::exec::evaluate_encoded;
use flexpath_engine::{
    build_schedule, Answer, EncodedQuery, EngineContext, ParallelConfig, PenaltyModel,
    RankingScheme, WeightAssignment,
};
use flexpath_ftsearch::{Budget, FtExpr};
use flexpath_tpq::{Axis, Tpq, TpqBuilder};
use flexpath_xmark::rng::{Rng, SeedableRng, StdRng};
use flexpath_xmldom::{parse, NodeId};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const WORDS: [&str; 3] = ["gold", "silver", "vintage"];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A random tree over `TAGS`, at most `max_depth` deep, text at the leaves.
fn random_subtree(rng: &mut StdRng, depth: u32, max_depth: u32, out: &mut String) {
    if depth >= max_depth || rng.gen_bool(0.2) {
        out.push_str(pick(rng, &WORDS));
        out.push(' ');
        return;
    }
    let tag = pick(rng, &TAGS);
    out.push_str(&format!("<{tag}>"));
    for _ in 0..rng.gen_range(0..4usize) {
        random_subtree(rng, depth + 1, max_depth, out);
    }
    out.push_str(&format!("</{tag}>"));
}

/// The document shapes, by case number: plain random trees, and the four
/// adversarial ones.
fn document(rng: &mut StdRng, shape: u64) -> String {
    let mut body = String::new();
    match shape {
        // One tag recursing five deep, other tags hanging off every level.
        0 => {
            for _ in 0..3 {
                for _ in 0..5 {
                    body.push_str("<a>");
                    random_subtree(rng, 0, 2, &mut body);
                }
                body.push_str(&"</a>".repeat(5));
            }
        }
        // Repeated labels on one path: a/b/a/b/… with leaves at each level.
        1 => {
            for _ in 0..3 {
                let depth = rng.gen_range(3..7usize);
                for level in 0..depth {
                    let tag = if level % 2 == 0 { "a" } else { "b" };
                    body.push_str(&format!("<{tag}>"));
                    random_subtree(rng, 0, 1, &mut body);
                }
                for level in (0..depth).rev() {
                    body.push_str(if level % 2 == 0 { "</a>" } else { "</b>" });
                }
            }
        }
        // 200-way fan-out below one node.
        2 => {
            body.push_str("<a>");
            for i in 0..200 {
                random_subtree(rng, 0, 1 + u32::from(i % 8 == 0), &mut body);
            }
            body.push_str("</a>");
        }
        // a/b/c/d chains, complete and broken at every link, so a required
        // leaf is looked for below ancestors the schedule has deleted.
        3 => {
            for _ in 0..12 {
                let mut open = Vec::new();
                body.push_str("<a>");
                for tag in ["b", "c", "d"] {
                    match rng.gen_range(0..4u32) {
                        0 => continue, // link missing
                        1 => {
                            body.push_str("<x>"); // link one level too deep
                            open.push("x");
                        }
                        _ => {}
                    }
                    body.push_str(&format!("<{tag}>{} ", pick(rng, &WORDS)));
                    open.push(tag);
                }
                for tag in open.iter().rev() {
                    body.push_str(&format!("</{tag}>"));
                }
                body.push_str("</a>");
            }
        }
        _ => {
            for _ in 0..rng.gen_range(1..5usize) {
                random_subtree(rng, 0, 5, &mut body);
            }
        }
    }
    format!("<root>{body}</root>")
}

/// A random TPQ of up to five nodes; sometimes a wildcard, a `contains`,
/// or a distinguished node below the root.
fn random_query(rng: &mut StdRng, shape: u64) -> Tpq {
    let mut b = TpqBuilder::new(if shape <= 3 { "a" } else { pick(rng, &TAGS) });
    let mut created = vec![0usize];
    if shape == 3 && rng.gen_bool(0.5) {
        // The chain itself: every schedule deletes b and c above d.
        let mut at = 0;
        for tag in ["b", "c", "d"] {
            at = b.child(at, tag);
            created.push(at);
        }
    } else {
        for _ in 0..rng.gen_range(1..5usize) {
            let parent = created[rng.gen_range(0..created.len())];
            let idx = if rng.gen_bool(0.1) {
                b.wildcard(parent, Axis::Child)
            } else if rng.gen_bool(0.5) {
                b.child(parent, pick(rng, &TAGS))
            } else {
                b.descendant(parent, pick(rng, &TAGS))
            };
            created.push(idx);
        }
    }
    if rng.gen_bool(0.5) {
        let holder = created[rng.gen_range(0..created.len())];
        let expr = if rng.gen_bool(0.3) {
            FtExpr::any_of(&[pick(rng, &WORDS), pick(rng, &WORDS)])
        } else {
            FtExpr::term(pick(rng, &WORDS))
        };
        b.add_contains(holder, expr);
    }
    if rng.gen_bool(0.2) {
        b.set_distinguished(created[rng.gen_range(0..created.len())]);
    }
    b.build()
}

fn evaluate(ctx: &EngineContext, enc: &EncodedQuery) -> Vec<Answer> {
    let mut out = Vec::new();
    evaluate_encoded(
        ctx,
        enc,
        RankingScheme::StructureFirst,
        &Budget::unlimited(),
        &ParallelConfig::sequential(),
        |a| out.push(a),
    );
    out
}

fn nodes(answers: &[Answer]) -> Vec<NodeId> {
    answers.iter().map(|a| a.node).collect()
}

#[test]
fn encoded_plan_admits_exactly_the_relaxed_querys_answers_at_every_prefix() {
    let mut prefixes_checked = 0usize;
    let mut ghost_chains = 0usize;
    for case in 0..160u64 {
        let mut rng = StdRng::seed_from_u64(0x0F1E_2D3C ^ case.wrapping_mul(0x9E37_79B9));
        let shape = case % 8; // shapes 4..8 are plain random trees
        let xml = document(&mut rng, shape);
        let q = random_query(&mut rng, shape);
        let ctx = EngineContext::new(parse(&xml).unwrap());
        let model = PenaltyModel::new(&q, WeightAssignment::uniform());
        let steps = build_schedule(&ctx, &model, &q, 64);
        for p in 0..=steps.len() {
            let relaxed = if p == 0 { &q } else { &steps[p - 1].query };
            if relaxed.distinguished_var() != q.distinguished_var() {
                // λ deleted the distinguished node and its parent took
                // over; the encoded plan keeps projecting the original
                // node. Out of this test's reach — see ROADMAP item 1.
                break;
            }
            let at = || format!("case {case}, prefix {p}: {} over {xml}", relaxed.to_xpath());
            let enc = EncodedQuery::build(&ctx, &model, &q, &steps[..p]);
            let encoded = evaluate(&ctx, &enc);
            let exact = evaluate(&ctx, &EncodedQuery::exact(&ctx, &model, relaxed));
            let brute = naive_exact_answers(ctx.doc(), relaxed);
            assert_eq!(nodes(&exact), brute, "exact ≠ brute force — {}", at());
            assert_eq!(nodes(&encoded), brute, "encoded ≠ brute force — {}", at());
            if q.contains_count() > 0 {
                for a in &encoded {
                    assert!(a.score.ks > 0.0, "{:?} has ks = 0 — {}", a.node, at());
                }
            }
            prefixes_checked += 1;
            // A surviving spec whose original parent and grandparent are
            // both ghosts: the shape `ghost_skip` used to wave through.
            let deleted = |i: Option<usize>| i.is_some_and(|i| !enc.specs[i].surviving);
            if enc.specs.iter().any(|s| {
                s.surviving
                    && deleted(s.parent)
                    && deleted(s.parent.and_then(|i| enc.specs[i].parent))
            }) {
                ghost_chains += 1;
            }
        }
    }
    // The generator must keep producing what this test exists for.
    assert!(prefixes_checked > 1_000, "only {prefixes_checked} prefixes");
    assert!(
        ghost_chains > 10,
        "only {ghost_chains} ghost → ghost → surviving plans"
    );
}
