//! Seeded random documents and tree-pattern queries for the evaluator's
//! reference tests (`tests/relaxation_oracle.rs`, and the prefilter
//! equivalence test in `crates/engine/src/exec.rs`, which includes this
//! file by `#[path]`). Besides plain random trees, the documents come in
//! the shapes XMark never produces: one tag recursing five deep, repeated
//! labels on one path, 200-way fan-out, and a/b/c/d chains broken at every
//! link (a required leaf below ancestors the schedule deletes).

use flexpath_ftsearch::FtExpr;
use flexpath_tpq::{Axis, Tpq, TpqBuilder};
use flexpath_xmark::rng::{Rng, SeedableRng, StdRng};

/// Document shapes 0–3 are the adversarial ones; 4–7 plain random trees.
pub const SHAPES: u64 = 8;

/// The `(xml, query)` pair of one case; `case % SHAPES` picks the shape.
pub fn case(case: u64) -> (String, Tpq) {
    let mut rng = StdRng::seed_from_u64(0x0F1E_2D3C ^ case.wrapping_mul(0x9E37_79B9));
    let shape = case % SHAPES;
    let xml = document(&mut rng, shape);
    (xml, random_query(&mut rng, shape))
}

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

/// One document of the given shape.
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
