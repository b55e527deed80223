//! Seeded random documents and tree-pattern queries for the evaluator's
//! reference tests (`tests/relaxation_oracle.rs`, and the prefilter and
//! schedule equivalence tests in `crates/engine/src/{exec,schedule}.rs`).
//! Besides plain random trees, the documents come in the shapes XMark
//! never produces: one tag recursing five deep, repeated labels on one
//! path, 200-way fan-out, a/b/c/d chains broken at every link (a required
//! leaf below ancestors the schedule deletes) — and in the two shapes the
//! evaluator's candidate-loop fast paths branch on: anchors whose subtrees
//! span exactly 31, 32 and 33 node ids (either side of `exec.rs`'s
//! `SMALL_SUBTREE`), and several hundred same-tag leaves under one anchor
//! with the one best binding anywhere among them (the saturation shortcut
//! must not stop before it).

use flexpath_ftsearch::FtExpr;
use flexpath_tpq::{Axis, Tpq, TpqBuilder};
use flexpath_xmark::rng::{Rng, SeedableRng, StdRng};

/// Document shapes 0–3 are the adversarial ones, 4–7 plain random trees,
/// [`SPANS`] and [`LEAVES`] the fast-path ones.
pub const SHAPES: u64 = 10;
/// Shape: `a` anchors spanning exactly 31, 32 and 33 node ids.
pub const SPANS: u64 = 8;
/// Shape: several hundred `c` leaves under one `a`.
pub const LEAVES: u64 = 9;

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
        // Nine `a` anchors with exactly 31, 32 and 33 descendants: a `b/c`
        // part and a `d` part (each whole, one level too deep, or missing)
        // at either end of the subtree, `x` filler between them — so the
        // first and the last node id of a span both get to decide a match.
        SPANS => {
            for i in 0..9usize {
                let b_part = [("<b><c/></b>", 2), ("<b><x><c/></x></b>", 3), ("", 0)];
                let d_part = [("<d/>", 1), ("<x><d/></x>", 2), ("", 0)];
                let (b_xml, b_nodes) = b_part[rng.gen_range(0..b_part.len())];
                let (d_xml, d_nodes) = d_part[rng.gen_range(0..d_part.len())];
                let filler = "<x/>".repeat(31 + i % 3 - b_nodes - d_nodes);
                let (first, last) = if rng.gen_bool(0.5) {
                    (b_xml, d_xml)
                } else {
                    (d_xml, b_xml)
                };
                body.push_str(&format!("<a>{first}{filler}{last}</a>"));
            }
        }
        // One `a` with 200–400 `c` leaves, at most one of them below a `b`
        // (as its child, one level deeper, or not at all) at a random place
        // in the run; then an exact `a/b/c` and a bare `a`.
        LEAVES => {
            let b_part = ["<b><c/></b>", "<b><x><c/></x></b>", "<b/>", ""];
            let leaves = rng.gen_range(200..400usize);
            let b_at = rng.gen_range(0..=leaves);
            body.push_str("<a>");
            for i in 0..=leaves {
                if i == b_at {
                    body.push_str(b_part[rng.gen_range(0..b_part.len())]);
                }
                if i < leaves {
                    body.push_str(if i % 7 == 0 { "<x><c/></x>" } else { "<c/>" });
                }
            }
            body.push_str("</a><a><b><c/></b></a><a/>");
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
    // Only the plain random trees (4–7) have no `a` to root the query at.
    let rooted_at_a = shape <= 3 || shape >= SPANS;
    let mut b = TpqBuilder::new(if rooted_at_a { "a" } else { pick(rng, &TAGS) });
    let mut created = vec![0usize];
    if shape == 3 && rng.gen_bool(0.5) {
        // The chain itself: every schedule deletes b and c above d.
        let mut at = 0;
        for tag in ["b", "c", "d"] {
            at = b.child(at, tag);
            created.push(at);
        }
    } else if shape == SPANS && rng.gen_bool(0.5) {
        // a[./b/c and ./d]: `b` and `d` are looked for in the 31–33-id
        // span of `a`, `c` in the two or three ids of `b`.
        let at = b.child(0, "b");
        b.child(at, "c");
        b.child(0, "d");
        return b.build();
    } else if shape == LEAVES && rng.gen_bool(0.7) {
        // a/b/c: once σ has promoted `c` and λ deleted `b`, `c` is a leaf
        // with only pc/ad bits, two of them referring to the ghost `b`.
        let at = b.child(0, "b");
        b.child(at, "c");
        return b.build();
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
    // The two fast-path shapes carry no text: nothing to contain.
    if shape < SPANS && rng.gen_bool(0.5) {
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
