//! Randomized (seeded, deterministic) tests for the IR engine:
//! index/evaluation consistency against naive text scans,
//! most-specific-set invariants, and score sanity.

use flexpath_ftsearch::{
    stem, tokenize, Budget, CancelToken, ExhaustReason, FtExpr, InvertedIndex,
};
use flexpath_xmldom::{parse, Document, NodeId};

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

const WORDS: [&str; 6] = ["gold", "silver", "vintage", "auction", "rare", "coin"];
const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const CASES: u64 = 64;

fn random_doc(rng: &mut Rng) -> String {
    fn node(rng: &mut Rng, depth: u32, out: &mut String) {
        if depth >= 4 || rng.below(4) == 0 {
            let words = 1 + rng.below(5);
            for i in 0..words {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(WORDS[rng.below(WORDS.len())]);
            }
            return;
        }
        let tag = TAGS[rng.below(TAGS.len())];
        out.push_str(&format!("<{tag}>"));
        let kids = rng.below(4);
        for i in 0..kids {
            if i > 0 {
                out.push(' ');
            }
            node(rng, depth + 1, out);
        }
        out.push_str(&format!("</{tag}>"));
    }
    let mut body = String::new();
    node(rng, 0, &mut body);
    format!("<root>{body}</root>")
}

/// Runs `body` over `CASES` deterministic random documents (with the rng
/// still usable for per-case draws like word picks).
fn for_docs(seed: u64, mut body: impl FnMut(&mut Rng, &str)) {
    for case in 0..CASES {
        let mut rng = Rng(seed ^ case.wrapping_mul(0xDEAD_BEEF_CAFE_F00D));
        let xml = random_doc(&mut rng);
        body(&mut rng, &xml);
    }
}

/// Naive oracle: does the subtree text of `n` contain every (stemmed) term?
/// Tokenizes per text node — concatenating text nodes would glue adjacent
/// words together across element boundaries.
fn naive_contains_all(doc: &Document, n: NodeId, terms: &[&str]) -> bool {
    let mut tokens: Vec<String> = Vec::new();
    for d in doc.descendants_or_self(n) {
        if let Some(text) = doc.text_content(d) {
            for t in tokenize(&text.to_lowercase()) {
                tokens.push(stem(&t));
            }
        }
    }
    terms
        .iter()
        .all(|t| tokens.iter().any(|tok| tok == &stem(t)))
}

#[test]
fn satisfies_matches_naive_text_scan() {
    for_docs(1, |rng, xml| {
        let doc = parse(xml).unwrap();
        let index = InvertedIndex::build(&doc);
        let terms = [WORDS[rng.below(WORDS.len())], WORDS[rng.below(WORDS.len())]];
        let expr = FtExpr::all_of(&terms);
        let eval = index.evaluate(&doc, &expr);
        for n in doc.elements() {
            assert_eq!(
                eval.satisfies(&doc, n),
                naive_contains_all(&doc, n, &terms),
                "node {n:?} of {xml}"
            );
        }
    });
}

#[test]
fn matches_are_minimal_and_sorted() {
    for_docs(2, |rng, xml| {
        let doc = parse(xml).unwrap();
        let index = InvertedIndex::build(&doc);
        let eval = index.evaluate(&doc, &FtExpr::term(WORDS[rng.below(WORDS.len())]));
        let nodes = eval.nodes();
        // Sorted in document order.
        for pair in nodes.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        // Most-specific: no match is an ancestor of another match.
        for &a in nodes {
            for &b in nodes {
                assert!(
                    a == b || !doc.is_ancestor(a, b),
                    "match {a:?} contains match {b:?}"
                );
            }
        }
    });
}

#[test]
fn scores_are_normalized() {
    for_docs(3, |rng, xml| {
        let doc = parse(xml).unwrap();
        let index = InvertedIndex::build(&doc);
        let eval = index.evaluate(&doc, &FtExpr::term(WORDS[rng.below(WORDS.len())]));
        if !eval.is_empty() {
            let ranked = eval.ranked();
            assert_eq!(ranked[0].1, 1.0, "max score must be 1.0");
            for (_, s) in &ranked {
                assert!(*s > 0.0 && *s <= 1.0);
            }
        }
    });
}

#[test]
fn and_is_intersection_or_is_union_of_satisfaction() {
    for_docs(4, |rng, xml| {
        let doc = parse(xml).unwrap();
        let index = InvertedIndex::build(&doc);
        let ta = FtExpr::term(WORDS[rng.below(WORDS.len())]);
        let tb = FtExpr::term(WORDS[rng.below(WORDS.len())]);
        let and = index.evaluate(&doc, &FtExpr::And(vec![ta.clone(), tb.clone()]));
        let or = index.evaluate(&doc, &FtExpr::Or(vec![ta.clone(), tb.clone()]));
        let ea = index.evaluate(&doc, &ta);
        let eb = index.evaluate(&doc, &tb);
        for n in doc.elements() {
            assert_eq!(
                and.satisfies(&doc, n),
                ea.satisfies(&doc, n) && eb.satisfies(&doc, n)
            );
            assert_eq!(
                or.satisfies(&doc, n),
                ea.satisfies(&doc, n) || eb.satisfies(&doc, n)
            );
        }
    });
}

#[test]
fn contains_satisfaction_is_monotone_up_the_tree() {
    for_docs(5, |rng, xml| {
        // The closure inference rule ad(x,y) ∧ contains(y,E) ⊢ contains(x,E)
        // requires monotonicity for positive expressions.
        let doc = parse(xml).unwrap();
        let index = InvertedIndex::build(&doc);
        let eval = index.evaluate(&doc, &FtExpr::term(WORDS[rng.below(WORDS.len())]));
        for n in doc.elements() {
            if eval.satisfies(&doc, n) {
                for anc in doc.ancestors(n) {
                    assert!(
                        eval.satisfies(&doc, anc),
                        "ancestor {anc:?} of satisfying {n:?} must satisfy"
                    );
                }
            }
        }
    });
}

#[test]
fn count_for_tag_equals_naive_count() {
    for_docs(6, |rng, xml| {
        let doc = parse(xml).unwrap();
        let index = InvertedIndex::build(&doc);
        let word = WORDS[rng.below(WORDS.len())];
        let eval = index.evaluate(&doc, &FtExpr::term(word));
        for (sym, _) in doc.symbols().iter() {
            let naive = doc
                .nodes_with_tag(sym)
                .iter()
                .filter(|&&n| naive_contains_all(&doc, n, &[word]))
                .count() as u64;
            assert_eq!(eval.count_for_tag(&doc, sym), naive);
        }
    });
}

#[test]
fn stemming_is_deterministic_and_bounded() {
    // Porter is NOT idempotent in general (e.g. "abee" → "abe" → "ab"),
    // so we check the properties it does guarantee: determinism,
    // bounded growth (+1 char via the restore-e rules), non-emptiness,
    // and a fixed point within a few applications.
    for case in 0..CASES {
        let mut rng = Rng(0x7357 + case);
        let len = 1 + rng.below(16);
        let word: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let once = stem(&word);
        assert_eq!(stem(&word), once, "stem must be deterministic");
        assert!(once.len() <= word.len() + 1);
        assert!(!once.is_empty());
        let mut cur = once;
        for _ in 0..6 {
            let next = stem(&cur);
            if next == cur {
                break;
            }
            assert!(next.len() < cur.len(), "repeated stemming must shrink");
            cur = next;
        }
        assert_eq!(stem(&cur), cur, "must reach a fixed point");
    }
}

#[test]
fn phrase_implies_conjunction() {
    for_docs(7, |_, xml| {
        let doc = parse(xml).unwrap();
        let index = InvertedIndex::build(&doc);
        let phrase = FtExpr::Phrase(vec!["gold".into(), "silver".into()]);
        let conj = FtExpr::all_of(&["gold", "silver"]);
        let ep = index.evaluate(&doc, &phrase);
        let ec = index.evaluate(&doc, &conj);
        for n in doc.elements() {
            if ep.satisfies(&doc, n) {
                assert!(ec.satisfies(&doc, n), "phrase ⊆ conjunction");
            }
        }
    });
}

// ---------------------------------------------------------------------------
// An independent reference for `evaluate`, `count_for_tag` and the budget
// contract: everything decided by definition, from text nodes and parent
// pointers — no posting lists, no id ranges, no cursors.
// ---------------------------------------------------------------------------

/// The elements holding each atom of an expression.
type Holders<'e> = std::collections::BTreeMap<&'e FtExpr, Vec<NodeId>>;

/// One positive atom of an expression, as the reference sees it.
struct RefAtom<'e> {
    expr: &'e FtExpr,
    /// Elements whose direct text satisfies the atom, ascending id, with
    /// its frequency there.
    holders: Vec<(NodeId, u32)>,
    idf: f64,
    /// Not below a `Not`.
    scoring: bool,
}

struct Reference<'d> {
    doc: &'d Document,
    /// Per node id: the `(global position, stem)` of each token of the
    /// element's direct text (its text-node children), in document order.
    direct: Vec<Vec<(u32, String)>>,
    /// Elements with a text-node child: the `N` of idf.
    scoring_elements: u64,
}

impl<'d> Reference<'d> {
    fn new(doc: &'d Document) -> Self {
        let mut direct = vec![Vec::new(); doc.node_count()];
        let mut has_text = vec![false; doc.node_count()];
        let mut position = 0u32;
        for n in doc.all_nodes() {
            let (Some(text), Some(parent)) = (doc.text_content(n), doc.parent(n)) else {
                continue;
            };
            has_text[parent.index()] = true;
            for token in tokenize(text) {
                direct[parent.index()].push((position, stem(&token)));
                position += 1;
            }
        }
        Reference {
            doc,
            direct,
            scoring_elements: has_text.iter().filter(|t| **t).count() as u64,
        }
    }

    /// How often `atom` (a term, phrase or window) occurs in the direct
    /// text of `n`.
    fn frequency(&self, atom: &FtExpr, n: NodeId) -> u32 {
        let tokens = &self.direct[n.index()];
        let token_at = |p: u32| {
            tokens
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, t)| t.as_str())
        };
        match atom {
            FtExpr::Term(t) => tokens.iter().filter(|(_, s)| s == t).count() as u32,
            FtExpr::Phrase(terms) if !terms.is_empty() => tokens
                .iter()
                .filter(|(start, _)| {
                    terms
                        .iter()
                        .enumerate()
                        .all(|(k, t)| token_at(start + k as u32) == Some(t.as_str()))
                })
                .count() as u32,
            // Some stretch of direct tokens spanning fewer than `window`
            // positions holds every term.
            FtExpr::Window { terms, window } if !terms.is_empty() => {
                let covered = |stretch: &[(u32, String)]| {
                    terms.iter().all(|t| stretch.iter().any(|(_, s)| s == t))
                };
                (0..tokens.len()).any(|i| {
                    (i..tokens.len())
                        .take_while(|&j| tokens[j].0 - tokens[i].0 < *window)
                        .any(|j| covered(&tokens[i..=j]))
                }) as u32
            }
            _ => 0,
        }
    }

    fn df(&self, term: &str) -> u64 {
        self.doc
            .elements()
            .filter(|&n| self.direct[n.index()].iter().any(|(_, s)| s == term))
            .count() as u64
    }

    fn idf(&self, term: &str) -> f64 {
        match self.df(term) {
            0 => 0.0,
            df => (1.0 + self.scoring_elements as f64 / df as f64).ln(),
        }
    }

    /// The atoms of `expr` in the order they are written.
    fn atoms<'e>(&self, expr: &'e FtExpr, scoring: bool, out: &mut Vec<RefAtom<'e>>) {
        match expr {
            FtExpr::And(xs) | FtExpr::Or(xs) => xs.iter().for_each(|x| self.atoms(x, scoring, out)),
            FtExpr::Not(x) => self.atoms(x, false, out),
            atom => out.push(RefAtom {
                expr: atom,
                holders: self
                    .doc
                    .elements()
                    .map(|n| (n, self.frequency(atom, n)))
                    .filter(|(_, tf)| *tf > 0)
                    .collect(),
                idf: match atom {
                    FtExpr::Term(t) => self.idf(t),
                    FtExpr::Phrase(ts) | FtExpr::Window { terms: ts, .. } => {
                        ts.iter().map(|t| self.idf(t)).sum()
                    }
                    _ => 0.0,
                },
                scoring,
            }),
        }
    }

    /// Is `d` the node `n` or below it? By parent pointers.
    fn within(&self, n: NodeId, d: NodeId) -> bool {
        d == n || self.doc.ancestors(d).any(|a| a == n)
    }

    /// Does the subtree of `n` satisfy `expr`? `holders` maps each atom of
    /// `expr` to the elements that hold it.
    fn holds(&self, expr: &FtExpr, holders: &Holders<'_>, n: NodeId) -> bool {
        match expr {
            FtExpr::And(xs) => xs.iter().all(|x| self.holds(x, holders, n)),
            FtExpr::Or(xs) => xs.iter().any(|x| self.holds(x, holders, n)),
            FtExpr::Not(x) => !self.holds(x, holders, n),
            atom => holders[atom].iter().any(|&h| self.within(n, h)),
        }
    }

    /// The most-specific matches with their normalized tf-idf-decay scores.
    fn evaluate(&self, expr: &FtExpr, decay: f64) -> Vec<(NodeId, f64)> {
        if !expr.has_positive_term() {
            return Vec::new();
        }
        let mut atoms = Vec::new();
        self.atoms(expr, true, &mut atoms);
        let holders: Holders<'_> = atoms
            .iter()
            .map(|a| (a.expr, a.holders.iter().map(|(h, _)| *h).collect()))
            .collect();
        let satisfying: Vec<NodeId> = self
            .doc
            .elements()
            .filter(|&n| self.holds(expr, &holders, n))
            .collect();
        let mut matches: Vec<(NodeId, f64)> = satisfying
            .iter()
            .filter(|&&e| !satisfying.iter().any(|&d| d != e && self.within(e, d)))
            .map(|&e| {
                let mut score = 0.0;
                for atom in atoms.iter().filter(|a| a.scoring) {
                    for &(h, tf) in atom.holders.iter().filter(|(h, _)| self.within(e, *h)) {
                        let depth = self.doc.ancestors(h).take_while(|&a| a != e).count();
                        let depth = if h == e { 0 } else { depth as i32 + 1 };
                        score += atom.idf * (1.0 + f64::from(tf).ln()) * decay.powi(depth);
                    }
                }
                (e, score)
            })
            .collect();
        let max = matches.iter().map(|(_, s)| *s).fold(0.0, f64::max);
        for (_, s) in &mut matches {
            *s = if max > 0.0 { *s / max } else { 1.0 };
        }
        matches
    }
}

/// `evaluate`, `satisfies` and `count_for_tag` against
/// the reference, plus the postings meter, for one expression.
fn assert_matches_reference(xml: &str, doc: &Document, index: &InvertedIndex, expr: &FtExpr) {
    let reference = Reference::new(doc);
    let expected = reference.evaluate(expr, 0.8);
    let budget = Budget::unlimited();
    let eval = index.evaluate_budgeted(doc, expr, &budget);
    let expected_ids: Vec<NodeId> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(eval.nodes(), expected_ids, "match ids of {expr} on {xml}");
    let mut got = eval.ranked();
    got.sort_by_key(|(n, _)| *n);
    for ((n, s), (_, want)) in got.iter().zip(&expected) {
        assert_eq!(
            s.to_bits(),
            want.to_bits(),
            "score of {n} ({s} vs {want}) for {expr} on {xml}"
        );
        assert_eq!(eval.score(doc, *n).to_bits(), want.to_bits());
    }
    for n in doc.elements() {
        let below = expected_ids.iter().any(|&m| reference.within(n, m));
        assert_eq!(eval.satisfies(doc, n), below, "{n} for {expr} on {xml}");
        let best = expected
            .iter()
            .filter(|(m, _)| reference.within(n, *m))
            .map(|(_, s)| *s)
            .fold(0.0, f64::max);
        assert_eq!(eval.score(doc, n).to_bits(), best.to_bits());
    }
    for (sym, name) in doc.symbols().iter() {
        let naive = doc
            .nodes_with_tag(sym)
            .iter()
            .filter(|&&n| expected_ids.iter().any(|&m| reference.within(n, m)))
            .count() as u64;
        assert_eq!(
            eval.count_for_tag(doc, sym),
            naive,
            "#{name} for {expr} on {xml}"
        );
    }
    let mut atoms = Vec::new();
    reference.atoms(expr, true, &mut atoms);
    let holders: usize = atoms.iter().map(|a| a.holders.len()).sum();
    assert_eq!(budget.postings_scanned(), holders as u64, "{expr} on {xml}");
}

/// A random safe expression up to three levels deep over `words` (stems):
/// terms, two-word phrases, windows, `and` (with `not` conjuncts) and `or`.
fn random_expr(rng: &mut Rng, words: &[&str]) -> FtExpr {
    fn word(rng: &mut Rng, words: &[&str]) -> String {
        stem(words[rng.below(words.len())])
    }
    fn build(rng: &mut Rng, words: &[&str], depth: u32) -> FtExpr {
        match rng.below(if depth >= 2 { 3 } else { 6 }) {
            0 => FtExpr::Term(word(rng, words)),
            1 => FtExpr::Phrase(vec![word(rng, words), word(rng, words)]),
            2 => FtExpr::Window {
                terms: (0..2 + rng.below(2)).map(|_| word(rng, words)).collect(),
                window: 1 + rng.below(5) as u32,
            },
            3 => FtExpr::Or(
                (0..2 + rng.below(2))
                    .map(|_| build(rng, words, depth + 1))
                    .collect(),
            ),
            _ => FtExpr::And(
                (0..2 + rng.below(2))
                    .map(|i| {
                        let x = build(rng, words, depth + 1);
                        if i > 0 && rng.below(3) == 0 {
                            FtExpr::Not(Box::new(x))
                        } else {
                            x
                        }
                    })
                    .collect(),
            ),
        }
    }
    loop {
        let expr = build(rng, words, 0);
        if expr.is_safe() {
            return expr;
        }
    }
}

/// Shapes the XMark generator (and `random_doc`) never produce.
fn shaped_docs() -> Vec<String> {
    // One tag recursing 12 deep, a holder at every level (holders that are
    // ancestors of holders), a second word at every third.
    let mut deep = String::new();
    for level in 0..12 {
        deep.push_str("<a>gold ");
        if level % 3 == 0 {
            deep.push_str("silver ");
        }
    }
    deep.push_str("rare coin");
    for level in 0..12 {
        deep.push_str("</a>");
        if level % 4 == 1 {
            deep.push_str("<b>coin</b> silver");
        }
    }
    // 300 sibling holders under one parent.
    let wide: String = (0..300)
        .map(|i| match i % 7 {
            0 => "<s>gold silver</s>",
            3 => "<s>rare</s>",
            _ => "<s>gold</s>",
        })
        .collect();
    // A phrase whose first word is the frequent one, and one whose last is.
    let skew: String = (0..60)
        .map(|i| match i % 20 {
            5 => "<t>gold ivory</t>",
            11 => "<t>ivory gold gold ivory gold</t>",
            17 => "<t>ivory</t>",
            _ => "<t>gold gold coin</t>",
        })
        .collect();
    vec![
        deep,
        format!("<r>{wide}</r>"),
        format!("<r>{skew}</r>"),
        // Holders at the first and at the last element id.
        "<r>gold <m>silver</m><z>rare <y>gold</y></z></r>".to_string(),
        // The same term in the direct text of parent and child.
        "<r><p>gold <c>gold</c> coin</p><p>silver <c>gold silver</c> gold</p></r>".to_string(),
    ]
}

const SHAPE_WORDS: [&str; 7] = [
    "gold", "silver", "rare", "coin", "ivory", "vintage", "platinum",
];

#[test]
fn evaluation_equals_the_reference_on_random_documents() {
    for_docs(8, |rng, xml| {
        let doc = parse(xml).unwrap();
        let index = InvertedIndex::build(&doc);
        for _ in 0..6 {
            let expr = random_expr(rng, &WORDS);
            assert_matches_reference(xml, &doc, &index, &expr);
        }
    });
}

#[test]
fn evaluation_equals_the_reference_on_adversarial_shapes() {
    let fixed = [
        "\"gold\"",
        "\"gold\" and \"silver\"",
        "\"gold\" or \"rare\"",
        "\"gold\" and not \"silver\"",
        "\"gold ivory\"",
        "\"ivory gold\"",
        "\"gold gold\"",
        // An atom with no holders, alone and beside others.
        "\"platinum\"",
        "\"gold\" or \"platinum\"",
        "\"gold\" and not \"platinum\"",
        "\"gold\" and (\"silver\" or not \"rare\")",
        "(\"gold\" or \"ivory\") and not (\"silver\" and \"rare\")",
    ];
    for (shape, xml) in shaped_docs().iter().enumerate() {
        let doc = parse(xml).unwrap();
        let index = InvertedIndex::build(&doc);
        for query in fixed {
            assert_matches_reference(xml, &doc, &index, &FtExpr::parse(query).unwrap());
        }
        let mut rng = Rng(0x5EED ^ shape as u64);
        for _ in 0..40 {
            let expr = random_expr(&mut rng, &SHAPE_WORDS);
            assert_matches_reference(xml, &doc, &index, &expr);
        }
    }
}

#[test]
fn degenerate_atoms_have_no_holders() {
    let doc = parse("<r><a>gold silver</a></r>").unwrap();
    let index = InvertedIndex::build(&doc);
    for atom in [
        FtExpr::Phrase(Vec::new()),
        FtExpr::Window {
            terms: Vec::new(),
            window: 3,
        },
        FtExpr::Window {
            terms: vec!["gold".into()],
            window: 0,
        },
    ] {
        let either = FtExpr::Or(vec![FtExpr::term("silver"), atom]);
        assert_matches_reference("degenerate", &doc, &index, &either);
    }
}

#[test]
fn a_holder_that_closes_an_ancestors_subtree_leaves_the_ancestor_on_the_path() {
    // A built index cannot name one: a holder has a text child, which comes
    // after it. A decoded index can (the codec checks ids, not kinds), so
    // move the second `gold` entry from <c> (5) to the childless <b/> (4),
    // the last node below <x> (1): when it arrives, <x> is on the path with
    // `subtree_last(x) == holder` and must stay — popped, it would be
    // emitted a second time, out of order.
    let doc = parse("<r><x><a>gold</a><b/></x><c>gold</c><d>gold</d></r>").unwrap();
    let (terms, mut postings) = InvertedIndex::build(&doc).encode();
    assert_eq!(
        postings[8..12],
        5u32.to_le_bytes(),
        "the node column: its count, then one node per entry"
    );
    postings[8..12].copy_from_slice(&4u32.to_le_bytes());
    let index = InvertedIndex::decode(&terms, &postings, doc.node_count()).unwrap();
    let eval = index.evaluate(&doc, &FtExpr::term("gold"));
    assert_eq!(eval.nodes(), [NodeId(2), NodeId(4), NodeId(7)]);
    let x = doc.symbols().lookup("x").unwrap();
    assert_eq!(eval.count_for_tag(&doc, x), 1);
}

/// 100 sibling holders of one term: the sweep makes 201 checkpoints (100
/// merged holders, 101 universe elements), scoring up to 100.
fn hundred_holders() -> (Document, FtExpr) {
    let xml = format!("<r>{}</r>", "<s>gold</s>".repeat(100));
    (parse(&xml).unwrap(), FtExpr::term("gold"))
}

#[test]
fn a_cancelled_evaluation_is_empty() {
    let (doc, expr) = hundred_holders();
    let index = InvertedIndex::build(&doc);
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::new(None, Some(token), u64::MAX, u64::MAX);
    let eval = index.evaluate_budgeted(&doc, &expr, &budget);
    assert!(eval.is_empty());
    assert_eq!(budget.tripped(), Some(ExhaustReason::Cancelled));
    // The postings were charged before the first checkpoint.
    assert_eq!(budget.postings_scanned(), 100);
}

#[test]
fn a_deadline_that_trips_while_scoring_keeps_a_document_order_prefix() {
    use std::time::{Duration, Instant};
    let (doc, expr) = hundred_holders();
    let index = InvertedIndex::build(&doc);
    let whole = index.evaluate(&doc, &expr);
    assert_eq!(whole.len(), 100);
    // The deadline is looked at on every 256th checkpoint. Spend the first
    // look (tick 0) before the deadline passes and wait it out: the sweep's
    // 201 checkpoints (ticks 1..=201) then go unexamined, and tick 256 —
    // the 55th match being scored — finds the deadline gone.
    let budget = loop {
        let budget = Budget::new(
            Some(Instant::now() + Duration::from_millis(20)),
            None,
            u64::MAX,
            u64::MAX,
        );
        if !budget.checkpoint() {
            break budget; // (a stall of 20 ms right here: try again)
        }
    };
    std::thread::sleep(Duration::from_millis(25));
    let partial = index.evaluate_budgeted(&doc, &expr, &budget);
    assert_eq!(budget.tripped(), Some(ExhaustReason::Deadline));
    assert_eq!(partial.nodes(), &whole.nodes()[..54]);
    assert!(partial.ranked().iter().all(|(_, s)| *s == 1.0));
}
