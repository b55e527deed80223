//! Full-text evaluation with most-specific-element semantics.
//!
//! Following the paper's implementation note (Section 5.1: *"we use the same
//! techniques as in [20, 29] that return the most specific elements that
//! satisfy the full-text expression"*), evaluation returns the *minimal*
//! elements whose subtree satisfies the expression — no returned element
//! has a descendant that also satisfies it. Scores are tf-idf with an
//! XRANK-style per-level decay (tokens found deeper below the scored element
//! contribute less), normalized so the best match scores `1.0`.
//!
//! ## One document-order sweep
//!
//! Every positive atom (term, phrase, window) compiles to its *holders*:
//! the elements whose direct text satisfies it, in ascending id. For a safe
//! expression a satisfying element must contain a positive witness, so the
//! candidate *universe* is the ancestors-or-self of every holder of every
//! atom. [`InvertedIndex::evaluate_budgeted`] does work proportional to
//! what it reads:
//!
//! 1. **Merge and emit.** The atoms' holder lists are merged in document
//!    order (one merge cursor per atom) while a stack holds the root path
//!    of the current holder: pop while `subtree_last(top) < holder`, then
//!    walk `parent` from the holder up to the stack top and push that chain
//!    top-down. Every universe element is pushed exactly once, and *in
//!    ascending id*: an element not yet on the stack when holder `h`
//!    arrives has no earlier holder in its subtree, so its id is above
//!    every earlier holder's and hence above everything those emitted; and
//!    a chain is pushed ancestor first.
//! 2. **Test.** Each emitted element `e` is tested against the compiled
//!    expression with one forward cursor per atom — "first holder `>= e`",
//!    then "is it `<= subtree_last(e)`". Elements arrive ascending, so a
//!    cursor never moves back. *Every* universe element is tested, which is
//!    what keeps `Not` exact: an ancestor can fail where its descendant
//!    satisfied.
//! 3. **Most specific.** Ids in a subtree are contiguous, so a satisfying
//!    element has a satisfying descendant iff the *next* satisfying element
//!    falls inside its range: it is replaced as that one arrives.
//! 4. **Score.** Most-specific matches are ascending and their subtrees
//!    disjoint, so one cursor per atom walks its holders once across all
//!    matches. Per match the sum runs atoms in compile order, holders
//!    ascending — the order the formula above is defined in, so scores do
//!    not depend on how the holders were found.
//!
//! The [`Budget`] sees one `charge_postings(holders)` per atom in compile
//! order before anything else, then one `checkpoint()` per merged
//! (atom, holder), one per universe element and one per match scored. A
//! trip while sweeping returns [`FtEval::empty`]; a trip while scoring
//! returns the scored document-order prefix.
//!
//! ## Negation safety
//!
//! Evaluation requires at least one positive term
//! ([`FtExpr::has_positive_term`]); `Not` is *safe* only inside a
//! conjunction that has a positive conjunct ([`FtExpr::is_safe`]) — a
//! disjunctive negation has no finite witness set at element granularity.

use crate::budget::Budget;
use crate::ftexpr::FtExpr;
use crate::index::{InvertedIndex, Posting, PostingEntry};
use flexpath_xmldom::{Document, NodeId, Sym};

/// Score decay per level of depth between the direct holder of a token and
/// the element being scored (XRANK's hyperlink-style dampening).
const LEVEL_DECAY: f64 = 0.8;

impl FtExpr {
    /// Whether negation only occurs beneath a conjunction that also has a
    /// positive conjunct (the fragment [`InvertedIndex::evaluate`] computes
    /// exactly).
    pub fn is_safe(&self) -> bool {
        fn check(e: &FtExpr, guarded: bool) -> bool {
            match e {
                FtExpr::Term(_) | FtExpr::Phrase(_) | FtExpr::Window { .. } => true,
                FtExpr::And(xs) => {
                    let has_positive = xs.iter().any(FtExpr::has_positive_term);
                    xs.iter().all(|x| check(x, has_positive))
                }
                FtExpr::Or(xs) => xs.iter().all(|x| x.has_positive_term() && check(x, false)),
                FtExpr::Not(inner) => guarded && check(inner, false),
            }
        }
        self.has_positive_term() && check(self, false)
    }
}

/// The result of evaluating one [`FtExpr`] against one document: the ranked
/// `(node, score)` contract FleXPath expects from its IR engine.
///
/// Ids and scores are two parallel columns: the id column is what
/// [`satisfies`](Self::satisfies) binary-searches (once per candidate per
/// required `contains`) and what the count merge streams, and a cached
/// evaluation costs 12 bytes per match.
#[derive(Debug, Clone)]
pub struct FtEval {
    /// Most-specific satisfying elements in ascending id (document) order.
    nodes: Vec<NodeId>,
    /// `scores[i]` is the score of `nodes[i]`, normalized to `(0, 1]`.
    scores: Vec<f64>,
}

impl FtEval {
    /// An evaluation with no matches.
    pub fn empty() -> Self {
        FtEval {
            nodes: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Most-specific matches in document order. No match is an ancestor of
    /// another, so their subtrees are disjoint; a match's own score is
    /// [`score`](Self::score) of it.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Matches sorted by descending score (the IR engine's ranked list).
    pub fn ranked(&self) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = self
            .nodes
            .iter()
            .copied()
            .zip(self.scores.iter().copied())
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Number of most-specific matches.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Does the subtree rooted at `n` satisfy the expression?
    ///
    /// O(log m): a subtree is a contiguous id range and matches are sorted.
    pub fn satisfies(&self, doc: &Document, n: NodeId) -> bool {
        let lo = self.nodes.partition_point(|&m| m < n);
        self.nodes
            .get(lo)
            .is_some_and(|&m| m <= doc.subtree_last(n))
    }

    /// Keyword score of context node `n`: the best match score within its
    /// subtree (`0.0` when the subtree does not satisfy the expression).
    pub fn score(&self, doc: &Document, n: NodeId) -> f64 {
        let last = doc.subtree_last(n);
        let lo = self.nodes.partition_point(|&m| m < n);
        let hi = self.nodes.partition_point(|&m| m <= last);
        self.scores[lo..hi].iter().copied().fold(0.0, f64::max)
    }

    /// `#contains(tag, expr)`: how many elements with `tag` satisfy the
    /// expression (the count FleXPath's contains-promotion penalty uses).
    ///
    /// One merge of the tag's node list with the match ids, both in
    /// document order: `O(T + M)`, sequential.
    pub fn count_for_tag(&self, doc: &Document, tag: Sym) -> u64 {
        // First match at or after the current tag node; tag nodes ascend,
        // so it only moves forward.
        let mut next = 0usize;
        let mut count = 0u64;
        // lint:allow(governor): one linear merge of two document-ordered
        // lists, no budget in the signature — the schedule build that asks
        // for the count checkpoints per step.
        for &n in doc.nodes_with_tag(tag) {
            while self.nodes.get(next).is_some_and(|&m| m < n) {
                next += 1;
            }
            match self.nodes.get(next) {
                Some(&m) => count += u64::from(m <= doc.subtree_last(n)),
                None => break, // no match left for this or any later node
            }
        }
        count
    }
}

/// Raw scores of `matches` (most-specific: ascending, subtrees disjoint), in
/// order: `Σ idf · (1 + ln tf) · decay^depth` over the scoring atoms'
/// holders inside each match. Shorter than `matches` when the budget trips.
fn score_matches(doc: &Document, atoms: &[Atom], matches: &[NodeId], budget: &Budget) -> Vec<f64> {
    // Per atom: its first holder not yet passed. Matches ascend and do not
    // nest, so each cursor walks its holders once.
    let mut cursors = vec![0usize; atoms.len()];
    let mut scores = Vec::with_capacity(matches.len());
    for &e in matches {
        if budget.checkpoint() {
            break;
        }
        let last = doc.subtree_last(e);
        let elevel = doc.level(e) as i64;
        let mut score = 0.0;
        // lint:allow(governor): per-query atom count; the enclosing
        // per-match loop checkpoints the budget.
        for (atom, at) in atoms.iter().zip(&mut cursors) {
            if !atom.scoring {
                continue;
            }
            while atom.holders.get(*at).is_some_and(|&(h, _)| h < e) {
                *at += 1;
            }
            let lo = *at;
            while atom.holders.get(*at).is_some_and(|&(h, _)| h <= last) {
                *at += 1;
            }
            // lint:allow(governor): holders were charged to the postings
            // meter at the compile boundary.
            for &(holder, tf) in &atom.holders[lo..*at] {
                let depth = (doc.level(holder) as i64 - elevel).max(0) as i32;
                score += atom.idf * (1.0 + f64::from(tf).ln()) * LEVEL_DECAY.powi(depth);
            }
        }
        scores.push(score);
    }
    scores
}

/// A positive atom (term / phrase / window) compiled against the index.
struct Atom {
    /// Elements whose direct text satisfies the atom, ascending id, with
    /// the atom's term frequency there.
    holders: Vec<(NodeId, u32)>,
    /// idf weight of the atom.
    idf: f64,
    /// Whether the atom occurs under a `Not` (satisfaction only, no score).
    scoring: bool,
}

enum Compiled {
    Atom(usize),
    And(Vec<Compiled>),
    Or(Vec<Compiled>),
    Not(Box<Compiled>),
}

impl InvertedIndex {
    /// Evaluates `expr`, returning the most-specific satisfying elements
    /// with normalized scores. Returns [`FtEval::empty`] for expressions
    /// without positive terms.
    pub fn evaluate(&self, doc: &Document, expr: &FtExpr) -> FtEval {
        self.evaluate_budgeted(doc, expr, &Budget::unlimited())
    }

    /// [`evaluate`](Self::evaluate) under a resource [`Budget`].
    ///
    /// Charges the postings each compiled atom scans and checkpoints the
    /// sweep and the scoring loop (see the module doc). When the budget
    /// trips mid-evaluation the result is a *best-effort partial*
    /// evaluation — a document-order prefix of the most-specific matches
    /// (possibly empty), normalized over what was scored. Callers must not
    /// cache a tripped evaluation: check [`Budget::tripped`] afterwards.
    pub fn evaluate_budgeted(&self, doc: &Document, expr: &FtExpr, budget: &Budget) -> FtEval {
        if !expr.has_positive_term() {
            return FtEval::empty();
        }
        let mut atoms = Vec::new();
        let compiled = self.compile(expr, true, &mut atoms);
        for atom in &atoms {
            if budget.charge_postings(atom.holders.len() as u64) {
                return FtEval::empty();
            }
        }
        let Some(mut nodes) = most_specific(doc, &compiled, &atoms, budget) else {
            return FtEval::empty();
        };
        let mut scores = score_matches(doc, &atoms, &nodes, budget);
        // A trip while scoring keeps the scored document-order prefix; the
        // caller sees the trip via the budget.
        nodes.truncate(scores.len());
        nodes.shrink_to_fit();
        let max = scores.iter().copied().fold(0.0, f64::max);
        for s in &mut scores {
            // Degenerate (e.g. satisfaction through Not only): uniform score.
            *s = if max > 0.0 { *s / max } else { 1.0 };
        }
        FtEval { nodes, scores }
    }

    fn compile(&self, expr: &FtExpr, scoring: bool, atoms: &mut Vec<Atom>) -> Compiled {
        match expr {
            FtExpr::Term(t) => {
                let holders = self
                    .posting(t)
                    .map(|p| p.entries.iter().map(|e| (e.node, e.tf)).collect())
                    .unwrap_or_default();
                atoms.push(Atom {
                    holders,
                    idf: self.idf(t),
                    scoring,
                });
                Compiled::Atom(atoms.len() - 1)
            }
            FtExpr::Phrase(terms) => {
                let holders = self.phrase_holders(terms);
                let idf = terms.iter().map(|t| self.idf(t)).sum();
                atoms.push(Atom {
                    holders,
                    idf,
                    scoring,
                });
                Compiled::Atom(atoms.len() - 1)
            }
            FtExpr::Window { terms, window } => {
                let holders = self.window_holders(terms, *window);
                let idf = terms.iter().map(|t| self.idf(t)).sum();
                atoms.push(Atom {
                    holders,
                    idf,
                    scoring,
                });
                Compiled::Atom(atoms.len() - 1)
            }
            FtExpr::And(xs) => {
                Compiled::And(xs.iter().map(|x| self.compile(x, scoring, atoms)).collect())
            }
            FtExpr::Or(xs) => {
                Compiled::Or(xs.iter().map(|x| self.compile(x, scoring, atoms)).collect())
            }
            FtExpr::Not(inner) => Compiled::Not(Box::new(self.compile(inner, false, atoms))),
        }
    }

    /// The posting of every term — of none when one term has none, since no
    /// element can then hold them all.
    fn postings_of(&self, terms: &[String]) -> Vec<&Posting> {
        let all: Option<Vec<_>> = terms.iter().map(|t| self.posting(t)).collect();
        all.unwrap_or_default()
    }

    /// Elements whose direct text contains the terms at consecutive
    /// positions, with the number of phrase occurrences (counted from the
    /// first term's positions).
    fn phrase_holders(&self, terms: &[String]) -> Vec<(NodeId, u32)> {
        let mut out = Vec::new();
        for_each_common(&self.postings_of(terms), |node, positions| {
            let Some((first, followers)) = positions.split_first() else {
                return;
            };
            let occurrences = first
                .iter()
                .filter(|&&start| {
                    followers
                        .iter()
                        .enumerate()
                        .all(|(k, pos)| pos.binary_search(&(start + 1 + k as u32)).is_ok())
                })
                .count() as u32;
            if occurrences > 0 {
                out.push((node, occurrences));
            }
        });
        out
    }

    /// Elements whose direct text contains every term within a positional
    /// window of `window` tokens.
    fn window_holders(&self, terms: &[String], window: u32) -> Vec<(NodeId, u32)> {
        let mut out = Vec::new();
        if window == 0 {
            return out; // no span is narrower than nothing
        }
        for_each_common(&self.postings_of(terms), |node, per_term| {
            // Sliding window over the merged position stream: does any span
            // of width < window cover all terms?
            let mut merged: Vec<(u32, usize)> = Vec::new();
            for (k, positions) in per_term.iter().enumerate() {
                merged.extend(positions.iter().map(|&p| (p, k)));
            }
            merged.sort_unstable();
            let mut counts = vec![0u32; per_term.len()];
            let mut covered = 0usize;
            let mut left = 0usize;
            // lint:allow(governor): sliding window over one element's merged
            // position stream; holders are charged at the compile boundary.
            for right in 0..merged.len() {
                let (rp, rk) = merged[right];
                counts[rk] += 1;
                if counts[rk] == 1 {
                    covered += 1;
                }
                while rp - merged[left].0 >= window {
                    let (_, lk) = merged[left];
                    counts[lk] -= 1;
                    if counts[lk] == 0 {
                        covered -= 1;
                    }
                    left += 1;
                }
                if covered == per_term.len() {
                    out.push((node, 1));
                    break;
                }
            }
        });
        out
    }
}

/// Visits, in ascending id, every element that has an entry in all of
/// `postings`, with its position lists in `postings` order. Driven from the
/// shortest list; the others follow with galloping cursors, so an
/// intersection costs what its rarest term costs.
fn for_each_common<'p>(postings: &[&'p Posting], mut visit: impl FnMut(NodeId, &[&'p [u32]])) {
    let Some(driver) = (0..postings.len()).min_by_key(|&k| postings[k].entries.len()) else {
        return;
    };
    let mut cursors = vec![0usize; postings.len()];
    let mut positions: Vec<&[u32]> = Vec::with_capacity(postings.len());
    // lint:allow(governor): the holders produced here are charged to the
    // postings meter by `evaluate_budgeted` right after compile returns.
    'entries: for entry in &postings[driver].entries {
        positions.clear();
        // lint:allow(governor): one pass over the phrase's terms; a gallop
        // skips entries of a list no shorter than the driver's, in O(log).
        for (k, posting) in postings.iter().enumerate() {
            if k == driver {
                positions.push(posting.positions_of(entry));
                continue;
            }
            cursors[k] += gallop_to(&posting.entries[cursors[k]..], entry.node);
            match posting.entries.get(cursors[k]) {
                Some(e) if e.node == entry.node => positions.push(posting.positions_of(e)),
                Some(_) => continue 'entries,
                None => return, // this list is spent: nothing further is common
            }
        }
        visit(entry.node, &positions);
    }
}

/// Number of leading `entries` before `node`, by galloping: exponential
/// probe to bracket the boundary, binary search inside the bracket —
/// `O(log skip)`.
fn gallop_to(entries: &[PostingEntry], node: NodeId) -> usize {
    let mut probe = 1usize;
    while probe < entries.len() && entries[probe].node < node {
        probe <<= 1;
    }
    let lo = probe >> 1;
    let hi = probe.min(entries.len());
    lo + entries[lo..hi].partition_point(|e| e.node < node)
}

/// The sweep (module doc, steps 1–3): the most-specific satisfying elements
/// in ascending id, or `None` when the budget trips.
fn most_specific(
    doc: &Document,
    compiled: &Compiled,
    atoms: &[Atom],
    budget: &Budget,
) -> Option<Vec<NodeId>> {
    // Per atom: its next unmerged holder, and (for `sat`) its first holder
    // at or after the element under test.
    let mut merge = vec![0usize; atoms.len()];
    let mut seek = vec![0usize; atoms.len()];
    // Universe elements whose subtree holds the current holder: a root path.
    let mut path: Vec<NodeId> = Vec::new();
    let mut chain: Vec<NodeId> = Vec::new();
    let mut specific: Vec<NodeId> = Vec::new();
    loop {
        let next = atoms
            .iter()
            .zip(&merge)
            .enumerate()
            .filter_map(|(i, (atom, &at))| atom.holders.get(at).map(|&(h, _)| (h, i)))
            .min();
        let Some((holder, i)) = next else {
            return Some(specific);
        };
        merge[i] += 1;
        if budget.checkpoint() {
            return None;
        }
        while path
            .last()
            .is_some_and(|&top| doc.subtree_last(top) < holder)
        {
            path.pop();
        }
        // What is left on the path contains the holder. New to the universe
        // are the holder and its ancestors below the path's top — nothing
        // when the same element just arrived as another atom's holder.
        let top = path.last().copied();
        let mut cur = holder;
        while Some(cur) != top {
            chain.push(cur);
            match doc.parent(cur) {
                Some(parent) => cur = parent,
                None => break,
            }
        }
        while let Some(e) = chain.pop() {
            if budget.checkpoint() {
                return None;
            }
            path.push(e);
            if sat(compiled, atoms, &mut seek, e, doc.subtree_last(e)) {
                // Ascending order: a satisfying descendant of the previous
                // satisfying element arrives right after it.
                if specific
                    .last()
                    .is_some_and(|&prev| doc.subtree_last(prev) >= e)
                {
                    specific.pop();
                }
                specific.push(e);
            }
        }
    }
}

/// Does the id range `[from, to]` (a subtree) satisfy `c`? `seek[i]` is
/// atom `i`'s cursor: callers test ranges in ascending `from`, so "first
/// holder `>= from`" only moves forward.
fn sat(c: &Compiled, atoms: &[Atom], seek: &mut [usize], from: NodeId, to: NodeId) -> bool {
    match c {
        Compiled::Atom(i) => {
            let holders = &atoms[*i].holders;
            let at = &mut seek[*i];
            while holders.get(*at).is_some_and(|&(h, _)| h < from) {
                *at += 1;
            }
            holders.get(*at).is_some_and(|&(h, _)| h <= to)
        }
        Compiled::And(xs) => xs.iter().all(|x| sat(x, atoms, seek, from, to)),
        Compiled::Or(xs) => xs.iter().any(|x| sat(x, atoms, seek, from, to)),
        Compiled::Not(inner) => !sat(inner, atoms, seek, from, to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_xmldom::parse;

    /// `(node, score)` per match, in document order.
    fn pairs(ev: &FtEval) -> Vec<(NodeId, f64)> {
        ev.nodes
            .iter()
            .copied()
            .zip(ev.scores.iter().copied())
            .collect()
    }

    fn eval(xml: &str, query: &str) -> (Document, FtEval) {
        let doc = parse(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        let expr = FtExpr::parse(query).unwrap();
        let ev = idx.evaluate(&doc, &expr);
        (doc, ev)
    }

    #[test]
    fn single_term_matches_direct_holder() {
        let (doc, ev) = eval("<a><b>gold coin</b><c>silver</c></a>", "\"gold\"");
        let b = doc.nodes_with_tag_name("b")[0];
        assert_eq!(ev.len(), 1);
        assert_eq!(pairs(&ev)[0].0, b);
        assert_eq!(pairs(&ev)[0].1, 1.0);
    }

    #[test]
    fn conjunction_returns_most_specific_common_container() {
        // "xml" in one paragraph, "streaming" in a sibling — the most
        // specific element whose subtree has both is the section.
        let (doc, ev) = eval(
            "<article><section><p>XML data</p><p>streaming queries</p></section></article>",
            "\"XML\" and \"streaming\"",
        );
        let section = doc.nodes_with_tag_name("section")[0];
        assert_eq!(ev.len(), 1);
        assert_eq!(pairs(&ev)[0].0, section);
    }

    #[test]
    fn most_specific_filter_prefers_descendants() {
        // Both words inside one paragraph: the paragraph wins, not the
        // section or article.
        let (doc, ev) = eval(
            "<article><section><p>XML streaming</p></section></article>",
            "\"XML\" and \"streaming\"",
        );
        let p = doc.nodes_with_tag_name("p")[0];
        assert_eq!(pairs(&ev), &[(p, 1.0)]);
    }

    #[test]
    fn satisfies_propagates_to_ancestors_only() {
        let (doc, ev) = eval(
            "<article><section><p>XML streaming</p></section><other>nothing</other></article>",
            "\"XML\" and \"streaming\"",
        );
        let article = doc.root_element();
        let section = doc.nodes_with_tag_name("section")[0];
        let p = doc.nodes_with_tag_name("p")[0];
        let other = doc.nodes_with_tag_name("other")[0];
        for n in [article, section, p] {
            assert!(ev.satisfies(&doc, n), "{n} should satisfy");
        }
        assert!(!ev.satisfies(&doc, other));
        // The closure inference rule: ancestors score at least... scores are
        // the max within subtree, so ancestors inherit the best descendant.
        assert!(ev.score(&doc, article) >= ev.score(&doc, p) - 1e-12);
        assert_eq!(ev.score(&doc, other), 0.0);
    }

    #[test]
    fn or_matches_either_side() {
        let (doc, ev) = eval(
            "<r><a>gold</a><b>silver</b><c>copper</c></r>",
            "\"gold\" or \"silver\"",
        );
        let ids: Vec<NodeId> = pairs(&ev).iter().map(|(n, _)| *n).collect();
        let a = doc.nodes_with_tag_name("a")[0];
        let b = doc.nodes_with_tag_name("b")[0];
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn negation_filters_in_conjunctions() {
        let (doc, ev) = eval(
            "<r><a>gold ring</a><b>gold plated ring</b></r>",
            "\"gold\" and not \"plated\"",
        );
        let a = doc.nodes_with_tag_name("a")[0];
        assert_eq!(pairs(&ev).len(), 1);
        assert_eq!(pairs(&ev)[0].0, a);
        // <r> is not a match: its subtree contains "plated".
        assert!(!ev.satisfies(&doc, doc.root_element()) || pairs(&ev)[0].0 != doc.root_element());
    }

    #[test]
    fn phrase_requires_adjacency_in_one_element() {
        let (doc, ev) = eval(
            "<r><a>vintage gold coin</a><b>gold vintage coin</b><c>vintage <i>gap</i> gold</c></r>",
            "\"vintage gold\"",
        );
        let a = doc.nodes_with_tag_name("a")[0];
        assert_eq!(pairs(&ev).len(), 1);
        assert_eq!(pairs(&ev)[0].0, a);
    }

    #[test]
    fn window_allows_bounded_gap() {
        let doc =
            parse("<r><a>gold one two silver</a><b>gold one two three four five silver</b></r>")
                .unwrap();
        let idx = InvertedIndex::build(&doc);
        let near = FtExpr::Window {
            terms: vec!["gold".into(), "silver".into()],
            window: 4,
        };
        let ev = idx.evaluate(&doc, &near);
        let a = doc.nodes_with_tag_name("a")[0];
        assert_eq!(pairs(&ev).len(), 1);
        assert_eq!(pairs(&ev)[0].0, a);
    }

    #[test]
    fn scores_are_normalized_and_tf_sensitive() {
        let (doc, ev) = eval("<r><a>gold gold gold</a><b>gold</b></r>", "\"gold\"");
        let a = doc.nodes_with_tag_name("a")[0];
        let b = doc.nodes_with_tag_name("b")[0];
        let score = |n: NodeId| {
            pairs(&ev)
                .iter()
                .find(|(m, _)| *m == n)
                .map(|(_, s)| *s)
                .unwrap()
        };
        assert_eq!(score(a), 1.0);
        assert!(score(b) < 1.0 && score(b) > 0.0);
        for (_, s) in pairs(&ev) {
            assert!((0.0..=1.0).contains(&s));
        }
        let _ = doc;
    }

    #[test]
    fn ranked_is_descending() {
        let (_, ev) = eval(
            "<r><a>gold gold</a><b>gold</b><c>gold gold gold</c></r>",
            "\"gold\"",
        );
        let ranked = ev.ranked();
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(ranked[0].1, 1.0);
    }

    #[test]
    fn count_for_tag_counts_satisfying_subtrees() {
        let (doc, ev) = eval(
            "<r><s><p>xml streaming</p></s><s><p>xml only</p></s><s><p>streaming only</p></s></r>",
            "\"xml\" and \"streaming\"",
        );
        let s = doc.symbols().lookup("s").unwrap();
        let p = doc.symbols().lookup("p").unwrap();
        let r = doc.symbols().lookup("r").unwrap();
        assert_eq!(ev.count_for_tag(&doc, s), 1);
        assert_eq!(ev.count_for_tag(&doc, p), 1);
        assert_eq!(ev.count_for_tag(&doc, r), 1);
    }

    #[test]
    fn no_match_yields_empty_eval() {
        let (doc, ev) = eval("<r><a>gold</a></r>", "\"platinum\"");
        assert!(ev.is_empty());
        assert!(!ev.satisfies(&doc, doc.root_element()));
        assert_eq!(ev.score(&doc, doc.root_element()), 0.0);
    }

    #[test]
    fn stemming_unifies_query_and_document_forms() {
        let (doc, ev) = eval(
            "<r><a>streaming algorithms</a></r>",
            "\"streams\" and \"algorithm\"",
        );
        assert_eq!(ev.len(), 1);
        assert_eq!(pairs(&ev)[0].0, doc.nodes_with_tag_name("a")[0]);
    }

    #[test]
    fn safety_classification() {
        assert!(FtExpr::parse("\"a1\" and not \"b1\"").unwrap().is_safe());
        assert!(FtExpr::parse("\"a1\" or \"b1\"").unwrap().is_safe());
        let not_only = FtExpr::Not(Box::new(FtExpr::term("a1")));
        assert!(!not_only.is_safe());
        let or_with_not = FtExpr::Or(vec![FtExpr::term("a1"), not_only.clone()]);
        assert!(!or_with_not.is_safe());
    }

    #[test]
    fn deep_nesting_scores_decay() {
        let (doc, ev) = eval(
            "<r><shallow>gold</shallow><deep><l1><l2><l3>gold</l3></l2></l1></deep></r>",
            "\"gold\"",
        );
        // Both leaves are most-specific matches with the same tf; direct
        // holders score equally (decay applies relative to the match, which
        // *is* the holder here) — so both are 1.0.
        assert_eq!(ev.len(), 2);
        assert!(pairs(&ev).iter().all(|(_, s)| *s == 1.0));
        // But the *root*'s score sees the shallow one at less decay; the
        // max-based context score is still positive.
        assert!(ev.score(&doc, doc.root_element()) > 0.0);
    }
}
