//! The encoded-plan evaluator.
//!
//! Matches an [`EncodedQuery`] against the document, streaming answers in
//! document order of the distinguished binding. Per answer it computes:
//!
//! * the **satisfied-predicate bitset** over the encoded relaxable
//!   predicates (Hybrid's bucket key),
//! * the **structural score** `base − Σ_{unsatisfied} π(p)`,
//! * the **keyword score** `Σ w·score(binding of each contains holder)`.
//!
//! ## How matching works
//!
//! Every query node draws its candidates from one document-ordered list,
//! resolved once per evaluation (`spec_list`): its tag's node list, the
//! merged lists of a hierarchy type's members, or — for a wildcard — no
//! list at all (any element).
//!
//! Evaluation is a **semijoin prefilter** followed by a **best-embedding
//! DP**. The prefilter (`required_roots`) asks those sorted lists the
//! cheap existence question — which root candidates have the relaxed
//! query's *required* skeleton below them at all — and hands the DP only
//! those; it admits nothing, it only spares the DP roots that cannot match.
//!
//! The DP runs a best-embedding dynamic program over the *original*
//! query tree. Sibling subtrees of a tree pattern are independent given the
//! parent binding, and every relaxable predicate is owned by exactly one
//! node and only references bindings of that node's original ancestors — so
//! a per-child maximum is a global maximum, and no exponential embedding
//! enumeration is needed.
//!
//! Surviving nodes must match (candidates are drawn under the binding of
//! their *relaxed* anchor, which is always an original ancestor). Ghost
//! nodes (λ-deleted) are optional: the evaluator tries real bindings (so
//! answers that happen to satisfy deleted predicates score higher) and
//! falls back to leaving the node unbound, recursing into its ghost
//! children independently.

use crate::context::EngineContext;
use crate::encode::{BitCheck, ChildIndex, EncodedQuery, NodeSpec};
use crate::metrics::{self, Counter};
use crate::score::{AnswerScore, RankingScheme};
use crate::structural_join::{retain_containing, retain_parents_of};
use crate::topk::Answer;
use flexpath_ftsearch::Budget;
use flexpath_tpq::Axis;
use flexpath_xmldom::{Document, NodeId, Sym};
use std::borrow::Cow;

/// Per-subtree contribution of a (partial) embedding.
#[derive(Debug, Clone, Copy, Default)]
struct Contribution {
    bits: u64,
    /// Sum of penalties of the *satisfied* relaxable predicates (higher is
    /// better; the final ss adds this to `base − total_penalty`).
    sat_penalty: f64,
    ks: f64,
}

impl Contribution {
    fn merge(&mut self, other: Contribution) {
        self.bits |= other.bits;
        self.sat_penalty += other.sat_penalty;
        self.ks += other.ks;
    }

    fn better_than(&self, other: &Contribution, scheme: RankingScheme) -> bool {
        let key = |c: &Contribution| match scheme {
            RankingScheme::StructureFirst => (c.sat_penalty, c.ks),
            RankingScheme::KeywordFirst => (c.ks, c.sat_penalty),
            RankingScheme::Combined => (c.sat_penalty + c.ks, 0.0),
        };
        let (a1, a2) = key(self);
        let (b1, b2) = key(other);
        (a1, a2) > (b1, b2)
    }
}

/// Streaming evaluation statistics.
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Root candidates handed to the DP: the root tag's nodes that passed
    /// the required-skeleton prefilter (`required_roots`).
    pub roots: u64,
    /// Candidate nodes examined across all specs.
    pub candidates_examined: u64,
    /// Answers emitted.
    pub answers: u64,
    /// Candidate loops cut short by the saturation shortcut: a binding
    /// satisfied every relaxable bit its subtree can contribute (and the
    /// subtree carries no keyword score), so no later candidate can beat
    /// it and the rest of the loop is skipped.
    pub saturated_breaks: u64,
}

/// Spec index of the query root.
const ROOT_SPEC: usize = 0;

/// Evaluates `enc`, invoking `on_answer` once per distinct answer
/// (distinguished-node binding) in document order.
///
/// The candidate loops checkpoint `budget` cooperatively and each emitted
/// answer is charged against the answer cap. When the budget trips,
/// evaluation stops at the next checkpoint — answers already emitted stand
/// (document-order prefix), and the caller learns the reason via
/// [`Budget::tripped`]. An unlimited budget short-circuits every check.
///
/// The outer candidate list (the root candidates that passed the
/// required-skeleton prefilter, or all distinguished candidates when the
/// distinguished node sits below the root) is scanned by the one
/// candidate loop (`Evaluator::scan`), streaming straight into
/// `on_answer`. The pinned scan (distinguished node below the root) tries
/// every prefiltered root per distinguished candidate.
pub fn evaluate_encoded(
    ctx: &EngineContext,
    enc: &EncodedQuery,
    scheme: RankingScheme,
    budget: &Budget,
    mut on_answer: impl FnMut(Answer),
) -> EvalStats {
    let doc = ctx.doc();
    let lists: Vec<_> = enc.specs.iter().map(|s| spec_list(doc, s)).collect();
    let dist = enc.distinguished_spec();
    let roots = required_roots(doc, enc, &lists, budget);
    let root_count = roots.len() as u64;
    let (outer, roots) = if dist == ROOT_SPEC {
        (roots, Cow::Borrowed(&[][..]))
    } else {
        (everywhere(doc, &lists[dist]), roots)
    };
    let mut stats =
        Evaluator::new(doc, enc, &lists, scheme, budget).scan(&outer, &roots, &mut on_answer);
    stats.roots = root_count;
    let reg = metrics::global();
    reg.add(Counter::ExecEvaluations, 1);
    reg.add(Counter::ExecRoots, stats.roots);
    reg.add(Counter::ExecCandidates, stats.candidates_examined);
    reg.add(Counter::ExecAnswers, stats.answers);
    reg.add(Counter::ExecSaturated, stats.saturated_breaks);
    stats
}

fn finalize(enc: &EncodedQuery, node: NodeId, c: Contribution) -> Answer {
    // The answer's own relaxation level: the deepest schedule step whose
    // dropped predicate it fails (an answer satisfying everything is an
    // exact match even when evaluated under a fully relaxed encoding).
    let mut level = 0usize;
    for (bi, &step) in enc.bit_step.iter().enumerate() {
        // Extension bits (tag relaxation) are not schedule steps.
        if step != usize::MAX && c.bits & (1u64 << bi) == 0 {
            level = level.max(step + 1);
        }
    }
    Answer {
        node,
        score: AnswerScore {
            ss: enc.base_ss - (enc.total_penalty - c.sat_penalty),
            ks: c.ks,
        },
        satisfied: if enc.relaxable.is_empty() {
            u64::MAX
        } else {
            c.bits
        },
        relaxation_level: level,
    }
}

struct Evaluator<'a> {
    /// The document, resolved once by [`evaluate_encoded`]: the candidate
    /// loops below run per document node and never call into the
    /// context's source.
    doc: &'a Document,
    enc: &'a EncodedQuery,
    /// Per spec, its candidate list ([`spec_list`]; `None` = wildcard).
    lists: &'a [Option<Cow<'a, [NodeId]>>],
    scheme: RankingScheme,
    /// Flat child-list arena — range reads, no per-candidate allocation.
    children: ChildIndex,
    /// Saturation targets for the candidate-loop shortcut.
    subtree: SubtreeInfo,
    /// Per spec: last `(anchor, lo, hi)` subtree range served by
    /// [`Self::list_range`] — a one-entry memo per spec that absorbs the
    /// repeated range queries issued by enclosing candidate loops.
    range_memo: Vec<Option<(NodeId, usize, usize)>>,
    env: Vec<Option<NodeId>>,
    pinned: Option<(usize, NodeId)>,
    stats: EvalStats,
    /// Cooperative budget checked in the candidate loops.
    budget: &'a Budget,
}

/// Anchor-subtree size (in node ids) below which candidate enumeration
/// scans the contiguous id range directly instead of binary-searching the
/// spec's candidate list. Sized so the sequential scan stays within a
/// couple of cache lines of the tag array.
const SMALL_SUBTREE: u32 = 32;

/// Per-spec saturation info for the candidate-loop shortcut (computed once
/// per evaluation, O(specs × bits)).
struct SubtreeInfo {
    /// OR of the relaxable bits owned by each spec's subtree.
    mask: Vec<u64>,
    /// Whether the subtree contains any keyword-scored (`contains`) spec —
    /// keyword scores are not bounded by bits, so saturation cannot
    /// shortcut those subtrees.
    scored: Vec<bool>,
    /// Per spec: subtree bits whose [`BitCheck`] references a spec
    /// *outside* the subtree, as `(bit, referenced spec)`. When that spec
    /// is unbound at loop entry the bit is unsatisfiable for the whole
    /// loop and drops out of the saturation target.
    ext_refs: Vec<Vec<(usize, usize)>>,
}

fn subtree_info(enc: &EncodedQuery) -> SubtreeInfo {
    let n = enc.specs.len();
    let mut mask = vec![0u64; n];
    let mut scored = vec![false; n];
    for (i, spec) in enc.specs.iter().enumerate() {
        for &bi in &spec.bits {
            mask[i] |= 1u64 << bi;
        }
        scored[i] = !spec.required_contains.is_empty();
    }
    // Children always follow their parent in spec order (specs mirror the
    // original query tree), so one reverse sweep folds subtrees upward.
    // lint:allow(governor): query-arity-sized loop, not corpus-sized.
    for i in (1..n).rev() {
        if let Some(p) = enc.specs[i].parent {
            debug_assert!(p < i, "spec order must be parent-before-child");
            mask[p] |= mask[i];
            scored[p] = scored[p] || scored[i];
        }
    }
    // Ancestor sets as bitsets (spec counts are query-arity-sized; beyond
    // 64 we skip external-reference analysis, which only weakens — never
    // breaks — the shortcut).
    let mut ext_refs = vec![Vec::new(); n];
    if n <= 64 {
        let mut anc = vec![0u64; n];
        for i in 0..n {
            anc[i] = (1u64 << i) | enc.specs[i].parent.map_or(0, |p| anc[p]);
        }
        // lint:allow(governor): specs × bits — both query-arity-sized.
        for (o, spec) in enc.specs.iter().enumerate() {
            // lint:allow(governor): query-arity-sized loop, not corpus-sized.
            for &bi in &spec.bits {
                let x = match enc.relaxable[bi].check {
                    BitCheck::PcFrom(x) | BitCheck::AdFrom(x) => x,
                    _ => continue,
                };
                // The bit is external to every subtree rooted strictly
                // below `x` on the owner's ancestor path.
                let mut c = Some(o);
                // lint:allow(governor): walks the owner's ancestor path —
                // bounded by query depth.
                while let Some(ci) = c {
                    if anc[x] & (1u64 << ci) != 0 {
                        break;
                    }
                    ext_refs[ci].push((bi, x));
                    c = enc.specs[ci].parent;
                }
            }
        }
    }
    SubtreeInfo {
        mask,
        scored,
        ext_refs,
    }
}

/// The document-ordered candidate list of `spec`, resolved once per
/// evaluation and the only source of its candidates: a concrete tag
/// borrows the document's tag list, a hierarchy-typed node merges its
/// members' lists, and a wildcard is `None` (any element). A tag the
/// document lacks has the empty list.
fn spec_list<'d>(doc: &'d Document, spec: &NodeSpec) -> Option<Cow<'d, [NodeId]>> {
    if spec.tag_missing {
        return Some(Cow::Borrowed(&[]));
    }
    match (spec.tag, spec.alt_tags.is_empty()) {
        (Some(tag), true) => Some(Cow::Borrowed(doc.nodes_with_tag(tag))),
        (None, true) => None,
        _ => {
            let mut merged: Vec<NodeId> = (spec.tag.iter().chain(&spec.alt_tags))
                .flat_map(|&t| doc.nodes_with_tag(t).iter().copied())
                .collect();
            // The concatenation is one sorted run per member: the stable
            // sort finds the runs and merges them (O(M log members)),
            // where an unstable sort would re-sort all M ids every round.
            merged.sort();
            Some(Cow::Owned(merged))
        }
    }
}

/// A candidate list over the whole document: the spec's list, or every
/// element for a wildcard.
fn everywhere<'l>(doc: &Document, list: &'l Option<Cow<'_, [NodeId]>>) -> Cow<'l, [NodeId]> {
    match list {
        Some(list) => Cow::Borrowed(list),
        None => doc.elements().collect(),
    }
}

/// Whether a node tagged `tag` (`None` = a text node) can bind `spec`:
/// its own tag, a hierarchy member, or any element for a wildcard. The
/// id-range scan's counterpart of [`spec_list`].
fn tag_test(spec: &NodeSpec, tag: Option<Sym>) -> bool {
    let Some(t) = tag else {
        return false;
    };
    let wildcard = spec.tag.is_none() && spec.alt_tags.is_empty() && !spec.tag_missing;
    spec.tag == Some(t) || spec.alt_tags.contains(&t) || wildcard
}

/// The root candidates worth handing to the DP: those that pass the
/// **existence test of the relaxed query's required skeleton**.
///
/// The surviving specs, linked by `anchor`/`axis`, *are* the relaxed tree
/// pattern; each starts from its [`spec_list`], is cut down to the nodes
/// satisfying its `required_contains` (the sorted
/// [`flexpath_ftsearch::FtEval::nodes`]), and then cuts its anchor's set
/// down to the nodes that have it as a child / descendant — a bottom-up
/// pass of semijoins, spec index descending, since an anchor's index is
/// always smaller than its dependants'. What reaches the root is a
/// **superset** of the roots [`Evaluator::match_node`] accepts: ghosts,
/// wildcards, attribute predicates and the pinned distinguished binding
/// constrain nothing here and are left to the DP, which stays the only
/// code that admits, scores and emits an answer.
///
/// A pure function of the document and the encoding. The semijoins
/// checkpoint `budget`; on a trip no roots are returned, exactly as if the
/// scan had tripped on its first candidate.
fn required_roots<'l>(
    doc: &Document,
    enc: &EncodedQuery,
    lists: &'l [Option<Cow<'_, [NodeId]>>],
    budget: &Budget,
) -> Cow<'l, [NodeId]> {
    let specs = &enc.specs;
    if specs.iter().any(|s| s.surviving && s.tag_missing) {
        return Cow::Borrowed(&[]); // a required node names a tag the document lacks
    }
    // Per spec, the nodes that can still bind it; `None` = unconstrained.
    let mut sets: Vec<Option<Cow<'l, [NodeId]>>> = (specs.iter().zip(lists))
        .map(|(s, list)| list.as_deref().filter(|_| s.surviving).map(Cow::Borrowed))
        .collect();
    // lint:allow(governor): query-arity-sized loop; the corpus-sized work
    // is inside the semijoins, which checkpoint per node.
    for i in (0..specs.len()).rev() {
        let Some(mut set) = sets[i].take() else {
            continue;
        };
        for &ci in &specs[i].required_contains {
            retain_containing(doc, budget, &mut set, enc.cspecs[ci].eval.nodes(), true);
        }
        let Some(anchor) = specs[i].anchor else {
            return if budget.tripped().is_some() {
                Cow::Borrowed(&[])
            } else {
                set
            };
        };
        if let Some(anchor_set) = sets[anchor].as_mut() {
            match specs[i].axis {
                Axis::Child => retain_parents_of(doc, budget, anchor_set, &set),
                Axis::Descendant => retain_containing(doc, budget, anchor_set, &set, false),
            }
        }
    }
    // Wildcard root: nothing to filter by.
    everywhere(doc, &lists[ROOT_SPEC])
}

impl<'a> Evaluator<'a> {
    fn new(
        doc: &'a Document,
        enc: &'a EncodedQuery,
        lists: &'a [Option<Cow<'a, [NodeId]>>],
        scheme: RankingScheme,
        budget: &'a Budget,
    ) -> Self {
        Evaluator {
            doc,
            enc,
            lists,
            scheme,
            children: enc.child_index(),
            subtree: subtree_info(enc),
            range_memo: vec![None; enc.specs.len()],
            env: vec![None; enc.specs.len()],
            pinned: None,
            stats: EvalStats::default(),
            budget,
        }
    }

    /// The candidate scan: one answer per element of `outer` (a contiguous
    /// document-order run of candidates for the distinguished spec) that
    /// has an embedding, emitted in order.
    ///
    /// With the distinguished node at the root each candidate is matched
    /// directly. Otherwise (the general case) each distinguished candidate
    /// is pinned and the best embedding over all `roots` is kept —
    /// quadratic in the worst case but exact; the paper's workloads always
    /// distinguish the root.
    fn scan(
        mut self,
        outer: &[NodeId],
        roots: &[NodeId],
        on_answer: &mut impl FnMut(Answer),
    ) -> EvalStats {
        let dist = self.enc.distinguished_spec();
        for &d in outer {
            if self.budget.checkpoint() {
                break;
            }
            let best = if dist == ROOT_SPEC {
                self.stats.candidates_examined += 1;
                self.match_node(ROOT_SPEC, d)
            } else {
                self.pinned = Some((dist, d));
                let mut best: Option<Contribution> = None;
                for &r in roots {
                    self.stats.candidates_examined += 1;
                    if let Some(contrib) = self.match_node(ROOT_SPEC, r) {
                        if best.is_none_or(|b| contrib.better_than(&b, self.scheme)) {
                            best = Some(contrib);
                        }
                    }
                }
                best
            };
            if let Some(contrib) = best {
                if self.budget.charge_answer() {
                    break;
                }
                self.stats.answers += 1;
                on_answer(finalize(self.enc, d, contrib));
            }
        }
        self.stats
    }

    /// Local (non-edge) requirements of binding `spec` to `d`.
    fn local_ok(&self, idx: usize, d: NodeId) -> bool {
        let spec = &self.enc.specs[idx];
        if let Some((pin_idx, pin_node)) = self.pinned {
            if pin_idx == idx && pin_node != d {
                return false;
            }
        }
        // lint:allow(governor): iterates the query's attribute specs —
        // query-arity-sized, not corpus-sized.
        for (name, pred, mode) in &spec.attrs {
            let actual = name.and_then(|sym| self.doc.attribute(d, sym));
            let ok = match (mode, self.enc.attr_relax) {
                (crate::encode::AttrMode::Slackened, Some(relax)) => {
                    relax.satisfies_relaxed(pred, actual)
                }
                _ => pred.eval(actual),
            };
            if !ok {
                return false;
            }
        }
        for &ci in &spec.required_contains {
            if !self.enc.cspecs[ci].eval.satisfies(self.doc, d) {
                return false;
            }
        }
        true
    }

    /// Attempts to bind spec `idx` to document node `d`; returns the best
    /// contribution of the subtree, or `None` when the (required parts of
    /// the) subtree cannot be matched.
    fn match_node(&mut self, idx: usize, d: NodeId) -> Option<Contribution> {
        if !self.local_ok(idx, d) {
            return None;
        }
        self.env[idx] = Some(d);
        let mut contrib = Contribution::default();
        let spec = &self.enc.specs[idx];
        // Keyword score: contains predicates required here.
        for &ci in &spec.required_contains {
            let cs = &self.enc.cspecs[ci];
            contrib.ks += cs.weight * cs.eval.score(self.doc, d);
        }
        // Relaxable predicate bits owned here.
        for &bi in &spec.bits {
            if self.check_bit(bi, d) {
                contrib.bits |= 1u64 << bi;
                contrib.sat_penalty += self.enc.relaxable[bi].penalty;
            }
        }
        // Children (original-tree order) — indices into the flat arena, so
        // the recursion borrows nothing from `self` across calls.
        for ci in self.children.range(idx) {
            let c = self.children.at(ci);
            match self.best_child(c) {
                Some(cc) => contrib.merge(cc),
                None => {
                    // A required child failed: this binding fails.
                    self.env[idx] = None;
                    return None;
                }
            }
        }
        self.env[idx] = None;
        Some(contrib)
    }

    fn check_bit(&self, bi: usize, d: NodeId) -> bool {
        match &self.enc.relaxable[bi].check {
            BitCheck::PcFrom(x) => self.env[*x]
                .map(|dx| self.doc.is_parent(dx, d))
                .unwrap_or(false),
            BitCheck::AdFrom(x) => self.env[*x]
                .map(|dx| self.doc.is_ancestor(dx, d))
                .unwrap_or(false),
            BitCheck::ContainsHere(eval) => eval.satisfies(self.doc, d),
            BitCheck::TagIs(sym) => self.doc.tag(d) == Some(*sym),
            BitCheck::AttrStrict { attr, pred } => {
                let actual = attr.and_then(|sym| self.doc.attribute(d, sym));
                pred.eval(actual)
            }
        }
    }

    /// Best contribution for child spec `c` (and its subtree). `None` means
    /// a *required* subtree could not be matched.
    fn best_child(&mut self, c: usize) -> Option<Contribution> {
        let spec = &self.enc.specs[c];
        let surviving = spec.surviving;
        if spec.tag_missing {
            // Tag absent from the document: a surviving node can never
            // match; a ghost simply stays unbound.
            return if surviving { None } else { self.ghost_skip(c) };
        }
        // Non-root specs always carry an anchor bound before their
        // descendants; degrade to "unmatchable" rather than panic if that
        // engine invariant were ever violated.
        let anchor_binding = match spec.anchor.and_then(|a| self.env[a]) {
            Some(b) => b,
            None => return if surviving { None } else { self.ghost_skip(c) },
        };
        let children_only = surviving && spec.axis == Axis::Child;

        let (achievable, can_saturate) = self.saturation_target(c);

        let doc = self.doc;
        let last = doc.subtree_last(anchor_binding);
        let mut best: Option<Contribution> = None;
        match self.lists[c].as_deref() {
            Some(list) if last.0 - anchor_binding.0 > SMALL_SUBTREE => {
                // Iterate the document-ordered list in place; the subtree
                // range is memoized per spec (inner loops re-request the
                // same (spec, anchor) range for every candidate of the
                // enclosing loop).
                let (lo, hi) = self.list_range(c, list, anchor_binding, last);
                for &d in &list[lo..hi] {
                    if self.budget.checkpoint() {
                        break;
                    }
                    if children_only && !doc.is_parent(anchor_binding, d) {
                        continue;
                    }
                    if self.consider(c, d, achievable, can_saturate, &mut best) {
                        break;
                    }
                }
            }
            _ => {
                // Tiny anchor subtree (deep specs re-anchored at a bound
                // parent), or a wildcard: a sequential id-range scan with a
                // tag test per node beats two binary probes into the list —
                // node ids are contiguous per subtree, so this reads a
                // handful of adjacent tag entries instead of hopping
                // through a list with ~log(n) cache misses.
                for raw in anchor_binding.0 + 1..=last.0 {
                    if self.budget.checkpoint() {
                        break;
                    }
                    let d = NodeId(raw);
                    if !tag_test(spec, doc.tag(d)) {
                        continue;
                    }
                    if children_only && !doc.is_parent(anchor_binding, d) {
                        continue;
                    }
                    if self.consider(c, d, achievable, can_saturate, &mut best) {
                        break;
                    }
                }
            }
        }
        if surviving {
            return best;
        }
        // A ghost may also stay unbound — its descendants can still bind
        // (independently) under their own anchors; keep the better of the two.
        match (best, self.ghost_skip(c)) {
            (Some(b), Some(s)) => Some(if b.better_than(&s, self.scheme) { b } else { s }),
            (Some(b), None) => Some(b),
            (None, s) => s,
        }
    }

    /// Saturation target for the candidate-loop shortcut of spec `c`: the
    /// subtree's achievable bits, and whether reaching them may stop the
    /// loop. A subtree bit whose check references an unbound external spec
    /// (a λ-deleted ancestor left unbound for this whole loop) is
    /// unsatisfiable and drops out of the target.
    fn saturation_target(&self, c: usize) -> (u64, bool) {
        let mut achievable = self.subtree.mask[c];
        for &(bi, x) in &self.subtree.ext_refs[c] {
            if self.env[x].is_none() {
                achievable &= !(1u64 << bi);
            }
        }
        (achievable, !self.subtree.scored[c])
    }

    /// One step of a candidate loop: examine `d` for spec `c`, fold its
    /// contribution into `best`, and report whether the loop may stop
    /// because `best` saturated the achievable bits (see the shortcut
    /// comment in [`Self::best_child`]). The first maximal candidate is
    /// the one the full scan would keep anyway (strict `better_than` keeps
    /// the earliest of tied contributions), so stopping is
    /// output-invisible; exact-integer bit comparison avoids float-sum
    /// ordering hazards.
    #[inline]
    fn consider(
        &mut self,
        c: usize,
        d: NodeId,
        achievable: u64,
        can_saturate: bool,
        best: &mut Option<Contribution>,
    ) -> bool {
        self.stats.candidates_examined += 1;
        if let Some(contrib) = self.match_node(c, d) {
            if best.is_none_or(|b| contrib.better_than(&b, self.scheme)) {
                let saturated = can_saturate && contrib.bits & achievable == achievable;
                *best = Some(contrib);
                if saturated {
                    self.stats.saturated_breaks += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Range of spec `c`'s candidate `list` inside `anchor`'s subtree
    /// (which ends at `last`), memoized per spec: the two binary searches
    /// only run when the anchor actually changes (inner loops re-request
    /// the same range for every candidate of the enclosing loop).
    fn list_range(
        &mut self,
        c: usize,
        list: &[NodeId],
        anchor: NodeId,
        last: NodeId,
    ) -> (usize, usize) {
        if let Some((a, lo, hi)) = self.range_memo[c] {
            if a == anchor {
                return (lo, hi);
            }
        }
        let lo = list.partition_point(|&n| n <= anchor);
        let hi = lo + list[lo..].partition_point(|&n| n <= last);
        self.range_memo[c] = Some((anchor, lo, hi));
        (lo, hi)
    }

    /// Contribution of ghost `c`'s subtree with `c` left unbound: its own
    /// bits are unsatisfied; its children are matched independently. A
    /// descendant may still be *surviving* (σ promoted it out before λ
    /// deleted `c`) — it is required, and [`Self::best_child`] reports
    /// `None` for exactly that case (a ghost on its own always has the
    /// unbound fallback), so every `None` fails the match, whether the
    /// child that returned it survives or is itself a ghost above the
    /// required node.
    fn ghost_skip(&mut self, c: usize) -> Option<Contribution> {
        let mut contrib = Contribution::default();
        for ki in self.children.range(c) {
            let k = self.children.at(ki);
            contrib.merge(self.best_child(k)?);
        }
        Some(contrib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{q1, setup, ARTICLES};
    use crate::hierarchy::TagHierarchy;
    use crate::schedule::build_schedule;
    use crate::score::{PenaltyModel, WeightAssignment};
    use flexpath_ftsearch::FtExpr;
    use flexpath_reference::{naive_exact_answers, shapes};
    use flexpath_tpq::{parse_query, Predicate, TpqBuilder, Var};

    fn collect(ctx: &EngineContext, enc: &EncodedQuery, scheme: RankingScheme) -> Vec<Answer> {
        collect_with(ctx, enc, scheme).0
    }

    fn collect_with(
        ctx: &EngineContext,
        enc: &EncodedQuery,
        scheme: RankingScheme,
    ) -> (Vec<Answer>, EvalStats) {
        let mut out = Vec::new();
        let stats = evaluate_encoded(ctx, enc, scheme, &Budget::unlimited(), |a| out.push(a));
        (out, stats)
    }

    #[test]
    fn exact_evaluation_matches_only_strict_answers() {
        // Only article a0 satisfies Q1 exactly.
        let q = q1();
        let (ctx, model) = setup(ARTICLES, &q);
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        assert_eq!(answers.len(), 1);
        let id = ctx.resolve_tag("id").unwrap();
        assert_eq!(ctx.doc().attribute(answers[0].node, id), Some("a0"));
        assert_eq!(answers[0].score.ss, 3.0);
        assert!(answers[0].score.ks > 0.0);
    }

    #[test]
    fn exact_evaluation_agrees_with_naive_oracle_structurally() {
        // Structural-only query (no contains) vs brute force.
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let _a = b.child(s, "algorithm");
        let _p = b.child(s, "paragraph");
        let q = b.build();
        let (ctx, model) = setup(ARTICLES, &q);
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let got: Vec<NodeId> = collect(&ctx, &enc, RankingScheme::StructureFirst)
            .into_iter()
            .map(|a| a.node)
            .collect();
        assert_eq!(got, naive_exact_answers(ctx.doc(), &q));
    }

    #[test]
    fn fully_encoded_evaluation_recovers_all_relaxed_answers() {
        // With the full schedule encoded, every article whose subtree
        // contains the keywords is an answer (Q6 semantics).
        let q = q1();
        let (ctx, model) = setup(ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let enc = EncodedQuery::build(&ctx, &model, &q, &steps);
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        // a0, a1, a2, a3 contain both keywords; a4 does not.
        assert_eq!(answers.len(), 4);
        // Answers stream in document order.
        for w in answers.windows(2) {
            assert!(w[0].node < w[1].node);
        }
    }

    #[test]
    fn encoded_scores_grade_by_structural_fidelity() {
        let q = q1();
        let (ctx, model) = setup(ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let enc = EncodedQuery::build(&ctx, &model, &q, &steps);
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        let id_sym = ctx.resolve_tag("id").unwrap();
        let ss_of = |label: &str| {
            answers
                .iter()
                .find(|a| ctx.doc().attribute(a.node, id_sym) == Some(label))
                .map(|a| a.score.ss)
                .unwrap()
        };
        // a0 is an exact match: full score.
        assert!((ss_of("a0") - 3.0).abs() < 1e-9);
        // a1 keeps structure but not the paragraph-contains; a3 keeps almost
        // nothing. Ordering must reflect fidelity.
        assert!(ss_of("a0") > ss_of("a1"));
        assert!(ss_of("a1") > ss_of("a3"));
        assert!(ss_of("a2") > ss_of("a3"));
    }

    #[test]
    fn exact_match_bits_are_all_satisfied_under_encoding() {
        let q = q1();
        let (ctx, model) = setup(ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let enc = EncodedQuery::build(&ctx, &model, &q, &steps);
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        let id_sym = ctx.resolve_tag("id").unwrap();
        let a0 = answers
            .iter()
            .find(|a| ctx.doc().attribute(a.node, id_sym) == Some("a0"))
            .unwrap();
        let full_mask = (1u64 << enc.relaxable.len()) - 1;
        assert_eq!(a0.satisfied & full_mask, full_mask);
    }

    #[test]
    fn relaxed_subset_relationship_holds() {
        // Answers of the exact query ⊆ answers at every relaxation level —
        // the empirical half of Theorem 2's soundness.
        let q = q1();
        let (ctx, model) = setup(ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let mut previous: Option<Vec<NodeId>> = None;
        for prefix in 0..=steps.len() {
            let enc = EncodedQuery::build(&ctx, &model, &q, &steps[..prefix]);
            let nodes: Vec<NodeId> = collect(&ctx, &enc, RankingScheme::StructureFirst)
                .into_iter()
                .map(|a| a.node)
                .collect();
            if let Some(prev) = &previous {
                for n in prev {
                    assert!(
                        nodes.contains(n),
                        "answer {n} lost at relaxation prefix {prefix}"
                    );
                }
            }
            previous = Some(nodes);
        }
    }

    #[test]
    fn distinguished_below_root_projects_correctly() {
        // //article/section: answers are sections.
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        b.set_distinguished(s);
        let q = b.build();
        let (ctx, model) = setup(ARTICLES, &q);
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        assert_eq!(answers.len(), 4); // a0, a1, a2, a4 have sections
        for a in &answers {
            assert_eq!(ctx.doc().tag_name(a.node), Some("section"));
        }
    }

    #[test]
    fn wildcard_root_enumerates_elements() {
        let mut b = TpqBuilder::new("article");
        let w = b.wildcard(0, flexpath_tpq::Axis::Child);
        let _ = w;
        let q = b.build();
        let (ctx, model) = setup("<site><article><x/></article><article/></site>", &q);
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        assert_eq!(answers.len(), 1); // only the article with a child
    }

    #[test]
    fn recursive_tags_do_not_match_self() {
        // //parlist[./parlist]: inner parlist must be a *strict* child.
        let mut b = TpqBuilder::new("parlist");
        b.child(0, "parlist");
        let q = b.build();
        let (ctx, model) = setup("<r><parlist><parlist/></parlist></r>", &q);
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].node, ctx.doc().nodes_with_tag_name("parlist")[0]);
    }

    #[test]
    fn attribute_predicates_filter_matches() {
        let q = flexpath_tpq::parse_query("//article[@id = \"a2\"]").unwrap();
        let (ctx, model) = setup(ARTICLES, &q);
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn ks_reflects_contains_holder_score() {
        let q = q1();
        let (ctx, model) = setup(ARTICLES, &q);
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        let eval = ctx.ft_eval(&FtExpr::all_of(&["XML", "streaming"]), &Budget::unlimited());
        // The single answer's ks equals the paragraph's contains score.
        let para = ctx
            .doc()
            .nodes_with_tag_name("paragraph")
            .iter()
            .copied()
            .find(|&p| eval.satisfies(ctx.doc(), p))
            .unwrap();
        assert!((answers[0].score.ks - eval.score(ctx.doc(), para)).abs() < 1e-9);
    }

    #[test]
    fn evaluation_on_xmark_is_consistent_across_schemes() {
        let doc = flexpath_xmark::generate(&flexpath_xmark::XmarkConfig::sized(32 * 1024, 5));
        let ctx = EngineContext::new(doc);
        let q = flexpath_tpq::parse_query("//item[./description/parlist]").unwrap();
        let model = PenaltyModel::new(&q, WeightAssignment::uniform());
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let a = collect(&ctx, &enc, RankingScheme::StructureFirst);
        let b = collect(&ctx, &enc, RankingScheme::Combined);
        // Same answer set regardless of scheme (scheme only reorders).
        assert_eq!(
            a.iter().map(|x| x.node).collect::<Vec<_>>(),
            b.iter().map(|x| x.node).collect::<Vec<_>>()
        );
        assert!(!a.is_empty());
        // Cross-check against the brute-force oracle.
        assert_eq!(
            a.iter().map(|x| x.node).collect::<Vec<_>>(),
            naive_exact_answers(ctx.doc(), &q)
        );
    }

    #[test]
    fn ghost_bits_checked_between_two_ghosts() {
        // Query a/b/c where both b and c get deleted: an answer whose
        // document has the b/c chain should still satisfy the pc(b,c) bit.
        let mut builder = TpqBuilder::new("a");
        let b = builder.child(0, "b");
        let _c = builder.child(b, "c");
        let q = builder.build();
        let (ctx, model) = setup("<r><a><b><c/></b></a><a><b/></a><a/></r>", &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let enc = EncodedQuery::build(&ctx, &model, &q, &steps);
        // Fully relaxed: every a is an answer.
        let answers = collect(&ctx, &enc, RankingScheme::StructureFirst);
        assert_eq!(answers.len(), 3);
        // The a with the full chain satisfies everything.
        let best = answers
            .iter()
            .max_by(|x, y| x.score.ss.total_cmp(&y.score.ss))
            .unwrap();
        assert_eq!(best.node, ctx.doc().nodes_with_tag_name("a")[0]);
        let pc_bc_bit = enc
            .relaxable
            .iter()
            .position(|r| r.pred == Predicate::Pc(Var(2), Var(3)))
            .expect("pc(b,c) must be encoded");
        assert!(best.satisfied & (1 << pc_bc_bit) != 0);
        // Scores are graded: full chain > b only > bare.
        let mut ss: Vec<f64> = answers.iter().map(|a| a.score.ss).collect();
        ss.sort_by(f64::total_cmp);
        assert!(ss[0] < ss[1] && ss[1] < ss[2]);
    }

    #[test]
    fn required_leaf_below_two_ghosts_still_has_to_match() {
        // a/b/c/d with d promoted out (σ twice) before c and b are deleted:
        // the relaxed query is a[.//d]. b and c are ghosts, d survives —
        // so an `a` without any d is no answer, however its ghosts fare.
        let mut builder = TpqBuilder::new("a");
        let b = builder.child(0, "b");
        let c = builder.child(b, "c");
        let _d = builder.child(c, "d");
        let q = builder.build();
        let xml = "<r><a><b><c><d/></c></b></a><a><b/></a><a><b><c/></b></a><a><x><d/></x></a></r>";
        let (ctx, model) = setup(xml, &q);
        // The penalty-ordered schedule passes through that state: find it.
        let steps = build_schedule(&ctx, &model, &q, 64);
        let enc = (0..=steps.len())
            .map(|p| EncodedQuery::build(&ctx, &model, &q, &steps[..p]))
            .find(|enc| {
                enc.specs
                    .iter()
                    .map(|s| s.surviving)
                    .eq([true, false, false, true])
            })
            .expect("the schedule deletes b and c while d survives");
        assert_eq!(enc.relaxed.to_xpath(), "//a[.//d]");

        let nodes = |enc: &EncodedQuery| -> Vec<NodeId> {
            collect(&ctx, enc, RankingScheme::StructureFirst)
                .into_iter()
                .map(|a| a.node)
                .collect()
        };
        let a_nodes = ctx.doc().nodes_with_tag_name("a");
        assert_eq!(nodes(&enc), [a_nodes[0], a_nodes[3]]);
        // The DP must reach that verdict on its own, without the root
        // prefilter having removed the d-less `a`s first.
        let dp_alone: Vec<NodeId> = scan_unfiltered(&ctx, &enc, RankingScheme::StructureFirst)
            .iter()
            .map(|a| a.node)
            .collect();
        assert_eq!(dp_alone, nodes(&enc));
        // Encoded ≡ exact evaluation of the relaxed query ≡ brute force.
        let exact = EncodedQuery::exact(&ctx, &model, &enc.relaxed);
        assert_eq!(nodes(&enc), nodes(&exact));
        assert_eq!(nodes(&enc), naive_exact_answers(ctx.doc(), &enc.relaxed));
    }

    /// The answer stream of the one candidate scan over the *unfiltered*
    /// root list — what `evaluate_encoded` produced before the prefilter.
    fn scan_unfiltered(
        ctx: &EngineContext,
        enc: &EncodedQuery,
        scheme: RankingScheme,
    ) -> Vec<Answer> {
        let (doc, dist) = (ctx.doc(), enc.distinguished_spec());
        let lists: Vec<_> = enc.specs.iter().map(|s| spec_list(doc, s)).collect();
        let roots = everywhere(doc, &lists[ROOT_SPEC]);
        let (outer, roots) = if dist == ROOT_SPEC {
            (roots, Cow::Borrowed(&[][..]))
        } else {
            (everywhere(doc, &lists[dist]), roots)
        };
        let mut out = Vec::new();
        let budget = Budget::unlimited();
        Evaluator::new(doc, enc, &lists, scheme, &budget)
            .scan(&outer, &roots, &mut |a| out.push(a));
        out
    }

    /// `evaluate_encoded` (prefiltered roots) and the unfiltered scan emit
    /// the same answers: node, score bits, satisfied set, level, order.
    fn assert_prefilter_is_invisible(
        ctx: &EngineContext,
        enc: &EncodedQuery,
        what: &str,
    ) -> EvalStats {
        let (filtered, stats) = collect_with(ctx, enc, RankingScheme::Combined);
        let key = |a: &Answer| {
            let (ss, ks) = (a.score.ss.to_bits(), a.score.ks.to_bits());
            (a.node, ss, ks, a.satisfied, a.relaxation_level)
        };
        let unfiltered = scan_unfiltered(ctx, enc, RankingScheme::Combined);
        assert_eq!(
            filtered.iter().map(key).collect::<Vec<_>>(),
            unfiltered.iter().map(key).collect::<Vec<_>>(),
            "{what}"
        );
        stats
    }

    #[test]
    fn prefiltered_roots_leave_the_answer_stream_unchanged_at_every_prefix() {
        let mut roots_dropped = 0u64;
        for case in 0..10 * shapes::SHAPES {
            let (xml, q) = shapes::case(case);
            let (ctx, model) = setup(&xml, &q);
            let steps = build_schedule(&ctx, &model, &q, 64);
            for p in 0..=steps.len() {
                let enc = EncodedQuery::build(&ctx, &model, &q, &steps[..p]);
                let what = format!("case {case}, prefix {p}: {} over {xml}", q.to_xpath());
                let stats = assert_prefilter_is_invisible(&ctx, &enc, &what);
                let root_list = spec_list(ctx.doc(), &enc.specs[ROOT_SPEC]);
                let all = everywhere(ctx.doc(), &root_list).len() as u64;
                assert!(stats.roots <= all, "{what}");
                roots_dropped += all - stats.roots;
            }
        }
        assert!(roots_dropped > 1_000, "the prefilter must have work to do");
    }

    #[test]
    fn prefilter_edge_cases() {
        let exact = |xml: &str, query: &str| {
            let q = flexpath_tpq::parse_query(query).unwrap();
            let (ctx, model) = setup(xml, &q);
            let enc = EncodedQuery::exact(&ctx, &model, &q);
            let stats = assert_prefilter_is_invisible(&ctx, &enc, query);
            (stats.roots, stats.answers)
        };
        // Strict axes on a recursive tag: a node is not its own child or
        // descendant, and the innermost parlist has neither.
        let nested = "<r><parlist><parlist><parlist/></parlist></parlist><parlist/></r>";
        assert_eq!(exact(nested, "//parlist[./parlist]"), (2, 2));
        assert_eq!(exact(nested, "//parlist[.//parlist]"), (2, 2));
        // A required node whose tag the document lacks: no roots at all.
        assert_eq!(exact(nested, "//parlist[./nowhere]"), (0, 0));
        // A wildcard constrains nothing, and neither does what hangs below
        // it; the DP still decides.
        let items = "<r><item><x><b/></x>gold</item><item><b/></item><item>old gold</item></r>";
        assert_eq!(exact(items, "//item[./*[./b]]"), (3, 1));
        assert_eq!(exact(items, "//*[./b]"), (7, 2));
        // `contains` at the root is an or-self test against the matches.
        assert_eq!(exact(items, "//item[.contains(\"gold\")]"), (2, 2));
        // A term the document lacks: an empty `FtEval`, no roots.
        assert_eq!(exact(items, "//item[.contains(\"silver\")]"), (0, 0));
        // Attribute predicates are left to the DP.
        let attrs = "<r><item id=\"1\"><b/></item><item id=\"2\"><b/></item><item id=\"2\"/></r>";
        assert_eq!(exact(attrs, "//item[@id = \"2\" and ./b]"), (2, 1));

        // Distinguished node below the root: only `roots` is filtered, the
        // distinguished candidates are not.
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        b.child(s, "algorithm");
        b.set_distinguished(s);
        let q = b.build();
        let (ctx, model) = setup(ARTICLES, &q);
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let stats = assert_prefilter_is_invisible(&ctx, &enc, "//article/section[./algorithm]");
        assert_eq!((stats.roots, stats.answers), (2, 2)); // a0 and a1, of five articles

        // Hierarchy `alt_tags`: the widened spec's list merges both
        // subtypes, so the sibling subtype still reaches the DP and the
        // article with neither is filtered out.
        let q = flexpath_tpq::parse_query("//article[./section]").unwrap();
        let xml = "<r><article><section/></article><article><chapter/></article><article/></r>";
        let (ctx, model) = setup(xml, &q);
        let mut hierarchy = crate::hierarchy::TagHierarchy::new();
        hierarchy.add_type("division", &["section", "chapter"]);
        let enc = EncodedQuery::build_full(
            &ctx,
            &model,
            &q,
            &[],
            Some(&hierarchy),
            None,
            &Budget::unlimited(),
        );
        let stats = assert_prefilter_is_invisible(&ctx, &enc, "section|chapter");
        assert_eq!((stats.roots, stats.answers), (2, 2));
    }

    /// Answer node ids of the exact encoding of `query` under `hierarchy`.
    fn typed_nodes(
        ctx: &EngineContext,
        query: &str,
        hierarchy: Option<&TagHierarchy>,
    ) -> Vec<NodeId> {
        let q = parse_query(query).unwrap();
        let model = PenaltyModel::new(&q, WeightAssignment::uniform());
        let unlimited = Budget::unlimited();
        let enc = EncodedQuery::build_full(ctx, &model, &q, &[], hierarchy, None, &unlimited);
        collect(ctx, &enc, RankingScheme::StructureFirst)
            .iter()
            .map(|a| a.node)
            .collect()
    }

    #[test]
    fn answers_stream_in_strictly_ascending_node_order() {
        let ascending = |nodes: &[NodeId]| nodes.windows(2).all(|w| w[0] < w[1]);
        for case in 0..10 * shapes::SHAPES {
            let (xml, q) = shapes::case(case);
            let (ctx, model) = setup(&xml, &q);
            let steps = build_schedule(&ctx, &model, &q, 64);
            for p in 0..=steps.len() {
                let enc = EncodedQuery::build(&ctx, &model, &q, &steps[..p]);
                let nodes: Vec<NodeId> = collect(&ctx, &enc, RankingScheme::Combined)
                    .iter()
                    .map(|a| a.node)
                    .collect();
                let what = format!("case {case}, prefix {p}: {} over {xml}", q.to_xpath());
                assert!(ascending(&nodes), "{what}");
            }
        }
        // A distinguished hierarchy-typed node streams its merged list, a
        // distinguished wildcard every element.
        let ctx = EngineContext::new(flexpath_xmldom::parse(ARTICLES).unwrap());
        let mut hierarchy = TagHierarchy::new();
        hierarchy.add_type("block", &["paragraph", "title", "algorithm"]);
        let typed = typed_nodes(&ctx, "//article//paragraph", Some(&hierarchy));
        assert_eq!(typed.len(), 8);
        assert!(ascending(&typed));
        let wildcard = typed_nodes(&ctx, "//article//*", None);
        assert_eq!(wildcard.len(), 14);
        assert!(ascending(&wildcard));
    }

    /// Answers of `template` with `{}` standing for the hierarchy-typed tag
    /// `members[0]` (no members: no hierarchy), checked against the
    /// brute-force reference — for a typed node, the union of the exact
    /// answers with each member substituted.
    fn check_candidates(ctx: &EngineContext, template: &str, members: &[&str]) -> Vec<NodeId> {
        let mut expected: Vec<NodeId> = members
            .iter()
            .chain(members.is_empty().then_some(&""))
            .flat_map(|m| {
                let q = parse_query(&template.replace("{}", m)).unwrap();
                naive_exact_answers(ctx.doc(), &q)
            })
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let mut hierarchy = TagHierarchy::new();
        hierarchy.add_type("type", members);
        let query = template.replace("{}", members.first().unwrap_or(&""));
        let typed = (!members.is_empty()).then_some(&hierarchy);
        let got = typed_nodes(ctx, &query, typed);
        assert_eq!(got, expected, "{template} over {members:?}");
        got
    }

    #[test]
    fn both_candidate_loops_agree_with_the_reference() {
        // Sixty outer `a` anchors: a `b` or `c` part (a child, one level
        // deeper, a nested `a`, or none) at either end of 0–30 `x` fillers
        // of two ids each — subtrees of 0 to 62 ids, 30–34 among them.
        let parts = [
            "<b/>",
            "<x><b/></x>",
            "<c>t</c>",
            "<x><c/></x>",
            "<a><b/></a>",
            "",
        ];
        let mut body = String::new();
        for part in parts {
            for fillers in [0, 6, 15, 16, 30] {
                let filler = "<x>t</x>".repeat(fillers);
                body.push_str(&format!("<a>{part}{filler}</a><a>{filler}{part}</a>"));
            }
        }
        let ctx = EngineContext::new(flexpath_xmldom::parse(&format!("<r>{body}</r>")).unwrap());
        let doc = ctx.doc();
        let spans: Vec<u32> = (doc.nodes_with_tag_name("a").iter())
            .map(|&a| doc.subtree_last(a).0 - a.0)
            .collect();
        assert!(
            spans.iter().any(|&s| s <= SMALL_SUBTREE) && spans.iter().any(|&s| s > SMALL_SUBTREE)
        );
        let cases: [(&str, &[&str]); 12] = [
            // A single tag, child and descendant axis.
            ("//a[./b]", &[]),
            ("//a[.//c]", &[]),
            // Wildcards: never a list, always the id scan.
            ("//a[./*[./b]]", &[]),
            ("//a[.//*[./c]]", &[]),
            // A recursive tag never binds its own anchor.
            ("//a[./a]", &[]),
            ("//a[.//a]", &[]),
            // Hierarchy-typed nodes: one merged list per evaluation.
            ("//a[./{}]", &["b", "c"]),
            ("//a[.//{}]", &["c", "b"]),
            ("//a[./x[./{}]]", &["b", "c"]),
            // The typed tag itself is absent; its sibling still binds.
            ("//a[./{}]", &["q", "c"]),
            // A typed root: the outer list is the merged one.
            ("//{}[./b]", &["a", "x"]),
            ("//{}[./c]", &["x", "a"]),
        ];
        for (template, members) in cases {
            let got = check_candidates(&ctx, template, members);
            assert!(!got.is_empty(), "{template} over {members:?}");
        }
    }

    #[test]
    fn candidate_edge_cases_agree_with_the_reference() {
        // Children against descendants.
        let ctx = EngineContext::new(
            flexpath_xmldom::parse("<r><a><b/><c><b/><b/></c></a><a><c><b/></c></a></r>").unwrap(),
        );
        assert_eq!(check_candidates(&ctx, "//a[./b]", &[]).len(), 1);
        assert_eq!(check_candidates(&ctx, "//a[.//b]", &[]).len(), 2);
        assert_eq!(check_candidates(&ctx, "//a/c/b", &[]).len(), 3);
        // A wildcard covers every element below its anchor, not the anchor.
        let ctx =
            EngineContext::new(flexpath_xmldom::parse("<r><a><b/><c><d/>t</c></a></r>").unwrap());
        assert_eq!(check_candidates(&ctx, "//a//*", &[]).len(), 3);
        assert_eq!(check_candidates(&ctx, "//a/*", &[]).len(), 2);
        // A recursive tag never binds its own anchor.
        let ctx = EngineContext::new(flexpath_xmldom::parse("<r><p><p/></p></r>").unwrap());
        assert_eq!(check_candidates(&ctx, "//p[.//p]", &[]).len(), 1);
        assert_eq!(check_candidates(&ctx, "//p//p", &[]).len(), 1);
    }
}
