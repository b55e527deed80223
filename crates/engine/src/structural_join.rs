//! Stack-Tree structural joins (Al-Khalifa et al., ICDE 2002) — the join
//! primitive cited by the paper's implementation section (5.2.1: "we use the
//! structural join algorithm given in \[1\]; this algorithm requires input
//! lists to be sorted on node identifiers").
//!
//! The pair join takes two document-ordered node lists and emits all
//! (ancestor, descendant) pairs in a single merge pass with an explicit
//! stack, O(|A| + |D| + |output|). Node ids are document order, so the
//! merge compares ids where the region-label formulation compares
//! `start`s, and "`a` ended before `x` starts" is `subtree_last(a) < x`:
//! one load per test.
//!
//! The query path does not enumerate pairs — [`crate::exec`] scores each
//! answer with a best-embedding DP — but it asks the same lists the
//! cheaper *existence* question first: `retain_containing` and
//! `retain_parents_of` are the semijoin halves of the ancestor-descendant
//! and parent-child joins (keep the ancestors / parents that have at least
//! one partner), budgeted, and share the galloping cursor (`gallop`) with
//! the pair join.

use crate::metrics::{self, Counter};
use flexpath_ftsearch::Budget;
use flexpath_xmldom::{Document, NodeId};
use std::borrow::Cow;

/// All pairs `(a, d)` with `a ∈ ancestors`, `d ∈ descendants`, and `a` a
/// strict ancestor of `d`. Output is sorted by `(d, a)` grouped per
/// descendant in stack order (outermost ancestor first).
///
/// Descendants that provably produce no pairs are skipped by **galloping**
/// (exponential probe + binary search) rather than visited one at a time:
/// whenever the stack is empty, every descendant before the next
/// ancestor is output-free, so the merge jumps straight
/// to the first viable descendant in `O(log gap)`. Skipped counts surface
/// as `engine.join.skipped`; the emitted pair stream is identical.
///
/// The pair join takes no [`Budget`]: the query path evaluates through
/// [`crate::exec`], and this primitive's callers (`flexpath-bench`'s
/// data-relaxation baseline and micro-benchmark) run unbudgeted.
pub fn stack_tree_desc(
    doc: &Document,
    ancestors: &[NodeId],
    descendants: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    let mut ai = 0usize;
    let mut di = 0usize;
    let mut skipped = 0u64;
    while di < descendants.len() {
        if stack.is_empty() {
            // No open ancestor interval: only a future ancestor can cover
            // the descendants ahead.
            if ai >= ancestors.len() {
                skipped += (descendants.len() - di) as u64;
                break;
            }
            let next = ancestors[ai];
            if descendants[di] < next {
                let jump = gallop(&descendants[di..], |&n| n < next);
                skipped += jump as u64;
                di += jump;
                if di >= descendants.len() {
                    break;
                }
            }
        }
        let d = descendants[di];
        // Push every ancestor-candidate that starts before `d` (`ai` is a
        // monotone cursor — this loop visits each ancestor once across the
        // whole join).
        while ai < ancestors.len() && ancestors[ai] < d {
            let a = ancestors[ai];
            // Pop candidates that ended before this one starts.
            while stack.pop_if(|top| doc.subtree_last(*top) < a).is_some() {}
            stack.push(a);
            ai += 1;
        }
        // Pop candidates that ended before `d` starts.
        while stack.pop_if(|top| doc.subtree_last(*top) < d).is_some() {}
        // Everything left on the stack contains `d`.
        for &a in stack.iter() {
            debug_assert!(doc.is_ancestor(a, d));
            out.push((a, d));
        }
        di += 1;
    }
    let reg = metrics::global();
    reg.add(Counter::JoinCalls, 1);
    reg.add(Counter::JoinPairs, out.len() as u64);
    reg.add(Counter::JoinSkipped, skipped);
    out
}

/// Number of leading `items` for which `before` holds, found by galloping:
/// exponential probe to bracket the boundary, then binary search inside
/// the bracket. `before` must be monotone over the (sorted) slice — true
/// for a prefix, false after. `O(log k)` for a skip of `k` — cheap for
/// short hops, still logarithmic for huge ones.
pub(crate) fn gallop<T>(items: &[T], mut before: impl FnMut(&T) -> bool) -> usize {
    let mut probe = 1usize;
    while probe < items.len() && before(&items[probe]) {
        probe <<= 1;
    }
    let lo = probe >> 1;
    let hi = probe.min(items.len());
    lo + items[lo..hi].partition_point(before)
}

/// Filters a document-ordered node set in place. A set nothing has
/// filtered yet is a borrowed tag list; the first filter makes the (smaller)
/// owned copy.
fn retain(set: &mut Cow<'_, [NodeId]>, mut keep: impl FnMut(NodeId) -> bool) {
    match set {
        Cow::Borrowed(all) => *set = all.iter().copied().filter(|&n| keep(n)).collect(),
        Cow::Owned(kept) => kept.retain(|&n| keep(n)),
    }
}

/// Descendant-axis semijoin: keeps the nodes of `set` whose subtree holds
/// a node of `below` (document-ordered) — a strict descendant, or with
/// `or_self` the node itself too. One forward
/// pass over `set` with a galloping cursor into `below`:
/// `O(|set| · log(|below| / |set|))`.
///
/// Checkpoints `budget` per node; once it trips nothing more is kept and
/// the caller must discard the set ([`Budget::tripped`]).
pub(crate) fn retain_containing(
    doc: &Document,
    budget: &Budget,
    set: &mut Cow<'_, [NodeId]>,
    below: &[NodeId],
    or_self: bool,
) {
    let mut cursor = 0usize;
    retain(set, |x| {
        if budget.checkpoint() {
            return false;
        }
        // `set` ascends, so the first entry past `x` only moves forward.
        cursor += gallop(&below[cursor..], |&b| b < x || (!or_self && b == x));
        below.get(cursor).is_some_and(|&b| b <= doc.subtree_last(x))
    });
}

/// Child-axis semijoin: keeps the nodes of `parents` that are the parent of
/// some node in `children` (both document-ordered). Driven from the
/// smaller side: few children mark their parents in a node bitset
/// (`O(|children| + |parents|)`); otherwise each parent gallops to its
/// subtree's slice of `children` and stops at its first child there, so a
/// selective parent list never pays a pass over a large child list.
///
/// Budget contract as for [`retain_containing`].
pub(crate) fn retain_parents_of(
    doc: &Document,
    budget: &Budget,
    parents: &mut Cow<'_, [NodeId]>,
    children: &[NodeId],
) {
    if children.len() < parents.len() {
        let mut is_parent = vec![0u64; doc.node_count().div_ceil(64)];
        for &c in children {
            if budget.checkpoint() {
                break;
            }
            if let Some(p) = doc.parent(c) {
                is_parent[p.index() / 64] |= 1 << (p.index() % 64);
            }
        }
        retain(parents, |p| {
            !budget.checkpoint() && is_parent[p.index() / 64] >> (p.index() % 64) & 1 == 1
        });
    } else {
        let mut cursor = 0usize;
        retain(parents, |x| {
            cursor += gallop(&children[cursor..], |&c| c <= x);
            let last = doc.subtree_last(x);
            for &c in &children[cursor..] {
                if c > last || budget.checkpoint() {
                    break;
                }
                if doc.parent(c) == Some(x) {
                    return true;
                }
            }
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_xmldom::parse;

    /// Brute-force oracle.
    fn naive_ad(doc: &Document, a: &[NodeId], d: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for &x in a {
            for &y in d {
                if doc.is_ancestor(x, y) {
                    out.push((x, y));
                }
            }
        }
        out.sort();
        out
    }

    fn sorted(mut v: Vec<(NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
        v.sort();
        v
    }

    /// The join's documented emission order: by descendant, then outermost
    /// ancestor first.
    fn in_join_order(mut v: Vec<(NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
        v.sort_by_key(|&(a, d)| (d, a));
        v
    }

    #[test]
    fn matches_naive_on_nested_document() {
        let doc = parse("<a><b><a><b/><c><b/></c></a></b><b/><c><a><b/></a></c></a>").unwrap();
        let a_list = doc.nodes_with_tag_name("a").to_vec();
        let b_list = doc.nodes_with_tag_name("b").to_vec();
        assert_eq!(
            sorted(stack_tree_desc(&doc, &a_list, &b_list)),
            naive_ad(&doc, &a_list, &b_list)
        );
    }

    #[test]
    fn galloping_skips_output_free_descendants() {
        // A long output-free prefix (and suffix) of descendants: the merge
        // gallops over them, and the emitted pairs are unchanged.
        let doc = parse("<r><b/><b/><b/><b/><b/><b/><b/><b/><a><b/></a><b/><b/><b/></r>").unwrap();
        let a_list = doc.nodes_with_tag_name("a").to_vec();
        let b_list = doc.nodes_with_tag_name("b").to_vec();
        let out = stack_tree_desc(&doc, &a_list, &b_list);
        assert_eq!(sorted(out), naive_ad(&doc, &a_list, &b_list));
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let doc = parse("<a><b/></a>").unwrap();
        let b_list = doc.nodes_with_tag_name("b").to_vec();
        assert!(stack_tree_desc(&doc, &[], &b_list).is_empty());
        assert!(stack_tree_desc(&doc, &b_list, &[]).is_empty());
    }

    #[test]
    fn self_join_of_recursive_tags() {
        // parlist-in-parlist recursion shape.
        let doc = parse("<p><p><p/></p><p/></p>").unwrap();
        let ps = doc.nodes_with_tag_name("p").to_vec();
        let ad = sorted(stack_tree_desc(&doc, &ps, &ps));
        assert_eq!(ad, naive_ad(&doc, &ps, &ps));
        assert_eq!(ad.len(), 4); // root→3 inner… root contains 3, middle contains 1.
    }

    #[test]
    fn output_is_grouped_by_descendant_in_document_order() {
        let doc = parse("<a><a><b/></a><b/></a>").unwrap();
        let a_list = doc.nodes_with_tag_name("a").to_vec();
        let b_list = doc.nodes_with_tag_name("b").to_vec();
        let out = stack_tree_desc(&doc, &a_list, &b_list);
        // Descendants appear in document order.
        let ds: Vec<NodeId> = out.iter().map(|&(_, d)| d).collect();
        let mut sorted_ds = ds.clone();
        sorted_ds.sort();
        assert_eq!(ds, sorted_ds);
    }

    #[test]
    fn agrees_with_naive_on_generated_corpus() {
        let cfg = flexpath_xmark::XmarkConfig::sized(8 * 1024, 77);
        let doc = flexpath_xmark::generate(&cfg);
        for (anc, desc) in [
            ("item", "text"),
            ("description", "parlist"),
            ("parlist", "parlist"),
            ("mailbox", "text"),
        ] {
            let a_list = doc.nodes_with_tag_name(anc).to_vec();
            let d_list = doc.nodes_with_tag_name(desc).to_vec();
            assert_eq!(
                stack_tree_desc(&doc, &a_list, &d_list),
                in_join_order(naive_ad(&doc, &a_list, &d_list)),
                "mismatch for ({anc}, {desc})"
            );
        }
    }

    #[test]
    fn gallop_is_the_partition_point() {
        let items: Vec<u32> = (0..100).map(|i| i * 3).collect();
        for bound in [0, 1, 3, 50, 149, 297, 298, 1000] {
            for from in [0, 1, 7, 99, 100] {
                assert_eq!(
                    gallop(&items[from..], |&v| v < bound),
                    items[from..].partition_point(|&v| v < bound),
                    "bound {bound} from {from}"
                );
            }
        }
    }

    /// Both semijoins against their definitions, on every ordered tag pair
    /// of a generated corpus — which exercises both directions of the
    /// child-axis join (few children / many children) and recursive tags.
    #[test]
    fn semijoins_keep_exactly_the_nodes_with_a_partner() {
        let doc = flexpath_xmark::generate(&flexpath_xmark::XmarkConfig::sized(24 * 1024, 3));
        let tags = [
            "item", "text", "parlist", "listitem", "name", "bold", "category",
        ];
        let unlimited = Budget::unlimited();
        let mut directions = [0usize; 2];
        for outer in tags {
            for inner in tags {
                let (a, d) = (
                    doc.nodes_with_tag_name(outer),
                    doc.nodes_with_tag_name(inner),
                );
                directions[usize::from(d.len() < a.len())] += 1;

                let mut parents = Cow::Borrowed(a);
                retain_parents_of(&doc, &unlimited, &mut parents, d);
                let expect: Vec<NodeId> = a
                    .iter()
                    .copied()
                    .filter(|&x| d.iter().any(|&c| doc.parent(c) == Some(x)))
                    .collect();
                assert_eq!(parents.as_ref(), expect, "{outer}[./{inner}]");

                for or_self in [false, true] {
                    let mut ancestors = Cow::Borrowed(a);
                    retain_containing(&doc, &unlimited, &mut ancestors, d, or_self);
                    let expect: Vec<NodeId> = a
                        .iter()
                        .copied()
                        .filter(|&x| {
                            d.iter()
                                .any(|&c| doc.is_ancestor(x, c) || (or_self && c == x))
                        })
                        .collect();
                    assert_eq!(ancestors.as_ref(), expect, "{outer}[.//{inner}] {or_self}");
                    // Filtering an already-owned set takes the other arm.
                    retain_containing(&doc, &unlimited, &mut ancestors, d, or_self);
                    assert_eq!(ancestors.as_ref(), expect);
                }
            }
        }
        assert!(directions[0] > 0 && directions[1] > 0);
    }

    #[test]
    fn a_tripped_budget_keeps_nothing() {
        let doc = parse("<r><a><b/></a><a><b/></a><a/></r>").unwrap();
        let (a, b) = (doc.nodes_with_tag_name("a"), doc.nodes_with_tag_name("b"));
        let cancel = flexpath_ftsearch::CancelToken::new();
        cancel.cancel();
        let budget = Budget::new(None, Some(cancel), u64::MAX, u64::MAX);
        // |b| < |a|: child-driven; |a| ≥ |b| reversed: parent-driven.
        for (parents, children) in [(a, b), (b, a)] {
            let mut set = Cow::Borrowed(parents);
            retain_parents_of(&doc, &budget, &mut set, children);
            assert!(set.is_empty());
        }
        let mut set = Cow::Borrowed(a);
        retain_containing(&doc, &budget, &mut set, b, false);
        assert!(set.is_empty());
        assert!(budget.tripped().is_some());
    }
}
