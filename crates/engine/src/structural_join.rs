//! Stack-Tree structural joins (Al-Khalifa et al., ICDE 2002) — the join
//! primitive cited by the paper's implementation section (5.2.1: "we use the
//! structural join algorithm given in \[1\]; this algorithm requires input
//! lists to be sorted on node identifiers").
//!
//! Both variants take two document-ordered node lists and emit all
//! (ancestor, descendant) — or (parent, child) — pairs in a single merge
//! pass with an explicit stack, O(|A| + |D| + |output|).

use flexpath_xmldom::{Document, NodeId};

/// All pairs `(a, d)` with `a ∈ ancestors`, `d ∈ descendants`, and `a` a
/// strict ancestor of `d`. Output is sorted by `(d, a)` grouped per
/// descendant in stack order (outermost ancestor first).
///
/// Descendants that provably produce no pairs are skipped by **galloping**
/// (exponential probe + binary search) rather than visited one at a time:
/// whenever the stack is empty, every descendant before the next
/// ancestor's start position is output-free, so the merge jumps straight
/// to the first viable descendant in `O(log gap)`. Skipped counts surface
/// as `engine.join.skipped`; the emitted pair stream is identical.
///
/// The join takes no [`Budget`](flexpath_ftsearch::Budget): the query path
/// evaluates through [`crate::exec`], and this primitive's callers (the
/// reference baseline and the micro-benchmarks) run unbudgeted.
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
            let next_start = doc.start(ancestors[ai]);
            if doc.start(descendants[di]) < next_start {
                let jump = gallop_below(doc, &descendants[di..], next_start);
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
        while ai < ancestors.len() && doc.start(ancestors[ai]) < doc.start(d) {
            let a = ancestors[ai];
            // Pop candidates that ended before this one starts.
            while let Some(&top) = stack.last() {
                if doc.end(top) < doc.start(a) {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(a);
            ai += 1;
        }
        // Pop candidates that ended before `d` starts.
        while let Some(&top) = stack.last() {
            if doc.end(top) < doc.start(d) {
                stack.pop();
            } else {
                break;
            }
        }
        // Everything left on the stack contains `d`.
        for &a in stack.iter() {
            debug_assert!(doc.is_ancestor(a, d));
            out.push((a, d));
        }
        di += 1;
    }
    let reg = crate::metrics::global();
    reg.add("engine.join.calls", 1);
    reg.add("engine.join.pairs", out.len() as u64);
    reg.add("engine.join.skipped", skipped);
    out
}

/// Number of leading `nodes` whose start position is `< bound`, found by
/// galloping: exponential probe to bracket the boundary, then binary
/// search inside the bracket. `O(log k)` for a skip of `k` — cheap for
/// short hops, still logarithmic for huge ones.
fn gallop_below(doc: &Document, nodes: &[NodeId], bound: u32) -> usize {
    let mut probe = 1usize;
    while probe < nodes.len() && doc.start(nodes[probe]) < bound {
        probe <<= 1;
    }
    let lo = probe >> 1;
    let hi = probe.min(nodes.len());
    lo + nodes[lo..hi].partition_point(|&n| doc.start(n) < bound)
}

/// All pairs `(p, c)` with `p ∈ parents`, `c ∈ children`, and `p` the
/// *parent* of `c` — the pc variant (level filter on top of the stack join).
pub fn stack_tree_anc(
    doc: &Document,
    parents: &[NodeId],
    children: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    stack_tree_desc(doc, parents, children)
        .into_iter()
        .filter(|&(p, c)| doc.level(c) == doc.level(p) + 1)
        .collect()
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
    fn pc_variant_filters_to_direct_children() {
        let doc = parse("<a><b/><c><b/></c></a>").unwrap();
        let a_list = doc.nodes_with_tag_name("a").to_vec();
        let b_list = doc.nodes_with_tag_name("b").to_vec();
        let pc = stack_tree_anc(&doc, &a_list, &b_list);
        assert_eq!(pc.len(), 1);
        assert!(doc.is_parent(pc[0].0, pc[0].1));
        let ad = stack_tree_desc(&doc, &a_list, &b_list);
        assert_eq!(ad.len(), 2);
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
                sorted(stack_tree_desc(&doc, &a_list, &d_list)),
                naive_ad(&doc, &a_list, &d_list),
                "mismatch for ({anc}, {desc})"
            );
        }
    }
}
