//! Randomized (seeded, deterministic) tests for the document substrate:
//! parse/serialize round trips, interval-encoding invariants, statistics
//! consistency against naive recomputation, and every derived link and
//! region label against an independent reference built from the tree.

use flexpath_xmldom::{parse, to_xml_string, DocStats, Document, DocumentBuilder, NodeId};

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

/// A random element tree rendered through the builder.
#[derive(Debug, Clone)]
enum Node {
    Element { tag: usize, children: Vec<Node> },
    Text(String),
}

const TAGS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

fn random_tree(rng: &mut Rng, depth: u32) -> Node {
    if depth >= 5 || rng.below(4) == 0 {
        return if rng.below(2) == 0 {
            let len = 1 + rng.below(12);
            let text: String = (0..len)
                .map(|i| {
                    if i > 0 && rng.below(5) == 0 {
                        ' '
                    } else {
                        (b'a' + rng.below(26) as u8) as char
                    }
                })
                .collect();
            // First character is always a letter, so the parser's
            // whitespace-dropping never erases the node.
            Node::Text(text)
        } else {
            Node::Element {
                tag: rng.below(TAGS.len()),
                children: vec![],
            }
        };
    }
    let children = (0..rng.below(5))
        .map(|_| random_tree(rng, depth + 1))
        .collect();
    Node::Element {
        tag: rng.below(TAGS.len()),
        children,
    }
}

/// Attributes an element with tag index `tag` gets: `tag % 3` of them.
fn attributes_of(tag: usize) -> Vec<(String, String)> {
    (0..tag % 3)
        .map(|i| (format!("k{i}"), format!("v{tag}{i}")))
        .collect()
}

fn build(node: &Node, b: &mut DocumentBuilder) {
    match node {
        Node::Text(t) => b.text(t),
        Node::Element { tag, children } => {
            b.start_element(TAGS[*tag]);
            for (name, value) in attributes_of(*tag) {
                b.attribute(&name, &value);
            }
            for c in children {
                build(c, b);
            }
            b.end_element();
        }
    }
}

/// `tree` as the root of a document: a text is wrapped in an element.
fn rooted(tree: Node) -> Node {
    match tree {
        Node::Element { .. } => tree,
        Node::Text(_) => Node::Element {
            tag: 0,
            children: vec![tree],
        },
    }
}

fn doc_from(root: &Node) -> Document {
    let mut b = DocumentBuilder::new();
    build(root, &mut b);
    b.finish().unwrap()
}

/// 96 deterministic random trees.
fn random_trees(seed: u64) -> impl Iterator<Item = Node> {
    (0..96u64).map(move |case| {
        let mut rng = Rng(seed ^ case.wrapping_mul(0x0101_0101_0101_0101));
        rooted(random_tree(&mut rng, 0))
    })
}

/// Runs `body` over 96 deterministic random documents.
fn for_docs(seed: u64, mut body: impl FnMut(&Document)) {
    for tree in random_trees(seed) {
        body(&doc_from(&tree));
    }
}

#[test]
fn serialize_parse_round_trip() {
    for_docs(1, |doc| {
        let xml = to_xml_string(doc);
        let reparsed = parse(&xml).unwrap();
        assert_eq!(to_xml_string(&reparsed), xml);
        // Text content is preserved exactly. (The parser drops
        // whitespace-only text nodes by default, but the generator only
        // produces text starting with a letter.)
        assert_eq!(
            reparsed.subtree_text(reparsed.root_element()),
            doc.subtree_text(doc.root_element())
        );
    });
}

#[test]
fn interval_labels_are_a_proper_nesting() {
    for_docs(2, |doc| {
        for a in doc.all_nodes() {
            assert!(doc.start(a) < doc.end(a));
            for b in doc.all_nodes() {
                if a == b {
                    continue;
                }
                let (sa, ea) = (doc.start(a), doc.end(a));
                let (sb, eb) = (doc.start(b), doc.end(b));
                // Intervals either nest or are disjoint.
                let nested = (sa < sb && eb < ea) || (sb < sa && ea < eb);
                let disjoint = ea < sb || eb < sa;
                assert!(nested || disjoint, "{a:?} and {b:?} overlap improperly");
            }
        }
    });
}

#[test]
fn parent_links_agree_with_intervals() {
    for_docs(3, |doc| {
        for n in doc.all_nodes() {
            match doc.parent(n) {
                Some(p) => {
                    assert!(doc.is_parent(p, n));
                    assert!(doc.is_ancestor(p, n));
                }
                None => assert_eq!(n, doc.root_element()),
            }
            // children() yields exactly the nodes whose parent is n.
            for c in doc.children(n) {
                assert_eq!(doc.parent(c), Some(n));
            }
        }
    });
}

#[test]
fn descendant_iteration_matches_interval_test() {
    for_docs(4, |doc| {
        for n in doc.all_nodes() {
            let via_iter: Vec<_> = doc.descendants(n).collect();
            let via_test: Vec<_> = doc.all_nodes().filter(|&m| doc.is_ancestor(n, m)).collect();
            assert_eq!(via_iter, via_test);
        }
    });
}

#[test]
fn stats_match_naive_counts() {
    for_docs(5, |doc| {
        let stats = DocStats::compute(doc);
        let elements: Vec<_> = doc.elements().collect();
        assert_eq!(stats.element_total(), elements.len() as u64);
        let syms: Vec<_> = doc.symbols().iter().map(|(s, _)| s).collect();
        for &t1 in &syms {
            let count = elements.iter().filter(|&&e| doc.tag(e) == Some(t1)).count() as u64;
            assert_eq!(stats.tag_count(t1), count);
            for &t2 in &syms {
                let pc = elements
                    .iter()
                    .flat_map(|&p| doc.children(p).map(move |c| (p, c)))
                    .filter(|&(p, c)| doc.tag(p) == Some(t1) && doc.tag(c) == Some(t2))
                    .count() as u64;
                let doc_ref = &doc;
                let ad = elements
                    .iter()
                    .flat_map(|&a| {
                        elements
                            .iter()
                            .filter(move |&&d| doc_ref.is_ancestor(a, d))
                            .map(move |&d| (a, d))
                    })
                    .filter(|&(a, d)| doc.tag(a) == Some(t1) && doc.tag(d) == Some(t2))
                    .count() as u64;
                assert_eq!(stats.pc_count(t1, t2), pc, "pc({t1:?},{t2:?})");
                assert_eq!(stats.ad_count(t1, t2), ad, "ad({t1:?},{t2:?})");
            }
        }
    });
}

#[test]
fn subtree_last_is_the_maximal_descendant() {
    for_docs(6, |doc| {
        for n in doc.all_nodes() {
            let last = doc.subtree_last(n);
            let max_desc = doc
                .all_nodes()
                .filter(|&m| doc.is_ancestor(n, m))
                .max()
                .unwrap_or(n);
            assert_eq!(last, max_desc);
        }
    });
}

// ------------------------------------------------------------- referee

/// What the tree says about each node, in preorder, computed without the
/// document: `start`/`end` from a counter ticking at every open and every
/// close, parents, child lists and levels from the recursion.
#[derive(Default)]
struct Reference {
    start: Vec<u32>,
    end: Vec<u32>,
    level: Vec<u32>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    attrs: Vec<Vec<(String, String)>>,
    text: Vec<Option<String>>,
}

impl Reference {
    fn of(root: &Node) -> Reference {
        let mut r = Reference::default();
        let mut counter = 0;
        r.visit(root, None, 0, &mut counter);
        r
    }

    fn visit(&mut self, node: &Node, parent: Option<usize>, level: u32, counter: &mut u32) {
        let id = self.start.len();
        self.start.push(*counter);
        *counter += 1;
        self.end.push(0);
        self.level.push(level);
        self.parent.push(parent);
        self.children.push(Vec::new());
        if let Some(p) = parent {
            self.children[p].push(id);
        }
        match node {
            Node::Text(t) => {
                self.attrs.push(Vec::new());
                self.text.push(Some(t.clone()));
            }
            Node::Element { tag, children } => {
                self.attrs.push(attributes_of(*tag));
                self.text.push(None);
                for c in children {
                    self.visit(c, Some(id), level + 1, counter);
                }
            }
        }
        self.end[id] = *counter;
        *counter += 1;
    }
}

/// Every accessor of the document built from `tree` against the reference,
/// and the two O(1) tests over all pairs against the region-label
/// definitions.
fn referee(tree: &Node) {
    let doc = doc_from(tree);
    let r = Reference::of(tree);
    assert_eq!(doc.node_count(), r.start.len());
    let id = |i: usize| NodeId(i as u32);
    for n in 0..r.start.len() {
        let node = id(n);
        assert_eq!(doc.start(node), r.start[n], "start of {node}");
        assert_eq!(doc.end(node), r.end[n], "end of {node}");
        assert_eq!(doc.level(node), r.level[n], "level of {node}");
        assert_eq!(doc.parent(node), r.parent[n].map(id), "parent of {node}");
        assert_eq!(
            doc.first_child(node),
            r.children[n].first().map(|&c| id(c)),
            "first child of {node}"
        );
        let next_sibling = r.parent[n].and_then(|p| {
            let siblings = &r.children[p];
            let at = siblings.iter().position(|&s| s == n).unwrap();
            siblings.get(at + 1).map(|&s| id(s))
        });
        assert_eq!(
            doc.next_sibling(node),
            next_sibling,
            "next sibling of {node}"
        );
        assert_eq!(doc.text_content(node), r.text[n].as_deref());
        let attrs: Vec<(String, String)> = doc
            .attributes(node)
            .iter()
            .map(|(name, value)| (doc.symbols().name(*name).to_string(), value.to_string()))
            .collect();
        assert_eq!(attrs, r.attrs[n], "attributes of {node}");
    }
    for a in 0..r.start.len() {
        for b in 0..r.start.len() {
            let contains = r.start[a] < r.start[b] && r.end[b] < r.end[a];
            assert_eq!(
                doc.is_ancestor(id(a), id(b)),
                contains,
                "is_ancestor({a}, {b})"
            );
            let parent = contains && r.level[b] == r.level[a] + 1;
            assert_eq!(doc.is_parent(id(a), id(b)), parent, "is_parent({a}, {b})");
        }
    }
}

#[test]
fn derived_links_and_labels_match_the_reference() {
    for tree in random_trees(7) {
        referee(&tree);
    }
}

#[test]
fn derived_links_and_labels_match_the_reference_on_extreme_shapes() {
    let text = |t: &str| Node::Text(t.to_string());
    let leaf = |tag| Node::Element {
        tag,
        children: vec![],
    };
    // One tag nested 12 deep, a text beside every level and at the bottom.
    let mut deep = text("bottom");
    for level in 0..12 {
        deep = Node::Element {
            tag: 2,
            children: vec![text(&format!("t{level}")), deep, leaf(1)],
        };
    }
    referee(&deep);
    // 200 children under one root: elements with and without children and
    // attributes, and text leaves, adjacent texts included.
    let fan = Node::Element {
        tag: 5,
        children: (0..200)
            .map(|i| match i % 4 {
                0 | 1 => text(&format!("w{i}")),
                2 => leaf(i % TAGS.len()),
                _ => Node::Element {
                    tag: i % TAGS.len(),
                    children: vec![text("x"), leaf(4)],
                },
            })
            .collect(),
    };
    referee(&fan);
    // A root alone.
    referee(&leaf(0));
}
