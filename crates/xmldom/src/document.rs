//! The [`Document`]: nodes as five dense `u32` columns.
//!
//! Nodes are stored in document (pre-)order, so a node's id *is* its
//! document-order rank. Per node the document keeps a label (tag symbol or
//! text ordinal), the parent id, the level, the id of the last node in its
//! subtree, and the node's end offset into the attribute list — 20 bytes.
//! Everything else is derived in O(1) from those columns and the preorder
//! ids: the first child is `n + 1` when the subtree is not just `n`, the
//! next sibling is `subtree_last(n) + 1` when the parent's subtree reaches
//! it, and the classic `(start, end, level)` region label of structural
//! joins is what a counter ticking at every open and every close would
//! have stamped:
//!
//! * `start(n) = 2n − level(n)`, `end(n) = 2·subtree_last(n) + 1 − level(n)`;
//! * `a` is an **ancestor** of `b`  iff  `start(a) < start(b) && end(b) < end(a)`
//!   iff  `a < b <= subtree_last(a)`;
//! * `a` is the **parent** of `b`   iff  the above and `level(b) == level(a) + 1`
//!   iff  `parent(b) == a`.
//!
//! Both tests are O(1) and one or two loads, which is what makes the FleXPath
//! join plans cheap to evaluate and the `#pc`/`#ad` statistics cheap to
//! collect.

use crate::symbols::{Sym, SymbolTable};
use std::fmt;

/// Label bit of a text node: `labels[n]` is an element's tag symbol id, or
/// `TEXT_BIT | ordinal` for a text node. Symbol ids and text ordinals are
/// therefore below 2³¹ (see [`NodeKind::label`]).
pub(crate) const TEXT_BIT: u32 = 1 << 31;

/// The root's parent entry, and `Option<NodeId>::None` on the wire.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// A node's position in the document's columns. Ids are dense and assigned
/// in document order: `a.0 < b.0` iff `a` precedes `b` in document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Column index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Discriminates element nodes from text nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with an interned tag name.
    Element {
        /// Interned tag name.
        tag: Sym,
    },
    /// A text node; `text` indexes the document's text arena.
    Text {
        /// Ordinal of this text among the document's text nodes (the
        /// arena slot [`Document::text_content`] reads).
        text: u32,
    },
}

impl NodeKind {
    /// This kind's `labels` entry, or `None` if its symbol id or text
    /// ordinal has [`TEXT_BIT`] set and so cannot be told from the other
    /// kind.
    pub(crate) fn label(self) -> Option<u32> {
        match self {
            NodeKind::Element { tag } => (tag.0 & TEXT_BIT == 0).then_some(tag.0),
            NodeKind::Text { text } => (text & TEXT_BIT == 0).then_some(text | TEXT_BIT),
        }
    }

    fn of_label(label: u32) -> NodeKind {
        if label & TEXT_BIT == 0 {
            NodeKind::Element { tag: Sym(label) }
        } else {
            NodeKind::Text {
                text: label & !TEXT_BIT,
            }
        }
    }
}

/// An immutable XML document: the node columns, text arena, attributes,
/// interned names, and per-tag node lists sorted in document order. Node 0
/// is the root element.
///
/// Construct one with [`crate::parse`] or [`crate::DocumentBuilder`].
#[derive(Debug, Clone)]
pub struct Document {
    /// Per node: its tag symbol id, or `TEXT_BIT | ordinal` for a text.
    pub(crate) labels: Vec<u32>,
    /// Per node: the parent's id; [`NO_NODE`] for the root.
    pub(crate) parents: Vec<u32>,
    /// Per node: its depth; the root has level 0.
    pub(crate) levels: Vec<u32>,
    /// Per node: id of the last node in its subtree (itself for leaves).
    pub(crate) subtree_last: Vec<NodeId>,
    /// `node_count() + 1` offsets into `attrs`: node `n`'s attributes are
    /// `attrs[attr_offsets[n]..attr_offsets[n + 1]]`.
    pub(crate) attr_offsets: Vec<u32>,
    pub(crate) texts: TextArena,
    pub(crate) attrs: Vec<(Sym, Box<str>)>,
    pub(crate) symbols: SymbolTable,
    /// Per tag, indexed by [`Sym::index`]: its elements in document order.
    /// Symbols that name no element (attribute names) hold an empty list.
    pub(crate) tag_index: Vec<Vec<NodeId>>,
}

/// Every text node's content in one `String`, in text-ordinal order, with
/// an offset column: text `i` is `bytes[offsets[i]..offsets[i + 1]]`. One
/// allocation for all texts instead of one per text node.
///
/// Offsets are `u32`, so the arena holds at most `u32::MAX` bytes;
/// [`TextArena::push`] refuses to grow past that rather than wrap.
#[derive(Debug, Clone)]
pub(crate) struct TextArena {
    bytes: String,
    /// `len() + 1` entries, starting at 0; each a char boundary of `bytes`.
    offsets: Vec<u32>,
}

impl TextArena {
    /// An empty arena with room for `bytes` bytes of text in `texts` texts.
    pub(crate) fn with_capacity(bytes: usize, texts: usize) -> Self {
        let mut offsets = Vec::with_capacity(texts + 1);
        offsets.push(0);
        TextArena {
            bytes: String::with_capacity(bytes),
            offsets,
        }
    }

    /// An arena over `bytes` cut at `offsets`, which the caller has checked:
    /// `0` first, then ascending char boundaries, the last `bytes.len()`.
    pub(crate) fn from_parts(bytes: String, offsets: Vec<u32>) -> Self {
        TextArena { bytes, offsets }
    }

    /// Every text back to back, and each text's end offset in it.
    pub(crate) fn parts(&self) -> (&str, &[u32]) {
        (&self.bytes, self.offsets.get(1..).unwrap_or(&[]))
    }

    /// Appends `text`, returning its ordinal, or `None` (arena unchanged)
    /// if the arena would pass `u32::MAX` bytes.
    pub(crate) fn push(&mut self, text: &str) -> Option<u32> {
        let ordinal = u32::try_from(self.len()).ok()?;
        let end = u32::try_from(self.bytes.len() + text.len()).ok()?;
        self.bytes.push_str(text);
        self.offsets.push(end);
        Some(ordinal)
    }

    /// Number of texts.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Text `i`, or `None` past the end.
    pub(crate) fn get(&self, i: usize) -> Option<&str> {
        let start = *self.offsets.get(i)? as usize;
        let end = *self.offsets.get(i + 1)? as usize;
        self.bytes.get(start..end)
    }
}

impl Default for TextArena {
    fn default() -> Self {
        TextArena::with_capacity(0, 0)
    }
}

impl Document {
    /// A document with no nodes yet and room for `nodes` of them: what the
    /// builder and the decoder fill through [`Document::push_node`].
    pub(crate) fn empty(symbols: SymbolTable, nodes: usize) -> Document {
        let mut attr_offsets = Vec::with_capacity(nodes + 1);
        attr_offsets.push(0);
        Document {
            labels: Vec::with_capacity(nodes),
            parents: Vec::with_capacity(nodes),
            levels: Vec::with_capacity(nodes),
            subtree_last: Vec::with_capacity(nodes),
            attr_offsets,
            texts: TextArena::default(),
            attrs: Vec::new(),
            tag_index: vec![Vec::new(); symbols.len()],
            symbols,
        }
    }

    /// Appends the next node in document order: its subtree is just itself
    /// until the caller closes it, and its attributes end at `attrs_end`.
    /// An element is filed in its tag's list, which grows to reach it.
    pub(crate) fn push_node(&mut self, label: u32, parent: u32, level: u32, attrs_end: u32) {
        let id = NodeId(self.labels.len() as u32);
        if let NodeKind::Element { tag } = NodeKind::of_label(label) {
            if self.tag_index.len() <= tag.index() {
                self.tag_index.resize_with(tag.index() + 1, Vec::new);
            }
            self.tag_index[tag.index()].push(id);
        }
        self.labels.push(label);
        self.parents.push(parent);
        self.levels.push(level);
        self.subtree_last.push(id);
        self.attr_offsets.push(attrs_end);
    }

    /// The single root element: node 0.
    #[inline]
    pub fn root_element(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes (elements + text nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The interned-name table for this document.
    #[inline]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Kind of node `n`.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        NodeKind::of_label(self.labels[n.index()])
    }

    /// Tag of `n` if it is an element.
    #[inline]
    pub fn tag(&self, n: NodeId) -> Option<Sym> {
        let label = self.labels[n.index()];
        (label & TEXT_BIT == 0).then_some(Sym(label))
    }

    /// Tag name of `n` if it is an element.
    pub fn tag_name(&self, n: NodeId) -> Option<&str> {
        self.tag(n).map(|s| self.symbols.name(s))
    }

    /// Whether `n` is an element node.
    #[inline]
    pub fn is_element(&self, n: NodeId) -> bool {
        self.labels[n.index()] & TEXT_BIT == 0
    }

    /// Parent of `n`, if any.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parents[n.index()];
        (p != NO_NODE).then_some(NodeId(p))
    }

    /// First child of `n`, if any: `n + 1` when `n`'s subtree holds more
    /// than `n`.
    #[inline]
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        let child = NodeId(n.0 + 1);
        (child <= self.subtree_last(n)).then_some(child)
    }

    /// Next sibling of `n`, if any: the node after `n`'s subtree when it is
    /// still inside the parent's.
    #[inline]
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        let parent = self.parent(n)?;
        let next = NodeId(self.subtree_last(n).0 + 1);
        (next <= self.subtree_last(parent)).then_some(next)
    }

    /// Region-label start of `n` (document-order entry stamp): `2n − level`.
    #[inline]
    pub fn start(&self, n: NodeId) -> u32 {
        2 * n.0 - self.level(n)
    }

    /// Region-label end of `n` (document-order exit stamp):
    /// `2·subtree_last(n) + 1 − level`.
    #[inline]
    pub fn end(&self, n: NodeId) -> u32 {
        2 * self.subtree_last(n).0 + 1 - self.level(n)
    }

    /// Depth of `n`; the root element has level 0.
    #[inline]
    pub fn level(&self, n: NodeId) -> u32 {
        self.levels[n.index()]
    }

    /// O(1) strict-ancestor test: is `a` a proper ancestor of `b`?
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        a < b && b <= self.subtree_last(a)
    }

    /// O(1) parent test: is `a` the parent of `b`?
    #[inline]
    pub fn is_parent(&self, a: NodeId, b: NodeId) -> bool {
        self.parents[b.index()] == a.0
    }

    /// All element nodes with tag `tag`, sorted in document order.
    ///
    /// This is the input list shape required by structural joins.
    pub fn nodes_with_tag(&self, tag: Sym) -> &[NodeId] {
        self.tag_index.get(tag.index()).map_or(&[], Vec::as_slice)
    }

    /// Convenience: `nodes_with_tag` via a tag *name* (no-op on unknown names).
    pub fn nodes_with_tag_name(&self, name: &str) -> &[NodeId] {
        match self.symbols.lookup(name) {
            Some(sym) => self.nodes_with_tag(sym),
            None => &[],
        }
    }

    /// Content of a text node; `None` for elements.
    pub fn text_content(&self, n: NodeId) -> Option<&str> {
        match self.kind(n) {
            NodeKind::Text { text } => self.texts.get(text as usize),
            NodeKind::Element { .. } => None,
        }
    }

    /// Concatenated text of the subtree rooted at `n`, in document order.
    pub fn subtree_text(&self, n: NodeId) -> String {
        let mut out = String::new();
        for d in self.descendants_or_self(n) {
            if let Some(t) = self.text_content(d) {
                out.push_str(t);
            }
        }
        out
    }

    /// Attributes of `n` as `(name, value)` pairs, in source order.
    pub fn attributes(&self, n: NodeId) -> &[(Sym, Box<str>)] {
        let start = self.attr_offsets[n.index()] as usize;
        let end = self.attr_offsets[n.index() + 1] as usize;
        &self.attrs[start..end]
    }

    /// Value of attribute `name` on `n`, if present.
    pub fn attribute(&self, n: NodeId, name: Sym) -> Option<&str> {
        self.attributes(n)
            .iter()
            .find(|(s, _)| *s == name)
            .map(|(_, v)| v.as_ref())
    }

    /// All node ids in document order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// All element node ids in document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.all_nodes().filter(|&n| self.is_element(n))
    }

    /// Id of the last node in the subtree of `n` (i.e. descendants of `n` are
    /// exactly the ids `n+1 ..= subtree_last(n)`). Returns `n` for leaves.
    ///
    /// O(1), one load from a stored column — this sits on the hot path of
    /// candidate-range computation (every anchored candidate loop derives
    /// its id range from it), and every other link and region label is
    /// derived from it.
    #[inline]
    pub fn subtree_last(&self, n: NodeId) -> NodeId {
        self.subtree_last[n.index()]
    }

    /// A human-readable absolute path like `/site/regions/item[3]` (indexes
    /// are 1-based positions among same-tag siblings, omitted when unique).
    pub fn node_path(&self, n: NodeId) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut cur = Some(n);
        while let Some(node) = cur {
            let label = match self.tag(node) {
                Some(tag) => {
                    let name = self.symbols.name(tag);
                    match self.parent(node) {
                        Some(p) => {
                            let same: Vec<NodeId> = self
                                .children(p)
                                .filter(|&c| self.tag(c) == Some(tag))
                                .collect();
                            if same.len() > 1 {
                                let pos = same.iter().position(|&c| c == node).unwrap_or(0) + 1;
                                format!("{name}[{pos}]")
                            } else {
                                name.to_string()
                            }
                        }
                        None => name.to_string(),
                    }
                }
                None => "text()".to_string(),
            };
            parts.push(label);
            cur = self.parent(node);
        }
        parts.reverse();
        format!("/{}", parts.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use crate::parse;

    const DOC: &str = "<a x=\"1\"><b><c>hi</c></b><b y=\"2\">there</b></a>";

    #[test]
    fn region_labels_nest_properly() {
        let doc = parse(DOC).unwrap();
        let root = doc.root_element();
        for n in doc.all_nodes() {
            if n != root {
                assert!(doc.is_ancestor(root, n), "root must contain {n}");
            }
            assert!(doc.start(n) < doc.end(n));
        }
    }

    #[test]
    fn parent_and_level_agree() {
        let doc = parse(DOC).unwrap();
        for n in doc.all_nodes() {
            if let Some(p) = doc.parent(n) {
                assert!(doc.is_parent(p, n));
                assert!(doc.is_ancestor(p, n));
                assert_eq!(doc.level(n), doc.level(p) + 1);
            } else {
                assert_eq!(n, doc.root_element());
            }
        }
    }

    #[test]
    fn tag_index_is_document_ordered() {
        let doc = parse(DOC).unwrap();
        let bs = doc.nodes_with_tag_name("b");
        assert_eq!(bs.len(), 2);
        assert!(bs[0] < bs[1]);
        assert!(doc.start(bs[0]) < doc.start(bs[1]));
    }

    #[test]
    fn attributes_are_accessible() {
        let doc = parse(DOC).unwrap();
        let root = doc.root_element();
        let x = doc.symbols().lookup("x").unwrap();
        assert_eq!(doc.attribute(root, x), Some("1"));
        let bs = doc.nodes_with_tag_name("b").to_vec();
        let y = doc.symbols().lookup("y").unwrap();
        assert_eq!(doc.attribute(bs[0], y), None);
        assert_eq!(doc.attribute(bs[1], y), Some("2"));
    }

    #[test]
    fn subtree_text_concatenates_in_order() {
        let doc = parse(DOC).unwrap();
        assert_eq!(doc.subtree_text(doc.root_element()), "hithere");
    }

    #[test]
    fn subtree_last_bounds_descendants() {
        let doc = parse(DOC).unwrap();
        let root = doc.root_element();
        assert_eq!(doc.subtree_last(root).index(), doc.node_count() - 1);
        // A leaf text node has no descendants.
        let c = doc.nodes_with_tag_name("c")[0];
        let text = doc.first_child(c).unwrap();
        assert_eq!(doc.subtree_last(text), text);
    }

    #[test]
    fn node_path_is_readable_and_positional() {
        let doc = parse(DOC).unwrap();
        let bs = doc.nodes_with_tag_name("b").to_vec();
        assert_eq!(doc.node_path(doc.root_element()), "/a");
        assert_eq!(doc.node_path(bs[0]), "/a/b[1]");
        assert_eq!(doc.node_path(bs[1]), "/a/b[2]");
        let c = doc.nodes_with_tag_name("c")[0];
        assert_eq!(doc.node_path(c), "/a/b[1]/c");
        let text = doc.first_child(c).unwrap();
        assert_eq!(doc.node_path(text), "/a/b[1]/c/text()");
    }

    #[test]
    fn labels_stop_below_the_text_bit() {
        use super::{NodeKind, TEXT_BIT};
        use crate::Sym;
        let below = TEXT_BIT - 1;
        for (kind, label) in [
            (NodeKind::Text { text: below }, Some(u32::MAX)),
            (NodeKind::Text { text: TEXT_BIT }, None),
            (NodeKind::Element { tag: Sym(below) }, Some(below)),
            (NodeKind::Element { tag: Sym(TEXT_BIT) }, None),
        ] {
            assert_eq!(kind.label(), label, "{kind:?}");
            if let Some(label) = label {
                assert_eq!(NodeKind::of_label(label), kind);
            }
        }
    }

    #[test]
    fn is_ancestor_is_irreflexive_and_antisymmetric() {
        let doc = parse(DOC).unwrap();
        for a in doc.all_nodes() {
            assert!(!doc.is_ancestor(a, a));
            for b in doc.all_nodes() {
                if doc.is_ancestor(a, b) {
                    assert!(!doc.is_ancestor(b, a));
                }
            }
        }
    }
}
