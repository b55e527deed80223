//! The arena [`Document`] with interval-encoded nodes.
//!
//! Nodes are stored in document (pre-)order, so the arena index *is* the
//! document-order rank. Each node additionally carries the classic
//! `(start, end, level)` region label used by structural-join algorithms:
//!
//! * `a` is an **ancestor** of `b`  iff  `start(a) < start(b) && end(b) < end(a)`;
//! * `a` is the **parent** of `b`   iff  the above and `level(b) == level(a) + 1`.
//!
//! Both tests are O(1), which is what makes the FleXPath join plans cheap to
//! evaluate and the `#pc`/`#ad` statistics cheap to collect.

use crate::symbols::{Sym, SymbolTable};
use std::fmt;

/// Index of a node in the document arena. Ids are dense and assigned in
/// document order: `a.0 < b.0` iff `a` precedes `b` in document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index of this node.
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

#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) first_child: Option<NodeId>,
    pub(crate) next_sibling: Option<NodeId>,
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) level: u32,
    pub(crate) attrs_start: u32,
    pub(crate) attrs_len: u16,
}

/// An immutable XML document: node arena, text arena, attributes, interned
/// names, and per-tag node lists sorted in document order.
///
/// Construct one with [`crate::parse`] or [`crate::DocumentBuilder`].
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) texts: TextArena,
    pub(crate) attrs: Vec<(Sym, Box<str>)>,
    pub(crate) symbols: SymbolTable,
    /// Per tag, indexed by [`Sym::index`]: its elements in document order.
    /// Symbols that name no element (attribute names) hold an empty list.
    pub(crate) tag_index: Vec<Vec<NodeId>>,
    pub(crate) root: NodeId,
    /// Per node: id of the last node in its subtree (itself for leaves),
    /// precomputed at construction so [`Document::subtree_last`] — on the
    /// hot path of every subtree range computation — is a single array
    /// load instead of a binary search. See [`compute_subtree_last`].
    pub(crate) subtree_last: Vec<NodeId>,
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

    /// Every text in ordinal order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.offsets
            .windows(2)
            .map(|w| self.bytes.get(w[0] as usize..w[1] as usize).unwrap_or(""))
    }
}

impl Default for TextArena {
    fn default() -> Self {
        TextArena::with_capacity(0, 0)
    }
}

/// Last-descendant table for an arena in document order: children carry
/// larger ids than their parent, so one reverse sweep folding each node's
/// `last` into its parent computes every subtree's last id in O(n).
pub(crate) fn compute_subtree_last(nodes: &[NodeData]) -> Vec<NodeId> {
    let mut last: Vec<NodeId> = (0..nodes.len() as u32).map(NodeId).collect();
    for i in (1..nodes.len()).rev() {
        if let Some(p) = nodes[i].parent {
            if last[i] > last[p.index()] {
                last[p.index()] = last[i];
            }
        }
    }
    last
}

impl Document {
    /// The single root element.
    #[inline]
    pub fn root_element(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes (elements + text nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The interned-name table for this document.
    #[inline]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Kind of node `n`.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()].kind
    }

    /// Tag of `n` if it is an element.
    #[inline]
    pub fn tag(&self, n: NodeId) -> Option<Sym> {
        match self.nodes[n.index()].kind {
            NodeKind::Element { tag } => Some(tag),
            NodeKind::Text { .. } => None,
        }
    }

    /// Tag name of `n` if it is an element.
    pub fn tag_name(&self, n: NodeId) -> Option<&str> {
        self.tag(n).map(|s| self.symbols.name(s))
    }

    /// Whether `n` is an element node.
    #[inline]
    pub fn is_element(&self, n: NodeId) -> bool {
        matches!(self.nodes[n.index()].kind, NodeKind::Element { .. })
    }

    /// Parent of `n`, if any.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// First child of `n`, if any.
    #[inline]
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].first_child
    }

    /// Next sibling of `n`, if any.
    #[inline]
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].next_sibling
    }

    /// Region-label start of `n` (document-order entry stamp).
    #[inline]
    pub fn start(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].start
    }

    /// Region-label end of `n` (document-order exit stamp).
    #[inline]
    pub fn end(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].end
    }

    /// Depth of `n`; the root element has level 0.
    #[inline]
    pub fn level(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].level
    }

    /// O(1) strict-ancestor test: is `a` a proper ancestor of `b`?
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let na = &self.nodes[a.index()];
        let nb = &self.nodes[b.index()];
        na.start < nb.start && nb.end < na.end
    }

    /// O(1) parent test: is `a` the parent of `b`?
    #[inline]
    pub fn is_parent(&self, a: NodeId, b: NodeId) -> bool {
        let na = &self.nodes[a.index()];
        let nb = &self.nodes[b.index()];
        na.start < nb.start && nb.end < na.end && nb.level == na.level + 1
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
        match self.nodes[n.index()].kind {
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
        let d = &self.nodes[n.index()];
        let s = d.attrs_start as usize;
        &self.attrs[s..s + d.attrs_len as usize]
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
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All element node ids in document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.all_nodes().filter(|&n| self.is_element(n))
    }

    /// Id of the last node in the subtree of `n` (i.e. descendants of `n` are
    /// exactly the ids `n+1 ..= subtree_last(n)`). Returns `n` for leaves.
    ///
    /// O(1): served from the table precomputed at construction — this sits
    /// on the hot path of candidate-range computation (every anchored
    /// candidate loop derives its id range from it).
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
