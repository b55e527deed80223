//! Programmatic document construction.
//!
//! The builder is the single construction path for [`Document`]s: the parser
//! and the XMark generator both drive it, so interval labels, levels,
//! sibling links, and tag indexes are assigned in exactly one place.

use crate::document::{Document, NodeData, NodeId, NodeKind, TextArena};
use crate::symbols::{Sym, SymbolTable};

/// Streaming builder: call [`start_element`](Self::start_element) /
/// [`end_element`](Self::end_element) / [`text`](Self::text) in document
/// order, then [`finish`](Self::finish).
///
/// ```
/// use flexpath_xmldom::DocumentBuilder;
///
/// let mut b = DocumentBuilder::new();
/// b.start_element("article");
/// b.attribute("id", "42");
/// b.start_element("title");
/// b.text("FleXPath");
/// b.end_element();
/// b.end_element();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.tag_name(doc.root_element()), Some("article"));
/// ```
#[derive(Debug)]
pub struct DocumentBuilder {
    nodes: Vec<NodeData>,
    texts: TextArena,
    attrs: Vec<(Sym, Box<str>)>,
    symbols: SymbolTable,
    tag_index: Vec<Vec<NodeId>>,
    /// Stack of open elements; for each: (node id, last child added so far).
    open: Vec<(NodeId, Option<NodeId>)>,
    counter: u32,
    root: Option<NodeId>,
    finished_root: bool,
}

/// Errors surfaced when the build call sequence is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `end_element` without a matching open element.
    UnmatchedEnd,
    /// `text` or `attribute` outside any open element, or a second root.
    OutsideRoot,
    /// `finish` with elements still open or no root at all.
    Incomplete,
    /// `text` would grow the text arena past `u32::MAX` bytes (or texts).
    TextArenaFull,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnmatchedEnd => write!(f, "end_element without open element"),
            BuildError::OutsideRoot => write!(f, "content outside the root element"),
            BuildError::Incomplete => write!(f, "document incomplete at finish"),
            BuildError::TextArenaFull => write!(f, "text arena would pass 4 GiB"),
        }
    }
}

impl std::error::Error for BuildError {}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    /// Creates an empty builder with a fresh symbol table.
    pub fn new() -> Self {
        Self::with_symbols(SymbolTable::new())
    }

    /// Creates a builder that interns into an existing table (lets several
    /// documents share tag ids).
    pub fn with_symbols(symbols: SymbolTable) -> Self {
        DocumentBuilder {
            nodes: Vec::new(),
            texts: TextArena::default(),
            attrs: Vec::new(),
            symbols,
            tag_index: Vec::new(),
            open: Vec::new(),
            counter: 0,
            root: None,
            finished_root: false,
        }
    }

    fn push_node(&mut self, kind: NodeKind) -> Result<NodeId, BuildError> {
        if self.finished_root && self.open.is_empty() {
            return Err(BuildError::OutsideRoot);
        }
        let id = NodeId(self.nodes.len() as u32);
        let (parent, level) = match self.open.last().copied() {
            Some((p, _)) => (Some(p), self.nodes[p.index()].level + 1),
            None => {
                if matches!(kind, NodeKind::Text { .. }) {
                    return Err(BuildError::OutsideRoot);
                }
                (None, 0)
            }
        };
        let start = self.counter;
        self.counter += 1;
        self.nodes.push(NodeData {
            kind,
            parent,
            first_child: None,
            next_sibling: None,
            start,
            end: 0,
            level,
            attrs_start: self.attrs.len() as u32,
            attrs_len: 0,
        });
        // Wire sibling / first-child links.
        if let Some((p, last_child)) = self.open.last_mut() {
            match *last_child {
                Some(prev) => self.nodes[prev.index()].next_sibling = Some(id),
                None => {
                    let p = *p;
                    self.nodes[p.index()].first_child = Some(id);
                }
            }
            *last_child = Some(id);
        }
        Ok(id)
    }

    /// Opens an element with the given tag name.
    ///
    /// # Panics
    /// If called after the root element was closed; use
    /// [`try_start_element`](Self::try_start_element) to handle that case.
    #[allow(clippy::expect_used)] // documented contract of the infallible API
    pub fn start_element(&mut self, tag: &str) -> NodeId {
        self.try_start_element(tag)
            .expect("start_element after the root element was closed")
    }

    /// Fallible variant of [`start_element`](Self::start_element).
    pub fn try_start_element(&mut self, tag: &str) -> Result<NodeId, BuildError> {
        let sym = self.symbols.intern(tag);
        let id = self.push_node(NodeKind::Element { tag: sym })?;
        if self.root.is_none() {
            self.root = Some(id);
        }
        if self.tag_index.len() <= sym.index() {
            self.tag_index.resize_with(sym.index() + 1, Vec::new);
        }
        self.tag_index[sym.index()].push(id);
        self.open.push((id, None));
        Ok(id)
    }

    /// Adds an attribute to the element most recently opened.
    ///
    /// Must be called before any child content is added; attribute storage
    /// is contiguous per element.
    ///
    /// # Panics
    /// If no element is open or child content was already added; use
    /// [`try_attribute`](Self::try_attribute) to handle those cases.
    #[allow(clippy::expect_used)] // documented contract of the infallible API
    pub fn attribute(&mut self, name: &str, value: &str) {
        self.try_attribute(name, value)
            .expect("attribute outside an open element or after child content")
    }

    /// Fallible variant of [`attribute`](Self::attribute).
    pub fn try_attribute(&mut self, name: &str, value: &str) -> Result<(), BuildError> {
        let &(cur, last_child) = self.open.last().ok_or(BuildError::OutsideRoot)?;
        // Attributes must precede children so the flat attr arena stays
        // contiguous per element.
        if last_child.is_some() {
            return Err(BuildError::OutsideRoot);
        }
        let sym = self.symbols.intern(name);
        self.attrs.push((sym, value.into()));
        self.nodes[cur.index()].attrs_len += 1;
        Ok(())
    }

    /// Appends a text node under the currently open element.
    ///
    /// Empty strings are ignored (no empty text nodes are materialized).
    ///
    /// # Panics
    /// If no element is open, or if the document's text would pass 4 GiB;
    /// use [`try_text`](Self::try_text) to handle those cases.
    #[allow(clippy::expect_used)] // documented contract of the infallible API
    pub fn text(&mut self, content: &str) {
        self.try_text(content)
            .expect("text outside an open element or past the 4 GiB text arena")
    }

    /// Fallible variant of [`text`](Self::text).
    pub fn try_text(&mut self, content: &str) -> Result<(), BuildError> {
        if content.is_empty() {
            return Ok(());
        }
        if self.open.is_empty() {
            return Err(BuildError::OutsideRoot);
        }
        let text_idx = self.texts.push(content).ok_or(BuildError::TextArenaFull)?;
        let id = self.push_node(NodeKind::Text { text: text_idx })?;
        // Text nodes are leaves: close their interval immediately.
        self.nodes[id.index()].end = self.counter;
        self.counter += 1;
        Ok(())
    }

    /// Closes the most recently opened element.
    ///
    /// # Panics
    /// If no element is open; use [`try_end_element`](Self::try_end_element)
    /// to handle that case.
    #[allow(clippy::expect_used)] // documented contract of the infallible API
    pub fn end_element(&mut self) {
        self.try_end_element()
            .expect("end_element without open element")
    }

    /// Fallible variant of [`end_element`](Self::end_element).
    pub fn try_end_element(&mut self) -> Result<(), BuildError> {
        let (id, _) = self.open.pop().ok_or(BuildError::UnmatchedEnd)?;
        self.nodes[id.index()].end = self.counter;
        self.counter += 1;
        if self.open.is_empty() {
            self.finished_root = true;
        }
        Ok(())
    }

    /// Finalizes the document.
    pub fn finish(self) -> Result<Document, BuildError> {
        let (Some(root), true) = (self.root, self.open.is_empty()) else {
            return Err(BuildError::Incomplete);
        };
        let subtree_last = crate::document::compute_subtree_last(&self.nodes);
        let mut tag_index = self.tag_index;
        tag_index.resize_with(self.symbols.len(), Vec::new);
        Ok(Document {
            nodes: self.nodes,
            texts: self.texts,
            attrs: self.attrs,
            symbols: self.symbols,
            tag_index,
            root,
            subtree_last,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_document() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.start_element("b");
        b.text("x");
        b.end_element();
        b.start_element("b");
        b.end_element();
        b.end_element();
        let doc = b.finish().unwrap();
        assert_eq!(doc.nodes_with_tag_name("b").len(), 2);
        assert_eq!(doc.subtree_text(doc.root_element()), "x");
    }

    #[test]
    fn empty_text_is_skipped() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.text("");
        b.end_element();
        let doc = b.finish().unwrap();
        assert_eq!(doc.node_count(), 1);
    }

    #[test]
    fn unmatched_end_is_an_error() {
        let mut b = DocumentBuilder::new();
        assert_eq!(b.try_end_element(), Err(BuildError::UnmatchedEnd));
    }

    #[test]
    fn finish_with_open_elements_is_an_error() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        assert!(matches!(b.finish(), Err(BuildError::Incomplete)));
    }

    #[test]
    fn second_root_is_an_error() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.end_element();
        assert_eq!(b.try_start_element("b"), Err(BuildError::OutsideRoot));
    }

    #[test]
    fn attribute_after_child_content_is_an_error() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.start_element("b");
        b.end_element();
        assert_eq!(b.try_attribute("x", "1"), Err(BuildError::OutsideRoot));
        b.end_element();
    }

    #[test]
    fn intervals_strictly_nest() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        for _ in 0..3 {
            b.start_element("b");
            b.text("t");
            b.end_element();
        }
        b.end_element();
        let doc = b.finish().unwrap();
        let root = doc.root_element();
        for n in doc.all_nodes().skip(1) {
            assert!(doc.start(root) < doc.start(n));
            assert!(doc.end(n) < doc.end(root));
        }
        // Sibling intervals are disjoint.
        let bs = doc.nodes_with_tag_name("b");
        for w in bs.windows(2) {
            assert!(doc.end(w[0]) < doc.start(w[1]));
        }
    }
}
