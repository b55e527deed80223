//! Programmatic document construction.
//!
//! The builder is the single construction path for [`Document`]s: the parser
//! and the XMark generator both drive it, so labels, parents, levels,
//! subtree ends, and tag indexes are assigned in exactly one place. It fills
//! the document's columns through its stack of open elements; links and
//! region labels are derived from them (see [`crate::document`]).

use crate::document::{Document, NodeId, NodeKind, NO_NODE};
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
    doc: Document,
    /// The open elements, root first: the path from the root to the parent
    /// of the next node.
    open: Vec<NodeId>,
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
    /// `text` would grow the text arena past `u32::MAX` bytes, or past
    /// 2³¹ texts.
    TextArenaFull,
    /// An element name would be the 2³¹-th distinct name.
    SymbolTableFull,
    /// An element would carry more than `u16::MAX` attributes (the store
    /// format's per-node limit).
    TooManyAttributes,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnmatchedEnd => write!(f, "end_element without open element"),
            BuildError::OutsideRoot => write!(f, "content outside the root element"),
            BuildError::Incomplete => write!(f, "document incomplete at finish"),
            BuildError::TextArenaFull => write!(f, "text arena would pass 4 GiB or 2^31 texts"),
            BuildError::SymbolTableFull => write!(f, "more than 2^31 distinct names"),
            BuildError::TooManyAttributes => write!(f, "more than 65535 attributes on one element"),
        }
    }
}

impl std::error::Error for BuildError {}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The `labels` entry of an element named `tag`.
fn element_label(tag: Sym) -> Result<u32, BuildError> {
    NodeKind::Element { tag }
        .label()
        .ok_or(BuildError::SymbolTableFull)
}

/// The `labels` entry of the text with ordinal `text`.
fn text_label(text: usize) -> Result<u32, BuildError> {
    u32::try_from(text)
        .ok()
        .and_then(|text| NodeKind::Text { text }.label())
        .ok_or(BuildError::TextArenaFull)
}

impl DocumentBuilder {
    /// Creates an empty builder with a fresh symbol table.
    pub fn new() -> Self {
        DocumentBuilder {
            doc: Document::empty(SymbolTable::new(), 0),
            open: Vec::new(),
        }
    }

    /// Appends a node under the innermost open element; only the first
    /// node (the root element: `try_text` needs an open element) may have
    /// no parent.
    fn push_node(&mut self, label: u32) -> Result<NodeId, BuildError> {
        let id = NodeId(self.doc.node_count() as u32);
        let parent = match self.open.last() {
            Some(p) => p.0,
            None if id.0 == 0 => NO_NODE,
            None => return Err(BuildError::OutsideRoot),
        };
        let attrs_end = self.doc.attrs.len() as u32;
        self.doc
            .push_node(label, parent, self.open.len() as u32, attrs_end);
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
        let label = element_label(self.doc.symbols.intern(tag))?;
        let id = self.push_node(label)?;
        self.open.push(id);
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
        let &cur = self.open.last().ok_or(BuildError::OutsideRoot)?;
        // Attributes must precede children so the flat attr list stays
        // contiguous per element: `cur` must still be the newest node.
        if cur.index() + 1 != self.doc.node_count() {
            return Err(BuildError::OutsideRoot);
        }
        if self.doc.attributes(cur).len() >= usize::from(u16::MAX) {
            return Err(BuildError::TooManyAttributes);
        }
        let sym = self.doc.symbols.intern(name);
        self.doc.attrs.push((sym, value.into()));
        if let Some(end) = self.doc.attr_offsets.last_mut() {
            *end += 1;
        }
        Ok(())
    }

    /// Appends a text node under the currently open element.
    ///
    /// Empty strings are ignored (no empty text nodes are materialized).
    ///
    /// # Panics
    /// If no element is open, or if the document's text would pass 4 GiB
    /// or 2³¹ texts; use [`try_text`](Self::try_text) to handle those cases.
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
        let label = text_label(self.doc.texts.len())?;
        self.doc
            .texts
            .push(content)
            .ok_or(BuildError::TextArenaFull)?;
        // A text node is a leaf: its subtree is already closed.
        self.push_node(label)?;
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
        let id = self.open.pop().ok_or(BuildError::UnmatchedEnd)?;
        // Every node since `id` lies in its subtree.
        self.doc.subtree_last[id.index()] = NodeId(self.doc.node_count() as u32 - 1);
        Ok(())
    }

    /// Finalizes the document.
    pub fn finish(self) -> Result<Document, BuildError> {
        if self.doc.node_count() == 0 || !self.open.is_empty() {
            return Err(BuildError::Incomplete);
        }
        let mut doc = self.doc;
        doc.tag_index.resize_with(doc.symbols.len(), Vec::new);
        Ok(doc)
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
    fn labels_past_two_to_the_31_are_typed_errors() {
        let bound = 1u32 << 31;
        assert_eq!(element_label(Sym(bound - 1)), Ok(bound - 1));
        assert_eq!(element_label(Sym(bound)), Err(BuildError::SymbolTableFull));
        assert_eq!(text_label(bound as usize - 1), Ok(u32::MAX));
        assert_eq!(text_label(bound as usize), Err(BuildError::TextArenaFull));
        assert_eq!(text_label(usize::MAX), Err(BuildError::TextArenaFull));
    }

    #[test]
    fn attributes_per_element_stop_at_the_wire_width() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        for _ in 0..u16::MAX {
            b.attribute("x", "");
        }
        assert_eq!(b.try_attribute("x", ""), Err(BuildError::TooManyAttributes));
        b.start_element("b");
        b.attribute("y", "1");
        b.end_element();
        b.end_element();
        let doc = b.finish().unwrap();
        assert_eq!(doc.attributes(doc.root_element()).len(), 65_535);
        let y = doc.symbols().lookup("y").unwrap();
        assert_eq!(doc.attribute(NodeId(1), y), Some("1"));
    }

    #[test]
    fn text_outside_the_root_is_an_error() {
        let mut b = DocumentBuilder::new();
        assert_eq!(b.try_text("x"), Err(BuildError::OutsideRoot));
        b.start_element("a");
        b.end_element();
        assert_eq!(b.try_text("x"), Err(BuildError::OutsideRoot));
        assert_eq!(b.try_attribute("x", "1"), Err(BuildError::OutsideRoot));
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
