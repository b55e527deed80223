//! Binary codec for [`Document`] and [`DocStats`] — the payloads of the
//! persistent corpus store's `TAGS`, `ELEMS`, and `STATS` sections.
//!
//! Encoding is **deterministic**: hash maps are emitted in sorted key
//! order and nothing environment-dependent (timestamps, pointer values)
//! is written, so the same document always produces the same bytes. The
//! store's golden-file drift check depends on this.
//!
//! Decoding is **total and validating**: every cross-reference a decoded
//! [`Document`] could later index with — tag and attribute symbols,
//! text-arena indices, attribute ranges — is bounds-checked here, so
//! downstream code may keep using plain indexing without risking a panic on
//! a corrupted store. And because the document keeps only labels, parents,
//! levels, subtree ends and attribute offsets and *derives* every other
//! link and region label from them, every stored link and label must equal
//! its derived value: a record set whose parts disagree about the tree is
//! rejected rather than decoded into a document whose `parent()` and
//! `is_parent()` would answer differently.
//!
//! [`decode_document`] reads in **one pass** over `ELEMS`. The node records
//! are one length-checked byte run of fixed-size records; each record is
//! checked as it is read against a stack holding the path from the root to
//! it (the open nodes):
//! * on the record itself: kind, tag-symbol range, the 2³¹ bound of the
//!   label column, that the parent is on the path (node 0 is the root and
//!   the only node without a parent; a text node has no children), `level`
//!   (the path's length), `start` (`2·id − level`), and that its attributes
//!   start where the previous node's end (contiguous and in order; a text
//!   node has none);
//! * on the next record: the first-child claim (`id + 1` iff that record's
//!   parent is this node);
//! * when the node's subtree closes (a later record's parent is above it on
//!   the path, or the records end): the next-sibling claim and `end`, and
//!   the node's subtree end is filled in.
//!
//! Each element goes straight into its tag's list. Texts go into one arena
//! (a `String` plus an offset column), UTF-8-checked per string. The two
//! checks that need counts written *after* the records — text ordinals
//! against the text count, the attribute offsets against the attribute
//! count — are done on the largest reference seen, once that count is
//! read; only on failure is the label or offset column rescanned, so the
//! error still names the first offending node.
//!
//! For an input with several defects, which one is reported follows the
//! pass: record-local and path defects are found before the text and
//! attribute payloads are read, a closing claim when its subtree closes,
//! and the text check runs before the attribute payload is read.

use crate::document::{Document, NodeId, NodeKind, TextArena, NO_NODE, TEXT_BIT};
use crate::stats::{DocStats, TagPair};
use crate::symbols::{Sym, SymbolTable};
use crate::wire::{ByteReader, ByteWriter, WireError};
use std::collections::HashMap;
use std::fmt;

/// Fixed wire size of one node record (used for count plausibility).
const NODE_WIRE_BYTES: usize = 1 + 4 * 8 + 2;

/// A failure while decoding a document or statistics section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Low-level read failure (truncation, bad UTF-8, absurd length).
    Wire(WireError),
    /// The bytes parsed but describe an inconsistent structure.
    Invalid {
        /// Which invariant was violated.
        what: &'static str,
        /// Item index (node id, symbol id, …) at which it was detected.
        index: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Wire(e) => write!(f, "wire error: {e}"),
            CodecError::Invalid { what, index } => {
                write!(f, "invalid structure: {what} (item {index})")
            }
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Wire(e) => Some(e),
            CodecError::Invalid { .. } => None,
        }
    }
}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Wire(e)
    }
}

fn invalid(what: &'static str, index: u64) -> CodecError {
    CodecError::Invalid { what, index }
}

fn opt_node(v: Option<NodeId>) -> u32 {
    v.map(|n| n.0).unwrap_or(NO_NODE)
}

/// Encodes a document's interned-name table (the `TAGS` section payload).
pub fn encode_symbols(symbols: &SymbolTable) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(16 + symbols.len() * 12);
    w.u64(symbols.len() as u64);
    for (_, name) in symbols.iter() {
        w.str(name);
    }
    w.into_bytes()
}

/// Decodes a `TAGS` section payload back into a [`SymbolTable`].
pub fn decode_symbols(bytes: &[u8]) -> Result<SymbolTable, CodecError> {
    let mut r = ByteReader::new(bytes);
    let n = r.count(4)?;
    let mut table = SymbolTable::new();
    for i in 0..n {
        let name = r.str()?;
        let sym = table.intern(name);
        // A repeated name would intern to an earlier id and desync every
        // Sym reference in the element table; reject it.
        if sym.index() != i {
            return Err(CodecError::Invalid {
                what: "duplicate symbol name",
                index: i as u64,
            });
        }
    }
    r.expect_exhausted()?;
    Ok(table)
}

/// Encodes a document's nodes, text arena, and attributes (the `ELEMS`
/// section payload). Each node record carries its links and region label as
/// derived from the document's columns. The per-tag index is not written —
/// it is rebuilt on decode from the (document-ordered) records.
pub fn encode_nodes(doc: &Document) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32 + doc.node_count() * NODE_WIRE_BYTES);
    w.u32(doc.root_element().0);
    w.u64(doc.node_count() as u64);
    let mut attrs_start = 0u32;
    for n in doc.all_nodes() {
        match doc.kind(n) {
            NodeKind::Element { tag } => {
                w.u8(0);
                w.u32(tag.0);
            }
            NodeKind::Text { text } => {
                w.u8(1);
                w.u32(text);
            }
        }
        w.u32(opt_node(doc.parent(n)));
        w.u32(opt_node(doc.first_child(n)));
        w.u32(opt_node(doc.next_sibling(n)));
        w.u32(doc.start(n));
        w.u32(doc.end(n));
        w.u32(doc.level(n));
        // At most `u16::MAX` per node: the builder and the decoder both
        // refuse more.
        let attrs_len = doc.attributes(n).len() as u16;
        w.u32(attrs_start);
        w.u16(attrs_len);
        attrs_start += u32::from(attrs_len);
    }
    w.u64(doc.texts.len() as u64);
    for t in doc.texts.iter() {
        w.str(t);
    }
    w.u64(doc.attrs.len() as u64);
    for (sym, val) in &doc.attrs {
        w.u32(sym.0);
        w.str(val);
    }
    w.into_bytes()
}

/// One node record's fields, in wire order.
struct Record {
    kind: u8,
    payload: u32,
    parent: u32,
    first_child: u32,
    next_sibling: u32,
    start: u32,
    end: u32,
    level: u32,
    attrs_start: u32,
    attrs_len: u16,
}

impl Record {
    // Panic-free by construction: `b` is a `[u8; NODE_WIRE_BYTES]` and
    // every offset below is a constant at most `NODE_WIRE_BYTES - 2`.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    fn read(b: &[u8; NODE_WIRE_BYTES]) -> Record {
        let u32_at = |at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        Record {
            kind: b[0],
            payload: u32_at(1),
            parent: u32_at(5),
            first_child: u32_at(9),
            next_sibling: u32_at(13),
            start: u32_at(17),
            end: u32_at(21),
            level: u32_at(25),
            attrs_start: u32_at(29),
            attrs_len: u16::from_le_bytes([b[33], b[34]]),
        }
    }
}

/// A node on the decoder's root path, with the claims of its record that
/// can only be checked once its subtree closes.
struct Open {
    id: u32,
    parent: u32,
    level: u32,
    text: bool,
    next_sibling: u32,
    end: u32,
}

impl Open {
    /// Closes this node's subtree at `last`: checks the record's `end` and
    /// its next-sibling claim against `next_sibling` (the node after `last`
    /// if that is a child of this node's parent, else [`NO_NODE`]), and
    /// records the subtree end.
    fn close(&self, last: u32, next_sibling: u32, doc: &mut Document) -> Result<(), CodecError> {
        let index = u64::from(self.id);
        if self.next_sibling != next_sibling {
            return Err(invalid("next-sibling link disagrees with the tree", index));
        }
        if u64::from(self.end) != 2 * u64::from(last) + 1 - u64::from(self.level) {
            return Err(invalid("region label end disagrees with the tree", index));
        }
        if let Some(slot) = doc.subtree_last.get_mut(self.id as usize) {
            *slot = NodeId(last);
        }
        Ok(())
    }
}

/// Decodes `TAGS` + `ELEMS` payloads into a fully validated [`Document`].
///
/// One pass over the node records checks each as it is read, against the
/// path from the root to it, and fills the document's columns; see the
/// module doc for where each check sits. The text-index and attribute
/// checks need counts that follow the records, so the pass tracks the
/// largest reference of each and checks it once the count is known.
pub fn decode_document(tag_bytes: &[u8], elem_bytes: &[u8]) -> Result<Document, CodecError> {
    let symbols = decode_symbols(tag_bytes)?;
    let mut r = ByteReader::new(elem_bytes);
    let root_raw = r.u32()?;
    let node_count = r.count(NODE_WIRE_BYTES)?;
    // `count` bounded node_count * NODE_WIRE_BYTES by the bytes remaining.
    let (records, _) = r
        .bytes(node_count * NODE_WIRE_BYTES)?
        .as_chunks::<NODE_WIRE_BYTES>();
    if node_count == 0 {
        return Err(invalid("root id out of range", u64::from(root_raw)));
    }
    if root_raw != 0 {
        return Err(invalid("root is not node 0", u64::from(root_raw)));
    }
    let mut doc = Document::empty(symbols, node_count);
    // The open nodes, root first; each entry's parent is the one below it.
    let mut path: Vec<Open> = Vec::new();
    // One past the largest text ordinal referenced.
    let mut texts_needed = 0u64;
    // The previous record's first-child claim.
    let mut first_child = NO_NODE;
    for (i, bytes) in records.iter().enumerate() {
        let (id, idx) = (i as u32, i as u64);
        let rec = Record::read(bytes);
        let kind = match rec.kind {
            0 => NodeKind::Element {
                tag: Sym(rec.payload),
            },
            1 => NodeKind::Text { text: rec.payload },
            _ => return Err(invalid("unknown node kind", idx)),
        };
        let Some(label) = kind.label() else {
            return Err(invalid("symbol id or text ordinal past 2^31", idx));
        };
        let text = label & TEXT_BIT != 0;
        if text {
            texts_needed = texts_needed.max(u64::from(rec.payload) + 1);
            if rec.attrs_len != 0 {
                return Err(invalid("text node has attributes", idx));
            }
        } else if rec.payload as usize >= doc.symbols.len() {
            return Err(invalid("tag symbol out of range", idx));
        }

        let parent = rec.parent;
        if id == 0 {
            if parent != NO_NODE {
                return Err(invalid("root has a parent", idx));
            }
            if text {
                return Err(invalid("root is not an element", idx));
            }
        } else {
            if parent == NO_NODE {
                return Err(invalid("node other than the root without a parent", idx));
            }
            // Every open node below the parent closes before this one.
            while let Some(top) = path.pop_if(|top| top.id > parent) {
                let sibling = if top.parent == parent { id } else { NO_NODE };
                top.close(id - 1, sibling, &mut doc)?;
            }
            match path.last() {
                Some(top) if top.id == parent && top.text => {
                    return Err(invalid("text node has children", idx));
                }
                Some(top) if top.id == parent => {}
                _ => return Err(invalid("parent is not an open ancestor", idx)),
            }
            let claimed = if parent == id - 1 { id } else { NO_NODE };
            if first_child != claimed {
                return Err(invalid("first-child link disagrees with the tree", idx - 1));
            }
        }
        let level = path.len() as u32;
        if rec.level != level {
            return Err(invalid("level disagrees with the tree", idx));
        }
        if u64::from(rec.start) != 2 * idx - u64::from(level) {
            return Err(invalid("region label start disagrees with the tree", idx));
        }
        let attrs_start = doc.attr_offsets.last().copied().unwrap_or(0);
        if rec.attrs_start != attrs_start {
            return Err(invalid("attributes not contiguous and in order", idx));
        }
        let Some(attrs_end) = attrs_start.checked_add(u32::from(rec.attrs_len)) else {
            return Err(invalid("attribute range out of bounds", idx));
        };
        doc.push_node(label, parent, level, attrs_end);
        path.push(Open {
            id,
            parent,
            level,
            text,
            next_sibling: rec.next_sibling,
            end: rec.end,
        });
        first_child = rec.first_child;
    }
    let last = node_count as u32 - 1;
    if first_child != NO_NODE {
        return Err(invalid(
            "first-child link disagrees with the tree",
            u64::from(last),
        ));
    }
    while let Some(top) = path.pop() {
        top.close(last, NO_NODE, &mut doc)?;
    }

    let text_count = r.count(4)?;
    // Each text is a 4-byte length and its bytes, so what follows the
    // length prefixes bounds the arena (attributes come after the texts).
    let mut texts = TextArena::with_capacity(r.remaining() - 4 * text_count, text_count);
    for i in 0..text_count {
        if texts.push(r.str()?).is_none() {
            return Err(invalid("text arena exceeds 4 GiB", i as u64));
        }
    }
    if texts_needed > text_count as u64 {
        let index = doc
            .labels
            .iter()
            .position(|&l| l & TEXT_BIT != 0 && u64::from(l & !TEXT_BIT) >= text_count as u64);
        return Err(invalid(
            "text index out of range",
            index.unwrap_or(node_count) as u64,
        ));
    }
    doc.texts = texts;
    let attr_count = r.count(8)?;
    let mut attrs: Vec<(Sym, Box<str>)> = Vec::with_capacity(attr_count);
    for i in 0..attr_count {
        let sym = Sym(r.u32()?);
        if sym.index() >= doc.symbols.len() {
            return Err(invalid("attribute name symbol out of range", i as u64));
        }
        attrs.push((sym, r.str()?.into()));
    }
    r.expect_exhausted()?;
    let referenced = u64::from(doc.attr_offsets.last().copied().unwrap_or(0));
    if referenced != attr_count as u64 {
        let what = if referenced > attr_count as u64 {
            "attribute range out of bounds"
        } else {
            "attributes held by no node"
        };
        // The first node whose range passes the count, else the end.
        let index = doc
            .attr_offsets
            .iter()
            .skip(1)
            .position(|&end| u64::from(end) > attr_count as u64);
        return Err(invalid(what, index.unwrap_or(node_count) as u64));
    }
    doc.attrs = attrs;
    Ok(doc)
}

/// Encodes document statistics (the `STATS` section payload), maps in
/// sorted key order for byte determinism.
pub fn encode_stats(stats: &DocStats) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32);
    w.u64(stats.element_total);
    // HashMap iteration is unordered, but the very next line sorts.
    #[allow(clippy::disallowed_methods)]
    let mut tags: Vec<(Sym, u64)> = stats.tag_counts.iter().map(|(&s, &c)| (s, c)).collect();
    tags.sort_unstable();
    w.u64(tags.len() as u64);
    for (s, c) in tags {
        w.u32(s.0);
        w.u64(c);
    }
    for map in [&stats.pc_counts, &stats.ad_counts] {
        // HashMap iteration is unordered, but the very next line sorts.
        #[allow(clippy::disallowed_methods)]
        let mut pairs: Vec<(TagPair, u64)> = map.iter().map(|(&p, &c)| (p, c)).collect();
        pairs.sort_unstable();
        w.u64(pairs.len() as u64);
        for (TagPair(a, b), c) in pairs {
            w.u32(a.0);
            w.u32(b.0);
            w.u64(c);
        }
    }
    w.into_bytes()
}

/// Decodes a `STATS` payload; `symbol_count` bounds every tag reference.
pub fn decode_stats(bytes: &[u8], symbol_count: usize) -> Result<DocStats, CodecError> {
    let mut r = ByteReader::new(bytes);
    let element_total = r.u64()?;
    let check = |s: Sym, i: usize| -> Result<Sym, CodecError> {
        if s.index() >= symbol_count {
            Err(CodecError::Invalid {
                what: "statistics tag symbol out of range",
                index: i as u64,
            })
        } else {
            Ok(s)
        }
    };
    let n = r.count(12)?;
    let mut tag_counts = HashMap::with_capacity(n);
    for i in 0..n {
        let s = check(Sym(r.u32()?), i)?;
        let c = r.u64()?;
        if tag_counts.insert(s, c).is_some() {
            return Err(CodecError::Invalid {
                what: "duplicate tag-count key",
                index: i as u64,
            });
        }
    }
    let mut pair_maps: [HashMap<TagPair, u64>; 2] = [HashMap::new(), HashMap::new()];
    for map in &mut pair_maps {
        let n = r.count(16)?;
        map.reserve(n);
        for i in 0..n {
            let a = check(Sym(r.u32()?), i)?;
            let b = check(Sym(r.u32()?), i)?;
            let c = r.u64()?;
            if map.insert(TagPair(a, b), c).is_some() {
                return Err(CodecError::Invalid {
                    what: "duplicate tag-pair key",
                    index: i as u64,
                });
            }
        }
    }
    r.expect_exhausted()?;
    let [pc_counts, ad_counts] = pair_maps;
    Ok(DocStats {
        tag_counts,
        pc_counts,
        ad_counts,
        element_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const DOC: &str =
        "<a x=\"1\"><b><c>hi there</c></b><b y=\"2\">more text</b><d/><c>tail</c></a>";

    fn roundtrip(xml: &str) -> (Document, Document) {
        let doc = parse(xml).unwrap();
        let tags = encode_symbols(doc.symbols());
        let elems = encode_nodes(&doc);
        let back = decode_document(&tags, &elems).unwrap();
        (doc, back)
    }

    #[test]
    fn document_roundtrip_preserves_everything() {
        let (doc, back) = roundtrip(DOC);
        assert_eq!(doc.node_count(), back.node_count());
        assert_eq!(doc.root_element(), back.root_element());
        for n in doc.all_nodes() {
            assert_eq!(doc.kind(n), back.kind(n));
            assert_eq!(doc.parent(n), back.parent(n));
            assert_eq!(doc.first_child(n), back.first_child(n));
            assert_eq!(doc.next_sibling(n), back.next_sibling(n));
            assert_eq!(doc.start(n), back.start(n));
            assert_eq!(doc.end(n), back.end(n));
            assert_eq!(doc.level(n), back.level(n));
            assert_eq!(doc.text_content(n), back.text_content(n));
            assert_eq!(doc.attributes(n), back.attributes(n));
        }
        for (sym, name) in doc.symbols().iter() {
            assert_eq!(back.symbols().name(sym), name);
            assert_eq!(doc.nodes_with_tag(sym), back.nodes_with_tag(sym));
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let doc = parse(DOC).unwrap();
        assert_eq!(encode_nodes(&doc), encode_nodes(&doc));
        assert_eq!(encode_symbols(doc.symbols()), encode_symbols(doc.symbols()));
        let s = DocStats::compute(&doc);
        assert_eq!(encode_stats(&s), encode_stats(&s));
    }

    #[test]
    fn stats_roundtrip_preserves_counts() {
        let doc = parse(DOC).unwrap();
        let stats = DocStats::compute(&doc);
        let bytes = encode_stats(&stats);
        let back = decode_stats(&bytes, doc.symbols().len()).unwrap();
        assert_eq!(back.element_total(), stats.element_total());
        for t1 in stats.tags() {
            assert_eq!(back.tag_count(t1), stats.tag_count(t1));
            for t2 in stats.tags() {
                assert_eq!(back.pc_count(t1, t2), stats.pc_count(t1, t2));
                assert_eq!(back.ad_count(t1, t2), stats.ad_count(t1, t2));
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_equivalent() {
        // Exhaustively flip one byte at a time in a small document's ELEMS
        // payload: decode must return Err or a structurally valid document
        // (it must never panic). This is the codec-level version of the
        // store corruption suite.
        let doc = parse("<a><b>hi</b></a>").unwrap();
        let tags = encode_symbols(doc.symbols());
        let elems = encode_nodes(&doc);
        for i in 0..elems.len() {
            let mut bad = elems.clone();
            bad[i] ^= 0xff;
            let _ = decode_document(&tags, &bad);
        }
        for i in 0..tags.len() {
            let mut bad = tags.clone();
            bad[i] ^= 0xff;
            let _ = decode_document(&bad, &elems);
        }
    }

    #[test]
    fn truncation_is_typed() {
        let doc = parse(DOC).unwrap();
        let tags = encode_symbols(doc.symbols());
        let elems = encode_nodes(&doc);
        for cut in 0..elems.len() {
            assert!(decode_document(&tags, &elems[..cut]).is_err());
        }
    }

    #[test]
    fn dangling_references_are_invalid() {
        let doc = parse("<a><b/></a>").unwrap();
        let tags = encode_symbols(doc.symbols());
        let mut elems = encode_nodes(&doc);
        // Corrupt the root id field (first 4 bytes) to an out-of-range node.
        elems[0] = 0x7f;
        assert!(matches!(
            decode_document(&tags, &elems),
            Err(CodecError::Invalid { .. })
        ));
    }

    /// Field offsets inside a node record.
    const PARENT: usize = 5;
    const FIRST_CHILD: usize = 9;
    const NEXT_SIBLING: usize = 13;
    const END: usize = 21;
    const LEVEL: usize = 25;
    const ATTRS_START: usize = 29;
    const ATTRS_LEN: usize = 33;

    /// Overwrites `field` of record `node` in an `ELEMS` payload.
    fn patch(elems: &mut [u8], node: usize, field: usize, bytes: &[u8]) {
        let at = 12 + node * NODE_WIRE_BYTES + field;
        elems[at..at + bytes.len()].copy_from_slice(bytes);
    }

    fn invalid_what(tags: &[u8], elems: &[u8]) -> Option<(&'static str, u64)> {
        match decode_document(tags, elems) {
            Err(CodecError::Invalid { what, index }) => Some((what, index)),
            _ => None,
        }
    }

    /// Each way the records can disagree about the tree, one field at a
    /// time, named by the check that catches it and the node it names.
    #[test]
    fn records_that_disagree_about_the_tree_are_invalid() {
        // Nodes: 0 a, 1 b, 2 c, 3 "t", 4 d, 5 "u".
        let doc = parse("<a><b x=\"1\"><c/>t</b><d y=\"2\"/>u</a>").unwrap();
        let tags = encode_symbols(doc.symbols());
        let elems = encode_nodes(&doc);
        assert!(decode_document(&tags, &elems).is_ok());
        let u32s = |v: u32| v.to_le_bytes();
        // (name, node, field, new bytes, expected error)
        type Case = (&'static str, usize, usize, Vec<u8>, (&'static str, u64));
        let cases: [Case; 11] = [
            (
                "parent link to a closed node",
                4,
                PARENT,
                u32s(2).into(),
                ("parent is not an open ancestor", 4),
            ),
            (
                "parent link forward",
                2,
                PARENT,
                u32s(4).into(),
                ("parent is not an open ancestor", 2),
            ),
            (
                "a second root",
                4,
                PARENT,
                u32s(NO_NODE).into(),
                ("node other than the root without a parent", 4),
            ),
            (
                "a text node with children",
                4,
                PARENT,
                u32s(3).into(),
                ("text node has children", 4),
            ),
            (
                "first-child link elsewhere",
                1,
                FIRST_CHILD,
                u32s(3).into(),
                ("first-child link disagrees with the tree", 1),
            ),
            (
                "first-child link on a leaf",
                5,
                FIRST_CHILD,
                u32s(4).into(),
                ("first-child link disagrees with the tree", 5),
            ),
            (
                "next-sibling link elsewhere",
                1,
                NEXT_SIBLING,
                u32s(5).into(),
                ("next-sibling link disagrees with the tree", 1),
            ),
            (
                "level off by one",
                2,
                LEVEL,
                u32s(3).into(),
                ("level disagrees with the tree", 2),
            ),
            (
                "end off by one",
                2,
                END,
                u32s(doc.end(NodeId(2)) + 1).into(),
                ("region label end disagrees with the tree", 2),
            ),
            (
                "overlapping attribute ranges",
                4,
                ATTRS_START,
                u32s(0).into(),
                ("attributes not contiguous and in order", 4),
            ),
            (
                "a text node with attributes",
                3,
                ATTRS_LEN,
                1u16.to_le_bytes().into(),
                ("text node has attributes", 3),
            ),
        ];
        for (name, node, field, bytes, expect) in cases {
            let mut bad = elems.clone();
            patch(&mut bad, node, field, &bytes);
            assert_eq!(invalid_what(&tags, &bad), Some(expect), "{name}");
        }
        let mut bad = elems.clone();
        bad[..4].copy_from_slice(&u32s(1));
        assert_eq!(
            invalid_what(&tags, &bad),
            Some(("root is not node 0", 1)),
            "a root other than node 0"
        );
    }

    /// The `ELEMS` payload of `<a>` with one child record of `kind` and
    /// `payload`, and one text `"x"`, written field by field.
    fn root_and_child(kind: u8, payload: u32) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(128);
        w.u32(0);
        w.u64(2);
        // kind, payload, parent, first child, next sibling, start, end, level
        for rec in [
            [0, 0, NO_NODE, 1, NO_NODE, 0, 3, 0],
            [u32::from(kind), payload, 0, NO_NODE, NO_NODE, 1, 2, 1],
        ] {
            w.u8(rec[0] as u8);
            for v in &rec[1..] {
                w.u32(*v);
            }
            w.u32(0);
            w.u16(0);
        }
        w.u64(1);
        w.str("x");
        w.u64(0);
        w.into_bytes()
    }

    #[test]
    fn labels_at_two_to_the_31_are_rejected() {
        let doc = parse("<a>x</a>").unwrap();
        let tags = encode_symbols(doc.symbols());
        assert_eq!(root_and_child(1, 0), encode_nodes(&doc));
        let past = Some(("symbol id or text ordinal past 2^31", 1));
        for (kind, payload, expect) in [
            (1, TEXT_BIT, past),
            (1, u32::MAX, past),
            (1, TEXT_BIT - 1, Some(("text index out of range", 1))),
            (0, TEXT_BIT, past),
            (0, TEXT_BIT - 1, Some(("tag symbol out of range", 1))),
        ] {
            let elems = root_and_child(kind, payload);
            assert_eq!(
                invalid_what(&tags, &elems),
                expect,
                "kind {kind} payload {payload:#x}"
            );
        }
    }

    #[test]
    fn stats_symbol_bounds_are_enforced() {
        let doc = parse("<a><b/></a>").unwrap();
        let stats = DocStats::compute(&doc);
        let bytes = encode_stats(&stats);
        // Claim a smaller symbol table than the stats reference.
        assert!(matches!(
            decode_stats(&bytes, 0),
            Err(CodecError::Invalid { .. })
        ));
    }
}
