//! Binary codec for [`Document`] and [`DocStats`] — the payloads of the
//! persistent corpus store's `TAGS`, `ELEMS`, and `STATS` sections.
//!
//! Encoding is **deterministic**: hash maps are emitted in sorted key
//! order and nothing environment-dependent (timestamps, pointer values)
//! is written, so the same document always produces the same bytes. The
//! store's golden-file drift check depends on this.
//!
//! Decoding is **total and validating**: every cross-reference a decoded
//! [`Document`] could later index with — parent/child/sibling ids, tag
//! and attribute symbols, text-arena indices, attribute ranges, the root
//! id — is bounds-checked here, so downstream code may keep using plain
//! indexing without risking a panic on a corrupted store. Structural
//! invariants that algorithms rely on (region `start < end`, document-
//! order-monotonic starts) are validated too.
//!
//! [`decode_document`] reads in **one pass** over `ELEMS`. The node records
//! are one length-checked byte run of fixed-size records; each record is
//! validated as it is read (kind, tag-symbol range, link ranges,
//! `start < end`, document order) and each element goes straight into its
//! tag's list. Texts go into one arena (a `String` plus an offset column),
//! UTF-8-checked per string. The two checks that need counts written
//! *after* the records — text ordinals against the text count, attribute
//! ranges against the attribute count — are done on the largest reference
//! seen, once that count is read; only on failure are the records
//! rescanned, so the error still names the first offending node.
//!
//! The set of rejected inputs is the same as a check-everything-in-order
//! decoder's. For an input with several defects, which one is reported
//! can differ: record-local defects are found before the text and
//! attribute payloads are read, and the text check runs before the
//! attribute payload is read.

use crate::document::{Document, NodeData, NodeId, NodeKind, TextArena};
use crate::stats::{DocStats, TagPair};
use crate::symbols::{Sym, SymbolTable};
use crate::wire::{ByteReader, ByteWriter, WireError};
use std::collections::HashMap;
use std::fmt;

/// Sentinel for `Option<NodeId>::None` on the wire.
const NO_NODE: u32 = u32::MAX;
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

fn opt_node(v: Option<NodeId>) -> u32 {
    v.map(|n| n.0).unwrap_or(NO_NODE)
}

fn node_opt(
    v: u32,
    node_count: usize,
    what: &'static str,
    index: u64,
) -> Result<Option<NodeId>, CodecError> {
    if v == NO_NODE {
        Ok(None)
    } else if (v as usize) < node_count {
        Ok(Some(NodeId(v)))
    } else {
        Err(CodecError::Invalid { what, index })
    }
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

/// Encodes a document's node arena, text arena, and attributes (the
/// `ELEMS` section payload). The per-tag index is not written — it is
/// rebuilt on decode from the (document-ordered) node arena.
pub fn encode_nodes(doc: &Document) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32 + doc.nodes.len() * NODE_WIRE_BYTES);
    w.u32(doc.root.0);
    w.u64(doc.nodes.len() as u64);
    for n in &doc.nodes {
        match n.kind {
            NodeKind::Element { tag } => {
                w.u8(0);
                w.u32(tag.0);
            }
            NodeKind::Text { text } => {
                w.u8(1);
                w.u32(text);
            }
        }
        w.u32(opt_node(n.parent));
        w.u32(opt_node(n.first_child));
        w.u32(opt_node(n.next_sibling));
        w.u32(n.start);
        w.u32(n.end);
        w.u32(n.level);
        w.u32(n.attrs_start);
        w.u16(n.attrs_len);
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

    /// One past the last attribute slot this record references.
    fn attrs_end(&self) -> u64 {
        u64::from(self.attrs_start) + u64::from(self.attrs_len)
    }
}

/// Decodes `TAGS` + `ELEMS` payloads into a fully validated [`Document`].
///
/// One pass over the node records validates each as it is read — kind,
/// tag-symbol range, link ranges, `start < end`, starts in document order
/// — and files each element in its tag's list. The text-index and
/// attribute-range checks need counts that follow the records, so the pass
/// tracks the largest reference of each and checks it once the count is
/// known (see the module doc for what that does to error order).
pub fn decode_document(tag_bytes: &[u8], elem_bytes: &[u8]) -> Result<Document, CodecError> {
    let symbols = decode_symbols(tag_bytes)?;
    let mut r = ByteReader::new(elem_bytes);
    let root_raw = r.u32()?;
    let node_count = r.count(NODE_WIRE_BYTES)?;
    // `count` bounded node_count * NODE_WIRE_BYTES by the bytes remaining.
    let (records, _) = r
        .bytes(node_count * NODE_WIRE_BYTES)?
        .as_chunks::<NODE_WIRE_BYTES>();
    let mut nodes: Vec<NodeData> = Vec::with_capacity(node_count);
    let mut tag_index: Vec<Vec<NodeId>> = vec![Vec::new(); symbols.len()];
    // One past the largest text ordinal / attribute slot referenced.
    let mut texts_needed = 0u64;
    let mut attrs_needed = 0u64;
    let mut prev_start: Option<u32> = None;
    for (i, bytes) in records.iter().enumerate() {
        let idx = i as u64;
        let rec = Record::read(bytes);
        let kind = match rec.kind {
            0 => {
                let tag = Sym(rec.payload);
                let Some(list) = tag_index.get_mut(tag.index()) else {
                    return Err(CodecError::Invalid {
                        what: "tag symbol out of range",
                        index: idx,
                    });
                };
                list.push(NodeId(i as u32));
                NodeKind::Element { tag }
            }
            1 => {
                texts_needed = texts_needed.max(u64::from(rec.payload) + 1);
                NodeKind::Text { text: rec.payload }
            }
            _ => {
                return Err(CodecError::Invalid {
                    what: "unknown node kind",
                    index: idx,
                })
            }
        };
        let parent = node_opt(rec.parent, node_count, "parent id out of range", idx)?;
        let first_child = node_opt(
            rec.first_child,
            node_count,
            "first-child id out of range",
            idx,
        )?;
        let next_sibling = node_opt(
            rec.next_sibling,
            node_count,
            "next-sibling id out of range",
            idx,
        )?;
        if rec.start >= rec.end {
            return Err(CodecError::Invalid {
                what: "region label start >= end",
                index: idx,
            });
        }
        if prev_start.is_some_and(|p| rec.start <= p) {
            return Err(CodecError::Invalid {
                what: "node starts not in document order",
                index: idx,
            });
        }
        prev_start = Some(rec.start);
        attrs_needed = attrs_needed.max(rec.attrs_end());
        nodes.push(NodeData {
            kind,
            parent,
            first_child,
            next_sibling,
            start: rec.start,
            end: rec.end,
            level: rec.level,
            attrs_start: rec.attrs_start,
            attrs_len: rec.attrs_len,
        });
    }

    let text_count = r.count(4)?;
    // Each text is a 4-byte length and its bytes, so what follows the
    // length prefixes bounds the arena (attributes come after the texts).
    let mut texts = TextArena::with_capacity(r.remaining() - 4 * text_count, text_count);
    for i in 0..text_count {
        if texts.push(r.str()?).is_none() {
            return Err(CodecError::Invalid {
                what: "text arena exceeds 4 GiB",
                index: i as u64,
            });
        }
    }
    if texts_needed > text_count as u64 {
        return Err(first_invalid(records, "text index out of range", |rec| {
            rec.kind == 1 && u64::from(rec.payload) >= text_count as u64
        }));
    }
    let attr_count = r.count(8)?;
    let mut attrs: Vec<(Sym, Box<str>)> = Vec::with_capacity(attr_count);
    for i in 0..attr_count {
        let sym = Sym(r.u32()?);
        if sym.index() >= symbols.len() {
            return Err(CodecError::Invalid {
                what: "attribute name symbol out of range",
                index: i as u64,
            });
        }
        attrs.push((sym, r.str()?.into()));
    }
    r.expect_exhausted()?;
    if attrs_needed > attr_count as u64 {
        return Err(first_invalid(
            records,
            "attribute range out of bounds",
            |rec| rec.attrs_end() > attr_count as u64,
        ));
    }

    let root = NodeId(root_raw);
    match nodes.get(root.index()).map(|n| n.kind) {
        None => {
            return Err(CodecError::Invalid {
                what: "root id out of range",
                index: root_raw as u64,
            })
        }
        Some(NodeKind::Text { .. }) => {
            return Err(CodecError::Invalid {
                what: "root is not an element",
                index: root_raw as u64,
            })
        }
        Some(NodeKind::Element { .. }) => {}
    }

    let subtree_last = crate::document::compute_subtree_last(&nodes);
    Ok(Document {
        nodes,
        texts,
        attrs,
        symbols,
        tag_index,
        root,
        subtree_last,
    })
}

/// The error path of a check deferred past the record pass: rescans the
/// records so the error names the first node that fails `bad`.
fn first_invalid(
    records: &[[u8; NODE_WIRE_BYTES]],
    what: &'static str,
    bad: impl Fn(&Record) -> bool,
) -> CodecError {
    let index = records
        .iter()
        .position(|b| bad(&Record::read(b)))
        .unwrap_or(records.len()) as u64;
    CodecError::Invalid { what, index }
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
