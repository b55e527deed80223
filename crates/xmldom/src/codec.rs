//! Binary codec for [`Document`] and [`DocStats`] — the payloads of the
//! persistent corpus store's `TAGS`, `ELEMS`, and `STATS` sections.
//!
//! Encoding is **deterministic**: hash maps are emitted in sorted key
//! order and nothing environment-dependent (timestamps, pointer values)
//! is written, so the same document always produces the same bytes. The
//! store's golden-file drift check depends on this.
//!
//! `ELEMS` holds **columns** (store format v3): the document's own `labels`
//! and `parents`, then its texts and attributes. Each column is a `u32`
//! count followed by that many little-endian `u32`s; each string blob is a
//! `u32` byte length, the UTF-8 bytes, and zero padding to a multiple of
//! four, so every column starts 4-byte aligned:
//!
//! ```text
//! labels       n x u32   tag symbol, or TEXT_BIT | text ordinal
//! parents      n x u32   parent id; NO_NODE for node 0
//! text_ends    t x u32   text i is texts[text_ends[i-1]..text_ends[i]]
//! texts        blob
//! attr_owners  a x u32   the node of each attribute, in node order
//! attr_names   a x u32   symbol of each attribute's name
//! value_ends   a x u32   as text_ends, over values
//! values       blob
//! ```
//!
//! Levels, subtree ends, the per-tag lists, links and `(start, end, level)`
//! labels are **not stored**: the document derives them.
//!
//! Decoding is **total and validating**. [`decode_document`] reads each
//! column in place and copies it once, into its in-memory shape. Its body,
//! `decode_columns`, is the one column validator: it runs every check
//! before any accessor may index with a column, and derives levels, subtree
//! ends, attribute offsets and the per-tag lists in the same pass over the
//! nodes, against a stack holding the path from the root (the open nodes):
//! * node 0 is the only node without a parent, and is an element;
//! * each parent is on the path (so `parents[i] < i`) and is not a text;
//!   the level is the path's length, and a node's subtree closes when a
//!   later node's parent is above it on the path (or the nodes end);
//! * tag symbols are below the symbol count; text ordinals are in range
//!   and run `0, 1, 2, …` in node order, one per text;
//! * attribute owners ascend in node order, are nodes, and are elements;
//! * text and value ends ascend, are char boundaries of their blob, and
//!   end at its end; each blob is UTF-8, checked once; attribute name
//!   symbols are in range.

use crate::document::{Document, NodeId, TextArena, NO_NODE, TEXT_BIT};
use crate::stats::{DocStats, TagPair};
use crate::symbols::{Sym, SymbolTable};
use crate::wire::{ByteReader, ByteWriter, U32s, WireError};
use std::collections::HashMap;
use std::fmt;

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

/// Encodes a document's columns, texts and attributes (the `ELEMS` section
/// payload; see the module doc for the layout), straight from the
/// document: no column is collected first.
pub fn encode_nodes(doc: &Document) -> Vec<u8> {
    let (texts, text_ends) = doc.texts.parts();
    let values = doc.attrs.iter().map(|(_, v)| v.as_ref());
    // Grown as it goes, like the index's writers (`InvertedIndex::encode`).
    let mut w = ByteWriter::new();
    w.u32s(doc.labels.iter().copied());
    w.u32s(doc.parents.iter().copied());
    w.u32s(text_ends.iter().copied());
    w.padded_str([texts]);
    w.u32s(
        doc.all_nodes()
            .flat_map(|n| std::iter::repeat_n(n.0, doc.attributes(n).len())),
    );
    w.u32s(doc.attrs.iter().map(|(name, _)| name.0));
    w.u32s(values.clone().scan(0u32, |end, v| {
        *end += v.len() as u32;
        Some(*end)
    }));
    w.padded_str(values);
    w.into_bytes()
}

/// Decodes `TAGS` + `ELEMS` (format v3) payloads into a fully validated
/// [`Document`].
pub fn decode_document(tag_bytes: &[u8], elem_bytes: &[u8]) -> Result<Document, CodecError> {
    decode_columns(decode_symbols(tag_bytes)?, elem_bytes)
}

/// The one column validator (see the module doc for its checks): reads the
/// columns in place, copies `labels` and `parents` into the document, and
/// derives levels, subtree ends, the attribute offsets and the per-tag
/// lists in its pass over the nodes.
fn decode_columns(symbols: SymbolTable, elem_bytes: &[u8]) -> Result<Document, CodecError> {
    let mut r = ByteReader::new(elem_bytes);
    let labels = r.u32s()?.to_vec();
    let parents = r.u32s()?.to_vec();
    let text_ends = r.u32s()?;
    let texts = r.padded_str()?;
    let attr_owners = r.u32s()?;
    let attr_names = r.u32s()?;
    let value_ends = r.u32s()?;
    let values = r.padded_str()?;
    r.expect_exhausted()?;

    let n = labels.len();
    if parents.len() != n {
        return Err(invalid(
            "parent column length disagrees with the labels",
            parents.len() as u64,
        ));
    }
    if n == 0 {
        return Err(invalid("document has no nodes", 0));
    }
    let texts = text_arena(texts, text_ends)?;
    let text_count = texts.len();
    let attrs = attributes(&symbols, attr_names, value_ends, values)?;
    if attr_owners.len() != attrs.len() {
        let what = if attr_owners.len() > attrs.len() {
            "attribute range out of bounds"
        } else {
            "attributes held by no node"
        };
        return Err(invalid(what, attrs.len() as u64));
    }

    let mut levels = Vec::with_capacity(n);
    let mut subtree_last = Vec::with_capacity(n);
    let mut attr_offsets = Vec::with_capacity(n + 1);
    attr_offsets.push(0);
    let mut tag_index = vec![Vec::new(); symbols.len()];
    // The open nodes, root first, each with whether it is a text; each
    // entry's parent is the one below it.
    let mut path: Vec<(u32, bool)> = Vec::new();
    let mut next_text = 0u32;
    let mut owners = attr_owners.iter().peekable();
    let mut attrs_end = 0u32;
    for (id, (&label, &parent)) in (0u32..).zip(labels.iter().zip(&parents)) {
        let idx = u64::from(id);
        let text = label & TEXT_BIT != 0;
        if text {
            let ordinal = label & !TEXT_BIT;
            if ordinal as usize >= text_count {
                return Err(invalid("text index out of range", idx));
            }
            if ordinal != next_text {
                return Err(invalid("text ordinals not in node order", idx));
            }
            next_text += 1;
        } else {
            match tag_index.get_mut(label as usize) {
                Some(list) => list.push(NodeId(id)),
                None => return Err(invalid("tag symbol out of range", idx)),
            }
        }

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
            while let Some((top, _)) = path.pop_if(|(top, _)| *top > parent) {
                if let Some(slot) = subtree_last.get_mut(top as usize) {
                    *slot = NodeId(id - 1);
                }
            }
            match path.last() {
                Some(&(top, true)) if top == parent => {
                    return Err(invalid("text node has children", idx));
                }
                Some(&(top, false)) if top == parent => {}
                _ => return Err(invalid("parent is not an open ancestor", idx)),
            }
        }
        levels.push(path.len() as u32);
        subtree_last.push(NodeId(id));
        path.push((id, text));

        let attrs_start = attrs_end;
        while owners.next_if_eq(&id).is_some() {
            attrs_end += 1;
        }
        if text && attrs_end != attrs_start {
            return Err(invalid("text node has attributes", idx));
        }
        attr_offsets.push(attrs_end);
    }
    let last = NodeId(n as u32 - 1);
    for (top, _) in path {
        if let Some(slot) = subtree_last.get_mut(top as usize) {
            *slot = last;
        }
    }
    if next_text as usize != text_count {
        return Err(invalid("texts held by no node", u64::from(next_text)));
    }
    if let Some(owner) = owners.next() {
        let what = if (owner as usize) < n {
            "attribute owners not in node order"
        } else {
            "attribute owner out of range"
        };
        return Err(invalid(what, u64::from(attrs_end)));
    }
    Ok(Document {
        labels,
        parents,
        levels,
        subtree_last,
        attr_offsets,
        texts,
        attrs,
        symbols,
        tag_index,
    })
}

/// The text arena of `blob` cut at `ends`: each end a char boundary at or
/// after the one before, the last one the blob's end.
fn text_arena(blob: &str, ends: U32s<'_>) -> Result<TextArena, CodecError> {
    let mut offsets = Vec::with_capacity(ends.len() + 1);
    offsets.push(0);
    let mut start = 0;
    for (i, end) in ends.iter().enumerate() {
        if (end as usize) < start || !blob.is_char_boundary(end as usize) {
            return Err(invalid("text ends not ascending char boundaries", i as u64));
        }
        start = end as usize;
        offsets.push(end);
    }
    if start != blob.len() {
        return Err(invalid(
            "text bytes past the last text end",
            ends.len() as u64,
        ));
    }
    Ok(TextArena::from_parts(blob.to_owned(), offsets))
}

/// The attribute list: each name symbol in range, each value cut from
/// `blob` at `ends` under the rules of [`text_arena`].
fn attributes(
    symbols: &SymbolTable,
    names: U32s<'_>,
    ends: U32s<'_>,
    blob: &str,
) -> Result<Vec<(Sym, Box<str>)>, CodecError> {
    if ends.len() != names.len() {
        return Err(invalid(
            "attribute value ends disagree with the names",
            ends.len() as u64,
        ));
    }
    let mut attrs = Vec::with_capacity(names.len());
    let mut start = 0;
    for (i, (name, end)) in names.iter().zip(ends.iter()).enumerate() {
        if name as usize >= symbols.len() {
            return Err(invalid("attribute name symbol out of range", i as u64));
        }
        let Some(value) = blob.get(start..end as usize) else {
            return Err(invalid(
                "attribute value ends not ascending char boundaries",
                i as u64,
            ));
        };
        attrs.push((Sym(name), value.into()));
        start = end as usize;
    }
    if start != blob.len() {
        return Err(invalid(
            "attribute value bytes past the last end",
            ends.len() as u64,
        ));
    }
    Ok(attrs)
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

    /// Every accessor of `back` answers as `doc`'s does.
    fn assert_same(doc: &Document, back: &Document) {
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
    fn document_roundtrip_preserves_everything() {
        for xml in [DOC, "<a>é<b k=\"ü\"/>ß</a>", "<a/>"] {
            let doc = parse(xml).unwrap();
            let (tags, elems) = (encode_symbols(doc.symbols()), encode_nodes(&doc));
            assert_eq!(elems.len() % 4, 0, "{xml}: every column 4-byte aligned");
            assert_same(&doc, &decode_document(&tags, &elems).unwrap());
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
        let doc = parse("<a k=\"v\"><b>hi</b></a>").unwrap();
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

    /// A document's v3 columns, owned, for a test to edit and re-encode.
    struct Cols {
        labels: Vec<u32>,
        parents: Vec<u32>,
        text_ends: Vec<u32>,
        texts: Vec<u8>,
        attr_owners: Vec<u32>,
        attr_names: Vec<u32>,
        value_ends: Vec<u32>,
        values: Vec<u8>,
    }

    impl Cols {
        fn of(doc: &Document) -> Cols {
            let elems = encode_nodes(doc);
            let mut r = ByteReader::new(&elems);
            Cols {
                labels: r.u32s().unwrap().to_vec(),
                parents: r.u32s().unwrap().to_vec(),
                text_ends: r.u32s().unwrap().to_vec(),
                texts: r.padded_str().unwrap().into(),
                attr_owners: r.u32s().unwrap().to_vec(),
                attr_names: r.u32s().unwrap().to_vec(),
                value_ends: r.u32s().unwrap().to_vec(),
                values: r.padded_str().unwrap().into(),
            }
        }

        fn encode(&self) -> Vec<u8> {
            let blob = |w: &mut ByteWriter, bytes: &[u8]| {
                w.u32(bytes.len() as u32);
                w.bytes(bytes);
                w.bytes(&[0; 3][..bytes.len().next_multiple_of(4) - bytes.len()]);
            };
            let mut w = ByteWriter::new();
            w.u32s(self.labels.iter().copied());
            w.u32s(self.parents.iter().copied());
            w.u32s(self.text_ends.iter().copied());
            blob(&mut w, &self.texts);
            w.u32s(self.attr_owners.iter().copied());
            w.u32s(self.attr_names.iter().copied());
            w.u32s(self.value_ends.iter().copied());
            blob(&mut w, &self.values);
            w.into_bytes()
        }
    }

    fn invalid_what(tags: &[u8], elems: &[u8]) -> Option<(&'static str, u64)> {
        match decode_document(tags, elems) {
            Err(CodecError::Invalid { what, index }) => Some((what, index)),
            _ => None,
        }
    }

    /// Each check of the column validator, one edited column at a time,
    /// named by the check that catches it and the item it names.
    #[test]
    fn columns_that_break_a_check_are_invalid() {
        // Nodes: 0 a, 1 b, 2 c, 3 "é", 4 d, 5 "u"; b owns x, d owns y.
        let doc = parse("<a><b x=\"1\"><c/>é</b><d y=\"ü\"/>u</a>").unwrap();
        let tags = encode_symbols(doc.symbols());
        let good = Cols::of(&doc);
        assert_eq!(good.text_ends, [2, 3]);
        assert_eq!(good.attr_owners, [1, 4]);
        assert!(decode_document(&tags, &good.encode()).is_ok());
        let symbols = doc.symbols().len() as u32;
        type Case = (&'static str, fn(&mut Cols, u32), (&'static str, u64));
        let cases: [Case; 24] = [
            (
                "no nodes",
                |c, _| {
                    c.labels.clear();
                    c.parents.clear();
                },
                ("document has no nodes", 0),
            ),
            (
                "parents short",
                |c, _| {
                    c.parents.pop();
                },
                ("parent column length disagrees with the labels", 5),
            ),
            (
                "root with a parent",
                |c, _| c.parents[0] = 0,
                ("root has a parent", 0),
            ),
            (
                "root a text",
                |c, _| {
                    c.labels[0] = TEXT_BIT;
                    c.labels[3] = TEXT_BIT | 1;
                    c.labels[5] = TEXT_BIT | 2;
                    c.text_ends.push(3);
                },
                ("root is not an element", 0),
            ),
            (
                "a second root",
                |c, _| c.parents[4] = NO_NODE,
                ("node other than the root without a parent", 4),
            ),
            (
                "parent forward",
                |c, _| c.parents[2] = 4,
                ("parent is not an open ancestor", 2),
            ),
            (
                "parent closed",
                |c, _| c.parents[4] = 2,
                ("parent is not an open ancestor", 4),
            ),
            (
                "parent a text",
                |c, _| c.parents[4] = 3,
                ("text node has children", 4),
            ),
            (
                "tag symbol at its bound",
                |c, s| c.labels[2] = s,
                ("tag symbol out of range", 2),
            ),
            (
                "text ordinal at its bound",
                |c, _| c.labels[5] = TEXT_BIT | 2,
                ("text index out of range", 5),
            ),
            (
                "text ordinals swapped",
                |c, _| {
                    c.labels[3] = TEXT_BIT | 1;
                    c.labels[5] = TEXT_BIT;
                },
                ("text ordinals not in node order", 3),
            ),
            (
                "a text held by no node",
                |c, _| {
                    c.text_ends.push(3);
                },
                ("texts held by no node", 2),
            ),
            (
                "attribute owners descending",
                |c, _| c.attr_owners = vec![4, 1],
                ("attribute owners not in node order", 1),
            ),
            (
                "attribute owner at its bound",
                |c, _| c.attr_owners[1] = 6,
                ("attribute owner out of range", 1),
            ),
            (
                "attribute on a text",
                |c, _| c.attr_owners[1] = 3,
                ("text node has attributes", 3),
            ),
            (
                "attribute owners short",
                |c, _| {
                    c.attr_owners.pop();
                },
                ("attributes held by no node", 2),
            ),
            (
                "attribute owners long",
                |c, _| c.attr_owners.push(5),
                ("attribute range out of bounds", 2),
            ),
            (
                "text ends descending",
                |c, _| c.text_ends = vec![3, 2],
                ("text ends not ascending char boundaries", 1),
            ),
            (
                "text end inside a char",
                |c, _| c.text_ends[0] = 1,
                ("text ends not ascending char boundaries", 0),
            ),
            (
                "text bytes past the last end",
                |c, _| c.text_ends[1] = 2,
                ("text bytes past the last text end", 2),
            ),
            (
                "attribute name at its bound",
                |c, s| c.attr_names[1] = s,
                ("attribute name symbol out of range", 1),
            ),
            (
                "value end inside a char",
                |c, _| c.value_ends[1] = 2,
                ("attribute value ends not ascending char boundaries", 1),
            ),
            (
                "value ends short",
                |c, _| {
                    c.value_ends.pop();
                },
                ("attribute value ends disagree with the names", 1),
            ),
            (
                "value bytes past the last end",
                |c, _| c.value_ends[1] = 1,
                ("attribute value bytes past the last end", 2),
            ),
        ];
        for (name, edit, expect) in cases {
            let mut bad = Cols::of(&doc);
            edit(&mut bad, symbols);
            assert_eq!(invalid_what(&tags, &bad.encode()), Some(expect), "{name}");
        }
        // Blobs are UTF-8, checked once each, and padded with zeros.
        let mut bad = Cols::of(&doc);
        bad.texts[0] = 0xff;
        assert!(matches!(
            decode_document(&tags, &bad.encode()),
            Err(CodecError::Wire(WireError::InvalidUtf8 { .. }))
        ));
        let mut elems = good.encode();
        let last = elems.len() - 1;
        elems[last] = 1;
        assert!(matches!(
            decode_document(&tags, &elems),
            Err(CodecError::Wire(WireError::NonZeroPadding { .. }))
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
