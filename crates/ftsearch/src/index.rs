//! Element-granularity positional inverted index — the IR-engine side of
//! the paper's Figure 7 architecture (Sections 2.2 and 5.1).
//!
//! Every token of every text node is attributed to the text node's *parent
//! element* (its direct container). Posting lists are keyed by stemmed term
//! and sorted by element id — i.e. by document order, which lets the
//! evaluator answer "does the subtree of `n` contain this term?" with a
//! binary search, because a subtree is a contiguous id range.
//!
//! Positions are global token offsets (document order), so phrase and
//! window predicates compare positions *within one posting entry* only —
//! tokens from different elements can never form a phrase.
//!
//! A term's [`Posting`] is two arrays: its entries `(node, tf, pos)` in
//! node order, and one `positions` arena holding every entry's positions
//! back to back, `tf` of them from offset `pos`
//! ([`Posting::positions_of`]). That is one allocation per term, not one
//! per entry. On disk (store format v3) the index is columns instead: the
//! sorted term names with their entry ranges, and one `node`, one `tf` and
//! one positions column over every entry ([`InvertedIndex::encode`]).
//! [`InvertedIndex::decode`] is the one validator: it reads the columns in
//! place, checks the canonical form, and copies each term's positions out
//! of the shared column in one piece.

use crate::stem::stem;
use crate::tokenize::for_each_token;
use flexpath_xmldom::wire::{ByteReader, ByteWriter};
use flexpath_xmldom::{CodecError, Document, NodeId};
use std::collections::HashMap;

/// One element's occurrences of a term. The positions themselves live in
/// the owning [`Posting`]'s arena: [`Posting::positions_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostingEntry {
    /// The element whose *direct* text contains the term.
    pub node: NodeId,
    /// Term frequency within this element's direct text (≥ 1).
    pub tf: u32,
    /// Offset of this entry's first position in [`Posting::positions`].
    pub pos: u32,
}

/// The posting list of one term: entries sorted by element id, and every
/// entry's positions in one arena, entry after entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Posting {
    /// Entries in ascending [`NodeId`] order.
    pub entries: Vec<PostingEntry>,
    /// Global token positions, `tf` per entry in entry order, each entry's
    /// run ascending.
    pub positions: Vec<u32>,
}

impl Posting {
    /// Document frequency: number of elements directly containing the term.
    pub fn df(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Global token positions of `entry`'s occurrences, ascending. `entry`
    /// must come from this posting; any other yields an arbitrary slice of
    /// this arena, or an empty one.
    #[inline]
    pub fn positions_of(&self, entry: &PostingEntry) -> &[u32] {
        let start = entry.pos as usize;
        self.positions
            .get(start..start + entry.tf as usize)
            .unwrap_or(&[])
    }

    /// Index of the first entry with `node >= id`.
    pub fn lower_bound(&self, id: NodeId) -> usize {
        self.entries.partition_point(|e| e.node < id)
    }

    /// Whether any entry falls in `[from, to]`.
    pub fn any_in_range(&self, from: NodeId, to: NodeId) -> bool {
        let lo = self.lower_bound(from);
        lo < self.entries.len() && self.entries[lo].node <= to
    }

    /// Records one occurrence at `position` in `node` during a build, where
    /// positions arrive ascending. Extends the last entry when it is the
    /// same node; otherwise starts a new one.
    fn push_occurrence(&mut self, node: NodeId, position: u32) {
        match self.entries.last_mut() {
            Some(last) if last.node == node => last.tf += 1,
            _ => self.entries.push(PostingEntry {
                node,
                tf: 1,
                pos: self.positions.len() as u32,
            }),
        }
        self.positions.push(position);
    }

    /// Restores node order after a build. A parent's text can resume after
    /// a child's subtree (mixed content), so one element may own several
    /// runs, out of id order. Stable-sorting the runs by node and
    /// concatenating each node's runs keeps its positions ascending.
    fn normalize(&mut self) {
        if self.entries.windows(2).all(|w| w[0].node < w[1].node) {
            return;
        }
        let mut runs = std::mem::take(&mut self.entries);
        runs.sort_by_key(|e| e.node);
        let arena = std::mem::take(&mut self.positions);
        self.positions.reserve_exact(arena.len());
        for run in runs {
            let start = run.pos as usize;
            self.positions
                .extend_from_slice(&arena[start..start + run.tf as usize]);
            match self.entries.last_mut() {
                Some(last) if last.node == run.node => last.tf += run.tf,
                _ => self.entries.push(PostingEntry {
                    pos: (self.positions.len() - run.tf as usize) as u32,
                    ..run
                }),
            }
        }
    }
}

/// The inverted index over one document.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    // lint:allow(determinism): never iterated on an output path — lookups
    // are keyed, df sums are order-free, and encode() sorts terms first.
    postings: HashMap<Box<str>, Posting>,
    /// Elements with at least one direct text token (the `N` of idf).
    scoring_elements: u64,
}

impl InvertedIndex {
    /// Builds the index in one pass over the document's text nodes.
    pub fn build(doc: &Document) -> Self {
        // lint:allow(determinism): hot build-path map; see the field note —
        // no iteration order reaches scores or serialized bytes.
        let mut postings: HashMap<Box<str>, Posting> = HashMap::new();
        let mut scoring: Vec<bool> = vec![false; doc.node_count()];
        let mut position = 0u32;
        for n in doc.all_nodes() {
            let Some(text) = doc.text_content(n) else {
                continue;
            };
            // Text nodes always have an element parent; a root text node
            // cannot exist in a well-formed document, so skip defensively.
            let Some(parent) = doc.parent(n) else {
                continue;
            };
            scoring[parent.index()] = true;
            for_each_token(text, |tok| {
                let stemmed = stem(tok);
                postings
                    .entry(stemmed.into_boxed_str())
                    .or_default()
                    .push_occurrence(parent, position);
                position += 1;
            });
        }
        for posting in postings.values_mut() {
            posting.normalize();
        }
        InvertedIndex {
            postings,
            scoring_elements: scoring.iter().filter(|s| **s).count() as u64,
        }
    }

    /// Posting list for an (already stemmed) term.
    pub fn posting(&self, stemmed_term: &str) -> Option<&Posting> {
        self.postings.get(stemmed_term)
    }

    /// Document frequency of an (already stemmed) term.
    pub fn df(&self, stemmed_term: &str) -> u64 {
        self.posting(stemmed_term).map_or(0, Posting::df)
    }

    /// Smoothed inverse document frequency, `ln(1 + N / df)`; 0 for absent
    /// terms.
    pub fn idf(&self, stemmed_term: &str) -> f64 {
        let df = self.df(stemmed_term);
        if df == 0 {
            0.0
        } else {
            (1.0 + self.scoring_elements as f64 / df as f64).ln()
        }
    }

    /// Number of elements with direct text (the idf denominator base).
    pub fn scoring_elements(&self) -> u64 {
        self.scoring_elements
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Total number of posting entries across all terms (one per
    /// `(term, element)` pair). This is what the store charges against the
    /// governor's posting budget at load time.
    pub fn posting_entry_count(&self) -> u64 {
        self.postings.values().map(Posting::df).sum()
    }

    /// Encodes the index as two byte payloads of columns (store format
    /// v3): the term dictionary (`TERMS` section) and the posting lists
    /// (`POSTINGS` section).
    ///
    /// ```text
    /// TERMS     scoring elements  u64
    ///           name_ends         T x u32   term i is names[name_ends[i-1]..name_ends[i]]
    ///           entry_ends        T x u32   term i owns entries entry_ends[i-1]..entry_ends[i]
    ///           names             blob
    /// POSTINGS  nodes             E x u32
    ///           tfs               E x u32
    ///           positions         P x u32   each entry's tf positions, entry after entry
    /// ```
    ///
    /// Each column is a `u32` count and its little-endian `u32`s, the blob a
    /// byte length, the bytes and zero padding to four (see
    /// [`ByteWriter::u32s`] and [`ByteWriter::padded_str`]). Terms are
    /// emitted in lexicographic byte order and each posting's entries are
    /// already node-sorted, so the output is deterministic — a requirement
    /// of the store's golden-file drift check.
    pub fn encode(&self) -> (Vec<u8>, Vec<u8>) {
        let mut terms: Vec<(&Box<str>, &Posting)> = self
            .postings
            .keys()
            .filter_map(|term| self.postings.get_key_value(term))
            .collect();
        terms.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let names = terms.iter().map(|(term, _)| term.as_ref());
        // The writers grow as they go: presizing them measured no faster,
        // and left more of the heap resident after a save.
        let mut tw = ByteWriter::new();
        tw.u64(self.scoring_elements);
        tw.u32s(names.clone().scan(0u32, |end, name| {
            *end += name.len() as u32;
            Some(*end)
        }));
        tw.u32s(terms.iter().scan(0u32, |end, (_, posting)| {
            *end += posting.entries.len() as u32;
            Some(*end)
        }));
        tw.padded_str(names);
        let entries = || terms.iter().flat_map(|(_, posting)| &posting.entries);
        let mut pw = ByteWriter::new();
        pw.u32s(entries().map(|e| e.node.0));
        pw.u32s(entries().map(|e| e.tf));
        pw.u32s(terms.iter().flat_map(|(_, posting)| {
            posting
                .entries
                .iter()
                .flat_map(|e| posting.positions_of(e).iter().copied())
        }));
        (tw.into_bytes(), pw.into_bytes())
    }

    /// Decodes an index from `TERMS` + `POSTINGS` payloads produced by
    /// [`InvertedIndex::encode`]. `node_count` is the owning document's
    /// node count and bounds every element reference.
    ///
    /// This is the one index validator. It reads the columns in place and
    /// checks the canonical form end to end, so lookups and binary searches
    /// on the decoded index behave identically to a freshly built one. Per
    /// term: its name ends at a char boundary after the previous one and
    /// sorts strictly after the previous name; its entry range is non-empty
    /// and follows the previous one; its nodes are in range and strictly
    /// ascending, each `tf > 0`; its positions are the run the `tf` prefix
    /// sums give, copied into the term's arena in one piece and strictly
    /// ascending within each entry. Every name byte, entry and position
    /// belongs to some term.
    pub fn decode(
        term_bytes: &[u8],
        posting_bytes: &[u8],
        node_count: usize,
    ) -> Result<Self, CodecError> {
        let mut tr = ByteReader::new(term_bytes);
        let scoring_elements = tr.u64()?;
        let name_ends = tr.u32s()?;
        let entry_ends = tr.u32s()?;
        let names = tr.padded_str()?;
        tr.expect_exhausted()?;
        let mut pr = ByteReader::new(posting_bytes);
        let nodes = pr.u32s()?;
        let tfs = pr.u32s()?;
        let positions = pr.u32s()?;
        pr.expect_exhausted()?;

        if entry_ends.len() != name_ends.len() {
            return Err(invalid(
                "entry ends disagree with the term count",
                entry_ends.len() as u64,
            ));
        }
        if tfs.len() != nodes.len() {
            return Err(invalid(
                "tf column length disagrees with the nodes",
                tfs.len() as u64,
            ));
        }
        // lint:allow(determinism): decode-path map, keyed lookups only; the
        // serialized form it came from is already sorted.
        let mut postings: HashMap<Box<str>, Posting> = HashMap::with_capacity(name_ends.len());
        let (mut name_start, mut entry_start, mut pos_start) = (0usize, 0usize, 0usize);
        let mut prev_name: Option<&str> = None;
        for (i, (name_end, entry_end)) in name_ends.iter().zip(entry_ends.iter()).enumerate() {
            let idx = i as u64;
            let Some(name) = names.get(name_start..name_end as usize) else {
                return Err(invalid("term name ends not ascending char boundaries", idx));
            };
            if prev_name.is_some_and(|prev| name <= prev) {
                return Err(invalid("terms not strictly sorted", idx));
            }
            prev_name = Some(name);
            name_start = name_end as usize;
            let range = entry_start..entry_end as usize;
            let (Some(term_nodes), Some(term_tfs)) = (nodes.get(range.clone()), tfs.get(range))
            else {
                return Err(invalid("entry ends not ascending", idx));
            };
            if term_nodes.is_empty() {
                return Err(invalid("term with empty posting list", idx));
            }
            entry_start = entry_end as usize;
            let mut entries: Vec<PostingEntry> = Vec::with_capacity(term_nodes.len());
            let mut pos = 0u32;
            for (node, tf) in term_nodes.iter().zip(term_tfs.iter()) {
                if node as usize >= node_count {
                    return Err(invalid("posting node id out of range", u64::from(node)));
                }
                if entries.last().is_some_and(|last| NodeId(node) <= last.node) {
                    return Err(invalid("posting entries not node-sorted", u64::from(node)));
                }
                if tf == 0 {
                    return Err(invalid("term frequency of zero", u64::from(node)));
                }
                entries.push(PostingEntry {
                    node: NodeId(node),
                    tf,
                    pos,
                });
                pos = pos
                    .checked_add(tf)
                    .ok_or(invalid("posting positions exceed the u32 arena", idx))?;
            }
            let Some(run) = positions.get(pos_start..pos_start + pos as usize) else {
                return Err(invalid("term frequencies sum past the positions", idx));
            };
            pos_start += pos as usize;
            let positions = run.to_vec();
            // Strictly ascending within each entry: a position may be at or
            // below the one before it only where the next entry starts.
            let (mut tfs_left, mut left, mut prev) = (term_tfs.iter(), 0, 0);
            for &p in &positions {
                if left == 0 {
                    left = tfs_left.next().unwrap_or(1);
                } else if p <= prev {
                    return Err(invalid("positions not strictly ascending", u64::from(p)));
                }
                prev = p;
                left -= 1;
            }
            postings.insert(name.into(), Posting { entries, positions });
        }
        if name_start != names.len() {
            return Err(invalid(
                "term name bytes past the last end",
                name_ends.len() as u64,
            ));
        }
        if entry_start != nodes.len() {
            return Err(invalid(
                "posting entries held by no term",
                entry_start as u64,
            ));
        }
        if pos_start != positions.len() {
            return Err(invalid("positions held by no entry", pos_start as u64));
        }
        Ok(InvertedIndex {
            postings,
            scoring_elements,
        })
    }
}

fn invalid(what: &'static str, index: u64) -> CodecError {
    CodecError::Invalid { what, index }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_xmldom::parse;

    fn index_of(xml: &str) -> (Document, InvertedIndex) {
        let doc = parse(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        (doc, idx)
    }

    #[test]
    fn tokens_attributed_to_direct_parent() {
        let (doc, idx) = index_of("<a>alpha <b>beta</b> gamma</a>");
        let a = doc.root_element();
        let b = doc.nodes_with_tag_name("b")[0];
        let alpha = idx.posting("alpha").unwrap();
        assert_eq!(alpha.entries.len(), 1);
        assert_eq!(alpha.entries[0].node, a);
        let beta = idx.posting("beta").unwrap();
        assert_eq!(beta.entries[0].node, b);
    }

    #[test]
    fn positions_are_global_and_increasing() {
        let (_, idx) = index_of("<a>alpha beta <b>gamma</b> delta</a>");
        let pos = |t: &str| {
            let p = idx.posting(t).unwrap();
            p.positions_of(&p.entries[0])[0]
        };
        assert!(pos("alpha") < pos("beta"));
        assert!(pos("beta") < pos("gamma"));
        assert!(pos("gamma") < pos("delta"));
    }

    #[test]
    fn repeated_terms_accumulate_tf() {
        let (_, idx) = index_of("<a>gold gold gold</a>");
        let p = idx.posting("gold").unwrap();
        assert_eq!(p.entries.len(), 1);
        assert_eq!(p.entries[0].tf, 3);
        assert_eq!(p.positions_of(&p.entries[0]), &[0, 1, 2]);
    }

    #[test]
    fn terms_are_stemmed_at_index_time() {
        let (_, idx) = index_of("<a>streaming algorithms</a>");
        assert!(idx.posting("stream").is_some());
        assert!(idx.posting("algorithm").is_some());
        assert!(idx.posting("streaming").is_none());
    }

    #[test]
    fn df_and_idf_behave() {
        let (_, idx) = index_of("<r><a>gold</a><a>gold</a><a>silver</a></r>");
        assert_eq!(idx.df("gold"), 2);
        assert_eq!(idx.df("silver"), 1);
        assert_eq!(idx.scoring_elements(), 3);
        assert!(idx.idf("silver") > idx.idf("gold"));
        assert_eq!(idx.idf("missing"), 0.0);
    }

    #[test]
    fn range_queries_respect_subtrees() {
        let (doc, idx) = index_of("<r><a>gold</a><b>gold</b></r>");
        let a = doc.nodes_with_tag_name("a")[0];
        let b = doc.nodes_with_tag_name("b")[0];
        let p = idx.posting("gold").unwrap();
        assert!(p.any_in_range(a, doc.subtree_last(a)));
        assert!(p.any_in_range(b, doc.subtree_last(b)));
    }

    #[test]
    fn posting_entries_sorted_by_node() {
        let (_, idx) = index_of("<r><a>x1</a><b>x1</b><c>x1</c></r>");
        let p = idx.posting("x1").unwrap();
        for w in p.entries.windows(2) {
            assert!(w[0].node < w[1].node);
        }
    }

    #[test]
    fn empty_document_indexes_cleanly() {
        let (_, idx) = index_of("<a/>");
        assert_eq!(idx.term_count(), 0);
        assert_eq!(idx.scoring_elements(), 0);
    }

    #[test]
    fn codec_roundtrip_is_lossless() {
        let (doc, idx) = index_of(
            "<r><a>gold silver gold</a><b>gold <c>copper</c> tail</b><d>streaming</d></r>",
        );
        let (terms, postings) = idx.encode();
        let back = InvertedIndex::decode(&terms, &postings, doc.node_count()).unwrap();
        assert_eq!(back.term_count(), idx.term_count());
        assert_eq!(back.scoring_elements(), idx.scoring_elements());
        for t in ["gold", "silver", "copper", "tail", "stream"] {
            assert_eq!(back.posting(t), idx.posting(t), "posting for {t}");
            assert!((back.idf(t) - idx.idf(t)).abs() < 1e-15);
        }
        assert_eq!(back.encode(), idx.encode());
    }

    #[test]
    fn codec_encoding_is_deterministic() {
        let (_, idx) = index_of("<r><a>one two three</a><b>two three four</b></r>");
        assert_eq!(idx.encode(), idx.encode());
    }

    #[test]
    fn codec_rejects_any_single_byte_flip_or_decodes_validly() {
        let (doc, idx) = index_of("<r><a>gold silver</a><b>gold</b></r>");
        let (terms, postings) = idx.encode();
        for i in 0..terms.len() {
            let mut bad = terms.clone();
            bad[i] ^= 0xff;
            let _ = InvertedIndex::decode(&bad, &postings, doc.node_count());
        }
        for i in 0..postings.len() {
            let mut bad = postings.clone();
            bad[i] ^= 0xff;
            let _ = InvertedIndex::decode(&terms, &bad, doc.node_count());
        }
    }

    #[test]
    fn codec_rejects_truncation() {
        let (doc, idx) = index_of("<r><a>gold silver</a></r>");
        let (terms, postings) = idx.encode();
        for cut in 0..terms.len() {
            assert!(InvertedIndex::decode(&terms[..cut], &postings, doc.node_count()).is_err());
        }
        for cut in 0..postings.len() {
            assert!(InvertedIndex::decode(&terms, &postings[..cut], doc.node_count()).is_err());
        }
    }

    /// An index's v3 columns, owned, for a test to edit and re-encode.
    struct Cols {
        scoring: u64,
        name_ends: Vec<u32>,
        entry_ends: Vec<u32>,
        names: String,
        nodes: Vec<u32>,
        tfs: Vec<u32>,
        positions: Vec<u32>,
    }

    impl Cols {
        fn of(idx: &InvertedIndex) -> Cols {
            let (terms, postings) = idx.encode();
            let (mut tr, mut pr) = (ByteReader::new(&terms), ByteReader::new(&postings));
            Cols {
                scoring: tr.u64().unwrap(),
                name_ends: tr.u32s().unwrap().to_vec(),
                entry_ends: tr.u32s().unwrap().to_vec(),
                names: tr.padded_str().unwrap().into(),
                nodes: pr.u32s().unwrap().to_vec(),
                tfs: pr.u32s().unwrap().to_vec(),
                positions: pr.u32s().unwrap().to_vec(),
            }
        }

        fn decode(&self, node_count: usize) -> Result<InvertedIndex, CodecError> {
            let (mut tw, mut pw) = (ByteWriter::new(), ByteWriter::new());
            tw.u64(self.scoring);
            tw.u32s(self.name_ends.iter().copied());
            tw.u32s(self.entry_ends.iter().copied());
            tw.padded_str([self.names.as_str()]);
            pw.u32s(self.nodes.iter().copied());
            pw.u32s(self.tfs.iter().copied());
            pw.u32s(self.positions.iter().copied());
            InvertedIndex::decode(&tw.into_bytes(), &pw.into_bytes(), node_count)
        }
    }

    /// Each check of the index validator, one edited column at a time,
    /// named by the check that catches it and the item it names.
    #[test]
    fn columns_that_break_a_check_are_invalid() {
        // Terms "gold" (nodes 1 and 3, tf 2 and 1) and "silver" (node 1).
        let (doc, idx) = index_of("<r><a>gold silver gold</a><b>gold</b></r>");
        let n = doc.node_count();
        let good = Cols::of(&idx);
        assert_eq!(
            (&good.names[..], &good.name_ends[..], &good.entry_ends[..]),
            ("goldsilver", &[4, 10][..], &[2, 3][..])
        );
        assert_eq!(
            (&good.nodes[..], &good.tfs[..]),
            (&[1, 3, 1][..], &[2, 1, 1][..])
        );
        assert_eq!(good.positions, [0, 2, 3, 1]);
        assert!(good.decode(n).is_ok());
        type Case = (&'static str, fn(&mut Cols), (&'static str, u64));
        let cases: [Case; 15] = [
            (
                "entry ends short",
                |c| {
                    c.entry_ends.pop();
                },
                ("entry ends disagree with the term count", 1),
            ),
            (
                "tfs short",
                |c| {
                    c.tfs.pop();
                },
                ("tf column length disagrees with the nodes", 2),
            ),
            (
                "name end inside the previous name",
                |c| c.name_ends[1] = 3,
                ("term name ends not ascending char boundaries", 1),
            ),
            (
                "names unsorted",
                |c| {
                    c.names = "silvergold".into();
                    c.name_ends = vec![6, 10];
                },
                ("terms not strictly sorted", 1),
            ),
            (
                "a name repeated",
                |c| {
                    c.names = "goldgold".into();
                    c.name_ends = vec![4, 8];
                },
                ("terms not strictly sorted", 1),
            ),
            (
                "name bytes past the last end",
                |c| c.names.push('z'),
                ("term name bytes past the last end", 2),
            ),
            (
                "entry ends descending",
                |c| c.entry_ends = vec![2, 1],
                ("entry ends not ascending", 1),
            ),
            (
                "a term with no entries",
                |c| c.entry_ends = vec![0, 3],
                ("term with empty posting list", 0),
            ),
            (
                "entries held by no term",
                |c| c.entry_ends = vec![1, 2],
                ("posting entries held by no term", 2),
            ),
            (
                "node at its bound",
                |c| c.nodes[1] = 5,
                ("posting node id out of range", 5),
            ),
            (
                "nodes repeated",
                |c| c.nodes[1] = 1,
                ("posting entries not node-sorted", 1),
            ),
            (
                "tf of zero",
                |c| {
                    c.tfs[1] = 0;
                    c.positions.remove(2);
                },
                ("term frequency of zero", 3),
            ),
            (
                "tf sum past the positions",
                |c| c.tfs[2] = 2,
                ("term frequencies sum past the positions", 1),
            ),
            (
                "positions held by no entry",
                |c| c.positions.push(9),
                ("positions held by no entry", 4),
            ),
            (
                "a position repeated",
                |c| c.positions[1] = 0,
                ("positions not strictly ascending", 0),
            ),
        ];
        for (name, edit, expect) in cases {
            let mut bad = Cols::of(&idx);
            edit(&mut bad);
            match bad.decode(n) {
                Err(CodecError::Invalid { what, index }) => {
                    assert_eq!((what, index), expect, "{name}")
                }
                other => panic!("{name}: expected {expect:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn codec_rejects_out_of_range_nodes() {
        let (doc, idx) = index_of("<r><a>gold</a></r>");
        let (terms, postings) = idx.encode();
        // Shrink the claimed node count below the posting's node id.
        assert!(InvertedIndex::decode(&terms, &postings, 1).is_err());
        assert!(InvertedIndex::decode(&terms, &postings, doc.node_count()).is_ok());
    }
}
