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
//! per entry. [`InvertedIndex::decode`] checks each field where it reads
//! it: the term order and the entry count in the term loop; node range,
//! node order and `tf` per entry; and the strictly ascending positions
//! while it copies each entry's run into the arena.

use crate::stem::stem;
use crate::tokenize::for_each_token;
use flexpath_xmldom::wire::{ByteReader, ByteWriter, WireError};
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
    /// Total token count (all elements).
    total_tokens: u64,
    /// Prefix sums of per-node direct token counts (index i = tokens of
    /// nodes `0..i`), enabling O(1) subtree-length lookups for BM25.
    token_prefix: Vec<u64>,
}

impl InvertedIndex {
    /// Builds the index in one pass over the document's text nodes.
    pub fn build(doc: &Document) -> Self {
        // lint:allow(determinism): hot build-path map; see the field note —
        // no iteration order reaches scores or serialized bytes.
        let mut postings: HashMap<Box<str>, Posting> = HashMap::new();
        let mut scoring: Vec<bool> = vec![false; doc.node_count()];
        let mut direct_tokens: Vec<u64> = vec![0; doc.node_count()];
        let mut position = 0u32;
        let mut total_tokens = 0u64;
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
                total_tokens += 1;
                direct_tokens[parent.index()] += 1;
            });
        }
        let mut token_prefix = Vec::with_capacity(doc.node_count() + 1);
        token_prefix.push(0);
        let mut acc = 0u64;
        for &c in &direct_tokens {
            acc += c;
            token_prefix.push(acc);
        }
        for posting in postings.values_mut() {
            posting.normalize();
        }
        InvertedIndex {
            postings,
            scoring_elements: scoring.iter().filter(|s| **s).count() as u64,
            total_tokens,
            token_prefix,
        }
    }

    /// Number of tokens directly inside element `n` (not its descendants).
    pub fn direct_token_count(&self, n: NodeId) -> u64 {
        self.token_prefix[n.index() + 1] - self.token_prefix[n.index()]
    }

    /// Number of tokens in the whole subtree of `n` (O(1) via prefix sums).
    pub fn subtree_token_count(&self, doc: &Document, n: NodeId) -> u64 {
        let last = doc.subtree_last(n);
        self.token_prefix[last.index() + 1] - self.token_prefix[n.index()]
    }

    /// Average direct token count over scoring elements (BM25's `avgdl`).
    pub fn avg_element_length(&self) -> f64 {
        if self.scoring_elements == 0 {
            0.0
        } else {
            self.total_tokens as f64 / self.scoring_elements as f64
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

    /// Total number of indexed tokens.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
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

    /// Encodes the index as two byte payloads: the term dictionary
    /// (`TERMS` store section) and the posting lists (`POSTINGS` section).
    ///
    /// Terms are emitted in lexicographic byte order and each posting's
    /// entries are already node-sorted, so the output is deterministic —
    /// a requirement of the store's golden-file drift check.
    pub fn encode(&self) -> (Vec<u8>, Vec<u8>) {
        let mut terms: Vec<(&Box<str>, &Posting)> = self
            .postings
            .keys()
            .filter_map(|term| self.postings.get_key_value(term))
            .collect();
        terms.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut tw = ByteWriter::with_capacity(24 + terms.len() * 16);
        tw.u64(self.scoring_elements);
        tw.u64(terms.len() as u64);
        let mut pw = ByteWriter::new();
        for (term, posting) in terms {
            tw.str(term);
            tw.u64(posting.entries.len() as u64);
            for e in &posting.entries {
                pw.u32(e.node.0);
                pw.u32(e.tf);
                for &p in posting.positions_of(e) {
                    pw.u32(p);
                }
            }
        }
        (tw.into_bytes(), pw.into_bytes())
    }

    /// Decodes an index from `TERMS` + `POSTINGS` payloads produced by
    /// [`InvertedIndex::encode`]. `node_count` is the owning document's
    /// node count and bounds every element reference.
    ///
    /// Validates the canonical form end to end — terms strictly ascending,
    /// entry nodes strictly ascending and in range, positions strictly
    /// ascending and non-empty — so lookups and binary searches on the
    /// decoded index behave identically to a freshly built one. Each
    /// entry's positions are one length-checked byte run, appended to its
    /// term's arena as they are checked.
    pub fn decode(
        term_bytes: &[u8],
        posting_bytes: &[u8],
        node_count: usize,
    ) -> Result<Self, CodecError> {
        let mut tr = ByteReader::new(term_bytes);
        let scoring_elements = tr.u64()?;
        let term_count = tr.count(12)?;
        let mut pr = ByteReader::new(posting_bytes);
        // lint:allow(determinism): decode-path map, keyed lookups only; the
        // serialized form it came from is already sorted.
        let mut postings: HashMap<Box<str>, Posting> = HashMap::with_capacity(term_count);
        let mut direct_tokens: Vec<u64> = vec![0; node_count];
        let mut total_tokens = 0u64;
        let mut prev_term: Option<&str> = None;
        for i in 0..term_count {
            let idx = i as u64;
            let term = tr.str()?;
            if prev_term.is_some_and(|prev| term <= prev) {
                return Err(CodecError::Invalid {
                    what: "terms not strictly sorted",
                    index: idx,
                });
            }
            prev_term = Some(term);
            let entry_count = {
                // Each entry is ≥ 12 bytes in the postings stream.
                let at = tr.position();
                let n = tr.u64()?;
                if n > (pr.remaining() as u64) / 12 {
                    return Err(CodecError::Wire(WireError::ImplausibleLength {
                        at,
                        len: n,
                    }));
                }
                n as usize
            };
            if entry_count == 0 {
                return Err(CodecError::Invalid {
                    what: "term with empty posting list",
                    index: idx,
                });
            }
            let mut posting = Posting {
                entries: Vec::with_capacity(entry_count),
                positions: Vec::with_capacity(entry_count),
            };
            for _ in 0..entry_count {
                let node = pr.u32()?;
                let Some(node_tokens) = direct_tokens.get_mut(node as usize) else {
                    return Err(CodecError::Invalid {
                        what: "posting node id out of range",
                        index: node as u64,
                    });
                };
                if posting
                    .entries
                    .last()
                    .is_some_and(|last| NodeId(node) <= last.node)
                {
                    return Err(CodecError::Invalid {
                        what: "posting entries not node-sorted",
                        index: node as u64,
                    });
                }
                let tf = {
                    let at = pr.position();
                    let tf = pr.u32()?;
                    if tf == 0 || tf as usize > pr.remaining() / 4 {
                        return Err(CodecError::Wire(WireError::ImplausibleLength {
                            at,
                            len: tf as u64,
                        }));
                    }
                    tf
                };
                let pos =
                    u32::try_from(posting.positions.len()).map_err(|_| CodecError::Invalid {
                        what: "posting positions exceed the u32 arena",
                        index: idx,
                    })?;
                // `tf * 4` fits: it was bounded by the bytes remaining.
                let (run, _) = pr.bytes(tf as usize * 4)?.as_chunks::<4>();
                let mut last: Option<u32> = None;
                for bytes in run {
                    let p = u32::from_le_bytes(*bytes);
                    if last.is_some_and(|last| p <= last) {
                        return Err(CodecError::Invalid {
                            what: "positions not strictly ascending",
                            index: p as u64,
                        });
                    }
                    last = Some(p);
                    posting.positions.push(p);
                }
                *node_tokens += u64::from(tf);
                total_tokens += u64::from(tf);
                posting.entries.push(PostingEntry {
                    node: NodeId(node),
                    tf,
                    pos,
                });
            }
            postings.insert(term.into(), posting);
        }
        tr.expect_exhausted()?;
        pr.expect_exhausted()?;
        let mut token_prefix = Vec::with_capacity(node_count + 1);
        token_prefix.push(0);
        let mut acc = 0u64;
        for &c in &direct_tokens {
            acc += c;
            token_prefix.push(acc);
        }
        Ok(InvertedIndex {
            postings,
            scoring_elements,
            total_tokens,
            token_prefix,
        })
    }
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
        assert_eq!(idx.total_tokens(), 0);
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
        assert_eq!(back.total_tokens(), idx.total_tokens());
        for t in ["gold", "silver", "copper", "tail", "stream"] {
            assert_eq!(back.posting(t), idx.posting(t), "posting for {t}");
            assert!((back.idf(t) - idx.idf(t)).abs() < 1e-15);
        }
        for n in doc.all_nodes() {
            assert_eq!(back.direct_token_count(n), idx.direct_token_count(n));
            assert_eq!(
                back.subtree_token_count(&doc, n),
                idx.subtree_token_count(&doc, n)
            );
        }
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

    #[test]
    fn implausible_entry_count_names_its_offset_in_the_terms_payload() {
        let (doc, idx) = index_of("<r><a>gold silver</a><b>gold</b></r>");
        let (terms, postings) = idx.encode();
        // Terms payload: scoring u64, term count u64, then per term a
        // u32-length-prefixed name and its u64 entry count.
        let mut at = 16;
        for name in ["gold", "silver"] {
            at += 4 + name.len();
            let mut bad = terms.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            match InvertedIndex::decode(&bad, &postings, doc.node_count()) {
                Err(CodecError::Wire(WireError::ImplausibleLength { at: got, len })) => {
                    assert_eq!((got, len), (at, u64::MAX), "count of {name}");
                }
                other => panic!("count of {name}: expected ImplausibleLength, got {other:?}"),
            }
            at += 8;
        }
        assert_eq!(at, terms.len());
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
