//! Robustness of the store's decoders: whatever one section payload of a
//! valid `.fxs` image holds, opening it and touching the document, the
//! statistics and the index ends in a typed [`StoreError`] or in a store
//! that is what its bytes say. It never panics. Fuzz-lite, seeded and
//! dependency-free like `crates/tpq/tests/prop_parser_robustness.rs`.
//!
//! A byte flip alone never gets this far: the section CRC catches it
//! (`tests/store_corruption.rs`). So every mutation here **re-seals** the
//! section CRC and the header CRC, and the bytes reach the three decoders
//! (`decode_document`, `decode_stats`, `InvertedIndex::decode`).
//!
//! The property, for each mutated image:
//! * the open or a touch returns `Err` (its `Display` must work), or
//! * all three touches succeed, re-encoding `tags` / `elems` / `terms` /
//!   `postings` reproduces the payloads byte for byte, and the decoded
//!   values keep every invariant the decoders promise (region labels,
//!   document order, links and tag lists in range, every text present,
//!   posting entries and positions strictly ascending) — each checked here
//!   by walking the public accessors, so no decoder code checks itself.
//!
//! A payload can also be well formed field by field and still describe a
//! tree whose parts disagree — a parent link to a node that is not an
//! ancestor, a level off by one, overlapping attribute ranges. The document
//! derives its links and region labels from its columns, so such a payload
//! cannot decode into what its bytes say; each is a named mutation below
//! that must be rejected.
//!
//! Inputs: the small XML of `tests/store_corruption.rs`, a 30 KB XMark
//! corpus, and the committed golden `tests/golden/tiny_v2.fxs`.

use flexpath_engine::Budget;
use flexpath_ftsearch::{FtExpr, InvertedIndex};
use flexpath_store::{crc32, LazyStore, StoreBuilder, StoreBytes, StoreError};
use flexpath_xmark::{generate, XmarkConfig};
use flexpath_xmldom::codec::{encode_nodes, encode_symbols};
use flexpath_xmldom::{parse, DocStats, Document, NodeId, NodeKind};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tiny deterministic PRNG (splitmix64) for reproducible fuzzing.
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
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Random flips and splices per image and section.
const RANDOM_CASES: u64 = 48;

/// Upper bound on the sampled per-record sweeps (swaps, positions,
/// boundary references) per image and section.
const SAMPLED: usize = 48;

const TINY_XML: &str = r#"<site>
  <item><name>gold watch</name><description><parlist><listitem>rare
    collectible watch</listitem></parlist></description>
    <mailbox><mail><text>asking about the <bold>gold</bold> watch</text></mail></mailbox>
    <incategory category="c1"/></item>
  <item><name>silver ring</name><description>plain silver ring, no list
    </description></item>
</site>"#;

const GOLDEN_V2: &[u8] = include_bytes!("../../../tests/golden/tiny_v2.fxs");

const TAGS: u32 = 2;
const ELEMS: u32 = 3;
const STATS: u32 = 4;
const TERMS: u32 = 5;
const POSTINGS: u32 = 6;
const SECTIONS: [u32; 6] = [1, TAGS, ELEMS, STATS, TERMS, POSTINGS];

fn image_of(doc: &Document) -> Vec<u8> {
    let index = InvertedIndex::build(doc);
    StoreBuilder::from_parts("doc", doc, &DocStats::compute(doc), &index).to_bytes()
}

/// The three valid images every mutation starts from.
fn images() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("tiny", image_of(&parse(TINY_XML).unwrap())),
        (
            "xmark30k",
            image_of(&generate(&XmarkConfig::sized(30_000, 7))),
        ),
        ("golden", GOLDEN_V2.to_vec()),
    ]
}

// ---------------------------------------------------------------- image

fn le32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn le64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Offset of the table entry of section `id`, and that section's range.
fn entry(image: &[u8], id: u32) -> (usize, Range<usize>) {
    let count = le32(image, 12) as usize;
    (0..count)
        .map(|i| 16 + i * 24)
        .find(|&e| le32(image, e) == id)
        .map(|e| {
            let offset = le64(image, e + 4) as usize;
            (e, offset..offset + le64(image, e + 12) as usize)
        })
        .unwrap_or_else(|| panic!("section {id} missing"))
}

fn payload(image: &[u8], id: u32) -> &[u8] {
    &image[entry(image, id).1]
}

/// Points section `id`'s table entry at `range`, and re-seals the entry's
/// CRC and the header CRC so both match what the entry now covers.
fn repoint(image: &mut [u8], id: u32, range: Range<usize>) {
    let (e, _) = entry(image, id);
    let crc = crc32(&image[range.clone()]);
    image[e + 4..e + 12].copy_from_slice(&(range.start as u64).to_le_bytes());
    image[e + 12..e + 20].copy_from_slice(&(range.len() as u64).to_le_bytes());
    image[e + 20..e + 24].copy_from_slice(&crc.to_le_bytes());
    let table_end = 16 + le32(image, 12) as usize * 24;
    let header = crc32(&image[..table_end]);
    image[table_end..table_end + 4].copy_from_slice(&header.to_le_bytes());
}

/// `image` with section `id`'s payload replaced by `new`: appended at the
/// next aligned offset (the old bytes stay, unreferenced) and re-sealed.
fn with_payload(image: &[u8], id: u32, new: &[u8]) -> Vec<u8> {
    let mut out = image.to_vec();
    out.resize(out.len().div_ceil(8) * 8, 0);
    let start = out.len();
    out.extend_from_slice(new);
    let end = out.len();
    repoint(&mut out, id, start..end);
    out
}

// --------------------------------------------------------------- layout

/// Where things sit in one valid section payload, found by walking it
/// with the wire format's rules (fixed-width little-endian integers,
/// `u32`-length-prefixed strings, `u64` counts).
#[derive(Default)]
struct Layout {
    /// Offsets where a record or a field group ends: truncation points.
    cuts: Vec<usize>,
    /// Count and length fields: (offset, width in bytes).
    lengths: Vec<(usize, usize)>,
    /// `elems`: offset of each node record.
    records: Vec<usize>,
    /// `postings`: (offset of the node id, tf) of each entry.
    entries: Vec<(usize, usize)>,
    /// `tags` / `terms`: the byte range of each name, with its prefix.
    names: Vec<Range<usize>>,
    /// `elems`: the text and attribute counts.
    text_count: u64,
    attr_count: u64,
}

struct Walk<'a> {
    b: &'a [u8],
    at: usize,
    l: Layout,
}

impl Walk<'_> {
    fn u32(&mut self) -> u32 {
        self.at += 4;
        le32(self.b, self.at - 4)
    }

    fn u64(&mut self) -> u64 {
        self.at += 8;
        le64(self.b, self.at - 8)
    }

    fn count(&mut self) -> u64 {
        self.l.lengths.push((self.at, 8));
        let n = self.u64();
        self.cut();
        n
    }

    fn str(&mut self) {
        let start = self.at;
        self.l.lengths.push((self.at, 4));
        let len = self.u32() as usize;
        self.at += len;
        self.l.names.push(start..self.at);
    }

    fn cut(&mut self) {
        self.l.cuts.push(self.at);
    }
}

/// Node record size on the wire: kind u8, eight `u32`s, attrs_len u16.
const RECORD: usize = 35;

fn layout(id: u32, bytes: &[u8]) -> Layout {
    let mut w = Walk {
        b: bytes,
        at: 0,
        l: Layout::default(),
    };
    match id {
        TAGS => {
            for _ in 0..w.count() {
                w.str();
                w.cut();
            }
        }
        ELEMS => {
            w.u32();
            w.cut();
            for _ in 0..w.count() {
                w.l.records.push(w.at);
                w.at += RECORD;
                w.cut();
            }
            w.l.text_count = w.count();
            for _ in 0..w.l.text_count {
                w.str();
                w.cut();
            }
            w.l.attr_count = w.count();
            for _ in 0..w.l.attr_count {
                w.u32();
                w.str();
                w.cut();
            }
        }
        STATS => {
            w.u64();
            w.cut();
            for item in [12, 16, 16] {
                for _ in 0..w.count() {
                    w.at += item;
                    w.cut();
                }
            }
        }
        TERMS => {
            w.u64();
            w.cut();
            for _ in 0..w.count() {
                w.str();
                w.count();
            }
        }
        POSTINGS => {
            while w.at < bytes.len() {
                let node = w.at;
                w.u32();
                w.l.lengths.push((w.at, 4));
                let tf = w.u32() as usize;
                w.l.entries.push((node, tf));
                w.at += 4 * tf;
                w.cut();
            }
        }
        _ => {
            w.str();
            for _ in 0..3 {
                w.u64();
                w.cut();
            }
        }
    }
    assert_eq!(w.at, bytes.len(), "walked all of section {id}");
    w.l
}

// ------------------------------------------------------------- property

/// The property of the module doc, with a label naming the mutation when
/// anything in it panics. True if the image decoded, false if it was
/// rejected with a typed error.
fn check(image: &[u8], label: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| property(image))).unwrap_or_else(|_| {
        panic!("{label}: the decoders or the decoded store panicked (message above)")
    })
}

fn property(image: &[u8]) -> bool {
    let store = match LazyStore::from_store_bytes(
        StoreBytes::from_vec(image.to_vec()),
        &Budget::unlimited(),
    ) {
        Ok(store) => store,
        Err(e) => return typed(e),
    };
    let (doc, index) = match (store.document(), store.stats(), store.index()) {
        (Ok(doc), Ok(_), Ok(index)) => (doc, index),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => return typed(e),
    };
    assert!(
        encode_symbols(doc.symbols()) == payload(image, TAGS),
        "tags re-encode"
    );
    assert!(
        encode_nodes(doc) == payload(image, ELEMS),
        "elems re-encode"
    );
    let (terms, postings) = index.encode();
    assert!(terms == payload(image, TERMS), "terms re-encode");
    assert!(postings == payload(image, POSTINGS), "postings re-encode");
    walk_document(doc);
    walk_index(doc, index, payload(image, TERMS));
    true
}

fn typed(e: StoreError) -> bool {
    assert!(!e.to_string().is_empty());
    false
}

/// Every accessor on every node, holding the codec's promises.
fn walk_document(doc: &Document) {
    let n = doc.node_count();
    let in_range = |id: Option<NodeId>| id.is_none_or(|id| id.index() < n);
    let mut prev_start = None;
    for id in doc.all_nodes() {
        assert!(doc.start(id) < doc.end(id), "{id}: start >= end");
        assert!(
            prev_start < Some(doc.start(id)),
            "{id}: starts out of order"
        );
        prev_start = Some(doc.start(id));
        assert!(in_range(doc.parent(id)) && in_range(doc.first_child(id)));
        assert!(in_range(doc.next_sibling(id)));
        let last = doc.subtree_last(id);
        assert!(id <= last && last.index() < n);
        match doc.kind(id) {
            NodeKind::Element { tag } => {
                let _ = doc.symbols().name(tag);
                assert!(doc.nodes_with_tag(tag).binary_search(&id).is_ok());
            }
            NodeKind::Text { .. } => {
                assert!(doc.text_content(id).is_some(), "{id}: text missing");
            }
        }
        for &(name, ref value) in doc.attributes(id) {
            let _ = (doc.symbols().name(name), value.len());
        }
    }
    assert!(doc.is_element(doc.root_element()));
    for (sym, _) in doc.symbols().iter() {
        let list = doc.nodes_with_tag(sym);
        assert!(list.windows(2).all(|w| w[0] < w[1]));
        assert!(list.iter().all(|&e| doc.tag(e) == Some(sym)));
    }
    let _ = doc.subtree_text(doc.root_element());
}

/// Every term of `terms`, looked up and held to the canonical form; a few
/// evaluated, phrases included, so the positions are read too.
fn walk_index(doc: &Document, index: &InvertedIndex, terms: &[u8]) {
    let names: Vec<&str> = layout(TERMS, terms)
        .names
        .iter()
        .map(|r| std::str::from_utf8(&terms[r.start + 4..r.end]).unwrap())
        .collect();
    assert_eq!(names.len(), index.term_count());
    for name in &names {
        let posting = index.posting(name).expect("listed term has a posting");
        assert!(posting.entries.windows(2).all(|w| w[0].node < w[1].node));
        for e in &posting.entries {
            assert!(e.node.index() < doc.node_count() && e.tf >= 1);
            let positions = posting.positions_of(e);
            assert_eq!(positions.len(), e.tf as usize);
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "{name}: positions"
            );
        }
    }
    for pair in names.windows(2).take(4) {
        let phrase = FtExpr::Phrase(pair.iter().map(|t| t.to_string()).collect());
        for expr in [FtExpr::Term(pair[0].to_string()), phrase] {
            let eval = index.evaluate(doc, &expr);
            assert!(eval.nodes().windows(2).all(|w| w[0] < w[1]));
        }
    }
}

// ------------------------------------------------------------ mutations

/// Up to [`SAMPLED`] of `items`, evenly spread.
fn sample<T: Copy>(items: &[T]) -> impl Iterator<Item = T> + '_ {
    let step = items.len().div_ceil(SAMPLED).max(1);
    items.iter().step_by(step).copied()
}

fn set32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Every image and section: the unmutated image, and each listed mutation.
fn for_each_section(mut body: impl FnMut(&str, &[u8], u32, &[u8], &Layout)) {
    for (name, image) in images() {
        assert!(check(&image, name), "{name}: the valid image decodes");
        for id in SECTIONS {
            let bytes = payload(&image, id);
            body(name, &image, id, bytes, &layout(id, bytes));
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn truncation_at_every_record_boundary() {
    for_each_section(|name, image, id, bytes, l| {
        for &cut in l.cuts.iter().chain(&[0]) {
            if cut < bytes.len() {
                let label = format!("{name} section {id} cut at {cut}");
                check(&with_payload(image, id, &bytes[..cut]), &label);
            }
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn inflated_counts_and_lengths() {
    for_each_section(|name, image, id, bytes, l| {
        for &(at, width) in &l.lengths {
            let remaining = (bytes.len() - at - width) as u64;
            let mut values = vec![remaining + 1, u64::from(u32::MAX)];
            if width == 8 {
                values.push(u64::MAX);
            }
            for v in values {
                let mut bad = bytes.to_vec();
                bad[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                let label = format!("{name} section {id} length at {at} = {v}");
                check(&with_payload(image, id, &bad), &label);
            }
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn swapped_region_labels() {
    for_each_section(|name, image, id, bytes, l| {
        for at in sample(&l.records) {
            // One record's start and end swapped.
            let (start, end) = (at + 17, at + 21);
            let mut bad = bytes.to_vec();
            let (s, e) = (le32(&bad, start), le32(&bad, end));
            set32(&mut bad, start, e);
            set32(&mut bad, end, s);
            let label = format!("{name} start/end swapped in the record at {at}");
            check(&with_payload(image, id, &bad), &label);
            // Its (start, end) swapped with the next record's: each label
            // still well formed, document order broken.
            if at + 2 * RECORD <= l.records.last().map_or(0, |&r| r + RECORD) {
                let mut bad = bytes.to_vec();
                let next = (start + RECORD, end + RECORD);
                let (s2, e2) = (le32(&bad, next.0), le32(&bad, next.1));
                set32(&mut bad, start, s2);
                set32(&mut bad, end, e2);
                set32(&mut bad, next.0, s);
                set32(&mut bad, next.1, e);
                let label = format!("{name} labels of the records at {at} and the next swapped");
                check(&with_payload(image, id, &bad), &label);
            }
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn non_ascending_positions() {
    for_each_section(|name, image, id, bytes, l| {
        let runs: Vec<(usize, usize)> = l.entries.iter().copied().filter(|e| e.1 >= 2).collect();
        for (at, _) in sample(&runs) {
            let (p0, p1) = (at + 8, at + 12);
            for repeat_first in [false, true] {
                let mut bad = bytes.to_vec();
                let (a, b) = (le32(&bad, p0), le32(&bad, p1));
                set32(&mut bad, p1, a);
                if !repeat_first {
                    set32(&mut bad, p0, b);
                }
                let label = format!("{name} positions of the entry at {at} reordered");
                check(&with_payload(image, id, &bad), &label);
            }
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn duplicate_symbols() {
    for_each_section(|name, image, id, bytes, l| {
        if id != TAGS {
            return;
        }
        for i in 1..l.names.len() {
            // Name i replaced by name i - 1, the table otherwise as written.
            let (prev, this) = (l.names[i - 1].clone(), l.names[i].clone());
            let mut bad = bytes[..this.start].to_vec();
            bad.extend_from_slice(&bytes[prev]);
            bad.extend_from_slice(&bytes[this.end..]);
            check(
                &with_payload(image, id, &bad),
                &format!("{name} symbol {i} duplicated"),
            );
        }
    });
}

/// Each reference set to exactly its bound: one past the last valid
/// value. These are the inputs an off-by-one in a range check admits.
#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn references_at_their_bound() {
    for (name, image) in images() {
        let elems = payload(&image, ELEMS);
        let l = layout(ELEMS, elems);
        let node_count = l.records.len() as u32;
        let symbols = layout(TAGS, payload(&image, TAGS)).names.len() as u32;
        let attrs = l.attr_count as u32;
        let mut cases: Vec<(u32, Vec<u8>, String)> = Vec::new();
        let mut bad = elems.to_vec();
        set32(&mut bad, 0, node_count);
        cases.push((ELEMS, bad, "root id".into()));
        for at in sample(&l.records) {
            let text = elems[at] == 1;
            let bound = if text { l.text_count as u32 } else { symbols };
            for (field, v) in [
                (1, bound),
                (5, node_count),
                (9, node_count),
                (13, node_count),
            ] {
                let mut bad = elems.to_vec();
                set32(&mut bad, at + field, v);
                cases.push((ELEMS, bad, format!("record at {at} field {field}")));
            }
            // attrs_start + attrs_len one past the attribute count.
            let mut bad = elems.to_vec();
            let len = u32::from(u16::from_le_bytes([elems[at + 33], elems[at + 34]]));
            set32(&mut bad, at + 29, (attrs + 1).saturating_sub(len.max(1)));
            if len == 0 {
                bad[at + 33..at + 35].copy_from_slice(&1u16.to_le_bytes());
            }
            cases.push((ELEMS, bad, format!("record at {at} attribute range")));
        }
        let postings = payload(&image, POSTINGS);
        for (at, _) in sample(&layout(POSTINGS, postings).entries) {
            let mut bad = postings.to_vec();
            set32(&mut bad, at, node_count);
            cases.push((POSTINGS, bad, format!("posting node at {at}")));
        }
        for (id, bad, what) in cases {
            let label = format!("{name} {what} at its bound");
            assert!(
                !check(&with_payload(&image, id, &bad), &label),
                "{label}: accepted"
            );
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn overlapping_section_table_entries() {
    for (name, image) in images() {
        let ranges: Vec<(u32, Range<usize>)> = SECTIONS
            .iter()
            .map(|&id| (id, entry(&image, id).1))
            .collect();
        for (id, own) in &ranges {
            for (other, theirs) in &ranges {
                // Onto another section, at and just past its start, and
                // straddling the boundary between it and the next.
                for shift in [0, 1, 4, 8] {
                    let start = (theirs.start + shift).min(theirs.end);
                    for end in [theirs.end, (start + own.len()).min(image.len())] {
                        let mut bad = image.clone();
                        repoint(&mut bad, *id, start..end.max(start));
                        let label = format!("{name} section {id} over {other} +{shift}..{end}");
                        check(&bad, &label);
                    }
                }
            }
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn random_flips_and_splices() {
    let donors: Vec<Vec<u8>> = images()
        .iter()
        .flat_map(|(_, image)| SECTIONS.map(|id| payload(image, id).to_vec()))
        .collect();
    for_each_section(|name, image, id, bytes, _| {
        let seed = name
            .bytes()
            .fold(u64::from(id), |h, b| h * 31 + u64::from(b));
        for case in 0..RANDOM_CASES {
            let mut rng = Rng((seed << 16) + case);
            let mut bad = bytes.to_vec();
            for _ in 0..1 + rng.below(3) {
                match rng.below(3) {
                    0 => {
                        // Flip: any nonzero xor of one byte.
                        if let Some(b) = bad.get_mut(rng.below(bytes.len())) {
                            *b ^= 1 + rng.below(255) as u8;
                        }
                    }
                    1 => {
                        // Splice in a span of any valid payload.
                        let donor = &donors[rng.below(donors.len())];
                        let a = rng.below(donor.len() + 1);
                        let b = a + rng.below(donor.len() - a + 1).min(64);
                        let at = rng.below(bad.len() + 1);
                        bad.splice(at..at, donor[a..b].iter().copied());
                    }
                    _ => {
                        // Overwrite a span with one of any valid payload.
                        let donor = &donors[rng.below(donors.len())];
                        let a = rng.below(donor.len() + 1);
                        let at = rng.below(bad.len() + 1);
                        let n = (donor.len() - a).min(bad.len() - at).min(64);
                        bad[at..at + n].copy_from_slice(&donor[a..a + n]);
                    }
                }
            }
            check(
                &with_payload(image, id, &bad),
                &format!("{name} section {id} case {case}"),
            );
        }
    });
}

// ------------------------------------------------- inconsistent trees

/// Offsets of the fields of a node record.
const PARENT: usize = 5;
const FIRST_CHILD: usize = 9;
const NEXT_SIBLING: usize = 13;
const LEVEL: usize = 25;
const ATTRS_START: usize = 29;
const ATTRS_LEN: usize = 33;
const NO_NODE: u32 = u32::MAX;

/// The tree fields of one `elems` record, as written.
#[derive(Clone, Copy)]
struct Rec {
    at: usize,
    id: u32,
    text: bool,
    parent: u32,
    first_child: u32,
    next_sibling: u32,
    level: u32,
    attrs_start: u32,
    attrs_len: u16,
}

fn records(elems: &[u8]) -> Vec<Rec> {
    layout(ELEMS, elems)
        .records
        .iter()
        .enumerate()
        .map(|(id, &at)| Rec {
            at,
            id: id as u32,
            text: elems[at] == 1,
            parent: le32(elems, at + PARENT),
            first_child: le32(elems, at + FIRST_CHILD),
            next_sibling: le32(elems, at + NEXT_SIBLING),
            level: le32(elems, at + LEVEL),
            attrs_start: le32(elems, at + ATTRS_START),
            attrs_len: u16::from_le_bytes([elems[at + ATTRS_LEN], elems[at + ATTRS_LEN + 1]]),
        })
        .collect()
}

/// Applies `mutate` to sampled records of every image's `elems` payload;
/// each mutated image must be rejected with a typed error. `mutate` edits
/// a copy of the payload and says whether the record had the shape it
/// needs; some record of some image must.
fn rejected_tree(what: &str, mutate: impl Fn(&[Rec], Rec, &mut [u8]) -> bool) {
    let mut applied = 0;
    for (name, image) in images() {
        let elems = payload(&image, ELEMS);
        let recs = records(elems);
        for rec in sample(&recs) {
            let mut bad = elems.to_vec();
            if !mutate(&recs, rec, &mut bad) {
                continue;
            }
            let label = format!("{name} {what} at the record of node {}", rec.id);
            assert!(
                !check(&with_payload(&image, ELEMS, &bad), &label),
                "{label}: accepted"
            );
            applied += 1;
        }
    }
    assert!(applied > 0, "{what}: no record had the shape");
}

#[test]
#[cfg_attr(miri, ignore = "hundreds of full decodes")]
fn parent_link_to_a_non_ancestor() {
    // The previous sibling precedes the node but does not contain it.
    rejected_tree("parent link to the previous sibling", |recs, rec, bad| {
        let Some(prev) = recs.iter().find(|r| r.next_sibling == rec.id) else {
            return false;
        };
        set32(bad, rec.at + PARENT, prev.id);
        true
    });
}

#[test]
#[cfg_attr(miri, ignore = "hundreds of full decodes")]
fn sibling_link_pointing_elsewhere() {
    rejected_tree("next-sibling link to the parent", |_, rec, bad| {
        if rec.next_sibling == NO_NODE {
            return false;
        }
        set32(bad, rec.at + NEXT_SIBLING, rec.parent);
        true
    });
}

#[test]
#[cfg_attr(miri, ignore = "hundreds of full decodes")]
fn first_child_link_pointing_elsewhere() {
    rejected_tree("first-child link one node too far", |recs, rec, bad| {
        if rec.first_child == NO_NODE || rec.first_child as usize + 1 >= recs.len() {
            return false;
        }
        set32(bad, rec.at + FIRST_CHILD, rec.first_child + 1);
        true
    });
}

#[test]
#[cfg_attr(miri, ignore = "hundreds of full decodes")]
fn level_off_by_one() {
    rejected_tree("level one deeper", |_, rec, bad| {
        set32(bad, rec.at + LEVEL, rec.level + 1);
        true
    });
}

#[test]
#[cfg_attr(miri, ignore = "hundreds of full decodes")]
fn overlapping_attribute_ranges() {
    // An element with attributes starts its range at another's: the total
    // still matches the attribute count.
    rejected_tree("attribute range moved onto another's", |recs, rec, bad| {
        let other = recs
            .iter()
            .find(|r| r.attrs_len > 0 && r.attrs_start != rec.attrs_start);
        let Some(other) = other.filter(|_| rec.attrs_len > 0) else {
            return false;
        };
        set32(bad, rec.at + ATTRS_START, other.attrs_start);
        true
    });
    // An element without attributes claims the first attribute of another.
    rejected_tree("attribute range over another's", |recs, rec, bad| {
        let owner = recs.iter().find(|r| r.attrs_len > 0 && r.id != rec.id);
        let Some(owner) = owner.filter(|_| !rec.text && rec.attrs_len == 0) else {
            return false;
        };
        set32(bad, rec.at + ATTRS_START, owner.attrs_start);
        bad[rec.at + ATTRS_LEN..rec.at + ATTRS_LEN + 2].copy_from_slice(&1u16.to_le_bytes());
        true
    });
}

#[test]
#[cfg_attr(miri, ignore = "hundreds of full decodes")]
fn root_other_than_node_0() {
    rejected_tree("root id on another element", |_, rec, bad| {
        if rec.id == 0 || rec.text {
            return false;
        }
        set32(bad, 0, rec.id);
        true
    });
}

#[test]
#[cfg_attr(miri, ignore = "hundreds of full decodes")]
fn text_node_with_children() {
    // The node after a text claims the text as its parent.
    rejected_tree("text node as the next node's parent", |recs, rec, bad| {
        let Some(next) = recs.get(rec.id as usize + 1).filter(|_| rec.text) else {
            return false;
        };
        set32(bad, next.at + PARENT, rec.id);
        true
    });
}
