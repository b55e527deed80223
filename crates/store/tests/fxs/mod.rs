//! The `.fxs` mutation families, shared by the decoder fuzzer
//! (`prop_store_robustness.rs`) and the allocation bound
//! (`alloc_bound.rs`). A family builds every mutated image of its kind from
//! the valid [`images`] and hands each to a visitor with its label and what
//! the decoders must do with it ([`Expect`]).
//!
//! A byte flip alone never reaches a decoder: the section CRC catches it
//! (`tests/store_corruption.rs`). So every mutation **re-seals** the
//! section CRC and the header CRC, and the bytes reach the decoders.
//!
//! Inputs: the small XML of `tests/store_corruption.rs` and a 30 KB XMark
//! corpus, written by this build (format v3: column payloads).

use flexpath_ftsearch::InvertedIndex;
use flexpath_store::{crc32, StoreBuilder};
use flexpath_xmark::{generate, XmarkConfig};
use flexpath_xmldom::{parse, ByteWriter, DocStats, Document};
use std::ops::Range;

/// What the decoders must do with a mutated image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Decode it (the unmutated images).
    Accepted,
    /// Return a typed error (every named mutation).
    Rejected,
    /// Either, as long as the decoded store is what its bytes say.
    Either,
}

/// Receives each mutated image: its label, its bytes, the expectation.
pub type Visit<'a> = &'a mut dyn FnMut(&str, &[u8], Expect);

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

/// Upper bound on the sampled per-item sweeps (column values, positions,
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

pub const META: u32 = 1;
pub const TAGS: u32 = 2;
pub const ELEMS: u32 = 3;
pub const STATS: u32 = 4;
pub const TERMS: u32 = 5;
pub const POSTINGS: u32 = 6;
pub const SECTIONS: [u32; 6] = [META, TAGS, ELEMS, STATS, TERMS, POSTINGS];

const NO_NODE: u32 = u32::MAX;
const TEXT_BIT: u32 = 1 << 31;

fn image_of(doc: &Document) -> Vec<u8> {
    let index = InvertedIndex::build(doc);
    StoreBuilder::from_parts("doc", doc, &DocStats::compute(doc), &index).to_bytes()
}

/// The two valid images every mutation starts from.
pub fn images() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("tiny", image_of(&parse(TINY_XML).unwrap())),
        (
            "xmark30k",
            image_of(&generate(&XmarkConfig::sized(30_000, 7))),
        ),
    ]
}

// ---------------------------------------------------------------- image

fn le32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn le64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn set32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
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

pub fn payload(image: &[u8], id: u32) -> &[u8] {
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
pub fn with_payload(image: &[u8], id: u32, new: &[u8]) -> Vec<u8> {
    let mut out = image.to_vec();
    out.resize(out.len().div_ceil(8) * 8, 0);
    let start = out.len();
    out.extend_from_slice(new);
    let end = out.len();
    repoint(&mut out, id, start..end);
    out
}

// ------------------------------------------------------ v3 column pieces

/// One piece of a v3 payload.
#[derive(Debug, Clone)]
pub enum Piece {
    /// A fixed `u64` (the scoring-element count of `terms`).
    U64(u64),
    /// A column: `u32` count, then the values.
    U32s(Vec<u32>),
    /// A string blob: `u32` length, the bytes, zero padding to four.
    Blob(Vec<u8>),
}

#[derive(Clone, Copy)]
enum Kind {
    U64,
    U32s,
    Blob,
}

/// The pieces of each v3 column payload, in order.
fn shape(id: u32) -> &'static [Kind] {
    use Kind::{Blob, U32s, U64};
    match id {
        ELEMS => &[U32s, U32s, U32s, Blob, U32s, U32s, U32s, Blob],
        TERMS => &[U64, U32s, U32s, Blob],
        POSTINGS => &[U32s, U32s, U32s],
        _ => panic!("section {id} has no column layout"),
    }
}

// `elems` pieces.
const LABELS: usize = 0;
const PARENTS: usize = 1;
const TEXT_ENDS: usize = 2;
const TEXTS: usize = 3;
const OWNERS: usize = 4;
const ATTR_NAMES: usize = 5;
const VALUE_ENDS: usize = 6;
const VALUES: usize = 7;
// `terms` pieces.
const NAME_ENDS: usize = 1;
const ENTRY_ENDS: usize = 2;
const NAMES: usize = 3;
// `postings` pieces.
const NODES: usize = 0;
const TFS: usize = 1;
const POSITIONS: usize = 2;

/// A valid v3 payload of section `id`, split into its pieces; with the
/// byte offset of each piece's count or length field.
fn pieces_at(id: u32, bytes: &[u8]) -> Vec<(usize, Piece)> {
    let mut at = 0;
    let out = shape(id)
        .iter()
        .map(|kind| {
            let start = at;
            let piece = match kind {
                Kind::U64 => {
                    at += 8;
                    Piece::U64(le64(bytes, start))
                }
                Kind::U32s => {
                    let n = le32(bytes, at) as usize;
                    at += 4 + 4 * n;
                    Piece::U32s((0..n).map(|i| le32(bytes, start + 4 + 4 * i)).collect())
                }
                Kind::Blob => {
                    let len = le32(bytes, at) as usize;
                    at += 4 + len.next_multiple_of(4);
                    Piece::Blob(bytes[start + 4..start + 4 + len].to_vec())
                }
            };
            (start, piece)
        })
        .collect();
    assert_eq!(at, bytes.len(), "walked all of section {id}");
    out
}

pub fn pieces(id: u32, bytes: &[u8]) -> Vec<Piece> {
    pieces_at(id, bytes).into_iter().map(|(_, p)| p).collect()
}

/// Writes pieces back in the v3 layout.
pub fn encode_pieces(pieces: &[Piece]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for piece in pieces {
        match piece {
            Piece::U64(v) => w.u64(*v),
            Piece::U32s(values) => w.u32s(values.iter().copied()),
            Piece::Blob(bytes) => {
                w.u32(bytes.len() as u32);
                w.bytes(bytes);
                w.bytes(&[0; 3][..bytes.len().next_multiple_of(4) - bytes.len()]);
            }
        }
    }
    w.into_bytes()
}

fn col(pieces: &mut [Piece], i: usize) -> &mut Vec<u32> {
    match &mut pieces[i] {
        Piece::U32s(values) => values,
        other => panic!("piece {i} is {other:?}, not a column"),
    }
}

fn blob(pieces: &mut [Piece], i: usize) -> &mut Vec<u8> {
    match &mut pieces[i] {
        Piece::Blob(bytes) => bytes,
        other => panic!("piece {i} is {other:?}, not a blob"),
    }
}

// --------------------------------------------------------------- layout

/// Where things sit in one valid section payload.
#[derive(Default)]
pub struct Layout {
    /// Offsets where a record, a value or a field group ends: truncation
    /// points.
    cuts: Vec<usize>,
    /// Count and length fields: (offset, width in bytes).
    lengths: Vec<(usize, usize)>,
    /// `postings`: offset of each entry's node id.
    posting_nodes: Vec<usize>,
    /// `postings`: offset of each entry's first position, and its tf.
    positions: Vec<(usize, usize)>,
    /// `tags`: the byte range of each name, with its prefix.
    names: Vec<Range<usize>>,
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

/// The layout of section `id` of `image`.
pub fn layout(image: &[u8], id: u32) -> Layout {
    let bytes = payload(image, id);
    if matches!(id, ELEMS | TERMS | POSTINGS) {
        return column_layout(id, bytes);
    }
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

/// The layout of a v3 column payload: cuts at every piece boundary and at
/// sampled values inside each column; every count and length field.
fn column_layout(id: u32, bytes: &[u8]) -> Layout {
    let mut l = Layout::default();
    for (at, piece) in pieces_at(id, bytes) {
        match piece {
            Piece::U64(_) => l.cuts.push(at + 8),
            Piece::U32s(values) => {
                l.lengths.push((at, 4));
                let step = values.len().div_ceil(SAMPLED).max(1);
                l.cuts
                    .extend((0..=values.len()).step_by(step).map(|i| at + 4 + 4 * i));
                l.cuts.push(at + 4 + 4 * values.len());
            }
            Piece::Blob(b) => {
                l.lengths.push((at, 4));
                l.cuts.extend([
                    at + 4,
                    at + 4 + b.len(),
                    at + 4 + b.len().next_multiple_of(4),
                ]);
            }
        }
    }
    if id == POSTINGS {
        let p = pieces_at(id, bytes);
        let (Piece::U32s(nodes), Piece::U32s(tfs)) = (&p[NODES].1, &p[TFS].1) else {
            unreachable!("postings are three columns")
        };
        l.posting_nodes = (0..nodes.len()).map(|i| p[NODES].0 + 4 + 4 * i).collect();
        let mut first = 0;
        for &tf in tfs {
            l.positions
                .push((p[POSITIONS].0 + 4 + 4 * first, tf as usize));
            first += tf as usize;
        }
    }
    l
}

/// The term names of `image`, in payload order.
#[allow(dead_code)] // read by the fuzzer's property, not by the allocation bound
pub fn term_names(image: &[u8]) -> Vec<String> {
    let mut p = pieces(TERMS, payload(image, TERMS));
    let names = String::from_utf8(blob(&mut p, NAMES).clone()).unwrap();
    let mut start = 0;
    col(&mut p, NAME_ENDS)
        .iter()
        .map(|&end| {
            let name = names[start..end as usize].to_string();
            start = end as usize;
            name
        })
        .collect()
}

// ------------------------------------------------------------ families

/// Up to [`SAMPLED`] of `items`, evenly spread.
fn sample<T: Copy>(items: &[T]) -> impl Iterator<Item = T> + '_ {
    let step = items.len().div_ceil(SAMPLED).max(1);
    items.iter().step_by(step).copied()
}

/// Every image and section, with its payload and layout.
fn for_each_section(mut body: impl FnMut(&str, &[u8], u32, &[u8], &Layout)) {
    for (name, image) in images() {
        for id in SECTIONS {
            body(name, &image, id, payload(&image, id), &layout(&image, id));
        }
    }
}

/// The valid images themselves.
pub fn unmutated(visit: Visit) {
    for (name, image) in images() {
        visit(name, &image, Expect::Accepted);
    }
}

pub fn truncation_at_every_boundary(visit: Visit) {
    for_each_section(|name, image, id, bytes, l| {
        for &cut in l.cuts.iter().chain(&[0]) {
            if cut < bytes.len() {
                let label = format!("{name} section {id} cut at {cut}");
                visit(
                    &label,
                    &with_payload(image, id, &bytes[..cut]),
                    Expect::Either,
                );
            }
        }
    });
}

pub fn inflated_counts_and_lengths(visit: Visit) {
    for_each_section(|name, image, id, bytes, l| {
        for &(at, width) in &l.lengths {
            let remaining = (bytes.len() - at - width) as u64;
            let mut values = vec![remaining + 1, u64::from(u32::MAX)];
            if width == 8 {
                values.push(u64::MAX);
            } else {
                // A column count one past, and exactly at, what fits.
                values.extend([remaining / 4 + 1, remaining / 4]);
            }
            for v in values {
                let mut bad = bytes.to_vec();
                bad[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                let label = format!("{name} section {id} length at {at} = {v}");
                visit(&label, &with_payload(image, id, &bad), Expect::Either);
            }
        }
    });
}

pub fn non_ascending_positions(visit: Visit) {
    for_each_section(|name, image, id, bytes, l| {
        let runs: Vec<(usize, usize)> = l.positions.iter().copied().filter(|e| e.1 >= 2).collect();
        for (p0, _) in sample(&runs) {
            let p1 = p0 + 4;
            for repeat_first in [false, true] {
                let mut bad = bytes.to_vec();
                let (a, b) = (le32(&bad, p0), le32(&bad, p1));
                set32(&mut bad, p1, a);
                if !repeat_first {
                    set32(&mut bad, p0, b);
                }
                let label = format!("{name} positions at {p0} reordered");
                visit(&label, &with_payload(image, id, &bad), Expect::Rejected);
            }
        }
    });
}

pub fn duplicate_symbols(visit: Visit) {
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
            let label = format!("{name} symbol {i} duplicated");
            visit(&label, &with_payload(image, id, &bad), Expect::Either);
        }
    });
}

/// Each reference set to exactly its bound: one past the last valid
/// value. These are the inputs an off-by-one in a range check admits.
pub fn references_at_their_bound(visit: Visit) {
    for (name, image) in images() {
        let elems = payload(&image, ELEMS);
        let symbols = layout(&image, TAGS).names.len() as u32;
        let mut cases: Vec<(u32, Vec<u8>, String)> = Vec::new();
        let p = pieces_at(ELEMS, elems);
        let column = |i: usize| match &p[i].1 {
            Piece::U32s(values) => (p[i].0 + 4, values.clone()),
            _ => unreachable!("piece {i} is a column"),
        };
        let (labels_at, labels) = column(LABELS);
        let texts = column(TEXT_ENDS).1.len() as u32;
        let node_count = labels.len() as u32;
        let samples: Vec<usize> = (0..labels.len()).collect();
        for i in sample(&samples) {
            let bound = if labels[i] & TEXT_BIT != 0 {
                TEXT_BIT | texts
            } else {
                symbols
            };
            let mut bad = elems.to_vec();
            set32(&mut bad, labels_at + 4 * i, bound);
            cases.push((ELEMS, bad, format!("label of node {i}")));
        }
        for (piece, bound) in [
            (PARENTS, node_count),
            (OWNERS, node_count),
            (ATTR_NAMES, symbols),
        ] {
            let (at, values) = column(piece);
            let samples: Vec<usize> = (0..values.len()).collect();
            for i in sample(&samples) {
                let mut bad = elems.to_vec();
                set32(&mut bad, at + 4 * i, bound);
                cases.push((ELEMS, bad, format!("piece {piece} value {i}")));
            }
        }
        let postings = payload(&image, POSTINGS);
        for at in sample(&layout(&image, POSTINGS).posting_nodes) {
            let mut bad = postings.to_vec();
            set32(&mut bad, at, node_count);
            cases.push((POSTINGS, bad, format!("posting node at {at}")));
        }
        for (id, bad, what) in cases {
            let label = format!("{name} {what} at its bound");
            visit(&label, &with_payload(&image, id, &bad), Expect::Rejected);
        }
    }
}

pub fn overlapping_section_table_entries(visit: Visit) {
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
                        visit(&label, &bad, Expect::Either);
                    }
                }
            }
        }
    }
}

pub fn random_flips_and_splices(visit: Visit) {
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
            let label = format!("{name} section {id} case {case}");
            visit(&label, &with_payload(image, id, &bad), Expect::Either);
        }
    });
}

// --------------------------------------- v3: one mutation per check

/// What a column mutation may need besides the pieces it edits.
pub struct Ctx {
    symbols: u32,
    nodes: u32,
}

/// A v3 column mutation: edits the pieces of its section (`elems`, or
/// `terms` followed by `postings`), and says whether they had the shape it
/// needs.
pub type ColumnMutation = fn(&mut Vec<Piece>, &Ctx) -> bool;

/// Node ids of `labels` that are texts (`true`) or elements (`false`).
fn nodes_where(labels: &[u32], text: bool) -> Vec<usize> {
    (0..labels.len())
        .filter(|&i| (labels[i] & TEXT_BIT != 0) == text)
        .collect()
}

/// The blob range of string `i` cut at `ends`.
fn cut(ends: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

/// Ends `i` and `i + 1` of two non-empty strings moved so that end `i`
/// falls inside a two-byte char written over their shared boundary.
fn end_inside_a_char(p: &mut [Piece], ends: usize, bytes: usize) -> bool {
    let e = col(p, ends).clone();
    let Some(i) = (0..e.len().saturating_sub(1))
        .find(|&i| !cut(&e, i).is_empty() && !cut(&e, i + 1).is_empty())
    else {
        return false;
    };
    let at = e[i] as usize;
    blob(p, bytes)[at - 1..at + 1].copy_from_slice("é".as_bytes());
    true
}

/// Two ends swapped where the string between them is non-empty.
fn ends_descending(p: &mut [Piece], ends: usize) -> bool {
    let e = col(p, ends);
    let Some(i) = (1..e.len()).find(|&i| e[i - 1] < e[i]) else {
        return false;
    };
    e.swap(i - 1, i);
    true
}

/// One named mutation per check of the document's column validator.
pub const V3_ELEMS_MUTATIONS: &[(&str, ColumnMutation)] = &[
    ("node 0 with a parent", |p, _| {
        col(p, PARENTS)[0] = 0;
        true
    }),
    ("a second node without a parent", |p, _| {
        let parents = col(p, PARENTS);
        let last = parents.len() - 1;
        parents[last] = NO_NODE;
        last > 0
    }),
    ("a parent pointing forward", |p, _| {
        let parents = col(p, PARENTS);
        if parents.len() < 3 {
            return false;
        }
        parents[1] = 2;
        true
    }),
    ("a parent that is a closed node", |p, _| {
        let labels = col(p, LABELS).clone();
        let parents = col(p, PARENTS);
        // An element two siblings back: closed before the sibling between.
        // (The sibling just before would still be open, and adopting the
        // node would make a valid tree.)
        let found = (1..parents.len()).find_map(|i| {
            let mut siblings = (1..i).rev().filter(|&s| parents[s] == parents[i]);
            let s = siblings.nth(1)?;
            (labels[s] & TEXT_BIT == 0).then_some((i, s))
        });
        let Some((i, sibling)) = found else {
            return false;
        };
        parents[i] = sibling as u32;
        true
    }),
    ("a text node with a child", |p, _| {
        let texts = nodes_where(col(p, LABELS), true);
        let parents = col(p, PARENTS);
        let Some(&t) = texts.iter().find(|&&t| t + 1 < parents.len()) else {
            return false;
        };
        parents[t + 1] = t as u32;
        true
    }),
    ("a tag symbol at its bound", |p, c| {
        let labels = col(p, LABELS);
        let Some(&e) = nodes_where(labels, false).last() else {
            return false;
        };
        labels[e] = c.symbols;
        true
    }),
    ("a text ordinal at its bound", |p, _| {
        let texts = col(p, TEXT_ENDS).len() as u32;
        let labels = col(p, LABELS);
        let Some(&t) = nodes_where(labels, true).last() else {
            return false;
        };
        labels[t] = TEXT_BIT | texts;
        true
    }),
    ("text ordinals out of node order", |p, _| {
        let labels = col(p, LABELS);
        let texts = nodes_where(labels, true);
        if texts.len() < 2 {
            return false;
        }
        labels.swap(texts[0], texts[1]);
        true
    }),
    ("a text held by no node", |p, _| {
        let ends = col(p, TEXT_ENDS);
        ends.push(ends.last().copied().unwrap_or(0));
        true
    }),
    ("attribute owners out of node order", |p, _| {
        let owners = col(p, OWNERS);
        let Some(k) = (1..owners.len()).find(|&k| owners[k - 1] < owners[k]) else {
            return false;
        };
        owners.swap(k - 1, k);
        true
    }),
    ("an attribute owner at its bound", |p, _| {
        let n = col(p, LABELS).len() as u32;
        let owners = col(p, OWNERS);
        let Some(last) = owners.last_mut() else {
            return false;
        };
        *last = n;
        true
    }),
    ("an attribute on a text node", |p, _| {
        let texts = nodes_where(col(p, LABELS), true);
        let owners = col(p, OWNERS);
        // A text between the owners around attribute k keeps them ascending.
        let found = (0..owners.len()).find_map(|k| {
            let low = if k == 0 { 0 } else { owners[k - 1] };
            let high = owners.get(k + 1).copied().unwrap_or(u32::MAX);
            let t = texts
                .iter()
                .find(|&&t| low <= t as u32 && t as u32 <= high)?;
            Some((k, *t as u32))
        });
        let Some((k, t)) = found else {
            return false;
        };
        owners[k] = t;
        true
    }),
    ("an attribute held by no node", |p, _| {
        col(p, OWNERS).pop().is_some()
    }),
    ("text ends descending", |p, _| ends_descending(p, TEXT_ENDS)),
    ("a text end inside a char", |p, _| {
        end_inside_a_char(p, TEXT_ENDS, TEXTS)
    }),
    ("text bytes past the last text end", |p, _| {
        blob(p, TEXTS).push(b'x');
        true
    }),
    ("a text blob that is not UTF-8", |p, _| {
        let texts = blob(p, TEXTS);
        let Some(b) = texts.first_mut() else {
            return false;
        };
        *b = 0xff;
        true
    }),
    ("value ends descending", |p, _| {
        ends_descending(p, VALUE_ENDS)
    }),
    ("a value end inside a char", |p, _| {
        end_inside_a_char(p, VALUE_ENDS, VALUES)
    }),
    ("value bytes past the last value end", |p, _| {
        blob(p, VALUES).push(b'x');
        true
    }),
    ("a value end column one short", |p, _| {
        col(p, VALUE_ENDS).pop().is_some()
    }),
    ("a value end column one long", |p, _| {
        let ends = col(p, VALUE_ENDS);
        ends.push(ends.last().copied().unwrap_or(0));
        true
    }),
    ("an attribute name symbol at its bound", |p, c| {
        let Some(name) = col(p, ATTR_NAMES).first_mut() else {
            return false;
        };
        *name = c.symbols;
        true
    }),
    ("a parent column one short", |p, _| {
        col(p, PARENTS).pop().is_some()
    }),
    ("a parent column one long", |p, _| {
        col(p, PARENTS).push(0);
        true
    }),
];

/// One named mutation per check of the index validator. The pieces are
/// the four of `terms` followed by the three of `postings`.
pub const V3_INDEX_MUTATIONS: &[(&str, ColumnMutation)] = &[
    ("term names out of order", |p, _| {
        let ends = col(p, NAME_ENDS).clone();
        if ends.len() < 2 {
            return false;
        }
        let names = blob(p, NAMES);
        let (a, b) = (names[cut(&ends, 0)].to_vec(), names[cut(&ends, 1)].to_vec());
        names.splice(0..ends[1] as usize, b.iter().chain(&a).copied());
        col(p, NAME_ENDS)[0] = b.len() as u32;
        true
    }),
    ("a term name repeated", |p, _| {
        let ends = col(p, NAME_ENDS).clone();
        if ends.len() < 2 {
            return false;
        }
        let names = blob(p, NAMES);
        let first = names[cut(&ends, 0)].to_vec();
        names.splice(cut(&ends, 1), first.iter().copied());
        let shift = first.len() as i64 - cut(&ends, 1).len() as i64;
        for end in col(p, NAME_ENDS).iter_mut().skip(1) {
            *end = (i64::from(*end) + shift) as u32;
        }
        true
    }),
    ("a term name end inside a char", |p, _| {
        end_inside_a_char(p, NAME_ENDS, NAMES)
    }),
    ("term name bytes past the last end", |p, _| {
        blob(p, NAMES).push(b'z');
        true
    }),
    ("entry ends descending", |p, _| {
        let ends = col(p, ENTRY_ENDS);
        if ends.len() < 2 || ends[0] < 1 {
            return false;
        }
        ends[1] = ends[0] - 1;
        true
    }),
    ("a term without entries", |p, _| {
        // A last name, sorted after every other, whose entry range is empty.
        let names = blob(p, NAMES);
        names.extend_from_slice("\u{10ffff}".as_bytes());
        let end = names.len() as u32;
        col(p, NAME_ENDS).push(end);
        let ends = col(p, ENTRY_ENDS);
        ends.push(ends.last().copied().unwrap_or(0));
        true
    }),
    ("posting entries held by no term", |p, _| {
        col(p, 4 + NODES).push(0);
        col(p, 4 + TFS).push(1);
        true
    }),
    ("an entry end column one short", |p, _| {
        col(p, ENTRY_ENDS).pop().is_some()
    }),
    ("an entry end column one long", |p, _| {
        let ends = col(p, ENTRY_ENDS);
        ends.push(ends.last().copied().unwrap_or(0));
        true
    }),
    ("a tf column one short", |p, _| {
        col(p, 4 + TFS).pop().is_some()
    }),
    ("a tf column one long", |p, _| {
        col(p, 4 + TFS).push(1);
        true
    }),
    ("a posting node at its bound", |p, c| {
        col(p, 4 + NODES)[0] = c.nodes;
        true
    }),
    ("posting nodes repeated within a term", |p, _| {
        let ends = col(p, ENTRY_ENDS).clone();
        // Entries k and k + 1 of one term.
        let Some(k) = (0..ends.len()).find_map(|i| {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            (ends[i] - start >= 2).then_some(start as usize)
        }) else {
            return false;
        };
        let nodes = col(p, 4 + NODES);
        nodes[k + 1] = nodes[k];
        true
    }),
    ("a zero tf", |p, _| {
        let tf = std::mem::replace(&mut col(p, 4 + TFS)[0], 0);
        col(p, 4 + POSITIONS).drain(..tf as usize);
        true
    }),
    ("tfs summing past the positions", |p, _| {
        let tfs = col(p, 4 + TFS);
        let last = tfs.len() - 1;
        tfs[last] += 1;
        true
    }),
    ("positions held by no entry", |p, _| {
        col(p, 4 + POSITIONS).push(0);
        true
    }),
    ("a repeated position", |p, _| {
        let tfs = col(p, 4 + TFS).clone();
        let Some(k) = tfs.iter().position(|&tf| tf >= 2) else {
            return false;
        };
        let first: u32 = tfs[..k].iter().sum();
        let positions = col(p, 4 + POSITIONS);
        positions[first as usize + 1] = positions[first as usize];
        true
    }),
];

/// Applies the v3 mutation named `what` to every image.
pub fn v3_column_mutation(what: &str, visit: Visit) {
    let index = V3_INDEX_MUTATIONS.iter().find(|(name, _)| *name == what);
    let (_, mutate) = index
        .or_else(|| V3_ELEMS_MUTATIONS.iter().find(|(name, _)| *name == what))
        .unwrap_or_else(|| panic!("no v3 mutation {what:?}"));
    let mut applied = 0;
    for (name, image) in images() {
        let ctx = Ctx {
            symbols: layout(&image, TAGS).names.len() as u32,
            nodes: col(&mut pieces(ELEMS, payload(&image, ELEMS)), LABELS).len() as u32,
        };
        let label = format!("{name} {what}");
        let bad = if index.is_some() {
            let mut p = pieces(TERMS, payload(&image, TERMS));
            p.extend(pieces(POSTINGS, payload(&image, POSTINGS)));
            if !mutate(&mut p, &ctx) {
                continue;
            }
            // `meta` counts what a decoder without the check would hold:
            // every term, and the entries the terms' ranges cover. So the
            // meta cross-check never stands in for the validator's.
            let terms = col(&mut p, NAME_ENDS).len() as u64;
            let entries = col(&mut p, ENTRY_ENDS).last().map_or(0, |&e| u64::from(e));
            let meta = meta_with(&image, u64::from(ctx.nodes), terms, entries);
            let postings = encode_pieces(&p.split_off(4));
            let image = with_payload(&image, TERMS, &encode_pieces(&p));
            let image = with_payload(&image, POSTINGS, &postings);
            with_payload(&image, META, &meta)
        } else {
            let mut p = pieces(ELEMS, payload(&image, ELEMS));
            if !mutate(&mut p, &ctx) {
                continue;
            }
            with_payload(&image, ELEMS, &encode_pieces(&p))
        };
        visit(&label, &bad, Expect::Rejected);
        applied += 1;
    }
    assert!(applied > 0, "{what}: no image had the shape");
}

/// `meta` with its node, term and posting-entry counts replaced.
fn meta_with(image: &[u8], nodes: u64, terms: u64, entries: u64) -> Vec<u8> {
    let meta = payload(image, META);
    let name_end = 4 + le32(meta, 0) as usize;
    let mut w = ByteWriter::new();
    w.bytes(&meta[..name_end]);
    for count in [nodes, terms, entries] {
        w.u64(count);
    }
    w.into_bytes()
}

/// Two checks that every other check passes on a document rebuilt around
/// them: a document whose one node is a text (node 0 must be an element),
/// and one without nodes. The image keeps such an `elems`, with `meta`
/// counting its nodes and no terms, and empty `terms` and `postings`.
pub fn rebuilt_documents(visit: Visit) {
    let none = || Piece::U32s(Vec::new());
    for (name, image) in images() {
        for (what, nodes) in [
            ("a root that is a text", 1),
            ("a document without nodes", 0),
        ] {
            // `nodes` copies of the one node's label, parent and text end.
            let column = |v: u32| Piece::U32s(vec![v; nodes]);
            let elems = encode_pieces(&[
                column(TEXT_BIT),
                column(NO_NODE),
                column(0),
                Piece::Blob(Vec::new()),
                none(),
                none(),
                none(),
                Piece::Blob(Vec::new()),
            ]);
            let terms = encode_pieces(&[Piece::U64(0), none(), none(), Piece::Blob(Vec::new())]);
            let mut bad = with_payload(&image, ELEMS, &elems);
            for (id, bytes) in [
                (META, meta_with(&image, nodes as u64, 0, 0)),
                (TERMS, terms),
                (POSTINGS, encode_pieces(&[none(), none(), none()])),
            ] {
                bad = with_payload(&bad, id, &bytes);
            }
            visit(&format!("{name} {what}"), &bad, Expect::Rejected);
        }
    }
}
