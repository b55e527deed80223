//! Robustness of the store's decoders: whatever one section payload of a
//! valid `.fxs` image holds, opening it and touching the document, the
//! statistics and the index ends in a typed [`StoreError`] or in a store
//! that is what its bytes say. It never panics. Fuzz-lite, seeded and
//! dependency-free like `crates/tpq/tests/prop_parser_robustness.rs`.
//!
//! The mutation families live in `fxs/mod.rs` (shared with
//! `alloc_bound.rs`); every mutation re-seals the section and header CRCs,
//! so the bytes reach the three decoders (`decode_document`,
//! `decode_stats`, `InvertedIndex::decode`).
//!
//! The property, for each mutated image:
//! * the open or a touch returns `Err` (its `Display` must work), or
//! * all three touches succeed, re-encoding `tags` / `elems` / `terms` /
//!   `postings` reproduces the payloads byte for byte, and the decoded values keep every invariant the decoders promise
//!   (region labels, document order, links and tag lists in range, every
//!   text present, posting entries and positions strictly ascending) — each
//!   checked here by walking the public accessors, so no decoder code
//!   checks itself.
//!
//! A payload can also be well formed field by field and still break a
//! check of the column validators — a parent that is a closed node, a text
//! ordinal out of node order, a zero `tf`. Each check has a named mutation
//! that must be rejected.

mod fxs;

use flexpath_ftsearch::{FtExpr, InvertedIndex};
use flexpath_store::{LazyStore, StoreBytes, StoreError};
use flexpath_xmldom::codec::{encode_nodes, encode_symbols};
use flexpath_xmldom::{Document, NodeId, NodeKind};
use fxs::{payload, term_names, Expect, Visit, ELEMS, POSTINGS, TAGS, TERMS};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The property of the module doc, with a label naming the mutation when
/// anything in it panics. True if the image decoded, false if it was
/// rejected with a typed error.
fn check(image: &[u8], label: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| property(image))).unwrap_or_else(|_| {
        panic!("{label}: the decoders or the decoded store panicked (message above)")
    })
}

fn property(image: &[u8]) -> bool {
    let store = match LazyStore::from_store_bytes(StoreBytes::from_vec(image.to_vec())) {
        Ok(store) => store,
        Err(e) => return typed(e),
    };
    let (doc, index) = match (store.document(), store.stats(), store.index()) {
        (Ok(doc), Ok(_), Ok(index)) => (doc, index),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => return typed(e),
    };
    let (terms, postings) = index.encode();
    assert!(
        encode_symbols(doc.symbols()) == payload(image, TAGS),
        "tags re-encode"
    );
    assert!(
        encode_nodes(doc) == payload(image, ELEMS),
        "elems re-encode"
    );
    assert!(terms == payload(image, TERMS), "terms re-encode");
    assert!(postings == payload(image, POSTINGS), "postings re-encode");
    walk_document(doc);
    walk_index(doc, index, &term_names(image));
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

/// Every term of `names`, looked up and held to the canonical form; a few
/// evaluated, phrases included, so the positions are read too.
fn walk_index(doc: &Document, index: &InvertedIndex, names: &[String]) {
    assert_eq!(names.len(), index.term_count());
    for name in names {
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
        let phrase = FtExpr::Phrase(pair.to_vec());
        for expr in [FtExpr::Term(pair[0].clone()), phrase] {
            let eval = index.evaluate(doc, &expr);
            assert!(eval.nodes().windows(2).all(|w| w[0] < w[1]));
        }
    }
}

/// Runs `family` through the property, holding each image to its
/// expectation.
fn run(family: impl FnOnce(Visit)) {
    family(&mut |label, image, expect| {
        let accepted = check(image, label);
        match expect {
            Expect::Accepted => assert!(accepted, "{label}: rejected"),
            Expect::Rejected => assert!(!accepted, "{label}: accepted"),
            Expect::Either => {}
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "full decodes of a 30 KB corpus")]
fn valid_images_decode() {
    run(fxs::unmutated);
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn truncation_at_every_record_boundary() {
    run(fxs::truncation_at_every_boundary);
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn inflated_counts_and_lengths() {
    run(fxs::inflated_counts_and_lengths);
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn non_ascending_positions() {
    run(fxs::non_ascending_positions);
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn duplicate_symbols() {
    run(fxs::duplicate_symbols);
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn references_at_their_bound() {
    run(fxs::references_at_their_bound);
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn overlapping_section_table_entries() {
    run(fxs::overlapping_section_table_entries);
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn random_flips_and_splices() {
    run(fxs::random_flips_and_splices);
}

// --------------------------------- v3: one mutation per column check

#[test]
#[cfg_attr(miri, ignore = "full decodes of a 30 KB corpus")]
fn every_document_column_check_rejects_its_mutation() {
    for (what, _) in fxs::V3_ELEMS_MUTATIONS {
        run(|v| fxs::v3_column_mutation(what, v));
    }
    run(fxs::rebuilt_documents);
}

#[test]
#[cfg_attr(miri, ignore = "full decodes of a 30 KB corpus")]
fn every_index_column_check_rejects_its_mutation() {
    for (what, _) in fxs::V3_INDEX_MUTATIONS {
        run(|v| fxs::v3_column_mutation(what, v));
    }
}
