//! The allocation bound of the `.fxs` decoders: opening an image and
//! touching its document, statistics and index never asks the allocator
//! for one block larger than [`C`] times the image's length, whatever the
//! image holds. A count or length field that sized an allocation before it
//! was checked against the bytes behind it (a `Vec::with_capacity(count)`
//! on an unchecked count) would break this on the inflated-count mutations.
//!
//! Every image of every mutation family of the decoder fuzzer (`fxs/mod.rs`)
//! is opened and touched under a counting global
//! allocator that records the largest single request. The tests of this
//! binary run one after another in one test function, so the record is
//! never shared with another decode.

mod fxs;

use flexpath_store::{LazyStore, StoreBytes};
use fxs::Visit;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// No single allocation may exceed `C` × the image's length. A decoded
/// column is at most as large as its bytes, and the in-memory shapes built
/// from them stay within twice that: 12-byte posting entries from 8 bytes
/// of `node` and `tf`, 24-byte attributes from 12 bytes of owner, name and
/// value end.
const C: usize = 2;

/// The largest single request since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// atomic maximum over the requested size, which neither allocates nor
// touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Opens `image` and touches all three parts (errors are fine), returning
/// the largest single allocation made on the way.
fn largest_allocation(image: &[u8]) -> usize {
    let bytes = StoreBytes::from_vec(image.to_vec());
    LARGEST.store(0, Ordering::Relaxed);
    if let Ok(store) = LazyStore::from_store_bytes(bytes) {
        let _ = (store.document(), store.stats(), store.index());
    }
    LARGEST.load(Ordering::Relaxed)
}

#[test]
#[cfg_attr(miri, ignore = "thousands of full decodes")]
fn no_mutated_image_allocates_more_than_c_times_its_length() {
    #[allow(clippy::type_complexity)] // a name and a family, ten times
    let families: [(&str, fn(Visit)); 10] = [
        ("unmutated", fxs::unmutated),
        ("truncation", fxs::truncation_at_every_boundary),
        ("inflated counts", fxs::inflated_counts_and_lengths),
        ("non-ascending positions", fxs::non_ascending_positions),
        ("duplicate symbols", fxs::duplicate_symbols),
        ("references at their bound", fxs::references_at_their_bound),
        (
            "overlapping table entries",
            fxs::overlapping_section_table_entries,
        ),
        ("random flips and splices", fxs::random_flips_and_splices),
        ("rebuilt documents", fxs::rebuilt_documents),
        ("named mutations", |visit| {
            let v3 = fxs::V3_ELEMS_MUTATIONS
                .iter()
                .chain(fxs::V3_INDEX_MUTATIONS);
            for (what, _) in v3 {
                fxs::v3_column_mutation(what, visit);
            }
        }),
    ];
    let mut images = 0;
    for (family, run) in families {
        run(&mut |label, image, _| {
            let largest = largest_allocation(image);
            assert!(
                largest <= C * image.len(),
                "{family}: {label}: one allocation of {largest} bytes for a \
                 {}-byte image (bound {C}x)",
                image.len()
            );
            images += 1;
        });
    }
    assert!(images > 3_000, "only {images} images checked");
}
