//! The benchmark workload: XMark-style documents calibrated so the paper's
//! queries exhibit the paper's relaxation behaviour.
//!
//! Section 6 reports that, at K = 50 on a 1 MB document, Q1 needs no
//! relaxation while Q2 admits 2 and Q3 admits 6. Relaxation demand depends
//! on how selective the exact queries are, so the generator probabilities
//! here are tuned to keep XQ2/XQ3 selective: sparse `parlist`s, sparse
//! mailboxes, and independent ~40% inline markup make
//! `text[./bold and ./keyword and ./emph]` a rare exact configuration.

use flexpath::{Catalog, FleXPath, StoreBuilder};
use flexpath_xmark::{generate, XmarkConfig};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The paper's three benchmark queries (Section 6).
pub const XQ1: &str = "//item[./description/parlist]";
/// Q2 of Section 6.
pub const XQ2: &str = "//item[./description/parlist and ./mailbox/mail/text]";
/// Q3 of Section 6.
pub const XQ3: &str = "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]";

/// `(name, xpath)` pairs in increasing relaxation-opportunity order.
pub const QUERIES: [(&str, &str); 3] = [("Q1", XQ1), ("Q2", XQ2), ("Q3", XQ3)];

/// Generator configuration used by every benchmark (fixed seed: benchmarks
/// must be reproducible).
pub fn bench_config(target_bytes: usize) -> XmarkConfig {
    XmarkConfig {
        target_bytes,
        seed: 1, // chosen so XQ1/XQ2/XQ3 selectivities order correctly
        parlist_prob: 0.28,
        nested_parlist_prob: 0.30,
        max_parlist_depth: 3,
        incategory_zero_prob: 0.40,
        max_incategory: 2,
        max_mail: 2,
        inline_prob: 0.33,
        zipf_exponent: 1.0,
    }
}

/// Store directory for [`bench_session`], set once by `repro --store DIR`.
static STORE_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Routes every subsequent [`bench_session`] call through a persistent
/// store under `dir`: sessions load from the store when the document is
/// already indexed there, and index-then-save it otherwise (so the first
/// `--store` run populates the cache and later runs skip generation and
/// preprocessing entirely). Only the first call wins; benchmarks must not
/// switch corpora mid-run.
pub fn set_store_dir(dir: &str) {
    let _ = STORE_DIR.set(PathBuf::from(dir));
}

/// Catalog name for the benchmark document of a given size. The generator
/// is deterministic (fixed seed), so the byte target identifies the corpus.
pub fn store_document_name(target_bytes: usize) -> String {
    format!("xmark-{target_bytes}")
}

/// Generates the document and preprocesses a FleXPath session for it.
///
/// With a store directory set (see [`set_store_dir`]), the session is
/// loaded from — or indexed into — that store instead; load and build
/// produce byte-identical answers (`tests/store_roundtrip.rs`), so figures
/// are unaffected by the cache.
pub fn bench_session(target_bytes: usize) -> FleXPath {
    let Some(dir) = STORE_DIR.get() else {
        return FleXPath::new(generate(&bench_config(target_bytes)));
    };
    match store_backed_session(dir, target_bytes) {
        Ok(flex) => flex,
        Err(e) => {
            eprintln!(
                "store at {} unusable ({e}); building session in memory",
                dir.display()
            );
            FleXPath::new(generate(&bench_config(target_bytes)))
        }
    }
}

/// Loads the sized benchmark session from the catalog at `dir`, indexing
/// and saving it first if absent.
pub fn store_backed_session(
    dir: &Path,
    target_bytes: usize,
) -> Result<FleXPath, flexpath::StoreError> {
    let catalog = Catalog::open(dir)?;
    let name = store_document_name(target_bytes);
    if catalog.contains(&name) {
        return Ok(FleXPath::from_lazy_store(catalog.open_lazy(&name)?));
    }
    let flex = FleXPath::new(generate(&bench_config(target_bytes)));
    let ctx = flex.context();
    let builder = StoreBuilder::from_parts(&name, ctx.doc(), ctx.stats(), ctx.index());
    catalog.save(&builder)?;
    Ok(flex)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_parse() {
        for (_, q) in QUERIES {
            flexpath::parse_query(q).unwrap();
        }
    }

    #[test]
    fn calibration_orders_selectivity() {
        // Q3 must be (much) more selective than Q2, which is more selective
        // than Q1 — that ordering is what creates the paper's 0/2/6
        // relaxation ladder.
        let flex = bench_session(256 * 1024);
        let count = |q: &str| {
            flex.query(q)
                .unwrap()
                .top(100_000)
                .max_relaxations(0)
                .execute()
                .unwrap()
                .hits
                .len()
        };
        let (c1, c2, c3) = (count(XQ1), count(XQ2), count(XQ3));
        assert!(c1 > c2, "Q1 ({c1}) should be less selective than Q2 ({c2})");
        assert!(c2 > c3, "Q2 ({c2}) should be less selective than Q3 ({c3})");
        assert!(c3 >= 1, "Q3 must still have exact matches");
    }

    #[test]
    fn store_backed_session_matches_in_memory_build() {
        let dir = flexpath_reference::ScratchDir::new("bench-workload");
        let bytes = 128 * 1024;
        // First call indexes and saves; second call loads from the store.
        let built = store_backed_session(dir.path(), bytes).unwrap();
        let loaded = store_backed_session(dir.path(), bytes).unwrap();
        assert!(
            loaded.store_trace().is_some(),
            "second call must come from the store"
        );
        let run = |f: &FleXPath| {
            let r = f.query(XQ2).unwrap().top(20).trace().execute().unwrap();
            let nodes: Vec<_> = r.hits.iter().map(|h| h.node).collect();
            (nodes, r.trace.unwrap().counter_fingerprint())
        };
        assert_eq!(run(&built), run(&loaded));
    }

    #[test]
    fn relaxation_demand_matches_paper_ladder() {
        // At K = 50 on ~1 MB: Q1 should need no relaxation; Q3 should need
        // several.
        let flex = bench_session(1 << 20);
        let relaxations = |q: &str| {
            flex.query(q)
                .unwrap()
                .top(50)
                .algorithm(flexpath::Algorithm::Dpo)
                .execute()
                .unwrap()
                .stats
                .relaxations_used
        };
        assert_eq!(relaxations(XQ1), 0, "Q1 needs no relaxation at K=50");
        assert!(
            relaxations(XQ3) > relaxations(XQ1),
            "Q3 must need relaxation"
        );
    }
}
