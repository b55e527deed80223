//! What a store costs to write and to touch first, piece by piece, on the
//! repository benchmark's `cold_start` corpus (its XMark settings, seed 1):
//!
//! ```text
//! cargo run --release --example first_touch -- 1000000 60
//! cargo run --release --example first_touch -- 10000000 15
//! ```
//!
//! The arguments are the corpus size in bytes and the repeat count. Each
//! timing is the best of the repeats, dropped result included; the op line
//! is the median of `FleXPath::open` + the workload's structural and
//! full-text query + drop. The two `first_structural_*` lines time `open` +
//! the structural query + drop, once as opened (lazy: the index sections
//! are never touched) and once with every section decoded first (`open` +
//! `materialize(true)`), alternating which goes first. One `key value` pair
//! per line, so two builds can be diffed line by line.

use flexpath::{Algorithm, FleXPath, QueryLimits, RankingScheme};
use flexpath_ftsearch::InvertedIndex;
use flexpath_xmldom::codec::decode_document;
use std::time::Instant;

/// The two queries of one `cold_start` op.
const QUERIES: [&str; 2] = [
    "//item[./description/parlist and ./mailbox/mail/text]",
    "//item[./name[.contains(\"porcelain\")]]",
];

/// The benchmark's corpus settings at `target_bytes`, seed 1.
fn corpus(target_bytes: usize) -> String {
    let config = flexpath_xmark::XmarkConfig {
        target_bytes,
        seed: 1,
        parlist_prob: 0.28,
        nested_parlist_prob: 0.30,
        max_parlist_depth: 3,
        incategory_zero_prob: 0.40,
        max_incategory: 2,
        max_mail: 2,
        inline_prob: 0.33,
        zipf_exponent: 1.0,
    };
    flexpath_xmldom::to_xml_string(&flexpath_xmark::generate(&config))
}

/// Best wall time of `reps` runs of `f`, in ms, dropping each result
/// inside the timing.
fn best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            drop(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min)
}

/// Answers `query` returns on `flex`, as one `cold_start` query runs.
fn answers(flex: &FleXPath, query: &str) -> usize {
    flex.query(query)
        .expect("query parses")
        .top(10)
        .algorithm(Algorithm::Hybrid)
        .scheme(RankingScheme::StructureFirst)
        .limits(QueryLimits::unlimited())
        .execute()
        .expect("query runs")
        .hits
        .len()
}

fn op(path: &std::path::Path) -> usize {
    let flex = FleXPath::open(path).expect("store opens");
    QUERIES.iter().map(|q| answers(&flex, q)).sum()
}

/// `open`, with every section decoded first when `eager`, then the
/// structural query.
fn first_structural(path: &std::path::Path, eager: bool) -> FleXPath {
    let flex = FleXPath::open(path).expect("store opens");
    if eager {
        flex.materialize(true).expect("every section decodes");
    }
    assert!(
        answers(&flex, QUERIES[0]) > 0,
        "the structural query answers"
    );
    flex
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| {
            a.parse()
                .expect("usage: first_touch <corpus bytes> <repeats>")
        })
        .collect();
    let (bytes, reps) = match args[..] {
        [bytes, reps] => (bytes, reps),
        _ => panic!("usage: first_touch <corpus bytes> <repeats>"),
    };
    let xml = corpus(bytes);
    let dir = std::env::temp_dir().join(format!("first-touch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("doc.fxs");

    let from_xml = best(reps.min(5), || {
        FleXPath::from_xml(&xml).expect("corpus parses")
    });
    let session = FleXPath::from_xml(&xml).expect("corpus parses");
    let file_bytes = session.save(&path, "doc").expect("store saves");
    drop(session);
    let file = std::fs::read(&path).expect("store reads");
    let report = flexpath_store::inspect_bytes(&file).expect("header parses");
    let section = |name: &str| {
        let s = report.sections.iter().find(|s| s.name == name).expect(name);
        &file[s.offset as usize..(s.offset + s.len) as usize]
    };
    let (tags, elems) = (section("tags"), section("elems"));
    let nodes = decode_document(tags, elems).expect("decodes").node_count();

    println!("format_version {}", flexpath_store::FORMAT_VERSION);
    println!("xml_bytes {}", xml.len());
    println!("file_bytes {file_bytes}");
    println!(
        "file_bytes_per_xml_byte {:.3}",
        file_bytes as f64 / xml.len() as f64
    );
    println!("nodes {nodes}");
    for s in &report.sections {
        println!("section_bytes.{} {}", s.name, s.len);
    }
    println!("from_xml_ms {from_xml:.3}");
    let open_ms = best(reps, || FleXPath::open(&path).expect("store opens"));
    println!("lazy_open_ms {open_ms:.4}");
    let crc = best(reps, || {
        report
            .sections
            .iter()
            .map(|s| flexpath_store::crc32(section(s.name)))
            .fold(0, u32::wrapping_add)
    });
    println!("crc_all_sections_ms {crc:.3}");
    let doc = best(reps, || decode_document(tags, elems).expect("decodes"));
    println!("decode_document_ms {doc:.3}");
    let (terms, postings) = (section("terms"), section("postings"));
    let index = best(reps, || {
        InvertedIndex::decode(terms, postings, nodes).expect("decodes")
    });
    println!("index_decode_ms {index:.3}");
    let eager = best(reps, || {
        let flex = FleXPath::open(&path).expect("store opens");
        flex.materialize(true).expect("every section decodes");
        flex
    });
    println!("eager_open_ms {eager:.3}");
    let (mut lazy_first, mut eager_first) = (f64::MAX, f64::MAX);
    for rep in 0..reps.max(1) {
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for eager in order {
            let ms = best(1, || first_structural(&path, eager));
            let slot = if eager {
                &mut eager_first
            } else {
                &mut lazy_first
            };
            *slot = slot.min(ms);
        }
    }
    println!("first_structural_lazy_ms {lazy_first:.3}");
    println!("first_structural_eager_ms {eager_first:.3}");
    let mut ops: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            assert!(op(&path) > 0, "the op's queries answer");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ops.sort_by(f64::total_cmp);
    println!("op_p50_ms {:.3}", ops[ops.len() / 2]);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
