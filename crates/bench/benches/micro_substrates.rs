//! Micro-benchmarks for the substrates the paper's system is built on:
//! XML parsing, statistics collection, inverted-index construction, a
//! store's first-touch work (section CRC, document and index decode),
//! structural joins, full-text evaluation, closure computation, and
//! relaxation-schedule construction.
//!
//! ```text
//! cargo bench -p flexpath-bench --bench micro_substrates
//! ```
//!
//! Each line is the minimum of [`SAMPLES`] timed calls after one warm-up
//! call. The figures of the paper are regenerated by the `repro` binary.

use flexpath_bench::bench_config;
use flexpath_engine::{
    build_schedule, stack_tree_desc, EngineContext, PenaltyModel, WeightAssignment,
};
use flexpath_ftsearch::{FtExpr, InvertedIndex};
use flexpath_store::{crc32, StoreBuilder};
use flexpath_tpq::parse_query;
use flexpath_xmark::generate;
use flexpath_xmldom::codec::{decode_document, encode_nodes, encode_symbols};
use flexpath_xmldom::{parse, to_xml_string, DocStats};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed calls per benchmark.
const SAMPLES: usize = 10;

/// Prints the minimum wall-clock time of `SAMPLES` calls of `f`, after
/// one untimed warm-up call.
fn bench<O>(name: &str, mut f: impl FnMut() -> O) {
    black_box(f());
    let best = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO);
    println!(
        "  micro_substrates/{name:<40} {:>12.3} ms",
        best.as_secs_f64() * 1e3
    );
}

fn main() {
    let doc = generate(&bench_config(1 << 20));
    let xml = to_xml_string(&doc);
    println!("group micro_substrates (min of {SAMPLES})");

    bench("xml_parse_1mb", || parse(&xml).unwrap().node_count());
    bench("doc_stats_1mb", || DocStats::compute(&doc));
    bench("inverted_index_1mb", || {
        InvertedIndex::build(&doc).term_count()
    });

    // A store's three first touches, one piece each: the CRC every touch
    // runs over its sections (here over the whole image of the 1 MB
    // corpus, ~1.8 MB), then the document and the index decode.
    let index = InvertedIndex::build(&doc);
    let image =
        StoreBuilder::from_parts("micro", &doc, &DocStats::compute(&doc), &index).to_bytes();
    bench("crc32_store_1mb", || crc32(&image));
    let (tags, elems) = (encode_symbols(doc.symbols()), encode_nodes(&doc));
    bench("decode_document_1mb", || {
        decode_document(&tags, &elems).unwrap().node_count()
    });
    let (terms, postings) = index.encode();
    bench("index_decode_1mb", || {
        InvertedIndex::decode(&terms, &postings, doc.node_count())
            .unwrap()
            .term_count()
    });

    let items = doc.nodes_with_tag_name("item").to_vec();
    let texts = doc.nodes_with_tag_name("text").to_vec();
    bench("structural_join_item_text", || {
        stack_tree_desc(&doc, &items, &texts).len()
    });

    let ctx = EngineContext::new(doc.clone());
    // Full-text evaluation, one case per kind of atom work: a frequent
    // term (the sweep and the scoring cursors), a conjunction (two lists
    // merged), a phrase that starts with its frequent word (the
    // intersection is driven from the rare one).
    for (name, expr) in [
        ("ft_eval_term", FtExpr::term("gold")),
        (
            "ft_eval_and",
            FtExpr::parse("\"vintage\" and \"gold\"").unwrap(),
        ),
        ("ft_eval_phrase", FtExpr::term("gold ivory")),
    ] {
        bench(name, || ctx.index().evaluate(ctx.doc(), &expr).len());
    }
    // What a `contains` penalty and a selectivity estimate ask of a cached
    // evaluation: how many nodes of a tag satisfy it.
    let eval = ctx.index().evaluate(ctx.doc(), &FtExpr::term("gold"));
    let name = ctx
        .doc()
        .symbols()
        .lookup("name")
        .expect("XMark has <name>");
    bench("count_for_tag", || eval.count_for_tag(ctx.doc(), name));

    let q3 = parse_query(flexpath_bench::XQ3).unwrap();
    bench("closure_q3", || q3.closure().len());
    let model = PenaltyModel::new(&q3, WeightAssignment::uniform());
    bench("schedule_q3", || {
        build_schedule(&ctx, &model, &q3, 64).len()
    });
    // The other half of a build's cost: `contains` penalties. The first
    // build evaluates the expression; the timed ones find it in the FT
    // cache and pay the per-tag counts only.
    let leaf = parse_query("//mail[./text/keyword[.contains(\"vintage\" and \"gold\")]]").unwrap();
    let model = PenaltyModel::new(&leaf, WeightAssignment::uniform());
    build_schedule(&ctx, &model, &leaf, 64);
    bench("schedule_contains", || {
        build_schedule(&ctx, &model, &leaf, 64).len()
    });
}
