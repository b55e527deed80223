//! Micro-benchmarks for the substrates the paper's system is built on:
//! XML parsing, statistics collection, inverted-index construction, a
//! store's first-touch work (section CRC, document and index decode),
//! structural joins, full-text evaluation, closure computation, and
//! relaxation-schedule construction.

use flexpath_bench::bench_config;
use flexpath_bench::minibench::{criterion_group, criterion_main, Criterion};
use flexpath_engine::{
    build_schedule, stack_tree_desc, EngineContext, PenaltyModel, WeightAssignment,
};
use flexpath_ftsearch::{FtExpr, InvertedIndex, ScoringModel};
use flexpath_store::{crc32, StoreBuilder};
use flexpath_tpq::parse_query;
use flexpath_xmark::generate;
use flexpath_xmldom::codec::{decode_document, encode_nodes, encode_symbols};
use flexpath_xmldom::{
    parse, parse_events, to_xml_string, DocStats, FnSink, ParseOptions, XmlEvent,
};

fn micro(c: &mut Criterion) {
    let doc = generate(&bench_config(1 << 20));
    let xml = to_xml_string(&doc);
    let mut group = c.benchmark_group("micro_substrates");
    group.sample_size(10);

    group.bench_function("xml_parse_1mb", |b| {
        b.iter(|| parse(&xml).unwrap().node_count())
    });
    group.bench_function("xml_parse_events_1mb", |b| {
        b.iter(|| {
            let mut elements = 0usize;
            let mut sink = FnSink(|ev: XmlEvent<'_>| {
                if matches!(ev, XmlEvent::StartElement { .. }) {
                    elements += 1;
                }
            });
            parse_events(&xml, ParseOptions::default(), &mut sink).unwrap();
            let FnSink(_) = sink;
            elements
        })
    });
    group.bench_function("doc_stats_1mb", |b| b.iter(|| DocStats::compute(&doc)));
    group.bench_function("inverted_index_1mb", |b| {
        b.iter(|| InvertedIndex::build(&doc).term_count())
    });

    // A store's three first touches, one piece each: the CRC every touch
    // runs over its sections (here over the whole image of the 1 MB
    // corpus, ~1.8 MB), then the document and the index decode.
    let index = InvertedIndex::build(&doc);
    let image =
        StoreBuilder::from_parts("micro", &doc, &DocStats::compute(&doc), &index).to_bytes();
    group.bench_function("crc32_store_1mb", |b| b.iter(|| crc32(&image)));
    let (tags, elems) = (encode_symbols(doc.symbols()), encode_nodes(&doc));
    group.bench_function("decode_document_1mb", |b| {
        b.iter(|| decode_document(&tags, &elems).unwrap().node_count())
    });
    let (terms, postings) = index.encode();
    group.bench_function("index_decode_1mb", |b| {
        b.iter(|| {
            InvertedIndex::decode(&terms, &postings, doc.node_count())
                .unwrap()
                .term_count()
        })
    });

    let items = doc.nodes_with_tag_name("item").to_vec();
    let texts = doc.nodes_with_tag_name("text").to_vec();
    group.bench_function("structural_join_item_text", |b| {
        b.iter(|| stack_tree_desc(&doc, &items, &texts).len())
    });

    let ctx = EngineContext::new(doc.clone());
    // Full-text evaluation, one case per kind of atom work: a frequent
    // term (the sweep and the scoring cursors), a conjunction (two lists
    // merged), a phrase that starts with its frequent word (the
    // intersection is driven from the rare one).
    let gold = FtExpr::parse("\"vintage\" and \"gold\"").unwrap();
    for (name, expr) in [
        ("ft_eval_term", FtExpr::term("gold")),
        ("ft_eval_and", gold.clone()),
        ("ft_eval_phrase", FtExpr::term("gold ivory")),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| ctx.index().evaluate(ctx.doc(), &expr).len())
        });
    }
    group.bench_function("ft_eval_and_bm25", |b| {
        b.iter(|| {
            ctx.index()
                .evaluate_with(ctx.doc(), &gold, ScoringModel::bm25())
                .len()
        })
    });
    // What a `contains` penalty and a selectivity estimate ask of a cached
    // evaluation: how many nodes of a tag satisfy it.
    let eval = ctx.index().evaluate(ctx.doc(), &FtExpr::term("gold"));
    let name = ctx
        .doc()
        .symbols()
        .lookup("name")
        .expect("XMark has <name>");
    group.bench_function("count_for_tag", |b| {
        b.iter(|| eval.count_for_tag(ctx.doc(), name))
    });

    let q3 = parse_query(flexpath_bench::XQ3).unwrap();
    group.bench_function("closure_q3", |b| b.iter(|| q3.closure().len()));
    let model = PenaltyModel::new(&q3, WeightAssignment::uniform());
    group.bench_function("schedule_q3", |b| {
        b.iter(|| build_schedule(&ctx, &model, &q3, 64).len())
    });
    // The other half of a build's cost: `contains` penalties. The first
    // build evaluates the expression; the timed ones find it in the FT
    // cache and pay the per-tag counts only.
    let leaf = parse_query("//mail[./text/keyword[.contains(\"vintage\" and \"gold\")]]").unwrap();
    let model = PenaltyModel::new(&leaf, WeightAssignment::uniform());
    build_schedule(&ctx, &model, &leaf, 64);
    group.bench_function("schedule_contains", |b| {
        b.iter(|| build_schedule(&ctx, &model, &leaf, 64).len())
    });
    group.finish();
}

criterion_group!(benches, micro);
criterion_main!(benches);
