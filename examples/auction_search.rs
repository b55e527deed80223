//! Flexible search over an XMark-style auction site — the paper's
//! evaluation workload (Section 6) — comparing DPO, SSO, and Hybrid.
//!
//! Run with: `cargo run --release --example auction_search [-- <size-kb> <k>]`

use flexpath::{Algorithm, FleXPath, RankingScheme};
use flexpath_xmark::{generate, XmarkConfig};
use std::time::Instant;

/// The paper's benchmark queries (Section 6), named XQ1–XQ3 here to avoid
/// clashing with Figure 1's Q1–Q6.
const QUERIES: [(&str, &str); 3] = [
    ("XQ1", "//item[./description/parlist]"),
    ("XQ2", "//item[./description/parlist and ./mailbox/mail/text]"),
    (
        "XQ3",
        "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let size_kb: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let k: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(50);

    println!("generating ~{size_kb} KB XMark document (seed 42)…");
    let doc = generate(&XmarkConfig::sized(size_kb * 1024, 42));
    let items = doc.nodes_with_tag_name("item").len();
    println!(
        "{} nodes, {} items; building index and statistics…\n",
        doc.node_count(),
        items
    );
    let flex = FleXPath::new(doc);

    // Add a full-text twist on top of XQ2: items whose mail text mentions
    // vintage gold.
    let ft_query = "//item[./description/parlist and ./mailbox/mail/text[.contains(\"vintage\" and \"gold\")]]";

    for (name, q) in QUERIES.iter().copied().chain([("XQ2+ft", ft_query)]) {
        println!("── {name}: {q}");
        for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
            let t = Instant::now();
            let r = flex
                .query(q)
                .expect("benchmark query parses")
                .top(k)
                .algorithm(alg)
                .scheme(RankingScheme::StructureFirst)
                .execute()
                .expect("query runs");
            let dt = t.elapsed();
            println!(
                "   {alg:<6} {:>6.2?}  answers={:<4} relaxations={:<2} evals={:<2} \
                 intermediates={:<6} buckets={}",
                dt,
                r.hits.len(),
                r.stats.relaxations_used,
                r.stats.evaluations,
                r.stats.intermediate_answers,
                r.stats.buckets,
            );
        }
        println!();
    }

    // Show what relaxation actually surfaced for XQ3.
    let r = flex
        .query(QUERIES[2].1)
        .unwrap()
        .top(k)
        .execute()
        .expect("query runs");
    if let (Some(best), Some(worst)) = (r.hits.first(), r.hits.last()) {
        println!(
            "XQ3 score range: best ss={:.3} … worst ss={:.3}",
            best.score.ss, worst.score.ss
        );
        println!(
            "levels used: {:?}",
            r.hits
                .iter()
                .map(|h| h.relaxation_level)
                .collect::<std::collections::BTreeSet<_>>()
        );
    }
}
