//! Robustness of the query parser: whatever the bytes, [`parse_query`]
//! returns a query or a positioned error — it never panics and never
//! recurses past its depth cap — and every safe `contains` expression of a
//! query it returns evaluates. Fuzz-lite, seeded and dependency-free like
//! `crates/xmldom/tests/prop_parser_robustness.rs`: noise over the
//! grammar's own tokens, and mutations of valid queries.
//!
//! One check here measures time and is `#[ignore]`d, so the default test
//! run stays timing-free: parse time against the length of a repeated
//! span, run with `--ignored`.

use flexpath_ftsearch::InvertedIndex;
use flexpath_tpq::parser::MAX_DEPTH;
use flexpath_tpq::{parse_query, parse_query_weighted};
use flexpath_xmldom::{parse, Document};
use std::time::Instant;

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
        (self.next() % n as u64) as usize
    }
}

const CASES: u64 = 512;

/// The benchmark's Q1–Q3 and five `contains` shapes, the paper's Figure 1
/// queries, and one query per remaining production (attribute, wildcard,
/// weights, several qualifiers).
const VALID: [&str; 14] = [
    "//item[./description/parlist]",
    "//item[./description/parlist and ./mailbox/mail/text]",
    "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]",
    "//item[./name[.contains(\"porcelain\")]]",
    "//mail[./text[.contains(\"gold\" and \"silver\")]]",
    "//item[.contains(\"jade\" or \"ivory\")]",
    "//listitem[./text[.contains(\"limited edition\")]]",
    "//mail[./text/keyword[.contains(\"signed\" and \"certificate\")]]",
    "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]",
    "//article[.//algorithm and ./section[./paragraph and .contains(\"XML\" and \"streaming\")]]",
    "//article[.contains(\"XML\" and \"streaming\")]",
    "//item[@featured = \"yes\" and ./name][./price and @id >= 7]/*",
    "//article[./section^2 and .//note^0.25 and .contains(\"gold\" and not \"plated\")^0.5]",
    "/site//item[ ./name and .contains( (\"rare\" or \"scarce\") and \"vintage coin\" ) ]",
];

/// What the grammar is made of.
const PIECES: [&str; 40] = [
    "//",
    "/",
    "/",
    "[",
    "[",
    "]",
    "]",
    "./",
    ".//",
    ".",
    "*",
    "@",
    "^",
    "=",
    "<=",
    "!=",
    "(",
    ")",
    "\"",
    "\"",
    ".contains(",
    ".contains(\"gold\")",
    " and ",
    " and ",
    "and",
    " or ",
    " not ",
    " ",
    "\u{a0}",
    "\u{2003}",
    "\u{3000}",
    "a",
    "item",
    "text",
    "gold",
    "7",
    "0.5",
    "é",
    "ß",
    "-",
];

/// 30 nodes holding the words of [`VALID`].
const DOC: &str = "<site><item><name>gold porcelain vase</name><text>rare gold and silver \
    <keyword>signed certificate</keyword> coin</text></item><item><name>jade ring</name>\
    <text>limited edition <bold>ivory</bold> box</text><mail><text>vintage coin, gold plated\
    </text></mail></item><doc><sec><p>XML streaming</p><p>scarce silver</p></sec>\
    <sec><p>a 7 y</p><hr/></sec></doc></site>";

struct Corpus {
    doc: Document,
    index: InvertedIndex,
}

fn corpus() -> Corpus {
    let doc = parse(DOC).unwrap();
    assert_eq!(doc.node_count(), 30);
    let index = InvertedIndex::build(&doc);
    Corpus { doc, index }
}

/// The property: `Ok`, or an error positioned inside the input on a
/// character boundary; an `Ok` query is no deeper than the cap and its safe
/// `contains` expressions evaluate.
fn check(c: &Corpus, input: &str) {
    match parse_query_weighted(input) {
        Ok((q, weights)) => {
            assert!(weights.iter().all(|(_, w)| w.is_finite() && *w >= 0.0));
            for i in 0..q.node_count() {
                let depth = std::iter::successors(Some(i), |&n| q.node(n).parent).count();
                assert!(depth <= MAX_DEPTH, "{input:?}");
                for expr in q.node(i).contains.iter().filter(|e| e.is_safe()) {
                    let eval = c.index.evaluate(&c.doc, expr);
                    assert!(eval.nodes().windows(2).all(|w| w[0] < w[1]), "{input:?}");
                }
            }
        }
        Err(e) => {
            assert!(e.offset <= input.len(), "{e} beyond {input:?}");
            assert!(
                input.is_char_boundary(e.offset),
                "{e} inside a char of {input:?}"
            );
        }
    }
}

/// Runs `body` on the stack a server worker has, so "recursion is bounded"
/// is tested against the bound that matters.
fn on_worker_stack(body: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(body)
        .unwrap()
        .join()
        .unwrap();
}

fn char_boundary_at_or_before(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// A random char-aligned span of `s`.
fn span(rng: &mut Rng, s: &str) -> (usize, usize) {
    let a = char_boundary_at_or_before(s, rng.below(s.len() + 1));
    let b = char_boundary_at_or_before(s, rng.below(s.len() + 1));
    (a.min(b), a.max(b))
}

#[test]
fn named_crashers() {
    on_worker_stack(|| {
        let c = corpus();
        // `skip_ws` advanced one byte into a multi-byte space: a slice panic.
        for ws in ['\u{a0}', '\u{2003}', '\u{3000}'] {
            for input in [
                format!("//a[{ws}./b]"),
                format!("//a[./b and{ws}.contains(\"gold\" and{ws}\"silver\"{ws})]"),
            ] {
                assert!(parse_query(&input).is_ok(), "{input:?}");
                check(&c, &input);
            }
        }
        // The keyword probe sliced `kw.len()` bytes, inside the space.
        check(&c, "//a[./b an\u{a0}./c]");
        // One stack frame (several, in fact) per level: an abort.
        for deep in [
            format!("//a{}{}", "[./a".repeat(20_000), "]".repeat(20_000)),
            format!("/{}", "/a".repeat(200_000)),
            format!(
                "//a[.contains({}\"a\"{})]",
                "(".repeat(5_000),
                ")".repeat(5_000)
            ),
            format!("//a[.contains(\"a\" and {}\"b\")]", "not ".repeat(200_000)),
        ] {
            let e = parse_query(&deep).unwrap_err();
            assert!(e.message.contains("nesting deeper than 64"), "{e}");
            check(&c, &deep);
        }
    });
}

#[test]
fn grammar_flavoured_noise_never_panics() {
    let c = corpus();
    for case in 0..CASES {
        let mut rng = Rng(0x100 + case);
        // Loose tokens, behind the one start the grammar accepts …
        let noise: String = (0..rng.below(41))
            .map(|_| PIECES[rng.below(PIECES.len())])
            .collect();
        check(&c, &noise);
        check(&c, &format!("//item{noise}"));
        // … and a valid query with a few of them dropped in.
        let mut input = VALID[rng.below(VALID.len())].to_string();
        for _ in 0..1 + rng.below(3) {
            let at = char_boundary_at_or_before(&input, rng.below(input.len() + 1));
            input.insert_str(at, PIECES[rng.below(PIECES.len())]);
        }
        check(&c, &input);
    }
}

#[test]
fn arbitrary_unicode_never_panics() {
    let c = corpus();
    for case in 0..CASES {
        let mut rng = Rng(0x200 + case);
        let input: String = (0..rng.below(81))
            .filter_map(|_| char::from_u32(rng.next() as u32 % 0x3100))
            .collect();
        check(&c, &input);
        check(&c, &format!("//a[.contains(\"{input}\") and ./{input}]"));
    }
}

#[test]
fn truncations_of_valid_queries_never_panic() {
    let c = corpus();
    for valid in VALID {
        for (cut, _) in valid.char_indices() {
            check(&c, &valid[..cut]);
            check(&c, &valid[cut..]);
        }
        check(&c, valid);
        assert!(parse_query(valid).is_ok(), "{valid}");
    }
}

#[test]
fn mutations_of_valid_queries_never_panic() {
    on_worker_stack(|| {
        let c = corpus();
        for case in 0..CASES {
            let mut rng = Rng(0x300 + case);
            let mut s = VALID[rng.below(VALID.len())].to_string();
            for _ in 0..1 + rng.below(3) {
                match rng.below(4) {
                    // Byte flip (whatever UTF-8 makes of it).
                    0 => {
                        let mut bytes = s.into_bytes();
                        let at = rng.below(bytes.len().max(1));
                        if let Some(b) = bytes.get_mut(at) {
                            *b = rng.next() as u8;
                        }
                        s = String::from_utf8_lossy(&bytes).into_owned();
                    }
                    // Splice a span of another valid query.
                    1 => {
                        let donor = VALID[rng.below(VALID.len())];
                        let (a, b) = span(&mut rng, donor);
                        let at = char_boundary_at_or_before(&s, rng.below(s.len() + 1));
                        s.insert_str(at, &donor[a..b]);
                    }
                    // Delete a span.
                    2 => {
                        let (a, b) = span(&mut rng, &s);
                        s.replace_range(a..b, "");
                    }
                    // Repeat a span, up to 64 KiB of it.
                    _ => {
                        let (a, b) = span(&mut rng, &s);
                        if a < b {
                            let times = 1 + rng.below((64 << 10) / (b - a));
                            let repeated = s[a..b].repeat(times);
                            s.insert_str(b, &repeated);
                        }
                    }
                }
            }
            check(&c, &s);
        }
    });
}

/// `prefix`, then `span` repeated until the input is about `bytes` long,
/// then `suffix`: the mutation family's span repetition, kept valid.
fn repeated(prefix: &str, span: &str, suffix: &str, bytes: usize) -> String {
    let times = bytes.saturating_sub(prefix.len() + suffix.len()) / span.len();
    format!("{prefix}{}{suffix}", span.repeat(times))
}

/// Minimum wall-clock seconds of five calls of `parse`.
fn min_of_5<T>(mut parse: impl FnMut() -> T) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let _ = std::hint::black_box(parse());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

/// Parsing is linear in the length of a repeated span: a query 8× longer
/// parses in at most 24× the time (quadratic would be 64×). The spans are
/// sibling qualifiers (plain, weighted, on attributes) and the atoms of one
/// `contains`; a repeated path step stops at the depth cap instead.
#[test]
#[ignore = "wall-clock growth check; run with --ignored in an optimised build"]
fn parse_time_is_linear_in_repeated_spans() {
    for (prefix, span, suffix) in [
        ("//item[./name", " and ./description/parlist", "]"),
        ("//item[./name", " and .//keyword^0.5", "]"),
        ("//item[.contains(\"gold\"", " and \"silver\"", ")]"),
        ("//item[@id >= 7", " and @featured = \"yes\"", "]"),
    ] {
        let time = |bytes: usize| {
            let input = repeated(prefix, span, suffix, bytes);
            assert!(parse_query(&input).is_ok(), "{input:.80}…");
            min_of_5(|| parse_query(std::hint::black_box(&input)))
        };
        let (small, large) = (time(8 << 10), time(64 << 10));
        let ratio = large / small;
        assert!(
            ratio <= 24.0,
            "query repeating {span:?}: 64 KiB took {ratio:.1}x the 8 KiB one \
             ({:.3} ms vs {:.3} ms)",
            large * 1e3,
            small * 1e3
        );
    }
}
