//! Robustness of the full-text expression parser: whatever the bytes,
//! [`FtExpr::parse`] returns an expression or a positioned error — it never
//! panics and never recurses past its nesting cap — and every safe
//! expression it returns evaluates. Fuzz-lite, seeded and dependency-free
//! like `crates/xmldom/tests/prop_parser_robustness.rs`: noise over the
//! grammar's own tokens, and mutations of valid expressions.

use flexpath_ftsearch::ftexpr::MAX_NESTING;
use flexpath_ftsearch::{FtExpr, InvertedIndex};
use flexpath_xmldom::{parse, Document};

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

/// The benchmark's five `contains` shapes and the paper's examples.
const VALID: [&str; 8] = [
    "\"porcelain\"",
    "\"gold\" and \"silver\"",
    "\"jade\" or \"ivory\"",
    "\"limited edition\"",
    "\"signed\" and \"certificate\"",
    "\"XML\" and \"streaming\"",
    "\"gold\" and not \"plated\"",
    "(\"rare\" or \"scarce\") and \"vintage coin\"",
];

/// What the grammar is made of, plus what sits next to it in a query.
const PIECES: [&str; 28] = [
    "\"", "\"", "\"", "(", ")", "[", "]", "/", ".", "^", "@", "and", "or", "not", " and ", " or ",
    " not ", " ", "\u{a0}", "\u{2003}", "\u{3000}", "gold", "silver", "a", "7", "é", "ß", "y",
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
/// character boundary; a safe `Ok` evaluates to ascending matches.
fn check(c: &Corpus, input: &str) {
    match FtExpr::parse(input) {
        Ok(expr) => {
            if expr.is_safe() {
                let eval = c.index.evaluate(&c.doc, &expr);
                assert!(eval.nodes().windows(2).all(|w| w[0] < w[1]), "{input:?}");
                assert!(eval.nodes().iter().all(|&n| eval.score(&c.doc, n) > 0.0));
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
            let input = format!("\"gold\" and{ws}\"silver\"");
            assert_eq!(
                FtExpr::parse(&input),
                FtExpr::parse("\"gold\" and \"silver\""),
                "{input:?}"
            );
            check(&c, &input);
        }
        // The keyword probe sliced `kw.len()` bytes, inside the space.
        check(&c, "\"gold\" an\u{a0}\"silver\"");
        // One stack frame (four, in fact) per `(` and per `not`: an abort.
        for deep in [
            format!("{}\"a\"{}", "(".repeat(5_000), ")".repeat(5_000)),
            format!("\"a\" and {}\"b\"", "not ".repeat(200_000)),
        ] {
            let e = FtExpr::parse(&deep).unwrap_err();
            assert_eq!(e.message, format!("nesting deeper than {MAX_NESTING}"));
            check(&c, &deep);
        }
        // The stemmer's consonant test walks back along a run of `y`s, once
        // per letter it is asked about: 34 s for this token (release), a
        // frame per `y` where the recursion is not optimised away.
        check(&c, &format!("\"{}ed\"", "y".repeat(200_000)));
    });
}

/// A random expression the grammar accepts, with every kind of whitespace
/// (none included) between its tokens.
fn generate(rng: &mut Rng, depth: u32, out: &mut String) {
    const WS: [&str; 8] = [" ", " ", "  ", "\t", "", "\u{a0}", "\u{2003}", "\u{3000}"];
    const WORDS: [&str; 8] = [
        "gold",
        "silver",
        "coin",
        "XML",
        "y",
        "7",
        "é",
        "vintage coin",
    ];
    let ws = |rng: &mut Rng, out: &mut String| out.push_str(WS[rng.below(WS.len())]);
    match rng.below(if depth >= 4 { 2 } else { 6 }) {
        0 | 1 => {
            out.push('"');
            out.push_str(WORDS[rng.below(WORDS.len())]);
            out.push('"');
        }
        2 => {
            out.push('(');
            ws(rng, out);
            generate(rng, depth + 1, out);
            ws(rng, out);
            out.push(')');
        }
        3 => {
            out.push_str("not");
            ws(rng, out);
            generate(rng, depth + 1, out);
        }
        op => {
            generate(rng, depth + 1, out);
            ws(rng, out);
            out.push_str(if op == 4 { "and" } else { "or" });
            ws(rng, out);
            generate(rng, depth + 1, out);
        }
    }
}

#[test]
fn grammar_flavoured_noise_never_panics() {
    let c = corpus();
    for case in 0..CASES {
        let mut rng = Rng(0x100 + case);
        // Loose tokens …
        let noise: String = (0..rng.below(41))
            .map(|_| PIECES[rng.below(PIECES.len())])
            .collect();
        check(&c, &noise);
        // … and a well-formed expression with a few of them dropped in.
        let mut input = String::new();
        generate(&mut rng, 0, &mut input);
        check(&c, &input);
        for _ in 0..rng.below(3) {
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
        check(&c, &format!("\"{input}\""));
    }
}

#[test]
fn truncations_of_valid_expressions_never_panic() {
    let c = corpus();
    for valid in VALID {
        for (cut, _) in valid.char_indices() {
            check(&c, &valid[..cut]);
            check(&c, &valid[cut..]);
        }
        check(&c, valid);
        assert!(FtExpr::parse(valid).is_ok_and(|e| e.is_safe()), "{valid}");
    }
}

#[test]
fn mutations_of_valid_expressions_never_panic() {
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
                    // Splice a span of another valid expression, or a piece.
                    1 => {
                        let donor = VALID[rng.below(VALID.len())];
                        let (a, b) = span(&mut rng, donor);
                        let piece = PIECES[rng.below(PIECES.len())];
                        let insert = if rng.below(2) == 0 {
                            &donor[a..b]
                        } else {
                            piece
                        };
                        let at = char_boundary_at_or_before(&s, rng.below(s.len() + 1));
                        s.insert_str(at, insert);
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
