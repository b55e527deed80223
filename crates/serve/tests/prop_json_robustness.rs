//! Robustness of the request-body parser: whatever the bytes,
//! [`json::parse`] returns a typed [`JsonError`] positioned inside the
//! input, or a value that survives a round trip through the service's own
//! writer ([`JsonBuf`]) unchanged. It never panics. Fuzz-lite, seeded and
//! dependency-free like `crates/tpq/tests/prop_parser_robustness.rs`: the
//! edges of each production (nesting at the depth cap, surrogate halves,
//! escapes, numbers), truncation of valid bodies at every byte, noise over
//! the grammar's tokens, and mutations of valid bodies, span repetition up
//! to 64 KiB included.
//!
//! One check here measures time and is `#[ignore]`d, so the default test
//! run stays timing-free: parse time against the length of a repeated
//! span, run with `--ignored`.

use flexpath_serve::json::{self, Json, JsonBuf, JsonError, MAX_DEPTH};
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
        (self.next() % n.max(1) as u64) as usize
    }
}

const CASES: u64 = 512;

/// Bodies the service accepts or answers with: the query payload in its
/// shapes, and values of every kind.
const VALID: [&str; 10] = [
    r#"{"catalog":"doc","query":"//item[./name]","k":5}"#,
    r#"{"catalog":"xmark10","query":"//item[.contains(\"gold\" and not \"silver\")]","k":10,"algorithm":"hybrid","scheme":"combined","trace":true,"deadline_ms":250.0}"#,
    r#"{"catalog":"doc","query":"//a","k":3,"max_candidates":0,"threads":1,"weights":{"b":2,"c":0.25}}"#,
    r#"{"q":"prix ≤ 98 €","esc":"a\"b\\c\n\té😀\/","nested":{"x":[1,2,3],"y":{}}}"#,
    r#"[null,true,false,0,-0,1.5e3,-2E-2,1e308,18446744073709551615,"",[],{}]"#,
    r#"  {"spaces" : [ 1 , 2 ] , "tabs":	"\t" }  "#,
    r#""just a string""#,
    "12345678901234567890123",
    "-0.000000000000000000001",
    r#"{"a":{"b":{"c":{"d":[[[["deep"]]]]}}}}"#,
];

/// What the grammar is made of.
const PIECES: [&str; 30] = [
    "{", "}", "[", "]", ":", ",", "\"", "\"", "\\", "\\u", "\\ud800", "\\udc00", "\\n", "true",
    "false", "null", "-", "0", "7", ".", "e", "E+", "1e309", " ", "\t", "é", "😀", "\u{1}",
    "\"k\":", "\"s\"",
];

/// The value as [`JsonBuf`] writes it.
fn render(v: &Json, b: &mut JsonBuf) {
    match v {
        Json::Null => {
            b.raw("null");
        }
        Json::Bool(x) => {
            b.bool(*x);
        }
        Json::Number(n) => {
            b.f64(*n);
        }
        Json::String(s) => {
            b.string(s);
        }
        Json::Array(items) => {
            b.raw("[");
            for item in items {
                b.comma();
                render(item, b);
            }
            b.raw("]");
        }
        Json::Object(members) => {
            b.raw("{");
            for (key, value) in members {
                b.key(key);
                render(value, b);
            }
            b.raw("}");
        }
    }
}

/// The property, returning the value when `input` parsed.
fn check(input: &[u8]) -> Option<Json> {
    match json::parse(input) {
        Ok(v) => {
            let mut b = JsonBuf::new();
            render(&v, &mut b);
            let written = b.finish();
            let back = json::parse(written.as_bytes())
                .unwrap_or_else(|e| panic!("{written:?} (from {input:?}) does not parse: {e}"));
            assert_eq!(back, v, "{input:?} did not round-trip through {written:?}");
            Some(v)
        }
        Err(JsonError { offset, message }) => {
            assert!(
                offset <= input.len(),
                "{message} at {offset} beyond {input:?}"
            );
            assert!(!message.is_empty());
            None
        }
    }
}

fn error(input: &[u8]) -> &'static str {
    assert!(check(input).is_none(), "{input:?} parsed");
    json::parse(input).unwrap_err().message
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

/// `depth` levels of `open` around `inner`, closed by `close`.
fn nest(open: &str, inner: &str, close: &str, depth: usize) -> String {
    format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
}

/// `1` inside `depth` levels, arrays and objects alternating from the
/// inside out: the `1` sits at depth `depth`.
fn alternating(depth: usize) -> String {
    (0..depth).fold("1".to_string(), |inner, level| {
        if level % 2 == 0 {
            format!("[{inner}]")
        } else {
            format!(r#"{{"k":{inner}}}"#)
        }
    })
}

#[test]
fn nesting_at_the_cap_and_one_past_it() {
    on_worker_stack(|| {
        for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            let below_cap = depth <= MAX_DEPTH;
            for input in [
                nest("[", "1", "]", depth),
                nest(r#"{"k":"#, "1", "}", depth),
                alternating(depth),
            ] {
                if below_cap {
                    assert!(check(input.as_bytes()).is_some(), "{input} rejected");
                } else {
                    assert_eq!(error(input.as_bytes()), "nesting too deep", "{input}");
                }
            }
        }
        // Far past the cap, closed or not: the cap answers first.
        for depth in [100, 100_000] {
            assert_eq!(error("[".repeat(depth).as_bytes()), "nesting too deep");
            let objects = nest(r#"{"a":"#, "0", "}", depth);
            assert_eq!(error(objects.as_bytes()), "nesting too deep");
        }
    });
}

#[test]
fn surrogate_halves() {
    for (input, want) in [
        (r#""\ud83d\ude00""#, "😀"),
        (r#""\ud800\udc00""#, "\u{10000}"),
        (r#""\udbff\udfff""#, "\u{10ffff}"),
        (r#""\ud7ff\ue000""#, "\u{d7ff}\u{e000}"),
    ] {
        let v = check(input.as_bytes()).unwrap_or_else(|| panic!("{input} rejected"));
        assert_eq!(v.as_str(), Some(want), "{input}");
    }
    for (input, message) in [
        (r#""\ud800""#, "lone high surrogate"),
        (r#""\ud800 x""#, "lone high surrogate"),
        (r#""\ud800\n""#, "lone high surrogate"),
        (r#""\ud800\"#, "lone high surrogate"),
        (r#""\ud800"#, "lone high surrogate"),
        (r#""\udbff\u0041""#, "invalid low surrogate"),
        (r#""\ud800\ud800""#, "invalid low surrogate"),
        (r#""\udc00""#, "lone low surrogate"),
        (r#""\udfff\ud800""#, "lone low surrogate"),
        (r#""\ude00\ud83d""#, "lone low surrogate"),
        (r#""\ud800\u12""#, "expected 4 hex digits"),
    ] {
        assert_eq!(error(input.as_bytes()), message, "{input}");
    }
}

#[test]
fn bad_escapes() {
    for input in [
        r#""\x41""#,
        r#""\U0041""#,
        r#""\u12""#,
        r#""\u12G4""#,
        r#""\u""#,
        r#""\"#,
        r#""\ ""#,
        "\"\\\u{e9}\"",
        "\"\\\0\"",
    ] {
        assert!(check(input.as_bytes()).is_none(), "{input}");
    }
    // Every escape the grammar has, and a raw control byte that needs one.
    let v = check(br#""\"\\\/\b\f\n\r\t\u0000\u001f\u007f""#).unwrap();
    assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\t\0\u{1f}\u{7f}"));
    assert_eq!(error(b"\"a\x01b\""), "raw control byte in string");
}

#[test]
fn number_edges() {
    let two64 = 18_446_744_073_709_551_616.0;
    for (input, want) in [
        ("-0", -0.0),
        ("0", 0.0),
        ("-0.0e-0", -0.0),
        ("18446744073709551615", two64),
        ("18446744073709551616", two64),
        ("18446744073709551617", two64),
        ("1e308", 1e308),
        ("1.7976931348623157e308", f64::MAX),
        ("4.9e-324", 5e-324),
        ("1e-400", 0.0),
    ] {
        let v = check(input.as_bytes()).unwrap_or_else(|| panic!("{input} rejected"));
        assert_eq!(
            v.as_f64().map(f64::to_bits),
            Some(want.to_bits()),
            "{input}"
        );
    }
    for input in ["1e309", "-1e309", "1.8e308", "2e400"] {
        assert_eq!(error(input.as_bytes()), "number out of range", "{input}");
    }
    // 400-digit mantissas: past f64 as an integer, fine as a fraction.
    let digits = "9".repeat(400);
    assert_eq!(error(digits.as_bytes()), "number out of range");
    for input in [
        format!("0.{digits}"),
        format!("-0.{digits}e-5"),
        format!("{digits}e-390"),
    ] {
        assert!(check(input.as_bytes()).is_some(), "{input}");
    }
    for input in [
        "-", ".5", "1e", "1e+", "--1", "+1", "0x10", "1.2.3", "NaN", "Infinity",
    ] {
        assert!(check(input.as_bytes()).is_none(), "{input}");
    }
}

/// RFC 8259's number grammar, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
/// at the places Rust's float parser is more lenient than it.
#[test]
fn numbers_follow_the_rfc_grammar() {
    for (input, want) in [
        ("0", 0.0_f64),
        ("-0", -0.0),
        ("0.5", 0.5),
        ("1E+5", 1e5),
        ("-0.0e-0", -0.0),
    ] {
        let v = check(input.as_bytes()).unwrap_or_else(|| panic!("{input} rejected"));
        assert_eq!(
            v.as_f64().map(f64::to_bits),
            Some(want.to_bits()),
            "{input}"
        );
    }
    // A fraction or exponent without digits, and leading zeros.
    for input in ["1.", "01", "-01", "00", "1.e5", "-.5"] {
        assert_eq!(error(input.as_bytes()), "bad number", "{input}");
    }
}

#[test]
fn truncation_of_valid_bodies_at_every_byte() {
    for valid in VALID {
        let bytes = valid.as_bytes();
        assert!(check(bytes).is_some(), "{valid}");
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
            check(&bytes[cut..]);
        }
    }
}

#[test]
fn grammar_flavoured_noise() {
    for case in 0..CASES {
        let mut rng = Rng(0x400 + case);
        let noise: String = (0..rng.below(41))
            .map(|_| PIECES[rng.below(PIECES.len())])
            .collect();
        check(noise.as_bytes());
        check(format!("[{noise}]").as_bytes());
        let mut body = VALID[rng.below(VALID.len())].as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(body.len() + 1);
            body.splice(at..at, PIECES[rng.below(PIECES.len())].bytes());
        }
        check(&body);
    }
}

#[test]
fn mutations_of_valid_bodies() {
    on_worker_stack(|| {
        for case in 0..CASES {
            let mut rng = Rng(0x500 + case);
            let mut body = VALID[rng.below(VALID.len())].as_bytes().to_vec();
            for _ in 0..1 + rng.below(3) {
                let (a, b) = {
                    let x = rng.below(body.len() + 1);
                    let y = rng.below(body.len() + 1);
                    (x.min(y), x.max(y))
                };
                match rng.below(4) {
                    // Byte flip, whatever UTF-8 makes of it.
                    0 => {
                        if let Some(byte) = body.get_mut(a) {
                            *byte = rng.next() as u8;
                        }
                    }
                    // Splice a span of another valid body.
                    1 => {
                        let donor = VALID[rng.below(VALID.len())].as_bytes();
                        let x = rng.below(donor.len() + 1);
                        let y = x + rng.below(donor.len() - x + 1);
                        body.splice(a..a, donor[x..y].iter().copied());
                    }
                    // Delete a span.
                    2 => {
                        body.drain(a..b);
                    }
                    // Repeat a span, up to 64 KiB of it.
                    _ => {
                        if a < b {
                            let times = 1 + rng.below((64 << 10) / (b - a));
                            let repeated = body[a..b].repeat(times);
                            body.splice(b..b, repeated);
                        }
                    }
                }
            }
            check(&body);
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

/// Parsing is linear in the length of a repeated span: a body 8× longer
/// parses in at most 24× the time (quadratic would be 64×). The spans are
/// array elements, object members (the same key again), and escapes
/// inside one string.
#[test]
#[ignore = "wall-clock growth check; run with --ignored in an optimised build"]
fn parse_time_is_linear_in_repeated_spans() {
    for (prefix, span, suffix) in [
        ("[null", ",1.5e3,\"s\",{},[]", "]"),
        (r#"{"weights":{"b":2"#, r#","b":2,"c":0.25"#, "}}"),
        (r#"{"q":""#, r#"a\"b\\c\n\té😀\/"#, r#""}"#),
    ] {
        let time = |bytes: usize| {
            let input = repeated(prefix, span, suffix, bytes);
            assert!(json::parse(input.as_bytes()).is_ok(), "{input:.80}…");
            min_of_5(|| json::parse(std::hint::black_box(input.as_bytes())))
        };
        let (small, large) = (time(8 << 10), time(64 << 10));
        let ratio = large / small;
        assert!(
            ratio <= 24.0,
            "body repeating {span:?}: 64 KiB took {ratio:.1}x the 8 KiB one \
             ({:.3} ms vs {:.3} ms)",
            large * 1e3,
            small * 1e3
        );
    }
}
