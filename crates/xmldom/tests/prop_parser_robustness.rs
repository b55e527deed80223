//! Robustness: the parser must never panic, whatever the input — it either
//! produces a document or a positioned error. Fuzz-lite via a seeded PRNG
//! over arbitrary strings and over mutations of valid XML, plus a
//! wall-clock check that parsing stays linear in a repeated span.

use flexpath_xmldom::{parse, to_xml_string};
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

const CASES: u64 = 256;

#[test]
fn arbitrary_input_never_panics() {
    for case in 0..CASES {
        let mut rng = Rng(0x100 + case);
        let len = rng.below(201);
        let input: String = (0..len)
            .filter_map(|_| char::from_u32(rng.next() as u32 % 0xD800))
            .collect();
        let _ = parse(&input);
    }
}

#[test]
fn xml_flavoured_noise_never_panics() {
    const ALPHABET: &[u8] = b"<>/abc\"'= &;![]-";
    for case in 0..CASES {
        let mut rng = Rng(0x200 + case);
        let len = rng.below(121);
        let input: String = (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
            .collect();
        let _ = parse(&input);
    }
}

#[test]
fn truncations_of_valid_xml_never_panic() {
    let valid = "<a x=\"1&amp;2\"><!-- c --><b><![CDATA[z]]></b>text &#65; <c/></a>";
    for cut in 0..=valid.len() {
        let mut end = cut;
        // Cut on a char boundary.
        while !valid.is_char_boundary(end) {
            end -= 1;
        }
        let _ = parse(&valid[..end]);
    }
}

#[test]
fn mutations_of_valid_xml_never_panic() {
    let valid = "<a x=\"1\"><b>hello &amp; goodbye</b><c/></a>";
    for case in 0..CASES {
        let mut rng = Rng(0x300 + case);
        let mut s: Vec<char> = valid.chars().collect();
        let pos = rng.below(60);
        let replacement = char::from_u32(rng.next() as u32 % 0xD800).unwrap_or('?');
        if pos < s.len() {
            s[pos] = replacement;
        }
        let mutated: String = s.into_iter().collect();
        let _ = parse(&mutated);
    }
}

#[test]
fn successful_parses_round_trip() {
    const ALPHABET: &[u8] = b"<>abc/ ";
    for case in 0..CASES {
        let mut rng = Rng(0x400 + case);
        let len = rng.below(81);
        let input: String = (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
            .collect();
        // Whenever noise happens to parse, the result must serialize and
        // re-parse to the same document.
        if let Ok(doc) = parse(&input) {
            let xml = to_xml_string(&doc);
            let reparsed = parse(&xml).expect("serializer output must re-parse");
            assert_eq!(to_xml_string(&reparsed), xml);
        }
    }
}

/// `prefix`, then `span` repeated until the input is about `bytes` long,
/// then `suffix`.
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

/// Parsing is linear in the length of a repeated span: a document 8×
/// longer parses in at most 24× the time (quadratic would be 64×). The
/// spans are sibling elements with attributes, entity-dense text, comments
/// and processing instructions, CDATA, an entity-dense attribute value,
/// empty elements, three-level nesting, whitespace-only text and prefixed
/// names.
#[test]
#[ignore = "wall-clock growth check; run with --ignored in an optimised build"]
fn parse_time_is_linear_in_repeated_spans() {
    for (prefix, span, suffix) in [
        ("<r>", r#"<e a="1" b='two'>t</e>"#, "</r>"),
        ("<r>", "&amp;&lt;&#65;&#x42;&quot;x", "</r>"),
        ("<r>", "<!-- c --><?pi d?>", "</r>"),
        ("<r>", "<![CDATA[<x>&]]>", "</r>"),
        (r#"<r a=""#, "&amp;&quot;&#233;y", r#""/>"#),
        ("<r>", "<e/>", "</r>"),
        ("<r>", "<a><b><c>t</c></b></a>", "</r>"),
        ("<r><e/>", " \n\t\r", "<e/></r>"),
        ("<r>", r#"<x:e x:a="v">t</x:e>"#, "</r>"),
    ] {
        let time = |bytes: usize| {
            let input = repeated(prefix, span, suffix, bytes);
            assert!(parse(&input).is_ok(), "{input:.80}…");
            min_of_5(|| parse(std::hint::black_box(&input)))
        };
        let (small, large) = (time(8 << 10), time(64 << 10));
        let ratio = large / small;
        assert!(
            ratio <= 24.0,
            "document repeating {span:?}: 64 KiB took {ratio:.1}x the 8 KiB one \
             ({:.3} ms vs {:.3} ms)",
            large * 1e3,
            small * 1e3
        );
    }
}
