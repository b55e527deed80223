//! The Porter stemming algorithm (Porter, 1980), implemented in full.
//!
//! Queries of the paper's era ("The expression used in fn:contains can be as
//! complex as an IR engine can handle (e.g., stemming, …)") assume stemmed
//! matching, so both index terms and query terms pass through [`stem`].
//!
//! The implementation operates on ASCII lowercase bytes; tokens containing
//! non-ASCII characters are returned unchanged (stemming rules are
//! English-specific), and so are tokens longer than `MAX_STEM_LEN` bytes.

/// Longest token the stemmer rewrites. No English word comes near it, and
/// the consonant test walks back (recursively) along a run of `y`s each
/// time it is asked, so an unbounded token — a query string is one — would
/// be a stack depth and a quadratic cost chosen by the caller (34 s for
/// 200 KB of `y` + `ed`).
const MAX_STEM_LEN: usize = 64;

/// Stems a lowercase word. Words shorter than 3 characters, longer than 64
/// bytes (`MAX_STEM_LEN`) and non-ASCII words are returned unchanged.
pub fn stem(word: &str) -> String {
    if word.len() <= 2
        || word.len() > MAX_STEM_LEN
        || !word
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
    {
        return word.to_string();
    }
    let mut w = word.as_bytes().to_vec();
    step_1a(&mut w);
    step_1b(&mut w);
    step_1c(&mut w);
    step_2(&mut w);
    step_3(&mut w);
    step_4(&mut w);
    step_5a(&mut w);
    step_5b(&mut w);
    // The stemmer only ever shrinks/rewrites ASCII bytes, so this cannot
    // lose data; lossy conversion keeps the path panic-free regardless.
    String::from_utf8_lossy(&w).into_owned()
}

/// Is `w[i]` a consonant (Porter's definition: `y` is a consonant when it
/// heads the word or follows a vowel-position)?
fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => i == 0 || !is_consonant(w, i - 1),
        _ => true,
    }
}

/// Porter's measure *m* of `w[..len]`: the number of VC sequences in
/// `[C](VC)^m[V]`.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_consonant(w, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < len && !is_consonant(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // Skip consonants — one full VC block seen.
        while i < len && is_consonant(w, i) {
            i += 1;
        }
        m += 1;
        if i >= len {
            return m;
        }
    }
}

/// `*v*`: does the stem `w[..len]` contain a vowel?
fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(w, i))
}

/// `*d`: does `w[..len]` end with a double consonant?
fn ends_double_consonant(w: &[u8], len: usize) -> bool {
    len >= 2 && w[len - 1] == w[len - 2] && is_consonant(w, len - 1)
}

/// `*o`: does `w[..len]` end consonant-vowel-consonant where the final
/// consonant is not `w`, `x`, or `y`?
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    is_consonant(w, len - 3)
        && !is_consonant(w, len - 2)
        && is_consonant(w, len - 1)
        && !matches!(w[len - 1], b'w' | b'x' | b'y')
}

fn ends_with(w: &[u8], suffix: &str) -> bool {
    w.ends_with(suffix.as_bytes())
}

/// If `w` ends with `suffix` and the measure of the remaining stem is
/// `> min_m`, replace the suffix with `repl` and return true.
fn replace_if_m(w: &mut Vec<u8>, suffix: &str, repl: &str, min_m: usize) -> bool {
    if !ends_with(w, suffix) {
        return false;
    }
    let stem_len = w.len() - suffix.len();
    if measure(w, stem_len) > min_m {
        w.truncate(stem_len);
        w.extend_from_slice(repl.as_bytes());
        true
    } else {
        false
    }
}

fn step_1a(w: &mut Vec<u8>) {
    if ends_with(w, "sses") || ends_with(w, "ies") {
        // Both -sses → -ss and -ies → -i cut two characters.
        w.truncate(w.len() - 2);
    } else if ends_with(w, "s") && !ends_with(w, "ss") {
        w.truncate(w.len() - 1);
    }
}

fn step_1b(w: &mut Vec<u8>) {
    if ends_with(w, "eed") {
        if measure(w, w.len() - 3) > 0 {
            w.truncate(w.len() - 1);
        }
        return;
    }
    let cut = if ends_with(w, "ed") && has_vowel(w, w.len() - 2) {
        2
    } else if ends_with(w, "ing") && has_vowel(w, w.len() - 3) {
        3
    } else {
        return;
    };
    w.truncate(w.len() - cut);
    // Cleanup after removing -ed / -ing.
    if ends_with(w, "at") || ends_with(w, "bl") || ends_with(w, "iz") {
        w.push(b'e');
    } else if ends_double_consonant(w, w.len()) && !matches!(w[w.len() - 1], b'l' | b's' | b'z') {
        w.truncate(w.len() - 1);
    } else if measure(w, w.len()) == 1 && ends_cvc(w, w.len()) {
        w.push(b'e');
    }
}

fn step_1c(w: &mut [u8]) {
    if ends_with(w, "y") && has_vowel(w, w.len() - 1) {
        let n = w.len();
        w[n - 1] = b'i';
    }
}

fn step_2(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    for (suffix, repl) in RULES {
        if ends_with(w, suffix) {
            replace_if_m(w, suffix, repl, 0);
            return;
        }
    }
}

fn step_3(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    for (suffix, repl) in RULES {
        if ends_with(w, suffix) {
            replace_if_m(w, suffix, repl, 0);
            return;
        }
    }
}

fn step_4(w: &mut Vec<u8>) {
    const SUFFIXES: &[&str] = &[
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion",
        "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ];
    for suffix in SUFFIXES {
        if ends_with(w, suffix) {
            let stem_len = w.len() - suffix.len();
            if measure(w, stem_len) > 1 {
                // -ion additionally requires the stem to end in s or t.
                if *suffix == "ion" && !(stem_len > 0 && matches!(w[stem_len - 1], b's' | b't')) {
                    return;
                }
                w.truncate(stem_len);
            }
            return;
        }
    }
}

fn step_5a(w: &mut Vec<u8>) {
    if ends_with(w, "e") {
        let stem_len = w.len() - 1;
        let m = measure(w, stem_len);
        if m > 1 || (m == 1 && !ends_cvc(w, stem_len)) {
            w.truncate(stem_len);
        }
    }
}

fn step_5b(w: &mut Vec<u8>) {
    if ends_with(w, "ll") && measure(w, w.len()) > 1 {
        w.truncate(w.len() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pairs: &[(&str, &str)]) {
        for (input, expected) in pairs {
            assert_eq!(stem(input), *expected, "stem({input:?})");
        }
    }

    #[test]
    fn step1a_plurals() {
        check(&[
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
        ]);
    }

    #[test]
    fn step1b_ed_ing() {
        check(&[
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
        ]);
    }

    #[test]
    fn step1c_y_to_i() {
        check(&[("happy", "happi"), ("sky", "sky")]);
    }

    #[test]
    fn step2_derivational() {
        check(&[
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("formaliti", "formal"),
        ]);
    }

    #[test]
    fn step3_step4() {
        check(&[
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("replacement", "replac"),
            ("adoption", "adopt"),
            ("adjustment", "adjust"),
        ]);
    }

    #[test]
    fn step5_final_e_and_ll() {
        check(&[
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ]);
    }

    #[test]
    fn domain_words_stem_consistently() {
        // The search keywords used throughout the reproduction must agree
        // between index-time and query-time stemming.
        assert_eq!(stem("streaming"), "stream");
        assert_eq!(stem("streams"), "stream");
        assert_eq!(stem("algorithms"), "algorithm");
        assert_eq!(stem("xml"), "xml");
    }

    #[test]
    fn short_and_non_ascii_words_pass_through() {
        check(&[("a", "a"), ("is", "is"), ("héllo", "héllo")]);
    }

    #[test]
    fn overlong_tokens_pass_through_without_recursing() {
        // 64 bytes are still stemmed, 65 are not; a run of `y`s as long as
        // a request body must not cost a stack frame per letter.
        let at_cap = format!("{}s", "ab".repeat(31) + "c");
        assert_eq!(at_cap.len(), MAX_STEM_LEN);
        assert_eq!(stem(&at_cap), at_cap[..MAX_STEM_LEN - 1]);
        let over = format!("{at_cap}s");
        assert_eq!(stem(&over), over);
        let ys = "y".repeat(1 << 20) + "ed";
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || assert_eq!(stem(&ys), ys))
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn idempotent_on_common_vocabulary() {
        for w in [
            "gold",
            "vintage",
            "rare",
            "antique",
            "shipping",
            "auction",
            "payment",
            "collector",
            "condition",
            "original",
        ] {
            let once = stem(w);
            let twice = stem(&once);
            assert_eq!(once, twice, "stem not idempotent on {w}");
        }
    }
}
