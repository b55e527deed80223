//! The full-text expression language used inside `contains($i, FTExp)`.
//!
//! The paper (Section 2.1) leaves `FTExp` open — *"FTExp can vary from a
//! simple conjunction of keywords to an expression that uses proximity
//! distance, stemming, regular expressions and negation"* — and evaluates
//! only conjunctions like `"XML" and "streaming"`. We implement the
//! combinators an engine of that era would offer: terms, phrases, Boolean
//! `and`/`or`/`not`, and a positional proximity window.
//!
//! FleXPath's closure inference rule 3 (`ad(x,y) ∧ contains(y,E) ⊢
//! contains(x,E)`) requires `contains` to be *monotone* in the context node:
//! if a subtree satisfies `E`, every enclosing subtree must too. Negation
//! breaks monotonicity, so [`FtExpr::is_monotone`] lets the query layer
//! reject non-monotone expressions in `contains` while the IR engine itself
//! still evaluates them.

use crate::stem::stem;
use crate::tokenize::tokenize;
use std::fmt;

/// A full-text search expression.
///
/// The `Ord`/`Hash` impls give expressions a canonical total order so that
/// predicate sets containing `contains` predicates (in `flexpath-tpq`) can
/// be deduplicated and compared structurally.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FtExpr {
    /// A single stemmed term.
    Term(String),
    /// A sequence of stemmed terms that must occur at consecutive positions
    /// inside one element's direct text.
    Phrase(Vec<String>),
    /// All sub-expressions must be satisfied.
    And(Vec<FtExpr>),
    /// At least one sub-expression must be satisfied.
    Or(Vec<FtExpr>),
    /// The sub-expression must *not* be satisfied (non-monotone).
    Not(Box<FtExpr>),
    /// All terms must occur within `window` token positions of each other in
    /// one element's direct text.
    Window {
        /// Stemmed terms.
        terms: Vec<String>,
        /// Maximum allowed span (`max_pos - min_pos < window`).
        window: u32,
    },
}

/// Errors from [`FtExpr::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the query string.
    pub offset: usize,
}

impl fmt::Display for FtParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "full-text parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for FtParseError {}

impl FtExpr {
    /// Builds a [`FtExpr::Term`], tokenizing and stemming `word`. Multi-word
    /// input becomes a [`FtExpr::Phrase`].
    pub fn term(word: &str) -> FtExpr {
        let mut toks: Vec<String> = tokenize(word).iter().map(|t| stem(t)).collect();
        if toks.len() > 1 {
            return FtExpr::Phrase(toks);
        }
        match toks.pop() {
            Some(only) => FtExpr::Term(only),
            None => FtExpr::Phrase(Vec::new()), // degenerate: satisfied nowhere
        }
    }

    /// Conjunction of keywords — the paper's `"XML" and "streaming"` shape.
    pub fn all_of(words: &[&str]) -> FtExpr {
        FtExpr::And(words.iter().map(|w| FtExpr::term(w)).collect())
    }

    /// Disjunction of keywords.
    pub fn any_of(words: &[&str]) -> FtExpr {
        FtExpr::Or(words.iter().map(|w| FtExpr::term(w)).collect())
    }

    /// Whether satisfaction is monotone in the context subtree (no `Not`).
    pub fn is_monotone(&self) -> bool {
        match self {
            FtExpr::Term(_) | FtExpr::Phrase(_) | FtExpr::Window { .. } => true,
            FtExpr::And(xs) | FtExpr::Or(xs) => xs.iter().all(FtExpr::is_monotone),
            FtExpr::Not(_) => false,
        }
    }

    /// Whether the expression contains at least one positive term (required
    /// for evaluation — a pure negation has no finite witness set).
    pub fn has_positive_term(&self) -> bool {
        match self {
            FtExpr::Term(_) => true,
            FtExpr::Phrase(ts) => !ts.is_empty(),
            FtExpr::Window { terms, .. } => !terms.is_empty(),
            FtExpr::And(xs) | FtExpr::Or(xs) => xs.iter().any(FtExpr::has_positive_term),
            FtExpr::Not(_) => false,
        }
    }

    /// Collects the positive stemmed terms (scoring terms) of the expression.
    pub fn positive_terms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_positive(&mut out);
        out
    }

    fn collect_positive<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            FtExpr::Term(t) => out.push(t),
            FtExpr::Phrase(ts) | FtExpr::Window { terms: ts, .. } => {
                out.extend(ts.iter().map(String::as_str))
            }
            FtExpr::And(xs) | FtExpr::Or(xs) => {
                for x in xs {
                    x.collect_positive(out);
                }
            }
            FtExpr::Not(_) => {}
        }
    }

    /// Parses the paper's quoted-keyword syntax:
    ///
    /// ```text
    /// expr    := orExpr
    /// orExpr  := andExpr ("or" andExpr)*
    /// andExpr := unary ("and" unary)*
    /// unary   := "not" unary | primary
    /// primary := STRING | "(" expr ")"
    /// ```
    ///
    /// A quoted `STRING` with several words is a phrase. Examples:
    /// `"XML" and "streaming"`, `"gold" and not "plated"`,
    /// `("rare" or "scarce") and "vintage coin"`.
    ///
    /// Whitespace between tokens is any Unicode whitespace character — a
    /// no-break space pasted from a document separates tokens like a blank
    /// does. Parentheses and `not` may nest [`MAX_NESTING`] deep; deeper
    /// input is an error, not a deeper recursion.
    pub fn parse(input: &str) -> Result<FtExpr, FtParseError> {
        let mut p = FtParser {
            input,
            pos: 0,
            depth: 0,
        };
        let expr = p.parse_or()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(p.error("trailing input"));
        }
        Ok(expr)
    }
}

impl fmt::Display for FtExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtExpr::Term(t) => write!(f, "\"{t}\""),
            FtExpr::Phrase(ts) => write!(f, "\"{}\"", ts.join(" ")),
            FtExpr::And(xs) => {
                let parts: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
                write!(f, "({})", parts.join(" and "))
            }
            FtExpr::Or(xs) => {
                let parts: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
                write!(f, "({})", parts.join(" or "))
            }
            FtExpr::Not(x) => write!(f, "not {x}"),
            FtExpr::Window { terms, window } => {
                write!(f, "window({}, {window})", terms.join(" "))
            }
        }
    }
}

/// How deep `(` and `not` may nest in [`FtExpr::parse`]. The parser, and
/// everything that later walks the expression (evaluation, `Ord`, `Drop`),
/// recurses once per level; expressions people write nest two or three deep.
pub const MAX_NESTING: usize = 64;

struct FtParser<'a> {
    input: &'a str,
    pos: usize,
    /// Open `(` and `not` around the current position.
    depth: usize,
}

impl<'a> FtParser<'a> {
    fn error(&self, message: &str) -> FtParseError {
        FtParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        self.pos = self.input.len() - self.input[self.pos..].trim_start().len();
    }

    /// Parses one nesting level with `inner`, refusing to go deeper than
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<FtExpr, FtParseError>,
    ) -> Result<FtExpr, FtParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(&format!("nesting deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        // `get`: a multi-byte character may straddle `kw.len()`.
        if rest
            .get(..kw.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(kw))
        {
            let after = rest[kw.len()..].chars().next();
            if after.is_none_or(|c| !c.is_alphanumeric()) {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn parse_or(&mut self) -> Result<FtExpr, FtParseError> {
        let mut parts = vec![self.parse_and()?];
        while self.eat_keyword("or") {
            parts.push(self.parse_and()?);
        }
        Ok(match parts.pop() {
            Some(only) if parts.is_empty() => only,
            Some(last) => {
                parts.push(last);
                FtExpr::Or(parts)
            }
            None => FtExpr::Phrase(Vec::new()),
        })
    }

    fn parse_and(&mut self) -> Result<FtExpr, FtParseError> {
        let mut parts = vec![self.parse_unary()?];
        while self.eat_keyword("and") {
            parts.push(self.parse_unary()?);
        }
        Ok(match parts.pop() {
            Some(only) if parts.is_empty() => only,
            Some(last) => {
                parts.push(last);
                FtExpr::And(parts)
            }
            None => FtExpr::Phrase(Vec::new()),
        })
    }

    fn parse_unary(&mut self) -> Result<FtExpr, FtParseError> {
        if self.eat_keyword("not") {
            return Ok(FtExpr::Not(Box::new(self.nested(Self::parse_unary)?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<FtExpr, FtParseError> {
        self.skip_ws();
        match self.input[self.pos..].chars().next() {
            Some('"') => {
                self.pos += 1;
                let start = self.pos;
                let end = self.input[self.pos..]
                    .find('"')
                    .ok_or_else(|| self.error("unterminated string"))?;
                let content = &self.input[start..start + end];
                self.pos = start + end + 1;
                let expr = FtExpr::term(content);
                if !expr.has_positive_term() {
                    return Err(self.error("empty search string"));
                }
                Ok(expr)
            }
            Some('(') => {
                let inner = self.nested(|p| {
                    p.pos += 1;
                    p.parse_or()
                })?;
                self.skip_ws();
                if !self.input[self.pos..].starts_with(')') {
                    return Err(self.error("expected ')'"));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(c) => Err(self.error(&format!("expected '\"' or '(', found {c:?}"))),
            None => Err(self.error("unexpected end of expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_conjunction() {
        let e = FtExpr::parse("\"XML\" and \"streaming\"").unwrap();
        assert_eq!(
            e,
            FtExpr::And(vec![
                FtExpr::Term("xml".into()),
                FtExpr::Term("stream".into())
            ])
        );
    }

    #[test]
    fn multi_word_string_is_a_phrase() {
        let e = FtExpr::parse("\"vintage gold coin\"").unwrap();
        assert_eq!(
            e,
            FtExpr::Phrase(vec!["vintag".into(), "gold".into(), "coin".into()])
        );
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let e = FtExpr::parse("\"a1\" or \"b1\" and \"c1\"").unwrap();
        match e {
            FtExpr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], FtExpr::And(_)));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let e = FtExpr::parse("(\"a1\" or \"b1\") and \"c1\"").unwrap();
        match e {
            FtExpr::And(parts) => assert!(matches!(parts[0], FtExpr::Or(_))),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn negation_and_monotonicity() {
        let e = FtExpr::parse("\"gold\" and not \"plated\"").unwrap();
        assert!(!e.is_monotone());
        assert!(e.has_positive_term());
        let pure_not = FtExpr::Not(Box::new(FtExpr::term("gold")));
        assert!(!pure_not.has_positive_term());
        let pos = FtExpr::parse("\"gold\" and \"coin\"").unwrap();
        assert!(pos.is_monotone());
    }

    #[test]
    fn parse_errors_carry_position() {
        assert!(FtExpr::parse("\"unterminated").is_err());
        assert!(FtExpr::parse("\"a\" garbage").is_err());
        assert!(FtExpr::parse("(\"a\"").is_err());
        assert!(FtExpr::parse("").is_err());
        assert!(FtExpr::parse("\"   \"").is_err());
    }

    #[test]
    fn multi_byte_whitespace_separates_tokens() {
        let plain = FtExpr::parse("(\"a1\" and \"b1\" )").unwrap();
        for ws in ['\u{a0}', '\u{2003}', '\u{3000}'] {
            for input in [
                format!("{ws}(\"a1\" and \"b1\")"),
                format!("(\"a1\" and{ws}\"b1\")"),
                format!("(\"a1\" and \"b1\"{ws})"),
                format!("(\"a1\"{ws}and{ws}{ws}\"b1\"){ws}"),
            ] {
                assert_eq!(FtExpr::parse(&input).as_ref(), Ok(&plain), "{input:?}");
            }
        }
        // A keyword probe that would end inside a character is not a keyword.
        let e = FtExpr::parse("\"a1\" an\u{a0}\"b1\"").unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (5, "trailing input"));
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let parens = |n: usize| format!("{}\"a1\"{}", "(".repeat(n), ")".repeat(n));
        let nots = |n: usize| format!("\"b1\" and {}\"a1\"", "not ".repeat(n));
        assert_eq!(FtExpr::parse(&parens(MAX_NESTING)), Ok(FtExpr::term("a1")));
        assert!(FtExpr::parse(&nots(MAX_NESTING)).is_ok());
        let e = FtExpr::parse(&parens(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_NESTING);
        assert_eq!(e.message, format!("nesting deeper than {MAX_NESTING}"));
        // Mixed: the cap counts `(` and `not` together.
        let mixed = format!("\"b1\" and {}\"a1\"{}", "not (".repeat(40), ")".repeat(40));
        assert!(FtExpr::parse(&mixed)
            .unwrap_err()
            .message
            .starts_with("nesting deeper"));
        // Far past the cap, on the stack a server worker has.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for input in [parens(100_000), nots(100_000)] {
                    let e = FtExpr::parse(&input).unwrap_err();
                    assert!(e.message.starts_with("nesting deeper"), "{e}");
                    assert!(input.is_char_boundary(e.offset));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn keywords_are_case_insensitive_and_word_bounded() {
        let e = FtExpr::parse("\"a1\" AND \"b1\"").unwrap();
        assert!(matches!(e, FtExpr::And(_)));
        // "android" must not be parsed as AND + "roid".
        let e = FtExpr::parse("\"android\"").unwrap();
        assert!(matches!(e, FtExpr::Term(_)));
    }

    #[test]
    fn terms_are_stemmed_at_construction() {
        assert_eq!(FtExpr::term("Streaming"), FtExpr::Term("stream".into()));
        let e = FtExpr::all_of(&["algorithms", "XML"]);
        assert_eq!(
            e.positive_terms(),
            vec!["algorithm".to_string(), "xml".to_string()]
        );
    }

    #[test]
    fn display_round_trips_through_parser() {
        let e = FtExpr::parse("(\"a1\" or \"b1\") and not \"c1\"").unwrap();
        let reparsed = FtExpr::parse(&e.to_string()).unwrap();
        assert_eq!(e, reparsed);
    }
}
