//! A from-scratch, non-validating XML parser.
//!
//! Supports the subset of XML 1.0 a data-centric corpus needs: elements,
//! attributes, character data, CDATA sections, comments, processing
//! instructions, an (ignored) prolog and DOCTYPE, the five predefined
//! entities, and decimal/hex character references. Namespaces are treated
//! literally (a tag `a:b` is just the name `"a:b"`).
//!
//! The parser checks well-formedness itself and feeds the decoded content
//! straight into a [`DocumentBuilder`]. Whitespace-only text nodes are
//! dropped — FleXPath's corpora are data-centric and indentation between
//! elements carries no signal.

use crate::builder::{BuildError, DocumentBuilder};
use crate::document::Document;
use crate::error::{ParseError, ParseErrorKind};

/// Longest entity reference the parser will scan for: the widest legal one
/// (`&#x10FFFF;`) is 9 characters, so a `;` further away than this marks a
/// stray ampersand — without the cap a document of bare `&`s would make
/// every reference scan to the far end of the input.
const MAX_ENTITY_LEN: usize = 64;

/// Deepest element nesting accepted before [`ParseErrorKind::TooDeep`].
/// The parser itself is iterative, but depth-recursive *consumers* of the
/// resulting tree (serializers, visitors) inherit this bound.
const MAX_DEPTH: usize = 512;

/// Most attributes accepted on one element before
/// [`ParseErrorKind::TooManyAttributes`].
const MAX_ATTRIBUTES: usize = 1024;

/// Parses `input` into a [`Document`].
pub fn parse(input: &str) -> Result<Document, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        builder: DocumentBuilder::new(),
        open: Vec::new(),
        seen_root: false,
    };
    p.run()?;
    p.builder
        .finish()
        .map_err(|e| ParseError::at(ParseErrorKind::Build(e), input, input.len()))
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    builder: DocumentBuilder,
    /// Names of currently open elements (the parser's own well-formedness
    /// stack — the builder only ever sees valid sequences).
    open: Vec<&'a str>,
    seen_root: bool,
}

// Cursor-invariant slicing: `pos` only advances via `peek`-guarded bumps,
// `find` offsets, and `min(len)` clamps, so `pos <= len` holds on a char
// boundary everywhere in this impl. The robustness suite feeds arbitrary
// bytes through `parse` to back this up.
#[allow(clippy::indexing_slicing)]
impl<'a> Parser<'a> {
    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError::at(kind, self.input, self.pos)
    }

    /// Positions a builder failure (a limit of the document model, such as
    /// the 4 GiB text arena) at the current cursor.
    fn build_err(&self, e: BuildError) -> ParseError {
        self.err(ParseErrorKind::Build(e))
    }

    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn expect_str(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else if self.eof() {
            Err(self.err(ParseErrorKind::UnexpectedEof))
        } else {
            let c = self.input[self.pos..].chars().next().unwrap_or('\0');
            Err(self.err(ParseErrorKind::UnexpectedChar(c)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips past the first occurrence of `end`, erroring on EOF.
    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        match self.input[self.pos..].find(end) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err(ParseErrorKind::UnexpectedEof))
            }
        }
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => self.pos += 1,
            Some(_) => {
                let c = self.input[self.pos..].chars().next().unwrap_or('\0');
                return Err(self.err(ParseErrorKind::UnexpectedChar(c)));
            }
            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.pos += 1;
        }
        Ok(&self.input[start..self.pos])
    }

    /// Decodes `&...;` starting just *after* the ampersand; appends to `out`.
    fn decode_entity(&mut self, out: &mut String) -> Result<(), ParseError> {
        let start = self.pos;
        // Bounded scan: a legal reference fits well inside MAX_ENTITY_LEN.
        let window_end = (self.pos + MAX_ENTITY_LEN).min(self.input.len());
        let semi = self.input[self.pos..window_end].find(';').ok_or_else(|| {
            let tail = &self.input[start..(start + 16).min(self.input.len())];
            self.err(ParseErrorKind::BadEntity(tail.to_string()))
        })?;
        let name = &self.input[start..start + semi];
        self.pos = start + semi + 1;
        let bad = |p: &Self| p.err(ParseErrorKind::BadEntity(name.to_string()));
        match name {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let code = u32::from_str_radix(&name[2..], 16).map_err(|_| bad(self))?;
                out.push(char::from_u32(code).ok_or_else(|| bad(self))?);
            }
            _ if name.starts_with('#') => {
                let code: u32 = name[1..].parse().map_err(|_| bad(self))?;
                out.push(char::from_u32(code).ok_or_else(|| bad(self))?);
            }
            _ => return Err(bad(self)),
        }
        Ok(())
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(b) => return Err(self.err(ParseErrorKind::UnexpectedChar(b as char))),
            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
        };
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b) if b == quote => return Ok(out),
                Some(b'&') => self.decode_entity(&mut out)?,
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // Re-decode the multi-byte char properly. (`pos` sits on
                    // the char's lead byte, so a char is always present.)
                    self.pos -= 1;
                    let c = self.input[self.pos..].chars().next().unwrap_or('\0');
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
    }

    fn run(&mut self) -> Result<(), ParseError> {
        loop {
            if self.eof() {
                if !self.open.is_empty() {
                    return Err(self.err(ParseErrorKind::UnexpectedEof));
                }
                if !self.seen_root {
                    return Err(self.err(ParseErrorKind::Empty));
                }
                return Ok(());
            }
            if self.peek() == Some(b'<') {
                self.parse_markup()?;
            } else {
                self.parse_text()?;
            }
        }
    }

    fn parse_markup(&mut self) -> Result<(), ParseError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        if self.starts_with("<!--") {
            self.pos += 4;
            return self.skip_until("-->");
        }
        if self.starts_with("<![CDATA[") {
            self.pos += 9;
            let start = self.pos;
            let end = self.input[self.pos..]
                .find("]]>")
                .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEof))?;
            let content = &self.input[start..start + end];
            self.pos = start + end + 3;
            if self.open.is_empty() {
                return Err(self.err(ParseErrorKind::ContentOutsideRoot));
            }
            return self
                .builder
                .try_text(content)
                .map_err(|e| self.build_err(e));
        }
        if self.starts_with("<?") {
            self.pos += 2;
            return self.skip_until("?>");
        }
        if self.starts_with("<!") {
            // DOCTYPE (possibly with an internal subset) — skip with bracket
            // awareness.
            self.pos += 2;
            let mut depth = 1usize;
            while depth > 0 {
                match self.bump() {
                    Some(b'<') => depth += 1,
                    Some(b'>') => depth -= 1,
                    Some(_) => {}
                    None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                }
            }
            return Ok(());
        }
        if self.starts_with("</") {
            self.pos += 2;
            let name = self.parse_name()?;
            self.skip_ws();
            self.expect_str(">")?;
            match self.open.last() {
                Some(&expected) if expected == name => {
                    self.open.pop();
                    self.builder
                        .try_end_element()
                        .map_err(|e| self.build_err(e))
                }
                Some(&expected) => Err(self.err(ParseErrorKind::MismatchedTag {
                    expected: expected.to_string(),
                    found: name.to_string(),
                })),
                None => Err(self.err(ParseErrorKind::ContentOutsideRoot)),
            }
        } else {
            // Open tag.
            self.pos += 1;
            let name = self.parse_name()?;
            if self.open.is_empty() && self.seen_root {
                return Err(self.err(ParseErrorKind::ContentOutsideRoot));
            }
            self.seen_root = true;
            if self.open.len() >= MAX_DEPTH {
                return Err(self.err(ParseErrorKind::TooDeep { limit: MAX_DEPTH }));
            }
            self.open.push(name);
            self.builder
                .try_start_element(name)
                .map_err(|e| self.build_err(e))?;
            let mut seen_attrs: Vec<&str> = Vec::new();
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'>') => {
                        self.pos += 1;
                        return Ok(());
                    }
                    Some(b'/') => {
                        self.pos += 1;
                        self.expect_str(">")?;
                        self.open.pop();
                        return self
                            .builder
                            .try_end_element()
                            .map_err(|e| self.build_err(e));
                    }
                    Some(b) if Self::is_name_start(b) => {
                        let attr = self.parse_name()?;
                        if seen_attrs.len() >= MAX_ATTRIBUTES {
                            return Err(self.err(ParseErrorKind::TooManyAttributes {
                                limit: MAX_ATTRIBUTES,
                            }));
                        }
                        if seen_attrs.contains(&attr) {
                            return Err(self.err(ParseErrorKind::DuplicateAttribute(attr.into())));
                        }
                        self.skip_ws();
                        self.expect_str("=")?;
                        self.skip_ws();
                        let value = self.parse_attr_value()?;
                        self.builder
                            .try_attribute(attr, &value)
                            .map_err(|e| self.build_err(e))?;
                        seen_attrs.push(attr);
                    }
                    Some(b) => return Err(self.err(ParseErrorKind::UnexpectedChar(b as char))),
                    None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                }
            }
        }
    }

    fn parse_text(&mut self) -> Result<(), ParseError> {
        let mut out = String::new();
        while let Some(b) = self.peek() {
            match b {
                b'<' => break,
                b'&' => {
                    self.pos += 1;
                    self.decode_entity(&mut out)?;
                }
                _ => {
                    // `pos` is always on a char boundary here.
                    let c = self.input[self.pos..].chars().next().unwrap_or('\0');
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
        if out.chars().all(|c| matches!(c, ' ' | '\t' | '\r' | '\n')) {
            return Ok(());
        }
        if self.open.is_empty() {
            return Err(self.err(ParseErrorKind::ContentOutsideRoot));
        }
        self.builder.try_text(&out).map_err(|e| self.build_err(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_document() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.node_count(), 1);
        assert_eq!(doc.tag_name(doc.root_element()), Some("a"));
    }

    #[test]
    fn parses_prolog_doctype_comments_and_pis() {
        let doc = parse(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n\
             <!-- hello --><a><?pi data?><b/><!-- inner --></a>",
        )
        .unwrap();
        assert_eq!(doc.nodes_with_tag_name("b").len(), 1);
    }

    #[test]
    fn decodes_predefined_and_numeric_entities() {
        let doc =
            parse("<a>&lt;tag&gt; &amp; &quot;x&quot; &apos;y&apos; &#65;&#x42;</a>").unwrap();
        assert_eq!(doc.subtree_text(doc.root_element()), "<tag> & \"x\" 'y' AB");
    }

    #[test]
    fn decodes_entities_in_attributes() {
        let doc = parse("<a t=\"x&amp;y&#33;\"/>").unwrap();
        let t = doc.symbols().lookup("t").unwrap();
        assert_eq!(doc.attribute(doc.root_element(), t), Some("x&y!"));
    }

    #[test]
    fn cdata_is_literal() {
        let doc = parse("<a><![CDATA[<b>&amp;</b>]]></a>").unwrap();
        assert_eq!(doc.subtree_text(doc.root_element()), "<b>&amp;</b>");
    }

    #[test]
    fn whitespace_only_text_dropped_by_default() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.node_count(), 2);
    }

    #[test]
    fn mismatched_tag_is_reported_with_names() {
        let err = parse("<a><b></a>").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::MismatchedTag { ref expected, ref found }
                if expected == "b" && found == "a"
        ));
    }

    #[test]
    fn unclosed_element_is_eof_error() {
        let err = parse("<a><b>").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
    }

    #[test]
    fn second_root_rejected() {
        let err = parse("<a/><b/>").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::ContentOutsideRoot);
    }

    #[test]
    fn text_outside_root_rejected() {
        let err = parse("<a/>junk").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::ContentOutsideRoot);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse("<a x=\"1\" x=\"2\"/>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(ref a) if a == "x"));
    }

    #[test]
    fn bad_entity_rejected() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadEntity(ref e) if e == "nope"));
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(parse("").unwrap_err().kind, ParseErrorKind::Empty);
        assert_eq!(parse("<!-- x -->").unwrap_err().kind, ParseErrorKind::Empty);
    }

    #[test]
    fn single_quoted_attributes_work() {
        let doc = parse("<a t='v'/>").unwrap();
        let t = doc.symbols().lookup("t").unwrap();
        assert_eq!(doc.attribute(doc.root_element(), t), Some("v"));
    }

    #[test]
    fn utf8_text_round_trips() {
        let doc = parse("<a>héllo wörld — ✓</a>").unwrap();
        assert_eq!(doc.subtree_text(doc.root_element()), "héllo wörld — ✓");
    }

    #[test]
    fn error_positions_point_into_input() {
        let err = parse("<a>\n<b></c>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
    }

    fn nested(depth: usize) -> String {
        let mut s = String::with_capacity(depth * 7);
        for _ in 0..depth {
            s.push_str("<a>");
        }
        for _ in 0..depth {
            s.push_str("</a>");
        }
        s
    }

    #[test]
    fn ten_thousand_deep_document_errors_instead_of_overflowing() {
        let err = parse(&nested(10_000)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep { limit: 512 });
    }

    #[test]
    fn depth_limit_is_512() {
        assert_eq!(parse(&nested(512)).unwrap().node_count(), 512);
        assert_eq!(
            parse(&nested(513)).unwrap_err().kind,
            ParseErrorKind::TooDeep { limit: 512 }
        );
    }

    fn with_attributes(n: usize) -> String {
        let mut doc = String::from("<a");
        for i in 0..n {
            doc.push_str(&format!(" x{i}=\"v\""));
        }
        doc.push_str("/>");
        doc
    }

    #[test]
    fn attribute_count_limit_is_1024() {
        let doc = parse(&with_attributes(1024)).unwrap();
        assert_eq!(doc.attributes(doc.root_element()).len(), 1024);
        assert_eq!(
            parse(&with_attributes(1025)).unwrap_err().kind,
            ParseErrorKind::TooManyAttributes { limit: 1024 }
        );
    }

    #[test]
    fn runaway_entity_reference_is_rejected_without_long_scan() {
        // A `;` further than MAX_ENTITY_LEN away must not be picked up.
        let doc = format!("<a>&{};</a>", "x".repeat(200));
        assert!(matches!(
            parse(&doc).unwrap_err().kind,
            ParseErrorKind::BadEntity(_)
        ));
        // And a stray `&` with no `;` at all errors as a bad entity, not EOF.
        assert!(matches!(
            parse("<a>fish & chips</a>").unwrap_err().kind,
            ParseErrorKind::BadEntity(_)
        ));
    }
}
