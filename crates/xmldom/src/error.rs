//! Parser error reporting with line/column positions.

use crate::builder::BuildError;
use std::fmt;

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended inside a construct.
    UnexpectedEof,
    /// A character that cannot start/continue the current construct.
    UnexpectedChar(char),
    /// `</b>` closing an element opened as `<a>`.
    MismatchedTag {
        /// Tag that is currently open.
        expected: String,
        /// Tag found in the close tag.
        found: String,
    },
    /// Content after the root element closed, or text before it opened.
    ContentOutsideRoot,
    /// `&name;` with an unknown entity name, or a malformed `&#...;`.
    BadEntity(String),
    /// Attribute repeated on the same element.
    DuplicateAttribute(String),
    /// The document has no root element.
    Empty,
    /// Element nesting exceeded the parser's depth limit (512).
    TooDeep {
        /// The depth limit.
        limit: usize,
    },
    /// One element carried more attributes than the parser's limit (1024).
    TooManyAttributes {
        /// The per-element attribute limit.
        limit: usize,
    },
    /// The document outgrew the document model (e.g. past 4 GiB of text).
    Build(BuildError),
}

/// A parse failure, with the byte offset, line, and column where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Failure category.
    pub kind: ParseErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (in bytes).
    pub column: usize,
}

impl ParseError {
    pub(crate) fn at(kind: ParseErrorKind, input: &str, offset: usize) -> Self {
        let mut line = 1usize;
        let mut col = 1usize;
        for b in input.as_bytes()[..offset.min(input.len())].iter() {
            if *b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            kind,
            offset,
            line,
            column: col,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}:{}: ", self.line, self.column)?;
        match &self.kind {
            ParseErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ParseErrorKind::MismatchedTag { expected, found } => {
                write!(
                    f,
                    "mismatched close tag: expected </{expected}>, found </{found}>"
                )
            }
            ParseErrorKind::ContentOutsideRoot => write!(f, "content outside the root element"),
            ParseErrorKind::BadEntity(e) => write!(f, "bad entity reference &{e};"),
            ParseErrorKind::DuplicateAttribute(a) => write!(f, "duplicate attribute {a:?}"),
            ParseErrorKind::Empty => write!(f, "document has no root element"),
            ParseErrorKind::TooDeep { limit } => {
                write!(f, "element nesting exceeds the depth limit of {limit}")
            }
            ParseErrorKind::TooManyAttributes { limit } => {
                write!(f, "element has more than {limit} attributes")
            }
            ParseErrorKind::Build(e) => write!(f, "cannot build the document: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_computation_counts_lines_and_columns() {
        let input = "ab\ncde\nf";
        let e = ParseError::at(ParseErrorKind::UnexpectedEof, input, 5);
        assert_eq!((e.line, e.column), (2, 3));
        let e0 = ParseError::at(ParseErrorKind::UnexpectedEof, input, 0);
        assert_eq!((e0.line, e0.column), (1, 1));
    }

    #[test]
    fn display_is_informative() {
        let e = ParseError::at(
            ParseErrorKind::MismatchedTag {
                expected: "a".into(),
                found: "b".into(),
            },
            "<a></b>",
            4,
        );
        let s = e.to_string();
        assert!(s.contains("</a>") && s.contains("</b>"), "{s}");
        let e = ParseError::at(ParseErrorKind::Build(BuildError::TextArenaFull), "<a>", 3);
        assert!(e.to_string().ends_with("4 GiB or 2^31 texts"), "{e}");
    }
}
