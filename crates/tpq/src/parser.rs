//! Parser for the XPath subset used by the paper's queries.
//!
//! Grammar (whitespace-insensitive between tokens):
//!
//! ```text
//! query      := ("//" | "/") step (("/" | "//") step)*
//! step       := name qualifier*
//! qualifier  := "[" conjunct ("and" conjunct)* "]"
//! conjunct   := ".contains(" ftexpr ")"
//!             | "@" name cmpOp literal
//!             | ("./" | ".//") step (("/" | "//") step)*
//! cmpOp      := "=" | "!=" | "<" | "<=" | ">" | ">="
//! literal    := quoted string or bare number
//! ```
//!
//! Whitespace is any Unicode whitespace character (a no-break space pasted
//! from a document separates tokens like a blank does). A step may sit at
//! most [`MAX_DEPTH`] steps below the query root — path steps and
//! qualifiers both count; deeper input is an error, not a deeper recursion.
//!
//! The distinguished node is the last step of the outer path (XPath result
//! semantics). Only conjunctive qualifiers are supported — TPQs are
//! conjunctive queries; disjunction would leave the tree-pattern fragment
//! the paper's relaxation theory is defined on.
//!
//! ## Weight annotations
//!
//! The paper lets predicate weights "be user-specified"
//! (Section 4.1). A step or a `.contains(...)` may carry a `^<weight>`
//! suffix that weights the predicate *into* that node:
//!
//! ```text
//! //article[./section^2 and .contains("gold")^0.5]
//! ```
//!
//! weights the `pc(article, section)` edge 2.0 and the contains predicate
//! 0.5. [`parse_query_weighted`] surfaces the collected overrides;
//! [`parse_query`] accepts and ignores the annotations.
//!
//! Examples from the paper (Figure 1 and Section 6) all parse:
//!
//! ```
//! use flexpath_tpq::parse_query;
//! for q in [
//!     "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]",
//!     "//article[.//algorithm and ./section[./paragraph and .contains(\"XML\" and \"streaming\")]]",
//!     "//article[.contains(\"XML\" and \"streaming\")]",
//!     "//item[./description/parlist]",
//!     "//item[./description/parlist and ./mailbox/mail/text]",
//!     "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]",
//! ] {
//!     parse_query(q).unwrap();
//! }
//! ```

use crate::ast::{AttrOp, Axis, Tpq, TpqNode, Var};
use crate::logical::Predicate;
use flexpath_ftsearch::FtExpr;
use std::fmt;

/// How many steps deep a query tree may be. The parser, and everything that
/// later walks the pattern, recurses once per level; the paper's largest
/// query (Q3) is four deep.
pub const MAX_DEPTH: usize = 64;

/// A failure to parse a query string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Description of the problem.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for QueryParseError {}

/// Parses an XPath-subset string into a [`Tpq`] (weight annotations are
/// accepted and discarded).
pub fn parse_query(input: &str) -> Result<Tpq, QueryParseError> {
    parse_query_weighted(input).map(|(q, _)| q)
}

/// Parses an XPath-subset string, returning the query plus any
/// user-specified predicate weights (`^<w>` annotations) as
/// `(predicate, weight)` overrides for the engine's weight assignment.
pub fn parse_query_weighted(input: &str) -> Result<(Tpq, Vec<(Predicate, f64)>), QueryParseError> {
    let mut p = QParser {
        input,
        pos: 0,
        nodes: Vec::new(),
        next_var: 1,
        weights: Vec::new(),
    };
    p.skip_ws();
    let first_axis = p.parse_leading_axis()?;
    let spine_end = p.parse_path(None, first_axis, 1)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.error("trailing input"));
    }
    let q = Tpq {
        nodes: p.nodes,
        distinguished: spine_end,
    };
    // Resolve the recorded (node idx, kind) weight hints into predicates.
    let mut overrides = Vec::new();
    for hint in p.weights {
        match hint {
            WeightHint::Edge { node, weight } => {
                let n = q.node(node);
                let Some(parent) = n.parent else { continue };
                let pvar = q.node(parent).var;
                let pred = match n.axis {
                    Axis::Child => Predicate::Pc(pvar, n.var),
                    Axis::Descendant => Predicate::Ad(pvar, n.var),
                };
                overrides.push((pred, weight));
            }
            WeightHint::Contains {
                node,
                index,
                weight,
            } => {
                let n = q.node(node);
                if let Some(expr) = n.contains.get(index) {
                    overrides.push((Predicate::Contains(n.var, expr.clone()), weight));
                }
            }
        }
    }
    Ok((q, overrides))
}

enum WeightHint {
    Edge {
        node: usize,
        weight: f64,
    },
    Contains {
        node: usize,
        index: usize,
        weight: f64,
    },
}

struct QParser<'a> {
    input: &'a str,
    pos: usize,
    nodes: Vec<TpqNode>,
    next_var: u32,
    weights: Vec<WeightHint>,
}

impl<'a> QParser<'a> {
    fn error(&self, message: &str) -> QueryParseError {
        QueryParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        self.pos = self.input.len() - self.rest().trim_start().len();
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn parse_leading_axis(&mut self) -> Result<Axis, QueryParseError> {
        if self.eat("//") {
            Ok(Axis::Descendant)
        } else if self.eat("/") {
            Ok(Axis::Child)
        } else {
            Err(self.error("query must start with '/' or '//'"))
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, QueryParseError> {
        let start = self.pos;
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !(c.is_alphanumeric() || *c == '_' || *c == '-' || *c == '.'))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        // A lone '*' is the wildcard name.
        if end == 0 {
            if rest.starts_with('*') {
                self.pos += 1;
                return Ok("*");
            }
            return Err(self.error("expected element name"));
        }
        // Names must not start with '.' (that's the context-node syntax).
        if rest.starts_with('.') {
            return Err(self.error("expected element name"));
        }
        self.pos += end;
        Ok(&self.input[start..self.pos])
    }

    /// Adds one step node; returns its index.
    fn add_node(&mut self, parent: Option<usize>, name: &str, axis: Axis) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(TpqNode {
            var: Var(self.next_var),
            tag: (name != "*").then(|| name.into()),
            parent,
            axis,
            contains: Vec::new(),
            attrs: Vec::new(),
        });
        self.next_var += 1;
        idx
    }

    /// Parses `step (("/" | "//") step)*`, returning the index of the *last*
    /// step (the path's end point). `depth` is the first step's depth in the
    /// query tree (the root is 1).
    fn parse_path(
        &mut self,
        parent: Option<usize>,
        axis: Axis,
        depth: usize,
    ) -> Result<usize, QueryParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        let name = self.parse_name()?;
        let idx = self.add_node(parent, name, axis);
        // Optional weight annotation on the edge into this step.
        if let Some(w) = self.parse_weight_suffix()? {
            if parent.is_some() {
                self.weights.push(WeightHint::Edge {
                    node: idx,
                    weight: w,
                });
            }
        }
        // Qualifiers on this step.
        loop {
            self.skip_ws();
            if self.eat("[") {
                self.parse_qualifier(idx, depth)?;
            } else {
                break;
            }
        }
        // Path continuation.
        if self.rest().starts_with("//") {
            self.pos += 2;
            return self.parse_path(Some(idx), Axis::Descendant, depth + 1);
        }
        if self.rest().starts_with('/') {
            self.pos += 1;
            return self.parse_path(Some(idx), Axis::Child, depth + 1);
        }
        Ok(idx)
    }

    /// Parses the conjuncts of one `[...]` on `node`, which is `depth` deep.
    fn parse_qualifier(&mut self, node: usize, depth: usize) -> Result<(), QueryParseError> {
        loop {
            self.skip_ws();
            self.parse_conjunct(node, depth)?;
            self.skip_ws();
            if self.eat_keyword("and") {
                continue;
            }
            if self.eat("]") {
                return Ok(());
            }
            return Err(self.error("expected 'and' or ']'"));
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let rest = self.rest();
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

    fn parse_conjunct(&mut self, node: usize, depth: usize) -> Result<(), QueryParseError> {
        self.skip_ws();
        if self.rest().starts_with(".contains(") {
            self.pos += ".contains(".len();
            let expr = self.parse_ft_argument()?;
            self.nodes[node].contains.push(expr);
            let index = self.nodes[node].contains.len() - 1;
            if let Some(w) = self.parse_weight_suffix()? {
                self.weights.push(WeightHint::Contains {
                    node,
                    index,
                    weight: w,
                });
            }
            return Ok(());
        }
        if self.rest().starts_with(".//") {
            self.pos += 3;
            self.parse_path(Some(node), Axis::Descendant, depth + 1)?;
            return Ok(());
        }
        if self.rest().starts_with("./") {
            self.pos += 2;
            self.parse_path(Some(node), Axis::Child, depth + 1)?;
            return Ok(());
        }
        if self.eat("@") {
            let name = self.parse_name()?.to_string();
            self.skip_ws();
            let op = self.parse_cmp_op()?;
            self.skip_ws();
            let value = self.parse_literal()?;
            self.nodes[node].attrs.push(crate::ast::AttrPred {
                name: name.into(),
                op,
                value: value.into(),
            });
            return Ok(());
        }
        Err(self.error("expected '.contains(', './', './/', or '@attr'"))
    }

    fn parse_cmp_op(&mut self) -> Result<AttrOp, QueryParseError> {
        for (tok, op) in [
            ("!=", AttrOp::Ne),
            ("<=", AttrOp::Le),
            (">=", AttrOp::Ge),
            ("=", AttrOp::Eq),
            ("<", AttrOp::Lt),
            (">", AttrOp::Gt),
        ] {
            if self.eat(tok) {
                return Ok(op);
            }
        }
        Err(self.error("expected comparison operator"))
    }

    fn parse_literal(&mut self) -> Result<String, QueryParseError> {
        if self.eat("\"") {
            let end = self
                .rest()
                .find('"')
                .ok_or_else(|| self.error("unterminated string literal"))?;
            let s = self.rest()[..end].to_string();
            self.pos += end + 1;
            return Ok(s);
        }
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_digit() || *c == '.' || *c == '-'))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.error("expected literal"));
        }
        let s = rest[..end].to_string();
        self.pos += end;
        Ok(s)
    }

    /// Parses an optional `^<float>` weight suffix.
    fn parse_weight_suffix(&mut self) -> Result<Option<f64>, QueryParseError> {
        if !self.rest().starts_with('^') {
            return Ok(None);
        }
        self.pos += 1;
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_digit() || *c == '.'))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        let w: f64 = rest[..end]
            .parse()
            .map_err(|_| self.error("expected weight after '^'"))?;
        if !(w.is_finite() && w >= 0.0) {
            return Err(self.error("weight must be a finite non-negative number"));
        }
        self.pos += end;
        Ok(Some(w))
    }

    /// Parses the argument of `.contains(...)`: scans to the matching `)`
    /// respecting quotes and nested parentheses, then hands the slice to the
    /// full-text parser.
    fn parse_ft_argument(&mut self) -> Result<FtExpr, QueryParseError> {
        let start = self.pos;
        let bytes = self.input.as_bytes();
        let mut depth = 1;
        let mut in_string = false;
        let mut i = self.pos;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => in_string = !in_string,
                b'(' if !in_string => depth += 1,
                b')' if !in_string => {
                    depth -= 1;
                    if depth == 0 {
                        let inner = &self.input[start..i];
                        self.pos = i + 1;
                        return FtExpr::parse(inner).map_err(|e| QueryParseError {
                            message: format!("in contains(): {e}"),
                            offset: start + e.offset,
                        });
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.pos = bytes.len();
        Err(self.error("unterminated contains("))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::Predicate;

    #[test]
    fn parses_paper_q1() {
        let q = parse_query(
            "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]",
        )
        .unwrap();
        assert_eq!(q.node_count(), 4);
        assert_eq!(q.distinguished(), 0);
        let preds = q.logical();
        assert!(preds.contains(&Predicate::Pc(Var(1), Var(2))));
        assert!(preds.contains(&Predicate::Tag(Var(3), "algorithm".into())));
        assert!(preds.contains(&Predicate::Contains(
            Var(4),
            FtExpr::all_of(&["XML", "streaming"])
        )));
    }

    #[test]
    fn parses_paper_q3_with_descendant_axis() {
        let q = parse_query(
            "//article[.//algorithm and ./section[./paragraph[.contains(\"XML\" and \"streaming\")]]]",
        )
        .unwrap();
        let alg = q
            .nodes()
            .iter()
            .position(|n| n.tag.as_deref() == Some("algorithm"))
            .unwrap();
        assert_eq!(q.node(alg).axis, Axis::Descendant);
        assert_eq!(q.node(alg).parent, Some(0));
    }

    #[test]
    fn parses_contains_on_step_itself() {
        // Q2 shape: contains attached to section, not paragraph.
        let q = parse_query(
            "//article[./section[./paragraph and .contains(\"XML\" and \"streaming\")]]",
        )
        .unwrap();
        let section = q
            .nodes()
            .iter()
            .position(|n| n.tag.as_deref() == Some("section"))
            .unwrap();
        assert_eq!(q.node(section).contains.len(), 1);
    }

    #[test]
    fn parses_root_contains_q6() {
        let q = parse_query("//article[.contains(\"XML\" and \"streaming\")]").unwrap();
        assert_eq!(q.node_count(), 1);
        assert_eq!(q.node(0).contains.len(), 1);
    }

    #[test]
    fn parses_xmark_benchmark_queries() {
        let q1 = parse_query("//item[./description/parlist]").unwrap();
        assert_eq!(q1.node_count(), 3);
        let q2 = parse_query("//item[./description/parlist and ./mailbox/mail/text]").unwrap();
        assert_eq!(q2.node_count(), 6);
        let q3 = parse_query(
            "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]",
        )
        .unwrap();
        assert_eq!(q3.node_count(), 12);
        assert_eq!(q3.distinguished(), 0);
    }

    #[test]
    fn distinguished_is_last_spine_step() {
        let q = parse_query("//a/b[./c]").unwrap();
        let b = q
            .nodes()
            .iter()
            .position(|n| n.tag.as_deref() == Some("b"))
            .unwrap();
        assert_eq!(q.distinguished(), b);
    }

    #[test]
    fn relative_paths_nest_multiple_steps() {
        let q = parse_query("//a[./b/c//d]").unwrap();
        assert_eq!(q.node_count(), 4);
        let d = q
            .nodes()
            .iter()
            .position(|n| n.tag.as_deref() == Some("d"))
            .unwrap();
        assert_eq!(q.node(d).axis, Axis::Descendant);
    }

    #[test]
    fn attribute_predicates_parse() {
        let q = parse_query("//item[@featured = \"yes\" and ./name]").unwrap();
        assert_eq!(q.node(0).attrs.len(), 1);
        assert_eq!(&*q.node(0).attrs[0].name, "featured");
        let q = parse_query("//book[@price < 100]").unwrap();
        assert_eq!(q.node(0).attrs[0].op, AttrOp::Lt);
        assert_eq!(&*q.node(0).attrs[0].value, "100");
    }

    #[test]
    fn wildcard_steps_parse() {
        let q = parse_query("//a/*[./b]").unwrap();
        assert!(q.node(q.distinguished()).tag.is_none());
    }

    #[test]
    fn multiple_qualifiers_accumulate() {
        let q = parse_query("//a[./b][./c]").unwrap();
        assert_eq!(q.children(0).len(), 2);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let q = parse_query("//a[ ./b  and  .contains( \"gold\" ) ]").unwrap();
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.node(0).contains.len(), 1);
    }

    #[test]
    fn multi_byte_whitespace_is_whitespace() {
        let plain = parse_query("//a[./b and .contains(\"x1\" and \"y1\")]").unwrap();
        for ws in ['\u{a0}', '\u{2003}', '\u{3000}'] {
            for input in [
                format!("{ws}//a[{ws}./b and .contains(\"x1\" and \"y1\")]"),
                format!("//a[./b{ws}and{ws}.contains(\"x1\" and{ws}\"y1\")]"),
                format!("//a[./b and .contains(\"x1\" and \"y1\"{ws}){ws}]{ws}"),
            ] {
                let q = parse_query(&input).unwrap_or_else(|e| panic!("{input:?}: {e}"));
                assert_eq!(q.logical(), plain.logical(), "{input:?}");
            }
        }
        // A keyword probe that would end inside a character is not a keyword.
        let e = parse_query("//a[./b an\u{a0}./c]").unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (8, "expected 'and' or ']'"));
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let brackets = |n: usize| format!("//a{}{}", "[./a".repeat(n), "]".repeat(n));
        let steps = |n: usize| format!("/{}", "/a".repeat(n));
        let parens = |n: usize| format!("//a[.contains({}\"a1\"{})]", "(".repeat(n), ")".repeat(n));
        assert_eq!(
            parse_query(&brackets(MAX_DEPTH - 1)).unwrap().node_count(),
            MAX_DEPTH
        );
        assert_eq!(
            parse_query(&steps(MAX_DEPTH)).unwrap().node_count(),
            MAX_DEPTH
        );
        let e = parse_query(&brackets(MAX_DEPTH)).unwrap_err();
        assert_eq!(e.message, format!("nesting deeper than {MAX_DEPTH}"));
        assert_eq!(e.offset, "//a".len() + 4 * MAX_DEPTH - 1);
        assert!(parse_query(&steps(MAX_DEPTH + 1)).is_err());
        // The full-text cap surfaces through `contains(`, at its own offset.
        let e = parse_query(&parens(65)).unwrap_err();
        assert!(e.message.contains("nesting deeper than 64"), "{e}");
        assert_eq!(e.offset, "//a[.contains(".len() + 64);
        // Far past the caps, on the stack a server worker has.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for input in [brackets(100_000), steps(100_000), parens(100_000)] {
                    let e = parse_query(&input).unwrap_err();
                    assert!(e.message.contains("nesting deeper"), "{e}");
                    assert!(input.is_char_boundary(e.offset));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn errors_report_position() {
        let e = parse_query("article").unwrap_err();
        assert_eq!(e.offset, 0);
        let e = parse_query("//a[").unwrap_err();
        assert!(e.offset >= 4);
        assert!(parse_query("//a[./b").is_err());
        assert!(parse_query("//a]").is_err());
        assert!(parse_query("//a[.contains(\"x\"]").is_err());
        assert!(parse_query("").is_err());
    }

    #[test]
    fn bad_ft_expression_is_reported_with_context() {
        let e = parse_query("//a[.contains(\"unterminated)]").unwrap_err();
        assert!(e.message.contains("contains"), "{e}");
    }

    #[test]
    fn weight_annotations_surface_as_overrides() {
        let (q, weights) = crate::parser::parse_query_weighted(
            "//article[./section^2 and .//note^0.25 and .contains(\"gold\")^0.5]",
        )
        .unwrap();
        assert_eq!(q.node_count(), 3);
        assert_eq!(weights.len(), 3);
        let section_var = q
            .nodes()
            .iter()
            .find(|n| n.tag.as_deref() == Some("section"))
            .unwrap()
            .var;
        let note_var = q
            .nodes()
            .iter()
            .find(|n| n.tag.as_deref() == Some("note"))
            .unwrap()
            .var;
        assert!(weights
            .iter()
            .any(|(p, w)| *p == Predicate::Pc(Var(1), section_var) && *w == 2.0));
        assert!(weights
            .iter()
            .any(|(p, w)| *p == Predicate::Ad(Var(1), note_var) && *w == 0.25));
        assert!(weights
            .iter()
            .any(|(p, w)| matches!(p, Predicate::Contains(v, _) if *v == Var(1)) && *w == 0.5));
    }

    #[test]
    fn plain_parse_accepts_and_ignores_weights() {
        let q = parse_query("//a[./b^3]").unwrap();
        assert_eq!(q.node_count(), 2);
    }

    #[test]
    fn bad_weights_are_rejected() {
        assert!(parse_query("//a[./b^]").is_err());
        assert!(parse_query("//a[./b^abc]").is_err());
    }

    #[test]
    fn weight_on_spine_root_is_ignored() {
        // The root has no incoming edge; `^` there is accepted as a no-op.
        let (q, weights) = crate::parser::parse_query_weighted("//a^5[./b]").unwrap();
        assert_eq!(q.node_count(), 2);
        assert!(weights.is_empty());
    }

    #[test]
    fn round_trip_through_to_xpath() {
        let src = "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]";
        let q = parse_query(src).unwrap();
        let rendered = q.to_xpath();
        let q2 = parse_query(&rendered).unwrap();
        assert_eq!(q.logical(), q2.logical());
    }
}
