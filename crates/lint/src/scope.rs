//! Attribute scoping over the token stream.
//!
//! The old `tests/no_panics.rs` scanner approximated `#[cfg(test)]` and
//! `#[allow(…)]` scoping by counting indentation. This module does it
//! structurally: tokens are grouped by matching delimiters, attributes are
//! attached to the item (or statement/expression) they precede — everything
//! up to and including the next brace group or `;` at the same nesting
//! level — and each token comes out of the flattener carrying the set of
//! lint opt-outs in force at its position plus a test-code flag.
//!
//! Recognized attributes:
//!
//! * `#[cfg(test)]` (or any `cfg` whose arguments mention `test`) — the
//!   attached item is test code; every rule skips it. `#![cfg(test)]` as an
//!   inner attribute marks the rest of the enclosing scope.
//! * `#[allow(clippy::unwrap_used)]` and friends — sets the matching
//!   [`Allow`] bit for the attached item. `#![allow(…)]` applies to the
//!   rest of the enclosing scope. `expect(…)` (the attribute) is honored
//!   the same way.

use crate::lexer::{Delim, Tok, TokKind};

/// Bitmask of attribute-based opt-outs (the panic-policy family; the
/// other families' escapes are comment-based instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Allow(pub u16);

impl Allow {
    /// `clippy::unwrap_used`
    pub const UNWRAP: u16 = 1 << 0;
    /// `clippy::expect_used`
    pub const EXPECT: u16 = 1 << 1;
    /// `clippy::panic`
    pub const PANIC: u16 = 1 << 2;
    /// `clippy::unreachable`
    pub const UNREACHABLE: u16 = 1 << 3;
    /// `clippy::todo`
    pub const TODO: u16 = 1 << 4;
    /// `clippy::unimplemented`
    pub const UNIMPLEMENTED: u16 = 1 << 5;
    /// `clippy::indexing_slicing`
    pub const INDEXING: u16 = 1 << 6;
    /// `unsafe_code`
    pub const UNSAFE: u16 = 1 << 7;

    /// Whether `bit` is set.
    pub fn has(self, bit: u16) -> bool {
        self.0 & bit != 0
    }

    fn union(self, other: Allow) -> Allow {
        Allow(self.0 | other.0)
    }
}

/// One token of the scoped, flattened stream the rules consume.
#[derive(Debug, Clone)]
pub struct ScopedTok {
    /// The underlying token.
    pub tok: Tok,
    /// Attribute opt-outs in force here.
    pub allow: Allow,
    /// Inside `#[cfg(test)]`-gated code (or a `tests` module so gated).
    pub test: bool,
    /// For `Open`/`Close`: index of the matching partner in the stream.
    /// `usize::MAX` elsewhere.
    pub partner: usize,
}

/// Scopes and flattens a lexed token stream.
///
/// Fails (with a diagnostic) on mismatched delimiters — a file that does
/// not parse this far would not compile either.
pub fn scope(toks: &[Tok]) -> Result<Vec<ScopedTok>, String> {
    let mut out: Vec<ScopedTok> = Vec::with_capacity(toks.len());
    let mut stack: Vec<usize> = Vec::new();
    walk(toks, &mut 0, Allow::default(), false, &mut out, &mut stack)?;
    if let Some(open) = stack.last() {
        return Err(format!(
            "unclosed delimiter opened on line {}",
            out[*open].tok.line
        ));
    }
    Ok(out)
}

/// Recursively emits the tokens of one nesting level.
///
/// `i` indexes into `toks` and advances past everything emitted. The
/// function returns when it emits the `Close` matching the level's `Open`
/// (or at end of input for the top level).
fn walk(
    toks: &[Tok],
    i: &mut usize,
    ctx_allow: Allow,
    ctx_test: bool,
    out: &mut Vec<ScopedTok>,
    stack: &mut Vec<usize>,
) -> Result<(), String> {
    // Opt-outs attached to the current (not yet terminated) item at this
    // level; `None` between items.
    let mut item: Option<(Allow, bool)> = None;
    // Opt-outs from inner attributes (`#![…]`), in force for the rest of
    // this level.
    let mut inner_allow = ctx_allow;
    let mut inner_test = ctx_test;

    while *i < toks.len() {
        let (cur_allow, cur_test) = match item {
            Some((a, t)) => (inner_allow.union(a), inner_test || t),
            None => (inner_allow, inner_test),
        };
        let t = &toks[*i];
        match t.kind {
            // No `item.is_none()` guard: stacked attributes
            // (`#[derive(Debug)] #[cfg(test)] mod t { … }`) must all
            // accumulate onto the same item — gating on "between items"
            // made every attribute after the first leak into the token
            // stream as stray punctuation, silently dropping its effect.
            TokKind::Punct('#')
                if matches!(
                    toks.get(*i + 1).map(|n| &n.kind),
                    Some(TokKind::Open(Delim::Bracket)) | Some(TokKind::Punct('!'))
                ) =>
            {
                let inner = toks[*i + 1].kind == TokKind::Punct('!');
                let attr_start = if inner { *i + 2 } else { *i + 1 };
                if !matches!(
                    toks.get(attr_start).map(|n| &n.kind),
                    Some(TokKind::Open(Delim::Bracket))
                ) {
                    // `#` that is not an attribute (stray punctuation).
                    emit(out, t, cur_allow, cur_test);
                    *i += 1;
                    continue;
                }
                // Find the bracket group's extent (flat scan — attribute
                // token trees nest, e.g. `#[cfg_attr(not(test), allow(x))]`).
                let mut depth = 0usize;
                let mut end = attr_start;
                loop {
                    match toks.get(end).map(|n| &n.kind) {
                        Some(TokKind::Open(_)) => depth += 1,
                        Some(TokKind::Close(_)) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        None => return Err(format!("unclosed attribute on line {}", t.line)),
                        _ => {}
                    }
                    end += 1;
                }
                let body = &toks[attr_start + 1..end];
                let (a, is_test) = parse_attr(body);
                if inner {
                    inner_allow = inner_allow.union(a);
                    inner_test = inner_test || is_test;
                } else {
                    let (pa, pt) = item.take().unwrap_or_default();
                    item = Some((pa.union(a), pt || is_test));
                }
                // Attribute tokens themselves are not emitted: nothing a
                // rule looks for can fire inside `#[…]`.
                *i = end + 1;
            }
            TokKind::Open(_) => {
                let open_idx = out.len();
                emit(out, t, cur_allow, cur_test);
                stack.push(open_idx);
                *i += 1;
                walk(toks, i, cur_allow, cur_test, out, stack)?;
                // A brace group at this level terminates the attributed item.
                if t.kind == TokKind::Open(Delim::Brace) {
                    item = None;
                }
            }
            TokKind::Close(_) => {
                let open_idx = stack
                    .pop()
                    .ok_or_else(|| format!("unmatched closing delimiter on line {}", t.line))?;
                let close_idx = out.len();
                emit(out, t, cur_allow, cur_test);
                out[open_idx].partner = close_idx;
                out[close_idx].partner = open_idx;
                *i += 1;
                return Ok(());
            }
            TokKind::Punct(';') => {
                emit(out, t, cur_allow, cur_test);
                item = None;
                *i += 1;
            }
            _ => {
                emit(out, t, cur_allow, cur_test);
                *i += 1;
            }
        }
    }
    Ok(())
}

fn emit(out: &mut Vec<ScopedTok>, tok: &Tok, allow: Allow, test: bool) {
    out.push(ScopedTok {
        tok: tok.clone(),
        allow,
        test,
        partner: usize::MAX,
    });
}

/// Interprets one attribute body (the tokens between `[` and `]`).
///
/// Returns the opt-out bits it grants and whether it gates the item on
/// `test`. `cfg_attr` conditions are ignored (a `cfg_attr(not(test), …)`
/// allow is conservatively treated as always granted: the linter, like the
/// old scanner, checks non-test code).
fn parse_attr(body: &[Tok]) -> (Allow, bool) {
    let first = match body.first() {
        Some(t) if t.kind == TokKind::Ident => t.text.as_str(),
        _ => return (Allow::default(), false),
    };
    match first {
        "cfg" => {
            let test = body.iter().any(|t| t.is_ident("test"));
            (Allow::default(), test)
        }
        "allow" | "expect" => (parse_allow_args(&body[1..]), false),
        "cfg_attr" => {
            // Scan the arguments for allow/expect lists.
            let mut a = Allow::default();
            for (k, t) in body.iter().enumerate() {
                if t.kind == TokKind::Ident && (t.text == "allow" || t.text == "expect") {
                    a = a.union(parse_allow_args(&body[k + 1..]));
                }
            }
            (a, false)
        }
        _ => (Allow::default(), false),
    }
}

/// Maps the lint paths inside `allow(…)` to [`Allow`] bits.
fn parse_allow_args(args: &[Tok]) -> Allow {
    let mut a = Allow::default();
    for (k, t) in args.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let clippy = k >= 2 && args[k - 1].is_punct(':') && args[k - 2].is_punct(':');
        let bit = match (clippy, t.text.as_str()) {
            (true, "unwrap_used") => Allow::UNWRAP,
            (true, "expect_used") => Allow::EXPECT,
            (true, "panic") => Allow::PANIC,
            (true, "unreachable") => Allow::UNREACHABLE,
            (true, "todo") => Allow::TODO,
            (true, "unimplemented") => Allow::UNIMPLEMENTED,
            (true, "indexing_slicing") => Allow::INDEXING,
            (false, "unsafe_code") => Allow::UNSAFE,
            _ => continue,
        };
        a = Allow(a.0 | bit);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scoped(src: &str) -> Vec<ScopedTok> {
        scope(&lex(src).unwrap().toks).unwrap()
    }

    fn find<'a>(toks: &'a [ScopedTok], ident: &str) -> &'a ScopedTok {
        toks.iter().find(|t| t.tok.is_ident(ident)).unwrap()
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let toks = scoped("fn a() { live(); }\n#[cfg(test)]\nmod tests { fn b() { gated(); } }");
        assert!(!find(&toks, "live").test);
        assert!(find(&toks, "gated").test);
        assert!(find(&toks, "tests").test);
    }

    #[test]
    fn allow_scopes_to_one_item_only() {
        let toks =
            scoped("#[allow(clippy::unwrap_used)]\nfn a() { x.unwrap(); }\nfn b() { y.unwrap(); }");
        let unwraps: Vec<&ScopedTok> = toks.iter().filter(|t| t.tok.is_ident("unwrap")).collect();
        assert!(unwraps[0].allow.has(Allow::UNWRAP));
        assert!(!unwraps[1].allow.has(Allow::UNWRAP));
    }

    #[test]
    fn inner_attribute_covers_rest_of_scope() {
        let toks = scoped("mod m { #![allow(clippy::expect_used)] fn a() { x.expect(\"\"); } }");
        assert!(find(&toks, "expect").allow.has(Allow::EXPECT));
    }

    #[test]
    fn statement_level_allow_ends_at_semicolon() {
        let toks =
            scoped("fn a() { #[allow(clippy::indexing_slicing)] let v = x[0]; let w = y[1]; }");
        let opens: Vec<&ScopedTok> = toks
            .iter()
            .filter(|t| t.tok.kind == TokKind::Open(Delim::Bracket))
            .collect();
        assert!(opens[0].allow.has(Allow::INDEXING));
        assert!(!opens[1].allow.has(Allow::INDEXING));
    }

    #[test]
    fn partners_match() {
        let toks = scoped("fn a(b: u8) { c[d] }");
        for (i, t) in toks.iter().enumerate() {
            if let TokKind::Open(_) = t.tok.kind {
                assert_eq!(toks[t.partner].partner, i);
            }
        }
    }

    #[test]
    fn stacked_attributes_all_apply() {
        // Regression: a second attribute on one item used to be skipped
        // (and mis-lexed as stray tokens), so `#[derive] #[cfg(test)]`
        // lost the test gate and `#[derive] #[allow]` lost the allow.
        let toks = scoped("#[derive(Debug)]\n#[cfg(test)]\nstruct T { f: u8 }\nfn live() { x(); }");
        assert!(find(&toks, "T").test);
        assert!(!find(&toks, "live").test);
        let toks = scoped(
            "#[derive(Debug)]\n#[allow(clippy::unwrap_used)]\nfn a() { x.unwrap(); }\nfn b() { y.unwrap(); }",
        );
        let unwraps: Vec<&ScopedTok> = toks.iter().filter(|t| t.tok.is_ident("unwrap")).collect();
        assert!(unwraps[0].allow.has(Allow::UNWRAP));
        assert!(!unwraps[1].allow.has(Allow::UNWRAP));
    }

    #[test]
    fn cfg_attr_allow_is_honored() {
        let toks =
            scoped("#[cfg_attr(not(test), allow(clippy::unwrap_used))]\nfn a() { x.unwrap(); }");
        assert!(find(&toks, "unwrap").allow.has(Allow::UNWRAP));
    }

    #[test]
    fn cfg_any_test_counts_as_test() {
        let toks = scoped("#[cfg(any(test, feature = \"slow\"))] fn g() { gated(); }");
        assert!(find(&toks, "gated").test);
    }

    #[test]
    fn mismatched_delimiters_error() {
        assert!(scope(&lex("fn a( {").unwrap().toks).is_err());
        assert!(scope(&lex("fn a) {}").unwrap().toks).is_err());
    }
}
