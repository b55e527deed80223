//! Rule family 3: governor coverage of candidate/postings loops.
//!
//! PR 1's resource governor only bounds work if every loop that can scale
//! with corpus size observes the budget. This rule finds each `for` /
//! `while` / `loop` in the executor, the structural join, the three top-K
//! drivers, and the full-text evaluator whose body exceeds a trivial-size
//! threshold, and requires the body to contain a reachable budget call:
//! either a direct method from [`BUDGET_METHODS`] or a call to a workspace
//! function that (transitively) makes one. Reachability is a name-based
//! call-graph closure over the whole workspace — an overapproximation, but
//! a sound direction: a loop is only accepted when some callee path leads
//! to the budget.
//!
//! Escape: `// lint:allow(governor): <why this loop is bounded>` on the
//! loop keyword's line or the line above.

use super::{FileModel, Violation};
use crate::lexer::{Delim, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Rule id used in reports.
pub const RULE: &str = "governor";

/// Budget methods that count as observing the governor (see
/// `crates/ftsearch/src/budget.rs`).
pub const BUDGET_METHODS: &[&str] = &[
    "checkpoint",
    "check_now",
    "charge_postings",
    "charge_answer",
    "tripped",
    "is_cancelled",
];

/// Loops whose body is at most this many tokens are considered trivial
/// (fixed-arity glue: unpacking tuples, pushing to a vec) and exempt.
pub const TRIVIAL_LOOP_TOKENS: usize = 40;

/// A function body, as a token range into one file's scoped stream.
#[derive(Debug, Clone, Copy)]
pub struct FnSpan {
    /// Index into the file list handed to [`covered_fns`].
    pub file: usize,
    /// Token range of the body, exclusive of the braces.
    pub body: (usize, usize),
}

/// Records every named non-test `fn` with a body in `m`.
pub fn collect_fns(m: &FileModel, file: usize, map: &mut BTreeMap<String, Vec<FnSpan>>) {
    let toks = &m.toks;
    for (i, st) in toks.iter().enumerate() {
        if st.test || !st.tok.is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|n| n.tok.kind == TokKind::Ident) else {
            continue; // `fn(u8) -> u8` pointer type
        };
        // The body is the first brace group at the same nesting level as
        // the `fn` keyword; a `;` first means a bodiless trait method.
        let mut j = i + 2;
        while let Some(st) = toks.get(j) {
            match st.tok.kind {
                TokKind::Open(Delim::Brace) => {
                    map.entry(name.tok.text.clone()).or_default().push(FnSpan {
                        file,
                        body: (j + 1, st.partner),
                    });
                    break;
                }
                TokKind::Punct(';') | TokKind::Close(_) => break,
                TokKind::Open(_) => j = st.partner + 1,
                _ => j += 1,
            }
        }
    }
}

/// Whether `toks[range]` contains a call to one of `names` (an identifier
/// from the set immediately followed by `(`).
fn calls_one_of(m: &FileModel, range: (usize, usize), names: &BTreeSet<&str>) -> bool {
    (range.0..range.1).any(|k| {
        m.toks[k].tok.kind == TokKind::Ident
            && names.contains(m.toks[k].tok.text.as_str())
            && m.toks
                .get(k + 1)
                .is_some_and(|n| n.tok.kind == TokKind::Open(Delim::Paren))
    })
}

/// Computes the set of function names that (transitively) reach a budget
/// call, by fixpoint over the name-based call graph of `files`.
pub fn covered_fns(files: &[FileModel]) -> BTreeSet<String> {
    let mut fns: BTreeMap<String, Vec<FnSpan>> = BTreeMap::new();
    for (idx, m) in files.iter().enumerate() {
        collect_fns(m, idx, &mut fns);
    }
    let budget: BTreeSet<&str> = BUDGET_METHODS.iter().copied().collect();
    let mut covered: BTreeSet<String> = BTreeSet::new();
    for (name, spans) in &fns {
        if spans
            .iter()
            .any(|s| calls_one_of(&files[s.file], s.body, &budget))
        {
            covered.insert(name.clone());
        }
    }
    loop {
        let names: BTreeSet<&str> = covered.iter().map(String::as_str).collect();
        let grown: Vec<String> = fns
            .iter()
            .filter(|(name, _)| !covered.contains(*name))
            .filter(|(_, spans)| {
                spans
                    .iter()
                    .any(|s| calls_one_of(&files[s.file], s.body, &names))
            })
            .map(|(name, _)| name.clone())
            .collect();
        if grown.is_empty() {
            break;
        }
        covered.extend(grown);
    }
    covered
}

/// Runs the governor-coverage rule over one file.
pub fn check(m: &FileModel, covered: &BTreeSet<String>, out: &mut Vec<Violation>) {
    let budget: BTreeSet<&str> = BUDGET_METHODS.iter().copied().collect();
    let covered_refs: BTreeSet<&str> = covered.iter().map(String::as_str).collect();
    let toks = &m.toks;
    for (i, st) in toks.iter().enumerate() {
        if st.test || st.tok.kind != TokKind::Ident {
            continue;
        }
        let kw = st.tok.text.as_str();
        let body_open = match kw {
            "loop" => match toks.get(i + 1) {
                Some(n) if n.tok.kind == TokKind::Open(Delim::Brace) => Some(i + 1),
                _ => None,
            },
            "while" => header_brace(m, i + 1, false),
            "for" => header_brace(m, i + 1, true),
            _ => None,
        };
        let Some(open) = body_open else { continue };
        let close = toks[open].partner;
        let body = (open + 1, close);
        if close - open - 1 <= TRIVIAL_LOOP_TOKENS {
            continue;
        }
        if calls_one_of(m, body, &budget) || calls_one_of(m, body, &covered_refs) {
            continue;
        }
        m.report(
            out,
            RULE,
            &st.tok,
            format!(
                "`{kw}` loop (~{} tokens) has no reachable budget checkpoint — \
                 call budget.checkpoint()/charge_*() or a budgeted helper inside \
                 the loop, or justify with lint:allow",
                close - open - 1
            ),
        );
    }
}

/// Finds the brace group opening a `while`/`for` loop body: the first
/// `{` at the keyword's nesting level. For `for`, additionally requires a
/// same-level `in` before the brace — `impl Trait for Type { … }` has none.
fn header_brace(m: &FileModel, mut j: usize, need_in: bool) -> Option<usize> {
    let mut saw_in = false;
    while let Some(st) = m.toks.get(j) {
        match st.tok.kind {
            TokKind::Open(Delim::Brace) => {
                return (!need_in || saw_in).then_some(j);
            }
            TokKind::Open(_) => j = st.partner + 1,
            TokKind::Close(_) | TokKind::Punct(';') => return None,
            TokKind::Ident if st.tok.text == "in" => {
                saw_in = true;
                j += 1;
            }
            _ => j += 1,
        }
    }
    None
}
