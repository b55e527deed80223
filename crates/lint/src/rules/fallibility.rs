//! Rule family 6: lazy-store fallibility discipline.
//!
//! An `EngineContext` reads its parts from a `ContextSource`, and the
//! source behind a store-backed session decodes lazily and can fail. The
//! infallible part accessors — `ctx.doc()`, `ctx.stats()`, `ctx.index()` —
//! panic on such a decode fault. Library code must reach parts through the
//! fallible surface (`try_doc`/`try_stats`/`try_index`/`ensure_ready`/
//! `materialize`) unless the enclosing scope is provably post-
//! materialization. This rule flags infallible accessor calls on an
//! `EngineContext` receiver outside such a scope.
//!
//! "Provably" is a name-based approximation in the accepting direction:
//!
//! * a function that calls an **establisher** (`ensure_ready`,
//!   `materialize`, or a `try_*` part accessor) is guarded *after* that
//!   call — accessor sites textually before it still fire;
//! * every function called after the establisher — and, transitively,
//!   everything those functions call — is treated as guarded (the
//!   engine's whole executor runs after `TopKQuery::execute`'s own
//!   `ensure_ready`, which this closure captures).
//!
//! Receivers are matched by shape: a field/variable chain ending in the
//! accessor whose path mentions `ctx`/`context`, a parameter or local
//! typed `EngineContext`, or a direct `….context().doc()` chain. Bare
//! `self.doc()` inside `EngineContext`'s own impl is exempt — the impl is
//! where the panic contract is defined and documented.
//!
//! Escape: `// lint:allow(fallibility): <why the parts are resident>`.

use super::{FileModel, Violation};
use crate::lexer::{Delim, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Rule id used in reports.
pub const RULE: &str = "fallibility";

/// The infallible part accessors (empty-argument methods).
const ACCESSORS: &[&str] = &["doc", "stats", "index"];

/// Calls that establish residency for the rest of the scope.
const ESTABLISHERS: &[&str] = &[
    "ensure_ready",
    "materialize",
    "try_doc",
    "try_stats",
    "try_index",
];

/// Computes the workspace-wide set of function names reachable only from
/// post-establishment call sites (the guarded closure described in the
/// module docs).
pub fn guarded_fns(models: &[FileModel]) -> BTreeSet<String> {
    let mut fns: BTreeMap<String, Vec<super::governor::FnSpan>> = BTreeMap::new();
    for (idx, m) in models.iter().enumerate() {
        super::governor::collect_fns(m, idx, &mut fns);
    }
    let mut guarded: BTreeSet<String> = BTreeSet::new();
    // Seeds: names called after an establisher within some function body.
    for spans in fns.values() {
        for sp in spans {
            let m = &models[sp.file];
            let Some(e) = establisher_index(m, sp.body) else {
                continue;
            };
            for k in e + 1..sp.body.1 {
                if is_call(m, k) {
                    let name = m.toks[k].tok.text.as_str();
                    if !ACCESSORS.contains(&name) && !ESTABLISHERS.contains(&name) {
                        guarded.insert(name.to_string());
                    }
                }
            }
        }
    }
    // Closure: everything a guarded function calls is guarded too.
    loop {
        let mut grown: Vec<String> = Vec::new();
        for name in &guarded {
            let Some(spans) = fns.get(name) else { continue };
            for sp in spans {
                let m = &models[sp.file];
                for k in sp.body.0..sp.body.1 {
                    if is_call(m, k) {
                        let callee = m.toks[k].tok.text.as_str();
                        if !guarded.contains(callee)
                            && fns.contains_key(callee)
                            && !ACCESSORS.contains(&callee)
                        {
                            grown.push(callee.to_string());
                        }
                    }
                }
            }
        }
        if grown.is_empty() {
            break;
        }
        guarded.extend(grown);
    }
    guarded
}

/// Runs the fallibility rule over one file.
pub fn check(m: &FileModel, guarded: &BTreeSet<String>, out: &mut Vec<Violation>) {
    let mut fns: BTreeMap<String, Vec<super::governor::FnSpan>> = BTreeMap::new();
    super::governor::collect_fns(m, 0, &mut fns);
    // (body range, name, establisher index if any) for enclosing lookups.
    let mut spans: Vec<((usize, usize), String, Option<usize>)> = Vec::new();
    for (name, list) in &fns {
        for sp in list {
            spans.push((sp.body, name.clone(), establisher_index(m, sp.body)));
        }
    }
    let typed_params = engine_context_bindings(m);

    for (i, st) in m.toks.iter().enumerate() {
        if st.test || st.tok.kind != TokKind::Ident {
            continue;
        }
        if !ACCESSORS.contains(&st.tok.text.as_str()) {
            continue;
        }
        // `.accessor()` with an empty argument list only.
        let empty_call = m
            .toks
            .get(i + 1)
            .is_some_and(|n| n.tok.kind == TokKind::Open(Delim::Paren) && n.partner == i + 2);
        if !empty_call || i == 0 || !m.toks[i - 1].tok.is_punct('.') {
            continue;
        }
        if !receiver_is_context(m, i - 1, &typed_params) {
            continue;
        }
        // Innermost enclosing function decides guardedness.
        let enclosing = spans
            .iter()
            .filter(|(b, _, _)| b.0 <= i && i < b.1)
            .min_by_key(|(b, _, _)| b.1 - b.0);
        let ok = match enclosing {
            Some((_, name, est)) => guarded.contains(name) || est.is_some_and(|e| e < i),
            None => false,
        };
        if !ok {
            m.report(
                out,
                RULE,
                &st.tok,
                format!(
                    "infallible `.{}()` on an EngineContext outside a provably \
                     post-materialize scope — use try_{}()/ensure_ready() and \
                     surface the fault, or justify with lint:allow",
                    st.tok.text, st.tok.text
                ),
            );
        }
    }
}

/// First establisher call index inside `body`, if any.
fn establisher_index(m: &FileModel, body: (usize, usize)) -> Option<usize> {
    (body.0..body.1).find(|&k| is_call(m, k) && ESTABLISHERS.contains(&m.toks[k].tok.text.as_str()))
}

/// Whether token `k` is an ident directly followed by `(`.
fn is_call(m: &FileModel, k: usize) -> bool {
    m.toks[k].tok.kind == TokKind::Ident
        && m.toks
            .get(k + 1)
            .is_some_and(|n| n.tok.kind == TokKind::Open(Delim::Paren))
}

/// Whether the receiver chain ending at the `.` token `dot` denotes an
/// `EngineContext`: any chain segment named `ctx`/`context`, a
/// `….context()` call result, or a binding typed `EngineContext`.
fn receiver_is_context(m: &FileModel, dot: usize, typed: &BTreeSet<String>) -> bool {
    let mut k = dot;
    let mut first_segment: Option<&str> = None;
    while let Some(prev) = k.checked_sub(1) {
        match &m.toks[prev].tok.kind {
            TokKind::Ident => {
                let name = m.toks[prev].tok.text.as_str();
                if name == "ctx" || name == "context" {
                    return true;
                }
                first_segment = Some(name);
                // Continue through a field chain (`self.flex.ctx.doc()`).
                if prev > 0 && m.toks[prev - 1].tok.is_punct('.') {
                    k = prev - 1;
                    continue;
                }
                break;
            }
            TokKind::Close(Delim::Paren) => {
                // `….context().doc()` — a fresh borrow of the context.
                let open = m.toks[prev].partner;
                return open > 0 && m.toks[open - 1].tok.is_ident("context");
            }
            _ => break,
        }
    }
    first_segment.is_some_and(|name| typed.contains(name))
}

/// Names bound with an `EngineContext` type ascription in this file
/// (parameters `ctx: &EngineContext<'_>`, locals `let c: EngineContext`).
fn engine_context_bindings(m: &FileModel) -> BTreeSet<String> {
    let toks = &m.toks;
    let mut names = BTreeSet::new();
    for (i, st) in toks.iter().enumerate() {
        if !st.tok.is_ident("EngineContext") {
            continue;
        }
        let mut k = i;
        // Walk back over path segments, `&`, and lifetimes to the `:`.
        while k >= 2 && toks[k - 1].tok.is_punct(':') && toks[k - 2].tok.is_punct(':') {
            k -= 2;
            if k > 0 && toks[k - 1].tok.kind == TokKind::Ident {
                k -= 1;
            }
        }
        if k > 0 && toks[k - 1].tok.kind == TokKind::Lifetime {
            k -= 1;
        }
        if k > 0 && toks[k - 1].tok.is_punct('&') {
            k -= 1;
        }
        if k >= 2 && toks[k - 1].tok.is_punct(':') && toks[k - 2].tok.kind == TokKind::Ident {
            names.insert(toks[k - 2].tok.text.clone());
        }
    }
    names
}
