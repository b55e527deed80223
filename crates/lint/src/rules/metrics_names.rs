//! Rule family 4: metrics naming discipline.
//!
//! Every counter/histogram name handed to the global `MetricsRegistry`
//! must live in a documented namespace (`engine.*`, `governor.*`, `nd.*`,
//! `serve.*` — including the `serve.debug.*` flight-recorder family) —
//! the observability docs and the `nd.`-prefix determinism carve-out both
//! key off these prefixes. Literal names must also stay inside the
//! Prometheus-safe charset `[a-z0-9._]`: `/metrics` maps every other
//! character to `_`, so an out-of-charset name silently collides after
//! sanitization. The rule tracks which local bindings hold the
//! registry (either `let m = …global();` or a parameter typed
//! `…MetricsRegistry`) and checks string literals passed to its recording
//! methods. Span-local `Tracer`/`TraceSpan` names (`schedule.*`, `round.*`,
//! …) are deliberately out of scope: only registry receivers are checked.
//!
//! Escape: `// lint:allow(metrics-name): <why this name is exempt>`.

use super::{FileModel, Violation};
use crate::lexer::{Delim, TokKind};
use std::collections::BTreeSet;

/// Rule id used in reports.
pub const RULE: &str = "metrics-name";

/// Namespaces a registry name may start with.
pub const NAMESPACES: &[&str] = &["engine.", "governor.", "nd.", "serve."];

/// Registry methods whose first argument is a metric name.
const METHODS: &[&str] = &["counter", "add", "histogram", "observe", "observe_duration"];

/// Runs the metrics-naming rule over one file.
pub fn check(m: &FileModel, out: &mut Vec<Violation>) {
    let receivers = registry_bindings(m);
    let toks = &m.toks;
    for (i, st) in toks.iter().enumerate() {
        if st.test {
            continue;
        }
        // `<receiver> . <method> ( "name"` …
        if st.tok.kind == TokKind::Ident && receivers.contains(st.tok.text.as_str()) {
            check_method_chain(m, i + 1, out);
        }
        // … or the direct chain `…global() . <method> ( "name"`.
        if st.tok.is_ident("global") {
            if let Some(close) = empty_call_close(m, i) {
                check_method_chain(m, close + 1, out);
            }
        }
    }
}

/// If `toks[i]` starts a `<ident> ( )` empty call, returns the `)` index.
fn empty_call_close(m: &FileModel, i: usize) -> Option<usize> {
    let open = i + 1;
    match m.toks.get(open) {
        Some(st) if st.tok.kind == TokKind::Open(Delim::Paren) && st.partner == open + 1 => {
            Some(open + 1)
        }
        _ => None,
    }
}

/// Checks `.method("literal"` starting at token index `j` (the `.`).
fn check_method_chain(m: &FileModel, j: usize, out: &mut Vec<Violation>) {
    let toks = &m.toks;
    if !toks.get(j).is_some_and(|t| t.tok.is_punct('.')) {
        return;
    }
    let Some(method) = toks.get(j + 1) else {
        return;
    };
    if method.tok.kind != TokKind::Ident || !METHODS.contains(&method.tok.text.as_str()) {
        return;
    }
    if !toks
        .get(j + 2)
        .is_some_and(|t| t.tok.kind == TokKind::Open(Delim::Paren))
    {
        return;
    }
    let Some(arg) = toks.get(j + 3) else { return };
    if arg.tok.kind != TokKind::Str {
        return; // dynamic name — not statically checkable
    }
    let name = &arg.tok.text;
    if !NAMESPACES.iter().any(|ns| name.starts_with(ns)) {
        m.report(
            out,
            RULE,
            &arg.tok,
            format!(
                "metric name {name:?} outside the documented namespaces \
                 ({}) — see ARCHITECTURE.md observability section",
                NAMESPACES.join(", ")
            ),
        );
        return;
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
    {
        m.report(
            out,
            RULE,
            &arg.tok,
            format!(
                "metric name {name:?} outside the charset [a-z0-9._] — \
                 /metrics sanitizes other characters to '_', which makes \
                 distinct names collide in the Prometheus exposition"
            ),
        );
    }
}

/// Collects local names bound to the metrics registry in this file.
fn registry_bindings(m: &FileModel) -> BTreeSet<String> {
    let toks = &m.toks;
    let mut names = BTreeSet::new();
    for (i, st) in toks.iter().enumerate() {
        // `let [mut] <name> = [path::]global()`
        if st.tok.is_ident("global") && empty_call_close(m, i).is_some() {
            let mut k = i;
            // Walk back over the leading path segments (`crate::metrics::`).
            while k >= 2 && toks[k - 1].tok.is_punct(':') && toks[k - 2].tok.is_punct(':') {
                k -= 2;
                if k > 0 && toks[k - 1].tok.kind == TokKind::Ident {
                    k -= 1;
                }
            }
            if k >= 3
                && toks[k - 1].tok.is_punct('=')
                && toks[k - 2].tok.kind == TokKind::Ident
                && (toks[k - 3].tok.is_ident("let") || toks[k - 3].tok.is_ident("mut"))
            {
                names.insert(toks[k - 2].tok.text.clone());
            }
        }
        // Parameter or local typed `…MetricsRegistry`.
        if st.tok.is_ident("MetricsRegistry") {
            let mut k = i;
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
    }
    names
}
