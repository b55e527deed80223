//! Rule family 4: static lock-acquisition ordering.
//!
//! The rule models the `Mutex`/`RwLock` guards of the serve crate and of
//! the sharded full-text cache. TSan can only catch an inconsistent
//! acquisition order when the schedule actually interleaves; this rule
//! finds the hazard statically:
//!
//! 1. every acquisition site is assigned a **lock class** — the
//!    file-qualified name of the field (or binding) behind the guard
//!    (`state.rs::sessions`, `server.rs::queue`, …);
//! 2. a **hold range** is computed for each site: a guard bound by
//!    `let g = lock(…);` is held to the end of its enclosing block
//!    (truncated at an explicit `drop(g)`), a temporary guard to the end
//!    of its statement or through the control-flow body it heads
//!    (`if let Some(x) = read_lock(&m).get(k) { … }` holds through the
//!    `if` body — Rust temporary-lifetime semantics);
//! 3. an acquisition inside another's hold range adds a directed edge
//!    between the classes; calls to workspace functions that themselves
//!    acquire (found by the same name-based transitive fixpoint the
//!    governor rule uses) add interprocedural edges;
//! 4. violations: a **cycle** in the global class graph (one finding per
//!    strongly-connected component), a **nested same-class** acquisition
//!    (the striping idiom iterates shards sequentially and never nests
//!    them, so same-class nesting is always a self-deadlock hazard), and a
//!    guard **held across a blocking call** (file/socket I/O, sleeps, or a
//!    store cold-load, which can take seconds on a large catalog).
//!
//! The analysis is name-based and intentionally conservative in the sound
//! direction for cycles/nesting; the blocking-call check is a heuristic
//! over a fixed call list. Escape:
//! `// lint:allow(lock-order): <why this order/hold is safe>`.

use super::{FileModel, Violation};
use crate::lexer::{Delim, Tok, TokKind};
use crate::FileClass;
use std::collections::{BTreeMap, BTreeSet};

/// Rule id used in reports.
pub const RULE: &str = "lock-order";

/// Free-function lock helpers (the poison-ignoring wrappers every
/// concurrent module defines): the argument names the lock.
const HELPER_FNS: &[&str] = &["lock", "read_lock", "write_lock"];

/// `Self::read(&self.counters)`-style associated helpers: only counted
/// when path-qualified (`::read(`), so `stream.read(buf)` never matches.
const QUALIFIED_HELPERS: &[&str] = &["read", "write"];

/// Striped-shard accessors: every call is one shard of the same family,
/// so they share a single class per file.
const SHARD_HELPERS: &[&str] = &["read_shard", "write_shard"];

/// Guard-returning methods, matched only with *empty* argument lists
/// (`m.lock()`, `l.read()`): `io::Read::read`/`Write::write` take a
/// buffer, so they can never match.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Calls that block (or can take unbounded time) and therefore must not
/// run under a held guard: synchronous I/O plus the store cold-load /
/// decode-on-first-touch surface.
pub const BLOCKING_CALLS: &[&str] = &[
    // std::io
    "read_to_end",
    "read_to_string",
    "read_exact",
    "read_line",
    "read_until",
    "write_all",
    "write_fmt",
    "flush",
    "copy",
    // net / timing
    "accept",
    "connect",
    "sleep",
    // store cold-load & lazy decode (seconds on a large catalog)
    "open_lazy",
    "materialize",
    "ensure_ready",
    "load_document",
    "load_stats",
    "load_index",
];

/// One lock acquisition: where it happens, what class it is, and the
/// token range over which the guard is held.
#[derive(Debug, Clone)]
struct Site {
    /// Index of the acquiring ident in the file's token stream.
    idx: usize,
    /// File-qualified lock class.
    class: String,
    /// Half-open token range `(idx, end)` the guard is live over.
    hold_end: usize,
    /// Anchor token (cloned for reporting).
    at: Tok,
}

/// One directed class edge with its first (deterministic) witness.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    /// Index into the models slice of the witnessing file.
    file: usize,
    at: Tok,
}

/// Runs the lock-order family over the whole workspace at once: per-file
/// nesting/blocking checks plus the global cycle check. `classes[i]` is
/// the policy for `models[i]`; only `lock_order`-classed files contribute
/// sites (all the workspace's guards live in them).
pub fn check_all(models: &[FileModel], classes: &[FileClass], out: &mut Vec<Violation>) {
    let mut all_sites: Vec<Vec<Site>> = Vec::with_capacity(models.len());
    for (mi, m) in models.iter().enumerate() {
        if classes.get(mi).is_some_and(|c| c.lock_order) {
            all_sites.push(collect_sites(m));
        } else {
            all_sites.push(Vec::new());
        }
    }

    // Function spans (name -> bodies) over the participating files, for
    // the interprocedural acquires fixpoint.
    let mut fns: BTreeMap<String, Vec<super::governor::FnSpan>> = BTreeMap::new();
    for (mi, m) in models.iter().enumerate() {
        if !all_sites[mi].is_empty() || classes.get(mi).is_some_and(|c| c.lock_order) {
            super::governor::collect_fns(m, mi, &mut fns);
        }
    }
    let acquires = transitive_acquires(models, &fns, &all_sites);

    let mut edges: Vec<Edge> = Vec::new();
    for (mi, m) in models.iter().enumerate() {
        let sites = &all_sites[mi];
        // Intra-file nesting: site b opening inside site a's hold range.
        for a in sites {
            for b in sites {
                if b.idx <= a.idx || b.idx >= a.hold_end {
                    continue;
                }
                if a.class == b.class {
                    m.report(
                        out,
                        RULE,
                        &b.at,
                        format!(
                            "nested acquisition of lock class `{}` while a guard of the \
                             same class is held — the striping idiom iterates shards \
                             sequentially, it never nests them; this is a self-deadlock \
                             hazard",
                            short(&b.class)
                        ),
                    );
                } else {
                    edges.push(Edge {
                        from: a.class.clone(),
                        to: b.class.clone(),
                        file: mi,
                        at: b.at.clone(),
                    });
                }
            }
        }
        // Blocking calls and acquiring callees under a held guard.
        for a in sites {
            let mut k = a.idx + 1;
            while k < a.hold_end {
                let st = &m.toks[k];
                if st.tok.kind == TokKind::Ident
                    && m.toks
                        .get(k + 1)
                        .is_some_and(|n| n.tok.kind == TokKind::Open(Delim::Paren))
                {
                    let name = st.tok.text.as_str();
                    let own_site = sites.iter().any(|s| s.idx == k);
                    if !own_site && BLOCKING_CALLS.contains(&name) && !st.test {
                        m.report(
                            out,
                            RULE,
                            &st.tok,
                            format!(
                                "lock class `{}` is held across `{name}()`, which can \
                                 block (I/O or store cold-load) — release the guard \
                                 first, or justify why serialization is the point",
                                short(&a.class)
                            ),
                        );
                    }
                    if !own_site && callee_can_be_workspace_fn(m, k) {
                        if let Some(classes_reached) = acquires.get(name) {
                            for c in classes_reached {
                                if *c == a.class {
                                    m.report(
                                        out,
                                        RULE,
                                        &st.tok,
                                        format!(
                                            "`{name}()` (re)acquires lock class `{}` which \
                                             is already held here — self-deadlock hazard",
                                            short(&a.class)
                                        ),
                                    );
                                } else {
                                    edges.push(Edge {
                                        from: a.class.clone(),
                                        to: c.clone(),
                                        file: mi,
                                        at: st.tok.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
                k += 1;
            }
        }
    }

    report_cycles(models, &edges, out);
}

/// Strips the `file.rs::` qualifier for display.
fn short(class: &str) -> &str {
    class.rsplit("::").next().unwrap_or(class)
}

/// Whether the call at ident `k` can resolve to a workspace function for
/// the interprocedural lookups: a free or `::`-qualified call, or a
/// method call on `self`. Method calls on arbitrary receivers
/// (`map.get(k)`, `v.snapshot()`, `conn.shutdown(..)`) are excluded —
/// they name the *receiver's* method, which merely shares a name with
/// some workspace function.
fn callee_can_be_workspace_fn(m: &FileModel, k: usize) -> bool {
    let Some(prev) = k.checked_sub(1) else {
        return true;
    };
    if !m.toks[prev].tok.is_punct('.') {
        return true;
    }
    prev.checked_sub(1)
        .is_some_and(|p| m.toks[p].tok.is_ident("self"))
}

/// Detects cycles in the class graph and reports one violation per
/// strongly-connected component, anchored at the smallest witness edge.
fn report_cycles(models: &[FileModel], edges: &[Edge], out: &mut Vec<Violation>) {
    // Adjacency + reachability closure (the graph has a handful of nodes).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        if e.from != e.to {
            adj.entry(&e.from).or_default().insert(&e.to);
        }
    }
    let nodes: Vec<&str> = adj
        .iter()
        .flat_map(|(k, vs)| std::iter::once(*k).chain(vs.iter().copied()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut reach: BTreeMap<&str, BTreeSet<&str>> = adj.clone();
    loop {
        let mut grew = false;
        for n in &nodes {
            let cur: Vec<&str> = reach
                .get(n)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            let mut add: BTreeSet<&str> = BTreeSet::new();
            for mid in cur {
                if let Some(next) = reach.get(mid) {
                    add.extend(next.iter().copied());
                }
            }
            let entry = reach.entry(n).or_default();
            for a in add {
                grew |= entry.insert(a);
            }
        }
        if !grew {
            break;
        }
    }
    // SCCs: mutually-reachable node groups.
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for n in &nodes {
        if seen.contains(n) {
            continue;
        }
        let mut scc: Vec<&str> = vec![n];
        for m2 in &nodes {
            if m2 != n
                && reach.get(n).is_some_and(|s| s.contains(m2))
                && reach.get(m2).is_some_and(|s| s.contains(n))
            {
                scc.push(m2);
            }
        }
        if scc.len() < 2 {
            continue;
        }
        seen.extend(scc.iter().copied());
        // Witness: the textually-first edge inside the component.
        let member: BTreeSet<&str> = scc.iter().copied().collect();
        let witness = edges
            .iter()
            .filter(|e| member.contains(e.from.as_str()) && member.contains(e.to.as_str()))
            .min_by_key(|e| (models[e.file].path.clone(), e.at.offset));
        let Some(w) = witness else { continue };
        let mut names: Vec<&str> = scc.iter().map(|c| short(c)).collect();
        names.sort_unstable();
        models[w.file].report(
            out,
            RULE,
            &w.at,
            format!(
                "lock-order cycle among classes {{{}}} — acquisition order must be \
                 globally consistent or threads can deadlock; reorder the \
                 acquisitions or justify with lint:allow",
                names.join(", ")
            ),
        );
    }
}

/// Computes, for every function name, the set of lock classes its body
/// (transitively) acquires — the governor-style name-based fixpoint.
fn transitive_acquires(
    models: &[FileModel],
    fns: &BTreeMap<String, Vec<super::governor::FnSpan>>,
    all_sites: &[Vec<Site>],
) -> BTreeMap<String, BTreeSet<String>> {
    let helper: BTreeSet<&str> = HELPER_FNS
        .iter()
        .chain(QUALIFIED_HELPERS)
        .chain(SHARD_HELPERS)
        .copied()
        .collect();
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (name, spans) in fns {
        if helper.contains(name.as_str()) {
            continue; // wrapper bodies name their generic parameter, not a real class
        }
        let mut classes = BTreeSet::new();
        for sp in spans {
            for site in &all_sites[sp.file] {
                if site.idx >= sp.body.0 && site.idx < sp.body.1 {
                    classes.insert(site.class.clone());
                }
            }
        }
        if !classes.is_empty() {
            direct.insert(name.clone(), classes);
        }
    }
    // Fixpoint: a caller reaches everything its callees reach.
    loop {
        let mut grew = false;
        for (name, spans) in fns {
            if helper.contains(name.as_str()) {
                continue;
            }
            let mut add: BTreeSet<String> = BTreeSet::new();
            for sp in spans {
                let m = &models[sp.file];
                for k in sp.body.0..sp.body.1 {
                    let st = &m.toks[k];
                    if st.tok.kind == TokKind::Ident
                        && m.toks
                            .get(k + 1)
                            .is_some_and(|n| n.tok.kind == TokKind::Open(Delim::Paren))
                        && callee_can_be_workspace_fn(m, k)
                    {
                        if let Some(cs) = direct.get(st.tok.text.as_str()) {
                            if st.tok.text != *name {
                                add.extend(cs.iter().cloned());
                            }
                        }
                    }
                }
            }
            if !add.is_empty() {
                let entry = direct.entry(name.clone()).or_default();
                for c in add {
                    grew |= entry.insert(c);
                }
            }
        }
        if !grew {
            break;
        }
    }
    direct
}

/// Finds every acquisition site in one file (test code and the lock
/// helpers' own bodies are skipped).
fn collect_sites(m: &FileModel) -> Vec<Site> {
    let file_tag = m.path.rsplit('/').next().unwrap_or(&m.path);
    let helper_bodies = helper_fn_bodies(m);
    let mut sites = Vec::new();
    for (i, st) in m.toks.iter().enumerate() {
        if st.test || st.tok.kind != TokKind::Ident {
            continue;
        }
        if helper_bodies.iter().any(|&(s, e)| i >= s && i < e) {
            continue;
        }
        let next_is_paren = m
            .toks
            .get(i + 1)
            .is_some_and(|n| n.tok.kind == TokKind::Open(Delim::Paren));
        if !next_is_paren {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &m.toks[p].tok);
        let prev_is_dot = prev.is_some_and(|p| p.is_punct('.'));
        let prev_is_fn = prev.is_some_and(|p| p.is_ident("fn"));
        if prev_is_fn {
            continue;
        }
        let name = st.tok.text.as_str();
        let args_close = m.toks[i + 1].partner;
        let class_name = if SHARD_HELPERS.contains(&name) {
            Some("shards".to_string())
        } else if GUARD_METHODS.contains(&name) && prev_is_dot && args_close == i + 2 {
            // `recv.lock()` / `recv.read()` / `recv.write()` with no args.
            receiver_name(m, i - 1)
        } else if (HELPER_FNS.contains(&name) && !prev_is_dot)
            || (QUALIFIED_HELPERS.contains(&name) && prev.is_some_and(|p| p.is_punct(':')))
        {
            class_from_args(m, i + 1, args_close)
        } else {
            None
        };
        let Some(class_name) = class_name else {
            continue;
        };
        let hold_end = hold_range_end(m, i, args_close, &class_name);
        sites.push(Site {
            idx: i,
            class: format!("{file_tag}::{class_name}"),
            hold_end,
            at: st.tok.clone(),
        });
    }
    sites
}

/// Token ranges of the bodies of the lock-helper functions defined in this
/// file (their generic `m.lock()` is the mechanism, not an ordered class).
fn helper_fn_bodies(m: &FileModel) -> Vec<(usize, usize)> {
    let helper: BTreeSet<&str> = HELPER_FNS
        .iter()
        .chain(QUALIFIED_HELPERS)
        .chain(SHARD_HELPERS)
        .copied()
        .collect();
    let mut fns: BTreeMap<String, Vec<super::governor::FnSpan>> = BTreeMap::new();
    super::governor::collect_fns(m, 0, &mut fns);
    fns.iter()
        .filter(|(name, _)| helper.contains(name.as_str()))
        .flat_map(|(_, spans)| spans.iter().map(|s| s.body))
        .collect()
}

/// Derives the class name from a helper call's arguments: the last
/// field-access ident (`&self.sessions` → `sessions`), else the first
/// plain ident (`lock(stripe)` → `stripe`).
fn class_from_args(m: &FileModel, open: usize, close: usize) -> Option<String> {
    let mut field: Option<&str> = None;
    let mut first: Option<&str> = None;
    for k in open + 1..close {
        let t = &m.toks[k].tok;
        if t.kind != TokKind::Ident {
            continue;
        }
        if m.toks[k - 1].tok.is_punct('.') {
            field = Some(&t.text);
        } else if first.is_none() && t.text != "self" && t.text != "mut" {
            first = Some(&t.text);
        }
    }
    field.or(first).map(str::to_string)
}

/// Walks back from the `.` of a method-form acquisition to the ident
/// naming the lock: `self.inner.lock()` → `inner`,
/// `self.shards[i].read()` → `shards`.
fn receiver_name(m: &FileModel, dot: usize) -> Option<String> {
    let mut k = dot.checked_sub(1)?;
    if m.toks[k].tok.kind == TokKind::Close(Delim::Bracket) {
        // Indexing: jump to `[`'s partner and name the indexed field.
        k = m.toks[k].partner.checked_sub(1)?;
    }
    let t = &m.toks[k].tok;
    (t.kind == TokKind::Ident && t.text != "self").then(|| t.text.clone())
}

/// Computes the exclusive token index where the guard acquired at `site`
/// stops being held.
fn hold_range_end(m: &FileModel, site: usize, args_close: usize, _class: &str) -> usize {
    // Bound guard: statement is `let <name> = <acquisition>;` with the
    // call as the entire right-hand side — held to the end of the
    // enclosing block, truncated at an explicit `drop(<name>)`.
    let stmt = stmt_start(m, site);
    let bound_name = binding_name(m, stmt).filter(|_| {
        m.toks
            .get(args_close + 1)
            .is_none_or(|n| n.tok.is_punct(';'))
    });
    if let Some(name) = bound_name {
        let block_end = enclosing_close(m, args_close + 1);
        let mut k = args_close + 1;
        while k < block_end {
            let st = &m.toks[k];
            if st.tok.is_ident("drop")
                && m.toks
                    .get(k + 1)
                    .is_some_and(|n| n.tok.kind == TokKind::Open(Delim::Paren))
                && m.toks.get(k + 2).is_some_and(|n| n.tok.is_ident(&name))
            {
                return k;
            }
            if let TokKind::Open(_) = st.tok.kind {
                // Descend — `drop(g)` inside a branch still truncates
                // conservatively? No: a conditional drop doesn't end the
                // hold on the other path, so only same-level drops count.
                k = st.partner + 1;
                continue;
            }
            k += 1;
        }
        return block_end;
    }
    // Temporary guard: held to the end of the statement, or through the
    // control-flow body it heads (`if let` / `while let` / `for` / match
    // scrutinee temporaries live through the braced body).
    let mut k = args_close + 1;
    loop {
        match m.toks.get(k).map(|t| &t.tok.kind) {
            None => return m.toks.len(),
            Some(TokKind::Open(Delim::Brace)) => return m.toks[k].partner,
            Some(TokKind::Open(_)) => k = m.toks[k].partner + 1,
            Some(TokKind::Punct(';')) | Some(TokKind::Close(_)) => return k,
            _ => k += 1,
        }
    }
}

/// Index of the first token of the statement containing `i` (scans back
/// to the nearest `;` or enclosing `{` at the same nesting level).
fn stmt_start(m: &FileModel, i: usize) -> usize {
    let mut k = i;
    while k > 0 {
        let p = &m.toks[k - 1];
        match p.tok.kind {
            TokKind::Close(_) => k = p.partner,
            TokKind::Open(_) | TokKind::Punct(';') => return k,
            _ => k -= 1,
        }
    }
    0
}

/// If the statement starting at `stmt` is `let [mut] <name> = …` with a
/// real binding (not `_`), returns the name.
fn binding_name(m: &FileModel, stmt: usize) -> Option<String> {
    if !m.toks.get(stmt)?.tok.is_ident("let") {
        return None;
    }
    let mut k = stmt + 1;
    if m.toks.get(k)?.tok.is_ident("mut") {
        k += 1;
    }
    let name = &m.toks.get(k)?.tok;
    if name.kind != TokKind::Ident || name.text == "_" {
        return None;
    }
    m.toks
        .get(k + 1)
        .filter(|n| n.tok.is_punct('='))
        .map(|_| name.text.clone())
}

/// Index of the `}` closing the block that contains token `from`.
fn enclosing_close(m: &FileModel, from: usize) -> usize {
    let mut k = from;
    loop {
        match m.toks.get(k).map(|t| &t.tok.kind) {
            None => return m.toks.len(),
            Some(TokKind::Open(_)) => k = m.toks[k].partner + 1,
            Some(TokKind::Close(_)) => return k,
            _ => k += 1,
        }
    }
}
