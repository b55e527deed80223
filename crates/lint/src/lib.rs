//! `flexpath-lint`: workspace invariant checker.
//!
//! Parses every library `.rs` file in the workspace (own lexer + attribute
//! scoper — the workspace builds offline with zero external dependencies,
//! so `syn` is deliberately not used) and enforces six rule families:
//!
//! 1. **panic** — no `.unwrap()` / `.expect(…)` / panic macros / `unsafe`
//!    in library code, and no direct indexing in byte-decoding modules.
//! 2. **determinism** — no `HashMap`/`HashSet`/wall-clock/thread-identity
//!    in the fingerprinted modules.
//! 3. **governor** — every non-trivial loop in the executor/join/top-K/
//!    eval modules reaches a budget checkpoint.
//! 4. **lock-order** — the static lock-acquisition graph over the
//!    concurrent modules stays acyclic, same-class guards never nest, and
//!    no guard is held across blocking I/O or a store cold-load.
//! 5. **unsafe-boundary** — `unsafe` exists only inside the explicit
//!    module allowlist ([`UNSAFE_ALLOWLIST`]) and always carries an
//!    adjacent `// SAFETY:` comment there.
//! 6. **fallibility** — `EngineContext` parts are reached through the
//!    fallible `try_*`/`ensure_ready` surface unless the scope is
//!    provably post-materialization.
//!
//! The per-file policy — which rules apply where — is encoded in
//! [`classify`]; escape hatches are `#[allow(…)]` attributes (panic family)
//! and justified `// lint:allow(<rule>): …` comments (all families). See
//! ARCHITECTURE.md § "Static analysis & invariants".

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod scope;

pub use rules::{FileModel, Violation};

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Which rule families apply to one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Panic-policy family (unwrap/expect/macros/unsafe).
    pub panic: bool,
    /// Indexing sub-rule of the panic family (byte decoders only).
    pub indexing: bool,
    /// Determinism family (fingerprinted modules).
    pub determinism: bool,
    /// Governor-coverage family (candidate/postings loops).
    pub governor: bool,
    /// Lock-order family (modules holding `Mutex`/`RwLock` guards).
    pub lock_order: bool,
    /// Lazy-fallibility family (`EngineContext` consumers).
    pub fallibility: bool,
    /// Unsafe-boundary family (all scanned code).
    pub unsafe_boundary: bool,
    /// Whether this module is on the explicit unsafe allowlist: `unsafe`
    /// inside it needs an adjacent `// SAFETY:` comment instead of being
    /// banned outright. Today: `crates/store/src/mmap.rs` only.
    pub unsafe_allowlisted: bool,
}

/// The explicit module allowlist for `unsafe` code. Extending it is a
/// reviewed lint-policy change, not a per-site escape.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/store/src/mmap.rs"];

/// Modules whose lock acquisitions feed the lock-order graph (the serve
/// crate is covered wholesale by [`classify`]; this is the one
/// out-of-crate concurrent module).
const LOCK_ORDER_FTSEARCH: &[&str] = &["cache.rs"];

/// Engine modules on the fingerprinted path (schedule/score/trace bytes).
const DETERMINISM_ENGINE: &[&str] = &[
    "schedule.rs",
    "score.rs",
    "dpo.rs",
    "single_pass.rs",
    // The shared run prologue/epilogue reads the wall clock for duration
    // stats and writes the trace root.
    "run.rs",
    "exec.rs",
    "structural_join.rs",
    "metrics.rs",
    // Order maintenance ranks the final answer sequence; any iteration-
    // order nondeterminism here would break byte-identical output.
    "order.rs",
];

/// Engine modules whose loops must observe the governor.
const GOVERNOR_ENGINE: &[&str] = &[
    "exec.rs",
    "dpo.rs",
    "single_pass.rs",
    // The semijoin prefilter's corpus-sized passes over the per-tag lists
    // run at the head of every evaluation.
    "structural_join.rs",
];

/// xmldom modules that decode raw bytes (indexing rule applies).
const INDEXING_XMLDOM: &[&str] = &["wire.rs", "codec.rs", "parser.rs"];

/// Maps a workspace-relative path (forward slashes) to its rule set.
pub fn classify(rel: &str) -> FileClass {
    let mut c = FileClass {
        unsafe_boundary: true,
        unsafe_allowlisted: UNSAFE_ALLOWLIST.contains(&rel),
        ..FileClass::default()
    };
    let Some((crate_dir, file)) = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split_once("/src/"))
    else {
        return c; // root src/: unsafe boundary only
    };
    match crate_dir {
        "xmldom" => {
            c.panic = true;
            c.indexing = INDEXING_XMLDOM.contains(&file);
        }
        "store" => {
            c.panic = true;
            c.indexing = true; // the whole crate decodes untrusted bytes
        }
        "engine" => {
            c.panic = true;
            c.determinism = DETERMINISM_ENGINE.contains(&file);
            c.governor = GOVERNOR_ENGINE.contains(&file);
            c.fallibility = true;
        }
        "ftsearch" => {
            c.panic = true;
            c.determinism = file == "index.rs" || file == "eval.rs";
            c.governor = file == "eval.rs";
            c.lock_order = LOCK_ORDER_FTSEARCH.contains(&file);
        }
        "serve" => {
            // The whole crate faces untrusted network input; malformed
            // bytes must become typed errors, never unwinds. It is also
            // where most of the workspace's locks live.
            c.panic = true;
            c.lock_order = true;
            c.fallibility = true;
        }
        "core" => {
            // The session facade hands EngineContext parts to callers.
            c.fallibility = true;
        }
        _ => {}
    }
    c
}

/// Lexes and scopes one file into the model the rules consume.
pub fn analyze_source(label: &str, src: &str) -> Result<FileModel, String> {
    let lexed = lexer::lex(src).map_err(|e| format!("{label}: {e}"))?;
    let toks = scope::scope(&lexed.toks).map_err(|e| format!("{label}: {e}"))?;
    Ok(FileModel {
        path: label.to_string(),
        toks,
        comments: lexed.comments,
    })
}

/// Runs the rule families selected by `class` over a single source string,
/// building the governor call graph from that file alone. This is the entry
/// point the fixture tests use.
pub fn lint_source(label: &str, src: &str, class: FileClass) -> Result<Vec<Violation>, String> {
    let model = analyze_source(label, src)?;
    let models = [model];
    let covered = rules::governor::covered_fns(&models);
    let guarded = rules::fallibility::guarded_fns(&models);
    let mut out = Vec::new();
    run_rules(&models[0], class, &covered, &guarded, &mut out);
    rules::lock_order::check_all(&models, &[class], &mut out);
    sort(&mut out);
    Ok(out)
}

/// Result of a workspace scan.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
    /// All findings, sorted by file/line/rule.
    pub violations: Vec<Violation>,
}

impl Report {
    /// One `file:line: rule: message` line per violation.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&v.render());
            s.push('\n');
        }
        s
    }

    /// Machine-readable report for the CI artifact. The output is fully
    /// deterministic: findings are sorted by file path then byte offset,
    /// keys are emitted in a fixed order, and `rule` is the stable
    /// family key a consumer can dispatch on.
    pub fn render_json(&self) -> String {
        let mut s = format!(
            "{{\"files_scanned\":{},\"violations\":[",
            self.files_scanned
        );
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"offset\":{},\"rule\":{},\"message\":{}}}",
                json_str(&v.file),
                v.line,
                v.offset,
                json_str(v.rule),
                json_str(&v.message)
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Scans the whole workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`): every `crates/*/src` tree plus the root `src/`.
/// The linter's own crate is excluded — it is a dev-only tool, not library
/// code shipped behind the panic-freedom contract.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates).map_err(|e| format!("{}: {e}", crates.display()))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "lint"))
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), root, &mut files)?;
    }
    collect_rs(&root.join("src"), root, &mut files)?;
    files.sort();

    let mut models = Vec::with_capacity(files.len());
    for (rel, path) in &files {
        let src = fs::read_to_string(path).map_err(|e| format!("{rel}: {e}"))?;
        models.push(analyze_source(rel, &src)?);
    }
    let classes: Vec<FileClass> = models.iter().map(|m| classify(&m.path)).collect();
    let covered = rules::governor::covered_fns(&models);
    let guarded = rules::fallibility::guarded_fns(&models);
    let mut violations = Vec::new();
    for (model, class) in models.iter().zip(&classes) {
        run_rules(model, *class, &covered, &guarded, &mut violations);
    }
    rules::lock_order::check_all(&models, &classes, &mut violations);
    sort(&mut violations);
    Ok(Report {
        files_scanned: models.len(),
        violations,
    })
}

fn run_rules(
    model: &FileModel,
    class: FileClass,
    covered: &BTreeSet<String>,
    guarded: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    if class.panic {
        rules::panic_policy::check(model, class.indexing, out);
    }
    if class.determinism {
        rules::determinism::check(model, out);
    }
    if class.governor {
        rules::governor::check(model, covered, out);
    }
    if class.unsafe_boundary {
        rules::unsafe_boundary::check(model, class.unsafe_allowlisted, out);
    }
    if class.fallibility {
        rules::fallibility::check(model, guarded, out);
    }
}

/// Total deterministic order: file path, then byte offset (which orders
/// several findings on one line), then rule id for the pathological case
/// of two rules anchored on the same token.
fn sort(violations: &mut [Violation]) {
    violations.sort_by(|a, b| {
        (a.file.as_str(), a.offset, a.rule).cmp(&(b.file.as_str(), b.offset, b.rule))
    });
}

/// Recursively collects `.rs` files under `dir` as (workspace-relative
/// label, absolute path) pairs. A missing `dir` is fine (not every crate
/// needs a `src/`, and the root one is optional).
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries {
        let path = entry
            .map_err(|e| format!("{}: {e}", dir.display()))
            .map(|e| e.path())?;
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Minimal JSON string escaping.
///
/// Its own copy, not `flexpath_serve::json::quote`: the linter depends on no product crate.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_policy_table() {
        assert!(classify("crates/engine/src/exec.rs").panic);
        assert!(classify("crates/engine/src/exec.rs").determinism);
        assert!(classify("crates/engine/src/exec.rs").governor);
        assert!(!classify("crates/engine/src/plan.rs").determinism);
        assert!(classify("crates/engine/src/order.rs").determinism);
        assert!(!classify("crates/engine/src/order.rs").governor);
        assert!(classify("crates/store/src/codec.rs").indexing);
        assert!(!classify("crates/engine/src/exec.rs").indexing);
        assert!(classify("crates/ftsearch/src/eval.rs").governor);
        assert!(!classify("crates/ftsearch/src/index.rs").governor);
        assert!(classify("crates/ftsearch/src/index.rs").determinism);
        let root = classify("src/bin/flexpath_cli.rs");
        assert!(!root.panic);
        assert!(root.unsafe_boundary && !root.unsafe_allowlisted);
        let serve = classify("crates/serve/src/http.rs");
        assert!(serve.panic);
        assert!(!serve.indexing && !serve.determinism && !serve.governor);
        assert!(serve.lock_order && serve.fallibility);
        assert!(!classify("crates/engine/src/metrics.rs").lock_order);
        assert!(!classify("crates/engine/src/exec.rs").lock_order);
        assert!(classify("crates/engine/src/exec.rs").fallibility);
        assert!(classify("crates/ftsearch/src/cache.rs").lock_order);
        assert!(!classify("crates/ftsearch/src/cache.rs").fallibility);
        assert!(classify("crates/core/src/session.rs").fallibility);
        let mmap = classify("crates/store/src/mmap.rs");
        assert!(mmap.unsafe_boundary && mmap.unsafe_allowlisted);
        assert!(!classify("crates/store/src/lib.rs").unsafe_allowlisted);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
