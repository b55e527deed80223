//! Markdown cross-reference check for the repo's documentation set.
//!
//! Every relative link in a tracked `*.md` file must resolve to a file
//! that exists, and every anchor (`#heading-slug`, bare or attached to a
//! file link) must match a heading in the target document under GitHub's
//! slug rules. Prose rots faster than code — README/ARCHITECTURE/
//! PERFORMANCE cross-link heavily, and a renamed section or moved file
//! silently strands readers. CI runs this as a named step so link rot
//! fails the build, not a reader.
//!
//! External links (`http://`, `https://`, `mailto:`) are out of scope:
//! checking them needs the network and their liveness is not this repo's
//! invariant.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Documentation files under the check. Kept explicit so a stray scratch
/// file cannot fail CI and a new doc must opt in (add it here when you
/// link to it). PAPER.md/PAPERS.md are verbatim extracted paper text
/// (their links point at figures that only existed in the source PDFs),
/// so they are excluded; links *to* them from tracked docs still get
/// existence checks.
const DOCS: &[&str] = &[
    "ARCHITECTURE.md",
    "CHANGES.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "PERFORMANCE.md",
    "README.md",
    "ROADMAP.md",
];

/// GitHub's heading → anchor slug: lowercase, spaces to hyphens, drop
/// everything that is not alphanumeric, hyphen, or underscore.
fn slugify(heading: &str) -> String {
    // Inline code/emphasis markers render as text but vanish from slugs.
    let stripped: String = heading.chars().filter(|c| !"`*".contains(*c)).collect();
    stripped
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

/// Markdown with fenced code blocks and inline code spans blanked out, so
/// a `[i]` in sample code is not mistaken for a link.
fn strip_code(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_fence = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            out.push('\n');
            continue;
        }
        if in_fence {
            out.push('\n');
            continue;
        }
        // Blank inline spans: every second backtick-delimited chunk.
        let mut in_span = false;
        for c in line.chars() {
            if c == '`' {
                in_span = !in_span;
                out.push(' ');
            } else if in_span {
                out.push(' ');
            } else {
                out.push(c);
            }
        }
        out.push('\n');
    }
    out
}

/// All `[text](target)` link targets in (code-stripped) markdown.
fn link_targets(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut targets = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(len) = text[start..].find(')') {
                let target = &text[start..start + len];
                // Strip an optional `"title"` suffix.
                let target = target.split_whitespace().next().unwrap_or("");
                if !target.is_empty() {
                    targets.push(target.to_string());
                }
                i = start + len;
            }
        }
        i += 1;
    }
    targets
}

/// Heading slugs of one document, with GitHub's `-1`, `-2` … suffixes for
/// repeated headings.
fn heading_slugs(text: &str) -> Vec<String> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut slugs = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !trimmed.starts_with('#') {
            continue;
        }
        let heading = trimmed.trim_start_matches('#').trim();
        let base = slugify(heading);
        let n = counts.entry(base.clone()).or_insert(0);
        slugs.push(if *n == 0 {
            base.clone()
        } else {
            format!("{base}-{n}")
        });
        *n += 1;
    }
    slugs
}

#[test]
fn markdown_cross_references_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut broken: Vec<String> = Vec::new();

    // Pre-read every doc so anchor checks against other files are cheap.
    let sources: BTreeMap<&str, String> = DOCS
        .iter()
        .map(|name| {
            let text = fs::read_to_string(root.join(name))
                .unwrap_or_else(|e| panic!("{name} listed in DOCS but unreadable: {e}"));
            (*name, text)
        })
        .collect();

    for (&name, text) in &sources {
        for target in link_targets(&strip_code(text)) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, anchor) = match target.split_once('#') {
                Some((p, a)) => (p, Some(a)),
                None => (target.as_str(), None),
            };
            // Resolve the file part (empty = this document).
            let (file_name, file_text): (String, &str) = if path_part.is_empty() {
                (name.to_string(), text.as_str())
            } else {
                let path = root.join(path_part);
                if !path.exists() {
                    broken.push(format!("{name}: link target `{target}` does not exist"));
                    continue;
                }
                match sources.get(path_part) {
                    Some(t) => (path_part.to_string(), t.as_str()),
                    // Exists but not a tracked doc (source file, directory):
                    // existence is all we check.
                    None => continue,
                }
            };
            if let Some(anchor) = anchor {
                if !heading_slugs(file_text).iter().any(|s| s == anchor) {
                    broken.push(format!(
                        "{name}: anchor `#{anchor}` not found in {file_name}"
                    ));
                }
            }
        }
    }

    assert!(
        broken.is_empty(),
        "broken markdown cross-references:\n  {}",
        broken.join("\n  ")
    );
}

/// Docs whose code spans must name paths that exist. ROADMAP.md and
/// CHANGES.md are history: they name files that have since moved or gone.
const CURRENT_DOCS: &[&str] = &[
    "ARCHITECTURE.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "PERFORMANCE.md",
    "README.md",
];

/// Inline code spans that start with one of these name a repository path.
const PATH_PREFIXES: &[&str] = &[
    "crates/",
    "tests/",
    "examples/",
    "src/",
    "results/",
    "benchmark/",
];

/// Inline code spans (`` `…` `` on one line) outside fenced blocks, with
/// their 1-based line numbers.
fn code_spans(text: &str) -> Vec<(usize, &str)> {
    let mut spans = Vec::new();
    let mut in_fence = false;
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence {
            spans.extend(line.split('`').skip(1).step_by(2).map(|s| (i + 1, s)));
        }
    }
    spans
}

/// Why a path-like code span does not resolve under `root`, or `None` if
/// it does (or is not a path). `file:line`, `file:a–b` and `file#anchor`
/// name the file; `file.rs::name` also needs `fn name` (the last `::`
/// segment) in that file. `{a,b}` and `*` forms are patterns, not paths,
/// and are skipped.
fn unresolved_path_span(root: &Path, span: &str) -> Option<String> {
    if !PATH_PREFIXES.iter().any(|p| span.starts_with(p)) || span.contains(['{', '*']) {
        return None;
    }
    let (path, item) = match span.split_once("::") {
        Some((path, item)) => (path, Some(item.rsplit("::").next().unwrap_or(item))),
        None => (span.split(['#', ':']).next().unwrap_or(span), None),
    };
    let full = root.join(path);
    if !full.exists() {
        return Some(format!("`{span}`: {path} does not exist"));
    }
    let name = item?;
    let text = fs::read_to_string(&full).unwrap_or_default();
    let defined = text.match_indices(&format!("fn {name}")).any(|(at, m)| {
        !text[at + m.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    });
    (!defined).then(|| format!("`{span}`: no `fn {name}` in {path}"))
}

#[test]
fn code_spans_name_existing_paths() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for name in CURRENT_DOCS {
        let text = fs::read_to_string(root.join(name)).expect("doc is readable");
        for (line, span) in code_spans(&text) {
            checked += usize::from(PATH_PREFIXES.iter().any(|p| span.starts_with(p)));
            if let Some(why) = unresolved_path_span(&root, span) {
                broken.push(format!("{name}:{line}: {why}"));
            }
        }
    }
    assert!(checked >= 50, "only {checked} path spans found");
    assert!(
        broken.is_empty(),
        "code spans naming missing paths (a file moved or was deleted):\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn path_spans_resolve_as_documented() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for ok in [
        "tests/doc_links.rs",
        "tests/doc_links.rs:12",
        "tests/doc_links.rs:12–40",
        "tests/doc_links.rs#L12",
        "tests/doc_links.rs::code_spans",
        "tests/doc_links.rs::tests::slugify",
        "crates/{tpq,engine}/src",
        "results/*.json",
        "tests",
        "not/a/path.rs",
    ] {
        assert_eq!(unresolved_path_span(&root, ok), None, "{ok}");
    }
    for bad in [
        "tests/no_such_file.rs",
        "tests/doc_links.rs::no_such_fn",
        "tests/doc_links.rs::code_span",
    ] {
        assert!(unresolved_path_span(&root, bad).is_some(), "{bad}");
    }
    assert_eq!(
        code_spans("a `x` b `y`\n```\n`z`\n```\n`w`"),
        [(1, "x"), (1, "y"), (5, "w")]
    );
}

#[test]
fn slugify_matches_github_rules() {
    assert_eq!(slugify("Threading model"), "threading-model");
    assert_eq!(
        slugify("Where the time goes (SSO, 10 MB)"),
        "where-the-time-goes-sso-10-mb"
    );
    assert_eq!(slugify("`order.rs` — buckets"), "orderrs--buckets");
}

#[test]
fn every_tracked_doc_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in DOCS {
        assert!(
            root.join(name).exists(),
            "{name} missing but listed in DOCS"
        );
    }
}
