//! Rule family 5: the unsafe boundary.
//!
//! The workspace is `#![forbid(unsafe_code)]` everywhere except an
//! explicit module allowlist (today: `crates/store/src/mmap.rs`, the raw
//! `mmap(2)` layer). This rule makes the boundary diff-visible:
//!
//! * **outside** the allowlist, any `unsafe` block/fn/impl — and any
//!   `#[allow(unsafe_code)]` attribute that would open the door to one —
//!   is a violation, regardless of what the compiler-level lint gates say;
//! * **inside** an allowlisted module, every `unsafe` must carry an
//!   adjacent `// SAFETY:` line comment (on the same line, or in the
//!   comment block directly above, looking through attribute-only and
//!   blank lines) stating the invariant that makes it sound.
//!
//! Escape: `// lint:allow(unsafe-boundary): <why>` — used for the one
//! non-library site (the CLI's async-signal-safe `signal(2)` handler
//! registration).

use super::{FileModel, Violation};
use crate::scope::Allow;

/// Rule id used in reports.
pub const RULE: &str = "unsafe-boundary";

/// How many lines above an `unsafe` token the `// SAFETY:` comment may
/// start (attribute lines and blank lines in between don't count against
/// adjacency, but the walk is bounded to keep comments near their site).
const SAFETY_SCAN_LINES: u32 = 20;

/// Runs the unsafe-boundary rule over one file. `allowlisted` is true for
/// modules on the explicit unsafe allowlist (see [`crate::classify`]).
pub fn check(m: &FileModel, allowlisted: bool, out: &mut Vec<Violation>) {
    // Lines that contain at least one real token — used to distinguish
    // attribute/blank lines (attributes are not emitted by the scoper)
    // from code lines when walking upward for a SAFETY comment.
    let token_lines: std::collections::BTreeSet<u32> = m.toks.iter().map(|t| t.tok.line).collect();

    let mut prev_allow = false;
    for st in &m.toks {
        let grants = st.allow.has(Allow::UNSAFE);
        let transition = grants && !prev_allow;
        prev_allow = grants;
        if st.test {
            continue;
        }
        if transition && !allowlisted {
            m.report(
                out,
                RULE,
                &st.tok,
                "#[allow(unsafe_code)] outside the unsafe module allowlist \
                 (store::mmap) — new unsafe code must extend the allowlist in \
                 a reviewed lint change, not appear ad hoc"
                    .to_string(),
            );
        }
        if !st.tok.is_ident("unsafe") {
            continue;
        }
        if !allowlisted {
            m.report(
                out,
                RULE,
                &st.tok,
                "`unsafe` outside the unsafe module allowlist (store::mmap) — \
                 the workspace boundary admits no other unsafe code"
                    .to_string(),
            );
        } else if !has_adjacent_safety(m, &token_lines, st.tok.line) {
            m.report(
                out,
                RULE,
                &st.tok,
                "`unsafe` in an allowlisted module without an adjacent \
                 `// SAFETY:` comment — state the invariant that makes this \
                 sound directly above the site"
                    .to_string(),
            );
        }
    }
}

/// Whether a `// SAFETY:` line comment sits on `line` or in the comment
/// block directly above it (blank and attribute-only lines are looked
/// through; any other code line breaks adjacency).
fn has_adjacent_safety(
    m: &FileModel,
    token_lines: &std::collections::BTreeSet<u32>,
    line: u32,
) -> bool {
    let is_safety = |l: u32| {
        m.comments
            .get(&l)
            .is_some_and(|c| c.trim_start().starts_with("SAFETY:"))
    };
    if is_safety(line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    let floor = line.saturating_sub(SAFETY_SCAN_LINES);
    while l >= floor && l > 0 {
        if is_safety(l) {
            return true;
        }
        // A comment line that isn't SAFETY keeps the walk going (wrapped
        // prose); so does a line with no emitted tokens (blank line or
        // `#[allow(unsafe_code)]` attribute). A real code line stops it.
        if m.comments.contains_key(&l) || !token_lines.contains(&l) {
            l -= 1;
            continue;
        }
        return false;
    }
    false
}
