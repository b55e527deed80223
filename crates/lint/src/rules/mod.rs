//! The six rule families and their shared file model.
//!
//! Each rule walks the scoped token stream of one file (see
//! [`crate::scope`]) and appends [`Violation`]s. Test-gated tokens are
//! skipped by every rule; per-site comment escapes
//! (`// lint:allow(<rule>): <justification>`) are honored uniformly, and
//! the panic-policy family additionally honors `#[allow(clippy::…)]`
//! attributes, matching what the clippy lints accept.

use crate::lexer::TokKind;
use crate::scope::ScopedTok;
use std::collections::BTreeMap;

pub mod determinism;
pub mod fallibility;
pub mod governor;
pub mod lock_order;
pub mod panic_policy;
pub mod unsafe_boundary;

/// One finding, reported as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 0-based byte offset of the finding's anchor token — the sort key
    /// (after the file path) that makes `--json` output fully
    /// deterministic even with several findings on one line.
    pub offset: u32,
    /// Rule family id (`panic`, `determinism`, `governor`, `lock-order`,
    /// `unsafe-boundary`, `fallibility`) — the stable key a consumer can
    /// dispatch on.
    pub rule: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Violation {
    /// The canonical single-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Everything a rule needs to know about one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative display path.
    pub path: String,
    /// Scoped tokens in source order.
    pub toks: Vec<ScopedTok>,
    /// Line comments by 1-based line (escape hatches live here).
    pub comments: BTreeMap<u32, String>,
}

/// Outcome of looking for a `// lint:allow(rule)` escape near a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escape {
    /// No escape comment for this rule.
    Absent,
    /// Escape present with a non-empty justification: suppress the finding.
    Justified,
    /// Escape present but missing its `: justification` — itself an error.
    Unjustified,
}

impl FileModel {
    /// Looks for `// lint:allow(<rule>…): justification` on `line` itself
    /// (trailing comment) or in the contiguous block of comment lines
    /// directly above it — justifications are allowed to wrap.
    pub fn escape(&self, rule: &str, line: u32) -> Escape {
        if let Some(text) = self.comments.get(&line) {
            match escape_in_comment(text, rule) {
                Escape::Absent => {}
                found => return found,
            }
        }
        let mut l = line.saturating_sub(1);
        while l > 0 {
            let Some(text) = self.comments.get(&l) else {
                break;
            };
            match escape_in_comment(text, rule) {
                Escape::Absent => l -= 1,
                found => return found,
            }
        }
        Escape::Absent
    }

    /// Emits `violation` unless a justified escape suppresses it; an
    /// unjustified escape is reported as its own violation. `at` is the
    /// anchor token (line for the escape lookup, byte offset for sorting).
    pub fn report(
        &self,
        out: &mut Vec<Violation>,
        rule: &'static str,
        at: &crate::lexer::Tok,
        message: String,
    ) {
        match self.escape(rule, at.line) {
            Escape::Justified => {}
            Escape::Absent => out.push(Violation {
                file: self.path.clone(),
                line: at.line,
                offset: at.offset,
                rule,
                message,
            }),
            Escape::Unjustified => out.push(Violation {
                file: self.path.clone(),
                line: at.line,
                offset: at.offset,
                rule,
                message: format!(
                    "lint:allow({rule}) escape requires a justification \
                     (`// lint:allow({rule}): <why this is sound>`)"
                ),
            }),
        }
    }

    /// Index of the next token at the same nesting level, skipping over
    /// complete delimited groups.
    pub fn next_sibling(&self, i: usize) -> usize {
        match self.toks[i].tok.kind {
            TokKind::Open(_) => self.toks[i].partner + 1,
            _ => i + 1,
        }
    }
}

/// Parses one comment for `lint:allow(<rules>)[: justification]`.
fn escape_in_comment(text: &str, rule: &str) -> Escape {
    let Some(start) = text.find("lint:allow(") else {
        return Escape::Absent;
    };
    let args = &text[start + "lint:allow(".len()..];
    let Some(close) = args.find(')') else {
        return Escape::Absent;
    };
    let listed = args[..close]
        .split(',')
        .any(|r| r.trim() == rule || r.trim() == "all");
    if !listed {
        return Escape::Absent;
    }
    let rest = args[close + 1..].trim_start();
    match rest.strip_prefix(':') {
        Some(j) if !j.trim().is_empty() => Escape::Justified,
        _ => Escape::Unjustified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_parsing() {
        assert_eq!(
            escape_in_comment(
                " lint:allow(determinism): membership-only set",
                "determinism"
            ),
            Escape::Justified
        );
        assert_eq!(
            escape_in_comment(" lint:allow(determinism)", "determinism"),
            Escape::Unjustified
        );
        assert_eq!(
            escape_in_comment(" lint:allow(determinism):   ", "determinism"),
            Escape::Unjustified
        );
        assert_eq!(
            escape_in_comment(" lint:allow(governor): bounded", "determinism"),
            Escape::Absent
        );
        assert_eq!(
            escape_in_comment(" lint:allow(governor, determinism): both", "determinism"),
            Escape::Justified
        );
        assert_eq!(
            escape_in_comment(" ordinary comment", "panic"),
            Escape::Absent
        );
    }
}
