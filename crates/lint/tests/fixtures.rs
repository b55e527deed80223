//! Fixture corpus: every rule family must fire on its known-bad fixture
//! and stay silent on the matching allowed fixture (escape hatches,
//! ordered collections, trivial loops, striped locks, SAFETY-commented
//! unsafe, post-materialize access).

use flexpath_lint::{lint_source, FileClass, Violation};

fn lint(name: &str, src: &str, class: FileClass) -> Vec<Violation> {
    lint_source(name, src, class).expect("fixture lexes")
}

fn lines(violations: &[Violation]) -> Vec<u32> {
    violations.iter().map(|v| v.line).collect()
}

/// Every family off — the base the per-family classes toggle one bit on.
const OFF: FileClass = FileClass {
    panic: false,
    indexing: false,
    determinism: false,
    governor: false,
    lock_order: false,
    fallibility: false,
    unsafe_boundary: false,
    unsafe_allowlisted: false,
};

const PANIC_CLASS: FileClass = FileClass {
    panic: true,
    indexing: true,
    ..OFF
};

const DETERMINISM_CLASS: FileClass = FileClass {
    determinism: true,
    ..OFF
};

const GOVERNOR_CLASS: FileClass = FileClass {
    governor: true,
    ..OFF
};

const LOCK_CLASS: FileClass = FileClass {
    lock_order: true,
    ..OFF
};

const UNSAFE_CLASS: FileClass = FileClass {
    unsafe_boundary: true,
    ..OFF
};

const UNSAFE_ALLOWLISTED_CLASS: FileClass = FileClass {
    unsafe_boundary: true,
    unsafe_allowlisted: true,
    ..OFF
};

const FALLIBILITY_CLASS: FileClass = FileClass {
    fallibility: true,
    ..OFF
};

#[test]
fn panic_rule_fires_on_every_bad_pattern() {
    let src = include_str!("../fixtures/panic_bad.rs");
    let found = lint("fixtures/panic_bad.rs", src, PANIC_CLASS);
    assert!(found.iter().all(|v| v.rule == "panic"), "{found:?}");
    // unwrap, expect, panic!, unreachable!, todo!, two index sites, unsafe.
    let got = lines(&found);
    for line in [4, 8, 13, 15, 19, 23, 27, 31] {
        assert!(
            got.contains(&line),
            "no violation on line {line}: {found:?}"
        );
    }
    assert_eq!(found.len(), 8, "{found:?}");
}

#[test]
fn panic_rule_honors_every_escape_hatch() {
    let src = include_str!("../fixtures/panic_allowed.rs");
    let found = lint("fixtures/panic_allowed.rs", src, PANIC_CLASS);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn determinism_rule_fires_on_every_source_of_nondeterminism() {
    let src = include_str!("../fixtures/determinism_bad.rs");
    let found = lint("fixtures/determinism_bad.rs", src, DETERMINISM_CLASS);
    assert!(found.iter().all(|v| v.rule == "determinism"), "{found:?}");
    // HashMap, Instant::now, SystemTime, thread::current, bare escape.
    let got = lines(&found);
    for line in [7, 15, 20, 25, 30] {
        assert!(
            got.contains(&line),
            "no violation on line {line}: {found:?}"
        );
    }
    // An escape comment without a justification is itself a violation.
    assert!(
        found
            .iter()
            .any(|v| v.line == 30 && v.message.contains("justification")),
        "{found:?}"
    );
}

#[test]
fn determinism_rule_accepts_ordered_collections_and_justified_escapes() {
    let src = include_str!("../fixtures/determinism_allowed.rs");
    let found = lint("fixtures/determinism_allowed.rs", src, DETERMINISM_CLASS);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn governor_rule_fires_on_unbudgeted_loops_of_every_kind() {
    let src = include_str!("../fixtures/governor_bad.rs");
    let found = lint("fixtures/governor_bad.rs", src, GOVERNOR_CLASS);
    assert!(found.iter().all(|v| v.rule == "governor"), "{found:?}");
    assert_eq!(found.len(), 3, "{found:?}");
    for kw in ["`for`", "`while`", "`loop`"] {
        assert!(
            found.iter().any(|v| v.message.contains(kw)),
            "no {kw} violation: {found:?}"
        );
    }
}

#[test]
fn governor_rule_accepts_budgeted_trivial_and_justified_loops() {
    let src = include_str!("../fixtures/governor_allowed.rs");
    let found = lint("fixtures/governor_allowed.rs", src, GOVERNOR_CLASS);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn lock_order_rule_fires_once_per_hazard() {
    let src = include_str!("../fixtures/lock_order_bad.rs");
    let found = lint("fixtures/lock_order_bad.rs", src, LOCK_CLASS);
    assert!(found.iter().all(|v| v.rule == "lock-order"), "{found:?}");
    assert_eq!(found.len(), 3, "{found:?}");
    // The A→B / B→A cycle is reported exactly once, at the textually-first
    // witness edge (line 8), not once per edge or once per function.
    let cycles: Vec<_> = found
        .iter()
        .filter(|v| v.message.contains("cycle"))
        .collect();
    assert_eq!(cycles.len(), 1, "{found:?}");
    assert_eq!(cycles[0].line, 8, "{found:?}");
    assert!(cycles[0].message.contains("alpha"), "{found:?}");
    assert!(cycles[0].message.contains("beta"), "{found:?}");
    // Nested same-class acquisition.
    assert!(
        found
            .iter()
            .any(|v| v.line == 20 && v.message.contains("nested acquisition")),
        "{found:?}"
    );
    // Guard held across blocking I/O.
    assert!(
        found
            .iter()
            .any(|v| v.line == 26 && v.message.contains("write_all")),
        "{found:?}"
    );
}

#[test]
fn lock_order_rule_accepts_justified_escapes_and_dropped_guards() {
    let src = include_str!("../fixtures/lock_order_allowed.rs");
    let found = lint("fixtures/lock_order_allowed.rs", src, LOCK_CLASS);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn lock_order_rule_does_not_false_positive_on_striping() {
    let src = include_str!("../fixtures/lock_order_striping.rs");
    let found = lint("fixtures/lock_order_striping.rs", src, LOCK_CLASS);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn unsafe_rule_fires_outside_the_allowlist() {
    let src = include_str!("../fixtures/unsafe_bad.rs");
    let found = lint("fixtures/unsafe_bad.rs", src, UNSAFE_CLASS);
    assert!(
        found.iter().all(|v| v.rule == "unsafe-boundary"),
        "{found:?}"
    );
    // The unsafe block, the #[allow(unsafe_code)] door-opener, and the
    // unsafe block it gates; the escaped site at the end stays silent.
    assert_eq!(lines(&found), vec![6, 12, 13], "{found:?}");
    assert!(
        found
            .iter()
            .any(|v| v.message.contains("#[allow(unsafe_code)]")),
        "{found:?}"
    );
}

#[test]
fn unsafe_rule_accepts_safety_commented_sites_in_allowlisted_modules() {
    let src = include_str!("../fixtures/unsafe_allowed.rs");
    let found = lint("fixtures/unsafe_allowed.rs", src, UNSAFE_ALLOWLISTED_CLASS);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn unsafe_rule_requires_adjacent_safety_in_allowlisted_modules() {
    let src = "#[allow(unsafe_code)]\n\
               fn set(v: &mut Vec<u8>, n: usize) {\n\
               \x20   unsafe { v.set_len(n) }\n\
               }\n";
    let found = lint("crates/store/src/mmap.rs", src, UNSAFE_ALLOWLISTED_CLASS);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].line, 3, "{found:?}");
    assert!(found[0].message.contains("SAFETY"), "{found:?}");
}

#[test]
fn fallibility_rule_fires_on_every_receiver_shape() {
    let src = include_str!("../fixtures/fallibility_bad.rs");
    let found = lint("fixtures/fallibility_bad.rs", src, FALLIBILITY_CLASS);
    assert!(found.iter().all(|v| v.rule == "fallibility"), "{found:?}");
    // ctx parameter, `context` name, self-field chain; escaped site silent.
    assert_eq!(lines(&found), vec![6, 10, 20], "{found:?}");
    for acc in ["doc", "stats", "index"] {
        assert!(
            found.iter().any(|v| v.message.contains(acc)),
            "no {acc} violation: {found:?}"
        );
    }
}

#[test]
fn fallibility_rule_accepts_establisher_scopes_and_the_guarded_closure() {
    let src = include_str!("../fixtures/fallibility_allowed.rs");
    let found = lint("fixtures/fallibility_allowed.rs", src, FALLIBILITY_CLASS);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn lexer_handles_nested_comments_raw_strings_and_cfg_attr() {
    let src = include_str!("../fixtures/lexer_edge.rs");
    let found = lint("fixtures/lexer_edge.rs", src, PANIC_CLASS);
    // Everything except the final real unwrap is commentary, raw-string
    // data, test-gated, or allowed via cfg_attr: exactly one finding.
    assert_eq!(lines(&found), vec![26], "{found:?}");
    assert!(found[0].message.contains("unwrap"), "{found:?}");
}

#[test]
fn violations_render_as_file_line_rule_message() {
    let src = include_str!("../fixtures/panic_bad.rs");
    let found = lint("fixtures/panic_bad.rs", src, PANIC_CLASS);
    let first = &found[0];
    let rendered = first.render();
    assert!(
        rendered.starts_with(&format!("fixtures/panic_bad.rs:{}: panic: ", first.line)),
        "{rendered:?}"
    );
}

#[test]
fn violations_sort_by_file_then_byte_offset() {
    let src = include_str!("../fixtures/lock_order_bad.rs");
    let found = lint("fixtures/lock_order_bad.rs", src, LOCK_CLASS);
    let offsets: Vec<u32> = found.iter().map(|v| v.offset).collect();
    let mut sorted = offsets.clone();
    sorted.sort_unstable();
    assert_eq!(offsets, sorted, "{found:?}");
    // Offsets refine lines: every offset maps inside its reported line.
    for v in &found {
        assert!(v.offset > 0, "{v:?}");
    }
}
