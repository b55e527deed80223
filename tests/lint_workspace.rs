//! Workspace invariant snapshot: the full `flexpath-lint` scan must come
//! back clean, so any new unwrap/nondeterministic collection/uncovered
//! loop/misnamed metric fails `cargo test` — not just CI's dedicated step.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = flexpath_lint::lint_workspace(root).expect("workspace parses");
    assert!(
        report.files_scanned >= 60,
        "only {} files scanned — walker lost a source tree?",
        report.files_scanned
    );
    assert!(
        report.violations.is_empty(),
        "workspace must lint clean; run `cargo run -p flexpath-lint` for \
         details:\n{}",
        report.render_text()
    );
}

#[test]
fn json_report_is_well_formed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = flexpath_lint::lint_workspace(root).expect("workspace parses");
    let json = report.render_json();
    assert!(json.starts_with("{\"files_scanned\":"));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"violations\":["));
}

/// Schema snapshot: the exact shape CI consumers parse. Keys appear in a
/// fixed order (`file`, `line`, `offset`, `rule`, `message`), findings are
/// pre-sorted by file path then byte offset then rule, and `rule` is the
/// stable family key. Changing any of this is a breaking change to the
/// `lint-report.json` artifact and must be deliberate.
#[test]
fn json_schema_snapshot() {
    let report = flexpath_lint::Report {
        files_scanned: 2,
        violations: vec![
            flexpath_lint::Violation {
                file: "crates/a/src/lib.rs".to_string(),
                line: 3,
                offset: 41,
                rule: "lock-order",
                message: "guard \"g\" held".to_string(),
            },
            flexpath_lint::Violation {
                file: "crates/a/src/lib.rs".to_string(),
                line: 3,
                offset: 57,
                rule: "unsafe-boundary",
                message: "unsafe outside allowlist".to_string(),
            },
        ],
    };
    assert_eq!(
        report.render_json(),
        "{\"files_scanned\":2,\"violations\":[\
         {\"file\":\"crates/a/src/lib.rs\",\"line\":3,\"offset\":41,\
         \"rule\":\"lock-order\",\"message\":\"guard \\\"g\\\" held\"},\
         {\"file\":\"crates/a/src/lib.rs\",\"line\":3,\"offset\":57,\
         \"rule\":\"unsafe-boundary\",\"message\":\"unsafe outside allowlist\"}]}"
    );
}

/// Two scans of the same tree must serialize byte-identically, and the
/// finding order must be the documented (file, offset, rule) sort.
#[test]
fn json_report_is_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let a = flexpath_lint::lint_workspace(root).expect("workspace parses");
    let b = flexpath_lint::lint_workspace(root).expect("workspace parses");
    assert_eq!(a.render_json(), b.render_json());
    let keys: Vec<_> = a
        .violations
        .iter()
        .map(|v| (v.file.clone(), v.offset, v.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

/// The names a manifest lists as normal (non-dev) dependencies: the keys of
/// its `[dependencies]` and `[target.<cfg>.dependencies]` tables, and
/// `[dependencies.<name>]` headers. `[workspace.dependencies]` only
/// declares paths, so it is not one of them.
fn normal_dependencies(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
            let header = header.trim();
            let is_dep_table = |h: &str| {
                h == "dependencies" || (h.starts_with("target.") && h.ends_with(".dependencies"))
            };
            in_table = is_dep_table(header);
            if let Some((table, name)) = header.rsplit_once('.') {
                if is_dep_table(table) {
                    deps.push(name.trim().to_string());
                }
            }
            continue;
        }
        if in_table && !line.starts_with('#') {
            if let Some(key) = line.split(['=', '.']).next().map(str::trim) {
                if !key.is_empty() {
                    deps.push(key.to_string());
                }
            }
        }
    }
    deps
}

/// `[package] name` of a manifest.
fn package_name(manifest: &str) -> String {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[package]")
        .find_map(|l| {
            let (key, value) = l.split_once('=')?;
            (key.trim() == "name").then(|| value.trim().trim_matches('"').to_string())
        })
        .expect("manifest has a [package] name")
}

/// The referees stay out of the product: only `flexpath-bench` (tooling)
/// may take `flexpath-reference` as a normal dependency, and the reference
/// never depends on the crates it checks. Every other crate takes it as a
/// dev-dependency, so a reference that imported the engine, or a product
/// crate that shipped a referee, is a failure here and not a review note.
#[test]
fn reference_crate_stays_out_of_the_product() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut crate_dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is listable")
        .map(|e| e.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    crate_dirs.sort();
    manifests.extend(crate_dirs);
    assert!(
        manifests.len() >= 11,
        "only {} manifests found",
        manifests.len()
    );

    let mut seen_reference = false;
    let mut problems = Vec::new();
    for path in &manifests {
        let text = std::fs::read_to_string(path).expect("manifest is readable");
        let name = package_name(&text);
        let deps = normal_dependencies(&text);
        if name == "flexpath-reference" {
            seen_reference = true;
            for forbidden in [
                "flexpath-engine",
                "flexpath-store",
                "flexpath-serve",
                "flexpath",
            ] {
                if deps.iter().any(|d| d == forbidden) {
                    problems.push(format!(
                        "flexpath-reference depends on {forbidden}: a referee must not \
                         share code with what it checks"
                    ));
                }
            }
        } else if name != "flexpath-bench" && deps.iter().any(|d| d == "flexpath-reference") {
            problems.push(format!(
                "{name} ({}) lists flexpath-reference as a normal dependency; \
                 take it under [dev-dependencies]",
                path.display()
            ));
        }
    }
    assert!(seen_reference, "crates/reference/Cargo.toml not found");
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn dependency_tables_are_read_as_cargo_reads_them() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n# a comment\n\
        flexpath-tpq.workspace = true\nflexpath-engine = { path = \"e\" }\n\n\
        [dev-dependencies]\nflexpath-reference.workspace = true\n\n\
        [target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n\n\
        [dependencies.flexpath-store]\npath = \"s\"\n\n\
        [workspace.dependencies]\nflexpath-serve = { path = \"v\" }\n";
    assert_eq!(package_name(manifest), "x");
    assert_eq!(
        normal_dependencies(manifest),
        ["flexpath-tpq", "flexpath-engine", "libc", "flexpath-store"]
    );
}
