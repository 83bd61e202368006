//! The lint gate, proven from both sides: the repository itself is
//! clean, and a planted fixture full of hazards fails loudly. A lint
//! that never fires is indistinguishable from no lint — the fixture is
//! the existence proof.

use capcheri_analyze::{lint_paths, lint_source, HOT_PATH_FILES};
use std::path::Path;

const PLANTED: &str = include_str!("fixtures/planted_hazards.rs.txt");

#[test]
fn lint_fails_on_planted_fixture() {
    // Under a report-path name inside a timing crate, every
    // path-sensitive rule except the hot-path one fires.
    let findings = lint_source("crates/core/src/report.rs", PLANTED);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    for expected in [
        "nd-map-in-report",
        "nd-unordered-reduction",
        "nd-wall-clock",
        "nd-hashmap-iter",
        "unsafe-audit",
    ] {
        assert!(
            rules.contains(&expected),
            "planted fixture did not trip {expected}: {findings:#?}"
        );
    }
    // Under a hot-path name the panic rule fires too.
    let hot = lint_source("crates/core/src/checker.rs", PLANTED);
    assert!(
        hot.iter().any(|f| f.rule == "panic-in-hot-path"),
        "planted fixture did not trip panic-in-hot-path: {hot:#?}"
    );
    // This is exactly the condition under which the lint binary exits
    // non-zero, so CI would reject the fixture were it live code.
    assert!(!findings.is_empty());
}

#[test]
fn fixture_hazards_are_path_sensitive() {
    // Off the report path, outside timing crates, and off the hot path,
    // only the path-insensitive rules remain.
    let findings = lint_source("crates/bench/src/harness.rs", PLANTED);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(!rules.contains(&"nd-map-in-report"));
    assert!(!rules.contains(&"nd-wall-clock"));
    assert!(!rules.contains(&"panic-in-hot-path"));
    assert!(rules.contains(&"nd-unordered-reduction"));
    assert!(rules.contains(&"nd-hashmap-iter"));
    assert!(rules.contains(&"unsafe-audit"));
}

#[test]
fn every_hot_path_file_exists() {
    // The panic rule matches by path, so a moved or deleted file would
    // leave it guarding nothing without a single finding changing.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in HOT_PATH_FILES {
        assert!(
            root.join(file).is_file(),
            "hot-path lint lists {file}, which does not exist"
        );
    }
}

#[test]
fn repository_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_paths(&root).unwrap();
    assert!(
        findings.is_empty(),
        "the repository must stay lint-clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
