//! The README states the system, within a budget: it may not grow past the
//! line count it was last trimmed to, and every test file it names as the
//! holder of a claim must exist.

use std::path::Path;

/// README.md's line budget. Lower it when the README shrinks; never raise it.
const README_MAX_LINES: usize = 997;

fn readme() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
    std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("read {}: {err}", path.display()))
}

#[test]
fn readme_stays_within_its_line_budget() {
    let lines = readme().lines().count();
    assert!(
        lines <= README_MAX_LINES,
        "README.md is {lines} lines, over its budget of {README_MAX_LINES}"
    );
}

/// Every `tests/<name>.rs` the README names, in the order it names them.
fn named_test_files(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices("tests/") {
        let rest = &text[at + "tests/".len()..];
        let stem = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let after = rest[stem..].strip_prefix(".rs");
        if stem > 0 && after.is_some_and(|tail| !tail.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')) {
            names.push(&text[at..at + "tests/".len() + stem + ".rs".len()]);
        }
    }
    names
}

#[test]
fn readme_names_only_test_files_that_exist() {
    let text = readme();
    let named = named_test_files(&text);
    assert!(!named.is_empty(), "the README names the tests that hold its claims");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let missing: Vec<&str> = named.into_iter().filter(|name| !root.join(name).is_file()).collect();
    assert!(
        missing.is_empty(),
        "README.md names test files that do not exist: {missing:?}"
    );
}

#[test]
fn test_file_names_are_read_whole() {
    let text = "see `tests/end_to_end.rs::timings` and tests/wire_golden.rs, not tests/ alone or tests/x.rsx";
    assert_eq!(named_test_files(text), ["tests/end_to_end.rs", "tests/wire_golden.rs"]);
}
