//! The README states the system, within a budget: it may not grow past the
//! line count it was last trimmed to, every test file it names as the holder
//! of a claim must exist, and every item of the workspace it names in
//! backticks must be declared in the workspace's source. The verify skill —
//! the build-and-drive recipe kept beside the code — has a budget of its own.

use std::path::Path;

/// README.md's line budget. Lower it when the README shrinks; never raise it.
const README_MAX_LINES: usize = 981;

/// The verify skill's line budget, held the way the README's is.
const VERIFY_SKILL_MAX_LINES: usize = 150;

/// Names the README may state bare although no workspace source declares
/// them: they come from the standard library.
const FOREIGN_NAMES: &[&str] = &["HashMap", "AtomicU64", "TcpListener"];

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("read {}: {err}", path.display()))
}

fn readme() -> String {
    read("README.md")
}

fn assert_within_budget(name: &str, budget: usize) {
    let lines = read(name).lines().count();
    assert!(lines <= budget, "{name} is {lines} lines, over its budget of {budget}");
}

#[test]
fn readme_stays_within_its_line_budget() {
    assert_within_budget("README.md", README_MAX_LINES);
}

#[test]
fn verify_skill_stays_within_its_line_budget() {
    assert_within_budget(".claude/skills/verify/SKILL.md", VERIFY_SKILL_MAX_LINES);
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

/// Every backticked span of `text` outside fenced code blocks.
fn code_spans(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    let mut prose_start = 0;
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_start().starts_with("```") {
            if !fenced {
                spans.extend(text[prose_start..at].split('`').skip(1).step_by(2));
            }
            fenced = !fenced;
            prose_start = at + line.len();
        }
        at += line.len();
    }
    spans.extend(text[prose_start..].split('`').skip(1).step_by(2));
    spans
}

/// The `(Type, item)` a backticked span names: the first CamelCase segment
/// of the path it opens with and the segment after it, if any. A span names
/// nothing to check when its path holds no CamelCase segment, or only a
/// one-hump one with no item after it (`Vec`, `Arc`, `Live`).
fn named_item(span: &str) -> Option<(&str, Option<&str>)> {
    let path_len = span
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(span.len());
    let mut segments = span[..path_len].split("::");
    let ty = segments
        .find(|s| s.starts_with(|c: char| c.is_ascii_uppercase()) && s.contains(|c: char| c.is_ascii_lowercase()))?;
    let item = segments.next().filter(|s| !s.is_empty());
    let humps = ty.chars().filter(char::is_ascii_uppercase).count();
    (item.is_some() || humps >= 2).then_some((ty, item))
}

/// Every `.rs` file under `dir`, recursively, appended to `out`.
fn read_sources(dir: &Path, out: &mut String) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|err| panic!("read {}: {err}", dir.display()));
    for path in entries.map(|entry| entry.expect("directory entry").path()) {
        if path.is_dir() {
            read_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("source file"));
            out.push('\n');
        }
    }
}

/// The workspace's own source: `src/` and every `crates/*/src`.
fn workspace_source() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut source = String::new();
    read_sources(&root.join("src"), &mut source);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        read_sources(&krate.expect("crate directory").path().join("src"), &mut source);
    }
    source
}

/// True when `source` holds `word` right after `prefix` and not followed by
/// another identifier character.
fn declares(source: &str, prefix: &str, word: &str) -> bool {
    let needle = format!("{prefix}{word}");
    source.match_indices(&needle).any(|(at, _)| {
        let before = source[..at].chars().next_back();
        let after = source[at + needle.len()..].chars().next();
        !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            && !after.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
    })
}

fn declares_type(source: &str, name: &str) -> bool {
    ["struct ", "enum ", "trait ", "type "]
        .iter()
        .any(|keyword| declares(source, keyword, name))
}

/// An item is declared as a `fn` or `const`, or as a field (`name:`) or a
/// variant (`name,` `name {` `name(` `name =`) opening its line.
fn declares_item(source: &str, name: &str) -> bool {
    declares(source, "fn ", name)
        || declares(source, "const ", name)
        || source.lines().any(|line| {
            let line = line.trim_start();
            let line = line
                .strip_prefix("pub(crate) ")
                .or_else(|| line.strip_prefix("pub "))
                .unwrap_or(line);
            line.strip_prefix(name)
                .is_some_and(|rest| [":", ",", " {", "(", " ="].iter().any(|tail| rest.starts_with(tail)))
        })
}

#[test]
fn readme_names_only_items_the_workspace_declares() {
    let text = readme();
    let source = workspace_source();
    let mut unknown = Vec::new();
    for span in code_spans(&text) {
        let Some((ty, item)) = named_item(span) else { continue };
        let type_known = FOREIGN_NAMES.contains(&ty) || declares_type(&source, ty);
        if !type_known || item.is_some_and(|item| !declares_item(&source, item)) {
            unknown.push(span);
        }
    }
    assert!(
        unknown.is_empty(),
        "README.md names items no workspace source declares: {unknown:?}"
    );
}

#[test]
fn named_items_are_read_from_the_path_a_span_opens_with() {
    let spans =
        code_spans("`A` `seabed_net::FrameConn` x\n```text\n`Ignored`\n```\n`Cluster::run(&q)` `u64::MAX` `Vec<Run>`");
    let named: Vec<_> = spans.into_iter().filter_map(named_item).collect();
    assert_eq!(named, [("FrameConn", None), ("Cluster", Some("run"))]);
    let source = "pub struct FrameConn;\nenum E {\n    Tagged {\n        pub x: u8,\n    },\n}\nfn run_all() {}";
    assert!(declares_type(source, "FrameConn") && !declares_type(source, "Frame"));
    assert!(declares_item(source, "Tagged") && declares_item(source, "x") && !declares_item(source, "run"));
}
