//! Each execution leaves one record per node, and `seabed-obs` decides what a
//! record holds. A node times its call with the registry's trace builder and
//! finishes it into its one `QueryEvent`; nothing outside the obs crate builds
//! an event or pushes one. This file fails when the product source of any
//! file outside `crates/obs/src` constructs a `QueryEvent` literal or names a
//! record call. The wire codec's `wire_struct!` row for the event is its
//! layout, not a record: the decoder rebuilds what a node recorded.

use std::path::{Path, PathBuf};

/// What only `seabed-obs` may write: an event literal and the record calls.
const RECORDING: &[&str] = &["QueryEvent {", "record_event(", "record_trace("];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|err| panic!("read {}: {err}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// What a file's product source writes of [`RECORDING`]: its code up to its
/// first `#[cfg(test)]` line (nothing, for a file that opens with
/// `#![cfg(test)]`), each line read outside its `//` comment, wire layout
/// rows aside.
fn recording_named(source: &str) -> Vec<&'static str> {
    source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]") && !line.contains("#![cfg(test)]"))
        .filter(|line| !line.trim_start().starts_with("wire_struct!("))
        .flat_map(|line| {
            let code = line.split("//").next().unwrap_or("");
            RECORDING.iter().copied().filter(move |item| code.contains(item))
        })
        .collect()
}

#[test]
fn the_detector_reads_product_code_only() {
    assert_eq!(
        recording_named("obs.record_event(QueryEvent {"),
        ["QueryEvent {", "record_event("]
    );
    assert_eq!(recording_named("self.obs.record_trace(trace);"), ["record_trace("]);
    assert_eq!(recording_named("seabed_obs::QueryEvent {"), ["QueryEvent {"]);
    assert!(recording_named("// leaves one QueryEvent { .. } via record_event(").is_empty());
    assert!(recording_named("tb.finish(outcome_tag(&outcome));").is_empty());
    assert!(recording_named("fn event(e: &QueryEvent) -> u64 {").is_empty());
    assert!(recording_named("wire_struct!(QueryEvent {").is_empty());
    assert!(recording_named("#[cfg(test)]\nmod tests { fn f() { let e = QueryEvent { ..x }; } }").is_empty());
}

#[test]
fn only_the_obs_crate_builds_or_records_an_event() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = root.join("crates");
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(&crates).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let obs = crates.join("obs").join("src");
    assert!(
        files.iter().any(|file| file.starts_with(&obs)),
        "the scan reaches seabed-obs"
    );
    let recording: Vec<String> = files
        .iter()
        .filter(|file| !file.starts_with(&obs))
        .filter_map(|file| {
            let source = std::fs::read_to_string(file).unwrap_or_else(|err| panic!("read {}: {err}", file.display()));
            let named = recording_named(&source);
            (!named.is_empty()).then(|| format!("{}: {}", file.display(), named.join(" ")))
        })
        .collect();
    assert!(
        recording.is_empty(),
        "only seabed-obs may build or record a query event:\n{}",
        recording.join("\n")
    );
}
