//! Column keys are derived at one call site. `create_plan` builds the plan's
//! layout, and that is the one place a `KeyStore` derivation runs: upload,
//! literal encryption and decryption all use the schemes it expanded. This
//! file fails when the product source of a second file besides `keys.rs`
//! names a derivation method.

use std::path::{Path, PathBuf};

/// `KeyStore`'s derivation methods, as a call names them.
const DERIVATIONS: &[&str] = &[
    ".ashe_key(",
    ".det_key(",
    ".ope_key(",
    ".splashe_measure_key(",
    ".splashe_indicator_key(",
];

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

/// The derivations a file's product source names: its code up to its first
/// `#[cfg(test)]` line (nothing, for a file that opens with `#![cfg(test)]`),
/// each line read outside its `//` comment.
fn derivations_named(source: &str) -> Vec<&'static str> {
    source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]") && !line.contains("#![cfg(test)]"))
        .flat_map(|line| {
            let code = line.split("//").next().unwrap_or("");
            DERIVATIONS.iter().copied().filter(move |call| code.contains(call))
        })
        .collect()
}

#[test]
fn the_detector_reads_product_code_only() {
    assert_eq!(derivations_named("let k = keys.det_key(name);"), [".det_key("]);
    assert!(derivations_named("// keys.ashe_key(name) in prose").is_empty());
    assert!(derivations_named("pub fn ashe_key(&self, column: &str) -> [u8; 16] {").is_empty());
    assert!(derivations_named("#[cfg(test)]\nmod tests { fn f() { keys.ope_key(\"ts\"); } }").is_empty());
    assert!(derivations_named("#![cfg(test)]\nfn f() { keys.ope_key(\"ts\"); }").is_empty());
}

#[test]
fn column_keys_are_derived_in_one_file() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let keys = crates.join("core").join("src").join("keys.rs");
    let deriving: Vec<String> = files
        .iter()
        .filter(|file| **file != keys)
        .filter_map(|file| {
            let source = std::fs::read_to_string(file).unwrap_or_else(|err| panic!("read {}: {err}", file.display()));
            let named = derivations_named(&source);
            (!named.is_empty()).then(|| format!("{}: {}", file.display(), named.join(" ")))
        })
        .collect();
    assert_eq!(
        deriving.len(),
        1,
        "column keys must be derived in exactly one file besides keys.rs:\n{}",
        deriving.join("\n")
    );
}
