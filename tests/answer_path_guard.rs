//! No entropy coder on the answer path. Every ID list the product ships is
//! sized in closed form and sent in the smallest of four containers
//! (`seabed_encoding::smallest_encoding`); the DEFLATE compressor and its
//! LZ77, Huffman and bit-I/O parts serve only the paper harness
//! (`seabed_bench::codec`). This file fails when a crate on the path from the
//! proxy to a worker and back declares or imports one of them again, or
//! depends on the harness that holds them.

use std::path::{Path, PathBuf};

/// The crates a query's answer crosses.
const ANSWER_PATH: &[&str] = &["core", "net", "dist", "engine", "encoding", "ashe", "crypto", "query"];

/// The module names of the entropy coder and its parts.
const CODER_PARTS: &[&str] = &["deflate", "lz77", "huffman", "bitio"];

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

/// The coder parts a line of Rust names as code — a `mod`, a `use` path, a
/// qualified call — outside its `//` comment. Identifiers are read whole, so
/// `deflated` or `bitio_like` name nothing.
fn coder_parts_named(line: &str) -> Vec<&'static str> {
    let code = line.split("//").next().unwrap_or("");
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter_map(|token| CODER_PARTS.iter().find(|&&part| part == token).copied())
        .collect()
}

#[test]
fn the_detector_reads_code_not_comments() {
    assert_eq!(coder_parts_named("pub mod deflate;"), ["deflate"]);
    assert_eq!(
        coder_parts_named("use seabed_bench::codec::{huffman, lz77};"),
        ["huffman", "lz77"]
    );
    assert_eq!(
        coder_parts_named("    let c = bitio::BitWriter::new(); // no deflate"),
        ["bitio"]
    );
    assert!(coder_parts_named("//! a DEFLATE pass, deflate in prose").is_empty());
    assert!(coder_parts_named("let deflated = bitio_like + Deflate;").is_empty());
}

#[test]
fn no_crate_on_the_answer_path_declares_or_imports_an_entropy_coder() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for krate in ANSWER_PATH {
        let mut files = Vec::new();
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
        assert!(!files.is_empty(), "crates/{krate}/src holds no Rust file");
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap_or_else(|err| panic!("read {}: {err}", file.display()));
            for (number, line) in text.lines().enumerate() {
                for part in coder_parts_named(line) {
                    found.push(format!("{}:{}: {part}", file.display(), number + 1));
                }
            }
        }
        let manifest = std::fs::read_to_string(root.join("crates").join(krate).join("Cargo.toml")).expect("manifest");
        if manifest.contains("seabed-bench") {
            found.push(format!("crates/{krate}/Cargo.toml: seabed-bench"));
        }
    }
    assert!(
        found.is_empty(),
        "an entropy coder is back on the answer path:\n{}",
        found.join("\n")
    );
}
