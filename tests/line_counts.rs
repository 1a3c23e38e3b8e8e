//! The line-count ratchet: library code does not grow unnoticed.
//!
//! Counts the non-test lines of each workspace crate's `src/`, and of
//! the umbrella crate's `src/lib.rs` and `src/main.rs` apart: in every
//! `.rs` file, the lines before its first top-level `#[cfg(test)]`. A
//! count above its entry in [`CEILINGS`] fails and prints the
//! regenerated table. A change that must grow a crate raises the entry
//! in the same diff, so growth is a reviewed line; a change that
//! shrinks one lowers it.

use std::fs;
use std::path::Path;

/// Non-test lines per crate, at most.
const CEILINGS: &[(&str, usize)] = &[
    ("crates/bench/src", 30),
    ("crates/bus/src", 3636),
    ("crates/compiler/src", 2253),
    ("crates/core/src", 7241),
    ("crates/fuzz/src", 3171),
    ("crates/nn/src", 2693),
    ("crates/nvdla/src", 2055),
    ("crates/obs/src", 1054),
    ("crates/riscv/src", 3051),
    ("crates/util/src", 151),
    ("vendor/rand/src", 117),
    ("src/lib.rs", 71),
    ("src/main.rs", 1315),
];

/// Non-test lines of the `.rs` files at or under `path`.
fn non_test_lines(path: &Path) -> usize {
    if path.is_dir() {
        let entries = fs::read_dir(path).expect("readable source directory");
        return entries
            .map(|e| non_test_lines(&e.expect("directory entry").path()))
            .sum();
    }
    if path.extension().is_none_or(|ext| ext != "rs") {
        return 0;
    }
    let text = fs::read_to_string(path).expect("readable source file");
    text.lines().take_while(|l| *l != "#[cfg(test)]").count()
}

/// `(path, non-test lines)` for every crate, in table order.
fn measure() -> Vec<(String, usize)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(dir)).expect("workspace directory") {
            let name = entry.expect("directory entry").file_name();
            let src = Path::new(dir).join(name).join("src");
            if root.join(&src).is_dir() {
                paths.push(src.to_string_lossy().into_owned());
            }
        }
    }
    paths.sort();
    paths.extend(["src/lib.rs".to_string(), "src/main.rs".to_string()]);
    let count = |path: String| {
        let n = non_test_lines(&root.join(&path));
        (path, n)
    };
    paths.into_iter().map(count).collect()
}

#[test]
fn no_crate_grows_past_its_ceiling() {
    let measured = measure();
    let table: String = measured
        .iter()
        .map(|(path, n)| format!("    (\"{path}\", {n}),\n"))
        .collect();
    let ceiling = |path: &str| CEILINGS.iter().find(|c| c.0 == path).map(|c| c.1);
    let over: Vec<String> = measured
        .iter()
        .filter(|(path, n)| ceiling(path).is_none_or(|cap| *n > cap))
        .map(|(path, n)| format!("{path}: {n} lines, ceiling {:?}", ceiling(path)))
        .collect();
    let listed: Vec<&str> = CEILINGS.iter().map(|c| c.0).collect();
    let paths: Vec<&str> = measured.iter().map(|m| m.0.as_str()).collect();
    assert!(
        over.is_empty() && listed == paths,
        "non-test lines over their ceiling: {over:#?}\n\
         regenerated table:\nconst CEILINGS: &[(&str, usize)] = &[\n{table}];"
    );
}
