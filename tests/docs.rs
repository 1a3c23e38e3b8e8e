//! Docs-consistency checks, run as a tier-1 test and as a dedicated CI
//! step: every intra-repo markdown link must resolve to a real file,
//! every `rv-nvdla` subcommand a document names must exist in the
//! binary's `--help` (usage) output, every `--flag` a document names
//! for a subcommand must exist in that subcommand's strict
//! `validate_args` rejection list, and every `--example NAME` must be a
//! real example — documentation can't drift from the CLI it describes,
//! down to the flag grammar.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

/// The documentation surfaces under contract. Walking the whole repo
/// would drag in generated or vendored text; these are the files we
/// promise stay consistent.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![
        root.join("README.md"),
        root.join("ROADMAP.md"),
        root.join("CHANGES.md"),
        root.join("vendor/README.md"),
    ];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extract `](target)` markdown link targets, skipping absolute URLs
/// and pure in-page anchors.
fn relative_links(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("](") {
        rest = &rest[i + 2..];
        let Some(end) = rest.find(')') else { break };
        let target = &rest[..end];
        rest = &rest[end..];
        if target.is_empty()
            || target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with("mailto:")
            || target.starts_with('#')
        {
            continue;
        }
        // Strip an in-page anchor from a file link.
        let path = target.split('#').next().unwrap_or(target);
        out.push(path.to_string());
    }
    out
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let mut missing = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let dir = file.parent().expect("doc files have a parent");
        for link in relative_links(&text) {
            if !dir.join(&link).exists() {
                missing.push(format!("{} -> {link}", file.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "markdown links that resolve to nothing:\n{}",
        missing.join("\n")
    );
}

/// Subcommands the binary itself advertises, parsed from the usage
/// banner's `<compile|run|...>` list.
fn advertised_subcommands() -> BTreeSet<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_rv-nvdla"))
        .output()
        .expect("run rv-nvdla with no arguments");
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    let start = usage.find('<').expect("usage lists <subcommands>");
    let end = usage[start..].find('>').expect("closing >") + start;
    usage[start + 1..end]
        .split('|')
        .map(str::to_string)
        .collect()
}

/// Every `rv-nvdla <word>` mention in **command position** — a line
/// starting with the binary name, a `$ rv-nvdla ...` shell example, or
/// inline code like `` `rv-nvdla run ...` `` — must name a real
/// subcommand. Prose such as "the rv-nvdla binary" is not a command.
fn mentioned_subcommands(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in text.lines() {
        let mut rest = line;
        while let Some(i) = rest.find("rv-nvdla ") {
            let command_position = i == 0
                || rest[..i].trim_end().is_empty()
                || rest[..i].ends_with("$ ")
                || rest[..i].ends_with('`')
                || rest[..i].ends_with("./target/release/");
            rest = &rest[i + "rv-nvdla ".len()..];
            if !command_position {
                continue;
            }
            let word: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !word.is_empty() {
                out.insert(word);
            }
        }
    }
    out
}

/// The subcommands that accept flags at all. `traces`, `resources` and
/// `models` take no arguments, so no document can name flags for them.
const FLAGGED_COMMANDS: [&str; 7] = ["compile", "run", "sweep", "batch", "serve", "fleet", "fuzz"];

/// Flags a subcommand accepts, parsed from its own strict-validation
/// rejection message: feeding it a flag that cannot exist makes
/// `validate_args` answer with the full `(accepted: ...)` list, so the
/// source of truth is the binary itself, not a copy of its tables.
fn accepted_flags(cmd: &str) -> BTreeSet<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_rv-nvdla"))
        .args([cmd, "--no-such-flag-drift-probe"])
        .output()
        .unwrap_or_else(|e| panic!("run rv-nvdla {cmd}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let start = stderr
        .find("accepted: ")
        .unwrap_or_else(|| panic!("`{cmd}` rejection must list accepted flags, got:\n{stderr}"))
        + "accepted: ".len();
    let end = stderr[start..]
        .find(')')
        .map_or(stderr.len(), |i| start + i);
    stderr[start..end].split(", ").map(str::to_string).collect()
}

/// Extract `--flag` tokens from a line: a `--` run preceded by line
/// start, whitespace or markdown/grammar punctuation, followed by a
/// letter, spanning `[a-z0-9-]`. Prose em-dashes (` — `, `--` between
/// words) don't match; `[--pools ...]` usage grammar does.
fn flag_tokens(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while let Some(j) = line[i..].find("--") {
        let at = i + j;
        let boundary = at == 0
            || matches!(
                bytes[at - 1],
                b' ' | b'\t' | b'`' | b'(' | b'[' | b'|' | b'"' | b'\''
            );
        let token: String = line[at..]
            .chars()
            .take_while(|&c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            .collect();
        i = at + token.len().max(2);
        if boundary && token.len() > 2 && token[2..].starts_with(|c: char| c.is_ascii_lowercase()) {
            out.push(token.trim_end_matches('-').to_string());
        }
    }
    out
}

/// File-level scope markers: `<!-- rv-nvdla-flags: CMD -->` declares
/// that bare `--flag` mentions in this document (outside `cargo` lines
/// and lines that name a subcommand explicitly) belong to CMD's
/// grammar.
fn marker_commands(text: &str, file: &std::path::Path) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("<!-- rv-nvdla-flags:") else {
            continue;
        };
        let cmd = rest.trim_end_matches("-->").trim();
        assert!(
            FLAGGED_COMMANDS.contains(&cmd),
            "{}: flag marker names unknown subcommand `{cmd}`",
            file.display()
        );
        out.push(cmd.to_string());
    }
    out
}

#[test]
fn documented_flags_exist_in_the_cli() {
    let accepted: BTreeMap<&str, BTreeSet<String>> = FLAGGED_COMMANDS
        .iter()
        .map(|&cmd| (cmd, accepted_flags(cmd)))
        .collect();
    // Parse sanity: the probe really extracted the rejection lists.
    assert!(
        accepted["serve"].contains("--rate"),
        "{:?}",
        accepted["serve"]
    );
    assert!(
        accepted["fleet"].contains("--pools"),
        "{:?}",
        accepted["fleet"]
    );

    let mut drift = Vec::new();
    for file in doc_files() {
        // The changelog narrates historical flag grammars (and flags of
        // several subcommands on one line); it is not a contract about
        // the current CLI. Links and subcommand names are still checked.
        if file.file_name().is_some_and(|n| n == "CHANGES.md") {
            continue;
        }
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let markers = marker_commands(&text, &file);
        for (n, line) in text.lines().enumerate() {
            // Lines invoking cargo talk about cargo's flags, not ours.
            if line.contains("cargo ") {
                continue;
            }
            let line_cmds: Vec<String> = FLAGGED_COMMANDS
                .iter()
                .filter(|c| line.contains(&format!("rv-nvdla {c}")))
                .map(|c| (*c).to_string())
                .collect();
            let scope = if line_cmds.is_empty() {
                &markers
            } else {
                &line_cmds
            };
            if scope.is_empty() {
                continue;
            }
            for flag in flag_tokens(line) {
                if !scope.iter().any(|c| accepted[c.as_str()].contains(&flag)) {
                    drift.push(format!(
                        "{}:{}: `{flag}` is not a flag of `{}`",
                        file.display(),
                        n + 1,
                        scope.join("`/`"),
                    ));
                }
            }
        }
    }
    assert!(
        drift.is_empty(),
        "documents name flags the CLI would reject:\n{}",
        drift.join("\n")
    );
}

/// Every `--example NAME` a document names must be a real example: a
/// root `examples/NAME.rs` or a `crates/*/examples/NAME.rs`.
#[test]
fn documented_examples_exist() {
    let root = repo_root();
    let mut dirs = vec![root.join("examples")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        dirs.push(entry.expect("readable entry").path().join("examples"));
    }
    let exists = |name: &str| dirs.iter().any(|d| d.join(format!("{name}.rs")).is_file());
    assert!(
        exists("quickstart") && exists("paper"),
        "example lookup sanity"
    );
    let mut missing = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for (n, line) in text.lines().enumerate() {
            for mention in line.split("--example ").skip(1) {
                let name: String = mention
                    .chars()
                    .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                    .collect();
                if !exists(&name) {
                    missing.push(format!("{}:{}: --example {name}", file.display(), n + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documents name examples that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn documented_subcommands_exist_in_help_output() {
    let known = advertised_subcommands();
    assert!(
        known.contains("batch") && known.contains("run"),
        "usage parse sanity: {known:?}"
    );
    let mut unknown = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for word in mentioned_subcommands(&text) {
            if !known.contains(&word) {
                unknown.push(format!("{}: rv-nvdla {word}", file.display()));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "documents name rv-nvdla subcommands missing from --help:\n{}\n(known: {:?})",
        unknown.join("\n"),
        known
    );
}
