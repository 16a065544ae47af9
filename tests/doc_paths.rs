//! Every repository path README.md and DESIGN.md name in backticks
//! exists, so the docs cannot keep pointing at deleted files.
//!
//! A backticked span is a repository path when it has no whitespace,
//! contains a `/`, and starts with a top-level entry of the repository
//! (`crates/`, `tests/`, `results/`, ...). Metric names such as
//! `mig/latency_cycles` start with none and are skipped. A span that
//! starts with a crate directory (`tiersim/src/...`) must be written
//! from the repository root instead. `{a,b}` alternatives are expanded,
//! and a placeholder component (`<name>.rs`, `*`) checks the directory
//! before it. Build outputs under `target/` are not checked.

use std::path::Path;

const DOCS: [&str; 2] = ["README.md", "DESIGN.md"];

/// Top-level repository entries a path may start with.
const ROOTS: [&str; 9] = [
    ".github",
    "ci",
    "crates",
    "examples",
    "perfbench",
    "results",
    "src",
    "tests",
    "vendor",
];

/// The backticked spans of `text` outside fenced code blocks, with no
/// whitespace.
fn code_spans(text: &str) -> Vec<String> {
    let mut fenced = false;
    let prose: Vec<&str> = text
        .lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                return false;
            }
            !fenced
        })
        .collect();
    prose
        .join("\n")
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| !s.is_empty() && !s.contains(char::is_whitespace))
        .map(str::to_string)
        .collect()
}

/// `a/{x,y}.rs` as `[a/x.rs, a/y.rs]`; a span without braces as itself.
fn expand_braces(span: &str) -> Vec<String> {
    match (span.find('{'), span.find('}')) {
        (Some(open), Some(close)) if open < close => span[open + 1..close]
            .split(',')
            .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &span[..open], &span[close + 1..])))
            .collect(),
        _ => vec![span.to_string()],
    }
}

/// The part of `path` a checkout must contain: everything before the
/// first placeholder component.
fn checkable(path: &str) -> String {
    path.split('/')
        .take_while(|c| !c.contains(['<', '*']))
        .collect::<Vec<_>>()
        .join("/")
}

/// The problems with the repository paths `doc` names.
fn problems(root: &Path, doc: &str, text: &str) -> Vec<String> {
    let crate_dirs: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let mut out = Vec::new();
    for span in code_spans(text) {
        let Some((first, _)) = span.split_once('/') else {
            continue;
        };
        if crate_dirs.iter().any(|c| c == first) {
            out.push(format!("{doc}: `{span}` should be `crates/{span}`"));
        } else if ROOTS.contains(&first) {
            for path in expand_braces(&span) {
                if !root.join(checkable(&path)).exists() {
                    out.push(format!("{doc}: `{span}` names a missing path"));
                }
            }
        }
    }
    out
}

#[test]
fn backticked_repository_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut all = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        all.extend(problems(root, doc, &text));
    }
    assert!(all.is_empty(), "{}", all.join("\n"));
}

#[test]
fn the_check_catches_missing_and_shorthand_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = "`tests/doc_paths.rs` `crates/tiersim/src/{pmu,chmu}.rs`\n\
                `crates/bench/src/figures/<name>.rs` `mig/latency_cycles`\n\
                ```text\n`tests/fenced.rs`\n```\n\
                `tests/no_such_file.rs` `crates/tiersim/src/{pmu,nope}.rs`\n\
                `tiersim/src/machine.rs`";
    assert_eq!(
        problems(root, "doc", text),
        [
            "doc: `tests/no_such_file.rs` names a missing path",
            "doc: `crates/tiersim/src/{pmu,nope}.rs` names a missing path",
            "doc: `tiersim/src/machine.rs` should be `crates/tiersim/src/machine.rs`",
        ]
    );
}
