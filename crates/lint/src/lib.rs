//! # pact-lint — workspace determinism & hygiene linter
//!
//! The reproduction's headline property — every sweep cell
//! byte-identical across `PACT_JOBS`, traces replayable, fuzz cases
//! reproducible from one seed — is defended at runtime by the
//! invariant checker and differential oracles (`pact-check`). This
//! crate defends it *structurally*: a hermetic, dependency-free
//! static-analysis pass (hand-rolled lexer, token-pattern rules) that
//! catches the `HashMap`-iteration or `Instant::now` regression at PR
//! time instead of three releases later.
//!
//! Rule groups (`DESIGN.md` §11 has the full catalogue and rationale):
//!
//! * **D-rules** — determinism: no hash-ordered collections, wall
//!   clocks, or ambient randomness in the simulation crates; all
//!   `PACT_*` environment reads confined to the `bench::env` registry.
//! * **H-rules** — hygiene: no unjustified `.unwrap()`/`.expect()`
//!   outside tests, no narrowing `as` casts in counter arithmetic, no
//!   printing outside `pact-bench`.
//! * **S-rule** — the suppression grammar itself is checked, so every
//!   exception stays auditable.
//!
//! Per-site exceptions use `// pact-lint: allow(<rule>) — <reason>`;
//! the reason is mandatory. Diagnostics are rustc-style
//! `file:line:col` with a machine-readable JSON mode.
//!
//! The CLI front end is `tierctl lint` (exit 0 clean / 1 findings /
//! 2 usage or I/O error), wired into CI as the `lint` stage.

#![warn(missing_docs)]

mod config;
mod lexer;
mod rules;

pub use config::{FileClass, LintConfig};
pub use lexer::{lex, Tok, TokKind};
pub use rules::{lint_source, rule_by_id, Diagnostic, Rule, RULES};

use std::path::{Path, PathBuf};

/// Everything one lint run produced.
#[derive(Debug)]
pub struct LintReport {
    /// All surviving findings, ordered by file, then position.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Merges per-file findings (one [`lint_source`] result per scanned
/// file, in any order — callers may fan the scans out across a worker
/// pool) into the final report: optionally restricts findings to
/// `changed` (workspace-relative paths) and sorts by file/line/col, so
/// the report is deterministic regardless of scan order.
pub fn finish_scans(scans: Vec<Vec<Diagnostic>>, changed: Option<&[String]>) -> LintReport {
    let files_scanned = scans.len();
    let mut diagnostics: Vec<Diagnostic> = scans.into_iter().flatten().collect();
    if let Some(changed) = changed {
        diagnostics.retain(|d| changed.contains(&d.file));
    }
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule.code).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule.code,
        ))
    });
    LintReport {
        diagnostics,
        files_scanned,
    }
}

/// Checks that `root` carries a workspace manifest.
///
/// # Errors
///
/// [`LintError::NotAWorkspace`] otherwise.
pub fn ensure_workspace_root(root: &Path) -> Result<(), LintError> {
    let manifest = root.join("Cargo.toml");
    let ok = std::fs::read_to_string(&manifest)
        .map(|t| t.contains("[workspace]"))
        .unwrap_or(false);
    if ok {
        Ok(())
    } else {
        Err(LintError::NotAWorkspace(root.to_path_buf()))
    }
}

/// Why a workspace lint run could not complete.
#[derive(Debug)]
pub enum LintError {
    /// The root does not look like the workspace (no `Cargo.toml` with
    /// a `[workspace]` table).
    NotAWorkspace(PathBuf),
    /// A file or directory could not be read.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::NotAWorkspace(p) => {
                write!(f, "{} is not a cargo workspace root", p.display())
            }
            LintError::Io(p, e) => write!(f, "cannot read {}: {e}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Lists the source files a workspace lint covers, as
/// workspace-relative forward-slash paths in deterministic order:
/// `crates/*/src/**/*.rs` plus the root crate's `src/**/*.rs`.
/// Integration tests, benches, examples, and `vendor/` stubs are out
/// of scope (test code is exempt from every rule anyway).
pub fn workspace_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| LintError::Io(crates_dir.clone(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(root, &dir.join("src"), &mut files)?;
    }
    collect_rs(root, &root.join("src"), &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

impl LintReport {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders rustc-style text diagnostics plus a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "error[{}/{}]: {}\n  --> {}:{}:{}\n   = help: {}\n",
                d.rule.code, d.rule.id, d.message, d.file, d.line, d.col, d.rule.help
            ));
        }
        out.push_str(&format!(
            "pact-lint: {} finding{} in {} file{} scanned\n",
            self.diagnostics.len(),
            if self.diagnostics.len() == 1 { "" } else { "s" },
            self.files_scanned,
            if self.files_scanned == 1 { "" } else { "s" },
        ));
        out
    }

    /// Renders the machine-readable JSON report (one object; findings
    /// as an array of `{rule, code, file, line, col, message}`).
    pub fn render_json(&self) -> String {
        let mut j = pact_obs::JsonWriter::new();
        j.begin_object();
        j.field_str("tool", "pact-lint");
        j.field_u64("version", 1);
        j.field_u64("files_scanned", self.files_scanned as u64);
        j.field_u64("findings_total", self.diagnostics.len() as u64);
        j.key("findings");
        j.begin_array();
        for d in &self.diagnostics {
            j.begin_object();
            j.field_str("rule", d.rule.id);
            j.field_str("code", d.rule.code);
            j.field_str("file", &d.file);
            j.field_u64("line", u64::from(d.line));
            j.field_u64("col", u64::from(d.col));
            j.field_str("message", &d.message);
            j.field_str("help", d.rule.help);
            j.end_object();
        }
        j.end_array();
        j.end_object();
        let mut s = j.finish();
        s.push('\n');
        s
    }

    /// Renders the rule catalogue (for `--list-rules`).
    pub fn catalogue() -> String {
        let mut out = String::new();
        for r in &RULES {
            out.push_str(&format!("{}  {:<22} {}\n", r.code, r.id, r.summary));
        }
        out
    }
}
