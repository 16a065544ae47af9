//! The rule engine: token-pattern rules, test-code exemption, the
//! `// pact-lint: allow(<rule>) — <reason>` suppression grammar, and
//! the `// Invariant:` annotation convention for `unwrap`/`expect`.
//!
//! Rules are summarized in the [`RULES`] catalogue and documented in
//! detail in `DESIGN.md` §11.

use crate::config::LintConfig;
use crate::lexer::{lex, Tok, TokKind};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case identifier, used in suppressions and `--rule`.
    pub id: &'static str,
    /// Short code (`D…` determinism, `H…` hygiene, `S…` suppression).
    pub code: &'static str,
    /// One-line summary for `--list-rules`.
    pub summary: &'static str,
    /// Remediation hint appended to each diagnostic.
    pub help: &'static str,
}

/// The rule catalogue. Order is report order.
pub const RULES: [Rule; 8] = [
    Rule {
        id: "det-hash-collections",
        code: "D001",
        summary: "no HashMap/HashSet in deterministic crates (iteration order is nondeterministic)",
        help: "use BTreeMap/BTreeSet or a sorted Vec",
    },
    Rule {
        id: "det-wall-clock",
        code: "D002",
        summary: "no Instant/SystemTime in deterministic crates (wall-clock reads break replay)",
        help: "derive timing from simulation cycles, or measure in pact-bench",
    },
    Rule {
        id: "det-rng",
        code: "D003",
        summary: "no ambient randomness outside stats::rng (thread_rng/OsRng/rand)",
        help: "use pact_stats::SplitMix64 seeded from the experiment seed",
    },
    Rule {
        id: "det-env-read",
        code: "D004",
        summary: "no std::env::var outside the bench::env PACT_* registry",
        help: "read the variable in crates/bench/src/env.rs and pass the value down",
    },
    Rule {
        id: "naked-unwrap",
        code: "H001",
        summary: "no .unwrap()/.expect(\"…\") in non-test code without an `// Invariant:` comment",
        help: "convert to a typed error, or state why it cannot fail in an `// Invariant:` comment",
    },
    Rule {
        id: "counter-truncation",
        code: "H002",
        summary: "no `as` truncation to a narrower integer in PMU/CHMU counter arithmetic",
        help: "widen the arithmetic or use try_into with a handled error",
    },
    Rule {
        id: "stray-print",
        code: "H003",
        summary: "no println!/eprintln! outside the pact-bench crate",
        help: "return data to the caller; only bench binaries talk to a terminal",
    },
    Rule {
        id: "suppression",
        code: "S001",
        summary: "malformed or unknown pact-lint suppression comment",
        help: "write `// pact-lint: allow(<rule-id>) — <reason>` with a known rule and a non-empty reason",
    },
];

/// Looks a rule up by its kebab-case id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

fn rule(id: &str) -> &'static Rule {
    // Invariant: `rule` is only called with ids from RULES itself.
    rule_by_id(id).expect("rule id is in the catalogue")
}

/// One finding, positioned in a file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: &'static Rule,
    /// Workspace-relative path (as given to [`lint_source`]).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What was found, specifically.
    pub message: String,
}

/// A suppression comment, parsed.
struct Suppression {
    rule_id: String,
    /// Line the suppression applies to (its own line, or the next
    /// code line when the comment stands alone).
    target_line: u32,
    /// Where the comment itself is, for S001 diagnostics.
    line: u32,
    col: u32,
    problem: Option<String>,
}

/// Comment-derived facts for the token pass: lines fully covered by
/// comments (for annotation and
/// suppression reach-through), lines carrying an `Invariant:`
/// annotation, and all parsed suppressions with their target lines
/// resolved.
struct CommentFacts {
    comment_lines: std::collections::BTreeSet<u32>,
    code_lines: std::collections::BTreeSet<u32>,
    invariant_lines: std::collections::BTreeSet<u32>,
    suppressions: Vec<Suppression>,
}

impl CommentFacts {
    /// Whether `line` holds comments and nothing else.
    fn comment_only(&self, line: u32) -> bool {
        self.comment_lines.contains(&line) && !self.code_lines.contains(&line)
    }

    /// Resolves the line a standalone annotation comment at `line`
    /// applies to: the next line holding code (stacked annotation
    /// comments skip over each other). A trailing comment targets its
    /// own line.
    fn annotation_target(&self, line: u32) -> u32 {
        if !self.comment_only(line) {
            return line;
        }
        let mut l = line + 1;
        while self.comment_only(l) {
            l += 1;
        }
        l
    }
}

/// Collects [`CommentFacts`] from a full token stream.
fn comment_facts(toks: &[Tok<'_>]) -> CommentFacts {
    let mut facts = CommentFacts {
        comment_lines: std::collections::BTreeSet::new(),
        code_lines: std::collections::BTreeSet::new(),
        invariant_lines: std::collections::BTreeSet::new(),
        suppressions: Vec::new(),
    };
    for t in toks {
        let is_comment = matches!(t.kind, TokKind::LineComment | TokKind::BlockComment);
        for line in t.line..=t.end_line.max(t.line) {
            if is_comment {
                facts.comment_lines.insert(line);
            } else {
                facts.code_lines.insert(line);
            }
        }
        if !is_comment {
            continue;
        }
        if t.text.to_ascii_lowercase().contains("invariant:") {
            for line in t.line..=t.end_line.max(t.line) {
                facts.invariant_lines.insert(line);
            }
        }
        if let Some(s) = parse_suppression(t) {
            facts.suppressions.push(s);
        }
    }
    let targets: Vec<u32> = facts
        .suppressions
        .iter()
        .map(|s| facts.annotation_target(s.line))
        .collect();
    for (s, target) in facts.suppressions.iter_mut().zip(targets) {
        s.target_line = target;
    }
    facts
}

/// Lints one file's source text against the configured rules.
/// `rel_path` is the workspace-relative path used for scoping
/// decisions and diagnostics.
pub fn lint_source(rel_path: &str, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    let toks = lex(src);
    let class = cfg.classify(rel_path);
    let facts = comment_facts(&toks);
    let suppressions = &facts.suppressions;
    // An unwrap at line L is annotated when L itself, or the block of
    // comment-only lines immediately above it, mentions `Invariant:`.
    let has_invariant = |line: u32| {
        if facts.invariant_lines.contains(&line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && facts.comment_only(l) {
            if facts.invariant_lines.contains(&l) {
                return true;
            }
            l -= 1;
        }
        false
    };

    // --- code view and test regions ---------------------------------
    let code: Vec<&Tok<'_>> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let test_spans = test_regions(&code);
    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx <= b);

    // --- pattern rules ----------------------------------------------
    let mut found: Vec<Diagnostic> = Vec::new();
    let mut push = |rule_id: &str, t: &Tok<'_>, message: String| {
        found.push(Diagnostic {
            rule: rule(rule_id),
            file: rel_path.to_string(),
            line: t.line,
            col: t.col,
            message,
        });
    };
    let punct = |i: usize, ch: &str| {
        code.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == ch)
    };
    let enabled = |id: &str| cfg.rule_enabled(id);

    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(i) {
            continue;
        }
        match t.text {
            "HashMap" | "HashSet" if class.deterministic && enabled("det-hash-collections") => {
                push(
                    "det-hash-collections",
                    t,
                    format!("`{}` in deterministic crate `{}`", t.text, class.crate_name),
                );
            }
            "Instant" | "SystemTime"
                if class.deterministic
                    && !class.wall_clock_sanctioned
                    && enabled("det-wall-clock") =>
            {
                push(
                    "det-wall-clock",
                    t,
                    format!(
                        "wall-clock type `{}` in deterministic crate `{}`",
                        t.text, class.crate_name
                    ),
                );
            }
            "thread_rng" | "ThreadRng" | "OsRng" | "StdRng" | "from_entropy"
                if class.deterministic && !class.rng_registry && enabled("det-rng") =>
            {
                push(
                    "det-rng",
                    t,
                    format!("ambient randomness `{}` outside stats::rng", t.text),
                );
            }
            "rand"
                if class.deterministic
                    && !class.rng_registry
                    && punct(i + 1, ":")
                    && punct(i + 2, ":")
                    && enabled("det-rng") =>
            {
                push(
                    "det-rng",
                    t,
                    "use of the `rand` crate outside stats::rng".into(),
                );
            }
            "env"
                if !class.env_registry
                    && punct(i + 1, ":")
                    && punct(i + 2, ":")
                    && code.get(i + 3).is_some_and(|n| {
                        n.kind == TokKind::Ident
                            && matches!(
                                n.text,
                                "var" | "var_os" | "vars" | "vars_os" | "set_var" | "remove_var"
                            )
                    })
                    && enabled("det-env-read") =>
            {
                // Invariant-by-construction: get(i + 3) matched above.
                let what = code[i + 3].text;
                push(
                    "det-env-read",
                    t,
                    format!("`env::{what}` outside the bench::env registry"),
                );
            }
            "unwrap"
                if punct(i.wrapping_sub(1), ".")
                    && punct(i + 1, "(")
                    && punct(i + 2, ")")
                    && enabled("naked-unwrap")
                    && !has_invariant(t.line) =>
            {
                push(
                    "naked-unwrap",
                    t,
                    "`.unwrap()` without an `// Invariant:` justification".into(),
                );
            }
            "expect"
                if punct(i.wrapping_sub(1), ".")
                    && punct(i + 1, "(")
                    && code.get(i + 2).is_some_and(|a| a.kind == TokKind::Str)
                    && enabled("naked-unwrap")
                    && !has_invariant(t.line) =>
            {
                push(
                    "naked-unwrap",
                    t,
                    "`.expect(\"…\")` without an `// Invariant:` justification".into(),
                );
            }
            "as" if class.truncation_scoped && enabled("counter-truncation") => {
                if let Some(n) = code.get(i + 1) {
                    if n.kind == TokKind::Ident
                        && matches!(n.text, "u8" | "u16" | "u32" | "i8" | "i16" | "i32")
                    {
                        push(
                            "counter-truncation",
                            n,
                            format!("`as {}` truncation in counter arithmetic", n.text),
                        );
                    }
                }
            }
            "println" | "eprintln" | "print" | "eprint"
                if !class.print_allowed && punct(i + 1, "!") && enabled("stray-print") =>
            {
                push(
                    "stray-print",
                    t,
                    format!("`{}!` outside the bench crate", t.text),
                );
            }
            _ => {}
        }
    }

    // --- suppression application ------------------------------------
    let mut out: Vec<Diagnostic> = Vec::new();
    for s in suppressions {
        if !enabled("suppression") {
            continue;
        }
        if let Some(problem) = &s.problem {
            out.push(Diagnostic {
                rule: rule("suppression"),
                file: rel_path.to_string(),
                line: s.line,
                col: s.col,
                message: problem.clone(),
            });
        }
    }
    for d in found {
        let suppressed = suppressions
            .iter()
            .any(|s| s.problem.is_none() && s.rule_id == d.rule.id && s.target_line == d.line);
        if !suppressed {
            out.push(d);
        }
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule.code).cmp(&(b.line, b.col, b.rule.code)));
    out
}

/// Parses a `pact-lint: allow(<rule>) — <reason>` comment. Returns
/// `None` for comments that do not mention `pact-lint` at all.
fn parse_suppression(t: &Tok<'_>) -> Option<Suppression> {
    // Suppressions are plain `//` line comments; doc comments only
    // ever *describe* the grammar (this crate's own docs included).
    if !t.text.starts_with("//") || t.text.starts_with("///") || t.text.starts_with("//!") {
        return None;
    }
    let pos = t.text.find("pact-lint")?;
    let line = t.line;
    let col = t.col;
    let make = |rule_id: String, problem: Option<String>| Suppression {
        rule_id,
        target_line: line,
        line,
        col,
        problem,
    };
    let rest = t.text[pos + "pact-lint".len()..]
        .trim_start_matches(':')
        .trim_start();
    // Prose that merely mentions the tool name is not a suppression
    // attempt; only the full marker form is parsed.
    let args = rest.strip_prefix("allow")?;
    let args = args.trim_start();
    let inner = args.strip_prefix('(').and_then(|a| a.split_once(')'));
    let Some((rule_id, tail)) = inner else {
        return Some(make(
            String::new(),
            Some("expected `allow(<rule-id>)` after `pact-lint:`".into()),
        ));
    };
    let rule_id = rule_id.trim().to_string();
    if rule_by_id(&rule_id).is_none() || rule_id == "suppression" {
        return Some(make(
            rule_id.clone(),
            Some(format!("unknown rule `{rule_id}` in suppression")),
        ));
    }
    // The reason: anything non-empty after the closing paren, once
    // separator dashes/em-dashes/colons are stripped.
    let reason = tail
        .trim_start()
        .trim_start_matches(['—', '-', ':', '–'])
        .trim();
    if reason.is_empty() {
        return Some(make(
            rule_id,
            Some("suppression is missing its `— <reason>` justification".into()),
        ));
    }
    Some(make(rule_id, None))
}

/// Finds spans (inclusive code-token index ranges) of test-only code:
/// items annotated `#[test]` / `#[cfg(test)]` (and `cfg` attributes
/// naming `test` positively — `not(test)` is production code).
fn test_regions(code: &[&Tok<'_>]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let punct_is = |i: usize, ch: &str| {
        code.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == ch)
    };
    let mut i = 0usize;
    while i < code.len() {
        if !punct_is(i, "#") {
            i += 1;
            continue;
        }
        // `#![…]` inner attribute: if it is test-scoped, the whole
        // file is test code.
        let inner = punct_is(i + 1, "!");
        let open = if inner { i + 2 } else { i + 1 };
        if !punct_is(open, "[") {
            i += 1;
            continue;
        }
        let Some(close) = matching(code, open, "[", "]") else {
            break;
        };
        let attr_is_test = {
            let body = &code[open + 1..close];
            let has = |name: &str| {
                body.iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == name)
            };
            has("test") && !has("not")
        };
        if !attr_is_test {
            i = close + 1;
            continue;
        }
        if inner {
            spans.push((0, code.len().saturating_sub(1)));
            return spans;
        }
        // Skip any further (outer) attributes between this one and the
        // item they decorate.
        let mut k = close + 1;
        while punct_is(k, "#") && punct_is(k + 1, "[") {
            match matching(code, k + 1, "[", "]") {
                Some(c) => k = c + 1,
                None => return spans,
            }
        }
        // The item body: first `{ … }` at bracket depth 0, or a `;`
        // for item declarations without a body.
        let mut depth = 0i32;
        let mut end = None;
        while k < code.len() {
            let t = code[k];
            if t.kind == TokKind::Punct {
                match t.text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        end = matching(code, k, "{", "}");
                        break;
                    }
                    ";" if depth == 0 => {
                        end = Some(k);
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        match end {
            Some(e) => {
                spans.push((i, e));
                i = e + 1;
            }
            None => {
                // Unterminated item: everything that follows is inside.
                spans.push((i, code.len().saturating_sub(1)));
                return spans;
            }
        }
    }
    spans
}

/// Index of the token closing the delimiter opened at `open`.
fn matching(code: &[&Tok<'_>], open: usize, op: &str, cl: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.kind != TokKind::Punct {
            continue;
        }
        if t.text == op {
            depth += 1;
        } else if t.text == cl {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}
