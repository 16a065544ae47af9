//! The per-file and workspace source models the semantic rules run
//! on: structs with their fields (plus `// snapshot: skip`
//! annotations), enums with their variants, and functions reduced to
//! the facts X001–X003 need — identifier streams, call edges,
//! compound-assignment "bumps", `let` bindings, and `match`
//! expressions with per-arm path references.
//!
//! The model is deliberately *lossy*: it is built by a recursive
//! descent over the lexer's token stream, not a real Rust parser, and
//! it only keeps what the rules consume. DESIGN.md §15 spells out the
//! resulting proof boundary (what the analyzer can and cannot see).

use std::collections::BTreeSet;

/// A `// snapshot: skip — <reason>` annotation attached to a field.
#[derive(Debug, Clone)]
pub(crate) struct SkipAnno {
    /// Whether a non-empty reason followed `skip`.
    pub(crate) reason_ok: bool,
    /// Position of the annotation comment (for S001 diagnostics).
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub(crate) struct FieldDef {
    pub(crate) name: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
    /// The skip annotation targeting this field's line, if any.
    pub(crate) skip: Option<SkipAnno>,
}

/// A struct definition (unit/tuple structs keep an empty field list).
#[derive(Debug, Clone)]
pub(crate) struct StructDef {
    pub(crate) name: String,
    pub(crate) fields: Vec<FieldDef>,
}

/// An enum definition and its variant names, in declaration order.
#[derive(Debug, Clone)]
pub(crate) struct EnumDef {
    pub(crate) name: String,
    pub(crate) variants: Vec<String>,
}

/// A compound assignment (`… += …`) with its receiver chain: the
/// dot-separated identifier path with index groups elided, e.g.
/// `self.tenant_stats[t].promotions += 1` ⇒ `[self, tenant_stats,
/// promotions]`.
#[derive(Debug, Clone)]
pub(crate) struct Bump {
    pub(crate) chain: Vec<String>,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// A `let` (or `if let` / `while let`) binding: the lowercase
/// identifiers it introduces and the identifiers its initializer
/// mentions. Used to resolve per-tenant aliases such as
/// `let tc = &mut self.tenant_counters[owner]`.
#[derive(Debug, Clone)]
pub(crate) struct LetBind {
    pub(crate) names: Vec<String>,
    pub(crate) rhs: BTreeSet<String>,
}

/// One arm of a `match`: the `A::B` path pairs referenced by its
/// pattern and body, and whether the pattern is a catch-all (`_` or a
/// lone binding identifier).
#[derive(Debug, Clone)]
pub(crate) struct MatchArm {
    /// `(qualifier, name)` pairs from the pattern tokens.
    pub(crate) pattern_paths: Vec<(String, String)>,
    /// `(qualifier, name)` pairs from the body tokens (tag-byte
    /// decoders construct variants in arm bodies, not patterns).
    pub(crate) body_paths: Vec<(String, String)>,
    pub(crate) wildcard: bool,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// A `match` expression and its arms.
#[derive(Debug, Clone)]
pub(crate) struct MatchExpr {
    pub(crate) line: u32,
    pub(crate) col: u32,
    pub(crate) arms: Vec<MatchArm>,
}

/// How a call names its target, deciding where it resolves.
/// Receiver-aware resolution keeps the X001 identifier closure tight:
/// `ByteWriter::new(…)` must not resolve to `Sim::new` (whose body
/// mentions every field and would saturate coverage).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum CallKind {
    /// `self.f(…)` — resolves to the caller's own impl.
    SelfCall,
    /// `Type::f(…)` — resolves to fns owned by `Type` (or the
    /// caller's impl for `Self::f`).
    Qualified(String),
    /// `f(…)` — resolves to free fns.
    Bare,
}

/// One call site: target name plus how it was named. Methods on
/// sub-objects (`self.field.m(…)`) are not recorded — they resolve
/// to other types and usually other files.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Call {
    pub(crate) kind: CallKind,
    pub(crate) name: String,
}

/// One function, reduced to the facts the semantic rules consume.
#[derive(Debug, Clone)]
pub(crate) struct FnDef {
    pub(crate) name: String,
    /// Self type of the enclosing `impl` block, if any (last path
    /// segment; the type after `for` in trait impls).
    pub(crate) owner: Option<String>,
    /// Every identifier appearing in the body.
    pub(crate) idents: BTreeSet<String>,
    /// Call sites, resolved within the same file by [`CallKind`].
    pub(crate) calls: BTreeSet<Call>,
    pub(crate) bumps: Vec<Bump>,
    pub(crate) lets: Vec<LetBind>,
    pub(crate) matches: Vec<MatchExpr>,
}

/// A parsed suppression usable by the semantic pass: rule id plus the
/// line it targets. Malformed suppressions are reported by S001 in
/// the token pass and never reach this list.
#[derive(Debug, Clone)]
pub(crate) struct SuppressionRef {
    pub(crate) rule_id: String,
    pub(crate) target_line: u32,
}

/// Everything the parse layer extracted from one file.
#[derive(Debug, Clone, Default)]
pub(crate) struct FileModel {
    pub(crate) path: String,
    pub(crate) structs: Vec<StructDef>,
    pub(crate) enums: Vec<EnumDef>,
    pub(crate) fns: Vec<FnDef>,
    pub(crate) suppressions: Vec<SuppressionRef>,
}

/// The cross-file symbol table: every file model, with lookups for
/// struct fields and enum variants by (unqualified) type name.
#[derive(Debug, Default)]
pub(crate) struct WorkspaceModel {
    pub(crate) files: Vec<FileModel>,
}

impl WorkspaceModel {
    /// Field names of the first struct named `name`, searched across
    /// all files in scan order.
    pub(crate) fn struct_fields(&self, name: &str) -> Option<BTreeSet<String>> {
        self.files
            .iter()
            .flat_map(|f| f.structs.iter())
            .find(|s| s.name == name)
            .map(|s| s.fields.iter().map(|f| f.name.clone()).collect())
    }

    /// Variant names of the first enum named `name`.
    pub(crate) fn enum_variants(&self, name: &str) -> Option<&[String]> {
        self.files
            .iter()
            .flat_map(|f| f.enums.iter())
            .find(|e| e.name == name)
            .map(|e| e.variants.as_slice())
    }

    pub(crate) fn file(&self, path: &str) -> Option<&FileModel> {
        self.files.iter().find(|f| f.path == path)
    }
}

impl FileModel {
    /// Union of body identifiers of `roots` and everything they
    /// transitively call *within this file*, with receiver-aware
    /// resolution: `self.f()` follows the caller's impl, `Type::f()`
    /// follows that type's impl, bare `f()` follows free fns.
    pub(crate) fn ident_closure<'a, I>(&self, roots: I) -> BTreeSet<String>
    where
        I: IntoIterator<Item = &'a FnDef>,
    {
        let mut idents = BTreeSet::new();
        let mut visited: BTreeSet<(String, String)> = BTreeSet::new();
        let mut queue: Vec<&FnDef> = roots.into_iter().collect();
        while let Some(f) = queue.pop() {
            let key = (f.owner.clone().unwrap_or_default(), f.name.clone());
            if !visited.insert(key) {
                continue;
            }
            idents.extend(f.idents.iter().cloned());
            for c in &f.calls {
                let target_owner: Option<&str> = match &c.kind {
                    CallKind::SelfCall => f.owner.as_deref(),
                    CallKind::Qualified(q) if q == "Self" => f.owner.as_deref(),
                    CallKind::Qualified(q) => Some(q.as_str()),
                    CallKind::Bare => None,
                };
                queue.extend(
                    self.fns
                        .iter()
                        .filter(|g| g.name == c.name && g.owner.as_deref() == target_owner),
                );
            }
        }
        idents
    }
}
