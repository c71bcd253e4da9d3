//! Workspace consistency passes over the item model ([`crate::model`]):
//!
//! * **snapshot-completeness** — every field of a type with a
//!   `Persist`/`PersistState` impl must be referenced in both the save
//!   and the load body, with `lint:allow(snapshot-exempt)` for deliberate
//!   exclusions (derived or config-owned state);
//! * **metrics-merge-completeness** — every `Acc` counter must survive
//!   the reporting projection (`SimMetrics::from_model`), and every
//!   ledger-class `SimMetrics` field must appear in the conservation
//!   identity (`conservation_violation`);
//! * **dead-pub** — every `pub` fn, type, trait, const or static must be
//!   named by some non-test code outside its own declaration;
//! * **dead-field** — every `pub` struct field must be read by some
//!   non-test code, and, on a struct with a `Default`, set by some
//!   non-test code outside that `Default`.
//!
//! Each pass reports which marker allows it consumed, so the engine's
//! suppression hygiene can flag stale `snapshot-exempt`/`merge-exempt`
//! comments exactly like unused `lint:allow`s.

use crate::lexer::TokKind;
use crate::model::{crate_key, ItemRef, Workspace};
use crate::parse::{FieldDef, Item, ItemKind};
use crate::rules::Finding;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Marker registry: exemption annotations the passes understand, in the
/// same `lint:allow(<marker>): <justification>` comment syntax as rule
/// suppressions. A marker sits on (or directly above) a *field
/// declaration* and removes that field from a pass, where a rule allow
/// sits on a finding site.
pub const MARKERS: &[(&str, &str)] = &[
    (
        "snapshot-exempt",
        "excludes one field from snapshot-completeness: the field is \
         deliberately not serialized (rebuilt from config, derived during \
         load, or scratch storage) — justify with why a \
         restore reconstructs it correctly",
    ),
    (
        "merge-exempt",
        "excludes one field from metrics-merge-completeness: the field is \
         deliberately absent from the reporting projection or the \
         conservation identity — justify with why the \
         ledger stays balanced without it",
    ),
];

/// The outcome of the workspace passes.
pub struct PassResult {
    /// Findings, unfiltered (the engine applies suppression).
    pub findings: Vec<Finding>,
    /// Marker allows consumed, as `(file index, allow index)`.
    pub consumed: Vec<(usize, usize)>,
}

/// Run the passes. `strict` means `ws` is the whole workspace: a pass
/// whose anchor (the `Acc`/`SimMetrics` structs, `SimMetrics::from_model`,
/// `conservation_violation`) cannot be found then fails — a renamed anchor
/// must turn the gate red, not silently blind the pass — and dead-pub,
/// which needs every use site, runs. Single-file harnesses (`lint_source`)
/// run non-strict.
pub fn run_workspace_passes(ws: &Workspace<'_>, strict: bool) -> PassResult {
    let mut out = PassResult {
        findings: vec![],
        consumed: vec![],
    };
    snapshot_completeness(ws, &mut out);
    metrics_merge_completeness(ws, strict, &mut out);
    if strict {
        let uses = ident_index(ws);
        dead_pub(ws, &uses, &mut out);
        dead_field(ws, &uses, &mut out);
    }
    out
}

/// A justified marker allow covering a field declaration (same line or
/// the line above), as an index into the file's allow list.
fn field_marker(file: &SourceFile, field: &FieldDef, marker: &str) -> Option<usize> {
    file.allows.iter().position(|a| {
        a.justified
            && a.rule == marker
            && (a.line == field.line || a.line + 1 == field.line)
    })
}

/// The member fn of an impl/trait body with this name, body included.
fn member_fn<'a>(item: &'a Item, name: &str) -> Option<&'a Item> {
    item.children
        .iter()
        .find(|c| c.kind == ItemKind::Fn && c.name == name && c.body.is_some())
}

// ---------------------------------------------------------------------
// snapshot-completeness
// ---------------------------------------------------------------------

fn snapshot_completeness(ws: &Workspace<'_>, out: &mut PassResult) {
    let impls = ws.impls();
    // Self types that own a Persist/PersistState impl anywhere: helper
    // structs serialized inline by a parent impl must NOT be among them
    // (they are checked through their own impl instead).
    let persist_selfs: Vec<&str> = impls
        .iter()
        .filter(|r| is_persist_trait(r.item))
        .filter_map(|r| r.item.impl_self.as_deref())
        .collect();
    let structs = ws.structs();
    for r in &impls {
        let Some(trait_name) = r.item.impl_trait.as_deref() else {
            continue;
        };
        let (save_name, load_name) = match trait_name {
            "Persist" => ("save", "load"),
            "PersistState" => ("save_state", "load_state"),
            _ => continue,
        };
        let (Some(save), Some(load)) = (
            member_fn(r.item, save_name),
            member_fn(r.item, load_name),
        ) else {
            continue;
        };
        let (save_body, load_body) = match (save.body, load.body) {
            (Some(s), Some(l)) => (s, l),
            _ => continue,
        };
        let Some(self_name) = r.item.impl_self.as_deref() else {
            continue;
        };
        // Enroll the impl's own struct…
        let mut enrolled: Vec<ItemRef<'_>> = vec![];
        if let Some(sr) = ws.resolve_struct(self_name, r.file) {
            enrolled.push(sr);
        }
        // …plus same-crate helper structs the bodies construct inline
        // (`AppHot { … }` in an arena codec): their fields ride in this
        // frame, so drift in them is drift in this impl.
        let impl_crate = crate_key(&ws.files[r.file].rel);
        for s in &structs {
            let name = s.item.name.as_str();
            if name == self_name
                || persist_selfs.contains(&name)
                || crate_key(&ws.files[s.file].rel) != impl_crate
            {
                continue;
            }
            if ws.body_constructs(r.file, save_body, name)
                || ws.body_constructs(r.file, load_body, name)
            {
                enrolled.push(*s);
            }
        }
        for sr in enrolled {
            for field in &sr.item.fields {
                if let Some(ai) = field_marker(&ws.files[sr.file], field, "snapshot-exempt")
                {
                    out.consumed.push((sr.file, ai));
                    continue;
                }
                let in_save = ws.body_contains_ident(r.file, save_body, &field.name);
                let in_load = ws.body_contains_ident(r.file, load_body, &field.name);
                if in_save && in_load {
                    continue;
                }
                let missing = match (in_save, in_load) {
                    (false, false) => format!("`{save_name}` or `{load_name}`"),
                    (false, true) => format!("`{save_name}`"),
                    _ => format!("`{load_name}`"),
                };
                out.findings.push(Finding {
                    rule: "snapshot-completeness",
                    path: ws.files[r.file].rel.clone(),
                    line: r.item.line,
                    col: r.item.col,
                    message: format!(
                        "field `{}.{}` ({}:{}) is never referenced in {missing} of \
                         this {trait_name} impl — snapshots would silently drop it; \
                         serialize it or mark the field \
                         `lint:allow(snapshot-exempt): <why restore rebuilds it>`",
                        sr.item.name, field.name, ws.files[sr.file].rel, field.line
                    ),
                });
            }
        }
    }
}

fn is_persist_trait(item: &Item) -> bool {
    matches!(item.impl_trait.as_deref(), Some("Persist") | Some("PersistState"))
}

// ---------------------------------------------------------------------
// metrics-merge-completeness
// ---------------------------------------------------------------------

/// `SimMetrics` fields participating in the sample-conservation ledger:
/// every loss/shed class plus the identity's endpoints. Derived from the
/// field names so a new `lost_*` counter is enrolled the moment it is
/// declared.
fn is_ledger_field(name: &str) -> bool {
    name.starts_with("lost_")
        || name.starts_with("shed_")
        || matches!(
            name,
            "emitted_samples"
                | "received_samples"
                | "samples_lost"
                | "samples_in_flight"
                | "rejected_deposits"
        )
}

fn metrics_merge_completeness(ws: &Workspace<'_>, strict: bool, out: &mut PassResult) {
    let rule = "metrics-merge-completeness";
    let unique_struct = |name: &str| -> Option<ItemRef<'_>> {
        let all: Vec<ItemRef<'_>> = ws
            .structs()
            .into_iter()
            .filter(|r| r.item.name == name)
            .collect();
        (all.len() == 1).then(|| all[0])
    };
    let missing_anchor = |out: &mut PassResult, path: &str, what: &str| {
        out.findings.push(Finding {
            rule,
            path: path.to_string(),
            line: 0,
            col: 0,
            message: format!(
                "metrics-merge-completeness anchor missing: {what} — the pass \
                 cannot see the projection/conservation path and the gate must not \
                 go silently blind; restore or rename it in crates/lint/src/passes.rs"
            ),
        });
    };

    let acc = unique_struct("Acc");
    let metrics = unique_struct("SimMetrics");
    if strict {
        if acc.is_none() {
            missing_anchor(out, "<workspace>", "a unique struct `Acc`");
        }
        if metrics.is_none() {
            missing_anchor(out, "<workspace>", "a unique struct `SimMetrics`");
        }
    }

    // fn bodies: SimMetrics::from_model, conservation_violation (free fn
    // or member, anywhere).
    let from_model = ws
        .impls()
        .iter()
        .filter(|r| r.item.impl_self.as_deref() == Some("SimMetrics"))
        .find_map(|r| member_fn(r.item, "from_model").and_then(|f| f.body.map(|b| (r.file, b))));
    let conservation = {
        let mut found = None;
        ws.for_each_item(|r| {
            if found.is_none()
                && r.item.kind == ItemKind::Fn
                && r.item.name == "conservation_violation"
                && !ws.files[r.file].is_test_file
            {
                found = r.item.body.map(|b| (r.file, b));
            }
        });
        found
    };
    if strict {
        if let Some(a) = acc {
            if from_model.is_none() {
                missing_anchor(
                    out,
                    &ws.files[metrics.map_or(a.file, |m| m.file)].rel,
                    "fn `from_model` in `impl SimMetrics` (the reporting projection)",
                );
            }
        }
        if metrics.is_some() && conservation.is_none() {
            missing_anchor(
                out,
                &ws.files[metrics.map(|m| m.file).unwrap_or(0)].rel,
                "fn `conservation_violation` (the ledger identity)",
            );
        }
    }

    // Every Acc counter must survive the projection.
    if let Some(a) = acc {
        for field in &a.item.fields {
            if let Some(ai) = field_marker(&ws.files[a.file], field, "merge-exempt") {
                out.consumed.push((a.file, ai));
                continue;
            }
            let Some((bf, body)) = from_model else { continue };
            if !ws.body_contains_ident(bf, body, &field.name) {
                out.findings.push(Finding {
                    rule,
                    path: ws.files[bf].rel.clone(),
                    line: field.line,
                    col: field.col,
                    message: format!(
                        "`Acc.{}` ({}:{}) never appears in the reporting projection \
                         `SimMetrics::from_model` — the counter would silently \
                         vanish from every reported run; project it or mark the \
                         field `lint:allow(merge-exempt): <why the ledger balances>`",
                        field.name, ws.files[a.file].rel, field.line
                    ),
                });
            }
        }
    }

    // Every ledger-class SimMetrics field must appear in the identity.
    if let (Some(m), Some((cf, cbody))) = (metrics, conservation) {
        for field in m.item.fields.iter().filter(|f| is_ledger_field(&f.name)) {
            if let Some(ai) = field_marker(&ws.files[m.file], field, "merge-exempt") {
                out.consumed.push((m.file, ai));
                continue;
            }
            if !ws.body_contains_ident(cf, cbody, &field.name) {
                out.findings.push(Finding {
                    rule,
                    path: ws.files[cf].rel.clone(),
                    line: field.line,
                    col: field.col,
                    message: format!(
                        "ledger field `SimMetrics.{}` ({}:{}) never appears in \
                         `conservation_violation` — a loss class outside the \
                         identity can leak samples unnoticed; extend the check or \
                         mark the field `lint:allow(merge-exempt): <why>`",
                        field.name, ws.files[m.file].rel, field.line
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// dead-pub and dead-field
// ---------------------------------------------------------------------

/// Cargo workspaces of their own that the walk also lints. They build
/// against these crates by path, so their uses are an outside consumer's
/// (an item kept only for them carries an allow naming them), and their
/// own items answer to rustc's dead-code lint, not to this pass.
const OTHER_WORKSPACES: &[&str] = &["simbench/"];

/// Is file `fi` in the scope of the dead-code passes: neither a test file
/// nor part of another workspace?
fn in_scope(ws: &Workspace<'_>, fi: usize) -> bool {
    let f = &ws.files[fi];
    !f.is_test_file && !OTHER_WORKSPACES.iter().any(|p| f.rel.starts_with(p))
}

/// Every identifier token of in-scope non-test code, by name, as
/// `(file, sig position)`. Comments and strings are not identifier tokens.
/// Tokens that name an item without using it are left out: whole `pub
/// use` re-exports, and the name in every declaration (so two same-named
/// dead fns in different modules do not keep each other alive).
type IdentIndex<'a> = BTreeMap<&'a str, Vec<(usize, usize)>>;

fn ident_index<'a>(ws: &Workspace<'a>) -> IdentIndex<'a> {
    let mut not_uses: Vec<Vec<(usize, usize)>> = vec![vec![]; ws.files.len()];
    ws.for_each_item(|r| {
        let f = &ws.files[r.file];
        if r.item.kind == ItemKind::Use && r.item.is_pub {
            not_uses[r.file].push((r.item.start, r.item.end));
        } else if !r.item.name.is_empty() {
            let decl = f.sig_tokens().map(|(_, t)| t).find(|t| {
                t.start >= r.item.start && t.kind == TokKind::Ident && t.text(&f.text) == r.item.name
            });
            if let Some(t) = decl {
                not_uses[r.file].push((t.start, t.end));
            }
        }
    });
    let mut uses: IdentIndex<'a> = BTreeMap::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if !in_scope(ws, fi) {
            continue;
        }
        for (n, t) in f.sig_tokens() {
            if t.kind == TokKind::Ident
                && !f.in_test_code(t.start)
                && !not_uses[fi].iter().any(|&(s, e)| t.start >= s && t.start < e)
            {
                uses.entry(t.text(&f.text)).or_default().push((fi, n));
            }
        }
    }
    uses
}

/// Byte offset of the significant token at `(file, sig position)`.
fn site_byte(ws: &Workspace<'_>, (fi, n): (usize, usize)) -> usize {
    ws.files[fi].sig_tok(n).map_or(0, |t| t.start)
}

/// Is a `(file, byte)` position inside one of the `(file, start, end)` spans?
fn inside(spans: &[(usize, usize, usize)], fi: usize, byte: usize) -> bool {
    spans
        .iter()
        .any(|&(of, s, e)| of == fi && byte >= s && byte < e)
}

/// How many types (struct, enum, union, trait) of each name each crate
/// declares outside test code. A type's impls are told apart from another
/// type's only when its name is unique in its crate.
fn types_per_crate<'s>(ws: &'s Workspace<'_>) -> BTreeMap<(&'s str, &'s str), usize> {
    let mut out = BTreeMap::new();
    ws.for_each_item(|r| {
        if is_type(r.item.kind) && !ws.files[r.file].in_test_code(r.item.start) {
            let key = (crate_key(&ws.files[r.file].rel), r.item.name.as_str());
            *out.entry(key).or_default() += 1;
        }
    });
    out
}

fn is_type(k: ItemKind) -> bool {
    matches!(
        k,
        ItemKind::Struct | ItemKind::Enum | ItemKind::Union | ItemKind::Trait
    )
}

fn dead_pub(ws: &Workspace<'_>, uses: &IdentIndex<'_>, out: &mut PassResult) {
    // A type's impls (`impl Pipe`, `impl Persist for Pipe`) belong to its
    // declaration — but only when its name is unique in its crate, so a
    // name collision never discounts another type's uses.
    let types_per_crate = types_per_crate(ws);
    let impls = ws.impls();
    ws.for_each_item(|r| {
        let kind = r.item.kind;
        let enrolled =
            is_type(kind) || matches!(kind, ItemKind::Fn | ItemKind::Const | ItemKind::TypeAlias);
        let file = &ws.files[r.file];
        if !enrolled || !r.item.is_pub || !in_scope(ws, r.file) || file.in_test_code(r.item.start) {
            return;
        }
        let name = r.item.name.as_str();
        let krate = crate_key(&file.rel);
        let mut own = vec![(r.file, r.item.start, r.item.end)];
        if is_type(kind) && types_per_crate.get(&(krate, name)) == Some(&1) {
            own.extend(
                impls
                    .iter()
                    .filter(|i| crate_key(&ws.files[i.file].rel) == krate)
                    .filter(|i| {
                        i.item.impl_self.as_deref() == Some(name)
                            || i.item.impl_trait.as_deref() == Some(name)
                    })
                    .map(|i| (i.file, i.item.start, i.item.end)),
            );
        }
        let used = uses
            .get(name)
            .is_some_and(|sites| sites.iter().any(|&s| !inside(&own, s.0, site_byte(ws, s))));
        if used {
            return;
        }
        out.findings.push(Finding {
            rule: "dead-pub",
            path: file.rel.clone(),
            line: r.item.line,
            col: r.item.col,
            message: format!(
                "`pub` item `{name}` is named by no non-test code outside its own \
                 declaration (re-exports, comments, strings and tests do not count) — \
                 delete it or, if an integration test or simbench keeps it, mark it \
                 `lint:allow(dead-pub): <that user>`"
            ),
        });
    });
}

/// What the code at one identifier token does with a field of that name:
/// `(reads it, sets it)`.
type Touch = (bool, bool);
const NO_TOUCH: Touch = (false, false);
const READ: Touch = (true, false);
const SET: Touch = (false, true);

/// The sig position of the bracket closing the one opened at `open`.
fn close_of(f: &SourceFile, open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while let Some(t) = f.sig_tok(k) {
        match t.kind {
            TokKind::Punct(b'(' | b'[' | b'{') => depth += 1,
            TokKind::Punct(b')' | b']' | b'}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        k += 1;
    }
    k
}

/// Classify the identifier at sig position `n` as a field access:
/// * `.name` reads, unless a plain `=` follows (a set), also past an
///   index (`.name[i] = v`); a compound assignment (`.name += 1`) does
///   both, a guard's `.name =>` only reads, and `.name(` is a method
///   call;
/// * `name:` or the shorthand `name` right after the `{` or a `,` of a
///   `Path { … }` group sets the field when the group is a struct literal
///   and reads it when the group is a destructuring pattern.
fn touch(f: &SourceFile, n: usize) -> Touch {
    let p = |k: usize, c: u8| f.sig_is_punct(k, c);
    let glued = |k: usize| match (f.sig_tok(k), f.sig_tok(k + 1)) {
        (Some(a), Some(b)) => a.end == b.start,
        _ => false,
    };
    if n >= 1 && p(n - 1, b'.') && !(n >= 2 && p(n - 2, b'.')) {
        if p(n + 1, b'(') || (p(n + 1, b':') && p(n + 2, b':')) {
            return NO_TOUCH;
        }
        let mut k = n + 1;
        while p(k, b'[') {
            k = close_of(f, k) + 1;
        }
        if p(k, b'=') && !p(k + 1, b'=') && !p(k + 1, b'>') {
            return SET;
        }
        let shift = (p(k, b'<') && p(k + 1, b'<')) || (p(k, b'>') && p(k + 1, b'>'));
        let compound = (b"+-*/%^&|".iter().any(|&c| p(k, c)) && p(k + 1, b'=') && glued(k))
            || (shift && p(k + 2, b'=') && glued(k) && glued(k + 1));
        return if compound { (true, true) } else { READ };
    }
    let after_open = n >= 1 && (p(n - 1, b'{') || p(n - 1, b','));
    let field_like = (p(n + 1, b':') && !p(n + 2, b':')) || p(n + 1, b',') || p(n + 1, b'}');
    if !after_open || !field_like {
        return NO_TOUCH;
    }
    // The innermost open bracket around `n` must be the `{` of a group
    // that follows a path.
    let mut depth = 0usize;
    let mut k = n;
    let open = loop {
        if k == 0 {
            return NO_TOUCH;
        }
        k -= 1;
        match f.sig_tok(k).map(|t| t.kind) {
            Some(TokKind::Punct(b')' | b']' | b'}')) => depth += 1,
            Some(TokKind::Punct(c @ (b'(' | b'[' | b'{'))) => {
                if depth > 0 {
                    depth -= 1;
                } else if c == b'{' {
                    break k;
                } else {
                    return NO_TOUCH;
                }
            }
            _ => {}
        }
    };
    if open == 0 || f.sig_tok(open - 1).map(|t| t.kind) != Some(TokKind::Ident) {
        return NO_TOUCH;
    }
    // A pattern ends in a rest `..}`, or is followed (past any closing
    // brackets of an enclosing pattern) by `=`/`=>` (let, if let, match
    // arm), `:` (fn parameter), `in` (for) or `if` (match guard).
    let close = close_of(f, open);
    let rest = p(close - 1, b'.') && p(close - 2, b'.');
    let mut k = close + 1;
    while p(k, b')') || p(k, b']') {
        k += 1;
    }
    let pattern = rest
        || (p(k, b'=') && !p(k + 1, b'='))
        || (p(k, b':') && !p(k + 1, b':'))
        || f.sig_is_ident(k, "in")
        || f.sig_is_ident(k, "if");
    if pattern {
        READ
    } else {
        SET
    }
}

/// Does a struct's attribute list derive `Default`?
fn derives_default(f: &SourceFile, item: &Item) -> bool {
    let first = f.sig.partition_point(|&ti| f.tokens[ti].start < item.start);
    (first..)
        .take_while(|&n| {
            f.sig_tok(n).is_some() && !f.sig_is_ident(n, "struct") && !f.sig_is_ident(n, "union")
        })
        .any(|n| f.sig_is_ident(n, "Default"))
}

fn dead_field(ws: &Workspace<'_>, uses: &IdentIndex<'_>, out: &mut PassResult) {
    // A field's name inside any type declaration is neither a read nor a
    // set.
    let mut decls = vec![];
    ws.for_each_item(|r| {
        if matches!(
            r.item.kind,
            ItemKind::Struct | ItemKind::Union | ItemKind::Enum
        ) {
            decls.push((r.file, r.item.start, r.item.end));
        }
    });
    let types_per_crate = types_per_crate(ws);
    let impls = ws.impls();
    for s in ws.structs() {
        if !in_scope(ws, s.file) {
            continue;
        }
        let file = &ws.files[s.file];
        let (name, krate) = (s.item.name.as_str(), crate_key(&file.rel));
        let defaults: Vec<(usize, usize, usize)> = impls
            .iter()
            .filter(|i| crate_key(&ws.files[i.file].rel) == krate)
            .filter(|i| {
                i.item.impl_trait.as_deref() == Some("Default")
                    && i.item.impl_self.as_deref() == Some(name)
            })
            .map(|i| (i.file, i.item.start, i.item.end))
            .collect();
        let has_default = !defaults.is_empty() || derives_default(file, s.item);
        // What the Default impl sets is the default, not a setting — but
        // only a uniquely named type's impl is surely its own.
        let unique = types_per_crate.get(&(krate, name)) == Some(&1);
        for field in s.item.fields.iter().filter(|f| f.is_pub) {
            let (mut read, mut set) = (false, false);
            for &site in uses.get(field.name.as_str()).into_iter().flatten() {
                let byte = site_byte(ws, site);
                if inside(&decls, site.0, byte) {
                    continue;
                }
                let (r, s) = touch(&ws.files[site.0], site.1);
                read |= r;
                set |= s && !(unique && inside(&defaults, site.0, byte));
            }
            let what = if !read {
                "is read by no non-test code (a read is `.name` not followed by `=`, \
                 or a destructuring pattern)"
            } else if has_default && !set {
                "of a `Default` struct is set by no non-test code outside the \
                 `Default` impl (a struct literal `name:` or `name`, or `.name =`), \
                 so it is a knob with one value"
            } else {
                continue;
            };
            out.findings.push(Finding {
                rule: "dead-field",
                path: file.rel.clone(),
                line: field.line,
                col: field.col,
                message: format!(
                    "`pub` field `{name}.{}` {what}; tests, comments and strings do not \
                     count — delete it or, if an integration test or artifact needs it, \
                     mark it `lint:allow(dead-field): <that user>`",
                    field.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(specs: &[(&str, &str)]) -> PassResult {
        let files: Vec<SourceFile> = specs
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src.to_string()))
            .collect();
        let ws = Workspace::build(&files);
        run_workspace_passes(&ws, false)
    }

    #[test]
    fn snapshot_missing_field_in_save_is_flagged() {
        let src = "struct S { a: u64, b: u64 }\n\
                   impl Persist for S {\n\
                   fn save(&self, w: &mut Enc) { w.put_u64(self.a); }\n\
                   fn load(r: &mut Dec) -> Result<S, E> { Ok(S { a: r.u64()?, b: 0 }) }\n\
                   }\n";
        let out = run_on(&[("crates/des/src/x.rs", src)]);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        let f = &out.findings[0];
        assert_eq!(f.rule, "snapshot-completeness");
        assert!(f.message.contains("`S.b`"));
        assert!(f.message.contains("`save`"));
    }

    #[test]
    fn snapshot_exempt_marker_is_honored_and_consumed() {
        let src = "struct S {\n    a: u64,\n    // lint:allow(snapshot-exempt): derived from a at load\n    b: u64,\n}\n\
                   impl Persist for S {\n\
                   fn save(&self, w: &mut Enc) { w.put_u64(self.a); }\n\
                   fn load(r: &mut Dec) -> Result<S, E> { let a = r.u64()?; Ok(S { a, b: a * 2 }) }\n\
                   }\n";
        let out = run_on(&[("crates/des/src/x.rs", src)]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.consumed.len(), 1);
    }

    #[test]
    fn snapshot_resolves_cross_file_within_crate_and_enrolls_helpers() {
        let def = "pub struct Outer { hot: Vec<Inner> }\npub struct Inner { x: u64, y: u64 }\n";
        let imp = "impl Persist for Outer {\n\
                   fn save(&self, w: &mut Enc) { for h in &self.hot { w.put_u64(h.x); w.put_u64(h.y); } }\n\
                   fn load(r: &mut Dec) -> Result<Self, E> { let hot = vec![Inner { x: r.u64()?, y: 0 }]; Ok(Outer { hot }) }\n\
                   }\n";
        // Compliant: both Inner fields appear in both bodies (y is read in
        // save and named in load's literal).
        let out = run_on(&[("crates/a/src/def.rs", def), ("crates/a/src/imp.rs", imp)]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        // Drift: Inner gains `z`, codec untouched → exactly one finding.
        let def2 = "pub struct Outer { hot: Vec<Inner> }\npub struct Inner { x: u64, y: u64, z: u64 }\n";
        let out2 = run_on(&[("crates/a/src/def.rs", def2), ("crates/a/src/imp.rs", imp)]);
        assert_eq!(out2.findings.len(), 1, "{:?}", out2.findings);
        assert!(out2.findings[0].message.contains("`Inner.z`"));
    }

    #[test]
    fn snapshot_skips_test_structs_tuple_structs_and_foreign_types() {
        let src = "struct T(u64);\n\
                   impl Persist for T { fn save(&self, w: &mut Enc) {} fn load(r: &mut Dec) -> Result<T, E> { Ok(T(0)) } }\n\
                   impl Persist for u64 { fn save(&self, w: &mut Enc) {} fn load(r: &mut Dec) -> Result<u64, E> { Ok(0) } }\n";
        let out = run_on(&[("crates/des/src/x.rs", src)]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unprojected_counter_is_flagged() {
        let src = "pub struct Acc { hits: u64, misses: u64 }\n\
                   impl SimMetrics { fn from_model(m: &M) -> u64 { m.acc.hits } }\n";
        let out = run_on(&[("crates/core/src/m.rs", src)]);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "metrics-merge-completeness");
        assert!(out.findings[0].message.contains("`Acc.misses`"));
        assert!(out.findings[0].message.contains("from_model"));
    }

    #[test]
    fn ledger_field_outside_conservation_is_flagged() {
        let src = "pub struct SimMetrics { lost_fire: u64, duration_s: f64 }\n\
                   pub fn conservation_violation(m: &SimMetrics) -> Option<String> { let _ = m.duration_s; None }\n";
        let out = run_on(&[("crates/core/src/m.rs", src)]);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("`SimMetrics.lost_fire`"));
        // Non-ledger fields (duration_s) are not required.
    }

    #[test]
    fn merge_exempt_marker_is_honored() {
        let src = "pub struct Acc {\n    hits: u64,\n    // lint:allow(merge-exempt): recomputed per cell, never summed\n    scratch: u64,\n}\n\
                   impl SimMetrics { fn from_model(m: &M) -> u64 { m.acc.hits } }\n";
        let out = run_on(&[("crates/core/src/m.rs", src)]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.consumed.len(), 1);
    }

    /// Names of the dead-pub findings over a multi-file workspace.
    fn dead(specs: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<SourceFile> = specs
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src.to_string()))
            .collect();
        let ws = Workspace::build(&files);
        let mut out = PassResult {
            findings: vec![],
            consumed: vec![],
        };
        dead_pub(&ws, &ident_index(&ws), &mut out);
        out.findings
            .iter()
            .map(|f| f.message.split('`').nth(3).unwrap_or_default().to_string())
            .collect()
    }

    /// `Struct.field` of every dead-field finding, with ` R` (never read)
    /// or ` S` (never set) appended.
    fn dead_fields(specs: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<SourceFile> = specs
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src.to_string()))
            .collect();
        let ws = Workspace::build(&files);
        let mut out = PassResult {
            findings: vec![],
            consumed: vec![],
        };
        dead_field(&ws, &ident_index(&ws), &mut out);
        out.findings
            .iter()
            .map(|f| {
                let kind = if f.message.contains("is read by no") {
                    "R"
                } else {
                    "S"
                };
                format!("{} {kind}", f.message.split('`').nth(3).unwrap_or_default())
            })
            .collect()
    }

    #[test]
    fn dead_field_flags_a_field_no_code_reads() {
        let def = "pub struct M { pub used: u64, pub unused: u64, hidden: u64 }\n";
        let user = "fn mk() -> M { M { used: 1, unused: 2, hidden: 3 } }\n\
                    fn get(m: &M) -> u64 { m.used }\n";
        // A literal sets `unused` but nothing reads it; private fields are
        // rustc's business.
        let specs = [("crates/a/src/def.rs", def), ("crates/a/src/user.rs", user)];
        assert_eq!(dead_fields(&specs), ["M.unused R"]);
        // A plain `.unused =` is a set, not a read, and a test's read does
        // not count.
        let user2 = "fn f(m: &mut M) { m.unused = 4; }\n\
                     #[cfg(test)]\nmod tests { fn t(m: &super::M) -> u64 { m.unused } }\n";
        let specs = [
            ("crates/a/src/def.rs", def),
            ("crates/a/src/user.rs", user),
            ("crates/a/src/u2.rs", user2),
        ];
        assert_eq!(dead_fields(&specs), ["M.unused R"]);
    }

    #[test]
    fn dead_field_reads_comparisons_compound_sets_guards_and_patterns() {
        let def = "pub struct M { pub a: u64, pub b: u64, pub c: u64, pub d: u64, pub e: u64 }\n";
        let user = "fn f(m: &mut M, x: Option<M>) -> bool {\n\
                    m.a += 1;\n\
                    let M { b, .. } = m;\n\
                    if let Some(M { c: _c, d: _, e: _ }) = x { return true; }\n\
                    m.d == 0\n\
                    }\n";
        let specs = [("crates/a/src/def.rs", def), ("crates/a/src/u.rs", user)];
        assert!(dead_fields(&specs).is_empty(), "{:?}", dead_fields(&specs));
        let def = "pub struct G { pub on: bool }\n";
        let guard = "fn g(x: &G) -> u8 { match 0 { _ if x.on => 1, _ => 0 } }\n";
        let specs = [("crates/a/src/def.rs", def), ("crates/a/src/g.rs", guard)];
        assert!(dead_fields(&specs).is_empty(), "{:?}", dead_fields(&specs));
    }

    #[test]
    fn dead_field_flags_a_default_knob_nothing_sets() {
        // `knob` is read, but only the derived Default ever gives it a
        // value; a literal sets `set`, an indexed compound assignment
        // sets `acc`.
        let def = "#[derive(Clone, Default)]\n\
                   pub struct Cfg { pub knob: u8, pub set: u8, pub acc: [u64; 2] }\n";
        let user = "fn mk() -> Cfg { Cfg { set: 1, ..Default::default() } }\n\
                    fn get(c: &mut Cfg) -> u8 { c.acc[0] += 1; c.knob + c.set + c.acc[1] as u8 }\n";
        let specs = [("crates/a/src/def.rs", def), ("crates/a/src/u.rs", user)];
        assert_eq!(dead_fields(&specs), ["Cfg.knob S"]);
        // A manual Default's literal is the default, not a setting.
        let manual = "pub struct K { pub knob: u8 }\n\
                      impl Default for K { fn default() -> Self { K { knob: 3 } } }\n\
                      fn read(k: &K) -> u8 { k.knob }\n";
        assert_eq!(dead_fields(&[("crates/a/src/k.rs", manual)]), ["K.knob S"]);
        // Without a Default, a read field needs no setter.
        let plain = "pub struct P { pub x: u8 }\nfn read(p: &P) -> u8 { p.x }\n";
        assert!(dead_fields(&[("crates/a/src/p.rs", plain)]).is_empty());
    }

    #[test]
    fn dead_field_collisions_hide_findings_and_never_create_them() {
        // `Other` sets and reads a field of the same name, which then
        // counts for `K.knob` too.
        let k = "pub struct K { pub knob: u8 }\n\
                 impl Default for K { fn default() -> Self { K { knob: 3 } } }\n";
        let other = "pub struct Other { pub knob: u8 }\n\
                     fn mk() -> u8 { let o = Other { knob: 1 }; o.knob }\n";
        let specs = [("crates/a/src/k.rs", k), ("crates/b/src/o.rs", other)];
        assert!(dead_fields(&specs).is_empty(), "{:?}", dead_fields(&specs));
    }

    #[test]
    fn dead_pub_item_used_only_by_its_own_tests_is_flagged() {
        let src = "pub fn helper() -> u8 { 1 }\n\
                   #[cfg(test)]\nmod tests { #[test] fn t() { assert_eq!(super::helper(), 1); } }\n";
        assert_eq!(dead(&[("crates/a/src/lib.rs", src)]), ["helper"]);
        // An integration test is a test too.
        let user = "fn t() { paradyn_a::helper(); }\n";
        assert_eq!(
            dead(&[("crates/a/src/lib.rs", src), ("tests/t.rs", user)]),
            ["helper"]
        );
    }

    #[test]
    fn dead_pub_item_used_from_another_files_code_is_not_flagged() {
        let def = "pub struct Knob { x: u8 }\nimpl Knob { pub fn get(&self) -> u8 { self.x } }\n";
        let user = "pub fn read(k: &crate::Knob) -> u8 { k.get() }\nfn main() { read; }\n";
        let found = dead(&[("crates/a/src/def.rs", def), ("crates/b/src/main.rs", user)]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn dead_pub_item_reached_only_through_a_reexport_is_flagged() {
        let lib = "pub mod m;\npub use m::Gone;\n";
        let m = "pub struct Gone;\nimpl Gone { fn new() -> Gone { Gone } }\n";
        let found = dead(&[("crates/a/src/lib.rs", lib), ("crates/a/src/m.rs", m)]);
        // Its own impl does not keep it alive either.
        assert_eq!(found, ["Gone"]);
    }

    #[test]
    fn dead_pub_names_in_comments_and_strings_do_not_count() {
        let def = "pub const LIMIT: u32 = 4;\n";
        let user = "/// Bounded by [`LIMIT`].\nfn f() -> &'static str { \"LIMIT\" } // LIMIT\n";
        assert_eq!(
            dead(&[("crates/a/src/def.rs", def), ("crates/a/src/user.rs", user)]),
            ["LIMIT"]
        );
    }

    #[test]
    fn dead_pub_collisions_hide_findings_and_never_create_them() {
        // Two dead fns of one name in different modules do not keep each
        // other alive: a declaration is not a use.
        let a = "pub fn sweep() {}\n";
        let b = "pub fn sweep() {}\n";
        assert_eq!(
            dead(&[("crates/a/src/x.rs", a), ("crates/a/src/y.rs", b)]),
            ["sweep", "sweep"]
        );
        // A use of the name anywhere keeps every item of that name alive.
        let user = "fn main() { crate::x::sweep(); }\n";
        let found = dead(&[
            ("crates/a/src/x.rs", a),
            ("crates/a/src/y.rs", b),
            ("crates/a/src/main.rs", user),
        ]);
        assert!(found.is_empty(), "{found:?}");
        // Two types of one name in a crate: their impls are not told apart,
        // so they count as uses of both.
        let t1 = "pub struct T;\nimpl T { fn f() {} }\n";
        let found = dead(&[("crates/a/src/x.rs", t1), ("crates/a/src/y.rs", t1)]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn dead_pub_skips_private_and_test_items_and_other_workspaces() {
        let src = "fn private() {}\n#[cfg(test)]\nmod tests { pub fn scaffold() {} }\n";
        assert!(dead(&[("crates/a/src/lib.rs", src)]).is_empty());
        // simbench's own items are not enrolled, and its uses do not count.
        let bench = "pub fn only_here() { paradyn_a::kept_for_bench(); }\n";
        let lib = "pub fn kept_for_bench() {}\n";
        assert_eq!(
            dead(&[("simbench/src/main.rs", bench), ("crates/a/src/lib.rs", lib)]),
            ["kept_for_bench"]
        );
    }

    #[test]
    fn strict_mode_flags_missing_anchors() {
        let files: Vec<SourceFile> =
            vec![SourceFile::parse("crates/core/src/m.rs", "pub struct Acc { hits: u64 }\n".into())];
        let ws = Workspace::build(&files);
        let out = run_workspace_passes(&ws, true);
        // Missing: SimMetrics struct, from_model. (No conservation finding
        // without a SimMetrics to anchor it.)
        let msgs: Vec<&str> = out.findings.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("`SimMetrics`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`from_model`")), "{msgs:?}");
    }
}
