//! Workspace consistency passes over the item model ([`crate::model`]):
//!
//! * **snapshot-completeness** — every field of a type with a
//!   `Persist`/`PersistState` impl must be referenced in both the save
//!   and the load body, with `lint:allow(snapshot-exempt)` for deliberate
//!   exclusions (derived or config-owned state);
//! * **metrics-merge-completeness** — every `Acc` counter must survive
//!   the reporting projection (`SimMetrics::from_model`), and every
//!   ledger-class `SimMetrics` field must appear in the conservation
//!   identity (`conservation_violation`).
//!
//! Each pass reports which marker allows it consumed, so the engine's
//! suppression hygiene can flag stale `snapshot-exempt`/`merge-exempt`
//! comments exactly like unused `lint:allow`s.

use crate::model::{crate_key, ItemRef, Workspace};
use crate::parse::{FieldDef, Item, ItemKind};
use crate::rules::Finding;
use crate::source::SourceFile;

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

/// Run both passes. `strict` additionally fails when a pass's anchor
/// (the `Acc`/`SimMetrics` structs, `SimMetrics::from_model`,
/// `conservation_violation`) cannot be found — a renamed anchor must turn
/// the gate red, not silently blind the pass. Single-file harnesses
/// (`lint_source`) run non-strict.
pub fn run_workspace_passes(ws: &Workspace<'_>, strict: bool) -> PassResult {
    let mut out = PassResult {
        findings: vec![],
        consumed: vec![],
    };
    snapshot_completeness(ws, &mut out);
    metrics_merge_completeness(ws, strict, &mut out);
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
