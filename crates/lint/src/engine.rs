//! The lint engine: workspace walk, the item-model passes, suppression
//! handling, the baseline ratchet, and report emission (human text and
//! `paradyn.lint.v1` JSON).

use crate::model::Workspace;
use crate::passes::{self, MARKERS};
use crate::rules::{self, Finding, StreamIdEntry, RULES};
use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// Engine options.
pub struct Options {
    /// Workspace root (the directory holding `Cargo.toml` and `crates/`).
    pub root: PathBuf,
    /// Baseline file; defaults to `<root>/lint-baseline.txt`. A missing
    /// file is an empty baseline.
    pub baseline: Option<PathBuf>,
}

/// One baseline entry: up to `count` findings of `rule` in `path` are
/// accepted as legacy debt. The gate is ratchet-only — the engine fails
/// when the actual count moves in *either* direction, so the file can
/// never silently go stale.
#[derive(Clone, Debug)]
pub struct BaselineEntry {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// Number of accepted legacy findings.
    pub count: usize,
    /// Why the debt is acceptable (mandatory).
    pub justification: String,
}

/// A `(rule, path)` group currently absorbed by the baseline.
#[derive(Clone, Debug)]
pub struct Baselined {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// How many findings the baseline absorbed here.
    pub allowed: usize,
}

/// The result of a full lint pass.
pub struct Report {
    /// Active findings — anything non-empty means the gate is red.
    pub findings: Vec<Finding>,
    /// Findings silenced by justified `lint:allow` comments.
    pub suppressed: usize,
    /// Findings absorbed by the baseline ratchet.
    pub baselined: Vec<Baselined>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The collected RNG stream-id registry.
    pub stream_registry: Vec<StreamIdEntry>,
}

impl Report {
    /// True when no active findings remain.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n",
                f.path, f.line, f.col, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "paradyn-lint: {} file(s), {} finding(s), {} suppressed, {} baselined group(s): {}\n",
            self.files_scanned,
            self.findings.len(),
            self.suppressed,
            self.baselined.len(),
            if self.clean() { "clean" } else { "FAIL" }
        ));
        out
    }

    /// Machine-readable report (`paradyn.lint.v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"paradyn.lint.v1\",\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"rules\": [\n");
        for (i, (name, desc)) in RULES.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"description\": {}}}{}\n",
                json_str(name),
                json_str(desc),
                comma(i, RULES.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"markers\": [\n");
        for (i, (name, desc)) in MARKERS.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"description\": {}}}{}\n",
                json_str(name),
                json_str(desc),
                comma(i, MARKERS.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}{}\n",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                f.col,
                json_str(&f.message),
                comma(i, self.findings.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        out.push_str("  \"baselined\": [\n");
        for (i, b) in self.baselined.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"allowed\": {}}}{}\n",
                json_str(&b.rule),
                json_str(&b.path),
                b.allowed,
                comma(i, self.baselined.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"stream_registry\": [\n");
        for (i, e) in self.stream_registry.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"id\": {}, \"path\": {}, \"line\": {}}}{}\n",
                json_str(&e.name),
                e.id,
                json_str(&e.path),
                e.line,
                comma(i, self.stream_registry.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"clean\": {}\n", self.clean()));
        out.push_str("}\n");
        out
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `use`-path allowlist the hermeticity rule runs against: underscore
/// forms of every workspace crate name, read from the manifests. Exposed
/// so `tests/hermetic.rs` can cross-check it against the manifest-level
/// offline guard — the two mechanisms must never disagree about what "in
/// the workspace" means.
pub fn workspace_crate_allowlist(root: &Path) -> Result<Vec<String>, String> {
    let mut names = vec![];
    let crates = root.join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .map_err(|e| format!("read {}: {e}", crates.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    for dir in dirs {
        if let Some(name) = manifest_package_name(&dir.join("Cargo.toml"))? {
            names.push(name.replace('-', "_"));
        }
    }
    // The root package, when present (the mutation self-check may lint a
    // partial tree).
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        if let Some(name) = manifest_package_name(&root_manifest)? {
            names.push(name.replace('-', "_"));
        }
    }
    names.sort();
    names.dedup();
    if names.is_empty() {
        return Err(format!("no workspace crates under {}", crates.display()));
    }
    Ok(names)
}

/// `name = "…"` from a manifest's `[package]` section.
fn manifest_package_name(path: &Path) -> Result<Option<String>, String> {
    let toml =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut in_package = false;
    for raw in toml.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Ok(Some(v.trim().trim_matches('"').to_string()));
                }
            }
        }
    }
    Ok(None)
}

/// All `.rs` files under `root`, sorted, as workspace-relative paths.
fn walk_rs_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = vec![];
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if p.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                let rel = p
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Parse the baseline file. Format, one entry per line:
/// `rule<TAB>path<TAB>count<TAB>justification`; `#` comments and blank
/// lines are skipped.
fn parse_baseline(path: &Path) -> Result<Vec<BaselineEntry>, String> {
    if !path.is_file() {
        return Ok(vec![]);
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = vec![];
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split('\t').collect();
        if parts.len() != 4 {
            return Err(format!(
                "{}:{}: baseline entries are rule<TAB>path<TAB>count<TAB>justification",
                path.display(),
                i + 1
            ));
        }
        let count: usize = parts[2]
            .parse()
            .map_err(|_| format!("{}:{}: bad count `{}`", path.display(), i + 1, parts[2]))?;
        out.push(BaselineEntry {
            rule: parts[0].to_string(),
            path: parts[1].to_string(),
            count,
            justification: parts[3].trim().to_string(),
        });
    }
    Ok(out)
}

/// Run the full pass over a workspace on disk.
pub fn run(opts: &Options) -> Result<Report, String> {
    let crate_names = workspace_crate_allowlist(&opts.root)?;
    let rels = walk_rs_files(&opts.root)?;
    let mut files = Vec::with_capacity(rels.len());
    for rel in &rels {
        let text = std::fs::read_to_string(opts.root.join(rel))
            .map_err(|e| format!("read {rel}: {e}"))?;
        files.push(SourceFile::parse(rel, text));
    }
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| opts.root.join("lint-baseline.txt"));
    let baseline = parse_baseline(&baseline_path)?;
    Ok(lint_files(&files, &crate_names, &baseline))
}

/// The full pass over the lexed files of a whole workspace.
fn lint_files(files: &[SourceFile], crate_names: &[String], baseline: &[BaselineEntry]) -> Report {
    // Pass A: collect the stream-id registry from every file.
    let mut registry: Vec<StreamIdEntry> = vec![];
    for f in files {
        registry.extend(rules::collect_stream_registry(f));
    }

    // Pass B: the item model, the workspace consistency passes (strict —
    // a renamed anchor turns the gate red), and the per-file rules, with
    // suppression filtering applied to both finding sources.
    let ws = Workspace::build(files);
    let pass_out = passes::run_workspace_passes(&ws, true);
    let mut used: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.allows.len()]).collect();
    for &(fi, ai) in &pass_out.consumed {
        used[fi][ai] = true;
    }
    let mut active: Vec<Finding> = rules::rng_registry_collisions(&registry);
    let mut suppressed = 0usize;
    let suppress = |fi: usize,
                        finding: Finding,
                        used: &mut Vec<Vec<bool>>,
                        suppressed: &mut usize,
                        active: &mut Vec<Finding>| {
        let f = &files[fi];
        let hit = f.allows.iter().position(|a| {
            a.justified
                && a.rule == finding.rule
                && (a.line == finding.line || a.line + 1 == finding.line)
        });
        match hit {
            Some(i) => {
                used[fi][i] = true;
                *suppressed += 1;
            }
            None => active.push(finding),
        }
    };
    for finding in pass_out.findings {
        // Workspace-pass findings carry the path of the body (or anchor)
        // they implicate; route them through that file's allows. Anchor
        // findings with a pseudo-path stay active unconditionally.
        match files.iter().position(|f| f.rel == finding.path) {
            Some(fi) => suppress(fi, finding, &mut used, &mut suppressed, &mut active),
            None => active.push(finding),
        }
    }
    for (fi, f) in files.iter().enumerate() {
        let local_items = ws.declared_names(fi);
        let raw = rules::run_file_rules(f, &registry, crate_names, &local_items);
        for finding in raw {
            suppress(fi, finding, &mut used, &mut suppressed, &mut active);
        }
    }
    // Suppression hygiene: every allow must name a real rule or pass
    // marker, carry a justification, and actually suppress (or, for a
    // marker, exempt) something.
    for (fi, f) in files.iter().enumerate() {
        for (i, a) in f.allows.iter().enumerate() {
            let is_rule = RULES.iter().any(|(n, _)| *n == a.rule);
            let is_marker = MARKERS.iter().any(|(n, _)| *n == a.rule);
            let problem = if !is_rule && !is_marker {
                Some(format!("unknown rule `{}` in lint:allow", a.rule))
            } else if !a.justified {
                Some(format!(
                    "lint:allow({}) without a justification — write \
                     `lint:allow({}): <why this site is safe>`",
                    a.rule, a.rule
                ))
            } else if !used[fi][i] {
                Some(if is_marker {
                    format!(
                        "unused lint:allow({}) — no enrolled field on this or \
                         the next line; remove it",
                        a.rule
                    )
                } else {
                    format!(
                        "unused lint:allow({}) — no finding on this or the next \
                         line; remove it",
                        a.rule
                    )
                })
            } else {
                None
            };
            if let Some(message) = problem {
                active.push(Finding {
                    rule: "suppression",
                    path: f.rel.clone(),
                    line: a.line,
                    col: a.col,
                    message,
                });
            }
        }
    }

    // Pass C: the baseline ratchet.
    let mut baselined = vec![];
    for entry in baseline {
        if entry.justification.is_empty() {
            active.push(Finding {
                rule: "baseline",
                path: entry.path.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "baseline entry ({}, {}) has no justification",
                    entry.rule, entry.path
                ),
            });
            continue;
        }
        let matching: Vec<usize> = active
            .iter()
            .enumerate()
            .filter(|(_, f)| f.rule == entry.rule && f.path == entry.path)
            .map(|(i, _)| i)
            .collect();
        let found = matching.len();
        if found == entry.count {
            // Absorb them, newest-index first so removal is stable.
            for &i in matching.iter().rev() {
                active.remove(i);
            }
            baselined.push(Baselined {
                rule: entry.rule.clone(),
                path: entry.path.clone(),
                allowed: entry.count,
            });
        } else if found < entry.count {
            active.push(Finding {
                rule: "baseline",
                path: entry.path.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "stale baseline: ({}, {}) allows {} finding(s) but only {} \
                     remain — ratchet the count down to {}",
                    entry.rule, entry.path, entry.count, found, found
                ),
            });
        } else {
            active.push(Finding {
                rule: "baseline",
                path: entry.path.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "({}, {}) grew to {} finding(s), above its baseline of {} — \
                     fix the new site(s), do not raise the baseline",
                    entry.rule, entry.path, found, entry.count
                ),
            });
        }
    }

    active.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Report {
        findings: active,
        suppressed,
        baselined,
        files_scanned: files.len(),
        stream_registry: registry,
    }
}

/// Lint a single in-memory source file (no baseline, no suppression, no
/// cross-file rules except registry collisions within the same file; the
/// workspace passes run non-strict, so missing anchors do not fire). Used
/// by tests and by the seeded-violation self-checks.
// lint:allow(dead-pub): the seeded-violation checks of tests/lint_clean.rs
pub fn lint_source(rel: &str, text: &str, crate_names: &[String]) -> Vec<Finding> {
    let files = vec![SourceFile::parse(rel, text.to_string())];
    let ws = Workspace::build(&files);
    let f = &files[0];
    let registry = rules::collect_stream_registry(f);
    let mut out = rules::rng_registry_collisions(&registry);
    out.extend(rules::run_file_rules(f, &registry, crate_names, &ws.declared_names(0)));
    out.extend(passes::run_workspace_passes(&ws, false).findings);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_quotes_and_control_bytes() {
        assert_eq!(json_str("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn lint_source_flags_a_seeded_wall_clock_read() {
        let names = vec!["paradyn_stats".to_string()];
        let bad = "pub fn sneaky() -> u64 { let t = std::time::Instant::now(); 0 }";
        let hits = lint_source("crates/des/src/lib.rs", bad, &names);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "wall-clock");
        // The same code in bench is fine.
        assert!(lint_source("crates/bench/src/lib.rs", bad, &names).is_empty());
    }

    /// Findings of `rule` over an in-memory workspace, as `(path, line)`.
    fn workspace_findings(specs: &[(&str, &str)], rule: &str) -> Vec<(String, u32)> {
        let files: Vec<SourceFile> = specs
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src.to_string()))
            .collect();
        let report = lint_files(&files, &["paradyn_a".to_string()], &[]);
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| (f.path.clone(), f.line))
            .collect()
    }

    #[test]
    fn justified_dead_pub_allow_suppresses_the_finding() {
        let bare = "pub fn for_tests() {}\n";
        assert_eq!(
            workspace_findings(&[("crates/a/src/lib.rs", bare)], "dead-pub"),
            [("crates/a/src/lib.rs".to_string(), 1)]
        );
        let allowed = "// lint:allow(dead-pub): tests/t.rs drives it\npub fn for_tests() {}\n";
        let specs = [("crates/a/src/lib.rs", allowed)];
        assert!(workspace_findings(&specs, "dead-pub").is_empty());
        assert!(workspace_findings(&specs, "suppression").is_empty());
        // Without a justification the allow is itself a finding.
        let unjustified = "// lint:allow(dead-pub)\npub fn for_tests() {}\n";
        assert_eq!(
            workspace_findings(&[("crates/a/src/lib.rs", unjustified)], "suppression").len(),
            1
        );
    }

    #[test]
    fn justified_dead_field_allow_suppresses_the_finding() {
        let bare = "pub struct S {\n    pub kept: u8,\n}\nfn mk() -> S { S { kept: 1 } }\n";
        assert_eq!(
            workspace_findings(&[("crates/a/src/lib.rs", bare)], "dead-field"),
            [("crates/a/src/lib.rs".to_string(), 2)]
        );
        let allowed = "pub struct S {\n    // lint:allow(dead-field): tests/t.rs reads it\n    \
                       pub kept: u8,\n}\nfn mk() -> S { S { kept: 1 } }\n";
        let specs = [("crates/a/src/lib.rs", allowed)];
        assert!(workspace_findings(&specs, "dead-field").is_empty());
        assert!(workspace_findings(&specs, "suppression").is_empty());
    }

    #[test]
    fn stale_dead_pub_allow_is_flagged() {
        let src = "// lint:allow(dead-pub): once kept for a test\npub fn live() {}\n\
                   fn main() { live(); }\n";
        assert!(workspace_findings(&[("crates/a/src/main.rs", src)], "dead-pub").is_empty());
        assert_eq!(
            workspace_findings(&[("crates/a/src/main.rs", src)], "suppression"),
            [("crates/a/src/main.rs".to_string(), 1)]
        );
    }

    #[test]
    fn empty_baseline_file_is_fine_and_missing_file_is_empty() {
        assert!(parse_baseline(Path::new("/nonexistent/x.txt")).unwrap().is_empty());
    }

    #[test]
    fn baseline_lines_must_have_four_fields() {
        let dir = std::env::temp_dir().join("paradyn_lint_bl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bl.txt");
        std::fs::write(&p, "# comment\npanic-path\tfoo.rs\t3\tlegacy tests\n").unwrap();
        let b = parse_baseline(&p).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!((b[0].count, b[0].rule.as_str()), (3, "panic-path"));
        std::fs::write(&p, "panic-path\tfoo.rs\t3\n").unwrap();
        assert!(parse_baseline(&p).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
