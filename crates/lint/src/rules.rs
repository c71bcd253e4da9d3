//! The lint rules. Each rule is a pure function from an annotated source
//! file (plus a little workspace context) to findings; the engine owns
//! file walking, suppression, and baselining.
//!
//! Every rule guards an invariant that a tier-1 test already relies on at
//! runtime (see DESIGN.md §7) — the lint makes the invariant hold for all
//! seeds and configurations, not just the ones a test happens to exercise.

use crate::lexer::TokKind;
use crate::source::SourceFile;

/// One lint finding, before suppression/baseline filtering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (one of [`RULES`], or the meta-rules `suppression`
    /// / `baseline` the engine itself emits).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Rule registry: `(name, what it enforces)`.
pub const RULES: &[(&str, &str)] = &[
    (
        "wall-clock",
        "Instant/SystemTime are forbidden outside crates/bench and crates/testbed: \
         model and analysis code must use simulated time only, or replication is \
         no longer bit-identical",
    ),
    (
        "unordered-iteration",
        "HashMap/HashSet are forbidden in non-test code of the simulation crates \
         (core, des, analytic, workload, stats): iteration order varies between \
         runs and would break deterministic replication",
    ),
    (
        "panic-path",
        "unwrap()/expect()/panic! are forbidden on the testbed decode/I-O paths, \
         and the DES hot path: a truncated record or \
         full pipe must surface as an error, not abort the measurement",
    ),
    (
        "rng-stream-id",
        "RNG stream ids must come from the stream_kind registry; raw literal ids \
         can silently collide with an allocated stream (fault streams 11-13, \
         controller streams 14-15, chaos stream 16) and \
         correlate supposedly independent draws",
    ),
    (
        "hot-path-alloc",
        "Box::new/Vec::new/.clone()/.to_vec() are forbidden in non-test code of \
         the per-event hot-path files (engine, calendar, daemon, \
         degrade, pipe): \
         the steady state is budgeted to zero heap allocations per delivered \
         event (tests/zero_alloc.rs measures it; this rule makes it hold for \
         all paths, not just the ones the test drives)",
    ),
    (
        "hermeticity",
        "use/extern-crate paths must resolve to std or a workspace crate: the \
         build is offline-hermetic and a registry dependency would break it \
         (tests/hermetic.rs checks manifests; this rule checks sources)",
    ),
    (
        "snapshot-completeness",
        "every field of a type with a Persist/PersistState impl must be \
         referenced in both the save and the load body: a field missing from \
         either silently drops state across checkpoint/fork/rewind, which the \
         equivalence suite only spot-checks per seed — deliberate exclusions \
         carry lint:allow(snapshot-exempt) on the field",
    ),
    (
        "metrics-merge-completeness",
        "every Acc counter must appear in the reporting projection \
         (SimMetrics::from_model), and every ledger-class SimMetrics field in \
         the conservation identity (conservation_violation): a counter outside \
         either leaks \
         samples past the conservation gate — deliberate exclusions carry \
         lint:allow(merge-exempt) on the field",
    ),
    (
        "dead-pub",
        "every pub fn, struct, enum, trait, const, static and type alias must \
         be named by an identifier in non-test code outside its own \
         declaration and impls (pub use re-exports, comments, strings, tests \
         and the separate simbench workspace do not count): API that nothing \
         reads is code to maintain for no reproduced result — an item kept for \
         an integration test or simbench carries lint:allow(dead-pub) naming \
         that user",
    ),
];

/// Directories whose crates may read the wall clock: the bench harness and
/// the real-machine testbed are the only components whose *job* is to
/// measure real time.
const WALL_CLOCK_ALLOWED: &[&str] = &["crates/bench/", "crates/testbed/"];

/// Crates whose non-test code must not iterate unordered containers.
const SIM_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/des/src/",
    "crates/analytic/src/",
    "crates/workload/src/",
    "crates/stats/src/",
];

/// Files on the panic-sensitive paths: testbed record decode / pipe I-O,
/// and the DES engine + calendar hot path. Test code in these files is
/// covered too — a panicking test helper can mask the very error path it
/// exists to exercise — with legacy sites held by the baseline ratchet.
const PANIC_PATHS: &[&str] = &[
    "crates/testbed/src/pipes.rs",
    "crates/testbed/src/harness.rs",
    "crates/des/src/calendar.rs",
    "crates/des/src/engine.rs",
    "crates/des/src/snapshot.rs",
    "crates/core/src/model/degrade.rs",
    "src/chaos.rs",
];

/// The documented fault-stream allocation (DESIGN.md §6): ids 11-13 are
/// reserved for fault injection and must carry FAULT_* names, so an inert
/// fault plan leaves every other stream untouched.
pub const FAULT_STREAM_IDS: std::ops::RangeInclusive<u64> = 11..=13;

/// Degradation-controller stream allocation (DESIGN.md §9): ids 14-15 are
/// reserved for CTRL_* streams, so an inert degradation config leaves
/// every other stream untouched.
pub const CTRL_STREAM_IDS: std::ops::RangeInclusive<u64> = 14..=15;

/// Chaos-search stream allocation (DESIGN.md §9): id 16 is reserved for
/// CHAOS_* scenario derivation, which must never overlap a model stream.
pub const CHAOS_STREAM_IDS: std::ops::RangeInclusive<u64> = 16..=16;

/// Files on the per-event hot path where steady-state heap allocation is
/// budgeted to zero (`tests/zero_alloc.rs` measures it with the counting
/// allocator). Test code is exempt: an allocating test helper cannot
/// regress the measured path. Construction-time allocation is fine — hoist
/// it out of the per-event code or justify with `lint:allow`.
const HOT_PATH_ALLOC_FILES: &[&str] = &[
    "crates/des/src/engine.rs",
    "crates/des/src/calendar.rs",
    "crates/core/src/model/daemon.rs",
    "crates/core/src/model/degrade.rs",
    "crates/core/src/pipe.rs",
];

/// First path segments always permitted in `use` paths.
const STD_SEGMENTS: &[&str] = &["std", "core", "alloc", "crate", "self", "super"];

/// One `const NAME: u64 = id;` entry of a `mod stream_kind { … }` registry.
#[derive(Clone, Debug)]
pub struct StreamIdEntry {
    /// Constant name (e.g. `FAULT_CRASH`).
    pub name: String,
    /// Allocated stream id.
    pub id: u64,
    /// File that declares it.
    pub path: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

fn finding(
    rule: &'static str,
    file: &SourceFile,
    line: u32,
    col: u32,
    message: String,
) -> Finding {
    Finding {
        rule,
        path: file.rel.clone(),
        line,
        col,
        message,
    }
}

/// `wall-clock`: ban `Instant` / `SystemTime` identifiers outside the two
/// crates that legitimately measure real time.
pub fn wall_clock(file: &SourceFile) -> Vec<Finding> {
    if WALL_CLOCK_ALLOWED.iter().any(|p| file.rel.starts_with(p)) {
        return vec![];
    }
    let mut out = vec![];
    for (_, t) in file.sig_tokens() {
        if t.kind == TokKind::Ident {
            let s = t.text(&file.text);
            if s == "Instant" || s == "SystemTime" {
                out.push(finding(
                    "wall-clock",
                    file,
                    t.line,
                    t.col,
                    format!(
                        "wall-clock source `{s}` outside crates/bench and \
                         crates/testbed; use simulated time (SimTime) instead"
                    ),
                ));
            }
        }
    }
    out
}

/// `unordered-iteration`: ban `HashMap` / `HashSet` in non-test code of
/// the simulation crates.
pub fn unordered_iteration(file: &SourceFile) -> Vec<Finding> {
    if !SIM_CRATES.iter().any(|p| file.rel.starts_with(p)) {
        return vec![];
    }
    let mut out = vec![];
    for (_, t) in file.sig_tokens() {
        if t.kind == TokKind::Ident && !file.in_test_code(t.start) {
            let s = t.text(&file.text);
            if s == "HashMap" || s == "HashSet" {
                out.push(finding(
                    "unordered-iteration",
                    file,
                    t.line,
                    t.col,
                    format!(
                        "`{s}` in simulation-crate non-test code; iteration order \
                         is nondeterministic — use BTreeMap/BTreeSet or a Vec"
                    ),
                ));
            }
        }
    }
    out
}

/// `panic-path`: ban `.unwrap()` / `.expect(` / `panic!` in the files on
/// the decode/I-O and DES hot paths.
pub fn panic_path(file: &SourceFile) -> Vec<Finding> {
    if !PANIC_PATHS.contains(&file.rel.as_str()) {
        return vec![];
    }
    let mut out = vec![];
    for (n, t) in file.sig_tokens() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text(&file.text);
        let hit = match s {
            "unwrap" | "expect" => {
                // Method-call position: `.unwrap(` / `.expect(`.
                n > 0
                    && file.sig_is_punct(n - 1, b'.')
                    && file.sig_is_punct(n + 1, b'(')
            }
            "panic" => file.sig_is_punct(n + 1, b'!'),
            _ => false,
        };
        if hit {
            out.push(finding(
                "panic-path",
                file,
                t.line,
                t.col,
                format!(
                    "`{s}` on a panic-sensitive path; propagate the error \
                     (Result/`?`) or justify with lint:allow(panic-path)"
                ),
            ));
        }
    }
    out
}

/// `hot-path-alloc`: ban the common allocation tokens (`Box::new`,
/// `Vec::new`, `.clone()`, `.to_vec()`) in non-test code of the enrolled
/// hot-path files.
pub fn hot_path_alloc(file: &SourceFile) -> Vec<Finding> {
    if !HOT_PATH_ALLOC_FILES.contains(&file.rel.as_str()) {
        return vec![];
    }
    let mut out = vec![];
    for (n, t) in file.sig_tokens() {
        if t.kind != TokKind::Ident || file.in_test_code(t.start) {
            continue;
        }
        let s = t.text(&file.text);
        let what = match s {
            // Method-call position: `.clone(` / `.to_vec(`.
            "clone" | "to_vec"
                if n > 0
                    && file.sig_is_punct(n - 1, b'.')
                    && file.sig_is_punct(n + 1, b'(') =>
            {
                format!(".{s}()")
            }
            // Path-call position: `Box::new(` / `Vec::new(`.
            "new"
                if n >= 3
                    && file.sig_is_punct(n - 1, b':')
                    && file.sig_is_punct(n - 2, b':')
                    && file.sig_is_punct(n + 1, b'(')
                    && (file.sig_is_ident(n - 3, "Box") || file.sig_is_ident(n - 3, "Vec")) =>
            {
                let head = if file.sig_is_ident(n - 3, "Box") { "Box" } else { "Vec" };
                format!("{head}::new()")
            }
            _ => continue,
        };
        out.push(finding(
            "hot-path-alloc",
            file,
            t.line,
            t.col,
            format!(
                "`{what}` on a zero-alloc hot path; reuse a buffer or hoist the \
                 allocation to construction, or justify with \
                 lint:allow(hot-path-alloc)"
            ),
        ));
    }
    out
}

/// Collect `mod stream_kind { const NAME: u64 = <int>; … }` registries.
pub fn collect_stream_registry(file: &SourceFile) -> Vec<StreamIdEntry> {
    let mut out = vec![];
    let mut n = 0;
    let count = file.sig.len();
    while n < count {
        if !(file.sig_is_ident(n, "mod") && file.sig_is_ident(n + 1, "stream_kind")) {
            n += 1;
            continue;
        }
        // Walk the registry body.
        let mut m = n + 2;
        if !file.sig_is_punct(m, b'{') {
            n += 2;
            continue;
        }
        let mut depth = 0usize;
        while m < count {
            if file.sig_is_punct(m, b'{') {
                depth += 1;
            } else if file.sig_is_punct(m, b'}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if file.sig_is_ident(m, "const") {
                // const NAME : u64 = <int>
                let name_tok = file.sig_tok(m + 1);
                let val_tok = file.sig_tok(m + 5);
                if let (Some(name), Some(val)) = (name_tok, val_tok) {
                    if name.kind == TokKind::Ident && val.kind == TokKind::Int {
                        if let Some(id) = val.int_value(&file.text) {
                            out.push(StreamIdEntry {
                                name: name.text(&file.text).to_string(),
                                id,
                                path: file.rel.clone(),
                                line: name.line,
                            });
                        }
                    }
                }
            }
            m += 1;
        }
        n = m + 1;
    }
    out
}

/// `rng-stream-id`, per-file part: flag raw integer-literal arguments to
/// `.stream(…)` / `.stream3(…)` in non-test code — stream ids must be
/// named constants from the registry so collisions are visible in one
/// place.
pub fn rng_stream_literals(file: &SourceFile, registry: &[StreamIdEntry]) -> Vec<Finding> {
    let mut out = vec![];
    for (n, t) in file.sig_tokens() {
        if t.kind != TokKind::Ident || file.in_test_code(t.start) {
            continue;
        }
        let s = t.text(&file.text);
        if !(s == "stream" || s == "stream3") {
            continue;
        }
        if !(n > 0 && file.sig_is_punct(n - 1, b'.') && file.sig_is_punct(n + 1, b'(')) {
            continue;
        }
        let Some(arg) = file.sig_tok(n + 2) else {
            continue;
        };
        if arg.kind != TokKind::Int {
            continue;
        }
        let id = arg.int_value(&file.text);
        let clash = id.and_then(|v| registry.iter().find(|e| e.id == v));
        let mut msg = format!(
            "raw literal stream id in `.{s}({})` bypasses the stream_kind \
             registry",
            arg.text(&file.text)
        );
        if let Some(e) = clash {
            msg.push_str(&format!(
                " and collides with allocated stream {}::{} ({})",
                "stream_kind", e.name, e.id
            ));
        }
        msg.push_str("; allocate a named constant instead");
        out.push(finding("rng-stream-id", file, arg.line, arg.col, msg));
    }
    out
}

/// `rng-stream-id`, cross-file part: duplicate ids inside the collected
/// registries, and drift from the documented fault-stream allocation.
pub fn rng_registry_collisions(registry: &[StreamIdEntry]) -> Vec<Finding> {
    let mut out = vec![];
    for (i, e) in registry.iter().enumerate() {
        if let Some(prev) = registry[..i].iter().find(|p| p.id == e.id) {
            out.push(Finding {
                rule: "rng-stream-id",
                path: e.path.clone(),
                line: e.line,
                col: 1,
                message: format!(
                    "stream id {} of `{}` collides with `{}` ({}:{}); colliding \
                     streams yield correlated draws",
                    e.id, e.name, prev.name, prev.path, prev.line
                ),
            });
        }
        // Bidirectional reserved-range checks: an id inside a reserved
        // range must carry the range's prefix, and a prefixed name must
        // sit inside its range — either drift silently breaks the
        // inertness guarantee the allocation exists for.
        let ranges: [(&std::ops::RangeInclusive<u64>, &str, &str); 3] = [
            (&FAULT_STREAM_IDS, "FAULT_", "an inert fault plan"),
            (&CTRL_STREAM_IDS, "CTRL_", "an inert degradation config"),
            (&CHAOS_STREAM_IDS, "CHAOS_", "a chaos-free run"),
        ];
        for (range, prefix, guard) in ranges {
            let in_range = range.contains(&e.id);
            let named = e.name.starts_with(prefix);
            if in_range != named {
                out.push(Finding {
                    rule: "rng-stream-id",
                    path: e.path.clone(),
                    line: e.line,
                    col: 1,
                    message: format!(
                        "stream `{}` = {} violates the documented allocation: ids \
                         {}-{} are reserved for {prefix}* streams (DESIGN.md §6/§9) \
                         so {guard} stays bitwise-inert",
                        e.name,
                        e.id,
                        range.start(),
                        range.end()
                    ),
                });
            }
        }
    }
    out
}

/// `hermeticity`: every `use` / `extern crate` first segment must be std,
/// a path keyword, a workspace crate, or an item declared in the same
/// file — Rust 2018 uniform paths let `use bounds::X;` follow a local
/// `mod bounds;`, and `use Kind as K;` alias a local enum.
/// `crate_names` comes from the workspace manifests (underscore form);
/// `local_items` from the item model ([`crate::model::Workspace::declared_names`]),
/// which replaces the keyword-scan heuristic this rule used to carry.
pub fn hermeticity(
    file: &SourceFile,
    crate_names: &[String],
    local_items: &[String],
) -> Vec<Finding> {
    let allowed = |seg: &str| {
        STD_SEGMENTS.contains(&seg)
            || crate_names.iter().any(|c| c == seg)
            || local_items.iter().any(|m| m == seg)
    };
    let mut out = vec![];
    for (n, t) in file.sig_tokens() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text(&file.text);
        let (site, seg_tok) = if s == "use" {
            // First path segment: skip a leading `$` (macro `$crate`) or
            // leading `::`; a brace group (`use {a, b}`) is not used in
            // this workspace and is skipped conservatively.
            let mut m = n + 1;
            while file.sig_is_punct(m, b'$') || file.sig_is_punct(m, b':') {
                m += 1;
            }
            (t, file.sig_tok(m))
        } else if s == "extern" && file.sig_is_ident(n + 1, "crate") {
            (t, file.sig_tok(n + 2))
        } else {
            continue;
        };
        let Some(seg) = seg_tok else { continue };
        if seg.kind != TokKind::Ident {
            continue;
        }
        let seg_text = seg.text(&file.text);
        if !allowed(seg_text) {
            out.push(finding(
                "hermeticity",
                file,
                site.line,
                site.col,
                format!(
                    "`{seg_text}` is not std or a workspace crate; the build is \
                     offline-hermetic — vendor the functionality in-tree instead"
                ),
            ));
        }
    }
    out
}

/// Run every per-file rule on one file. `local_items` is the file's
/// declared-name set from the item model.
pub fn run_file_rules(
    file: &SourceFile,
    registry: &[StreamIdEntry],
    crate_names: &[String],
    local_items: &[String],
) -> Vec<Finding> {
    let mut out = wall_clock(file);
    out.extend(unordered_iteration(file));
    out.extend(panic_path(file));
    out.extend(hot_path_alloc(file));
    out.extend(rng_stream_literals(file, registry));
    out.extend(hermeticity(file, crate_names, local_items));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel, src.to_string())
    }

    fn names() -> Vec<String> {
        ["paradyn_des", "paradyn_stats", "paradyn_isim"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn wall_clock_flags_sim_code_but_not_bench_or_testbed() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(wall_clock(&file("crates/des/src/x.rs", src)).len(), 2);
        assert_eq!(wall_clock(&file("crates/bench/src/x.rs", src)).len(), 0);
        assert_eq!(wall_clock(&file("crates/testbed/src/x.rs", src)).len(), 0);
        // Mentions in comments and strings never count.
        let masked = "// Instant::now is banned\nlet s = \"SystemTime\";\n";
        assert_eq!(wall_clock(&file("crates/des/src/x.rs", masked)).len(), 0);
    }

    #[test]
    fn unordered_iteration_skips_tests_and_other_crates() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n";
        let f = file("crates/core/src/x.rs", src);
        let hits = unordered_iteration(&f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 1);
        assert_eq!(unordered_iteration(&file("crates/lint/src/x.rs", src)).len(), 0);
    }

    #[test]
    fn panic_path_matches_calls_not_similar_names() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); \
                   z.unwrap_or(3); let expected = 1; map.expect_none; }\n";
        let hits = panic_path(&file("crates/testbed/src/pipes.rs", src));
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert_eq!(panic_path(&file("crates/testbed/src/kernels.rs", src)).len(), 0);
    }

    #[test]
    fn hot_path_alloc_flags_enrolled_files_only() {
        let src = "fn f(v: &Vec<u32>) -> Vec<u32> { let b = Box::new(1); let w = Vec::new(); \
                   let c = v.clone(); let d = v[..].to_vec(); d }\n\
                   #[cfg(test)]\nmod tests { fn t(v: &Vec<u32>) -> Vec<u32> { v.clone() } }\n";
        let hits = hot_path_alloc(&file("crates/des/src/engine.rs", src));
        assert_eq!(hits.len(), 4, "{hits:?}");
        assert!(hits[0].message.contains("Box::new()"));
        assert!(hits[1].message.contains("Vec::new()"));
        assert!(hits[2].message.contains(".clone()"));
        assert!(hits[3].message.contains(".to_vec()"));
        // Unenrolled files and test code are exempt.
        assert_eq!(hot_path_alloc(&file("crates/des/src/rng.rs", src)).len(), 0);
        // Similar-but-different tokens never match: a bare `new()`, a
        // `clone` field, `VecDeque::new`.
        let ok = "fn f() { let a = Slab::new(); let b = x.clone; let c = \
                  std::collections::VecDeque::<u32>::new(); }\n";
        assert_eq!(hot_path_alloc(&file("crates/des/src/engine.rs", ok)).len(), 0);
    }

    #[test]
    fn stream_registry_collects_and_flags_collisions() {
        let src = "mod stream_kind {\n    pub const A: u64 = 1;\n    pub const B: u64 = 1;\n    pub const FAULT_X: u64 = 11;\n    pub const ROGUE: u64 = 12;\n}\n";
        let f = file("crates/core/src/model/mod.rs", src);
        let reg = collect_stream_registry(&f);
        assert_eq!(reg.len(), 4);
        let hits = rng_registry_collisions(&reg);
        // B collides with A; ROGUE sits in the fault range without the name.
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].message.contains("collides"));
        assert!(hits[1].message.contains("FAULT_"));
    }

    #[test]
    fn reserved_ctrl_and_chaos_ranges_are_bidirectional() {
        // Seeded violations of every drift direction: unprefixed ids inside
        // the reserved ranges, and prefixed names outside them.
        let src = "mod stream_kind {\n    pub const SNEAKY: u64 = 14;\n    pub const ALSO: u64 = 16;\n    pub const CTRL_LOST: u64 = 3;\n    pub const CHAOS_LOST: u64 = 4;\n    pub const CTRL_OK: u64 = 15;\n    pub const CHAOS_OK: u64 = 16;\n}\n";
        let f = file("crates/core/src/model/mod.rs", src);
        let reg = collect_stream_registry(&f);
        let hits = rng_registry_collisions(&reg);
        let drift: Vec<_> = hits
            .iter()
            .filter(|h| h.message.contains("violates the documented allocation"))
            .collect();
        // SNEAKY / ALSO (inside the CTRL / CHAOS ranges, unprefixed) and
        // CTRL_LOST / CHAOS_LOST (prefixed, out of range).
        assert_eq!(drift.len(), 4, "{drift:?}");
        assert!(drift.iter().any(|h| h.message.contains("CTRL_*")));
        assert!(drift.iter().any(|h| h.message.contains("CHAOS_*")));
        // The correctly allocated constants produce no drift findings.
        assert!(!drift.iter().any(|h| h.message.contains("`CTRL_OK`")));
        assert!(!drift.iter().any(|h| h.message.contains("`CHAOS_OK`")));
    }

    #[test]
    fn degrade_and_chaos_files_are_on_the_panic_path() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(panic_path(&file("crates/core/src/model/degrade.rs", src)).len(), 1);
        assert_eq!(panic_path(&file("src/chaos.rs", src)).len(), 1);
        assert_eq!(panic_path(&file("crates/core/src/model/app.rs", src)).len(), 0);
    }

    #[test]
    fn raw_literal_stream_ids_flagged_outside_tests() {
        let reg = vec![StreamIdEntry {
            name: "FAULT_CRASH".into(),
            id: 11,
            path: "crates/core/src/model/mod.rs".into(),
            line: 1,
        }];
        let src = "fn f(s: &Streams) { s.stream(11); s.stream(99); s.stream(id); }\n\
                   #[cfg(test)]\nmod tests { fn t(s: &Streams) { s.stream(11); } }\n";
        let hits = rng_stream_literals(&file("crates/des/src/x.rs", src), &reg);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].message.contains("FAULT_CRASH"));
        assert!(!hits[1].message.contains("collides"));
    }

    #[test]
    fn hermeticity_allows_std_workspace_and_local_items_only() {
        let src = "use std::io;\nuse core::fmt;\nuse crate::x;\nuse self::y;\nuse super::z;\nuse paradyn_des::Sim;\nuse bounds::B;\nuse serde::Serialize;\nextern crate rand;\n";
        let hits = hermeticity(
            &file("crates/des/src/x.rs", src),
            &names(),
            &["bounds".to_string()],
        );
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].message.contains("serde"));
        assert!(hits[1].message.contains("rand"));
    }
}
