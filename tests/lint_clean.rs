//! Tier-1 gate: the workspace must be lint-clean at HEAD.
//!
//! Runs `paradyn-lint` in-process over the whole workspace and fails on any
//! non-baselined finding, validates the machine-readable report against the
//! `paradyn.lint.v1` schema using the in-tree JSON parser, and proves the
//! rules still bite by linting seeded violations through `lint_source`.

use paradyn_bench::json::Json;
use paradyn_lint::{lint_source, run, Options, MARKERS, RULES};
use std::path::Path;

fn workspace_report() -> paradyn_lint::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    run(&Options {
        root,
        baseline: None, // defaults to <root>/lint-baseline.txt
    })
    .expect("lint run")
}

#[test]
fn workspace_has_zero_non_baselined_findings() {
    let report = workspace_report();
    assert!(
        report.clean(),
        "paradyn-lint found violations at HEAD:\n{}",
        report.human()
    );
    // Sanity: the walk actually visited the workspace, not an empty dir.
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — wrong root?",
        report.files_scanned
    );
    // The stream-id registry must have been discovered (rule 4 is vacuous
    // without it) and must contain the documented fault streams.
    let fault_ids: Vec<u64> = report
        .stream_registry
        .iter()
        .filter(|e| e.name.starts_with("FAULT_"))
        .map(|e| e.id)
        .collect();
    assert_eq!(fault_ids, vec![11, 12, 13], "fault stream registry drifted");
    // Same for the controller and chaos allocations (DESIGN.md §9).
    let ctrl_ids: Vec<u64> = report
        .stream_registry
        .iter()
        .filter(|e| e.name.starts_with("CTRL_"))
        .map(|e| e.id)
        .collect();
    assert_eq!(ctrl_ids, vec![14, 15], "controller stream registry drifted");
    let chaos_ids: Vec<u64> = report
        .stream_registry
        .iter()
        .filter(|e| e.name.starts_with("CHAOS_"))
        .map(|e| e.id)
        .collect();
    assert_eq!(chaos_ids, vec![16], "chaos stream registry drifted");
}

#[test]
fn json_report_matches_schema_v1() {
    let report = workspace_report();
    let json = Json::parse(&report.to_json()).expect("lint JSON must parse");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("paradyn.lint.v1")
    );
    assert_eq!(
        json.get("files_scanned").and_then(Json::as_num),
        Some(report.files_scanned as f64)
    );
    // The embedded registries must match the compiled-in ones name-for-name
    // (`--explain` and check_lint_json read the same tables).
    let rules = json.get("rules").and_then(Json::as_arr).expect("rules[]");
    assert_eq!(rules.len(), RULES.len());
    for (r, (name, _)) in rules.iter().zip(RULES) {
        assert_eq!(r.get("name").and_then(Json::as_str), Some(*name));
        assert!(r.get("description").and_then(Json::as_str).is_some());
    }
    let markers = json.get("markers").and_then(Json::as_arr).expect("markers[]");
    assert_eq!(markers.len(), MARKERS.len());
    for (m, (name, _)) in markers.iter().zip(MARKERS) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(*name));
        assert!(m.get("description").and_then(Json::as_str).is_some());
    }
    let findings = json
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings[]");
    assert_eq!(findings.len(), report.findings.len());
    assert!(json.get("suppressed").and_then(Json::as_num).is_some());
    assert!(json.get("baselined").and_then(Json::as_arr).is_some());
    let registry = json
        .get("stream_registry")
        .and_then(Json::as_arr)
        .expect("stream_registry[]");
    assert_eq!(registry.len(), report.stream_registry.len());
    assert_eq!(json.get("clean"), Some(&Json::Bool(report.clean())));
}

/// Each rule must still fire on a seeded violation — guards against the
/// engine silently going blind (e.g. a lexer regression that swallows the
/// tokens a rule matches on).
#[test]
fn seeded_violations_are_caught() {
    let crates: Vec<String> = ["paradyn_core", "paradyn_des"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cases: &[(&str, &str, &str)] = &[
        (
            "wall-clock",
            "crates/des/src/lib.rs",
            "pub fn sneaky() -> std::time::Instant { std::time::Instant::now() }",
        ),
        (
            "unordered-iteration",
            "crates/core/src/model/mod.rs",
            "use std::collections::HashMap;\npub fn m() -> HashMap<u32, u32> { HashMap::new() }",
        ),
        (
            "panic-path",
            "crates/des/src/engine.rs",
            "pub fn pop(v: &mut Vec<u32>) -> u32 { v.pop().unwrap() }",
        ),
        (
            "panic-path",
            "crates/des/src/snapshot.rs",
            "pub fn first(v: &[u8]) -> u8 { *v.first().expect(\"non-empty\") }",
        ),
        (
            "rng-stream-id",
            "crates/des/src/engine.rs",
            "pub fn r(s: &paradyn_des::rng::Streams) -> u64 { s.stream(42).next_u64() }",
        ),
        (
            // A raw literal colliding with the controller allocation.
            "rng-stream-id",
            "crates/des/src/engine.rs",
            "pub fn r(s: &paradyn_des::rng::Streams) -> u64 { s.stream3(14, 0, 0).next_u64() }",
        ),
        (
            // New controller/chaos code paths are on the panic-path rule.
            "panic-path",
            "crates/core/src/model/degrade.rs",
            "pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }",
        ),
        (
            "panic-path",
            "src/chaos.rs",
            "pub fn f(v: &[u8]) -> u8 { *v.first().expect(\"non-empty\") }",
        ),
        (
            "hermeticity",
            "crates/core/src/lib.rs",
            "use serde::Serialize;\npub fn f() {}",
        ),
        (
            // Per-event allocation seeded into an enrolled hot-path file.
            "hot-path-alloc",
            "crates/des/src/engine.rs",
            "pub fn deliver(evs: &[u32]) -> Vec<u32> { evs.to_vec() }",
        ),
        (
            "hot-path-alloc",
            "crates/core/src/pipe.rs",
            "pub fn push(b: &mut Vec<Vec<u8>>, s: &Vec<u8>) { b.push(s.clone()) }",
        ),
        (
            // A Persist impl that forgets one field in `save`.
            "snapshot-completeness",
            "crates/des/src/fcfs.rs",
            "pub struct Q { depth: u64, served: u64 }\n\
             impl Persist for Q {\n\
                 fn save(&self, w: &mut Enc) { w.put_u64(self.depth); }\n\
                 fn load(r: &mut Dec) -> Result<Q, E> {\n\
                     Ok(Q { depth: r.take_u64()?, served: r.take_u64()? })\n\
                 }\n\
             }",
        ),
        (
            // An Acc counter dropped from the reporting projection.
            "metrics-merge-completeness",
            "crates/core/src/metrics.rs",
            "pub struct Acc { hits: u64, misses: u64 }\n\
             impl SimMetrics { fn from_model(m: &M) -> u64 { m.acc.hits } }",
        ),
        (
            // A ledger field missing from the conservation identity.
            "metrics-merge-completeness",
            "src/chaos.rs",
            "pub struct SimMetrics { lost_fire: u64 }\n\
             pub fn conservation_violation(m: &SimMetrics) -> Option<String> { None }",
        ),
    ];
    for (rule, rel, src) in cases {
        let findings = lint_source(rel, src, &crates);
        assert!(
            findings.iter().any(|f| f.rule == *rule),
            "seeded `{rule}` violation in {rel} was not caught; got {findings:?}"
        );
    }
}

/// The same seeded sources must NOT fire when they are legitimate: test
/// code for unordered-iteration/rng-stream-id, an allowed crate for
/// wall-clock, an unscoped file for panic-path.
#[test]
fn rules_respect_their_scopes() {
    let crates: Vec<String> = vec!["paradyn_des".to_string()];
    let ok: &[(&str, &str)] = &[
        (
            "crates/bench/src/lib.rs",
            "pub fn t() -> std::time::Instant { std::time::Instant::now() }",
        ),
        (
            "crates/core/src/model/tests.rs",
            "use std::collections::HashMap;\npub fn m() -> HashMap<u32, u32> { HashMap::new() }",
        ),
        (
            "crates/workload/src/lib.rs",
            "pub fn pop(v: &mut Vec<u32>) -> u32 { v.pop().unwrap() }",
        ),
        (
            // Allocation tokens outside the enrolled hot-path files are fine.
            "crates/core/src/model/app.rs",
            "pub fn copy(v: &[u32]) -> Vec<u32> { v.to_vec() }",
        ),
        (
            // A complete Persist impl, plus a field deliberately excluded
            // with a justified snapshot-exempt marker.
            "crates/des/src/fcfs.rs",
            "pub struct Q {\n\
                 depth: u64,\n\
                 // lint:allow(snapshot-exempt): derived from depth at load\n\
                 cached: u64,\n\
             }\n\
             impl Persist for Q {\n\
                 fn save(&self, w: &mut Enc) { w.put_u64(self.depth); }\n\
                 fn load(r: &mut Dec) -> Result<Q, E> {\n\
                     let depth = r.take_u64()?;\n\
                     Ok(Q { depth, cached: depth * 2 })\n\
                 }\n\
             }",
        ),
    ];
    for (rel, src) in ok {
        let findings = lint_source(rel, src, &crates);
        assert!(
            findings.is_empty(),
            "{rel}: expected no findings, got {findings:?}"
        );
    }
}
