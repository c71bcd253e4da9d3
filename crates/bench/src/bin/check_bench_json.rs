//! Validate a bench result file, by its schema:
//!
//! * `paradyn.bench.des.v2` — a `BENCH_des.json` emitted by the
//!   `des_engine` bench. For non-smoke runs, also enforce the throughput
//!   ratchet in a sibling `BENCH_floor.json` (`paradyn.bench.floor.v2`):
//!   any case below its floor fails the check, and cases with sustained
//!   headroom print a suggestion to raise the floor.
//! * `paradyn.bench.repro.v2` — a `repro --bench-json` file. Its scale and
//!   each artifact's `runs`, `events` and `digest` (a hash of the
//!   full-precision metrics of every run) must equal those of the committed
//!   file (second argument, default `BENCH_repro.json`) exactly: they are
//!   machine-independent, and a failure names each artifact that moved.
//!   `seconds` is recorded, never gated.
//!
//! Exits nonzero (with a reason on stderr) on any violation, so
//! `scripts/verify.sh` can gate on it.

use paradyn_bench::json::Json;

fn fail(msg: String) -> ! {
    eprintln!("check_bench_json: {msg}");
    std::process::exit(1);
}

fn require_num(obj: &Json, key: &str, ctx: &str) -> f64 {
    obj.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| fail(format!("{ctx}: missing or non-numeric `{key}`")))
}

fn require_str<'a>(obj: &'a Json, key: &str, ctx: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail(format!("{ctx}: missing or non-string `{key}`")))
}

/// Enforce `BENCH_floor.json` (if present next to the bench file) against
/// the measured `(name, events_per_sec)` pairs. Regressions below a floor
/// are fatal; headroom above `floor * ratchet_margin` only prints a ratchet
/// suggestion.
fn check_floors(bench_path: &str, results: &[(String, f64)]) {
    let floor_path = std::path::Path::new(bench_path)
        .with_file_name("BENCH_floor.json")
        .to_string_lossy()
        .into_owned();
    let Ok(text) = std::fs::read_to_string(&floor_path) else {
        println!("check_bench_json: no {floor_path}, skipping throughput ratchet");
        return;
    };
    let doc = Json::parse(&text).unwrap_or_else(|e| fail(format!("{floor_path}: {e}")));
    if require_str(&doc, "schema", &floor_path) != "paradyn.bench.floor.v2" {
        fail(format!("{floor_path}: unknown schema"));
    }
    let margin = doc
        .get("ratchet_margin")
        .and_then(Json::as_num)
        .unwrap_or(1.5);
    if !(margin >= 1.0) {
        fail(format!("{floor_path}: `ratchet_margin` must be >= 1"));
    }
    let floors = doc
        .get("floors")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(format!("{floor_path}: missing `floors` array")));
    if floors.is_empty() {
        fail(format!("{floor_path}: empty `floors`"));
    }
    let mut regressions = vec![];
    let mut checked = 0usize;
    for (i, f) in floors.iter().enumerate() {
        let ctx = format!("{floor_path} floors[{i}]");
        let name = require_str(f, "name", &ctx);
        let floor = require_num(f, "min_events_per_sec", &ctx);
        if !(floor > 0.0) {
            fail(format!("{ctx}: `min_events_per_sec` must be > 0"));
        }
        let Some(&(_, eps)) = results.iter().find(|(n, _)| n == name) else {
            fail(format!(
                "{ctx}: floor for `{name}` has no matching bench result"
            ));
        };
        checked += 1;
        if eps < floor {
            regressions.push(format!(
                "  {name}: {eps:.0} events/s is below the floor of {floor:.0} \
                 ({:.1}% of floor)",
                100.0 * eps / floor
            ));
        } else if eps > floor * margin {
            println!(
                "check_bench_json: ratchet hint: {name} at {eps:.0} events/s has \
                 {:.2}x headroom over its {floor:.0} floor — consider raising it",
                eps / floor
            );
        }
    }
    if !regressions.is_empty() {
        fail(format!(
            "throughput regression against {floor_path}:\n{}",
            regressions.join("\n")
        ));
    }
    println!("check_bench_json: {floor_path} ok ({checked} floors held)");
}

fn read_json(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

/// One artifact of a repro file: `(name, runs, events, digest)`, after
/// checking that every field is present and `seconds` is a non-negative
/// number.
fn repro_rows(doc: &Json, path: &str) -> Vec<(String, f64, f64, String)> {
    let artifacts = doc
        .get("artifacts")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(format!("{path}: missing `artifacts` array")));
    if artifacts.is_empty() {
        fail(format!("{path}: empty `artifacts`"));
    }
    artifacts
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let ctx = format!("{path} artifacts[{i}]");
            let name = require_str(a, "name", &ctx).to_string();
            let count = |key: &str| {
                let v = require_num(a, key, &ctx);
                if !(v >= 0.0 && v.fract() == 0.0) {
                    fail(format!("{ctx}: `{key}` must be a non-negative integer"));
                }
                v
            };
            let (runs, events) = (count("runs"), count("events"));
            if (runs == 0.0) != (events == 0.0) {
                fail(format!("{ctx}: {runs} runs but {events} events"));
            }
            let digest = require_str(a, "digest", &ctx);
            let hex = digest.strip_prefix("0x").unwrap_or_default();
            if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                fail(format!("{ctx}: `digest` must be 0x and 16 hex digits"));
            }
            if !(require_num(a, "seconds", &ctx) >= 0.0) {
                fail(format!("{ctx}: `seconds` must be >= 0"));
            }
            (name, runs, events, digest.to_string())
        })
        .collect()
}

/// Check a `paradyn.bench.repro.v2` file and gate its machine-independent
/// counts and digests against the committed file.
fn check_repro(doc: &Json, path: &str, committed_path: &str) {
    let committed = read_json(committed_path);
    if doc.get("scale").is_none() || doc.get("scale") != committed.get("scale") {
        fail(format!(
            "{path}: `scale` missing or differs from {committed_path}'s; \
             compare runs made at the same scale"
        ));
    }
    let (got, want) = (
        repro_rows(doc, path),
        repro_rows(&committed, committed_path),
    );
    if got.len() != want.len() {
        fail(format!(
            "{path}: artifact list differs from {committed_path}'s"
        ));
    }
    let diffs: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(
            |((name, runs, events, digest), (want_name, want_runs, want_events, want_digest))| {
                format!(
                    "  {name}: {runs} runs / {events} events / digest {digest}; \
                 committed {want_name}: {want_runs} / {want_events} / {want_digest}"
                )
            },
        )
        .collect();
    if !diffs.is_empty() {
        fail(format!(
            "{path}: simulated work or bits differ from {committed_path} in {} artifacts:\n{}",
            diffs.len(),
            diffs.join("\n")
        ));
    }
    println!(
        "check_bench_json: {path} ok ({} artifacts match {committed_path})",
        got.len()
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_des.json".to_string());
    let doc = read_json(&path);
    match require_str(&doc, "schema", &path) {
        "paradyn.bench.des.v2" => {}
        "paradyn.bench.repro.v2" => {
            let committed = args
                .next()
                .unwrap_or_else(|| "BENCH_repro.json".to_string());
            return check_repro(&doc, &path, &committed);
        }
        _ => fail(format!("{path}: unknown schema")),
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(format!("{path}: missing `results` array")));
    if results.is_empty() {
        fail(format!("{path}: empty `results`"));
    }
    let mut measured: Vec<(String, f64)> = vec![];
    for (i, r) in results.iter().enumerate() {
        let ctx = format!("{path} results[{i}]");
        let name = require_str(r, "name", &ctx).to_string();
        for key in ["events", "median_ns", "p95_ns", "min_ns"] {
            let v = require_num(r, key, &ctx);
            if !(v >= 0.0) {
                fail(format!("{ctx}: `{key}` must be >= 0"));
            }
        }
        let eps = require_num(r, "events_per_sec", &ctx);
        if !(eps > 0.0) {
            fail(format!("{ctx}: `events_per_sec` must be > 0"));
        }
        let npe = require_num(r, "ns_per_event", &ctx);
        if !(npe > 0.0) {
            fail(format!("{ctx}: `ns_per_event` must be > 0"));
        }
        let occ = r
            .get("occupancy")
            .unwrap_or_else(|| fail(format!("{ctx}: missing `occupancy`")));
        for key in ["live", "occupied_buckets"] {
            require_num(occ, key, &format!("{ctx} occupancy"));
        }
        measured.push((name, eps));
    }
    println!("check_bench_json: {path} ok ({} results)", results.len());
    // The throughput ratchet only applies to full (non-smoke) runs; smoke
    // runs use a single unwarmed iteration and would trip any honest floor.
    if matches!(doc.get("smoke"), Some(Json::Bool(true))) {
        println!("check_bench_json: smoke run, skipping throughput ratchet");
    } else {
        check_floors(&path, &measured);
    }
}
