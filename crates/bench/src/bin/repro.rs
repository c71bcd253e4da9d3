//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale quick|standard|full] [--reps N] [--sim-secs S]
//!       [--seed N] [--csv DIR] [--bench-json FILE] <artifact> [<artifact> ...]
//! repro all        # every artifact in paper order
//! repro list       # show available artifact ids
//! ```
//!
//! With `--csv DIR`, every printed table is also written to
//! `DIR/<artifact>_<n>.csv` for plotting. With `--bench-json FILE`, the
//! runs, executed events, run digest (a hash of every run's full-precision
//! metrics) and wall-clock seconds of every artifact are written to `FILE`
//! (schema `paradyn.bench.repro.v2`, checked by `check_bench_json`); the
//! committed `BENCH_repro.json` is
//! `repro all --scale quick --bench-json BENCH_repro.json`.

use paradyn_bench::json::Json;
use paradyn_bench::simhelp::take_sim_totals;
use paradyn_bench::{run_artifact, Scale, Shared, ARTIFACTS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--scale quick|standard|full] [--reps N] [--sim-secs S] [--seed N] \
         [--csv DIR] [--bench-json FILE] <artifact>... | all | list"
    );
    eprintln!("artifacts: {}", ARTIFACTS.join(" "));
    ExitCode::FAILURE
}

/// Exit quietly (conventional 141 = 128+SIGPIPE) when stdout is a closed
/// pipe (`repro all | head`), instead of the default panic backtrace.
fn exit_cleanly_on_broken_pipe() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("Broken pipe") {
            std::process::exit(141);
        }
        default_hook(info);
    }));
}

fn main() -> ExitCode {
    exit_cleanly_on_broken_pipe();
    let mut scale = Scale::standard();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut bench_json: Option<std::path::PathBuf> = None;
    let mut ids: Vec<String> = vec![];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(name) = args.next() else {
                    return usage();
                };
                match Scale::from_name(&name) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale {name:?}");
                        return usage();
                    }
                }
            }
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => scale.reps = n,
                _ => return usage(),
            },
            "--sim-secs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) if s > 0.0 => {
                    scale.sim_s = s;
                    scale.sim_big_s = s;
                }
                _ => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => scale.seed = s,
                _ => return usage(),
            },
            "--csv" => match args.next() {
                Some(dir) => {
                    let dir = std::path::PathBuf::from(dir);
                    if let Err(e) = std::fs::create_dir_all(&dir) {
                        eprintln!("cannot create {}: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                    csv_dir = Some(dir);
                }
                None => return usage(),
            },
            "--bench-json" => match args.next() {
                Some(file) => bench_json = Some(file.into()),
                None => return usage(),
            },
            "list" => {
                for id in ARTIFACTS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ARTIFACTS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?}");
                return usage();
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        return usage();
    }
    println!(
        "# paradyn-isim reproduction | scale: reps={} sim={}s/{}s testbed={:?} seed={:#x}",
        scale.reps, scale.sim_s, scale.sim_big_s, scale.testbed, scale.seed
    );
    // One per process: artifacts that share an experiment run it once.
    let mut shared = Shared::new(scale);
    let mut rows = vec![];
    for id in &ids {
        let t0 = std::time::Instant::now();
        paradyn_bench::fmt::set_csv_output(csv_dir.clone(), id);
        let known = run_artifact(id, &mut shared);
        paradyn_bench::fmt::set_csv_output(None, "");
        if !known {
            eprintln!("unknown artifact {id:?} (try `repro list`)");
            return ExitCode::FAILURE;
        }
        let seconds = t0.elapsed().as_secs_f64();
        println!("[{} completed in {:.1}s]", id, seconds);
        let (runs, events, digest) = take_sim_totals();
        rows.push(Json::Obj(vec![
            ("name".into(), Json::str(id.as_str())),
            ("runs".into(), Json::num(runs as f64)),
            ("events".into(), Json::num(events as f64)),
            ("digest".into(), Json::str(format!("{digest:#018x}"))),
            ("seconds".into(), Json::num(seconds)),
        ]));
    }
    if let Some(path) = bench_json {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("paradyn.bench.repro.v2")),
            (
                "scale".into(),
                Json::Obj(vec![
                    ("reps".into(), Json::num(scale.reps as f64)),
                    ("sim_s".into(), Json::num(scale.sim_s)),
                    ("sim_big_s".into(), Json::num(scale.sim_big_s)),
                    ("testbed_s".into(), Json::num(scale.testbed.as_secs_f64())),
                    ("trace_us".into(), Json::num(scale.trace_us)),
                    ("seed".into(), Json::str(format!("{:#x}", scale.seed))),
                ]),
            ),
            ("artifacts".into(), Json::Arr(rows)),
        ]);
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
