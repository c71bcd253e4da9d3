//! The metric catalogue and the one-line JSON result.
//!
//! [`end_to_end`] and [`per_layer`] are the single source of the metric
//! names: the result line must carry exactly these names, and a test holds
//! `BENCHMARK.json` to the same lists.

use crate::ledger::KINDS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's name, unit, and which direction is better.
#[derive(Debug)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; only the `BENCHMARK.json` self-test reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// `Ev` kinds that fire on at least one workload, by index into [`KINDS`].
/// `AdaptTick` (index 9) needs adaptive batching, which no workload
/// enables; its cost still counts in the handler total.
pub const REPORTED_KINDS: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16];

/// Metrics printed with `--trace 0`.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("setup_s", "s", "lower"),
        spec("wall_s", "s", "lower"),
        spec("sim_events_per_s", "events/s", "higher"),
        spec("cpu_s", "s", "lower"),
        spec("peak_rss_mb", "MiB", "lower"),
    ]
}

/// Metrics printed with `--trace 1`.
pub fn per_layer() -> Vec<Spec> {
    let mut v = vec![
        spec("des.events", "count", "lower"),
        spec("des.self_ns_per_event", "ns", "lower"),
        spec("des.pending_peak", "count", "lower"),
    ];
    for k in REPORTED_KINDS {
        v.push(spec(format!("core.{}.count", KINDS[k]), "count", "lower"));
        v.push(spec(
            format!("core.{}.ns_per_event", KINDS[k]),
            "ns",
            "lower",
        ));
    }
    v.extend([
        spec("core.build_ms", "ms", "lower"),
        spec("core.metrics_us", "us", "lower"),
        spec("core.events_per_sample", "events/sample", "lower"),
        spec("experiment.runs", "count", "higher"),
        spec("experiment.threads", "count", "higher"),
        spec("experiment.nproc", "count", "higher"),
        spec("experiment.parallel_eff", "ratio", "higher"),
        spec("experiment.run_ms_p50", "ms", "lower"),
        spec("experiment.run_ms_p90", "ms", "lower"),
        spec("snapshot.bytes", "bytes", "lower"),
        spec("snapshot.seal_ms", "ms", "lower"),
        spec("snapshot.restore_ms", "ms", "lower"),
        spec("stats.draw_ns", "ns", "lower"),
        spec("trace.probe_ns", "ns", "lower"),
        spec("trace.overhead_frac", "ratio", "lower"),
        spec("trace.unexplained_frac", "ratio", "lower"),
    ]);
    v
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values collected during a run.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Record `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// Render the result line. Fails if the values do not cover `specs`
/// exactly, or a value is not a finite number.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Values,
) -> Result<String, String> {
    if values.0.len() != specs.len() {
        let missing: Vec<_> = specs
            .iter()
            .filter(|s| !values.0.contains_key(&s.name))
            .collect();
        return Err(format!(
            "{} values for {} metrics; missing {missing:?}",
            values.0.len(),
            specs.len()
        ));
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, s) in specs.iter().enumerate() {
        let v = *values
            .0
            .get(&s.name)
            .ok_or_else(|| format!("no value for {}", s.name))?;
        if !valid_name(&s.name) || !v.is_finite() {
            return Err(format!("bad metric {} = {v}", s.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            s.name, s.unit
        )
        .expect("writing to a String");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `(name, unit, better)` triples of one top-level array of
    /// `BENCHMARK.json`, read with a scanner just good enough for that file.
    fn section(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[body.find('[').expect("array")..];
        let body = &body[..body.find(']').expect("array end")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| -> String {
                    let at = obj.find(&format!("\"{f}\"")).map(|i| i + f.len() + 2);
                    at.map(|i| {
                        let v = &obj[i..];
                        let v = &v[v.find('"').expect("value") + 1..];
                        v[..v.find('"').expect("value end")].to_string()
                    })
                    .unwrap_or_default()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn triples(specs: &[Spec]) -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|s| (s.name.clone(), s.unit.to_string(), s.better.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(section(json, "end_to_end"), triples(&end_to_end()));
        assert_eq!(section(json, "per_layer"), triples(&per_layer()));
        let listed: Vec<Workload> = section(json, "workloads")
            .iter()
            .map(|t| Workload::from_name(&t.0).unwrap_or_else(|| panic!("unknown {}", t.0)))
            .collect();
        assert_eq!(listed, Workload::BENCHMARKED);
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut all = end_to_end();
        all.extend(per_layer());
        for s in &all {
            assert!(valid_name(&s.name), "{}", s.name);
        }
        let mut names: Vec<_> = all.iter().map(|s| &s.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(!valid_name("core.Slice count"));
        assert!(!valid_name("_x"));
    }

    #[test]
    fn render_requires_exactly_the_catalogue() {
        let specs = end_to_end();
        let mut v = Values::default();
        for s in &specs {
            v.set(s.name.clone(), 1.5);
        }
        let line = render(true, 3, 0, &specs, &v).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        v.set("extra", 1.0);
        assert!(render(true, 3, 0, &specs, &v).is_err());
        let mut nan = Values::default();
        for s in &specs {
            nan.set(s.name.clone(), f64::NAN);
        }
        assert!(render(true, 3, 0, &specs, &nan).is_err());
    }
}
