//! simbench — host-time benchmark of the ROCC simulator.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the named workload from the seed, sets it up several times,
//! then repeats its batch of simulation for the given seconds and checks
//! every run. With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer ledger, measured by
//! serial untraced and traced runs of every batch member. Exits nonzero
//! when any check fails. See `README.md` next to this file.

mod clock;
mod ledger;
mod report;
mod sys;
mod workloads;

use clock::Stopwatch;
use ledger::{build_traced, Ledger, Traced, KINDS};
use paradyn_core::model::stream_kind;
use paradyn_core::{
    build_with_calendar, run_forked, run_many, validate, warm_snapshot, RoccModel, SimConfig,
    SimMetrics,
};
use paradyn_des::{fnv1a, CalendarKind, Model, PersistState, Sim, SimTime};
use paradyn_isim::chaos::conservation_violation;
use paradyn_workload::RoccParams;
use report::Values;
use std::process::ExitCode;
use workloads::{Plan, Workload};

/// Environment knobs that would silently change the program measured:
/// calendar backend, sharded execution, and replication threads.
const PINNED_ENV: [&str; 4] = [
    "PARADYN_CALENDAR",
    "PARADYN_SHARDS",
    "PARADYN_SHARD_THREADS",
    "PARADYN_THREADS",
];

/// A run first sets up [`SETUP_MIN_REPS`] times and for at least
/// [`SETUP_FIRST_S`]; the measured phase then adds a round of at least
/// [`SETUP_ROUND_S`] after every batch. `setup_s` is the median of all.
const SETUP_MIN_REPS: usize = 5;
const SETUP_FIRST_S: f64 = 0.25;
const SETUP_ROUND_S: f64 = 0.02;
/// Upper bound on the set-ups of one round.
const SETUP_MAX_REPS: usize = 1000;

/// Draws per distribution in the `stats.draw_ns` probe.
const STATS_DRAWS: u32 = 100_000;

const USAGE: &str = "usage: simbench --workload <now_factorial|mpp_tree_1023|mpp_degraded_forked> \
                     --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload missing")?,
        seed: seed.ok_or("--seed missing")?,
        seconds: seconds.ok_or("--seconds missing")?,
        trace: trace.ok_or("--trace missing")?,
    })
}

/// Runs and set-ups attempted and failed; the first failures go to stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            if self.failed < 5 {
                eprintln!("simbench: check failed: {what}: {e}");
            }
            self.failed += 1;
        }
    }
}

/// A forked workload's sealed warm snapshot.
struct Snap {
    bytes: Vec<u8>,
    /// Events the warm-up already executed; restored simulations count
    /// them again in `executed_events`.
    prefix: u64,
}

/// Timings of every set-up so far.
#[derive(Default)]
struct SetupTimes {
    /// Whole set-up (s).
    total_s: Vec<f64>,
    /// Model builds of one set-up (ms).
    build_ms: Vec<f64>,
    /// Snapshot seal (ms); forked workloads only.
    seal_ms: Vec<f64>,
}

/// One set-up: generate the inputs, build every model, and (forked
/// workloads) warm up and seal the snapshot.
fn setup_once(w: Workload, seed: u64, times: &mut SetupTimes) -> (Plan, Option<Snap>) {
    let t0 = Stopwatch::start();
    let plan = w.plan(seed);
    let tb = Stopwatch::start();
    let mut sims: Vec<Sim<RoccModel>> = plan
        .cfgs
        .iter()
        .map(|c| build_with_calendar(c, CalendarKind::Wheel))
        .collect();
    times.build_ms.push(tb.ms());
    let snap = plan.fork.as_ref().map(|f| {
        let sim = &mut sims[0];
        sim.run_until(f.warmup());
        let prefix = sim.executed_events();
        let ts = Stopwatch::start();
        let bytes = sim.snapshot_now();
        times.seal_ms.push(ts.ms());
        Snap { bytes, prefix }
    });
    drop(sims);
    times.total_s.push(t0.secs());
    (plan, snap)
}

/// Set up at least `min_reps` times and until `min_s` seconds have passed
/// (at most [`SETUP_MAX_REPS`] times); keep the last result.
fn setup_round(
    w: Workload,
    seed: u64,
    min_reps: usize,
    min_s: f64,
    times: &mut SetupTimes,
) -> (Plan, Option<Snap>) {
    let start = Stopwatch::start();
    let mut reps = 0;
    loop {
        let last = setup_once(w, seed, times);
        reps += 1;
        if reps >= SETUP_MAX_REPS || (reps >= min_reps && start.secs() >= min_s) {
            return last;
        }
    }
}

/// The workload after set-up: its inputs and, if forked, its snapshot.
struct Prepared {
    workload: Workload,
    seed: u64,
    plan: Plan,
    snap: Option<Snap>,
    times: SetupTimes,
}

impl Prepared {
    fn new(workload: Workload, seed: u64) -> Prepared {
        let mut times = SetupTimes::default();
        let (plan, snap) = setup_round(workload, seed, SETUP_MIN_REPS, SETUP_FIRST_S, &mut times);
        Prepared {
            workload,
            seed,
            plan,
            snap,
            times,
        }
    }

    /// Another short round of set-ups, so that set-up is sampled across
    /// the whole run like the batches are. Its result must equal the
    /// first set-up's.
    fn resetup(&mut self) -> Result<(), String> {
        let (plan, snap) = setup_round(self.workload, self.seed, 1, SETUP_ROUND_S, &mut self.times);
        if format!("{plan:?}") != format!("{:?}", self.plan) {
            return Err("set-up generated different inputs".into());
        }
        if snap.as_ref().map(|s| &s.bytes) != self.snap.as_ref().map(|s| &s.bytes) {
            return Err("set-up sealed a different snapshot".into());
        }
        Ok(())
    }

    fn cfg(&self, run: usize) -> &SimConfig {
        if self.snap.is_some() {
            &self.plan.cfgs[0]
        } else {
            &self.plan.cfgs[run]
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn horizon(cfg: &SimConfig) -> SimTime {
    SimTime::from_secs_f64(cfg.duration_s)
}

/// Restore one fork of the snapshot and perturb it as `run_forked` does.
fn restore<M: Runnable>(cfg: &SimConfig, snap: &Snap, salt: u64) -> Result<Sim<M>, String> {
    let mut sim = Sim::restore(
        M::wrap(RoccModel::new(cfg.clone())),
        CalendarKind::Wheel,
        &snap.bytes,
    )
    .map_err(|e| format!("restore: {e}"))?;
    sim.model.rocc().perturb_streams(salt);
    Ok(sim)
}

/// One timed batch: every run of the workload on `threads` threads.
struct Batch {
    wall_s: f64,
    cpu_s: f64,
    /// Events simulated by this batch (a fork's warm-up prefix excluded).
    events: u64,
    runs: Vec<SimMetrics>,
}

fn batch(p: &Prepared, threads: usize) -> Result<Batch, String> {
    let cpu0 = sys::process_cpu_s()?;
    let t0 = Stopwatch::start();
    let runs = match (&p.snap, &p.plan.fork) {
        (Some(snap), Some(fork)) => fork_all(p.cfg(0), snap, &fork.salts, threads)?,
        _ => run_many(&p.plan.cfgs, threads),
    };
    let wall_s = t0.secs();
    let cpu_s = sys::process_cpu_s()? - cpu0;
    let prefix = p.snap.as_ref().map_or(0, |s| s.prefix);
    let events = runs.iter().map(|m| m.events - prefix).sum();
    Ok(Batch {
        wall_s,
        cpu_s,
        events,
        runs,
    })
}

/// The fork half of `run_forked` on an existing snapshot, with its static
/// partition of replicas over `threads` scoped threads.
fn fork_all(
    cfg: &SimConfig,
    snap: &Snap,
    salts: &[u64],
    threads: usize,
) -> Result<Vec<SimMetrics>, String> {
    let one = |salt: u64| -> Result<SimMetrics, String> {
        let mut sim = restore::<RoccModel>(cfg, snap, salt)?;
        let h = horizon(cfg);
        sim.run_until(h);
        let events = sim.executed_events();
        Ok(sim.model.metrics(h - SimTime::ZERO, events))
    };
    let threads = threads.clamp(1, salts.len().max(1));
    let chunk = salts.len().div_ceil(threads);
    let one = &one;
    let parts: Vec<Result<Vec<SimMetrics>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = salts
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(|&salt| one(salt)).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("fork worker panicked".into()))
            })
            .collect()
    });
    let mut out = Vec::with_capacity(salts.len());
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

fn digest(runs: &[SimMetrics]) -> u64 {
    fnv1a(format!("{runs:?}").as_bytes())
}

/// Check every run of a batch: conservation per run, and the batch's
/// metrics bit-identical to the first batch of the process.
fn check_batch(tally: &mut Tally, p: &Prepared, b: &Batch, reference: &mut Option<u64>) {
    let d = digest(&b.runs);
    let same = *reference.get_or_insert(d) == d;
    for (i, m) in b.runs.iter().enumerate() {
        let outcome = conservation_violation(p.cfg(i), m).map_or(Ok(()), Err);
        let outcome = outcome.and_then(|()| {
            same.then_some(())
                .ok_or_else(|| "metrics differ from the first batch".to_string())
        });
        tally.record(&format!("run {i}"), outcome);
    }
}

/// A model the benchmark can build, restore and read metrics from: the
/// plain `RoccModel`, or the traced wrapper around it.
trait Runnable: Model<Event = paradyn_core::model::types::Ev> + PersistState + Sized {
    fn wrap(m: RoccModel) -> Self;
    fn build(cfg: &SimConfig) -> Sim<Self>;
    fn rocc(&mut self) -> &mut RoccModel;
    fn ledger(&self) -> Ledger;
}

impl Runnable for RoccModel {
    fn wrap(m: RoccModel) -> Self {
        m
    }
    fn build(cfg: &SimConfig) -> Sim<Self> {
        build_with_calendar(cfg, CalendarKind::Wheel)
    }
    fn rocc(&mut self) -> &mut RoccModel {
        self
    }
    fn ledger(&self) -> Ledger {
        Ledger::default()
    }
}

impl Runnable for Traced {
    fn wrap(m: RoccModel) -> Self {
        Traced::new(m)
    }
    fn build(cfg: &SimConfig) -> Sim<Self> {
        build_traced(cfg)
    }
    fn rocc(&mut self) -> &mut RoccModel {
        &mut self.inner
    }
    fn ledger(&self) -> Ledger {
        self.ledger.clone()
    }
}

/// One serial run of batch member `i`, timed piece by piece.
struct Serial {
    metrics: SimMetrics,
    /// Build or restore, run, and metrics: the unit a batch is made of.
    unit_ns: u64,
    /// `Sim::run_until` alone.
    run_ns: u64,
    /// `RoccModel::metrics` alone.
    metrics_ns: u64,
    /// `Sim::restore` alone (forked workloads).
    restore_ns: u64,
    /// Events this run simulated (a fork's warm-up prefix excluded).
    events: u64,
    ledger: Ledger,
}

fn serial<M: Runnable>(p: &Prepared, i: usize) -> Result<Serial, String> {
    let cfg = p.cfg(i);
    let t0 = Stopwatch::start();
    let (mut sim, restore_ns, prefix) = match (&p.snap, &p.plan.fork) {
        (Some(snap), Some(fork)) => {
            let sim = restore::<M>(cfg, snap, fork.salts[i])?;
            (sim, t0.ns(), snap.prefix)
        }
        _ => (M::build(cfg), 0, 0),
    };
    let h = horizon(cfg);
    let tr = Stopwatch::start();
    sim.run_until(h);
    let run_ns = tr.ns();
    let events = sim.executed_events();
    let tm = Stopwatch::start();
    let metrics = sim.model.rocc().metrics(h - SimTime::ZERO, events);
    let metrics_ns = tm.ns();
    let unit_ns = t0.ns();
    Ok(Serial {
        metrics,
        unit_ns,
        run_ns,
        metrics_ns,
        restore_ns,
        events: events - prefix,
        ledger: sim.model.ledger(),
    })
}

/// Mean host cost of one `Rv::sample` over the workload's distributions.
fn draw_ns(params: &RoccParams, seed: u64) -> f64 {
    let rvs = [
        params.app.cpu_req,
        params.app.net_req,
        params.pd.cpu_req,
        params.pd.net_req,
        params.pdm_cpu,
        params.pvmd.cpu_req,
        params.pvmd.net_req,
        params.pvmd_interarrival,
        params.other.cpu_req,
        params.other.net_req,
        params.other_cpu_interarrival,
        params.other_net_interarrival,
        params.main_cpu,
        params.main_net,
        params.main_cpu_per_msg,
    ];
    // Any registered stream id will do: the probe needs draws, not the model's.
    let mut rng = paradyn_des::Streams::new(seed).stream(stream_kind::APP_CPU);
    let mut acc = 0.0;
    let t0 = Stopwatch::start();
    for _ in 0..STATS_DRAWS {
        for rv in &rvs {
            acc += rv.sample(&mut rng);
        }
    }
    let ns = t0.ns() as f64;
    std::hint::black_box(acc);
    ns / (f64::from(STATS_DRAWS) * rvs.len() as f64)
}

/// Trace 0: repeat the batch for `seconds`, with a round of set-ups after
/// each; report end-to-end metrics.
fn measure(
    p: &mut Prepared,
    threads: usize,
    seconds: f64,
    tally: &mut Tally,
    reference: &mut Option<u64>,
) -> Result<(Values, usize), String> {
    let (mut walls, mut cpu_s, mut rates) = (Vec::new(), 0.0, Vec::new());
    let start = Stopwatch::start();
    while walls.is_empty() || start.secs() < seconds {
        let b = batch(p, threads)?;
        check_batch(tally, p, &b, reference);
        walls.push(b.wall_s);
        cpu_s += b.cpu_s;
        rates.push(b.events as f64 / b.wall_s);
        let again = p.resetup();
        tally.record("set-up", again);
    }
    let mut v = Values::default();
    v.set("setup_s", median(&p.times.total_s));
    v.set("wall_s", median(&walls));
    v.set("sim_events_per_s", median(&rates));
    // Process CPU time ticks at 10 ms, so the mean over every batch
    // resolves far better than any one batch's reading.
    v.set("cpu_s", cpu_s / walls.len() as f64);
    v.set("peak_rss_mb", sys::peak_rss_mb()?);
    Ok((v, walls.len()))
}

/// Trace 1: per iteration, one parallel batch plus a serial untraced and
/// a serial traced run of every member; report the per-layer ledger.
fn trace(
    p: &Prepared,
    threads: usize,
    nproc: usize,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    reference: &mut Option<u64>,
) -> Result<(Values, usize), String> {
    let runs = p.plan.runs();
    let used = threads.clamp(1, runs);
    let mut total = Ledger::default();
    let mut exact: Option<(u64, Ledger, f64)> = None;
    let (mut plain_run_ns, mut traced_run_ns, mut traced_events) = (0u64, 0u64, 0u64);
    let (mut unit_ms, mut metrics_us, mut restore_ms, mut eff) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Stopwatch::start();
    // An iteration is several batches long, so start one only if it is
    // likely to end within `seconds`.
    let mut iter_s = 0.0;
    while eff.is_empty() || start.secs() + iter_s <= seconds {
        let it = Stopwatch::start();
        let par = batch(p, threads)?;
        check_batch(tally, p, &par, reference);
        let mut iter_ledger = Ledger::default();
        let mut serial_ns = 0u64;
        for i in 0..runs {
            // Alternate which side runs first, so neither always finds
            // the caches the other left behind.
            let (plain, traced) = if i % 2 == 0 {
                let a = serial::<RoccModel>(p, i)?;
                (a, serial::<Traced>(p, i)?)
            } else {
                let b = serial::<Traced>(p, i)?;
                (serial::<RoccModel>(p, i)?, b)
            };
            let outcome = if format!("{:?}", plain.metrics) != format!("{:?}", par.runs[i]) {
                Err("serial run differs from the parallel batch".to_string())
            } else if format!("{:?}", plain.metrics) != format!("{:?}", traced.metrics) {
                Err("traced run differs from the untraced run".to_string())
            } else if traced.ledger.events() != traced.events {
                Err(format!(
                    "ledger counts {} events, engine executed {}",
                    traced.ledger.events(),
                    traced.events
                ))
            } else {
                Ok(())
            };
            tally.record(&format!("traced run {i}"), outcome);
            serial_ns += plain.unit_ns;
            unit_ms.push(plain.unit_ns as f64 / 1e6);
            metrics_us.push(plain.metrics_ns as f64 / 1e3);
            if p.snap.is_some() {
                restore_ms.push(plain.restore_ns as f64 / 1e6);
            }
            plain_run_ns += plain.run_ns;
            traced_run_ns += traced.run_ns;
            traced_events += traced.events;
            iter_ledger.add(&traced.ledger);
        }
        eff.push(serial_ns as f64 / 1e9 / (used as f64 * par.wall_s));
        let received: u64 = par.runs.iter().map(|m| m.received_samples).sum();
        let all_events: u64 = par.runs.iter().map(|m| m.events).sum();
        exact.get_or_insert((
            par.events,
            iter_ledger.clone(),
            all_events as f64 / received.max(1) as f64,
        ));
        total.add(&iter_ledger);
        iter_s = it.secs();
    }
    let (events, counts, events_per_sample) = exact.expect("at least one iteration");
    let probe = ledger::probe_ns();
    let handler_ns = total.handler_ns() as f64;
    let per_event = |ns: f64| ns / traced_events.max(1) as f64;

    let mut v = Values::default();
    v.set("des.events", events as f64);
    v.set(
        "des.self_ns_per_event",
        per_event(traced_run_ns as f64 - handler_ns),
    );
    v.set("des.pending_peak", total.pending_peak as f64);
    for k in report::REPORTED_KINDS {
        v.set(format!("core.{}.count", KINDS[k]), counts.count[k] as f64);
        let n = total.count[k];
        let ns = if n == 0 {
            0.0
        } else {
            total.ns[k] as f64 / n as f64
        };
        v.set(format!("core.{}.ns_per_event", KINDS[k]), ns);
    }
    v.set("core.build_ms", median(&p.times.build_ms));
    v.set("core.metrics_us", median(&metrics_us));
    v.set("core.events_per_sample", events_per_sample);
    v.set("experiment.runs", runs as f64);
    v.set("experiment.threads", used as f64);
    v.set("experiment.nproc", nproc as f64);
    v.set("experiment.parallel_eff", median(&eff));
    v.set("experiment.run_ms_p50", quantile(&unit_ms, 0.5));
    v.set("experiment.run_ms_p90", quantile(&unit_ms, 0.9));
    v.set(
        "snapshot.bytes",
        p.snap.as_ref().map_or(0, |s| s.bytes.len()) as f64,
    );
    v.set("snapshot.seal_ms", median(&p.times.seal_ms));
    v.set("snapshot.restore_ms", median(&restore_ms));
    v.set("stats.draw_ns", draw_ns(&p.plan.cfgs[0].params, seed));
    v.set("trace.probe_ns", probe);
    let plain = plain_run_ns as f64;
    v.set(
        "trace.overhead_frac",
        (traced_run_ns as f64 - plain) / plain,
    );
    // The ledger, less the probes' own calibrated cost, against the
    // untraced run it claims to explain.
    let ledger_ns = traced_run_ns as f64 - traced_events as f64 * probe;
    v.set("trace.unexplained_frac", (plain - ledger_ns) / plain);
    Ok((v, eff.len()))
}

/// Checks made once per process, outside every timed phase: a forked
/// workload must match the library's own `warm_snapshot` and `run_forked`.
fn check_library_paths(p: &Prepared, threads: usize, tally: &mut Tally, reference: Option<u64>) {
    let (Some(snap), Some(fork)) = (&p.snap, &p.plan.fork) else {
        return;
    };
    let cfg = p.cfg(0);
    let same_snapshot = warm_snapshot(cfg, fork.warmup(), CalendarKind::Wheel)
        .map_err(|e| e.to_string())
        .and_then(|b| {
            (b == snap.bytes)
                .then_some(())
                .ok_or_else(|| "set-up snapshot differs from warm_snapshot".to_string())
        });
    tally.record("warm_snapshot", same_snapshot);
    let forked = run_forked(cfg, fork.warmup_s, fork.salts.len(), threads)
        .map_err(|e| e.to_string())
        .and_then(|runs| {
            (Some(digest(&runs)) == reference)
                .then_some(())
                .ok_or_else(|| "benchmark forks differ from run_forked".to_string())
        });
    tally.record("run_forked", forked);
}

fn main() -> ExitCode {
    for k in PINNED_ENV {
        std::env::remove_var(k);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc;
    let mut p = Prepared::new(args.workload, args.seed);
    let mut tally = Tally::default();
    let mut reference = None;
    let measured = if args.trace {
        trace(
            &p,
            threads,
            nproc,
            args.seed,
            args.seconds,
            &mut tally,
            &mut reference,
        )
    } else {
        measure(&mut p, threads, args.seconds, &mut tally, &mut reference)
    };
    let (values, iterations) = match measured {
        Ok(v) => v,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    check_library_paths(&p, threads, &mut tally, reference);
    let v = validate();
    println!(
        "simbench: workload={} seed={} trace={} nproc={nproc} threads={threads} \
         batches={iterations} runs_per_batch={} sim_digest={:016x} \
         table3_app_err={} table3_pd_err={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        p.plan.runs(),
        reference.unwrap_or(0),
        v.app_rel_err(),
        v.pd_rel_err(),
    );
    let specs = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    let correct = tally.failed == 0;
    match report::render(correct, tally.attempted, tally.failed, &specs, &values) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "mpp_tree_1023",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::MppTree1023);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "now_factorial",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "now_factorial",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    }
}
