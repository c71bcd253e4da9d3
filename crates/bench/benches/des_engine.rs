//! Kernel benchmarks: raw event-calendar throughput on the timing wheel
//! (DESIGN.md ablations 1–2: integer time + typed events), plus the
//! `model_path` group: the full ROCC model (NOW contention-free sweep) at
//! three sizes plus a 1023-node MPP binary tree, so end-to-end throughput
//! is a first-class ratchet artifact and not just the calendar
//! microbenches.
//!
//! Besides the human-readable table, the run emits a machine-readable
//! `BENCH_des.json` (path overridable via `PARADYN_BENCH_JSON`) with
//! events/sec, ns/event, and calendar occupancy per case.
//! `PARADYN_BENCH_SMOKE=1` shrinks the workloads so `scripts/verify.sh` can
//! exercise the bench + JSON pipeline in seconds.

use paradyn_bench::json::Json;
use paradyn_bench::timing::{Group, Stats};
use paradyn_core::{build, Arch, Forwarding, SimConfig};
use paradyn_des::{CalendarStats, Ctx, Model, Sim, SimDur, SimTime};

/// Self-rescheduling single event: pure calendar overhead.
struct Chain {
    remaining: u64,
}

impl Model for Chain {
    type Event = ();
    fn handle(&mut self, ctx: &mut Ctx<()>, _ev: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.post_in(SimDur::from_nanos(100), ());
        }
    }
}

/// K interleaved timers: deeper calendar population.
struct Timers {
    remaining: u64,
}

impl Model for Timers {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, id: u32) {
        if self.remaining > 0 {
            self.remaining -= 1;
            // Deterministic pseudo-random gap keeps the calendar shuffled.
            let gap = 50 + (id as u64).wrapping_mul(2654435761) % 1000;
            ctx.post_in(SimDur::from_nanos(gap), id);
        }
    }
}

fn occupancy_json(s: CalendarStats) -> Json {
    Json::Obj(vec![
        ("live".into(), Json::num(s.live as f64)),
        ("occupied_buckets".into(), Json::num(s.occupied_buckets as f64)),
    ])
}

/// One measured case: records its JSON row.
fn record(
    results: &mut Vec<Json>,
    name: &str,
    events: u64,
    stats: Stats,
    occupancy: CalendarStats,
) {
    let ns_per_event = stats.median_ns as f64 / events.max(1) as f64;
    let events_per_sec = if stats.median_ns > 0 {
        events as f64 / (stats.median_ns as f64 * 1e-9)
    } else {
        f64::NAN
    };
    results.push(Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("events".into(), Json::num(events as f64)),
        ("median_ns".into(), Json::num(stats.median_ns as f64)),
        ("p95_ns".into(), Json::num(stats.p95_ns as f64)),
        ("min_ns".into(), Json::num(stats.min_ns as f64)),
        ("ns_per_event".into(), Json::num(ns_per_event)),
        ("events_per_sec".into(), Json::num(events_per_sec)),
        ("occupancy".into(), occupancy_json(occupancy)),
    ]));
}

fn main() {
    let smoke = std::env::var("PARADYN_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let n: u64 = if smoke { 2_000 } else { 100_000 };
    let model_dur_s = if smoke { 0.02 } else { 1.0 };

    let mut g = Group::new("des_engine");
    if !smoke {
        // Ratchet contract: pinned counts + a fixed minimum warmup so the
        // committed medians are comparable across commits (smoke runs are
        // ratchet-exempt and keep the fast env-driven counts).
        g.pin(25, 3).warmup_time_ms(200);
    }
    let mut results: Vec<Json> = vec![];

    // Pure calendar overhead: one self-rescheduling event.
    //
    // Known cost level: the batched same-timestamp delivery added with the
    // SoA-arena hot-path work costs this no-tie microbench a resolved-early
    // `at == now` comparison per event (~5 ns/ev here against the
    // pre-batching level), in exchange for a large win on tie-heavy model
    // workloads. Deliberately pinned at this level — the comparison
    // resolves before the handler call and has no cheaper sound form — and
    // held by the `event_chain` floor in BENCH_floor.json;
    // `tests/batch_delivery.rs` keeps the batching honest.
    let case = format!("event_chain_{n}");
    g.throughput(n);
    let chain = || {
        let mut sim = Sim::new(Chain { remaining: n });
        sim.ctx().post_at(SimTime::ZERO, ());
        sim
    };
    let occ = chain().ctx().calendar_stats();
    let stats = g.bench_with_setup(&case, chain, |mut sim| {
        sim.run_until(SimTime::MAX);
        sim.executed_events()
    });
    record(&mut results, &case, n, stats, occ);

    // K interleaved timers: a deeper, shuffled calendar.
    for k in [64u32, 1024] {
        let case = format!("timers_{k}_{n}");
        g.throughput(n);
        let timers = || {
            let mut sim = Sim::new(Timers { remaining: n });
            for id in 0..k {
                sim.ctx().post_at(SimTime::from_nanos(id as u64), id);
            }
            sim
        };
        let occ = timers().ctx().calendar_stats();
        let stats = g.bench_with_setup(&case, timers, |mut sim| {
            sim.run_until(SimTime::MAX);
            sim.executed_events()
        });
        record(&mut results, &case, n, stats, occ);
    }

    // `model_path` group: the full ROCC model at three sizes of the
    // paper's NOW contention-free sweep, then the largest committed tree, a
    // 1023-node MPP binary tree (the simbench `mpp_tree_1023` size). Model
    // logic (RNG draws, resource state machines) shares the bill with the
    // calendar here; each case carries its own ratchet floor.
    let mut g = Group::new("model_path");
    if !smoke {
        g.pin(25, 3).warmup_time_ms(200);
    }
    let now_cfgs = [16usize, 50, 120].map(|nodes| {
        let cfg = SimConfig {
            arch: Arch::Now { contention_free: true },
            nodes,
            duration_s: model_dur_s,
            ..Default::default()
        };
        (format!("now_cf_{nodes}n"), cfg)
    });
    let tree_nodes = if smoke { 63 } else { 1023 };
    let tree_cfg = SimConfig {
        arch: Arch::Mpp {
            forwarding: Forwarding::BinaryTree,
        },
        nodes: tree_nodes,
        batch: 16,
        duration_s: if smoke { 0.01 } else { 0.05 },
        ..Default::default()
    };
    let tree = (format!("mpp_tree_{tree_nodes}n"), tree_cfg);
    for (case, cfg) in now_cfgs.iter().chain([&tree]) {
        let horizon = SimTime::from_secs_f64(cfg.duration_s);
        let (model_events, occ) = {
            let mut sim = build(cfg);
            let occ = sim.ctx().calendar_stats();
            sim.run_until(horizon);
            (sim.executed_events(), occ)
        };
        g.throughput(model_events);
        let stats = g.bench_with_setup(
            case,
            || build(cfg),
            |mut sim| {
                sim.run_until(horizon);
                sim.executed_events()
            },
        );
        record(&mut results, case, model_events, stats, occ);
    }

    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("paradyn.bench.des.v2")),
        ("group".into(), Json::str("des_engine")),
        ("smoke".into(), Json::Bool(smoke)),
        ("results".into(), Json::Arr(results)),
    ]);
    let path =
        std::env::var("PARADYN_BENCH_JSON").unwrap_or_else(|_| "BENCH_des.json".to_string());
    std::fs::write(&path, doc.pretty()).expect("write BENCH_des.json");
    println!("wrote {path}");
}
