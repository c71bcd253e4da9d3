//! Chaos search: randomized fault/overload scenarios run against the
//! model's invariant oracles, with failing scenarios shrunk to minimal
//! reproductions by the in-tree property harness.
//!
//! A *scenario* is a full [`SimConfig`] drawn from a [`Gen`]: architecture,
//! scale, overflow policy, an arbitrary composition of the three fault
//! classes, and optionally an overload ramp plus a degradation controller
//! with randomized watermarks. Every scenario's RNG seed is derived from a
//! master seed through the dedicated `CHAOS_SCENARIO` stream
//! ([`paradyn_core::model::stream_kind`]), so the chaos suite perturbs no
//! other stream and two suites with the same master seed explore the same
//! scenario space.
//!
//! Each scenario is checked against four oracles:
//!
//! 1. **Conservation** — `emitted == received + lost + shed + in-flight`,
//!    the shed total matches its per-tier breakdown, and protected tiers
//!    are never shed.
//! 2. **Thread invariance** — replicated runs are bit-identical at 1 and 4
//!    worker threads.
//! 3. **Calendar equivalence** — the timing wheel and the reference calendar
//!    (one event per pop, no batching) end in byte-identical canonical
//!    state; a mismatch is localized with [`rewind_bisect`] and the first
//!    divergent `(time, event)` pair is included in the failure report.
//! 4. **Snapshot equivalence** — a snapshot taken mid-run (possibly
//!    mid-shed) restores to the exact final state of an uninterrupted run.
//!
//! On failure, [`paradyn_stats::check`] shrinks the scenario's raw draw
//! tape by repeated halving — driving the config toward fewer nodes, the
//! simplest architecture, fewer fault classes, and no controller — before
//! reporting, so the surviving reproduction is close to minimal.

use paradyn_core::model::stream_kind;
use paradyn_core::{
    build_with_calendar, run, run_replicated_threads, Arch, ConsumerStallFaults,
    DaemonCrashFaults, DegradationConfig, FaultPlan, Forwarding, LinkFaults, OverflowPolicy,
    OverloadRamp, RoccModel, SimConfig, SimMetrics,
};
use paradyn_des::{rewind_bisect, CalendarKind, Sim, SimTime, Streams};
use paradyn_stats::check::{check, Failure, Gen, PropResult};

/// Default master seed for the chaos suite (override per call site).
pub const DEFAULT_MASTER_SEED: u64 = 0xC4A0_5EED;

/// Derive the simulation seed for scenario `index` from `master` via the
/// dedicated chaos stream, leaving every model stream untouched.
pub fn scenario_seed(master: u64, index: u64) -> u64 {
    Streams::new(master)
        .stream3(stream_kind::CHAOS_SCENARIO, index, 0)
        .next_u64()
}

/// Draw a full chaos scenario. Every draw maps smaller raw words to
/// simpler values (first choice, fewer nodes, `false`), so tape shrinking
/// minimizes the scenario.
pub fn gen_scenario(g: &mut Gen, master: u64) -> SimConfig {
    let arch = *g.choice(&[
        Arch::Now {
            contention_free: true,
        },
        Arch::Now {
            contention_free: false,
        },
        Arch::Smp,
        Arch::Mpp {
            forwarding: Forwarding::BinaryTree,
        },
    ]);
    let nodes = match arch {
        Arch::Mpp { .. } => g.usize_in(2, 9),
        _ => g.usize_in(1, 5),
    };
    let batch = *g.choice(&[1usize, 4, 8]);
    let overflow = *g.choice(&[
        OverflowPolicy::Block,
        OverflowPolicy::DropNewest,
        OverflowPolicy::DropOldest,
    ]);
    let faults = FaultPlan {
        overflow,
        daemon_crash: g.bool().then(|| DaemonCrashFaults {
            mtbf_us: g.f64_in(20_000.0, 200_000.0),
            recovery_us: g.f64_in(5_000.0, 50_000.0),
        }),
        link: g.bool().then(|| LinkFaults {
            fail_prob: g.f64_in(0.01, 0.3),
            max_retries: g.u64_in(1, 5) as u32,
            backoff_base_us: g.f64_in(1_000.0, 10_000.0),
        }),
        stall: g.bool().then(|| ConsumerStallFaults {
            interval_us: g.f64_in(10_000.0, 100_000.0),
            stall_us: g.f64_in(2_000.0, 20_000.0),
        }),
    };
    let duration_s = g.f64_in(0.05, 0.25);
    let degradation = g.bool().then(|| DegradationConfig {
        tiers: g.usize_in(2, 5),
        keep_tiers: 1,
        pipe_hi: g.f64_in(0.4, 0.7),
        pipe_lo: g.f64_in(0.1, 0.35),
        daemon_hi: g.usize_in(4, 12),
        daemon_lo: g.usize_in(1, 4),
        recover_period_us: g.f64_in(2_000.0, 20_000.0),
        hysteresis_us: g.f64_in(5_000.0, 50_000.0),
        ..Default::default()
    });
    let overload = g.bool().then(|| OverloadRamp {
        at_s: duration_s * g.f64_in(0.1, 0.5),
        factor: g.f64_in(1.5, 8.0),
    });
    let mut params = paradyn_workload::RoccParams::default();
    // Pipes small enough that overflow/watermark machinery can engage
    // within the short horizon, but never smaller than the batch (the
    // config validator rejects that as a BF deadlock).
    params.pipe_capacity = (*g.choice(&[8usize, 16, 170])).max(batch);
    let index = g.u64_in(0, 1 << 16);
    SimConfig {
        arch,
        nodes,
        apps_per_node: g.usize_in(1, 5),
        batch,
        sampling_period_us: *g.choice(&[500.0, 1_000.0, 2_000.0, 4_000.0]),
        duration_s,
        seed: scenario_seed(master, index),
        params,
        faults,
        degradation,
        overload,
        ..Default::default()
    }
}

/// Like [`gen_scenario`], but the degradation controller and an early
/// aggressive overload ramp are always active, over small pipes and
/// several apps per daemon — nearly every drawn scenario actually sheds.
pub fn gen_degraded_scenario(g: &mut Gen, master: u64) -> SimConfig {
    let mut cfg = gen_scenario(g, master);
    cfg.params.pipe_capacity = 8.max(cfg.batch);
    cfg.apps_per_node = cfg.apps_per_node.max(3);
    cfg.sampling_period_us = cfg.sampling_period_us.min(1_000.0);
    cfg.duration_s = cfg.duration_s.max(0.1);
    cfg.degradation = Some(DegradationConfig {
        tiers: 4,
        keep_tiers: 2,
        pipe_hi: 0.4,
        pipe_lo: 0.2,
        daemon_hi: 4,
        daemon_lo: 1,
        recover_period_us: 5_000.0,
        hysteresis_us: 10_000.0,
        ..Default::default()
    });
    cfg.overload = Some(OverloadRamp {
        at_s: cfg.duration_s * 0.2,
        factor: g.f64_in(4.0, 8.0),
    });
    cfg
}

/// Oracle 1: extended sample conservation and tier protection.
pub fn oracle_conservation(cfg: &SimConfig) -> Result<(), String> {
    let m = run(cfg);
    conservation_violation(cfg, &m).map_or(Ok(()), Err)
}

/// The conservation check itself, usable against externally produced
/// metrics (the mutation self-check feeds it deliberately corrupted ones).
pub fn conservation_violation(cfg: &SimConfig, m: &SimMetrics) -> Option<String> {
    let accounted = m.received_samples + m.samples_lost + m.shed_samples + m.samples_in_flight;
    if m.emitted_samples != accounted {
        return Some(format!(
            "conservation violated: emitted={} != received={} + lost={} + shed={} + in_flight={}",
            m.emitted_samples, m.received_samples, m.samples_lost, m.shed_samples,
            m.samples_in_flight
        ));
    }
    let loss_classes =
        m.lost_overflow + m.lost_while_blocked + m.lost_daemon_crash + m.lost_link;
    if m.samples_lost != loss_classes {
        return Some(format!(
            "loss breakdown violated: lost={} != overflow={} + blocked={} + crash={} + link={}",
            m.samples_lost, m.lost_overflow, m.lost_while_blocked, m.lost_daemon_crash,
            m.lost_link
        ));
    }
    if m.shed_samples != m.shed_by_tier.iter().sum::<u64>() {
        return Some(format!(
            "shed total {} does not match tier breakdown {:?}",
            m.shed_samples, m.shed_by_tier
        ));
    }
    if let Some(deg) = &cfg.degradation {
        for tier in 0..deg.keep_tiers.min(m.shed_by_tier.len()) {
            if m.shed_by_tier[tier] != 0 {
                return Some(format!(
                    "protected tier {tier} was shed: {:?}",
                    m.shed_by_tier
                ));
            }
        }
    } else if m.shed_samples != 0 {
        return Some(format!(
            "shed {} samples with no degradation config",
            m.shed_samples
        ));
    }
    if m.rejected_deposits != 0 {
        return Some(format!("{} deposits rejected", m.rejected_deposits));
    }
    None
}

/// Oracle 2: replicated runs are bit-identical at 1 and 4 threads.
pub fn oracle_thread_invariance(cfg: &SimConfig) -> Result<(), String> {
    let serial = run_replicated_threads(cfg, 3, 0.90, 1);
    let parallel = run_replicated_threads(cfg, 3, 0.90, 4);
    for (rep, (a, b)) in serial.runs.iter().zip(&parallel.runs).enumerate() {
        let (fa, fb) = (fingerprint(a), fingerprint(b));
        if fa != fb {
            return Err(format!(
                "thread-count divergence at rep {rep}:\n  1 thread: {fa}\n  4 threads: {fb}"
            ));
        }
    }
    Ok(())
}

/// Oracle 3: the timing wheel and the reference calendar agree byte-for-byte;
/// mismatches come back with the first divergent event located by
/// [`rewind_bisect`].
pub fn oracle_calendar_equivalence(cfg: &SimConfig) -> Result<(), String> {
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let run_on = |kind: CalendarKind| {
        let mut sim = build_with_calendar(cfg, kind);
        sim.run_until(horizon);
        sim.state_payload()
    };
    if run_on(CalendarKind::Wheel) == run_on(CalendarKind::Heap) {
        return Ok(());
    }
    let report = match rewind_bisect(
        || build_with_calendar(cfg, CalendarKind::Wheel),
        || build_with_calendar(cfg, CalendarKind::Heap),
        horizon,
    ) {
        Ok(Some(d)) => format!("first divergence: {d}"),
        Ok(None) => "not reproducible under rewind_bisect".to_string(),
        Err(e) => format!("rewind_bisect failed: {e}"),
    };
    Err(format!("calendar backends diverge; {report}"))
}

/// Oracle 4: a mid-run snapshot/restore is bitwise invisible.
pub fn oracle_snapshot_equivalence(cfg: &SimConfig) -> Result<(), String> {
    let kind = CalendarKind::Wheel;
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let mut full = build_with_calendar(cfg, kind);
    full.run_until(horizon);
    let reference = full.state_payload();

    let mut pre = build_with_calendar(cfg, kind);
    let split = SimTime::from_secs_f64(cfg.duration_s * 0.5);
    let bytes = pre
        .snapshot(split)
        .map_err(|e| format!("snapshot at {split:?} failed: {e}"))?;
    let mut resumed = Sim::restore(RoccModel::new(cfg.clone()), kind, &bytes)
        .map_err(|e| format!("restore failed: {e}"))?;
    resumed.run_until(horizon);
    if resumed.state_payload() != reference {
        return Err(format!(
            "snapshot/restore at {split:?} is not bitwise invisible"
        ));
    }
    Ok(())
}

/// Run all four oracles against one scenario.
pub fn check_scenario(cfg: &SimConfig) -> Result<(), String> {
    oracle_conservation(cfg)?;
    oracle_thread_invariance(cfg)?;
    oracle_calendar_equivalence(cfg)?;
    oracle_snapshot_equivalence(cfg)
}

/// Wrap a scenario generator and an oracle into a property for
/// [`paradyn_stats::check`]. Failures include the full scenario config so
/// the shrunk reproduction is directly replayable.
pub fn scenario_property<G, O>(
    master: u64,
    generate: G,
    oracle: O,
) -> impl Fn(&mut Gen) -> PropResult
where
    G: Fn(&mut Gen, u64) -> SimConfig,
    O: Fn(&SimConfig) -> Result<(), String>,
{
    move |g| {
        let cfg = generate(g, master);
        oracle(&cfg).map_err(|e| Failure::fail(format!("{e}\n  scenario: {cfg:?}")))
    }
}

/// Run the full chaos suite: random scenarios plus always-degraded
/// scenarios, each against all four oracles. Case count follows
/// `PARADYN_PROP_CASES`; failures shrink and report a minimal scenario.
pub fn run_suite(master: u64) {
    check(
        "chaos_scenarios",
        scenario_property(master, gen_scenario, |cfg| check_scenario(cfg)),
    );
    check(
        "chaos_degraded_scenarios",
        scenario_property(master, gen_degraded_scenario, |cfg| check_scenario(cfg)),
    );
}

fn fingerprint(m: &SimMetrics) -> String {
    format!("{m:?}")
}
