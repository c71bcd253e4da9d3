//! Snapshot-equivalence differential suite: checkpoint/restore must be
//! **bitwise invisible** — running a simulation straight through and
//! running it to a snapshot point, restoring the snapshot, and continuing
//! must produce identical event traces, identical final state payloads,
//! and identical metrics, on both calendar backends (and even across
//! them), with and without active fault plans.
//!
//! Also covered here: frame corruption/version rejection at the `Sim`
//! level, the `rewind_bisect` divergence locator pinned to a seeded
//! divergence, fork-from-snapshot bit-identity against the
//! re-simulate-from-zero oracle, and the suite's own sensitivity check
//! (a perturbed RNG stream in a restored snapshot must break equivalence).
//!
//! Property tests run on the in-tree `paradyn_stats::check` harness;
//! rerun a reported failure with `PARADYN_PROP_SEED=<seed> cargo test
//! <property name>`.

use paradyn_core::{
    build_with_calendar, fork_n, run, run_forked, run_perturbed_from_zero, warm_snapshot, Arch,
    DaemonCrashFaults, DegradationConfig, FaultPlan, LinkFaults, OverflowPolicy, OverloadRamp,
    RoccModel, SimConfig,
};
use paradyn_des::{
    rewind_bisect, CalendarKind, Ctx, Dec, Enc, Model, Persist, PersistState, Sim, SimDur,
    SimTime, SnapError, StreamRng, Streams,
};
use paradyn_stats::{check, prop_assert, prop_assert_eq, Gen};

const KINDS: [CalendarKind; 2] = [CalendarKind::Wheel, CalendarKind::Heap];

// ---------------------------------------------------------------------------
// A small self-driving DES model: every event logs itself and schedules
// RNG-drawn successors across several timing-wheel levels.
// ---------------------------------------------------------------------------

struct Tracer {
    seed: u64,
    limit: u32,
    rng: StreamRng,
    emitted: u32,
    log: Vec<(u64, u32)>,
}

fn tracer_model(seed: u64, limit: u32) -> Tracer {
    Tracer {
        seed,
        limit,
        rng: Streams::new(seed).stream(0),
        emitted: 0,
        log: Vec::new(),
    }
}

fn tracer_sim(seed: u64, limit: u32, kind: CalendarKind) -> Sim<Tracer> {
    let mut sim = Sim::with_calendar(tracer_model(seed, limit), kind);
    sim.ctx().post_at(SimTime::ZERO, 0);
    sim
}

impl Model for Tracer {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        self.log.push((ctx.now().as_nanos(), ev));
        // 1..=2 successors until the budget runs out; delays span wheel
        // levels from sub-slot to multi-level carry.
        let fanout = 1 + (self.rng.next_u64() % 2);
        for _ in 0..fanout {
            if self.emitted >= self.limit {
                break;
            }
            self.emitted += 1;
            let shift = self.rng.next_u64() % 30;
            let delay = self.rng.next_u64() % (1u64 << shift).max(1);
            ctx.post_in(SimDur::from_nanos(delay), self.emitted);
        }
    }
}

impl PersistState for Tracer {
    fn fingerprint(&self) -> u64 {
        let mut bytes = [0u8; 12];
        bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        bytes[8..].copy_from_slice(&self.limit.to_le_bytes());
        paradyn_des::fnv1a(&bytes)
    }
    fn save_state(&self, w: &mut Enc) {
        self.rng.save(w);
        w.put_u32(self.emitted);
        self.log.save(w);
    }
    fn load_state(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        self.rng = Persist::load(r)?;
        self.emitted = r.take_u32()?;
        self.log = Persist::load(r)?;
        Ok(())
    }
}

/// Snapshot/restore at a random event count is invisible to a run of the
/// small DES model: same trace, same final payload — including when the
/// snapshot is restored into the *other* calendar backend.
#[test]
fn des_snapshot_restore_is_bitwise_invisible() {
    check("des_snapshot_restore_is_bitwise_invisible", |g| {
        let seed = g.u64_in(1, 1 << 48);
        let limit = g.u64_in(8, 300) as u32;
        let kind = *g.choice(&KINDS);

        let mut full = tracer_sim(seed, limit, kind);
        while full.step() {}
        let total = full.executed_events();
        prop_assert!(total >= 1);

        let split = g.u64_in(0, total);
        let mut pre = tracer_sim(seed, limit, kind);
        pre.run_events(split);
        let bytes = pre.snapshot_now();

        // Both backends snapshot identical state to identical bytes.
        let mut other = tracer_sim(
            seed,
            limit,
            match kind {
                CalendarKind::Wheel => CalendarKind::Heap,
                CalendarKind::Heap => CalendarKind::Wheel,
            },
        );
        other.run_events(split);
        prop_assert_eq!(&other.snapshot_now(), &bytes);

        // Restoring into either backend and continuing matches the
        // uninterrupted run bit-for-bit.
        for rkind in KINDS {
            let mut resumed = match Sim::restore(tracer_model(seed, limit), rkind, &bytes) {
                Ok(s) => s,
                Err(e) => {
                    prop_assert!(false, "restore failed: {e}");
                    return Ok(());
                }
            };
            prop_assert_eq!(resumed.executed_events(), split);
            while resumed.step() {}
            prop_assert_eq!(resumed.executed_events(), total);
            prop_assert_eq!(&resumed.model.log, &full.model.log);
            prop_assert_eq!(&resumed.state_payload(), &full.state_payload());
        }

        // The snapshotted run itself continues unperturbed.
        while pre.step() {}
        prop_assert_eq!(&pre.state_payload(), &full.state_payload());
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Full-model equivalence.
// ---------------------------------------------------------------------------

fn small_cfg(g: &mut Gen) -> SimConfig {
    let arch = *g.choice(&[
        Arch::Now {
            contention_free: true,
        },
        Arch::Now {
            contention_free: false,
        },
        Arch::Smp,
    ]);
    let faults = if g.bool() {
        FaultPlan {
            daemon_crash: Some(DaemonCrashFaults {
                mtbf_us: 20_000.0,
                recovery_us: 5_000.0,
            }),
            ..Default::default()
        }
    } else {
        FaultPlan::default()
    };
    // Half the runs carry an aggressive degradation controller and an
    // early overload ramp, so snapshots land mid-throttle/mid-shed too.
    let degradation = if g.bool() {
        Some(DegradationConfig {
            tiers: 2,
            keep_tiers: 1,
            pipe_hi: 0.4,
            pipe_lo: 0.2,
            daemon_hi: 3,
            daemon_lo: 1,
            recover_period_us: 3_000.0,
            hysteresis_us: 5_000.0,
            ..Default::default()
        })
    } else {
        None
    };
    let overload = if g.bool() {
        Some(OverloadRamp {
            at_s: 0.01,
            factor: 8.0,
        })
    } else {
        None
    };
    SimConfig {
        arch,
        nodes: g.usize_in(1, 2),
        sampling_period_us: *g.choice(&[2_000.0, 10_000.0]),
        duration_s: g.f64_in(0.02, 0.05),
        seed: g.u64_in(1, 1 << 48),
        faults,
        degradation,
        overload,
        ..Default::default()
    }
}

fn final_state(cfg: &SimConfig, sim: &mut Sim<RoccModel>) -> (String, Vec<u8>) {
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    sim.run_until(horizon);
    let events = sim.executed_events();
    let metrics = sim.model.metrics(horizon - SimTime::ZERO, events);
    (format!("{metrics:?}"), sim.state_payload())
}

/// Snapshot/restore at a random simulated time is invisible to the full
/// ROCC model — final metrics and state payloads are bit-identical on both
/// backends, with and without an active fault plan.
#[test]
fn rocc_snapshot_restore_is_bitwise_invisible() {
    check("rocc_snapshot_restore_is_bitwise_invisible", |g| {
        let cfg = small_cfg(g);
        let kind = *g.choice(&KINDS);
        let horizon_ns = SimTime::from_secs_f64(cfg.duration_s).as_nanos();
        let split = SimTime::from_nanos(g.u64_in(0, horizon_ns));

        let mut full = build_with_calendar(&cfg, kind);
        let (full_metrics, full_payload) = final_state(&cfg, &mut full);

        let mut pre = build_with_calendar(&cfg, kind);
        let bytes = match pre.snapshot(split) {
            Ok(b) => b,
            Err(e) => {
                prop_assert!(false, "snapshot failed: {e}");
                return Ok(());
            }
        };
        let mut resumed = match Sim::restore(RoccModel::new(cfg.clone()), kind, &bytes) {
            Ok(s) => s,
            Err(e) => {
                prop_assert!(false, "restore failed: {e}");
                return Ok(());
            }
        };
        // Restore is lossless: re-snapshotting immediately reproduces the
        // frame byte-for-byte.
        prop_assert_eq!(&resumed.snapshot_now(), &bytes);

        let (res_metrics, res_payload) = final_state(&cfg, &mut resumed);
        prop_assert_eq!(&res_metrics, &full_metrics);
        prop_assert_eq!(&res_payload, &full_payload);

        // The snapshotted run continues unperturbed too.
        let (pre_metrics, pre_payload) = final_state(&cfg, &mut pre);
        prop_assert_eq!(&pre_metrics, &full_metrics);
        prop_assert_eq!(&pre_payload, &full_payload);
        Ok(())
    });
}

/// Deterministic pin: the full active fault plan (crashes, lossy links,
/// consumer stalls, lossy pipes) survives checkpoint/restore bitwise on
/// both backends, and a wheel snapshot restores into the reference
/// calendar (and vice versa) without observable effect.
#[test]
fn faulty_run_equivalence_on_both_backends() {
    let cfg = SimConfig {
        arch: Arch::Now {
            contention_free: false,
        },
        nodes: 2,
        duration_s: 0.08,
        sampling_period_us: 2_000.0,
        seed: 0xFA11,
        faults: FaultPlan {
            overflow: OverflowPolicy::DropNewest,
            daemon_crash: Some(DaemonCrashFaults {
                mtbf_us: 15_000.0,
                recovery_us: 4_000.0,
            }),
            link: Some(LinkFaults {
                fail_prob: 0.05,
                max_retries: 2,
                backoff_base_us: 100.0,
            }),
            stall: Some(Default::default()),
        },
        ..Default::default()
    };
    assert!(cfg.faults.is_active());
    let split = SimTime::from_secs_f64(0.03);

    let mut payloads = vec![];
    for kind in KINDS {
        let mut full = build_with_calendar(&cfg, kind);
        let (full_metrics, full_payload) = final_state(&cfg, &mut full);
        let mut pre = build_with_calendar(&cfg, kind);
        let bytes = pre.snapshot(split).expect("snapshot");
        // Cross-backend restore: the canonical calendar form makes the
        // snapshot backend-independent.
        for rkind in KINDS {
            let mut resumed =
                Sim::restore(RoccModel::new(cfg.clone()), rkind, &bytes).expect("restore");
            let (m, p) = final_state(&cfg, &mut resumed);
            assert_eq!(m, full_metrics, "{kind:?} -> {rkind:?}");
            assert_eq!(p, full_payload, "{kind:?} -> {rkind:?}");
        }
        payloads.push((full_metrics, full_payload));
    }
    // And the two backends agree with each other end-to-end.
    assert_eq!(payloads[0], payloads[1]);
}

/// Deterministic pin: a snapshot taken mid-shed — while the degradation
/// controller is actively throttling apps and shedding low-priority
/// samples under an overload ramp — is bitwise invisible on both backends
/// and across them.
#[test]
fn degraded_run_equivalence_on_both_backends() {
    let mut params = paradyn_workload::RoccParams::default();
    params.pipe_capacity = 8;
    let cfg = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 2,
        apps_per_node: 4,
        sampling_period_us: 500.0,
        duration_s: 0.3,
        seed: 0xDE6,
        params,
        degradation: Some(DegradationConfig {
            tiers: 4,
            keep_tiers: 2,
            pipe_hi: 0.5,
            pipe_lo: 0.25,
            daemon_hi: 4,
            daemon_lo: 1,
            recover_period_us: 5_000.0,
            hysteresis_us: 10_000.0,
            ..Default::default()
        }),
        overload: Some(OverloadRamp {
            at_s: 0.05,
            factor: 8.0,
        }),
        ..Default::default()
    };
    // The controller must actually be mid-flight for this pin to bite.
    let m = run(&cfg);
    assert!(m.shed_samples > 0, "config never sheds: {m:?}");
    assert!(m.throttle_events > 0, "config never throttles");

    let split = SimTime::from_secs_f64(0.15);
    let mut payloads = vec![];
    for kind in KINDS {
        let mut full = build_with_calendar(&cfg, kind);
        let (full_metrics, full_payload) = final_state(&cfg, &mut full);
        let mut pre = build_with_calendar(&cfg, kind);
        let bytes = pre.snapshot(split).expect("snapshot");
        for rkind in KINDS {
            let mut resumed =
                Sim::restore(RoccModel::new(cfg.clone()), rkind, &bytes).expect("restore");
            let (metrics, payload) = final_state(&cfg, &mut resumed);
            assert_eq!(metrics, full_metrics, "{kind:?} -> {rkind:?}");
            assert_eq!(payload, full_payload, "{kind:?} -> {rkind:?}");
        }
        payloads.push((full_metrics, full_payload));
    }
    assert_eq!(payloads[0], payloads[1]);
}

// ---------------------------------------------------------------------------
// Frame rejection at the Sim level.
// ---------------------------------------------------------------------------

fn reject_cfg() -> SimConfig {
    SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 1,
        duration_s: 0.05,
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn corrupted_frames_are_rejected_not_panicked() {
    let cfg = reject_cfg();
    let kind = CalendarKind::Wheel;
    let mut sim = build_with_calendar(&cfg, kind);
    let bytes = sim.snapshot(SimTime::from_secs_f64(0.01)).expect("snapshot");

    // The pristine frame restores.
    assert!(Sim::restore(RoccModel::new(cfg.clone()), kind, &bytes).is_ok());

    // Every truncation point is an error, never a panic.
    for cut in [0, 1, 4, 8, 23, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Sim::restore(RoccModel::new(cfg.clone()), kind, &bytes[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }

    // Trailing garbage is an error.
    let mut long = bytes.clone();
    long.push(0);
    assert_eq!(
        Sim::restore(RoccModel::new(cfg.clone()), kind, &long).err(),
        Some(SnapError::TrailingBytes)
    );

    // Single-bit flips across the frame are errors (the checksum or a
    // structural validator catches them), never panics or silent accepts.
    let step = (bytes.len() / 64).max(1);
    for pos in (0..bytes.len()).step_by(step) {
        for bit in [0u8, 7] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            assert!(
                Sim::restore(RoccModel::new(cfg.clone()), kind, &flipped).is_err(),
                "bit flip at byte {pos} bit {bit} accepted"
            );
        }
    }

    // A snapshot from a different configuration is a fingerprint mismatch.
    let other = SimConfig {
        seed: 8,
        ..cfg.clone()
    };
    match Sim::restore(RoccModel::new(other), kind, &bytes).err() {
        Some(SnapError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// rewind_bisect: pinned divergence localization.
// ---------------------------------------------------------------------------

/// Deterministic chain: event `n` fires at `t = 100·n` ns and schedules
/// `n+1` until `n == 10`. The `hiccup` variant additionally bumps a
/// counter while handling event 5 — the seeded divergence.
struct DivModel {
    hiccup: bool,
    count: u64,
    extra: u64,
}

impl Model for DivModel {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        self.count += 1;
        if self.hiccup && ev == 5 {
            self.extra += 1;
        }
        if ev < 10 {
            ctx.post_in(SimDur::from_nanos(100), ev + 1);
        }
    }
}

impl PersistState for DivModel {
    fn fingerprint(&self) -> u64 {
        paradyn_des::fnv1a(&[b"DivModel"[0], self.hiccup as u8])
    }
    fn save_state(&self, w: &mut Enc) {
        w.put_u64(self.count);
        w.put_u64(self.extra);
    }
    fn load_state(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        self.count = r.take_u64()?;
        self.extra = r.take_u64()?;
        Ok(())
    }
}

fn div_sim(hiccup: bool) -> Sim<DivModel> {
    let mut sim = Sim::new(DivModel {
        hiccup,
        count: 0,
        extra: 0,
    });
    sim.ctx().post_at(SimTime::ZERO, 0);
    sim
}

#[test]
fn rewind_bisect_pinpoints_seeded_divergence() {
    let horizon = SimTime::from_nanos(10_000);
    let d = rewind_bisect(|| div_sim(false), || div_sim(true), horizon)
        .expect("bisect")
        .expect("runs must diverge");
    // Event 5 fires at t = 500 ns after 5 identically handled events; it is
    // the same (time, event) pair in both runs, with divergent outcomes.
    assert_eq!(d.at, SimTime::from_nanos(500));
    assert_eq!(d.executed_before, 5);
    assert_eq!(d.event_a, "5");
    assert_eq!(d.event_b, "5");
    let report = d.to_string();
    assert!(
        report.contains("t=500 ns") && report.contains("#5"),
        "unhelpful divergence report: {report}"
    );
}

#[test]
fn rewind_bisect_reports_no_divergence_for_identical_runs() {
    let horizon = SimTime::from_nanos(10_000);
    assert_eq!(
        rewind_bisect(|| div_sim(true), || div_sim(true), horizon).expect("bisect"),
        None
    );
}

#[test]
fn rewind_bisect_locates_seed_divergence_on_full_model() {
    let a = reject_cfg();
    let b = SimConfig { seed: 8, ..a.clone() };
    let horizon = SimTime::from_secs_f64(a.duration_s);
    let kind = CalendarKind::Wheel;
    let d = rewind_bisect(
        || build_with_calendar(&a, kind),
        || build_with_calendar(&b, kind),
        horizon,
    )
    .expect("bisect")
    .expect("different seeds must diverge");
    // Different seeds differ from the very first state exposure.
    assert_eq!(d.executed_before, 0);
    assert_eq!(d.at, SimTime::ZERO);
}

// ---------------------------------------------------------------------------
// Fork-from-snapshot: warmup skipped, results bit-identical to the
// re-simulate-from-zero oracle.
// ---------------------------------------------------------------------------

#[test]
fn fork_n_matches_from_zero_oracle_bitwise() {
    let cfg = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 2,
        duration_s: 0.06,
        seed: 0xF02C,
        ..Default::default()
    };
    let warmup_s = 0.02;
    let kind = CalendarKind::Wheel;
    let warm = warm_snapshot(&cfg, SimTime::from_secs_f64(warmup_s), kind).expect("warm");
    let horizon = SimTime::from_secs_f64(cfg.duration_s);

    let salts = [paradyn_core::replication_seed(cfg.seed, 0), 7, 7];
    let mut sims = fork_n(&cfg, &warm, kind, &salts).expect("fork");
    let payloads: Vec<Vec<u8>> = sims
        .iter_mut()
        .map(|s| {
            s.run_until(horizon);
            s.state_payload()
        })
        .collect();

    // Same salt => identical fork; different salt => different trajectory.
    assert_eq!(payloads[1], payloads[2]);
    assert_ne!(payloads[0], payloads[1]);

    // Fork 0 is bit-identical to warming from zero with the same salt.
    let oracle = run_perturbed_from_zero(&cfg, warmup_s, 0);
    let forked_metrics = {
        let mut sims = fork_n(&cfg, &warm, kind, &salts[..1]).expect("fork");
        sims[0].run_until(horizon);
        let events = sims[0].executed_events();
        sims[0].model.metrics(horizon - SimTime::ZERO, events)
    };
    assert_eq!(format!("{forked_metrics:?}"), format!("{oracle:?}"));
}

#[test]
fn run_forked_is_thread_count_invariant() {
    let cfg = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 1,
        duration_s: 0.05,
        seed: 0x51ED,
        ..Default::default()
    };
    let serial = run_forked(&cfg, 0.01, 5, 1).expect("serial");
    let parallel = run_forked(&cfg, 0.01, 5, 4).expect("parallel");
    assert_eq!(serial.len(), 5);
    for (rep, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "rep {rep}");
    }
}

// ---------------------------------------------------------------------------
// Sensitivity self-check: the equivalence assertions above must be able to
// go red. Perturbing the restored snapshot's RNG streams is the smallest
// honest mutation — if it no longer breaks equivalence, the suite is blind.
// ---------------------------------------------------------------------------

#[test]
fn perturbed_restore_breaks_equivalence() {
    let cfg = reject_cfg();
    let kind = CalendarKind::Wheel;

    let mut full = build_with_calendar(&cfg, kind);
    let (full_metrics, full_payload) = final_state(&cfg, &mut full);

    let mut pre = build_with_calendar(&cfg, kind);
    let bytes = pre.snapshot(SimTime::from_secs_f64(0.01)).expect("snapshot");
    let mut resumed = Sim::restore(RoccModel::new(cfg.clone()), kind, &bytes).expect("restore");
    resumed.model.perturb_streams(0xD15EA5E);
    let (metrics, payload) = final_state(&cfg, &mut resumed);

    assert_ne!(
        payload, full_payload,
        "stream perturbation was invisible: the equivalence suite cannot detect divergence"
    );
    assert_ne!(
        metrics, full_metrics,
        "stream perturbation left metrics untouched: the equivalence suite cannot detect divergence"
    );
}
