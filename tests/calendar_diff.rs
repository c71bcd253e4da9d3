//! Differential property tests: the timing-wheel calendar must be
//! observationally identical to the reference calendar (a `BTreeMap` that
//! delivers one event per pop) — same `(time, event)` trace (including tie
//! order), same executed/pending counts, and no residue after a full drain
//! — under random schedule/run sequences spanning many bucket widths.
//!
//! Runs on the in-tree `paradyn_stats::check` harness. Rerun a reported
//! failure with `PARADYN_PROP_SEED=<seed> cargo test <property name>`.

use paradyn_des::{CalendarKind, Ctx, Model, Sim, SimDur, SimTime};
use paradyn_stats::{check, prop_assert, prop_assert_eq};

/// Records every delivered event with its firing time.
struct Recorder {
    trace: Vec<(u64, u32)>,
}

impl Model for Recorder {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        self.trace.push((ctx.now().as_nanos(), ev));
    }
}

/// One generated operation, applied identically to both calendars.
enum Op {
    /// Post at `now + delay`.
    Schedule { delay: u64, ev: u32 },
    /// Advance the clock by `dur` (a horizon stop, not an event).
    Run { dur: u64 },
}

/// Delay scales from a few nanoseconds (ties and near-ties inside one
/// bucket) up to many wheel years at any width the wheel settles on.
const SCALES: [u64; 6] = [1, 64, 4096, 262_144, 1 << 24, 1 << 36];

fn gen_ops(g: &mut paradyn_stats::Gen) -> Vec<Op> {
    let n = g.usize_in(1, 120);
    (0..n)
        .map(|_| match g.u64_in(0, 7) {
            0..=5 => Op::Schedule {
                // Scaled so ties (delay 0 and equal delays) are common.
                delay: g.u64_in(0, 8) * SCALES[g.index(SCALES.len())],
                ev: g.u64_in(0, u32::MAX as u64) as u32,
            },
            _ => Op::Run {
                dur: g.u64_in(0, 4) * SCALES[g.index(SCALES.len())],
            },
        })
        .collect()
}

/// Drive one calendar through `ops`, then drain it completely.
fn drive(kind: CalendarKind, ops: &[Op]) -> Sim<Recorder> {
    let mut sim = Sim::with_calendar(Recorder { trace: vec![] }, kind);
    for op in ops {
        match *op {
            Op::Schedule { delay, ev } => sim.ctx().post_in(SimDur::from_nanos(delay), ev),
            Op::Run { dur } => {
                let horizon = sim.now() + SimDur::from_nanos(dur);
                sim.run_until(horizon);
            }
        }
    }
    sim.run_until(SimTime::MAX);
    sim
}

/// The wheel and the reference produce bit-identical `(time, event)`
/// traces — including tie order — and agree on every observable counter.
#[test]
fn wheel_matches_heap_oracle() {
    check("wheel_matches_heap_oracle", |g| {
        let ops = gen_ops(g);
        let wheel = drive(CalendarKind::Wheel, &ops);
        let reference = drive(CalendarKind::Heap, &ops);
        prop_assert_eq!(&wheel.model.trace, &reference.model.trace);
        prop_assert_eq!(wheel.executed_events(), reference.executed_events());
        Ok(())
    });
}

/// After a full drain both calendars report zero pending events and the
/// wheel has no occupied bucket left.
#[test]
fn drained_calendars_have_no_residue() {
    check("drained_calendars_have_no_residue", |g| {
        let ops = gen_ops(g);
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut sim = drive(kind, &ops);
            prop_assert_eq!(sim.ctx().pending_events(), 0);
            let s = sim.ctx().calendar_stats();
            prop_assert_eq!(s.live, 0);
            prop_assert!(
                s.occupied_buckets == 0,
                "{:?}: drained calendar still has occupied buckets",
                kind
            );
        }
        Ok(())
    });
}

/// `pending_events` is exact at every intermediate point: it equals the
/// number of posted events minus the number delivered so far.
#[test]
fn pending_count_matches_reference() {
    check("pending_count_matches_reference", |g| {
        let ops = gen_ops(g);
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut sim = Sim::with_calendar(Recorder { trace: vec![] }, kind);
            let mut posted = 0usize;
            for op in &ops {
                match *op {
                    Op::Schedule { delay, ev } => {
                        sim.ctx().post_in(SimDur::from_nanos(delay), ev);
                        posted += 1;
                    }
                    Op::Run { dur } => {
                        let horizon = sim.now() + SimDur::from_nanos(dur);
                        sim.run_until(horizon);
                    }
                }
                let expect = posted - sim.model.trace.len();
                prop_assert!(
                    sim.ctx().pending_events() == expect,
                    "{:?}: pending_events {} != reference {}",
                    kind,
                    sim.ctx().pending_events(),
                    expect
                );
            }
        }
        Ok(())
    });
}

/// Build a fresh `M` on each calendar kind, run it through `horizons` and
/// then to completion, and return both traces (wheel, reference).
fn both_traces<M, F>(build: F, horizons: &[u64]) -> [Vec<(u64, u32)>; 2]
where
    M: Model<Event = u32> + Traced,
    F: Fn(&mut Sim<M>),
{
    [CalendarKind::Wheel, CalendarKind::Heap].map(|kind| {
        let mut sim = Sim::with_calendar(M::fresh(), kind);
        build(&mut sim);
        for &h in horizons {
            sim.run_until(SimTime::from_nanos(h));
        }
        sim.run_until(SimTime::MAX);
        sim.model.trace().clone()
    })
}

/// A model that records `(time, event)` like [`Recorder`], built fresh for
/// each calendar kind by [`both_traces`].
trait Traced {
    fn fresh() -> Self;
    fn trace(&self) -> &Vec<(u64, u32)>;
}

/// Regression: a horizon-bounded run whose next event lies more than a full
/// wheel year ahead leaves the cursor on that event's window; a post at
/// `now` afterwards must rewind the cursor and fire first.
#[test]
fn horizon_stop_a_year_short_then_post_at_now() {
    const FAR: u64 = 10_000_000_000;
    const STOP: u64 = 5_000_000_000;
    let [wheel, reference] = [CalendarKind::Wheel, CalendarKind::Heap].map(|kind| {
        let mut sim = Sim::with_calendar(Recorder { trace: vec![] }, kind);
        // 200 events 1 µs apart, 10 s out: sizes the wheel to ~128
        // buckets of ~2 µs, a year of well under a millisecond.
        for i in 0..200u64 {
            sim.ctx()
                .post_at(SimTime::from_nanos(FAR + i * 1_000), i as u32);
        }
        // Nothing fires before the horizon; the wheel's search walks a
        // full year, then jumps to the 10 s cluster and stops there.
        sim.run_until(SimTime::from_nanos(STOP));
        assert!(
            sim.model.trace.is_empty(),
            "{kind:?}: fired before the horizon"
        );
        // Posts at `now`, just after it, and a second later: all before
        // the cluster.
        sim.ctx().post_in(SimDur::ZERO, 1_000);
        sim.ctx().post_in(SimDur::from_nanos(1), 1_001);
        sim.ctx().post_in(SimDur::from_nanos(1_000_000_000), 1_002);
        sim.run_until(SimTime::MAX);
        sim.model.trace
    });
    assert_eq!(
        &reference[..3],
        &[
            (STOP, 1_000),
            (STOP + 1, 1_001),
            (STOP + 1_000_000_000, 1_002)
        ]
    );
    assert_eq!(wheel, reference);
}

/// Posts a burst of same-instant (and next-instant) children from inside a
/// same-timestamp run, so the wheel resizes while the run is being drained.
struct Burst {
    trace: Vec<(u64, u32)>,
}

impl Traced for Burst {
    fn fresh() -> Self {
        Burst { trace: vec![] }
    }
    fn trace(&self) -> &Vec<(u64, u32)> {
        &self.trace
    }
}

impl Model for Burst {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        self.trace.push((ctx.now().as_nanos(), ev));
        if ev < 100 {
            for j in 0..(ev % 5) * 12 {
                let delay = [0, 0, 1, 64][(j % 4) as usize];
                ctx.post_in(SimDur::from_nanos(delay), 1_000 + ev * 100 + j);
            }
        }
    }
}

/// Regression: a resize in the middle of a same-timestamp run (shrinks as
/// the batch drains, growth from same-instant posts) keeps the run's order.
#[test]
fn resize_mid_same_timestamp_run_keeps_order() {
    let [wheel, reference] = both_traces::<Burst, _>(
        |sim| {
            // 40 ties at one instant grow the wheel to 16 buckets; draining
            // them shrinks it mid-run, and their children grow it again.
            for ev in 0..40u32 {
                sim.ctx().post_at(SimTime::from_nanos(1_000), ev);
            }
            for ev in 40..100u32 {
                sim.ctx()
                    .post_at(SimTime::from_nanos(1_000 + (ev as u64 % 3)), ev);
            }
        },
        &[999, 1_000],
    );
    assert!(
        reference.len() > 1_000,
        "the bursts must fire ({} events)",
        reference.len()
    );
    assert_eq!(wheel, reference);
}

/// 400 ms timers beside bursts of ties at one nanosecond every 50 µs.
struct Mixed {
    trace: Vec<(u64, u32)>,
}

const TIMER: u32 = 1 << 20;
const TICK: u32 = 1 << 21;

impl Traced for Mixed {
    fn fresh() -> Self {
        Mixed { trace: vec![] }
    }
    fn trace(&self) -> &Vec<(u64, u32)> {
        &self.trace
    }
}

impl Model for Mixed {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        let now = ctx.now().as_nanos();
        self.trace.push((now, ev));
        if now >= 2_000_000_000 {
            return;
        }
        if ev & TIMER != 0 {
            ctx.post_in(SimDur::from_nanos(400_000_000), ev);
        } else if ev & TICK != 0 {
            let k = ev & !TICK;
            for j in 0..20 {
                ctx.post_in(SimDur::from_nanos(10_000), j);
            }
            ctx.post_in(
                SimDur::from_nanos(50_000 + (k as u64 % 3) * 7),
                TICK | (k + 1),
            );
        }
    }
}

/// Mixed time scales: ties at the same nanosecond next to 400 ms timers,
/// with horizon stops between them.
#[test]
fn ties_beside_slow_timers_match_the_oracle() {
    let [wheel, reference] = both_traces::<Mixed, _>(
        |sim| {
            for id in 0..16u32 {
                sim.ctx()
                    .post_at(SimTime::from_nanos(id as u64 * 25_000_000), TIMER | id);
            }
            sim.ctx().post_at(SimTime::ZERO, TICK);
        },
        &[123_456, 400_000_000, 1_000_000_001],
    );
    assert!(
        reference.len() > 100_000,
        "too few events ({})",
        reference.len()
    );
    assert_eq!(wheel, reference);
}
