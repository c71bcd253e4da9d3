//! Tie-order gate for the event kernel: every run delivers events in
//! `(time, schedule order)`, one pop per event. Three checks, each over
//! random tie-heavy schedules where handlers post new events at the
//! instant that is firing:
//!
//! * the hashed wheel fires same-time ties in the reference calendar's
//!   `(time, seq)` order;
//! * `Sim::run_until` delivers exactly what repeated `Sim::step` does —
//!   same `(time, event)` trace, same executed count, no residue;
//! * splitting a run at arbitrary horizons leaves the trace unchanged.
//!
//! `scripts/verify.sh` links new wheel entries ahead of their same-time
//! peers in a scratch copy and requires the first check to fail by name.
//!
//! Runs on the in-tree `paradyn_stats::check` harness. Rerun a reported
//! failure with `PARADYN_PROP_SEED=<seed> cargo test <property name>`.

use paradyn_des::{CalendarKind, Ctx, Model, Sim, SimDur, SimTime};
use paradyn_stats::{check, prop_assert_eq};

/// Scripted model: event `id` posts one follow-up per delay in `plan[id]`.
/// All state that decides behavior is updated only through handler
/// execution, so any divergence in delivery order shows up as a trace
/// mismatch.
struct Scripted {
    plan: Vec<Vec<u64>>,
    trace: Vec<(u64, u32)>,
    spawned: usize,
    max_spawns: usize,
}

impl Model for Scripted {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        self.trace.push((ctx.now().as_nanos(), ev));
        for &delay in &self.plan[ev as usize] {
            if self.spawned >= self.max_spawns {
                break;
            }
            self.spawned += 1;
            let id = ((self.spawned * 7 + 3) % self.plan.len()) as u32;
            ctx.post_in(SimDur::from_nanos(delay), id);
        }
    }
}

/// Tie-heavy delays: mostly zero (same instant as the spawner) or shared
/// small multiples, plus a few jumps across many buckets.
fn gen_delay(g: &mut paradyn_stats::Gen) -> u64 {
    const SCALES: [u64; 5] = [0, 1, 64, 4096, 262_144];
    g.u64_in(0, 3) * SCALES[g.index(SCALES.len())]
}

fn gen_plan(g: &mut paradyn_stats::Gen) -> Vec<Vec<u64>> {
    let n = g.usize_in(2, 24);
    (0..n)
        .map(|_| {
            let spawns = g.usize_in(0, 3);
            (0..spawns).map(|_| gen_delay(g)).collect()
        })
        .collect()
}

/// Seed events: several ids scheduled at shared instants so the very first
/// delivery is already a tie.
fn gen_seeds(g: &mut paradyn_stats::Gen, plan_len: usize) -> Vec<(u64, u32)> {
    let n = g.usize_in(1, 16);
    (0..n)
        .map(|_| (gen_delay(g), g.usize_in(0, plan_len - 1) as u32))
        .collect()
}

fn build(kind: CalendarKind, plan: &[Vec<u64>], seeds: &[(u64, u32)]) -> Sim<Scripted> {
    let mut sim = Sim::with_calendar(
        Scripted {
            plan: plan.to_vec(),
            trace: vec![],
            spawned: 0,
            max_spawns: 400,
        },
        kind,
    );
    for &(at, id) in seeds {
        sim.ctx().post_at(SimTime::from_nanos(at), id);
    }
    sim
}

/// The wheel fires every schedule in the reference calendar's order, ties
/// included. One case is pinned: four events share an instant and the
/// third posts a child at that instant, which fires after all four.
#[test]
fn wheel_ties_fire_in_reference_order() {
    // Event 2 posts id 0 (spawn 1 → (1·7 + 3) % 5) with zero delay.
    let plan = vec![vec![], vec![], vec![0], vec![], vec![]];
    for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
        let mut sim = build(kind, &plan, &[(10, 1), (10, 3), (10, 2), (10, 4)]);
        sim.run_until(SimTime::MAX);
        assert_eq!(
            sim.model.trace,
            vec![(10, 1), (10, 3), (10, 2), (10, 4), (10, 0)],
            "{kind:?}"
        );
    }
    check("wheel_ties_fire_in_reference_order", |g| {
        let plan = gen_plan(g);
        let seeds = gen_seeds(g, plan.len());
        let mut wheel = build(CalendarKind::Wheel, &plan, &seeds);
        wheel.run_until(SimTime::MAX);
        let mut reference = build(CalendarKind::Heap, &plan, &seeds);
        reference.run_until(SimTime::MAX);
        prop_assert_eq!(&wheel.model.trace, &reference.model.trace);
        Ok(())
    });
}

/// `run_until` equals repeated `step`, bit for bit, on both calendars, and
/// leaves nothing behind.
#[test]
fn run_until_matches_repeated_step() {
    check("run_until_matches_repeated_step", |g| {
        let plan = gen_plan(g);
        let seeds = gen_seeds(g, plan.len());
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut run = build(kind, &plan, &seeds);
            run.run_until(SimTime::MAX);
            let mut stepped = build(kind, &plan, &seeds);
            while stepped.step() {}
            prop_assert_eq!(&run.model.trace, &stepped.model.trace);
            prop_assert_eq!(run.executed_events(), stepped.executed_events());
            for sim in [&mut run, &mut stepped] {
                prop_assert_eq!(sim.ctx().pending_events(), 0);
                prop_assert_eq!(sim.ctx().calendar_stats().occupied_buckets, 0);
            }
        }
        Ok(())
    });
}

/// Horizon stops inside tie runs do not change the trace: running the same
/// schedule in many small slices equals one full run.
#[test]
fn horizon_split_leaves_the_trace_unchanged() {
    check("horizon_split_leaves_the_trace_unchanged", |g| {
        let plan = gen_plan(g);
        let seeds = gen_seeds(g, plan.len());
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut whole = build(kind, &plan, &seeds);
            whole.run_until(SimTime::MAX);
            let mut sliced = build(kind, &plan, &seeds);
            let mut horizon = 0u64;
            while sliced.ctx().pending_events() > 0 {
                horizon += 1 + g.u64_in(0, 4096);
                sliced.run_until(SimTime::from_nanos(horizon));
            }
            prop_assert_eq!(&whole.model.trace, &sliced.model.trace);
            prop_assert_eq!(whole.executed_events(), sliced.executed_events());
        }
        Ok(())
    });
}
