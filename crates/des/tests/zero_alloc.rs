//! Steady-state zero-allocation gate for the DES hot path (DESIGN.md §10).
//!
//! After a warmup long enough for every buffer on the delivery loop to
//! reach its stable capacity — the wheel's entry arena, bucket array and
//! resize scratch, the engine's batch buffer, the slot slab, the heap
//! backend's `BinaryHeap` — a steady-state window of ~10^5 delivered events
//! must produce **zero** heap operations, for both calendar backends.
//!
//! The warmup argument is about population, not time: every one of those
//! buffers grows only at a new peak — the arena and the heap at a new peak
//! of stored entries, the bucket array and resize scratch at the resize
//! that a new peak triggers, the slab at a new peak of live handles, the
//! batch buffer at a new longest same-timestamp run. Both workloads below
//! hold a constant population once booted, so a warmup of hundreds of
//! periods has seen every peak the window can reach; a buffer that grew
//! inside the window would be a real per-event allocation.
//!
//! The counters are per thread (`paradyn-allocguard`), and each window is
//! measured on the thread that runs its simulation, so the two tests stay
//! exact when the harness runs them in parallel.
//!
//! This is the cause-side gate for the `hot-path-alloc` lint rule and the
//! perf ratchet: wall-clock benches show the symptom of an alloc
//! regression (through machine noise); this test pins the mechanism.

use paradyn_allocguard::{checkpoint, CountingAlloc};
use paradyn_des::{
    CalendarKind, Ctx, Model, ShardModel, ShardPlan, ShardedSim, Sim, SimDur, SimTime,
};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// 64 free-running timers with deterministic, id-staggered gaps around
/// 5 µs: keeps the calendar populated and shuffled, cycles every bucket
/// many times per millisecond, and exercises the same schedule/pop path as
/// the model workloads.
struct Timers;

impl Model for Timers {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, id: u32) {
        let gap = 2_000 + (id as u64).wrapping_mul(2654435761) % 6_000;
        ctx.schedule_in(SimDur::from_nanos(gap), id);
    }
}

/// Run one backend through warmup and a measured steady-state window;
/// returns (heap operations in window, events delivered in window).
fn steady_state(kind: CalendarKind) -> (u64, u64) {
    const TIMERS: u32 = 64;
    // Some 1800 mean timer periods: the population is 64 from the first
    // instant on, so every buffer has reached its peak well before.
    const WARMUP: u64 = 1_000_000;
    // ~1.3·10^5 events in the window.
    const END: u64 = 11_000_000;

    let mut sim = Sim::with_calendar(Timers, kind);
    for id in 0..TIMERS {
        sim.ctx().schedule_at(SimTime::from_nanos(id as u64), id);
    }
    sim.run_until(SimTime::from_nanos(WARMUP));
    let warm_events = sim.executed_events();

    let mark = checkpoint();
    sim.run_until(SimTime::from_nanos(END));
    let traffic = mark.heap_traffic_since();

    (traffic, sim.executed_events() - warm_events)
}

#[test]
fn steady_state_is_allocation_free_on_both_backends() {
    for kind in [CalendarKind::Heap, CalendarKind::Wheel] {
        let (traffic, events) = steady_state(kind);
        assert!(
            events > 100_000,
            "{kind:?}: window too small to be meaningful ({events} events)"
        );
        assert_eq!(
            traffic, 0,
            "{kind:?}: {traffic} heap operation(s) across {events} steady-state \
             events — a delivery-loop buffer is being reallocated per event"
        );
    }
}

/// Cell-aware variant of [`Timers`]: cell `c` of `CELLS` owns the timers
/// with `id % CELLS == c`, and every timer tick also posts one
/// fire-and-forget ping into the next cell — a cross-shard event on every
/// partition that splits neighboring cells — at twice the plan's declared
/// lookahead.
///
/// Unlike [`Timers`], the gaps here are deliberately *commensurate*: every
/// timer runs at exactly one period of 4096 ns, phased 64 ns apart. The
/// window protocol's per-round buffers (inboxes, outbox scratch) then see
/// the same traffic every round, so their peak — like the calendar's peak
/// population — is reached within the first few periods and "warmed up" is
/// a fact rather than a statistical hope.
struct ShardTimers {
    me: u32,
}

const CELLS: u32 = 4;
const TIMERS: u32 = 64;
/// All timers share this period, staggered 64 ns apart.
const PERIOD: u64 = 4096;
/// High bit marks a ping; low bits are the target timer id.
const PING: u32 = 1 << 31;
/// Replicated boot event; its handler self-filters to owned cells.
const INIT: u32 = u32::MAX;

fn cell_of(ev: u32) -> u32 {
    if ev == INIT {
        0
    } else {
        (ev & !PING) % CELLS
    }
}

impl Model for ShardTimers {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        ctx.set_cell(cell_of(ev));
        if ev == INIT {
            for id in 0..TIMERS {
                if id % CELLS == self.me {
                    ctx.post_at(SimTime::from_nanos(id as u64 * 64), id);
                }
            }
            return;
        }
        if ev & PING != 0 {
            return; // cross-cell ping: absorbed, no reschedule
        }
        ctx.post_in(SimDur::from_nanos(PERIOD), ev);
        // One ping per tick into the neighboring cell, two spans out —
        // honestly above the one-span lookahead the plan declares below.
        ctx.post_in(SimDur::from_nanos(2 * PERIOD), PING | (ev + 1) % TIMERS);
    }
}

impl ShardModel for ShardTimers {
    type Luggage = ();
    fn detach(&mut self, _ev: &u32) -> Option<()> {
        None
    }
    fn attach(&mut self, _ev: &u32, _luggage: ()) {}
}

/// The per-shard steady state must also be allocation-free: once the
/// calendars, inboxes, and the outbox scratch reach stable capacity, the
/// window protocol's round loop — run, drain outbox, deliver arrivals —
/// touches the heap zero times per event.
#[test]
fn sharded_steady_state_is_allocation_free() {
    // Same argument as the serial gate: constant per-shard population,
    // so a warmup of a few hundred periods has seen every peak.
    const WARMUP: u64 = 1_000_000;
    const END: u64 = 11_000_000;

    for kind in [CalendarKind::Heap, CalendarKind::Wheel] {
        let plan = ShardPlan {
            shard_of: Arc::new(vec![0, 1, 2, 3]),
            shards: CELLS as u16,
            lookahead_ns: PERIOD,
        };
        let mut sim = ShardedSim::new(
            kind,
            plan,
            Arc::new(|ev: &u32| cell_of(*ev)),
            |s| ShardTimers { me: s as u32 },
            |sim, _| sim.ctx().post_at(SimTime::ZERO, INIT),
        );
        sim.run_until(SimTime::from_nanos(WARMUP), 1);
        let warm_events = sim.executed_events();

        let mark = checkpoint();
        sim.run_until(SimTime::from_nanos(END), 1);
        let traffic = mark.heap_traffic_since();

        let events = sim.executed_events() - warm_events;
        assert_eq!(sim.violations(), 0, "{kind:?}: lookahead was violated");
        assert!(
            events > 100_000,
            "{kind:?}: window too small to be meaningful ({events} events)"
        );
        assert_eq!(
            traffic, 0,
            "{kind:?}: {traffic} heap operation(s) across {events} sharded \
             steady-state events — a window-protocol buffer is being \
             reallocated per round"
        );
    }
}
