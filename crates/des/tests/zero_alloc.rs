//! Steady-state zero-allocation gate for the DES hot path (DESIGN.md §10).
//!
//! After a warmup long enough for every buffer on the delivery loop to
//! reach its stable capacity — the wheel's entry arena, bucket array and
//! resize scratch, and the engine's batch buffer — a steady-state window of
//! ~10^5 delivered events must produce **zero** heap operations on the
//! timing wheel. The reference calendar is not gated: it runs only in the
//! differential tests, and its `BTreeMap` allocates on inserts.
//!
//! The warmup argument is about population, not time: every one of those
//! buffers grows only at a new peak — the arena at a new peak of stored
//! entries, the bucket array and resize scratch at the resize that a new
//! peak triggers, the batch buffer at a new longest same-timestamp run.
//! The workload below
//! holds a constant population once booted, so a warmup of hundreds of
//! periods has seen every peak the window can reach; a buffer that grew
//! inside the window would be a real per-event allocation.
//!
//! The counters are per thread (`paradyn-allocguard`), and the window is
//! measured on the thread that runs its simulation, so the count stays
//! exact when the harness runs other tests in parallel.
//!
//! This is the cause-side gate for the `hot-path-alloc` lint rule and the
//! perf ratchet: wall-clock benches show the symptom of an alloc
//! regression (through machine noise); this test pins the mechanism.

use paradyn_allocguard::{checkpoint, CountingAlloc};
use paradyn_des::{Ctx, Fifo, Model, Sim, SimDur, SimTime};

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
        ctx.post_in(SimDur::from_nanos(gap), id);
    }
}

/// Run the wheel through warmup and a measured steady-state window;
/// returns (heap operations in window, events delivered in window).
fn steady_state() -> (u64, u64) {
    const TIMERS: u32 = 64;
    // Some 1800 mean timer periods: the population is 64 from the first
    // instant on, so every buffer has reached its peak well before.
    const WARMUP: u64 = 1_000_000;
    // ~1.3·10^5 events in the window.
    const END: u64 = 11_000_000;

    let mut sim = Sim::new(Timers);
    for id in 0..TIMERS {
        sim.ctx().post_at(SimTime::from_nanos(id as u64), id);
    }
    sim.run_until(SimTime::from_nanos(WARMUP));
    let warm_events = sim.executed_events();

    let mark = checkpoint();
    sim.run_until(SimTime::from_nanos(END));
    let traffic = mark.heap_traffic_since();

    (traffic, sim.executed_events() - warm_events)
}

#[test]
fn steady_state_is_allocation_free() {
    let (traffic, events) = steady_state();
    assert!(
        events > 100_000,
        "window too small to be meaningful ({events} events)"
    );
    assert_eq!(
        traffic, 0,
        "{traffic} heap operation(s) across {events} steady-state events — a \
         delivery-loop buffer is being reallocated per event"
    );
}

/// A FIFO cycling at a constant length — one push, one pop — reuses its
/// spare block each time a block empties, so after warm-up it allocates
/// nothing, at a length inside one block and at one spanning many.
#[test]
fn fifo_cycling_at_constant_length_is_allocation_free() {
    for len in [1usize, 3, 100, 1_000] {
        let mut q = Fifo::new();
        for i in 0..len {
            q.push_back((i as u64, [0u64; 3]));
        }
        let cycle = |q: &mut Fifo<(u64, [u64; 3])>, n: usize| {
            for i in 0..n {
                q.push_back((i as u64, [0u64; 3]));
                assert!(q.pop_front().is_some());
            }
        };
        cycle(&mut q, 4 * len + 1_000);
        let mark = checkpoint();
        cycle(&mut q, 100_000);
        let traffic = mark.heap_traffic_since();
        assert_eq!(traffic, 0, "{traffic} heap operation(s) cycling at length {len}");
        assert_eq!(q.len(), len);
    }
}
