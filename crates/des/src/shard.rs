//! Sharded parallel-in-run execution: conservative lookahead windows over
//! shard-private calendars, with a merge that is bit-identical to the
//! serial engine (DESIGN.md §11).
//!
//! ## Shape
//!
//! A [`ShardPlan`] assigns every *scheduling cell* (the unit the model
//! keys its sequence counters by — see [`crate::engine::CELL_SHIFT`]) to
//! one of N shards. Each shard owns a complete [`Sim`]: its own calendar,
//! slab, and model instance holding the state of the cells it owns. A
//! [`Router`] installed in each shard's [`Ctx`] diverts any `post_at`
//! whose execution cell belongs to another shard into an outbox; the
//! driver moves those `(at, seq, event)` triples — plus optional
//! [`ShardModel::detach`]ed luggage — into the owning shard's inbox at
//! window boundaries.
//!
//! ## Conservative windows
//!
//! Cross-shard events carry a minimum latency `L` (the lookahead: in the
//! ROCC model, the forwarding-link service-time floor). Each round the
//! driver computes `gmin`, a lower bound on the earliest pending event
//! anywhere, and lets every shard run `run_until(gmin + L - 1)`: no event
//! executed in that window can cause a cross-shard arrival inside it, so
//! every shard sees exactly the event prefix the serial engine would.
//! `gmin` uses the calendars' read-only bound — never a pop, so computing
//! it moves no wheel cursor — and falls back to the exact O(pending) scan
//! if the bound stalls for [`STALL_ROUNDS`] rounds without any event
//! executing, any message moving, or the bound improving. Both backends'
//! bounds are the earliest stored entry's time (loose only by cancelled
//! leftovers), so the fallback is rarely taken.
//!
//! ## Bit-identical merge
//!
//! Sequence numbers are allocated per cell (`seq = cell << CELL_SHIFT |
//! counter`), so an event's `(time, seq)` is a pure function of its
//! scheduling cell's own history — independent of how shards interleave.
//! [`ShardedSim::merge`] therefore reassembles the exact serial state:
//! calendars union to the serial calendar, per-cell counters are taken
//! from each cell's owning shard, and the model halves are recombined by
//! the caller's `absorb`. `tests/sharding.rs` asserts payload equality
//! against the serial oracle at 1/2/4/8 shards.

use crate::calendar::CalendarKind;
use crate::engine::{Ctx, Model, Router, Sim};
use crate::time::SimTime;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

/// Consecutive no-progress rounds before the driver switches from the
/// cheap lower-bound query to the exact O(pending) minimum scan.
const STALL_ROUNDS: u32 = 2;

/// A model that can run sharded: events are routable by value, and any
/// out-of-band state an event references (e.g. a forwarded batch living
/// in a sender-side table) can be detached and shipped with it.
pub trait ShardModel: Model {
    /// State carried alongside a cross-shard event (use `()` when events
    /// are self-contained).
    type Luggage: Send;

    /// Remove and return the state `ev` references, as it leaves this
    /// shard. Called exactly once per diverted event, on the sender,
    /// after the sending handler returned — the model must not touch the
    /// state of an already-forwarded event afterwards.
    fn detach(&mut self, ev: &Self::Event) -> Option<Self::Luggage>;

    /// Install state shipped with an arriving cross-shard event, before
    /// the event enters the receiving shard's calendar.
    fn attach(&mut self, ev: &Self::Event, luggage: Self::Luggage);
}

/// The static partition a sharded run executes under.
pub struct ShardPlan {
    /// Owning shard of each scheduling cell (`len` = cell count).
    pub shard_of: Arc<Vec<u16>>,
    /// Number of shards (every `shard_of` entry is `< shards`).
    pub shards: u16,
    /// Minimum cross-shard event latency in nanoseconds: the driver may
    /// only trust it as far as the model honors it. Clamped to ≥ 1.
    pub lookahead_ns: u64,
}

/// A cross-shard event in flight: the scheduling shard already allocated
/// its sequence number, so the receiver injects it verbatim.
struct Arrival<M: ShardModel> {
    at: u64,
    seq: u64,
    ev: M::Event,
    luggage: Option<M::Luggage>,
}

/// N shard-private [`Sim`]s advancing under the conservative window
/// protocol, mergeable back into one serial-equivalent [`Sim`].
pub struct ShardedSim<M: ShardModel> {
    workers: Vec<Sim<M>>,
    plan: ShardPlan,
    /// Per-shard pending arrivals, delivered at the next round start.
    /// Kept in `self` so capacities survive across `run_until` calls
    /// (steady-state zero-alloc, per shard).
    inboxes: Vec<Vec<Arrival<M>>>,
    /// Outbox drain scratch, capacity retained.
    scratch: Vec<(u64, u64, M::Event)>,
    violations: u64,
    /// Events scheduled by the (replicated) boot on each shard.
    boot_scheduled: u64,
}

/// Lock a mutex, riding through poisoning: a panicked peer thread is
/// already being propagated by the driver, so the data is never observed.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<M: ShardModel> ShardedSim<M> {
    /// Build one `Sim` per shard on calendar `kind`.
    ///
    /// `make(s)` builds shard `s`'s model (holding only cells the plan
    /// assigns to `s`, plus any replicated read-only state). `cell_of`
    /// maps an event to its execution cell — a pure function of the event
    /// and static configuration, shared by router and merge. `boot` seeds
    /// initial events; it runs **before** the router is installed, so it
    /// must seed the *same* events on every shard (typically one `Init`),
    /// whose handlers then self-filter to owned cells. The replication is
    /// what keeps every cell counter bit-identical to the serial run; the
    /// merge deducts the replicas from the event statistics.
    ///
    /// # Panics
    /// Panics when the plan is malformed or the boot seeds diverge.
    pub fn new(
        kind: CalendarKind,
        plan: ShardPlan,
        cell_of: Arc<dyn Fn(&M::Event) -> u32 + Send + Sync>,
        mut make: impl FnMut(u16) -> M,
        mut boot: impl FnMut(&mut Sim<M>, u16),
    ) -> ShardedSim<M> {
        let cells = plan.shard_of.len();
        assert!(plan.shards >= 1, "a sharded run needs at least one shard");
        assert!(cells >= 1, "a shard plan needs at least one cell");
        assert!(
            plan.shard_of.iter().all(|&s| s < plan.shards),
            "shard_of entry out of range"
        );
        let n = plan.shards as usize;
        let mut workers = Vec::with_capacity(n);
        let mut boot_scheduled = 0;
        for s in 0..plan.shards {
            let mut sim = Sim::with_calendar(make(s), kind);
            sim.ctx().enable_cells(cells as u32);
            boot(&mut sim, s);
            let seeded = sim.ctx().scheduled_events();
            if s == 0 {
                boot_scheduled = seeded;
            } else {
                assert_eq!(
                    seeded, boot_scheduled,
                    "boot must seed identical events on every shard"
                );
            }
            sim.ctx().set_route(Router {
                shard_of: Arc::clone(&plan.shard_of),
                me: s,
                cell_of: Arc::clone(&cell_of),
                outbox: vec![],
            });
            workers.push(sim);
        }
        ShardedSim {
            workers,
            plan,
            inboxes: (0..n).map(|_| vec![]).collect(),
            scratch: vec![],
            violations: 0,
            boot_scheduled,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.plan.shards
    }

    /// Lookahead violations observed so far: cross-shard arrivals that
    /// landed at or before the receiver's clock. Always 0 when the model
    /// honors the plan's lookahead; a non-zero count means the run's
    /// trace has diverged from the serial engine (each violating arrival
    /// is clamped to the receiver's next representable instant so the run
    /// still terminates — the differential oracle then reports the
    /// divergence).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Events executed across all shards, with the replicated boot
    /// executions counted once (matches the serial engine's count once
    /// every boot event has fired on every shard).
    pub fn executed_events(&self) -> u64 {
        let total: u64 = self.workers.iter().map(Sim::executed_events).sum();
        total - (self.plan.shards as u64 - 1) * self.boot_scheduled
    }

    /// Advance every shard to `horizon` (inclusive, like
    /// [`Sim::run_until`]). `threads <= 1` runs the window protocol on
    /// the calling thread; larger values run one OS thread per shard
    /// (bit-identical results either way).
    pub fn run_until(&mut self, horizon: SimTime, threads: usize)
    where
        M: Send,
        M::Event: Send,
    {
        let horizon_ns = horizon.as_nanos();
        if threads <= 1 || self.workers.len() == 1 {
            self.run_seq(horizon_ns);
        } else {
            self.run_threaded(horizon_ns);
        }
        for w in &mut self.workers {
            w.run_until(horizon);
        }
    }

    /// Deliver one arrival into `worker`, returning 1 on a lookahead
    /// violation (arrival not in the receiver's future — clamped).
    fn deliver(worker: &mut Sim<M>, a: Arrival<M>) -> u64 {
        if let Some(lug) = a.luggage {
            worker.model.attach(&a.ev, lug);
        }
        let now = worker.now().as_nanos();
        let (at, violated) = if a.at <= now { (now + 1, 1) } else { (a.at, 0) };
        worker.ctx().inject(at, a.seq, a.ev);
        violated
    }

    /// The window protocol, single-threaded round-robin.
    fn run_seq(&mut self, horizon_ns: u64) {
        let n = self.workers.len();
        let la = self.plan.lookahead_ns.max(1);
        let mut prev_gmin = u64::MAX;
        let mut stalled = 0u32;
        loop {
            // Deliver arrivals flushed at the end of the previous round.
            let mut progress = false;
            for s in 0..n {
                let mut inbox = std::mem::take(&mut self.inboxes[s]);
                progress |= !inbox.is_empty();
                for a in inbox.drain(..) {
                    self.violations += Self::deliver(&mut self.workers[s], a);
                }
                self.inboxes[s] = inbox;
            }
            // Global lower bound on the next event anywhere.
            let exact = stalled >= STALL_ROUNDS;
            let mut gmin = u64::MAX;
            for w in &self.workers {
                let b = if exact {
                    w.ctx_ref().peek_min_time()
                } else {
                    w.ctx_ref().next_lower_bound()
                };
                gmin = gmin.min(b);
            }
            if gmin > horizon_ns {
                return;
            }
            // Safe window: nothing executed before gmin + la can place a
            // cross-shard event at or before the window end.
            let wend = SimTime::from_nanos(gmin.saturating_add(la - 1).min(horizon_ns));
            for s in 0..n {
                let before = self.workers[s].executed_events();
                self.workers[s].run_until(wend);
                progress |= self.workers[s].executed_events() > before;
                // Flush this shard's diverted events to their owners.
                let mut out = std::mem::take(&mut self.scratch);
                self.workers[s].ctx().take_outbox(&mut out);
                progress |= !out.is_empty();
                for (at, seq, ev) in out.drain(..) {
                    let dest = match self.workers[s].ctx_ref().route_dest(&ev) {
                        Some(d) => d as usize,
                        // Outbox entries exist only under a router.
                        None => s,
                    };
                    let luggage = self.workers[s].model.detach(&ev);
                    self.inboxes[dest].push(Arrival { at, seq, ev, luggage });
                }
                self.scratch = out;
            }
            stalled = if !progress && gmin == prev_gmin {
                stalled + 1
            } else {
                0
            };
            prev_gmin = gmin;
        }
    }

    /// The window protocol, one OS thread per shard. Rounds are separated
    /// by two barriers; the global minimum and the progress flag are
    /// double-buffered atomics so one round's publish never races the
    /// next round's reset. Mailbox push order between threads is
    /// nondeterministic but immaterial: arrivals carry pre-allocated
    /// `(at, seq)` and the calendar orders by exactly that.
    fn run_threaded(&mut self, horizon_ns: u64)
    where
        M: Send,
        M::Event: Send,
    {
        let la = self.plan.lookahead_ns.max(1);
        let n = self.workers.len();
        let mins = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];
        let progress = [AtomicBool::new(false), AtomicBool::new(false)];
        let violations = AtomicU64::new(0);
        let barrier = Barrier::new(n);
        let mailboxes: Vec<Mutex<Vec<Arrival<M>>>> =
            self.inboxes.drain(..).map(Mutex::new).collect();
        std::thread::scope(|sc| {
            let mut handles = Vec::with_capacity(n);
            for (s, worker) in self.workers.iter_mut().enumerate() {
                let mins = &mins;
                let progress = &progress;
                let violations = &violations;
                let barrier = &barrier;
                let mailboxes = &mailboxes;
                handles.push(sc.spawn(move || {
                    let mut local: Vec<Arrival<M>> = vec![];
                    let mut out: Vec<(u64, u64, M::Event)> = vec![];
                    let mut parity = 0usize;
                    let mut prev_gmin = u64::MAX;
                    let mut stalled = 0u32;
                    loop {
                        // Deliver arrivals (flushed before the previous
                        // round's second barrier).
                        std::mem::swap(&mut *lock(&mailboxes[s]), &mut local);
                        let mut prog = !local.is_empty();
                        for a in local.drain(..) {
                            let v = Self::deliver(worker, a);
                            if v != 0 {
                                violations.fetch_add(v, Ordering::Relaxed);
                            }
                        }
                        // Publish this shard's bound into the round's min.
                        let exact = stalled >= STALL_ROUNDS;
                        let b = if exact {
                            worker.ctx_ref().peek_min_time()
                        } else {
                            worker.ctx_ref().next_lower_bound()
                        };
                        mins[parity].fetch_min(b, Ordering::AcqRel);
                        barrier.wait();
                        let gmin = mins[parity].load(Ordering::Acquire);
                        if s == 0 {
                            // Reset the *other* buffers between the two
                            // barriers: peers write them only after the
                            // second barrier of this round.
                            mins[1 - parity].store(u64::MAX, Ordering::Release);
                            progress[1 - parity].store(false, Ordering::Release);
                        }
                        if gmin > horizon_ns {
                            // Same gmin everywhere: all threads exit here.
                            return;
                        }
                        let wend =
                            SimTime::from_nanos(gmin.saturating_add(la - 1).min(horizon_ns));
                        let before = worker.executed_events();
                        worker.run_until(wend);
                        prog |= worker.executed_events() > before;
                        worker.ctx().take_outbox(&mut out);
                        prog |= !out.is_empty();
                        for (at, seq, ev) in out.drain(..) {
                            let dest = match worker.ctx_ref().route_dest(&ev) {
                                Some(d) => d as usize,
                                // Outbox entries exist only under a router.
                                None => s,
                            };
                            let luggage = worker.model.detach(&ev);
                            lock(&mailboxes[dest]).push(Arrival { at, seq, ev, luggage });
                        }
                        if prog {
                            progress[parity].store(true, Ordering::Release);
                        }
                        barrier.wait();
                        let global_prog = progress[parity].load(Ordering::Acquire);
                        stalled = if !global_prog && gmin == prev_gmin {
                            stalled + 1
                        } else {
                            0
                        };
                        prev_gmin = gmin;
                        parity = 1 - parity;
                    }
                }));
            }
            for h in handles {
                if let Err(p) = h.join() {
                    std::panic::resume_unwind(p);
                }
            }
        });
        self.inboxes = mailboxes
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        self.violations += violations.load(Ordering::Acquire);
    }

    /// Reassemble the serial-equivalent [`Sim`] on calendar `kind`: the
    /// union of the shard calendars, per-cell counters taken from each
    /// cell's owning shard, and the model recombined by `absorb` (which
    /// receives the shard models in shard order). Event statistics deduct
    /// the replicated boot executions, so the result matches the serial
    /// engine bit for bit — `state_payload` equality is asserted by the
    /// differential suites.
    ///
    /// # Panics
    /// Panics if a replicated boot event is still pending (merge before
    /// any `run_until`) or the shard calendars overlap — both indicate
    /// driver bugs, not model states, and must not be silently merged.
    pub fn merge<F>(self, kind: CalendarKind, absorb: F) -> Sim<M>
    where
        M::Event: Clone,
        F: FnOnce(Vec<M>) -> M,
    {
        let n = self.plan.shards as u64;
        let now = self
            .workers
            .iter()
            .map(|w| w.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        let executed: u64 =
            self.workers.iter().map(Sim::executed_events).sum::<u64>() - (n - 1) * self.boot_scheduled;
        let scheduled: u64 = self
            .workers
            .iter()
            .map(|w| w.ctx_ref().scheduled_events())
            .sum::<u64>()
            - (n - 1) * self.boot_scheduled;
        // Each cell's counter is authoritative on its owning shard; other
        // shards only ever bumped it through the replicated boot.
        let cells = self.plan.shard_of.len();
        let mut counters = Vec::with_capacity(cells);
        for c in 0..cells {
            let owner = self.plan.shard_of[c] as usize;
            counters.push(self.workers[owner].ctx_ref().seq_counters()[c]);
        }
        assert_eq!(
            counters.iter().sum::<u64>(),
            scheduled,
            "merged cell counters disagree with the scheduled count"
        );
        let mut entries = Vec::with_capacity(
            self.workers
                .iter()
                .map(|w| w.ctx_ref().pending_events())
                .sum(),
        );
        for w in &self.workers {
            entries.append(&mut w.ctx_ref().live_entries());
        }
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        assert!(
            entries.windows(2).all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)),
            "shard calendars overlap (a replicated boot event is still pending?)"
        );
        let models: Vec<M> = self.workers.into_iter().map(Sim::into_model).collect();
        let ctx = Ctx::assemble(kind, now, executed, scheduled, counters, entries);
        Sim::from_parts(absorb(models), ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;
    use crate::time::SimDur;

    const INIT: u32 = u32::MAX;
    const LA: u64 = 5_000;

    /// Toy multi-cell model: each cell runs an event chain that hops to
    /// `(cell + 3) % cells` with a ≥ LA delay, so hops routinely cross
    /// shard boundaries under a contiguous partition. Mirrors the ROCC
    /// boot pattern: a replicated `INIT` whose handler self-filters to
    /// owned cells.
    struct Ring {
        cells: u32,
        me: u16,
        shard_of: Vec<u16>, // empty = serial (owns everything)
        log: Vec<(u64, u32)>,
    }

    impl Ring {
        fn owns(&self, c: u32) -> bool {
            self.shard_of.is_empty() || self.shard_of[c as usize] == self.me
        }
    }

    impl Model for Ring {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
            if ev == INIT {
                for c in 0..self.cells {
                    if self.owns(c) {
                        ctx.set_cell(c);
                        ctx.post_at(SimTime::from_nanos(1 + (c as u64 * 977) % 3_000), c);
                    }
                }
                return;
            }
            ctx.set_cell(ev);
            self.log.push((ctx.now().as_nanos(), ev));
            let delay = LA + (ev as u64 * 31) % 97;
            ctx.post_in(SimDur::from_nanos(delay), (ev + 3) % self.cells);
        }
    }

    impl ShardModel for Ring {
        type Luggage = ();
        fn detach(&mut self, _ev: &u32) -> Option<()> {
            None
        }
        fn attach(&mut self, _ev: &u32, _l: ()) {}
    }

    fn plan(cells: u32, shards: u16, lookahead_ns: u64) -> ShardPlan {
        // Contiguous chunks, remainder to the front.
        let per = (cells as usize).div_ceil(shards as usize);
        let shard_of: Vec<u16> = (0..cells as usize).map(|c| (c / per) as u16).collect();
        ShardPlan {
            shard_of: Arc::new(shard_of),
            shards,
            lookahead_ns,
        }
    }

    fn serial(cells: u32, kind: CalendarKind, horizon: u64) -> Sim<Ring> {
        let mut sim = Sim::with_calendar(
            Ring { cells, me: 0, shard_of: vec![], log: vec![] },
            kind,
        );
        sim.ctx().enable_cells(cells);
        sim.ctx().post_at(SimTime::ZERO, INIT);
        sim.run_until(SimTime::from_nanos(horizon));
        sim
    }

    fn sharded(
        cells: u32,
        shards: u16,
        kind: CalendarKind,
        lookahead_ns: u64,
    ) -> ShardedSim<Ring> {
        let p = plan(cells, shards, lookahead_ns);
        let shard_of = Arc::clone(&p.shard_of);
        ShardedSim::new(
            kind,
            p,
            Arc::new(|ev: &u32| if *ev == INIT { 0 } else { *ev }),
            move |s| Ring {
                cells,
                me: s,
                shard_of: shard_of.as_ref().clone(),
                log: vec![],
            },
            |sim, _s| sim.ctx().post_at(SimTime::ZERO, INIT),
        )
    }

    fn absorb(mut models: Vec<Ring>) -> Ring {
        let mut base = models.remove(0);
        for m in models {
            base.log.extend(m.log);
        }
        base
    }

    fn sorted(mut log: Vec<(u64, u32)>) -> Vec<(u64, u32)> {
        log.sort_unstable();
        log
    }

    #[test]
    fn sharded_run_matches_serial_on_both_backends() {
        const CELLS: u32 = 8;
        const HORIZON: u64 = 50_000_000;
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let oracle = serial(CELLS, kind, HORIZON);
            for shards in [1u16, 2, 4, 8] {
                let mut s = sharded(CELLS, shards, kind, LA);
                s.run_until(SimTime::from_nanos(HORIZON), 1);
                assert_eq!(s.violations(), 0, "{kind:?}/{shards}");
                assert_eq!(s.executed_events(), oracle.executed_events());
                let merged = s.merge(kind, absorb);
                assert_eq!(merged.now(), oracle.now());
                assert_eq!(merged.executed_events(), oracle.executed_events());
                assert_eq!(
                    merged.ctx_ref().scheduled_events(),
                    oracle.ctx_ref().scheduled_events()
                );
                assert_eq!(
                    merged.ctx_ref().seq_counters(),
                    oracle.ctx_ref().seq_counters(),
                    "{kind:?}/{shards}: per-cell counters diverged"
                );
                assert_eq!(
                    sorted(merged.model.log),
                    sorted(oracle.model.log.clone()),
                    "{kind:?}/{shards}: executed traces diverged"
                );
            }
        }
    }

    #[test]
    fn merge_midway_then_continue_matches_serial() {
        const CELLS: u32 = 8;
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let oracle = serial(CELLS, kind, 40_000_000);
            let mut s = sharded(CELLS, 4, kind, LA);
            s.run_until(SimTime::from_nanos(17_000_000), 1);
            let mut merged = s.merge(kind, absorb);
            // The merged sim must carry the exact live calendar: finishing
            // the run serially lands in the oracle's state.
            merged.run_until(SimTime::from_nanos(40_000_000));
            assert_eq!(merged.executed_events(), oracle.executed_events());
            assert_eq!(
                merged.ctx_ref().seq_counters(),
                oracle.ctx_ref().seq_counters()
            );
            assert_eq!(sorted(merged.model.log), sorted(oracle.model.log.clone()));
        }
    }

    #[test]
    fn threaded_execution_is_bit_identical_to_sequential() {
        const CELLS: u32 = 8;
        const HORIZON: u64 = 30_000_000;
        let mut seq = sharded(CELLS, 4, CalendarKind::Wheel, LA);
        seq.run_until(SimTime::from_nanos(HORIZON), 1);
        let mut thr = sharded(CELLS, 4, CalendarKind::Wheel, LA);
        thr.run_until(SimTime::from_nanos(HORIZON), 4);
        assert_eq!(thr.violations(), 0);
        assert_eq!(seq.executed_events(), thr.executed_events());
        let a = seq.merge(CalendarKind::Wheel, absorb);
        let b = thr.merge(CalendarKind::Wheel, absorb);
        assert_eq!(a.ctx_ref().seq_counters(), b.ctx_ref().seq_counters());
        assert_eq!(sorted(a.model.log), sorted(b.model.log));
    }

    #[test]
    fn inflated_lookahead_is_detected_as_violations() {
        // Claiming 50 µs of lookahead when hops deliver after ~5 µs makes
        // the windows unsound: arrivals land at or before the receiver's
        // clock and must be counted (the differential oracle then reports
        // the trace divergence — scripts/verify.sh's mutation self-check).
        let mut s = sharded(8, 4, CalendarKind::Wheel, 50_000);
        s.run_until(SimTime::from_nanos(20_000_000), 1);
        assert!(
            s.violations() > 0,
            "inflated lookahead must surface as violations"
        );
    }

    #[test]
    fn one_shard_degenerates_to_serial() {
        let oracle = serial(4, CalendarKind::Wheel, 10_000_000);
        let mut s = sharded(4, 1, CalendarKind::Wheel, LA);
        s.run_until(SimTime::from_nanos(10_000_000), 1);
        assert_eq!(s.violations(), 0);
        let merged = s.merge(CalendarKind::Wheel, absorb);
        assert_eq!(merged.executed_events(), oracle.executed_events());
        assert_eq!(sorted(merged.model.log), sorted(oracle.model.log.clone()));
    }
}
