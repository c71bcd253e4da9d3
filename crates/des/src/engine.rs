//! The simulation driver.
//!
//! The kernel is deliberately monomorphic: a model defines a plain `enum` of
//! events and implements [`Model::handle`]. Events are never boxed and never
//! cancelled; the calendar (the one-level hashed timing wheel of
//! [`crate::calendar`]) delivers them in `(time, sequence)` order with ties
//! broken in schedule order, so a given model + seed is fully deterministic.

use crate::calendar::{Calendar, CalendarKind, CalendarStats};
use crate::snapshot::{self, Dec, Enc, Persist, PersistState, SnapError};
use crate::time::{SimDur, SimTime};

/// Bit position of the scheduling-cell label inside a sequence number:
/// `seq = (cell << CELL_SHIFT) | per-cell counter`. Comparing packed
/// sequence numbers as plain `u64`s is lexicographic in `(cell, counter)`,
/// so the calendar's `(time, seq)` order breaks same-time ties by cell
/// first (see DESIGN.md §11). 2^40 events per cell and 2^24 cells are far
/// beyond any configured workload.
pub const CELL_SHIFT: u32 = 40;

/// Mask of the per-cell counter bits of a packed sequence number.
pub const CELL_SEQ_MASK: u64 = (1u64 << CELL_SHIFT) - 1;

/// Per-cell sequence allocation: one monotone counter per scheduling cell,
/// packed as `(cell << CELL_SHIFT) | counter`.
///
/// The default ("global") mode is a single cell with `cur` pinned to 0, so
/// `seq == counter` — bit-identical to the historical global counter with
/// no extra branch on the hot path (the pack is a shift/or against a
/// constant-zero register). [`Ctx::enable_cells`] switches a fresh context
/// to per-cell counters; the allocation then depends only on the scheduling
/// cell's own history, never on how cells interleave. Which mode a model
/// uses is part of its trace: it fixes the order of same-time ties.
struct SeqAlloc {
    cur: u32,
    counters: Vec<u64>,
}

impl SeqAlloc {
    fn new() -> Self {
        SeqAlloc {
            cur: 0,
            counters: vec![0],
        }
    }

    #[inline(always)]
    fn alloc(&mut self) -> u64 {
        let c = &mut self.counters[self.cur as usize];
        let seq = ((self.cur as u64) << CELL_SHIFT) | *c;
        debug_assert!(*c < CELL_SEQ_MASK, "per-cell sequence counter overflow");
        *c += 1;
        seq
    }

    /// Total allocations across all cells (equals `scheduled`).
    fn total(&self) -> u64 {
        self.counters.iter().sum()
    }
}

/// A simulation model: owns all state and reacts to its own event type.
pub trait Model {
    /// The model's event alphabet.
    type Event;

    /// React to `ev` firing at `ctx.now()`. New events may be scheduled
    /// through `ctx`.
    fn handle(&mut self, ctx: &mut Ctx<Self::Event>, ev: Self::Event);
}

/// The scheduling context handed to [`Model::handle`].
///
/// Holds the clock and the pending-event calendar.
pub struct Ctx<E> {
    now: SimTime,
    calendar: Calendar<E>,
    seq: SeqAlloc,
    executed: u64,
    scheduled: u64,
}

impl<E> Ctx<E> {
    fn new(kind: CalendarKind) -> Self {
        Ctx {
            now: SimTime::ZERO,
            calendar: Calendar::new(kind),
            seq: SeqAlloc::new(),
            executed: 0,
            scheduled: 0,
        }
    }

    /// Switch a fresh context from the single global sequence counter to
    /// `cells` per-cell counters (see [`CELL_SHIFT`]). Must be called
    /// before anything is scheduled; the current cell starts at 0.
    ///
    /// # Panics
    /// Panics if events were already scheduled or `cells` exceeds the
    /// packable range.
    pub fn enable_cells(&mut self, cells: u32) {
        assert_eq!(self.scheduled, 0, "enable_cells on a used context");
        assert!(cells >= 1 && (cells as u64) <= (u64::MAX >> CELL_SHIFT));
        self.seq.counters = vec![0; cells as usize];
        self.seq.cur = 0;
    }

    /// Set the scheduling cell subsequent allocations are keyed by. A
    /// model calls this at the top of its handler with the executing
    /// event's own cell. No-op-safe in global mode only for cell 0.
    #[inline]
    pub fn set_cell(&mut self, cell: u32) {
        debug_assert!((cell as usize) < self.seq.counters.len());
        self.seq.cur = cell;
    }

    /// Number of scheduling cells (1 in global mode).
    pub fn cells(&self) -> u32 {
        self.seq.counters.len() as u32
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` to fire at absolute time `at`. Events are
    /// fire-and-forget: once posted, an event fires.
    ///
    /// # Panics
    /// Panics if `at` is in the past; causality violations are model bugs.
    #[inline]
    pub fn post_at(&mut self, at: SimTime, ev: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq.alloc();
        self.scheduled += 1;
        self.calendar.insert(at, seq, ev);
    }

    /// Schedule `ev` to fire after a delay of `d` (see [`Ctx::post_at`]).
    #[inline]
    pub fn post_in(&mut self, d: SimDur, ev: E) {
        self.post_at(self.now + d, ev);
    }

    /// Number of events executed so far.
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of events pending in the calendar.
    // lint:allow(dead-pub): simbench's ledger (pending_peak); tests/calendar_diff.rs
    pub fn pending_events(&self) -> usize {
        self.calendar.live()
    }

    /// Occupancy counters of the calendar (pending events, bucket
    /// occupancy). Cheap enough for test assertions and bench reporting.
    pub fn calendar_stats(&self) -> CalendarStats {
        self.calendar.stats()
    }

    /// Which calendar this context runs on.
    pub fn calendar_kind(&self) -> CalendarKind {
        self.calendar.kind()
    }

    /// Deliver the next event at or before `horizon`, advancing the
    /// clock. `None` leaves the clock untouched.
    #[inline(always)]
    fn pop_next_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.calendar.pop_next_before(horizon)
    }

    /// The earliest pending `(time, event)` without executing or
    /// disturbing anything (O(pending) scan — a diagnostic path).
    pub(crate) fn peek_next(&self) -> Option<(SimTime, E)>
    where
        E: Clone,
    {
        self.calendar
            .peek_min()
            // lint:allow(hot-path-alloc): clones one event for caller inspection; a borrow would freeze the calendar across the caller's decision — off-loop diagnostic cost
            .map(|(at, _seq, ev)| (SimTime::from_nanos(at), ev.clone()))
    }

    /// Append the kernel state — clock, sequence/event counters, and the
    /// calendar in canonical sorted `(at, seq, event)` form — to `w`.
    pub(crate) fn save_state(&self, w: &mut Enc)
    where
        E: Persist + Clone,
    {
        debug_assert_eq!(self.seq.total(), self.scheduled);
        w.put_u64(self.now.as_nanos());
        w.put_u64(self.executed);
        w.put_u64(self.scheduled);
        w.put_usize(self.seq.counters.len());
        for c in &self.seq.counters {
            w.put_u64(*c);
        }
        let entries = self.calendar.live_entries();
        w.put_usize(entries.len());
        for (at, seq, ev) in &entries {
            w.put_u64(*at);
            w.put_u64(*seq);
            ev.save(w);
        }
    }

    /// Rebuild a context from its canonical byte form onto calendar `kind`.
    /// The canonical form is calendar-independent: re-inserting the sorted
    /// entries with their original sequence numbers reproduces the exact
    /// `(time, seq)` delivery order on either calendar.
    pub(crate) fn load_state(kind: CalendarKind, r: &mut Dec<'_>) -> Result<Ctx<E>, SnapError>
    where
        E: Persist,
    {
        let now = SimTime::from_nanos(r.take_u64()?);
        let executed = r.take_u64()?;
        let scheduled = r.take_u64()?;
        let ncells = r.take_usize()?;
        if ncells == 0 || ncells as u64 > (u64::MAX >> CELL_SHIFT) {
            return Err(SnapError::Malformed("cell count out of range"));
        }
        let mut counters = Vec::with_capacity(ncells);
        for _ in 0..ncells {
            counters.push(r.take_u64()?);
        }
        if counters.iter().sum::<u64>() != scheduled {
            return Err(SnapError::Malformed("sum(cell counters) != scheduled"));
        }
        let n = r.take_usize()?;
        let mut ctx = Ctx::new(kind);
        ctx.now = now;
        let mut prev: Option<(u64, u64)> = None;
        for _ in 0..n {
            let at = r.take_u64()?;
            let seq = r.take_u64()?;
            let ev = E::load(r)?;
            if at < now.as_nanos() {
                return Err(SnapError::Malformed("calendar entry before the clock"));
            }
            let cell = (seq >> CELL_SHIFT) as usize;
            if cell >= ncells || (seq & CELL_SEQ_MASK) >= counters[cell] {
                return Err(SnapError::Malformed("calendar seq beyond its cell counter"));
            }
            if prev.is_some_and(|p| (at, seq) <= p) {
                return Err(SnapError::Malformed("calendar entries not strictly sorted"));
            }
            prev = Some((at, seq));
            ctx.calendar.insert(SimTime::from_nanos(at), seq, ev);
        }
        ctx.seq.counters = counters;
        ctx.executed = executed;
        ctx.scheduled = scheduled;
        Ok(ctx)
    }
}

/// The simulation driver: a model plus its event calendar.
pub struct Sim<M: Model> {
    /// The model under simulation; accessible for inspection between runs.
    pub model: M,
    ctx: Ctx<M::Event>,
    /// Reusable scratch for batched same-timestamp delivery in
    /// [`Sim::run_until`]. Always empty between calls; kept here so the
    /// steady state never reallocates it.
    batch: Vec<M::Event>,
}

impl<M: Model> Sim<M> {
    /// Create a driver around `model` with an empty timing-wheel calendar
    /// at time zero.
    pub fn new(model: M) -> Self {
        Sim::with_calendar(model, CalendarKind::Wheel)
    }

    /// Create a driver on an explicit calendar: the wheel, or the
    /// reference the differential tests compare it against.
    pub fn with_calendar(model: M, kind: CalendarKind) -> Self {
        Sim {
            model,
            ctx: Ctx::new(kind),
            // lint:allow(hot-path-alloc): construction-time batch buffer
            batch: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// Access the scheduling context (e.g. to seed initial events).
    pub fn ctx(&mut self) -> &mut Ctx<M::Event> {
        &mut self.ctx
    }

    /// Execute the single next event, if any. Returns `false` when the
    /// calendar is empty.
    pub fn step(&mut self) -> bool {
        self.step_bounded(SimTime::MAX)
    }

    #[inline]
    fn step_bounded(&mut self, horizon: SimTime) -> bool {
        match self.ctx.pop_next_before(horizon) {
            Some((at, ev)) => {
                debug_assert!(at >= self.ctx.now);
                self.ctx.now = at;
                self.ctx.executed += 1;
                self.model.handle(&mut self.ctx, ev);
                true
            }
            None => false,
        }
    }

    /// Run until the calendar is exhausted or `horizon` is reached.
    ///
    /// Events scheduled exactly at the horizon still fire; the clock is left
    /// at the horizon (or at the last event if the calendar drained first).
    ///
    /// Delivery is **batched by timestamp**: after the first event of an
    /// instant fires, the rest of the same-timestamp run is drained from
    /// the calendar front in one call and dispatched as a slice in the
    /// pinned `(time, seq)` order, amortizing the pop machinery across the
    /// batch. Observable behavior is bit-identical to one-at-a-time
    /// [`Sim::step`] delivery (`tests/batch_delivery.rs` proves it against
    /// the reference calendar, which never batches): events scheduled *at*
    /// the current instant by a batch member still fire within the same
    /// instant, after the members already drained.
    pub fn run_until(&mut self, horizon: SimTime) {
        // Tie gate: the clock *before* it advances is the previous event's
        // time, so `at == now` detects the second member of a tie run with
        // no loop-carried register (nothing extra live across the handler
        // call, hence no per-event spill). The comparison can fire
        // spuriously — the first event of a run, or an event landing
        // exactly on a previous horizon stop — but a spurious drain of an
        // instant with no further events is a single outlined call that
        // finds nothing; delivery order is identical either way. The
        // *second* member of a real tie still arrives through an ordinary
        // pop — identical either way — and from there the rest of the
        // instant is drained as a batch.
        while let Some((at, ev)) = self.ctx.pop_next_before(horizon) {
            debug_assert!(at >= self.ctx.now);
            if at == self.ctx.now {
                // The branch resolves *before* the handler call, so the
                // no-tie loop keeps nothing extra live across it.
                self.step_tie(at, ev);
                continue;
            }
            self.ctx.now = at;
            self.ctx.executed += 1;
            self.model.handle(&mut self.ctx, ev);
        }
        if self.ctx.now < horizon {
            self.ctx.now = horizon;
        }
    }

    /// Deliver the rest of the instant `at` as a batch (see
    /// [`Sim::run_until`]); the caller has just dispatched the instant's
    /// first event and proven a same-timestamp successor exists.
    /// Dispatch an event that shares its timestamp with the previous one
    /// (or lands exactly on the prior stop/start time — a spurious but
    /// harmless match), then drain the rest of the instant as a batch.
    /// Outlined as one cold unit so [`Sim::run_until`]'s no-tie loop pays
    /// only the resolved-early comparison.
    #[cold]
    #[inline(never)]
    fn step_tie(&mut self, at: SimTime, ev: M::Event) {
        self.ctx.now = at;
        self.ctx.executed += 1;
        self.model.handle(&mut self.ctx, ev);
        self.drain_instant(at);
    }

    #[cold]
    #[inline(never)]
    fn drain_instant(&mut self, at: SimTime) {
        let mut buf = std::mem::take(&mut self.batch);
        loop {
            self.ctx.calendar.drain_batch_at(at, &mut buf);
            if buf.is_empty() {
                // Same-instant events can still lie beyond the drained
                // bucket window (the wheel's cursor has not reached them,
                // or the reference calendar, which never drains): one
                // ordinary pop delivers the next, then draining resumes.
                // `None` ends the instant.
                match self.ctx.pop_next_before(at) {
                    Some((t, ev)) => {
                        debug_assert_eq!(t, at);
                        self.ctx.executed += 1;
                        self.model.handle(&mut self.ctx, ev);
                        continue;
                    }
                    None => break,
                }
            }
            for ev in buf.drain(..) {
                self.ctx.executed += 1;
                self.model.handle(&mut self.ctx, ev);
            }
        }
        self.batch = buf;
    }

    /// Run until the calendar is empty or `max_events` more events have fired.
    /// Returns the number of events executed by this call.
    pub fn run_events(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Total events executed over the life of the simulation.
    pub fn executed_events(&self) -> u64 {
        self.ctx.executed
    }

    /// Which calendar this driver runs on.
    pub fn calendar_kind(&self) -> CalendarKind {
        self.ctx.calendar_kind()
    }

    /// The earliest pending `(time, event)` without executing it.
    /// O(pending) — intended for divergence reports and tests, not the
    /// simulation hot path.
    pub fn peek_next(&self) -> Option<(SimTime, M::Event)>
    where
        M::Event: Clone,
    {
        self.ctx.peek_next()
    }

    /// Consume the driver, yielding the model (e.g. as a freshly built
    /// donor for [`Sim::restore`]).
    pub fn into_model(self) -> M {
        self.model
    }
}

impl<M> Sim<M>
where
    M: Model + PersistState,
    M::Event: Persist + Clone,
{
    /// Canonical, unsealed state bytes: kernel state (clock, counters,
    /// calendar in canonical form) followed by the model's own state. Two
    /// sims in bit-identical states produce equal payloads regardless of
    /// calendar backend — the comparison unit for differential testing and
    /// [`snapshot::rewind_bisect`].
    pub fn state_payload(&self) -> Vec<u8> {
        let mut w = Enc::new();
        self.ctx.save_state(&mut w);
        self.model.save_state(&mut w);
        w.into_bytes()
    }

    /// Seal the current state into a versioned, checksummed snapshot frame
    /// carrying the model's configuration fingerprint.
    pub fn snapshot_now(&self) -> Vec<u8> {
        snapshot::seal(self.model.fingerprint(), &self.state_payload())
    }

    /// Run forward to time `t` (a no-op when already there) and return the
    /// sealed snapshot. Fails with [`SnapError::Malformed`] when `t` lies
    /// in the simulated past — rewinding is done by restoring an earlier
    /// snapshot, never by running backwards.
    pub fn snapshot(&mut self, t: SimTime) -> Result<Vec<u8>, SnapError> {
        if t < self.ctx.now {
            return Err(SnapError::Malformed("snapshot time before current clock"));
        }
        self.run_until(t);
        Ok(self.snapshot_now())
    }

    /// Rebuild a simulation from a sealed snapshot onto calendar `kind`
    /// (which need not match the backend the snapshot was taken on).
    /// `model` must be a freshly built model for the *same configuration*
    /// the snapshot was taken under; its state is fully overwritten.
    pub fn restore(model: M, kind: CalendarKind, bytes: &[u8]) -> Result<Sim<M>, SnapError> {
        let (found, payload) = snapshot::open(bytes)?;
        let expected = model.fingerprint();
        if found != expected {
            return Err(SnapError::ConfigMismatch { expected, found });
        }
        let mut r = Dec::new(payload);
        let ctx = Ctx::load_state(kind, &mut r)?;
        let mut model = model;
        model.load_state(&mut r)?;
        if !r.is_empty() {
            return Err(SnapError::TrailingBytes);
        }
        Ok(Sim {
            model,
            ctx,
            // lint:allow(hot-path-alloc): construction-time batch buffer
            batch: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDur;

    /// Toy model: counts event firings and records firing order.
    struct Toy {
        fired: Vec<u32>,
        respawn: bool,
    }

    impl Model for Toy {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
            self.fired.push(ev);
            if self.respawn && ev < 10 {
                ctx.post_in(SimDur::from_nanos(1), ev + 1);
            }
        }
    }

    fn toy(respawn: bool) -> impl Iterator<Item = Sim<Toy>> {
        [CalendarKind::Wheel, CalendarKind::Heap]
            .into_iter()
            .map(move |kind| Sim::with_calendar(Toy { fired: vec![], respawn }, kind))
    }

    #[test]
    fn fires_in_time_order() {
        for mut sim in toy(false) {
            sim.ctx().post_at(SimTime::from_nanos(30), 3);
            sim.ctx().post_at(SimTime::from_nanos(10), 1);
            sim.ctx().post_at(SimTime::from_nanos(20), 2);
            sim.run_until(SimTime::MAX);
            assert_eq!(sim.model.fired, vec![1, 2, 3]);
            assert_eq!(sim.executed_events(), 3);
        }
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        for mut sim in toy(false) {
            let t = SimTime::from_nanos(5);
            for i in 0..100 {
                sim.ctx().post_at(t, i);
            }
            sim.run_until(SimTime::MAX);
            assert_eq!(sim.model.fired, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        for mut sim in toy(true) {
            sim.ctx().post_at(SimTime::from_nanos(0), 0);
            sim.run_until(SimTime::from_nanos(1_000));
            assert_eq!(sim.model.fired.len(), 11);
            // After the calendar drains, the clock advances to the horizon.
            assert_eq!(sim.now().as_nanos(), 1_000);
        }
    }

    #[test]
    fn horizon_cuts_off_and_clock_lands_on_horizon() {
        for mut sim in toy(false) {
            sim.ctx().post_at(SimTime::from_nanos(10), 1);
            sim.ctx().post_at(SimTime::from_nanos(90), 2);
            sim.run_until(SimTime::from_nanos(50));
            assert_eq!(sim.model.fired, vec![1]);
            assert_eq!(sim.now().as_nanos(), 50);
            // The remaining event still fires on a later run.
            sim.run_until(SimTime::from_nanos(100));
            assert_eq!(sim.model.fired, vec![1, 2]);
        }
    }

    #[test]
    fn events_at_horizon_fire() {
        for mut sim in toy(false) {
            sim.ctx().post_at(SimTime::from_nanos(50), 7);
            sim.run_until(SimTime::from_nanos(50));
            assert_eq!(sim.model.fired, vec![7]);
        }
    }

    #[test]
    fn pending_events_is_exact() {
        for mut sim in toy(false) {
            sim.ctx().post_at(SimTime::from_nanos(10), 1);
            sim.ctx().post_at(SimTime::from_nanos(20), 2);
            sim.ctx().post_at(SimTime::from_nanos(30), 3);
            assert_eq!(sim.ctx().pending_events(), 3);
            sim.run_until(SimTime::from_nanos(15));
            assert_eq!(sim.ctx().pending_events(), 2);
            sim.run_until(SimTime::MAX);
            assert_eq!(sim.ctx().pending_events(), 0);
            assert_eq!(sim.ctx().calendar_stats(), CalendarStats::default());
        }
    }

    #[test]
    fn run_events_bounds_execution() {
        for mut sim in toy(true) {
            sim.ctx().post_at(SimTime::from_nanos(0), 0);
            let n = sim.run_events(3);
            assert_eq!(n, 3);
            assert_eq!(sim.model.fired, vec![0, 1, 2]);
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new(Toy { fired: vec![], respawn: false });
        sim.ctx().post_at(SimTime::from_nanos(10), 1);
        sim.run_until(SimTime::from_nanos(10));
        sim.ctx().post_at(SimTime::from_nanos(5), 2);
    }
}
