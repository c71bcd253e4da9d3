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
    executed: u64,
    /// Events scheduled so far; each takes the count before it as its
    /// sequence number, so same-time ties fire in schedule order.
    scheduled: u64,
}

impl<E> Ctx<E> {
    fn new(kind: CalendarKind) -> Self {
        Ctx {
            now: SimTime::ZERO,
            calendar: Calendar::new(kind),
            executed: 0,
            scheduled: 0,
        }
    }

    /// Does nothing: every run numbers its events with one counter, in
    /// schedule order.
    // lint:allow(dead-pub): simbench's ledger still calls it; it goes with ROADMAP's "Benchmark revision" item
    pub fn enable_cells(&mut self, _cells: u32) {}

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
        self.calendar.insert(at, self.scheduled, ev);
        self.scheduled += 1;
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

    /// Visit every pending event, in storage order: an O(pending) walk for
    /// [`Sim::restore`]'s event check and for tests that audit what the
    /// calendar holds.
    pub fn for_each_pending(&self, mut f: impl FnMut(&E)) {
        self.calendar.for_each(|_, _, ev| f(ev));
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

    /// Append the kernel state — clock, event counters, and the calendar
    /// in canonical sorted `(at, seq, event)` form — to `w`.
    pub(crate) fn save_state(&self, w: &mut Enc)
    where
        E: Persist + Clone,
    {
        w.put_u64(self.now.as_nanos());
        w.put_u64(self.executed);
        w.put_u64(self.scheduled);
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
            if seq >= scheduled {
                return Err(SnapError::Malformed(
                    "calendar seq not below the scheduled count",
                ));
            }
            if prev.is_some_and(|p| (at, seq) <= p) {
                return Err(SnapError::Malformed("calendar entries not strictly sorted"));
            }
            prev = Some((at, seq));
            ctx.calendar.insert(SimTime::from_nanos(at), seq, ev);
        }
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
        match self.ctx.calendar.pop_next_before(SimTime::MAX) {
            Some((at, ev)) => {
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
    /// Delivery is the same as repeated [`Sim::step`]: one pop per event,
    /// same-time ties in schedule order, including events a handler posts
    /// at the current instant (`tests/batch_delivery.rs`).
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((at, ev)) = self.ctx.calendar.pop_next_before(horizon) {
            debug_assert!(at >= self.ctx.now);
            self.ctx.now = at;
            self.ctx.executed += 1;
            self.model.handle(&mut self.ctx, ev);
        }
        if self.ctx.now < horizon {
            self.ctx.now = horizon;
        }
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
        let mut checked = Ok(());
        ctx.for_each_pending(|ev| {
            if checked.is_ok() {
                checked = model.check_pending(ev);
            }
        });
        checked?;
        Ok(Sim { model, ctx })
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

    /// A kernel payload: clock 100 ns, `scheduled` events numbered so far,
    /// and the calendar entries `(at, seq, event)` in the given order.
    fn kernel_payload(scheduled: u64, entries: &[(u64, u64, u32)]) -> Vec<u8> {
        let mut w = Enc::new();
        w.put_u64(100);
        w.put_u64(0);
        w.put_u64(scheduled);
        w.put_usize(entries.len());
        for &(at, seq, ev) in entries {
            w.put_u64(at);
            w.put_u64(seq);
            ev.save(&mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn load_state_rejects_malformed_calendars() {
        const SEQ: Option<&str> = Some("calendar seq not below the scheduled count");
        const EARLY: Option<&str> = Some("calendar entry before the clock");
        const ORDER: Option<&str> = Some("calendar entries not strictly sorted");
        // Three events scheduled so far (seq 0..3), clock at 100 ns.
        let cases: [(&str, &[(u64, u64, u32)], Option<&str>); 6] = [
            ("valid", &[(100, 0, 1), (100, 2, 2), (150, 1, 3)], None),
            ("seq at scheduled", &[(120, 3, 1)], SEQ),
            ("seq past scheduled", &[(120, 0, 1), (130, 9, 2)], SEQ),
            ("entry before the clock", &[(99, 0, 1)], EARLY),
            ("out of order", &[(150, 0, 1), (120, 1, 2)], ORDER),
            ("duplicate key", &[(120, 1, 1), (120, 1, 2)], ORDER),
        ];
        for (name, entries, want) in cases {
            let bytes = kernel_payload(3, entries);
            let want = match want {
                None => Ok((100, entries.len())),
                Some(msg) => Err(SnapError::Malformed(msg)),
            };
            for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
                let got = Ctx::<u32>::load_state(kind, &mut Dec::new(&bytes))
                    .map(|ctx| (ctx.now().as_nanos(), ctx.pending_events()));
                assert_eq!(got, want, "{name} on {kind:?}");
            }
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
