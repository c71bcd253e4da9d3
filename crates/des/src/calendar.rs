//! Event calendars: the one-level hashed timing wheel every simulation runs
//! on, and a minimal reference calendar the differential tests compare it
//! against.
//!
//! ## Why a hashed wheel
//!
//! The original calendar was a `BinaryHeap` ordered by `(time, seq)`:
//! O(log n) per operation. The wheel is Brown's calendar queue (CACM 1988),
//! scheme 5 of Varghese & Lauck (1987): amortized O(1) enqueue/dequeue keyed
//! on the integer-nanosecond clock. Events are fire-and-forget: nothing
//! cancels a scheduled event, so an entry leaves the calendar only by
//! firing.
//!
//! ## Geometry (see DESIGN.md §5.7)
//!
//! * `nb` buckets (a power of two), each `2^shift` ns wide. The *virtual
//!   bucket* of a time is `at >> shift`; its bucket is `(at >> shift) &
//!   (nb - 1)`. One lap of the buckets is a "year" of `nb · 2^shift` ns.
//! * Entries live in one arena `Vec` with a free list. Each bucket is an
//!   intrusive singly linked list sorted by `(at, seq)`; linking an entry
//!   into its bucket is the only move it makes per event (a resize
//!   relinks everything at once).
//! * The cursor is a bucket index plus the last nanosecond of its window in
//!   the current year, i.e. a virtual bucket `vb`. **Invariant:** every
//!   stored entry has `at >> shift >= vb`. A bucket's head is its minimum,
//!   so a head inside the cursor's window is the global minimum.
//!   A pop walks forward until a head falls inside the window; a full year
//!   with no hit falls back to a direct O(nb) search of the heads.
//!
//! ## Determinism argument
//!
//! Events must fire in `(time, seq)` order with ties in schedule order, bit
//! for bit identical to the reference. Here that order is structural: every
//! bucket list is kept sorted by `(at, seq)` on insertion, and the invariant
//! above makes the head in the cursor's window the global minimum. No
//! delivery decision depends on bucket count, width or resize history, so
//! same-time ties pop in `seq` (schedule) order.
//!
//! **Cursor rewind.** A horizon-bounded pop may advance the cursor past the
//! horizon (it walked there looking for the next event). An entry scheduled
//! afterwards, before the cursor's window, rewinds the cursor to its own
//! virtual bucket; without the rewind it would sit behind the cursor until
//! the walk came round a year later and fire out of order.
//!
//! **Resize.** The bucket count doubles above 2·nb stored entries and halves
//! below nb/2, so a population must change by 2× to resize twice. Each
//! resize re-estimates the width as about 3× the mean gap of the earliest
//! [`WIDTH_SAMPLE`] entries and relinks every entry in `(at, seq)` order.
//! Two checks re-estimate a width that no population change would fix:
//! the walk path's, when walks cross many empty buckets (too narrow), and,
//! on a small wheel, the insert path's, when inserts step past many
//! entries of one bucket (too wide); that one uses the median gap.
//!
//! ## The reference calendar
//!
//! [`CalendarKind::Heap`] selects a `BTreeMap` keyed by `(at, seq)`, so
//! every differential suite (`tests/calendar_diff.rs`,
//! `tests/batch_delivery.rs`, the snapshot and determinism suites, chaos's
//! calendar oracle) compares the wheel against plain delivery in key
//! order. The variant keeps its historical name.

use crate::time::SimTime;

use std::collections::BTreeMap;

/// Null link: the end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;
/// The hashed wheel never shrinks below this many buckets.
const MIN_BUCKETS: usize = 2;
/// Bucket width (log2 ns) of a fresh wheel, before the first resize has
/// measured the event spacing: 4 µs.
const INITIAL_SHIFT: u32 = 12;
/// Entries from the front of the queue whose mean gap sets the bucket width
/// at a resize.
const WIDTH_SAMPLE: usize = 64;
/// Cursor walks between checks of the bucket width.
const RETUNE_WALKS: u64 = 64;
/// Mean empty buckets per walk above which the width is re-estimated.
const RETUNE_STEPS: u64 = 2;
/// Inserts between checks of the bucket width from the insert side.
const RETUNE_INSERTS: u64 = 64;
/// Mean entries an insert steps past, above which the width is
/// re-estimated.
const RETUNE_PASSED: u64 = 2;
/// Largest bucket count (so at most 2× that many entries) at which long
/// insert walks retune the width.
const SMALL_WHEEL: usize = 64;

/// Which calendar implementation a [`crate::Sim`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CalendarKind {
    /// One-level hashed timing wheel (calendar queue): amortized O(1)
    /// schedule/pop. The production calendar.
    Wheel,
    /// The reference calendar: an ordered map keyed by `(time, seq)`.
    /// Exists to be the differential-testing oracle.
    Heap,
}

/// Point-in-time occupancy counters of a calendar (also emitted into
/// `BENCH_des.json` by the kernel benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Pending events.
    pub live: usize,
    /// Non-empty wheel buckets (0 for the reference calendar).
    pub occupied_buckets: usize,
}

/// Which gap of the earliest entries sets the width at a resize.
#[derive(Clone, Copy)]
enum Spacing {
    Mean,
    /// Robust to a few far-future entries (see [`Wheel::check_insert_walks`]).
    Median,
}

/// One arena slot of the hashed wheel.
struct Node<E> {
    at: u64,
    seq: u64,
    /// Next node of the same bucket (in `(at, seq)` order), or of the free
    /// list.
    next: u32,
    /// `None` exactly while the node is on the free list.
    ev: Option<E>,
}

/// The one-level hashed timing wheel (see the module docs).
pub(crate) struct Wheel<E> {
    /// Entry arena; grows only when the free list is empty, i.e. at a new
    /// peak of stored entries.
    nodes: Vec<Node<E>>,
    /// Head of the free list threaded through `Node::next`.
    free: u32,
    /// Head node of each bucket; `heads.len()` is the bucket count `nb`.
    heads: Vec<u32>,
    /// Bucket width is `2^shift` ns.
    shift: u32,
    /// Cursor: the bucket being drained and the last nanosecond of its
    /// current window (virtual bucket `cur_last >> shift`). No stored entry
    /// lies before that window.
    cur: usize,
    cur_last: u64,
    /// Stored entries.
    len: usize,
    /// Resize scratch, `(at, seq, node)` per stored entry. Kept across
    /// resizes, so a steady population allocates nothing.
    scratch: Vec<(u64, u64, u32)>,
    /// Walks taken by [`Wheel::advance`] since the width was last checked,
    /// and the empty buckets they crossed (a full year plus the direct
    /// search count as 2·nb).
    walks: u64,
    steps: u64,
    /// Inserts since the width was last checked from the insert side, and
    /// the bucket-list entries they stepped past.
    inserts: u64,
    passed: u64,
    /// Whether long insert walks may still retune: cleared when such a
    /// retune left the width as it was (same-instant ties, which no width
    /// separates), set again by the next population resize.
    insert_retune: bool,
}

impl<E> Wheel<E> {
    fn new() -> Wheel<E> {
        Wheel {
            // lint:allow(hot-path-alloc): construction-time; starts empty
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; MIN_BUCKETS],
            shift: INITIAL_SHIFT,
            cur: 0,
            cur_last: (1 << INITIAL_SHIFT) - 1,
            len: 0,
            // lint:allow(hot-path-alloc): construction-time; starts empty
            scratch: Vec::new(),
            walks: 0,
            steps: 0,
            inserts: 0,
            passed: 0,
            insert_retune: true,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.heads.len() - 1
    }

    /// The cursor's virtual bucket.
    #[inline]
    fn vb(&self) -> u64 {
        self.cur_last >> self.shift
    }

    /// Put the cursor on virtual bucket `v`.
    #[inline]
    fn set_cursor(&mut self, v: u64) {
        self.cur = v as usize & self.mask();
        self.cur_last = (v << self.shift) | ((1 << self.shift) - 1);
    }

    /// Whether bucket head `h` lies inside the window ending at `last`
    /// (given the cursor invariant, inside means in that very window).
    #[inline]
    fn in_window(&self, h: u32, last: u64) -> bool {
        h != NIL && self.nodes[h as usize].at <= last
    }

    /// Link a new entry into its bucket after every entry that orders
    /// before it, so equal keys keep insertion order.
    #[inline]
    fn insert(&mut self, at: u64, seq: u64, ev: E) {
        let v = at >> self.shift;
        if v < self.vb() {
            self.set_cursor(v); // cursor rewind
        }
        let b = v as usize & self.mask();
        let mut prev = NIL;
        let mut next = self.heads[b];
        let mut passed = 0;
        while next != NIL {
            let c = &self.nodes[next as usize];
            if (c.at, c.seq) > (at, seq) {
                break;
            }
            passed += 1;
            prev = next;
            next = c.next;
        }
        let node = Node {
            at,
            seq,
            next,
            ev: Some(ev),
        };
        let i = match self.free {
            NIL => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            i => {
                self.free = self.nodes[i as usize].next;
                self.nodes[i as usize] = node;
                i
            }
        };
        match prev {
            NIL => self.heads[b] = i,
            p => self.nodes[p as usize].next = i,
        }
        self.len += 1;
        self.inserts += 1;
        self.passed += passed;
        if self.len > 2 * self.heads.len() {
            self.resize(2 * self.heads.len(), Spacing::Mean);
            self.insert_retune = true;
        } else if self.inserts >= RETUNE_INSERTS {
            self.check_insert_walks();
        }
    }

    /// Re-estimate the width of a small wheel when the last
    /// [`RETUNE_INSERTS`] inserts stepped past more than [`RETUNE_PASSED`]
    /// entries each: buckets so wide that most pending entries share one.
    /// The walk path cannot see this while the cursor's bucket always holds
    /// an in-window head, since then no pop walks. A small population is
    /// where a few far entries (seconds-long timers among µs-spaced work)
    /// inflate the mean gap, so this retune takes the median gap; on large
    /// wheels the earliest 64 entries are dense and the mean serves.
    #[cold]
    #[inline(never)]
    fn check_insert_walks(&mut self) {
        if self.insert_retune
            && self.heads.len() <= SMALL_WHEEL
            && self.passed > RETUNE_PASSED * self.inserts
        {
            let shift = self.shift;
            self.resize(self.heads.len(), Spacing::Median);
            self.insert_retune = self.shift != shift;
        }
        (self.inserts, self.passed) = (0, 0);
    }

    /// Remove the head of bucket `b`, returning its `(at, event)` and
    /// putting the node on the free list.
    #[inline]
    fn unlink_head(&mut self, b: usize) -> (u64, E) {
        let i = self.heads[b];
        let n = &mut self.nodes[i as usize];
        self.heads[b] = n.next;
        n.next = self.free;
        self.free = i;
        self.len -= 1;
        // lint:allow(panic-path): a linked node always holds its event; only free-list nodes are None
        let ev = n.ev.take().expect("linked node holds an event");
        (n.at, ev)
    }

    /// Deliver the earliest event with `at <= horizon`.
    #[inline(always)]
    fn pop_next_before(&mut self, horizon: u64) -> Option<(u64, E)> {
        loop {
            let b = self.cur;
            let h = self.heads[b];
            if self.in_window(h, self.cur_last) {
                if self.nodes[h as usize].at > horizon {
                    return None;
                }
                return Some(self.unlink_head(b));
            }
            if !self.advance(horizon) {
                return None;
            }
        }
    }

    /// Move the cursor to the first virtual bucket whose head falls inside
    /// its window. Returns `false`, leaving the cursor past the horizon, when
    /// every window up to the horizon is empty (or nothing is stored).
    ///
    /// This slow path also keeps the geometry in trim, off the per-event
    /// path: it halves the bucket count once the population is below nb/2,
    /// and re-estimates the width when the last [`RETUNE_WALKS`] walks
    /// averaged more than [`RETUNE_STEPS`] empty buckets each — a width
    /// measured on an unrepresentative front (a fill of near-ties, say)
    /// that no population change would ever correct.
    #[inline(never)]
    fn advance(&mut self, horizon: u64) -> bool {
        if self.len == 0 {
            return false;
        }
        let nb = self.heads.len();
        if self.len < nb / 2 && nb > MIN_BUCKETS {
            self.resize(nb / 2, Spacing::Mean);
            self.insert_retune = true;
        } else if self.walks >= RETUNE_WALKS {
            if self.steps > RETUNE_STEPS * self.walks {
                self.resize(nb, Spacing::Mean);
            }
            (self.walks, self.steps) = (0, 0);
        }
        let (v, hit) = self.first_window(horizon >> self.shift);
        self.walks += 1;
        self.steps += match v.checked_sub(self.vb()) {
            Some(d) if d < nb as u64 => d,
            _ => 2 * nb as u64,
        };
        self.set_cursor(v);
        hit
    }

    /// Walk forward from the cursor to the first virtual bucket whose head
    /// is inside its window, stopping early once the window passes virtual
    /// bucket `limit`: `(v, true)` on a hit, `(v, false)` with `v > limit`
    /// on a stop. A full year with no hit jumps straight to the earliest
    /// head. Requires a non-empty wheel.
    fn first_window(&self, limit: u64) -> (u64, bool) {
        let mask = self.mask();
        let first = self.vb();
        let last = first.saturating_add(mask as u64).min(u64::MAX >> self.shift);
        for v in first..=last {
            if v > limit {
                return (v, false);
            }
            let h = self.heads[v as usize & mask];
            if h != NIL && self.nodes[h as usize].at >> self.shift <= v {
                return (v, true);
            }
        }
        let min_at = self
            .heads
            .iter()
            .filter(|&&h| h != NIL)
            .map(|&h| self.nodes[h as usize].at)
            .min()
            .unwrap_or(u64::MAX);
        let v = min_at >> self.shift;
        (v, v <= limit)
    }

    /// Rebuild with `nb` buckets and a re-estimated width: about 3× the
    /// `spacing` gap of the earliest [`WIDTH_SAMPLE`] entries (3× the mean
    /// gap over all entries when those all tie; unchanged when everything
    /// ties). Every entry is relinked in `(at, seq)` order, so bucket lists
    /// stay sorted.
    #[cold]
    #[inline(never)]
    fn resize(&mut self, nb: usize, spacing: Spacing) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for &head in &self.heads {
            let mut i = head;
            while i != NIL {
                let n = &self.nodes[i as usize];
                scratch.push((n.at, n.seq, i));
                i = n.next;
            }
        }
        scratch.sort_unstable();
        let mut v = self.vb();
        if let (Some(&(first, _, _)), Some(&(last, _, _))) = (scratch.first(), scratch.last()) {
            let k = (scratch.len() - 1).min(WIDTH_SAMPLE);
            let (span, gaps) = match scratch[k].0 - first {
                0 => (last - first, scratch.len() - 1),
                s => (s, k),
            };
            if span > 0 {
                let mean = span / gaps as u64;
                let sep = match spacing {
                    Spacing::Mean => mean,
                    Spacing::Median => {
                        let mut sample = [0u64; WIDTH_SAMPLE];
                        for (g, w) in sample.iter_mut().zip(scratch[..=k].windows(2)) {
                            *g = w[1].0 - w[0].0;
                        }
                        let sample = &mut sample[..k];
                        sample.sort_unstable();
                        match sample[k / 2] {
                            0 => mean,
                            median => median,
                        }
                    }
                };
                let width = sep.saturating_mul(3).max(1);
                self.shift = 63 - width.leading_zeros();
            }
            v = first >> self.shift;
        }
        self.heads.clear();
        self.heads.resize(nb, NIL);
        self.set_cursor(v);
        (self.walks, self.steps) = (0, 0);
        (self.inserts, self.passed) = (0, 0);
        // Prepend in descending order: each bucket ends up ascending.
        let mask = nb - 1;
        for &(at, _, i) in scratch.iter().rev() {
            let b = (at >> self.shift) as usize & mask;
            self.nodes[i as usize].next = self.heads[b];
            self.heads[b] = i;
        }
        self.scratch = scratch;
    }

    fn occupied_buckets(&self) -> usize {
        self.heads.iter().filter(|&&h| h != NIL).count()
    }
}

/// The pending-event calendar. This match is the one seam where tests
/// substitute the reference for the wheel.
pub(crate) enum Calendar<E> {
    Wheel(Wheel<E>),
    /// The reference calendar (see the module docs).
    Reference(BTreeMap<(u64, u64), E>),
}

impl<E> Calendar<E> {
    pub(crate) fn new(kind: CalendarKind) -> Calendar<E> {
        match kind {
            CalendarKind::Wheel => Calendar::Wheel(Wheel::new()),
            CalendarKind::Heap => Calendar::Reference(BTreeMap::new()),
        }
    }

    pub(crate) fn kind(&self) -> CalendarKind {
        match self {
            Calendar::Wheel(_) => CalendarKind::Wheel,
            Calendar::Reference(_) => CalendarKind::Heap,
        }
    }

    /// Number of pending events.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        match self {
            Calendar::Wheel(w) => w.len,
            Calendar::Reference(m) => m.len(),
        }
    }

    /// Store `ev` to fire at `at`; `seq` must be unique and breaks ties.
    #[inline]
    pub(crate) fn insert(&mut self, at: SimTime, seq: u64, ev: E) {
        match self {
            Calendar::Wheel(w) => w.insert(at.as_nanos(), seq, ev),
            Calendar::Reference(m) => {
                let old = m.insert((at.as_nanos(), seq), ev);
                debug_assert!(old.is_none(), "duplicate (at, seq) key");
            }
        }
    }

    /// Deliver the earliest event with `at <= horizon` in `(time, seq)`
    /// order (ties in schedule order).
    #[inline(always)]
    pub(crate) fn pop_next_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let horizon = horizon.as_nanos();
        let (at, ev) = match self {
            Calendar::Wheel(w) => w.pop_next_before(horizon)?,
            Calendar::Reference(m) => {
                let first = m.first_entry().filter(|e| e.key().0 <= horizon)?;
                let ((at, _), ev) = first.remove_entry();
                (at, ev)
            }
        };
        Some((SimTime::from_nanos(at), ev))
    }

    /// Visit every pending entry as `(at_ns, seq, event)`, in storage order.
    pub(crate) fn for_each<'a>(&'a self, mut f: impl FnMut(u64, u64, &'a E)) {
        match self {
            Calendar::Wheel(w) => {
                for n in &w.nodes {
                    if let Some(ev) = &n.ev {
                        f(n.at, n.seq, ev);
                    }
                }
            }
            Calendar::Reference(m) => {
                for (&(at, seq), ev) in m {
                    f(at, seq, ev);
                }
            }
        }
    }

    /// Canonical capture of every pending entry as `(at_ns, seq, event)`,
    /// sorted by `(at, seq)`: identical across backends and across
    /// bucket/resize history — the form snapshots serialize.
    pub(crate) fn live_entries(&self) -> Vec<(u64, u64, E)>
    where
        E: Clone,
    {
        let mut out = Vec::with_capacity(self.live());
        // lint:allow(hot-path-alloc): snapshot canonicalization clones each pending event once; runs only on snapshot/persist, never in the delivery loop
        self.for_each(|at, seq, ev| out.push((at, seq, ev.clone())));
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    /// The earliest pending `(at_ns, seq)` with a reference to its event,
    /// without disturbing the backend. O(pending) scan — a diagnostic/test
    /// path, not the delivery path.
    pub(crate) fn peek_min(&self) -> Option<(u64, u64, &E)> {
        let mut best: Option<(u64, u64, &E)> = None;
        self.for_each(|at, seq, ev| match best {
            Some((bat, bseq, _)) if (bat, bseq) <= (at, seq) => {}
            _ => best = Some((at, seq, ev)),
        });
        best
    }

    pub(crate) fn stats(&self) -> CalendarStats {
        CalendarStats {
            live: self.live(),
            occupied_buckets: match self {
                Calendar::Wheel(w) => w.occupied_buckets(),
                Calendar::Reference(_) => 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(c: &mut Calendar<u32>) -> Vec<(u64, u32)> {
        let mut out = vec![];
        while let Some((t, ev)) = c.pop_next_before(SimTime::MAX) {
            out.push((t.as_nanos(), ev));
        }
        out
    }

    fn both() -> [Calendar<u32>; 2] {
        [
            Calendar::new(CalendarKind::Wheel),
            Calendar::new(CalendarKind::Heap),
        ]
    }

    fn wheel(c: &Calendar<u32>) -> &Wheel<u32> {
        match c {
            Calendar::Wheel(w) => w,
            Calendar::Reference(_) => unreachable!("wheel calendar expected"),
        }
    }

    #[test]
    fn resize_tracks_population_and_spacing() {
        // 1000 entries 1 µs apart: the bucket count doubles past 2·nb and
        // the width settles near 3× the 1 µs gap (2^11 ns ≤ 3 µs < 2^12).
        let mut c: Calendar<u32> = Calendar::new(CalendarKind::Wheel);
        for i in 0..1_000u64 {
            c.insert(SimTime::from_nanos(i * 1_000), i, i as u32);
        }
        let w = wheel(&c);
        assert_eq!(w.heads.len(), 512);
        assert_eq!(w.shift, 11);
        assert_eq!(w.len, 1_000);
        // Draining halves it on the walks below nb/2 (the last walk
        // happens with one entry left), and every entry still fires in
        // order.
        let got = drain(&mut c);
        assert_eq!(got.len(), 1_000);
        assert!(got.windows(2).all(|p| p[0].0 < p[1].0));
        let w = wheel(&c);
        assert!(w.heads.len() <= 4, "{} buckets left", w.heads.len());
        assert_eq!(w.len, 0);
        // Arena nodes are all back on the free list: a refill to the same
        // peak reuses them.
        let peak = w.nodes.len();
        for i in 0..1_000u64 {
            c.insert(SimTime::from_nanos(2_000_000 + i), i, 0);
        }
        assert_eq!(wheel(&c).nodes.len(), peak);
    }

    #[test]
    fn long_walks_retune_a_width_set_by_near_ties() {
        // Filling with 64 timers 1 ns apart sets a 2 ns width; once they
        // run with ~550 ns periods every pop would walk empty buckets, and
        // the steady population never triggers a resize. The walk check
        // re-estimates the width from the running front instead.
        let mut c: Calendar<u32> = Calendar::new(CalendarKind::Wheel);
        for id in 0..64u32 {
            c.insert(SimTime::from_nanos(id as u64), id as u64, id);
        }
        assert_eq!(wheel(&c).shift, 1);
        let mut seq = 64;
        while seq < 20_000 {
            let Some((t, id)) = c.pop_next_before(SimTime::MAX) else {
                break;
            };
            let gap = 50 + (id as u64).wrapping_mul(2_654_435_761) % 1_000;
            c.insert(SimTime::from_nanos(t.as_nanos() + gap), seq, id);
            seq += 1;
        }
        let w = wheel(&c);
        assert_eq!((w.heads.len(), w.len), (32, 64));
        assert!(w.shift >= 4, "width still 2^{} ns", w.shift);
    }

    #[test]
    fn long_insert_walks_retune_a_width_set_by_far_entries() {
        // Ten entries 1 s apart set a width of seconds; twenty timers then
        // cycle a few µs apart, all inside the cursor's bucket. Every pop
        // finds an in-window head there, so the walk path never runs, and
        // each insert steps past most of the other timers. The insert-side
        // check must re-estimate the width from the running front.
        let mut c: Calendar<u32> = Calendar::new(CalendarKind::Wheel);
        for i in 0..10u64 {
            c.insert(SimTime::from_nanos(10_000_000_000 + i * 1_000_000_000), i, u32::MAX);
        }
        for id in 0..20u32 {
            c.insert(SimTime::from_nanos(1_000 * id as u64), 10 + id as u64, id);
        }
        let wide = wheel(&c).shift;
        assert!(wide >= 30, "width 2^{wide} ns after the fill");
        let mut seq = 30;
        let mut cycles = 0;
        while wheel(&c).shift == wide {
            assert_eq!(wheel(&c).walks, 0, "the walk path ran");
            assert!(cycles < 64, "no retune after {cycles} inserts");
            let Some((t, id)) = c.pop_next_before(SimTime::MAX) else {
                unreachable!("timers keep the wheel populated")
            };
            let gap = 2_000 + (id as u64).wrapping_mul(2_654_435_761) % 6_000;
            c.insert(SimTime::from_nanos(t.as_nanos() + gap), seq, id);
            seq += 1;
            cycles += 1;
        }
        let w = wheel(&c);
        assert!(w.shift <= 14, "width 2^{} ns after the retune", w.shift);
        assert_eq!((w.heads.len(), w.len), (16, 30));
    }

    #[test]
    fn all_ties_keep_the_width() {
        // A resize whose sample is one instant has no gap to measure; the
        // width stays as it was and the run still drains in seq order.
        let mut c: Calendar<u32> = Calendar::new(CalendarKind::Wheel);
        for i in 0..100u64 {
            c.insert(SimTime::from_nanos(7), i, i as u32);
        }
        assert_eq!(wheel(&c).shift, INITIAL_SHIFT);
        let got = drain(&mut c);
        assert_eq!(got, (0..100).map(|i| (7, i)).collect::<Vec<_>>());
    }

    #[test]
    fn delivery_between_nearby_entries_does_not_reorder() {
        // Regression from the hierarchical wheel this calendar replaced:
        // after a horizon-bounded delivery, an entry scheduled between the
        // delivered one and a pending later one must still fire first.
        for mut c in both() {
            c.insert(SimTime::from_nanos(262_338), 0, 1);
            c.insert(SimTime::from_nanos(286_912), 1, 2); // level-3: [262144, 524288)
            assert_eq!(
                c.pop_next_before(SimTime::from_nanos(262_338)),
                Some((SimTime::from_nanos(262_338), 1)),
                "{:?}",
                c.kind()
            );
            c.insert(SimTime::from_nanos(262_528), 2, 3);
            assert_eq!(
                drain(&mut c),
                vec![(262_528, 3), (286_912, 2)],
                "{:?}",
                c.kind()
            );
        }
    }

    #[test]
    fn fires_in_time_then_seq_order() {
        for mut c in both() {
            let mut seq = 0;
            for (at, ev) in [(30u64, 3u32), (10, 1), (20, 2), (10, 11), (30, 33)] {
                c.insert(SimTime::from_nanos(at), seq, ev);
                seq += 1;
            }
            assert_eq!(
                drain(&mut c),
                vec![(10, 1), (10, 11), (20, 2), (30, 3), (30, 33)],
                "{:?}",
                c.kind()
            );
            assert_eq!(c.stats(), CalendarStats::default(), "{:?}", c.kind());
        }
    }

    #[test]
    fn far_apart_times_fire_in_order() {
        for mut c in both() {
            let times = [
                1u64,
                63,
                64,
                65,
                4_095,
                4_096,
                1_000_000,
                1_000_000_000,
                1 << 40,
                u64::MAX - 1,
            ];
            for (i, &t) in times.iter().enumerate() {
                c.insert(SimTime::from_nanos(t), i as u64, i as u32);
            }
            let got = drain(&mut c);
            let want: Vec<(u64, u32)> =
                times.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect();
            assert_eq!(got, want, "{:?}", c.kind());
        }
    }

    #[test]
    fn horizon_is_respected() {
        for mut c in both() {
            c.insert(SimTime::from_nanos(100), 0, 2);
            assert_eq!(
                c.pop_next_before(SimTime::from_nanos(50)),
                None,
                "{:?}: popped past the horizon",
                c.kind()
            );
            assert_eq!(c.live(), 1);
            assert_eq!(
                c.pop_next_before(SimTime::from_nanos(100)),
                Some((SimTime::from_nanos(100), 2))
            );
        }
    }

    #[test]
    fn schedule_before_the_cursor_after_horizon_stop() {
        for mut c in both() {
            c.insert(SimTime::from_nanos(1_000), 0, 9);
            // A horizon probe may move the wheel's cursor to the 1000 ns
            // window; the earlier schedules below must rewind it.
            assert_eq!(c.pop_next_before(SimTime::from_nanos(500)), None);
            // Now schedule earlier events, including one at the staged time.
            c.insert(SimTime::from_nanos(600), 1, 6);
            c.insert(SimTime::from_nanos(1_000), 2, 10);
            c.insert(SimTime::from_nanos(600), 3, 7);
            assert_eq!(
                drain(&mut c),
                vec![(600, 6), (600, 7), (1_000, 9), (1_000, 10)],
                "{:?}",
                c.kind()
            );
        }
    }

    #[test]
    fn same_time_entries_across_levels_keep_seq_order() {
        // seq 0 is scheduled ahead, then after the clock advances seq 2
        // joins it at the same instant: the sorted bucket list must still
        // fire 0 before 2.
        for mut c in both() {
            c.insert(SimTime::from_nanos(200), 0, 20);
            c.insert(SimTime::from_nanos(190), 1, 19);
            assert_eq!(
                c.pop_next_before(SimTime::MAX),
                Some((SimTime::from_nanos(190), 19))
            );
            c.insert(SimTime::from_nanos(200), 2, 21);
            assert_eq!(drain(&mut c), vec![(200, 20), (200, 21)], "{:?}", c.kind());
        }
    }

    #[test]
    fn zero_delay_self_scheduling_is_fifo() {
        for mut c in both() {
            c.insert(SimTime::from_nanos(5), 0, 0);
            assert_eq!(
                c.pop_next_before(SimTime::MAX),
                Some((SimTime::from_nanos(5), 0))
            );
            // Schedule at the current instant repeatedly mid-delivery.
            c.insert(SimTime::from_nanos(5), 1, 1);
            c.insert(SimTime::from_nanos(5), 2, 2);
            assert_eq!(drain(&mut c), vec![(5, 1), (5, 2)], "{:?}", c.kind());
        }
    }

    #[test]
    fn stats_report_occupancy() {
        let mut c: Calendar<u32> = Calendar::new(CalendarKind::Wheel);
        for i in 0..10u64 {
            c.insert(SimTime::from_nanos(i * 1_000), i, i as u32);
        }
        let s = c.stats();
        assert_eq!(s.live, 10);
        assert!(s.occupied_buckets >= 1);
        drain(&mut c);
        assert_eq!(c.stats().live, 0);
    }
}
