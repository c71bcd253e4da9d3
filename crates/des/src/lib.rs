#![warn(missing_docs)]
//! # paradyn-des — discrete-event simulation kernel
//!
//! The simulation substrate for the Paradyn instrumentation-system study:
//! a deterministic, monomorphic event calendar ([`engine`], backed by the
//! one-level hashed timing wheel in [`calendar`]), an integer nanosecond clock
//! ([`time`]), reproducible independent random streams ([`rng`]),
//! run monitors of busy time and fault cost ([`monitor`]), reusable
//! resource state machines — an FCFS single server ([`fcfs`]) and a
//! round-robin quantum CPU bank ([`rr`]) — and the block-chained queue
//! both keep their waiting jobs in ([`fifo`]).
//!
//! Design choices (see DESIGN.md §5):
//! * **Integer time** — exact event ordering, bit-reproducible runs.
//! * **Typed events** — models define an event `enum`; nothing is boxed on
//!   the hot path.
//! * **O(1) calendar** — a hashed timing wheel keyed on the nanosecond
//!   clock. Events are fire-and-forget: there is one scheduling path
//!   ([`Ctx::post_at`]/[`Ctx::post_in`]) and no cancellation. One pop
//!   delivers one event, in `(time, schedule order)`: ties fire in the
//!   order they were scheduled. A minimal reference calendar
//!   ([`CalendarKind::Heap`]), an ordered map on the same key, is the
//!   differential-testing oracle.
//! * **Resources as pure state machines** — they own no events; the model
//!   schedules exactly one completion/slice event per started service, which
//!   makes the components independently testable.
//!
//! ## Example
//!
//! ```
//! use paradyn_des::{Ctx, Model, Sim, SimDur, SimTime};
//!
//! /// A toy model: a ping event that reschedules itself.
//! struct Ping { count: u32 }
//!
//! impl Model for Ping {
//!     type Event = ();
//!     fn handle(&mut self, ctx: &mut Ctx<()>, _ev: ()) {
//!         self.count += 1;
//!         if self.count < 10 {
//!             ctx.post_in(SimDur::from_micros_f64(100.0), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(Ping { count: 0 });
//! sim.ctx().post_at(SimTime::ZERO, ());
//! sim.run_until(SimTime::from_secs_f64(1.0));
//! assert_eq!(sim.model.count, 10);
//! assert_eq!(sim.executed_events(), 10);
//! ```

pub mod calendar;
pub mod engine;
pub mod fault;
pub mod fcfs;
pub mod fifo;
pub mod monitor;
pub mod rng;
pub mod rr;
pub mod snapshot;
pub mod time;

pub use calendar::{CalendarKind, CalendarStats};
pub use engine::{Ctx, Model, Sim};
pub use fault::FaultSchedule;
pub use fcfs::{FcfsServer, Offer};
pub use fifo::Fifo;
pub use monitor::{BusyTime, FaultMonitor};
pub use rng::{StreamRng, Streams};
pub use rr::{RrCpuBank, SliceEnd, Submit};
pub use snapshot::{
    fnv1a, open, rewind_bisect, seal, Dec, Divergence, Enc, Persist, PersistState, SnapError,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use time::{SimDur, SimTime};
