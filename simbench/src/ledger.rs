//! The traced run: a `Model` wrapper around `RoccModel` that times every
//! `handle` call by event kind, so a run's host time splits into engine
//! self time plus one cost per handler.

use crate::clock::Stopwatch;
use paradyn_core::model::types::Ev;
use paradyn_core::{shardable, RoccModel, SimConfig};
use paradyn_des::{CalendarKind, Ctx, Dec, Enc, Model, PersistState, Sim, SimTime, SnapError};

/// Names of the `Ev` kinds, indexed by [`kind`].
pub const KINDS: [&str; 17] = [
    "Init",
    "Slice",
    "NetDone",
    "Deliver",
    "Sample",
    "PvmdArrival",
    "OtherCpuArrival",
    "OtherNetArrival",
    "FlushTimeout",
    "AdaptTick",
    "DaemonCrash",
    "DaemonRecover",
    "RetryForward",
    "MainStall",
    "ThrottleTick",
    "Backpressure",
    "OverloadRamp",
];

/// Index of `ev`'s kind in [`KINDS`].
pub fn kind(ev: &Ev) -> usize {
    match ev {
        Ev::Init => 0,
        Ev::Slice { .. } => 1,
        Ev::NetDone => 2,
        Ev::Deliver(_) => 3,
        Ev::Sample { .. } => 4,
        Ev::PvmdArrival { .. } => 5,
        Ev::OtherCpuArrival { .. } => 6,
        Ev::OtherNetArrival { .. } => 7,
        Ev::FlushTimeout { .. } => 8,
        Ev::AdaptTick { .. } => 9,
        Ev::DaemonCrash { .. } => 10,
        Ev::DaemonRecover { .. } => 11,
        Ev::RetryForward { .. } => 12,
        Ev::MainStall => 13,
        Ev::ThrottleTick { .. } => 14,
        Ev::Backpressure { .. } => 15,
        Ev::OverloadRamp => 16,
    }
}

/// Per-kind handler counts and host nanoseconds, plus the calendar's
/// peak live population.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Handled events per kind.
    pub count: [u64; KINDS.len()],
    /// Host nanoseconds inside `handle`, per kind.
    pub ns: [u64; KINDS.len()],
    /// Largest number of live pending events seen after any handler.
    pub pending_peak: usize,
}

impl Ledger {
    /// Fold another run's ledger into this one.
    pub fn add(&mut self, o: &Ledger) {
        for k in 0..KINDS.len() {
            self.count[k] += o.count[k];
            self.ns[k] += o.ns[k];
        }
        self.pending_peak = self.pending_peak.max(o.pending_peak);
    }

    /// Events handled, all kinds.
    pub fn events(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Host nanoseconds inside handlers, all kinds.
    pub fn handler_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// `RoccModel` with every `handle` call timed.
pub struct Traced {
    /// The model under simulation.
    pub inner: RoccModel,
    /// What the handlers cost so far.
    // lint:allow(snapshot-exempt): host-time measurements, not simulation state; a restored run starts a fresh ledger
    pub ledger: Ledger,
}

impl Traced {
    /// Wrap a freshly built model.
    pub fn new(inner: RoccModel) -> Traced {
        Traced {
            inner,
            ledger: Ledger::default(),
        }
    }
}

impl Model for Traced {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
        let k = kind(&ev);
        let t0 = Stopwatch::start();
        self.inner.handle(ctx, ev);
        let ns = t0.ns();
        self.ledger.count[k] += 1;
        self.ledger.ns[k] += ns;
        self.ledger.pending_peak = self.ledger.pending_peak.max(ctx.pending_events());
    }
}

impl PersistState for Traced {
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn save_state(&self, w: &mut Enc) {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// `build_with_calendar` for the traced wrapper: per-cell sequence
/// counters when the configuration is shardable, and `Init` at t=0.
pub fn build_traced(cfg: &SimConfig) -> Sim<Traced> {
    let mut sim = Sim::with_calendar(
        Traced::new(RoccModel::new(cfg.clone())),
        CalendarKind::Wheel,
    );
    if shardable(cfg) {
        sim.ctx().enable_cells(cfg.nodes as u32);
    }
    sim.ctx().post_at(SimTime::ZERO, Ev::Init);
    sim
}

/// Host nanoseconds of one probe: the two clock reads [`Traced`] adds
/// around every handler.
pub fn probe_ns() -> f64 {
    const N: u32 = 200_000;
    let mut sink = 0u64;
    let t0 = Stopwatch::start();
    for _ in 0..N {
        let a = Stopwatch::start();
        sink = sink.wrapping_add(a.ns());
    }
    std::hint::black_box(sink);
    t0.ns() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradyn_core::{build_with_calendar, Arch, Forwarding};

    #[test]
    fn traced_run_is_bit_identical_and_counts_every_event() {
        for cfg in [
            SimConfig {
                nodes: 3,
                duration_s: 0.5,
                ..Default::default()
            },
            SimConfig {
                arch: Arch::Mpp {
                    forwarding: Forwarding::BinaryTree,
                },
                nodes: 7,
                batch: 4,
                duration_s: 0.5,
                ..Default::default()
            },
        ] {
            let horizon = SimTime::from_secs_f64(cfg.duration_s);
            let mut plain = build_with_calendar(&cfg, CalendarKind::Wheel);
            plain.run_until(horizon);
            let mut traced = build_traced(&cfg);
            traced.run_until(horizon);
            assert_eq!(plain.state_payload(), traced.state_payload());
            assert_eq!(traced.model.ledger.events(), traced.executed_events());
            assert_eq!(traced.model.ledger.count[kind(&Ev::Init)], 1);
        }
    }
}
