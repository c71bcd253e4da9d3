//! Index-handle arenas with struct-of-arrays layout for the entity state
//! the event loop touches on every burst.
//!
//! Entities are addressed by dense `u32` handles ([`super::types::AppId`],
//! [`super::types::PdId`]) assigned at construction; the arenas never grow,
//! shrink, or reuse indices after `RoccModel::new`, so a handle is valid
//! for the lifetime of the model and indexing never checks liveness.
//!
//! Each arena is split by access frequency, not by concept:
//!
//! * the **hot** column holds exactly the fields the per-event handlers
//!   read or write on the compute/communicate loop and the collect/forward
//!   loop, so those handlers walk dense, small records instead of dragging
//!   whole entity structs (with their fault, throttle, and replay baggage)
//!   through the cache;
//! * the **pipe** / **fifo** / **roster** columns isolate the queue state
//!   the deposit/collect/drain path touches;
//! * the **cold** column holds sampling-timer, replay, fault, and
//!   degradation-controller state that is read orders of magnitude less
//!   often (per sample or per control tick, not per burst).
//!
//! The split is pure layout: every field keeps its meaning, update order,
//! and random-stream discipline, so traces are bit-identical to the
//! array-of-structs model this replaces.

use super::types::{AppId, PdId};
use super::Step;
use crate::pipe::Pipe;
use paradyn_des::{FaultSchedule, SimTime, StreamRng};
use std::collections::VecDeque;

/// Per-app state touched on every computation/communication burst.
pub(crate) struct AppHot {
    /// Home node.
    pub node: u32,
    /// Owning daemon.
    pub pd: PdId,
    /// Randomness for CPU bursts.
    pub cpu_rng: StreamRng,
    /// Randomness for communication bursts.
    pub net_rng: StreamRng,
    /// Demand of the burst currently on the CPU (µs), for barrier
    /// accounting at completion.
    pub current_burst_us: f64,
    /// CPU work accumulated since the last barrier (µs).
    pub work_since_barrier_us: f64,
    /// Whether the process is waiting at the barrier.
    pub at_barrier: bool,
}

/// Per-app state touched per sample or per control tick.
pub(crate) struct AppCold {
    /// Randomness for sample timing.
    pub sample_rng: StreamRng,
    /// When the writer entered its current blocked wait (for
    /// writer-block-time accounting).
    pub blocked_since: Option<SimTime>,
    /// Step the process will resume with once its blocked pipe write
    /// completes.
    pub paused: Option<Step>,
    /// Whether the sampling timer is currently scheduled.
    pub sampling_active: bool,
    /// Next replay position for CPU bursts (replay mode only).
    pub replay_cpu_pos: u64,
    /// Next replay position for network bursts (replay mode only).
    pub replay_net_pos: u64,
    /// Randomness for throttle recovery-tick jitter (degradation
    /// controller; untouched unless degradation is configured).
    pub throttle_rng: StreamRng,
    /// Current sampling-period multiplier (>= 1; 1 = no throttling).
    pub throttle_mult: f64,
    /// Whether the pipe is above its high watermark (pressure condition).
    pub pressured: bool,
    /// When the pressure condition last cleared (for recovery hysteresis);
    /// `None` while pressured or never pressured.
    pub pressure_cleared_at: Option<SimTime>,
    /// Whether a throttle recovery tick is currently scheduled.
    pub throttle_tick_armed: bool,
}

/// The application-process arena, indexed by [`AppId`].
pub(crate) struct Apps {
    pub hot: Vec<AppHot>,
    /// Pipe occupancy column (deposit/drain path).
    pub pipe: Vec<Pipe>,
    pub cold: Vec<AppCold>,
}

impl Apps {
    pub fn with_capacity(n: usize) -> Self {
        Apps {
            hot: Vec::with_capacity(n),
            pipe: Vec::with_capacity(n),
            cold: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, hot: AppHot, pipe: Pipe, cold: AppCold) {
        self.hot.push(hot);
        self.pipe.push(pipe);
        self.cold.push(cold);
    }

    pub fn len(&self) -> usize {
        self.hot.len()
    }
}

/// Per-daemon state touched on every collect/forward cycle.
pub(crate) struct DaemonHot {
    /// Node whose CPU bank runs this daemon (SMP: bank 0).
    pub node: u32,
    /// Randomness for collect/forward CPU demands.
    pub cpu_rng: StreamRng,
    /// Randomness for network occupancy demands.
    pub net_rng: StreamRng,
    /// Whether a collect CPU request is in flight (the daemon is a single
    /// process: one cycle at a time).
    pub collecting: bool,
    /// Whether the daemon is currently crashed.
    pub down: bool,
    /// Whether the in-flight collection cycle belongs to a crashed daemon
    /// incarnation (its batch is lost when the CPU work completes).
    pub doomed: bool,
    /// Whether this daemon's own fifo is above its high watermark and the
    /// daemon is shedding sheddable tiers.
    pub shedding: bool,
    /// Whether an ancestor in the forwarding tree signalled pressure (shed
    /// on its behalf until the credit edge arrives).
    pub remote_pressure: bool,
    /// Flush-timer generation; timers with a stale generation are ignored.
    pub flush_gen: u32,
}

/// Per-daemon state touched per merge hop, backpressure signal, or
/// injected fault.
pub(crate) struct DaemonCold {
    /// Randomness for merge work.
    pub merge_rng: StreamRng,
    /// Crash/recovery event source (`None` = crash injection off).
    pub crash: Option<FaultSchedule>,
    /// Randomness for injected forwarding-link failures.
    pub link_rng: StreamRng,
    /// When the current outage began; meaningful only while
    /// [`DaemonHot::down`] (metrics count an open outage up to the horizon).
    pub down_since: SimTime,
    /// Randomness for backpressure signalling jitter (degradation
    /// controller; untouched unless degradation is configured).
    pub shed_rng: StreamRng,
}

/// The daemon arena, indexed by [`PdId`].
pub(crate) struct Daemons {
    pub hot: Vec<DaemonHot>,
    /// FIFO of deposited samples `(generation time, app)` awaiting
    /// collection, one per daemon.
    pub fifo: Vec<VecDeque<(SimTime, AppId)>>,
    /// Apps whose pipe slots the daemon's collect cycle holds, one entry
    /// per sample of the batch being collected; drained (and writers
    /// unblocked) when the collect CPU work finishes. Non-empty exactly
    /// while the daemon is collecting.
    pub roster: Vec<Vec<AppId>>,
    pub cold: Vec<DaemonCold>,
}

impl Daemons {
    pub fn with_capacity(n: usize) -> Self {
        Daemons {
            hot: Vec::with_capacity(n),
            fifo: Vec::with_capacity(n),
            roster: Vec::with_capacity(n),
            cold: Vec::with_capacity(n),
        }
    }

    pub fn push(
        &mut self,
        hot: DaemonHot,
        fifo: VecDeque<(SimTime, AppId)>,
        roster: Vec<AppId>,
        cold: DaemonCold,
    ) {
        self.hot.push(hot);
        self.fifo.push(fifo);
        self.roster.push(roster);
        self.cold.push(cold);
    }

    pub fn len(&self) -> usize {
        self.hot.len()
    }
}
