//! Job, message, and event types of the ROCC simulation.

use paradyn_des::SimTime;
use paradyn_workload::ProcessClass;
use std::num::NonZeroU32;

/// Global application-process index.
pub type AppId = u32;

/// Daemon index.
pub type PdId = u32;

/// A CPU occupancy request queued at a node's CPU bank.
#[derive(Clone, Copy, Debug)]
pub struct CpuJob {
    /// What to do when the request completes.
    pub kind: CpuKind,
}

impl CpuJob {
    /// Owning process class (for busy-time attribution).
    pub fn class(&self) -> ProcessClass {
        match self.kind {
            CpuKind::AppCompute { .. } => ProcessClass::Application,
            CpuKind::PdCollect { .. } | CpuKind::PdMerge { .. } => ProcessClass::ParadynDaemon,
            CpuKind::MainRecv { .. } => ProcessClass::MainParadyn,
            CpuKind::PvmdCpu { .. } => ProcessClass::PvmDaemon,
            CpuKind::OtherCpu => ProcessClass::Other,
        }
    }
}

/// Continuations of CPU requests.
#[derive(Clone, Copy, Debug)]
pub enum CpuKind {
    /// An application computation burst.
    AppCompute {
        /// The computing application process.
        app: AppId,
    },
    /// Daemon work to collect and forward one batch.
    PdCollect {
        /// The daemon performing the cycle.
        pd: PdId,
        /// The batch being collected.
        batch: Batch,
    },
    /// Merge work for an en-route child message at a tree node.
    PdMerge {
        /// The merging node.
        node: u32,
        /// The message being merged.
        batch: Batch,
    },
    /// Main-process handling of one received message; latency is recorded
    /// when this completes (receipt at the central collection facility).
    MainRecv {
        /// The message being consumed.
        batch: Batch,
    },
    /// A PVM daemon burst (its network request follows).
    PvmdCpu {
        /// Node of the PVM daemon instance.
        node: u32,
    },
    /// An other-process burst (no continuation).
    OtherCpu,
}

/// Destination of a forwarded message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// An intermediate tree node's daemon.
    Node(u32),
    /// The main Paradyn process.
    Main,
}

/// A network occupancy request.
#[derive(Clone, Copy, Debug)]
pub enum NetJob {
    /// An application communication step.
    AppComm {
        /// The communicating application process.
        app: AppId,
    },
    /// A daemon forward (one hop).
    Forward {
        /// The in-flight batch.
        batch: Batch,
        /// Where this hop lands.
        dest: Dest,
    },
    /// PVM daemon network activity.
    PvmdNet {
        /// Node of the PVM daemon instance.
        node: u32,
    },
    /// Other-process network activity.
    OtherNet {
        /// Node of the other-process source.
        node: u32,
    },
}

impl NetJob {
    /// Process class for busy-time attribution.
    pub fn class(&self) -> ProcessClass {
        match self {
            NetJob::AppComm { .. } => ProcessClass::Application,
            NetJob::Forward { .. } => ProcessClass::ParadynDaemon,
            NetJob::PvmdNet { .. } => ProcessClass::PvmDaemon,
            NetJob::OtherNet { .. } => ProcessClass::Other,
        }
    }
}

/// The simulation's event alphabet.
#[derive(Clone, Copy, Debug)]
pub enum Ev {
    /// Kick-off event at time zero: starts application loops, sampling
    /// timers, and background sources.
    Init,
    /// A CPU slice ended on `(bank, cpu)`.
    Slice {
        /// CPU bank index.
        bank: u32,
        /// CPU index within the bank.
        cpu: u32,
    },
    /// The shared network/bus finished its current occupancy.
    NetDone,
    /// A network occupancy on a contention-free link ended; the payload
    /// arrives at its destination.
    Deliver(NetJob),
    /// An application process's sampling timer fired.
    Sample {
        /// The sampled application process.
        app: AppId,
    },
    /// The PVM daemon on `node` issues its next request pair.
    PvmdArrival {
        /// Node index.
        node: u32,
    },
    /// An other-process CPU request arrives on `node`.
    OtherCpuArrival {
        /// Node index.
        node: u32,
    },
    /// An other-process network request arrives on `node`.
    OtherNetArrival {
        /// Node index.
        node: u32,
    },
    /// A partial-batch flush timer fired for daemon `pd` (stale unless
    /// `gen` matches the daemon's current flush generation).
    FlushTimeout {
        /// The daemon.
        pd: PdId,
        /// Flush generation the timer was armed for.
        gen: u32,
    },
    /// Adaptive batch-regulation control tick for daemon `pd`.
    AdaptTick {
        /// The daemon.
        pd: PdId,
    },
    /// Injected fault: daemon `pd` crashes, losing its buffered samples.
    DaemonCrash {
        /// The crashing daemon.
        pd: PdId,
    },
    /// Daemon `pd` finishes restarting and resumes collection.
    DaemonRecover {
        /// The recovering daemon.
        pd: PdId,
    },
    /// Retry a forward whose previous attempt hit an injected link
    /// failure (fires after the exponential backoff).
    RetryForward {
        /// Daemon (or merge node) performing the hop.
        pd: PdId,
        /// The batch being forwarded.
        batch: Batch,
        /// Network occupancy demand of the hop (µs), reused across
        /// attempts so a retry costs no extra random draws.
        demand_us: f64,
        /// Failed attempts on this hop so far (at most `max_retries`,
        /// which validation caps at 64).
        attempts: u8,
    },
    /// Injected fault: the main process's host CPU absorbs a burst of
    /// competing work, stalling message consumption.
    MainStall,
    /// Degradation-controller recovery tick: an app with a throttled
    /// sampling rate attempts an additive-recovery step (and re-arms while
    /// its multiplier exceeds 1).
    ThrottleTick {
        /// The throttled application process.
        app: AppId,
    },
    /// A backpressure (`on`) or credit (`!on`) edge arriving at daemon `pd`
    /// from its parent in the forwarding tree, after signalling jitter.
    Backpressure {
        /// The receiving daemon.
        pd: PdId,
        /// Pressure rising (`true`) or clearing (`false`).
        on: bool,
    },
    /// The configured overload ramp fires: offered sampling load is
    /// multiplied by the ramp factor from this instant on.
    OverloadRamp,
}

/// Payload of an in-flight batch of samples. A batch moves by value
/// through the jobs and events that carry it (collect, forward, retry,
/// merge, receive) and is gone once the last of them retires it, so no
/// handle to it can outlive it. The pipe slots a batch holds while it is
/// being collected are on its daemon's roster (`Daemons::roster`), not on
/// the batch, so a batch is 24 bytes.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    /// Number of samples in the batch (merging preserves the count for
    /// latency accounting).
    pub count: NonZeroU32,
    /// Sum of the samples' generation times (ns). The mean monitoring
    /// latency of the batch at receipt time `t` is
    /// `t − sum_gen/count`.
    pub sum_gen_ns: u64,
    /// When the batch was assembled by the daemon (ns). Latency measured
    /// from here excludes batch-accumulation time — the quantity the
    /// paper's NOW/SMP latency figures effectively plot (their model has
    /// batches *arriving* as units; see EXPERIMENTS.md).
    pub ready_ns: u64,
}

impl Batch {
    /// Mean generation-to-receipt latency of the batch if received at
    /// `now`, in seconds (includes batch-accumulation time).
    pub fn mean_latency_s(&self, now: SimTime) -> f64 {
        let count = self.count.get() as f64;
        (now.as_nanos() as f64 * count - self.sum_gen_ns as f64) / count / 1e9
    }

    /// Forwarding latency (batch-ready to receipt) at `now`, in seconds.
    pub fn forwarding_latency_s(&self, now: SimTime) -> f64 {
        (now.as_nanos() as f64 - self.ready_ns as f64) / 1e9
    }
}

/// Index of a process class in metric arrays.
#[inline]
pub fn class_idx(c: ProcessClass) -> usize {
    match c {
        ProcessClass::Application => 0,
        ProcessClass::ParadynDaemon => 1,
        ProcessClass::PvmDaemon => 2,
        ProcessClass::Other => 3,
        ProcessClass::MainParadyn => 4,
    }
}

/// Parent of node `i` in the binary forwarding tree (heap layout,
/// node 0 = root, which hosts the main process).
#[inline]
pub fn tree_parent(i: u32) -> u32 {
    debug_assert!(i > 0, "root has no parent");
    (i - 1) / 2
}

// ---------------------------------------------------------------------------
// Snapshot codec impls.
// ---------------------------------------------------------------------------

use paradyn_des::{Dec, Enc, Persist, SnapError};

impl Persist for Batch {
    fn save(&self, w: &mut Enc) {
        w.put_u32(self.count.get());
        w.put_u64(self.sum_gen_ns);
        w.put_u64(self.ready_ns);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(Batch {
            count: NonZeroU32::new(r.take_u32()?)
                .ok_or(SnapError::Malformed("batch of zero samples"))?,
            sum_gen_ns: r.take_u64()?,
            ready_ns: r.take_u64()?,
        })
    }
}

impl Persist for CpuKind {
    fn save(&self, w: &mut Enc) {
        match *self {
            CpuKind::AppCompute { app } => {
                w.put_u8(0);
                w.put_u32(app);
            }
            CpuKind::PdCollect { pd, batch } => {
                w.put_u8(1);
                w.put_u32(pd);
                batch.save(w);
            }
            CpuKind::PdMerge { node, batch } => {
                w.put_u8(2);
                w.put_u32(node);
                batch.save(w);
            }
            CpuKind::MainRecv { batch } => {
                w.put_u8(3);
                batch.save(w);
            }
            CpuKind::PvmdCpu { node } => {
                w.put_u8(4);
                w.put_u32(node);
            }
            CpuKind::OtherCpu => w.put_u8(5),
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => CpuKind::AppCompute { app: r.take_u32()? },
            1 => CpuKind::PdCollect {
                pd: r.take_u32()?,
                batch: Persist::load(r)?,
            },
            2 => CpuKind::PdMerge {
                node: r.take_u32()?,
                batch: Persist::load(r)?,
            },
            3 => CpuKind::MainRecv {
                batch: Persist::load(r)?,
            },
            4 => CpuKind::PvmdCpu { node: r.take_u32()? },
            5 => CpuKind::OtherCpu,
            _ => return Err(SnapError::Malformed("CpuKind tag")),
        })
    }
}

impl Persist for CpuJob {
    fn save(&self, w: &mut Enc) {
        self.kind.save(w);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(CpuJob {
            kind: Persist::load(r)?,
        })
    }
}

impl Persist for Dest {
    fn save(&self, w: &mut Enc) {
        match *self {
            Dest::Node(n) => {
                w.put_u8(0);
                w.put_u32(n);
            }
            Dest::Main => w.put_u8(1),
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => Dest::Node(r.take_u32()?),
            1 => Dest::Main,
            _ => return Err(SnapError::Malformed("Dest tag")),
        })
    }
}

impl Persist for NetJob {
    fn save(&self, w: &mut Enc) {
        match *self {
            NetJob::AppComm { app } => {
                w.put_u8(0);
                w.put_u32(app);
            }
            NetJob::Forward { batch, dest } => {
                w.put_u8(1);
                batch.save(w);
                dest.save(w);
            }
            NetJob::PvmdNet { node } => {
                w.put_u8(2);
                w.put_u32(node);
            }
            NetJob::OtherNet { node } => {
                w.put_u8(3);
                w.put_u32(node);
            }
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => NetJob::AppComm { app: r.take_u32()? },
            1 => NetJob::Forward {
                batch: Persist::load(r)?,
                dest: Persist::load(r)?,
            },
            2 => NetJob::PvmdNet { node: r.take_u32()? },
            3 => NetJob::OtherNet { node: r.take_u32()? },
            _ => return Err(SnapError::Malformed("NetJob tag")),
        })
    }
}

impl Persist for Ev {
    fn save(&self, w: &mut Enc) {
        match *self {
            Ev::Init => w.put_u8(0),
            Ev::Slice { bank, cpu } => {
                w.put_u8(1);
                w.put_u32(bank);
                w.put_u32(cpu);
            }
            Ev::NetDone => w.put_u8(2),
            Ev::Deliver(job) => {
                w.put_u8(3);
                job.save(w);
            }
            Ev::Sample { app } => {
                w.put_u8(4);
                w.put_u32(app);
            }
            Ev::PvmdArrival { node } => {
                w.put_u8(5);
                w.put_u32(node);
            }
            Ev::OtherCpuArrival { node } => {
                w.put_u8(6);
                w.put_u32(node);
            }
            Ev::OtherNetArrival { node } => {
                w.put_u8(7);
                w.put_u32(node);
            }
            Ev::FlushTimeout { pd, gen } => {
                w.put_u8(8);
                w.put_u32(pd);
                w.put_u32(gen);
            }
            Ev::AdaptTick { pd } => {
                w.put_u8(9);
                w.put_u32(pd);
            }
            Ev::DaemonCrash { pd } => {
                w.put_u8(10);
                w.put_u32(pd);
            }
            Ev::DaemonRecover { pd } => {
                w.put_u8(11);
                w.put_u32(pd);
            }
            Ev::RetryForward {
                pd,
                batch,
                demand_us,
                attempts,
            } => {
                w.put_u8(12);
                w.put_u32(pd);
                batch.save(w);
                w.put_f64(demand_us);
                w.put_u8(attempts);
            }
            Ev::MainStall => w.put_u8(13),
            Ev::ThrottleTick { app } => {
                w.put_u8(14);
                w.put_u32(app);
            }
            Ev::Backpressure { pd, on } => {
                w.put_u8(15);
                w.put_u32(pd);
                w.put_bool(on);
            }
            Ev::OverloadRamp => w.put_u8(16),
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => Ev::Init,
            1 => Ev::Slice {
                bank: r.take_u32()?,
                cpu: r.take_u32()?,
            },
            2 => Ev::NetDone,
            3 => Ev::Deliver(Persist::load(r)?),
            4 => Ev::Sample { app: r.take_u32()? },
            5 => Ev::PvmdArrival { node: r.take_u32()? },
            6 => Ev::OtherCpuArrival { node: r.take_u32()? },
            7 => Ev::OtherNetArrival { node: r.take_u32()? },
            8 => Ev::FlushTimeout {
                pd: r.take_u32()?,
                gen: r.take_u32()?,
            },
            9 => Ev::AdaptTick { pd: r.take_u32()? },
            10 => Ev::DaemonCrash { pd: r.take_u32()? },
            11 => Ev::DaemonRecover { pd: r.take_u32()? },
            12 => Ev::RetryForward {
                pd: r.take_u32()?,
                batch: Persist::load(r)?,
                demand_us: r.take_f64()?,
                attempts: r.take_u8()?,
            },
            13 => Ev::MainStall,
            14 => Ev::ThrottleTick { app: r.take_u32()? },
            15 => Ev::Backpressure {
                pd: r.take_u32()?,
                on: r.take_bool()?,
            },
            16 => Ev::OverloadRamp,
            _ => return Err(SnapError::Malformed("Ev tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(count: u32) -> Batch {
        Batch {
            count: NonZeroU32::new(count).unwrap(),
            sum_gen_ns: 0,
            ready_ns: 0,
        }
    }

    #[test]
    fn event_and_job_sizes() {
        use std::mem::size_of;
        // A saturated run holds batches by the tens of thousands, each
        // inside the job or event that carries it: a CPU job (40 bytes
        // with its demand in an RR ready queue), a network job (40 with
        // its service in the FCFS queue), or a calendar entry. The retry
        // event's `u8` attempt count fits beside its tag, so no event
        // outgrows 40 bytes.
        assert_eq!(size_of::<Batch>(), 24);
        assert!(size_of::<CpuJob>() <= 32, "{}", size_of::<CpuJob>());
        assert!(size_of::<NetJob>() <= 32, "{}", size_of::<NetJob>());
        assert!(size_of::<Ev>() <= 40, "{}", size_of::<Ev>());
    }

    #[test]
    fn batch_decode_rejects_a_zero_count() {
        let mut w = Enc::new();
        batch(3).save(&mut w);
        let mut bytes = w.into_bytes();
        assert_eq!(Batch::load(&mut Dec::new(&bytes)).unwrap().count.get(), 3);
        bytes[..4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Batch::load(&mut Dec::new(&bytes)).unwrap_err(),
            SnapError::Malformed("batch of zero samples")
        );
    }

    #[test]
    fn cpu_job_classes() {
        let cases = [
            (CpuKind::AppCompute { app: 0 }, ProcessClass::Application),
            (CpuKind::PdCollect { pd: 0, batch: batch(1) }, ProcessClass::ParadynDaemon),
            (CpuKind::PdMerge { node: 0, batch: batch(1) }, ProcessClass::ParadynDaemon),
            (CpuKind::MainRecv { batch: batch(1) }, ProcessClass::MainParadyn),
            (CpuKind::PvmdCpu { node: 0 }, ProcessClass::PvmDaemon),
            (CpuKind::OtherCpu, ProcessClass::Other),
        ];
        for (kind, class) in cases {
            assert_eq!(CpuJob { kind }.class(), class, "{kind:?}");
        }
    }

    #[test]
    fn tree_parent_heap_layout() {
        assert_eq!(tree_parent(1), 0);
        assert_eq!(tree_parent(2), 0);
        assert_eq!(tree_parent(3), 1);
        assert_eq!(tree_parent(4), 1);
        assert_eq!(tree_parent(5), 2);
        assert_eq!(tree_parent(255), 127);
    }

    #[test]
    fn batch_latency_accounting() {
        // Two samples generated at 1s and 3s, received at 5s:
        // latencies 4s and 2s, mean 3s.
        let b = Batch {
            count: NonZeroU32::new(2).unwrap(),
            sum_gen_ns: 4_000_000_000,
            ready_ns: 4_000_000_000,
        };
        let lat = b.mean_latency_s(SimTime::from_secs_f64(5.0));
        assert!((lat - 3.0).abs() < 1e-9);
    }

    #[test]
    fn class_indices_are_distinct() {
        let mut seen = [false; 5];
        for c in ProcessClass::ALL {
            let i = class_idx(c);
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn net_job_classes() {
        assert_eq!(
            NetJob::AppComm { app: 0 }.class(),
            ProcessClass::Application
        );
        assert_eq!(
            NetJob::Forward {
                batch: batch(1),
                dest: Dest::Main
            }
            .class(),
            ProcessClass::ParadynDaemon
        );
        assert_eq!(
            NetJob::PvmdNet { node: 0 }.class(),
            ProcessClass::PvmDaemon
        );
        assert_eq!(NetJob::OtherNet { node: 0 }.class(), ProcessClass::Other);
    }
}
