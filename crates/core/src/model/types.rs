//! Job, message, and event types of the ROCC simulation.

use paradyn_des::SimTime;
use paradyn_workload::ProcessClass;
use std::num::NonZeroU16;

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
            CpuKind::Batch(b) if b.stage == Stage::Receive => ProcessClass::MainParadyn,
            CpuKind::Batch(_) => ProcessClass::ParadynDaemon,
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
    /// CPU work on a batch: its holder daemon collecting it
    /// ([`Stage::Collect`]), its holder tree node merging it
    /// ([`Stage::Merge`]), or the main process handling it
    /// ([`Stage::Receive`]; latency is recorded when this completes, at
    /// the central collection facility). Never [`Stage::Forward`].
    Batch(Batch),
    /// A PVM daemon burst (its network request follows).
    PvmdCpu {
        /// Node of the PVM daemon instance.
        node: u32,
    },
    /// An other-process burst (no continuation).
    OtherCpu,
}

/// Destination of a forwarded message, derived from its sender
/// (`RoccModel::forward_dest`).
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
    /// A daemon forward: one hop of a [`Stage::Forward`] batch from its
    /// holder to the holder's parent or the main process.
    Forward(Batch),
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
            NetJob::Forward(_) => ProcessClass::ParadynDaemon,
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
    /// Scheduled by nothing and handled as a no-op; a snapshot frame that
    /// carries one is malformed. It stays only because simbench's ledger
    /// names it, and goes with ROADMAP's "Benchmark revision" item.
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
    /// failure (fires after the exponential backoff). The batch's holder
    /// sends it again; its [`Stage::Forward`] counts the failed attempts.
    RetryForward {
        /// The batch being forwarded.
        batch: Batch,
        /// Network occupancy demand of the hop (µs), reused across
        /// attempts so a retry costs no extra random draws.
        demand_us: f64,
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

/// Where a batch is in its life, and so what its holder does with it
/// next. A batch goes collect → forward → (merge → forward)* → receive,
/// one forward per hop of the forwarding tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The holder daemon's CPU work is reading it out of the pipes.
    Collect,
    /// One network hop from the holder to the holder's parent in the
    /// forwarding tree, or to the main process.
    Forward {
        /// Failed attempts on this hop so far (at most `max_retries`,
        /// which validation caps at 64).
        attempts: u8,
    },
    /// The holder tree node's CPU work is merging it into its own stream.
    Merge,
    /// The main process's CPU work is consuming it; the holder is the
    /// daemon or tree node that sent it the last hop.
    Receive,
}

/// An in-flight batch of samples. A batch moves by value through the
/// jobs and events that carry it, and is gone once the last of them
/// retires it, so no handle to it can outlive it. It carries its own
/// `holder` and `stage`, so the carriers keep nothing beside it: the
/// handler that receives a batch reads from it who holds it and what
/// happens next. The pipe slots a batch holds while it is being
/// collected are on its daemon's roster (`Daemons::roster`), not on the
/// batch, so a batch is 24 bytes, and the spare tag values of `stage`
/// give each enum that holds a batch its own tag for free.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    /// Number of samples in the batch (merging preserves the count for
    /// latency accounting). Validation caps every batch threshold at
    /// [`MAX_BATCH`].
    pub count: NonZeroU16,
    /// What the holder does with the batch next.
    pub stage: Stage,
    /// The daemon (collect, forward) or tree node (merge) that holds the
    /// batch; for a receive, the sender of its last hop. On MPP trees a
    /// node's daemon index is the node index.
    pub holder: PdId,
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

/// Largest batch any daemon collects: validation caps the configured
/// batch here, and a snapshot batch above it is malformed.
pub const MAX_BATCH: usize = 4096;

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

impl Persist for Stage {
    fn save(&self, w: &mut Enc) {
        match *self {
            Stage::Collect => w.put_u8(0),
            Stage::Forward { attempts } => {
                w.put_u8(1);
                w.put_u8(attempts);
            }
            Stage::Merge => w.put_u8(2),
            Stage::Receive => w.put_u8(3),
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => Stage::Collect,
            1 => Stage::Forward {
                attempts: r.take_u8()?,
            },
            2 => Stage::Merge,
            3 => Stage::Receive,
            _ => return Err(SnapError::Malformed("batch stage tag")),
        })
    }
}

impl Persist for Batch {
    fn save(&self, w: &mut Enc) {
        w.put_u32(u32::from(self.count.get()));
        self.stage.save(w);
        w.put_u32(self.holder);
        w.put_u64(self.sum_gen_ns);
        w.put_u64(self.ready_ns);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = r.take_u32()?;
        let count = (n as usize <= MAX_BATCH)
            .then(|| NonZeroU16::new(n as _))
            .flatten()
            .ok_or(SnapError::Malformed("batch count outside 1..=4096"))?;
        Ok(Batch {
            count,
            stage: Persist::load(r)?,
            holder: r.take_u32()?,
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
            CpuKind::Batch(batch) => {
                w.put_u8(1);
                batch.save(w);
            }
            CpuKind::PvmdCpu { node } => {
                w.put_u8(2);
                w.put_u32(node);
            }
            CpuKind::OtherCpu => w.put_u8(3),
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => CpuKind::AppCompute { app: r.take_u32()? },
            1 => {
                let batch: Batch = Persist::load(r)?;
                if matches!(batch.stage, Stage::Forward { .. }) {
                    return Err(SnapError::Malformed("forwarding batch on a CPU"));
                }
                CpuKind::Batch(batch)
            }
            2 => CpuKind::PvmdCpu { node: r.take_u32()? },
            3 => CpuKind::OtherCpu,
            _ => return Err(SnapError::Malformed("CpuKind tag")),
        })
    }
}

/// Decode a batch that must be in its forward stage: the payload of a
/// network forward or of a retry.
fn load_forward(r: &mut Dec<'_>) -> Result<Batch, SnapError> {
    let batch: Batch = Persist::load(r)?;
    match batch.stage {
        Stage::Forward { .. } => Ok(batch),
        _ => Err(SnapError::Malformed("forward of a batch not in its forward stage")),
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

impl Persist for NetJob {
    fn save(&self, w: &mut Enc) {
        match *self {
            NetJob::AppComm { app } => {
                w.put_u8(0);
                w.put_u32(app);
            }
            NetJob::Forward(batch) => {
                w.put_u8(1);
                batch.save(w);
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
            1 => NetJob::Forward(load_forward(r)?),
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
            Ev::RetryForward { batch, demand_us } => {
                w.put_u8(12);
                batch.save(w);
                w.put_f64(demand_us);
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
            10 => Ev::DaemonCrash { pd: r.take_u32()? },
            11 => Ev::DaemonRecover { pd: r.take_u32()? },
            12 => Ev::RetryForward {
                batch: load_forward(r)?,
                demand_us: r.take_f64()?,
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
    use paradyn_des::SimDur;

    fn batch(count: u8, stage: Stage) -> Batch {
        Batch {
            count: NonZeroU16::new(count.into()).unwrap(),
            stage,
            holder: 0,
            sum_gen_ns: 0,
            ready_ns: 0,
        }
    }

    #[test]
    fn event_and_job_sizes() {
        use std::mem::size_of;
        // A saturated run holds batches by the tens of thousands, each
        // inside the job or event that carries it: a CPU job in an RR
        // ready queue or a network job in the FCFS queue (each queued with
        // its demand), or a calendar entry. The batch carries its holder
        // and stage, and the stage's spare tag values hold each carrier's
        // tag, so a job is no larger than its batch and the retry event
        // adds only its demand.
        assert_eq!(size_of::<Batch>(), 24);
        assert_eq!(size_of::<CpuJob>(), 24);
        assert_eq!(size_of::<NetJob>(), 24);
        assert_eq!(size_of::<Ev>(), 32);
        // A wheel node keeps its event as an `Option`; `None` fits the
        // niche, so a node is the event plus 24 bytes.
        assert_eq!(size_of::<Option<Ev>>(), 32);
        assert_eq!(size_of::<(CpuJob, SimDur)>(), 32);
        assert_eq!(size_of::<(NetJob, SimDur)>(), 32);
    }

    #[test]
    fn batch_decode_rejects_a_zero_count() {
        let mut w = Enc::new();
        batch(3, Stage::Collect).save(&mut w);
        let mut bytes = w.into_bytes();
        assert_eq!(Batch::load(&mut Dec::new(&bytes)).unwrap().count.get(), 3);
        bytes[..4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Batch::load(&mut Dec::new(&bytes)).unwrap_err(),
            SnapError::Malformed("batch count outside 1..=4096")
        );
    }

    #[test]
    fn batch_decode_rejects_counts_outside_one_to_max_batch() {
        let mut w = Enc::new();
        batch(3, Stage::Collect).save(&mut w);
        let mut bytes = w.into_bytes();
        assert_eq!(Batch::load(&mut Dec::new(&bytes)).unwrap().count.get(), 3);
        let max = MAX_BATCH as u32;
        for (count, ok) in [(1, true), (max, true), (max + 1, false), (1 << 16, false)] {
            bytes[..4].copy_from_slice(&count.to_le_bytes());
            let got = Batch::load(&mut Dec::new(&bytes));
            match got {
                Ok(b) => assert!(ok && u32::from(b.count.get()) == count, "count {count}"),
                Err(e) => {
                    assert!(!ok, "count {count}: {e:?}");
                    assert_eq!(e, SnapError::Malformed("batch count outside 1..=4096"));
                }
            }
        }
    }

    #[test]
    fn batch_decode_rejects_an_unknown_stage() {
        let stages = [
            Stage::Collect,
            Stage::Forward { attempts: 7 },
            Stage::Merge,
            Stage::Receive,
        ];
        for stage in stages {
            let mut w = Enc::new();
            batch(1, stage).save(&mut w);
            let back = Batch::load(&mut Dec::new(&w.into_bytes())).unwrap();
            assert_eq!(back.stage, stage);
        }
        let mut w = Enc::new();
        batch(1, Stage::Merge).save(&mut w);
        let mut bytes = w.into_bytes();
        // The stage tag follows the 4-byte count.
        bytes[4] = 4;
        assert_eq!(
            Batch::load(&mut Dec::new(&bytes)).unwrap_err(),
            SnapError::Malformed("batch stage tag")
        );
    }

    #[test]
    fn carriers_reject_a_batch_in_the_wrong_stage() {
        let mut w = Enc::new();
        CpuKind::Batch(batch(1, Stage::Forward { attempts: 0 })).save(&mut w);
        assert_eq!(
            CpuKind::load(&mut Dec::new(&w.into_bytes())).unwrap_err(),
            SnapError::Malformed("forwarding batch on a CPU")
        );
        for stage in [Stage::Collect, Stage::Merge, Stage::Receive] {
            let forward = NetJob::Forward(batch(1, stage));
            let retry = Ev::RetryForward {
                batch: batch(1, stage),
                demand_us: 1.0,
            };
            let mut w = Enc::new();
            forward.save(&mut w);
            let got = NetJob::load(&mut Dec::new(&w.into_bytes())).map(|_| ());
            let mut w = Enc::new();
            retry.save(&mut w);
            let got_retry = Ev::load(&mut Dec::new(&w.into_bytes())).map(|_| ());
            let want = Err(SnapError::Malformed("forward of a batch not in its forward stage"));
            assert_eq!(got, want, "{stage:?}");
            assert_eq!(got_retry, want, "{stage:?}");
        }
    }

    #[test]
    fn cpu_job_classes() {
        let cases = [
            (CpuKind::AppCompute { app: 0 }, ProcessClass::Application),
            (CpuKind::Batch(batch(1, Stage::Collect)), ProcessClass::ParadynDaemon),
            (CpuKind::Batch(batch(1, Stage::Merge)), ProcessClass::ParadynDaemon),
            (CpuKind::Batch(batch(1, Stage::Receive)), ProcessClass::MainParadyn),
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
            sum_gen_ns: 4_000_000_000,
            ready_ns: 4_000_000_000,
            ..batch(2, Stage::Receive)
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
            NetJob::Forward(batch(1, Stage::Forward { attempts: 0 })).class(),
            ProcessClass::ParadynDaemon
        );
        assert_eq!(
            NetJob::PvmdNet { node: 0 }.class(),
            ProcessClass::PvmDaemon
        );
        assert_eq!(NetJob::OtherNet { node: 0 }.class(), ProcessClass::Other);
    }
}
