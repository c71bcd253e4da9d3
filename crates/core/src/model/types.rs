//! Job, message, and event types of the ROCC simulation.

use paradyn_des::SimTime;
use paradyn_workload::ProcessClass;
use std::collections::VecDeque;
use std::num::NonZeroU32;

/// Global application-process index.
pub type AppId = u32;

/// Daemon index.
pub type PdId = u32;

/// Token identifying an in-flight batch of samples: the high 32 bits name
/// the allocating daemon, the low [`TOKEN_CTR_BITS`] bits are that daemon's
/// private allocation counter — so a token value is a pure function of the
/// allocator's own history. The counter never wraps, so no two batches a
/// daemon allocates ever share a token.
pub type Token = u64;

/// Low bits of a [`Token`] carrying the allocator's counter.
pub const TOKEN_CTR_BITS: u32 = 32;

/// Split a token into `(allocating daemon, counter)`.
#[inline]
fn split(t: Token) -> (usize, u32) {
    ((t >> TOKEN_CTR_BITS) as usize, t as u32)
}

/// One daemon's live batches, indexed directly by counter offset: slot `i`
/// holds the batch with counter `base + i`, or `None` once it has retired.
/// Batches retire out of order, so holes open anywhere, but the front slot
/// is always live (holes there are popped), which bounds memory by the
/// span from the oldest live batch to the newest, not by the live count.
#[derive(Default)]
struct Window {
    /// Counter of `slots[0]` (meaningless while `slots` is empty).
    base: u32,
    slots: VecDeque<Option<Batch>>,
}

impl Window {
    #[inline]
    fn slot(&self, ctr: u32) -> Option<&Option<Batch>> {
        self.slots.get(ctr.wrapping_sub(self.base) as usize)
    }

    #[inline]
    fn slot_mut(&mut self, ctr: u32) -> Option<&mut Option<Batch>> {
        self.slots.get_mut(ctr.wrapping_sub(self.base) as usize)
    }

    /// Store `batch` under `ctr`, a counter newer than every slot.
    fn put(&mut self, ctr: u32, batch: Batch) {
        if self.slots.is_empty() {
            self.base = ctr;
        }
        let i = (ctr - self.base) as usize;
        assert!(i >= self.slots.len(), "token counter reused");
        self.slots.resize_with(i, || None);
        self.slots.push_back(Some(batch));
    }

    /// Retire `ctr`, popping any holes this opens at the front.
    #[inline]
    fn take(&mut self, ctr: u32) -> Option<Batch> {
        let batch = self.slot_mut(ctr)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(batch)
    }

    /// Live batches with their counters, in counter order.
    fn iter(&self) -> impl Iterator<Item = (u32, &Batch)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, b)| Some((base + i as u32, b.as_ref()?)))
    }
}

/// Arena of in-flight batches keyed by `(allocating daemon, counter)`: one
/// [`Window`] per daemon, so `get`/`get_mut`/`remove` are O(1) however
/// large a saturated consumer lets the backlog grow. Iteration order —
/// daemon index major, counter order minor — is deterministic.
#[derive(Default)]
pub struct TokenTable {
    /// Live batches per allocating daemon.
    windows: Vec<Window>,
    /// Next counter each daemon allocates.
    next: Vec<u32>,
    // lint:allow(snapshot-exempt): recomputed as the number of live slots while load rebuilds the windows
    live: usize,
}

impl TokenTable {
    /// One empty window per daemon.
    pub fn with_pds(pds: usize) -> TokenTable {
        TokenTable {
            windows: (0..pds).map(|_| Window::default()).collect(),
            next: vec![0; pds],
            live: 0,
        }
    }

    /// Number of daemon windows (fixed by the configuration).
    pub fn pds(&self) -> usize {
        self.windows.len()
    }

    /// Store a batch allocated by daemon `pd`, returning its token.
    ///
    /// # Panics
    /// Panics if `pd` has exhausted its 2^32 counters.
    pub fn insert(&mut self, pd: PdId, batch: Batch) -> Token {
        let ctr = self.next[pd as usize];
        self.next[pd as usize] = ctr.checked_add(1).expect("token counter exhausted");
        self.windows[pd as usize].put(ctr, batch);
        self.live += 1;
        ((pd as Token) << TOKEN_CTR_BITS) | ctr as Token
    }

    /// Shared access to a live batch (`None` if the token was consumed).
    #[inline]
    pub fn get(&self, t: Token) -> Option<&Batch> {
        let (pd, ctr) = split(t);
        self.windows.get(pd)?.slot(ctr)?.as_ref()
    }

    /// Mutable access to a live batch.
    #[inline]
    pub fn get_mut(&mut self, t: Token) -> Option<&mut Batch> {
        let (pd, ctr) = split(t);
        self.windows.get_mut(pd)?.slot_mut(ctr)?.as_mut()
    }

    /// Remove and return a live batch.
    #[inline]
    pub fn remove(&mut self, t: Token) -> Option<Batch> {
        let (pd, ctr) = split(t);
        let batch = self.windows.get_mut(pd)?.take(ctr)?;
        self.live -= 1;
        Some(batch)
    }

    /// Number of live batches.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no batches are in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live batches allocated by daemon `pd`.
    #[cfg(test)]
    pub(crate) fn live_on(&self, pd: usize) -> usize {
        self.windows[pd].iter().count()
    }

    /// Iterate over live batches (daemon-major, allocation order).
    pub fn values(&self) -> impl Iterator<Item = &Batch> {
        self.windows.iter().flat_map(|w| w.iter().map(|(_, b)| b))
    }
}

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
        token: Token,
    },
    /// Merge work for an en-route child message at a tree node.
    PdMerge {
        /// The merging node.
        node: u32,
        /// The message being merged.
        token: Token,
    },
    /// Main-process handling of one received message; latency is recorded
    /// when this completes (receipt at the central collection facility).
    MainRecv {
        /// The message being consumed.
        token: Token,
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
        token: Token,
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
        token: Token,
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

/// Payload of an in-flight batch of samples. The pipe slots a batch holds
/// while it is being collected are on its daemon's roster
/// (`Daemons::roster`), not on the batch, so a batch is 24 bytes and so is
/// an `Option<Batch>` token-window slot.
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
    /// Failed forward attempts on the current hop (injected link faults);
    /// reset to zero whenever a hop succeeds.
    pub attempts: u32,
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
        w.put_u32(self.attempts);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(Batch {
            count: NonZeroU32::new(r.take_u32()?)
                .ok_or(SnapError::Malformed("batch of zero samples"))?,
            sum_gen_ns: r.take_u64()?,
            ready_ns: r.take_u64()?,
            attempts: r.take_u32()?,
        })
    }
}

/// A window encodes canonically — `base` and the slots up to its newest
/// live batch, `0` and no slots when empty — so tables holding the same
/// batches encode identically whatever holes their histories left (a
/// restored table and the one it was saved from). Every slot costs an
/// input byte, so a decoded window never allocates beyond its input.
impl Persist for Window {
    fn save(&self, w: &mut Enc) {
        let len = self
            .slots
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |i| i + 1);
        w.put_u32(if len == 0 { 0 } else { self.base });
        w.put_usize(len);
        for slot in self.slots.range(..len) {
            slot.save(w);
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let base = r.take_u32()?;
        let slots: VecDeque<Option<Batch>> = Persist::load(r)?;
        let canonical = match (slots.front(), slots.back()) {
            (Some(front), Some(back)) => front.is_some() && back.is_some(),
            _ => base == 0,
        };
        if !canonical {
            return Err(SnapError::Malformed("token window not canonical"));
        }
        Ok(Window { base, slots })
    }
}

impl Persist for TokenTable {
    fn save(&self, w: &mut Enc) {
        self.windows.save(w);
        self.next.save(w);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let windows: Vec<Window> = Persist::load(r)?;
        let next: Vec<u32> = Persist::load(r)?;
        if next.len() != windows.len() {
            return Err(SnapError::Malformed("token table shape"));
        }
        // Every live batch was allocated before its daemon's next one.
        if windows
            .iter()
            .zip(&next)
            .any(|(w, &n)| w.base as u64 + w.slots.len() as u64 > n as u64)
        {
            return Err(SnapError::Malformed("token table counter"));
        }
        let live = windows
            .iter()
            .map(|w| w.slots.iter().flatten().count())
            .sum();
        Ok(TokenTable {
            windows,
            next,
            live,
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
            CpuKind::PdCollect { pd, token } => {
                w.put_u8(1);
                w.put_u32(pd);
                w.put_u64(token);
            }
            CpuKind::PdMerge { node, token } => {
                w.put_u8(2);
                w.put_u32(node);
                w.put_u64(token);
            }
            CpuKind::MainRecv { token } => {
                w.put_u8(3);
                w.put_u64(token);
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
                token: r.take_u64()?,
            },
            2 => CpuKind::PdMerge {
                node: r.take_u32()?,
                token: r.take_u64()?,
            },
            3 => CpuKind::MainRecv { token: r.take_u64()? },
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
            NetJob::Forward { token, dest } => {
                w.put_u8(1);
                w.put_u64(token);
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
                token: r.take_u64()?,
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
                token,
                demand_us,
            } => {
                w.put_u8(12);
                w.put_u32(pd);
                w.put_u64(token);
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
            9 => Ev::AdaptTick { pd: r.take_u32()? },
            10 => Ev::DaemonCrash { pd: r.take_u32()? },
            11 => Ev::DaemonRecover { pd: r.take_u32()? },
            12 => Ev::RetryForward {
                pd: r.take_u32()?,
                token: r.take_u64()?,
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

    fn batch(count: u32) -> Batch {
        Batch {
            count: NonZeroU32::new(count).unwrap(),
            sum_gen_ns: 0,
            ready_ns: 0,
            attempts: 0,
        }
    }

    #[test]
    fn token_table_is_stable_and_ordered() {
        let mut tab = TokenTable::with_pds(3);
        let a = tab.insert(1, batch(1));
        let b = tab.insert(1, batch(2));
        let c = tab.insert(0, batch(3));
        // Tokens are a pure function of (pd, per-pd allocation count).
        assert_eq!(a, (1 << TOKEN_CTR_BITS) | 0);
        assert_eq!(b, (1 << TOKEN_CTR_BITS) | 1);
        assert_eq!(c, 0);
        assert_eq!(tab.len(), 3);
        assert_eq!(tab.get(a).unwrap().count.get(), 1);
        assert_eq!(tab.remove(a).unwrap().count.get(), 1);
        assert!(tab.remove(a).is_none(), "double remove is a no-op");
        // Removing a batch does not perturb later token values.
        let d = tab.insert(1, batch(4));
        assert_eq!(d, (1 << TOKEN_CTR_BITS) | 2);
        tab.get_mut(b).unwrap().attempts = 7;
        assert_eq!(tab.get(b).unwrap().attempts, 7);
        // Iteration is pd-major, allocation order minor.
        let counts: Vec<u32> = tab.values().map(|x| x.count.get()).collect();
        assert_eq!(counts, vec![3, 2, 4]);
        assert!(!tab.is_empty());
        tab.remove(b);
        tab.remove(c);
        tab.remove(d);
        assert!(tab.is_empty());
    }

    #[test]
    fn token_table_decode_rejects_non_canonical_windows() {
        // One window at base 5: [hole, live] has a leading hole, [live,
        // hole] a trailing one; [live, live] is fine only below `next`.
        let encode = |slots: &[bool], next: u32| {
            let mut w = Enc::new();
            w.put_usize(1);
            w.put_u32(5);
            w.put_usize(slots.len());
            for &live in slots {
                let slot = live.then(|| batch(1));
                slot.save(&mut w);
            }
            w.put_usize(1);
            w.put_u32(next);
            w.into_bytes()
        };
        let decode = |bytes: Vec<u8>| TokenTable::load(&mut Dec::new(&bytes));
        assert!(decode(encode(&[false, true], 9)).is_err());
        assert!(decode(encode(&[true, false], 9)).is_err());
        assert!(decode(encode(&[true, true], 6)).is_err());
        let tab = decode(encode(&[true, true], 7)).expect("canonical window");
        assert_eq!(tab.len(), 2);
        assert!(tab.get(6).is_some() && tab.get(7).is_none());
    }

    #[test]
    fn event_and_job_sizes() {
        use std::mem::size_of;
        // Widening `Token` to 64 bits must not grow the calendar's entries.
        assert_eq!(size_of::<Ev>(), 24);
        // A saturated run holds these by the tens of thousands: a CPU job
        // (a 24-byte RR ready entry with its demand), a network job, and
        // a token-window slot, whose `None` is the zero count.
        assert_eq!(size_of::<CpuJob>(), 16);
        assert_eq!(size_of::<NetJob>(), 16);
        assert_eq!(size_of::<Option<Batch>>(), 24);
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
            (CpuKind::PdCollect { pd: 0, token: 0 }, ProcessClass::ParadynDaemon),
            (CpuKind::PdMerge { node: 0, token: 0 }, ProcessClass::ParadynDaemon),
            (CpuKind::MainRecv { token: 0 }, ProcessClass::MainParadyn),
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
            attempts: 0,
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
                token: 0,
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
