//! The ROCC discrete-event model of the Paradyn instrumentation system —
//! the executable form of the paper's Figure 5.
//!
//! One [`RoccModel`] instance simulates the whole system:
//!
//! * a round-robin quantum CPU bank per node (NOW/MPP) or one pooled bank
//!   (SMP);
//! * a network: shared-Ethernet FCFS (NOW), shared-bus FCFS (SMP), or
//!   contention-free delay links (MPP / the "contention-free" NOW variant);
//! * application processes alternating computation and communication
//!   (Figure 7), emitting instrumentation samples into bounded pipes;
//! * Paradyn daemons collecting pipes and forwarding under the CF or BF
//!   policy, directly or along a binary merge tree;
//! * the main Paradyn process consuming messages on node 0;
//! * PVM-daemon and other-process background load.

mod app;
pub(crate) mod arena;
mod background;
mod daemon;
mod degrade;
pub mod snapshot;
#[cfg(test)]
mod tests;
pub mod types;

use crate::config::{Arch, SimConfig};
use crate::metrics::SimMetrics;
use crate::pipe::Pipe;
use arena::{AppCold, AppHot, Apps, DaemonCold, DaemonHot, Daemons};
use paradyn_des::{
    Ctx, FaultMonitor, FaultSchedule, FcfsServer, Model, Offer, RrCpuBank, Sim, SimDur, SimTime,
    StreamRng, Streams, Submit,
};
use paradyn_workload::params::{
    MAIN_CPU_PER_EXTRA_SAMPLE_US, MIN_FORWARD_US, QUANTUM_US, SMP_BUS_SPEEDUP,
};
use std::collections::VecDeque;
use types::{class_idx, AppId, Batch, CpuJob, CpuKind, Dest, Ev, NetJob, Stage};

/// Stream-id kinds for reproducible per-element randomness.
///
/// Documented allocation (enforced by `paradyn-lint`'s `rng-stream-id`
/// rule): ids 11–13 are reserved for `FAULT_*` fault-injection streams,
/// 14–15 for `CTRL_*` degradation-controller streams, 16 for the
/// `CHAOS_*` chaos-scenario derivation stream, so an inert fault plan or
/// degradation config leaves every other stream untouched.
pub mod stream_kind {
    /// Application CPU-burst demands.
    pub const APP_CPU: u64 = 1;
    /// Application communication-burst demands.
    pub const APP_NET: u64 = 2;
    /// Application sampling-timer gaps.
    pub const APP_SAMPLE: u64 = 3;
    /// Daemon collect/forward CPU demands.
    pub const PD_CPU: u64 = 4;
    /// Daemon network occupancy demands.
    pub const PD_NET: u64 = 5;
    /// Daemon tree-merge CPU demands.
    pub const PD_MERGE: u64 = 6;
    /// PVM-daemon background load.
    pub const PVMD: u64 = 7;
    /// Other-process background CPU load.
    pub const OTHER_CPU: u64 = 8;
    /// Other-process background network load.
    pub const OTHER_NET: u64 = 9;
    /// Main-process per-message CPU demands.
    pub const MAIN: u64 = 10;
    /// Daemon crash/recovery schedule (fault injection).
    pub const FAULT_CRASH: u64 = 11;
    /// Forwarding-link failure draws (fault injection).
    pub const FAULT_LINK: u64 = 12;
    /// Consumer-stall inter-arrival draws (fault injection).
    pub const FAULT_STALL: u64 = 13;
    /// Per-application throttle recovery-tick jitter (degradation
    /// controller; drawn only when a degradation config is active).
    pub const CTRL_THROTTLE: u64 = 14;
    /// Per-daemon backpressure signalling jitter (degradation controller;
    /// drawn only when a degradation config is active).
    pub const CTRL_SHED: u64 = 15;
    /// Chaos-search scenario derivation (one sub-seed per scenario index).
    pub const CHAOS_SCENARIO: u64 = 16;
}

/// What an application process does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Start a computation burst.
    Compute,
    /// Start a communication burst.
    Comm,
}

/// Internal metric accumulators.
#[derive(Default)]
pub(crate) struct Acc {
    /// CPU busy time by class (µs).
    pub cpu_busy_us: [f64; 5],
    /// Network occupancy by class (µs).
    pub net_busy_us: [f64; 5],
    /// Sum of per-sample monitoring latencies (s).
    pub latency_sum_s: f64,
    /// Sum of per-message forwarding latencies (batch-ready to receipt, s).
    pub fwd_latency_sum_s: f64,
    /// Samples received at the main process.
    pub received_samples: u64,
    /// Messages received at the main process.
    pub received_msgs: u64,
    /// Samples deposited into pipes.
    pub generated_samples: u64,
    /// Barrier release operations.
    pub barrier_ops: u64,
    /// Every sample-emission attempt, including ones that were dropped or
    /// arrived while the writer was blocked (the conservation basis:
    /// emitted == received + lost + in-flight).
    pub emitted_samples: u64,
    /// Samples lost because they fired while the writer was blocked.
    pub lost_blocked: u64,
    /// Samples lost to daemon crashes (buffered + in-flight batches).
    pub lost_crash: u64,
    /// Samples lost to exhausted forwarding-link retries.
    pub lost_link: u64,
    /// Samples riding in-flight batches: collected from a daemon FIFO and
    /// not yet received or lost. Batches travel by value inside jobs and
    /// events, so this running count is what `samples_in_flight` reports
    /// for them (the model tests check it against a walk over every
    /// holder).
    pub in_batches: u64,
    /// Total time application writers spent blocked on full pipes (µs),
    /// for intervals closed before the horizon.
    pub writer_block_us: f64,
    /// CPU time injected by consumer-stall faults (µs).
    pub stall_injected_us: f64,
    /// Samples deliberately shed by the degradation controller, by priority
    /// tier. Conservation: emitted == received + lost + shed + in-flight.
    pub shed_by_tier: [u64; crate::metrics::MAX_TIERS],
    /// Pressure rising edges seen by app throttle controllers.
    pub throttle_events: u64,
    /// Backpressure edges propagated down the forwarding tree.
    pub backpressure_events: u64,
}

/// The full system model.
pub struct RoccModel {
    // lint:allow(snapshot-exempt): immutable for a run; fork/rewind restore into a model built from the same config
    pub(crate) cfg: SimConfig,
    pub(crate) banks: Vec<RrCpuBank<CpuJob>>,
    /// Shared FCFS network (NOW shared Ethernet / SMP bus); `None` for
    /// contention-free interconnects.
    pub(crate) shared_net: Option<FcfsServer<NetJob>>,
    pub(crate) apps: Apps,
    pub(crate) daemons: Daemons,
    pub(crate) barrier_waiting: Vec<AppId>,
    /// Recycled storage for the barrier-release roster, so a release cycle
    /// allocates nothing in the steady state.
    // lint:allow(snapshot-exempt): scratch buffer, empty between events; restored runs start with an empty one
    pub(crate) barrier_scratch: Vec<AppId>,
    pub(crate) main_rng: StreamRng,
    pub(crate) pvmd_rngs: Vec<StreamRng>,
    pub(crate) other_rngs: Vec<StreamRng>,
    pub(crate) stall_rng: StreamRng,
    /// Whether the configured overload ramp has fired (offered load is
    /// multiplied from that point on).
    pub(crate) overload_on: bool,
    /// Metric accumulators.
    pub(crate) acc: Acc,
}

impl RoccModel {
    /// Construct the model for a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`SimConfig::validate`]).
    pub fn new(cfg: SimConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let streams = Streams::new(cfg.seed);
        let quantum = SimDur::from_micros_f64(QUANTUM_US);
        let banks = match cfg.arch {
            Arch::Smp => vec![RrCpuBank::new(cfg.nodes, quantum)],
            _ => (0..cfg.nodes)
                .map(|_| RrCpuBank::new(1, quantum))
                .collect(),
        };
        let shared_net = match cfg.arch {
            Arch::Now {
                contention_free: false,
            }
            | Arch::Smp => Some(FcfsServer::new()),
            _ => None,
        };

        let total_apps = cfg.total_apps();
        let total_pds = cfg.total_pds();
        let mut apps = Apps::with_capacity(total_apps);
        for gi in 0..total_apps as u32 {
            let (node, pd) = match cfg.arch {
                Arch::Smp => (0, gi % total_pds as u32),
                _ => {
                    let node = gi / cfg.apps_per_node as u32;
                    (node, node)
                }
            };
            apps.push(
                AppHot {
                    node,
                    pd,
                    cpu_rng: streams.stream3(stream_kind::APP_CPU, gi as u64, 0),
                    net_rng: streams.stream3(stream_kind::APP_NET, gi as u64, 0),
                    current_burst_us: 0.0,
                    work_since_barrier_us: 0.0,
                    at_barrier: false,
                },
                Pipe::with_policy(cfg.params.pipe_capacity, cfg.faults.overflow),
                AppCold {
                    sample_rng: streams.stream3(stream_kind::APP_SAMPLE, gi as u64, 0),
                    blocked_since: None,
                    paused: None,
                    sampling_active: false,
                    // Stagger replay starting points so processes are not
                    // in lockstep.
                    replay_cpu_pos: gi as u64 * 1009,
                    replay_net_pos: gi as u64 * 1013,
                    throttle_rng: streams.stream3(stream_kind::CTRL_THROTTLE, gi as u64, 0),
                    throttle_mult: 1.0,
                    pressured: false,
                    pressure_cleared_at: None,
                    throttle_tick_armed: false,
                },
            );
        }
        // Pre-size hot-path buffers so the steady state allocates nothing:
        // a daemon's FIFO is bounded by its apps' combined pipe capacity
        // (each buffered sample holds a pipe slot). A collect roster is
        // not pre-sized: it keeps its capacity across cycles, so it
        // allocates only when a batch outgrows every earlier one.
        let apps_per_pd = total_apps.div_ceil(total_pds);
        let fifo_cap = apps_per_pd * cfg.params.pipe_capacity;
        let mut daemons = Daemons::with_capacity(total_pds);
        for pd in 0..total_pds as u32 {
            daemons.push(
                DaemonHot {
                    node: match cfg.arch {
                        Arch::Smp => 0,
                        _ => pd,
                    },
                    cpu_rng: streams.stream3(stream_kind::PD_CPU, pd as u64, 0),
                    net_rng: streams.stream3(stream_kind::PD_NET, pd as u64, 0),
                    collecting: false,
                    down: false,
                    doomed: false,
                    shedding: false,
                    remote_pressure: false,
                    flush_gen: 0,
                    forwarded_batches: 0,
                    forwarded_samples: 0,
                },
                VecDeque::with_capacity(fifo_cap),
                Vec::new(),
                DaemonCold {
                    merge_rng: streams.stream3(stream_kind::PD_MERGE, pd as u64, 0),
                    crash: cfg.faults.daemon_crash.map(|c| {
                        FaultSchedule::new(
                            streams.stream3(stream_kind::FAULT_CRASH, pd as u64, 0),
                            c.mtbf_us,
                            c.recovery_us,
                        )
                    }),
                    link_rng: streams.stream3(stream_kind::FAULT_LINK, pd as u64, 0),
                    fault_mon: FaultMonitor::new(),
                    shed_rng: streams.stream3(stream_kind::CTRL_SHED, pd as u64, 0),
                },
            );
        }
        let bg_nodes = match cfg.arch {
            Arch::Smp => 1,
            _ => cfg.nodes,
        };
        RoccModel {
            main_rng: streams.stream3(stream_kind::MAIN, 0, 0),
            pvmd_rngs: (0..bg_nodes)
                .map(|n| streams.stream3(stream_kind::PVMD, n as u64, 0))
                .collect(),
            other_rngs: (0..bg_nodes)
                .map(|n| {
                    streams.stream3(
                        stream_kind::OTHER_CPU ^ stream_kind::OTHER_NET,
                        n as u64,
                        0,
                    )
                })
                .collect(),
            stall_rng: streams.stream3(stream_kind::FAULT_STALL, 0, 0),
            cfg,
            banks,
            shared_net,
            apps,
            daemons,
            barrier_waiting: Vec::with_capacity(total_apps),
            barrier_scratch: Vec::with_capacity(total_apps),
            overload_on: false,
            acc: Acc::default(),
        }
    }

    /// Which CPU bank serves a node.
    #[inline]
    pub(crate) fn bank_of(&self, node: u32) -> u32 {
        match self.cfg.arch {
            Arch::Smp => 0,
            _ => node,
        }
    }

    /// Submit a CPU occupancy request, scheduling the slice event if it
    /// dispatched immediately.
    pub(crate) fn submit_cpu(
        &mut self,
        ctx: &mut Ctx<Ev>,
        bank: u32,
        job: CpuJob,
        demand_us: f64,
    ) {
        let demand = SimDur::from_micros_f64(demand_us);
        match self.banks[bank as usize].submit(job, demand) {
            Submit::Dispatched { cpu, slice } => {
                ctx.post_in(slice, Ev::Slice { bank, cpu: cpu as u32 });
            }
            Submit::Queued(_) => {}
        }
    }

    /// Submit a network occupancy request. On a shared medium it queues
    /// FCFS; on a contention-free interconnect it is a pure delay. The SMP
    /// bus serves occupancies `SMP_BUS_SPEEDUP` times faster than the
    /// Ethernet the demands were measured on.
    pub(crate) fn submit_net(&mut self, ctx: &mut Ctx<Ev>, job: NetJob, demand_us: f64) {
        let demand_us = match self.cfg.arch {
            Arch::Smp => demand_us / SMP_BUS_SPEEDUP,
            _ => demand_us,
        };
        // On contention-free interconnects a forwarding hop takes at least
        // `MIN_FORWARD_US` of wire time.
        let demand_us = match (&self.shared_net, &job) {
            (None, NetJob::Forward(_)) => demand_us.max(MIN_FORWARD_US),
            _ => demand_us,
        };
        self.acc.net_busy_us[class_idx(job.class())] += demand_us;
        let demand = SimDur::from_micros_f64(demand_us);
        match &mut self.shared_net {
            Some(server) => {
                if let Offer::Started(d) = server.submit(job, demand) {
                    ctx.post_in(d, Ev::NetDone);
                }
            }
            None => {
                ctx.post_in(demand, Ev::Deliver(job));
            }
        }
    }

    /// A CPU request finished; run its continuation.
    fn cpu_completed(&mut self, ctx: &mut Ctx<Ev>, job: CpuJob) {
        match job.kind {
            CpuKind::AppCompute { app } => self.app_compute_done(ctx, app),
            CpuKind::Batch(batch) => match batch.stage {
                Stage::Collect => self.pd_collect_done(ctx, batch),
                Stage::Merge => self.pd_merge_done(ctx, batch),
                Stage::Receive => self.main_recv_done(ctx, batch),
                Stage::Forward { .. } => unreachable!("a forwarding batch holds no CPU"),
            },
            CpuKind::PvmdCpu { node } => {
                let d = self.cfg.params.pvmd.net_req.sample(&mut self.pvmd_rngs[node as usize]);
                self.submit_net(ctx, NetJob::PvmdNet { node }, d);
            }
            CpuKind::OtherCpu => {}
        }
    }

    /// A network occupancy ended; the payload arrives.
    fn delivered(&mut self, ctx: &mut Ctx<Ev>, job: NetJob) {
        match job {
            NetJob::AppComm { app } => self.app_comm_done(ctx, app),
            NetJob::Forward(batch) => match self.forward_dest(batch.holder) {
                Dest::Main => self.main_receive(ctx, batch),
                Dest::Node(node) => self.pd_merge_start(ctx, node, batch),
            },
            NetJob::PvmdNet { .. } | NetJob::OtherNet { .. } => {}
        }
    }

    /// A message arrives at the main process's node: charge the per-message
    /// CPU work on the host bank. Receipt (for latency/throughput) counts
    /// when that processing completes — the sample has then truly reached
    /// the "logically central collection facility".
    fn main_receive(&mut self, ctx: &mut Ctx<Ev>, batch: Batch) {
        let count = batch.count.get();
        let p = &self.cfg.params;
        let demand = p.main_cpu_per_msg.sample(&mut self.main_rng)
            + MAIN_CPU_PER_EXTRA_SAMPLE_US * (count as f64 - 1.0);
        self.submit_cpu(
            ctx,
            self.bank_of(0),
            CpuJob {
                kind: CpuKind::Batch(Batch {
                    stage: Stage::Receive,
                    ..batch
                }),
            },
            demand,
        );
    }

    /// Main-process handling finished: the batch is consumed.
    fn main_recv_done(&mut self, ctx: &mut Ctx<Ev>, batch: Batch) {
        let count = batch.count.get();
        self.acc.in_batches -= u64::from(count);
        self.acc.latency_sum_s += batch.mean_latency_s(ctx.now()) * count as f64;
        self.acc.fwd_latency_sum_s += batch.forwarding_latency_s(ctx.now());
        self.acc.received_samples += count as u64;
        self.acc.received_msgs += 1;
    }

    /// Extract end-of-run metrics. `horizon` is the simulated duration the
    /// run actually covered.
    pub fn metrics(&self, horizon: SimDur, events: u64) -> SimMetrics {
        SimMetrics::from_model(self, horizon, events)
    }

    pub(crate) fn total_blocked_deposits(&self) -> u64 {
        self.apps.pipe.iter().map(|p| p.blocked_deposits()).sum()
    }

    pub(crate) fn total_forwarded(&self) -> (u64, u64) {
        let b = self.daemons.hot.iter().map(|d| d.forwarded_batches).sum();
        let s = self.daemons.hot.iter().map(|d| d.forwarded_samples).sum();
        (b, s)
    }

    /// Samples dropped by lossy pipe overflow, across all pipes.
    pub(crate) fn total_overflow_lost(&self) -> u64 {
        self.apps.pipe.iter().map(|p| p.lost()).sum()
    }

    /// Deposits rejected because the writer was already blocked.
    pub(crate) fn total_rejected_deposits(&self) -> u64 {
        self.apps.pipe.iter().map(|p| p.rejected_deposits()).sum()
    }

    pub(crate) fn total_crashes(&self) -> u64 {
        self.daemons.cold.iter().map(|d| d.fault_mon.crashes()).sum()
    }

    pub(crate) fn total_retries(&self) -> u64 {
        self.daemons.cold.iter().map(|d| d.fault_mon.retries()).sum()
    }

    /// Total daemon downtime up to `end`, including still-open outages.
    pub(crate) fn total_downtime_at(&self, end: SimTime) -> SimDur {
        self.daemons
            .cold
            .iter()
            .fold(SimDur::ZERO, |acc, d| acc + d.fault_mon.downtime_at(end))
    }

    /// Samples emitted but not yet in a batch: parked on a full pipe or
    /// buffered in a daemon FIFO. With [`Acc::in_batches`] these are the
    /// samples in flight (neither received nor lost).
    pub(crate) fn samples_unbatched(&self) -> u64 {
        let parked: u64 = self
            .apps
            .pipe
            .iter()
            .map(|p| u64::from(p.writer_blocked()))
            .sum();
        let buffered: u64 = self.daemons.fifo.iter().map(|f| f.len() as u64).sum();
        parked + buffered
    }

    /// Every batch in flight, found by walking each holder: CPU jobs
    /// running or ready, the shared network's jobs in service or queued,
    /// and pending `Deliver` and `RetryForward` events. Test-only: the
    /// model tests check [`Acc::in_batches`] against it, as they check
    /// the pipe-slot books.
    #[cfg(test)]
    pub(crate) fn batches_held(sim: &mut Sim<RoccModel>) -> Vec<Batch> {
        let mut held = vec![];
        sim.ctx().for_each_pending(|ev| match *ev {
            Ev::Deliver(NetJob::Forward(batch)) | Ev::RetryForward { batch, .. } => {
                held.push(batch)
            }
            _ => {}
        });
        let m = &sim.model;
        let cpu = m.banks.iter().flat_map(|b| b.jobs()).filter_map(|j| match j.kind {
            CpuKind::Batch(batch) => Some(batch),
            _ => None,
        });
        let net = m.shared_net.iter().flat_map(|s| s.jobs()).filter_map(|j| match j {
            NetJob::Forward(batch) => Some(batch),
            _ => None,
        });
        held.extend(cpu.chain(net));
        held
    }

    /// The in-batch books: [`Acc::in_batches`] must equal the samples of
    /// the batches [`RoccModel::batches_held`] finds. Describes a mismatch,
    /// or returns `None`.
    #[cfg(test)]
    pub(crate) fn in_batch_violation(sim: &mut Sim<RoccModel>) -> Option<String> {
        let held: u64 = Self::batches_held(sim).iter().map(|b| u64::from(b.count.get())).sum();
        let counted = sim.model.acc.in_batches;
        (held != counted).then(|| format!("in-batch count {counted} but batches hold {held}"))
    }

    /// Pipe-slot accounting: each app's pipe occupancy must equal its
    /// samples buffered in the daemon FIFO plus its entries on daemon
    /// collect rosters (slots a collect cycle holds until it drains).
    /// Describes the first leaked or double-freed slot found, or returns
    /// `None`. Test-only: the model tests check it after every scenario.
    #[cfg(test)]
    pub fn pipe_slot_violation(&self) -> Option<String> {
        let mut held = vec![0usize; self.apps.len()];
        let fifos = self.daemons.fifo.iter().flatten().map(|&(_, app)| app);
        for app in fifos.chain(self.daemons.roster.iter().flatten().copied()) {
            held[app as usize] += 1;
        }
        self.apps
            .pipe
            .iter()
            .zip(held)
            .enumerate()
            .find(|(_, (pipe, h))| pipe.occupied() != *h)
            .map(|(app, (pipe, h))| {
                format!(
                    "app {app}: pipe occupancy {} but FIFOs + rosters hold {h}",
                    pipe.occupied()
                )
            })
    }
}

impl Model for RoccModel {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
        match ev {
            Ev::Init => self.init(ctx),
            Ev::Slice { bank, cpu } => {
                let end = self.banks[bank as usize].slice_end(cpu as usize);
                self.acc.cpu_busy_us[class_idx(end.job.class())] += end.ran.as_micros_f64();
                if let Some(slice) = end.next_slice {
                    ctx.post_in(slice, Ev::Slice { bank, cpu });
                }
                if end.completed {
                    self.cpu_completed(ctx, end.job);
                }
            }
            Ev::NetDone => {
                let server = self.shared_net.as_mut().expect("NetDone without server");
                let (job, _svc, next) = server.complete();
                if let Some(d) = next {
                    ctx.post_in(d, Ev::NetDone);
                }
                self.delivered(ctx, job);
            }
            Ev::Deliver(job) => self.delivered(ctx, job),
            Ev::Sample { app } => self.sample_timer_fired(ctx, app),
            Ev::PvmdArrival { node } => self.pvmd_arrival(ctx, node),
            Ev::FlushTimeout { pd, gen } => self.flush_timeout(ctx, pd, gen),
            // Never scheduled (see `Ev::AdaptTick`).
            Ev::AdaptTick { .. } => {}
            Ev::OtherCpuArrival { node } => self.other_cpu_arrival(ctx, node),
            Ev::OtherNetArrival { node } => self.other_net_arrival(ctx, node),
            Ev::DaemonCrash { pd } => self.daemon_crash(ctx, pd),
            Ev::DaemonRecover { pd } => self.daemon_recover(ctx, pd),
            Ev::RetryForward { batch, demand_us } => self.submit_forward(ctx, batch, demand_us),
            Ev::MainStall => self.main_stall(ctx),
            Ev::ThrottleTick { app } => self.throttle_tick(ctx, app),
            Ev::Backpressure { pd, on } => self.backpressure_signal(ctx, pd, on),
            Ev::OverloadRamp => self.overload_on = true,
        }
    }
}

impl RoccModel {
    /// Seed the time-zero activity: application loops, sampling timers,
    /// and background sources.
    fn init(&mut self, ctx: &mut Ctx<Ev>) {
        for app in 0..self.apps.len() as u32 {
            self.app_start_step(ctx, app, Step::Compute);
            if self.cfg.instrumented {
                self.schedule_next_sample(ctx, app);
            }
        }
        if self.cfg.instrumented {
            // Fault injection only makes sense with a live IS; nothing is
            // scheduled (and no random draws happen) when the plan is off,
            // so fault-free runs are bit-identical to the fault-free model.
            for pd in 0..self.daemons.len() as u32 {
                if let Some(crash) = &mut self.daemons.cold[pd as usize].crash {
                    let ttf = crash.time_to_failure();
                    ctx.post_in(ttf, Ev::DaemonCrash { pd });
                }
            }
            if self.cfg.faults.stall.is_some() {
                let gap = self.draw_stall_gap();
                ctx.post_in(gap, Ev::MainStall);
            }
            // Like fault injection, an overload ramp schedules nothing when
            // it is inert (factor 1), so such configs stay bit-identical.
            if let Some(o) = self.cfg.overload {
                if o.factor > 1.0 {
                    ctx.post_at(SimTime::from_secs_f64(o.at_s), Ev::OverloadRamp);
                }
            }
        }
        if self.cfg.background {
            for node in 0..self.pvmd_rngs.len() as u32 {
                let d = self.draw_interarrival(node, BgKind::Pvmd);
                ctx.post_in(d, Ev::PvmdArrival { node });
                let d = self.draw_interarrival(node, BgKind::OtherCpu);
                ctx.post_in(d, Ev::OtherCpuArrival { node });
                let d = self.draw_interarrival(node, BgKind::OtherNet);
                ctx.post_in(d, Ev::OtherNetArrival { node });
            }
        }
    }

    /// Schedule the next sampling-timer firing for `app`.
    ///
    /// The effective period is the configured one divided by the overload
    /// factor once the ramp has fired, then multiplied by the app's throttle
    /// multiplier. Both adjustments are exact no-ops when inert (factor 1 /
    /// multiplier 1), so inert configs draw bit-identical gaps.
    pub(crate) fn schedule_next_sample(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        let mut period = self.cfg.sampling_period_us;
        if self.overload_on {
            if let Some(o) = self.cfg.overload {
                period /= o.factor;
            }
        }
        let c = &mut self.apps.cold[app as usize];
        let period = period * c.throttle_mult;
        let gap = paradyn_stats::Rv::exp(period).sample(&mut c.sample_rng);
        c.sampling_active = true;
        ctx.post_in(SimDur::from_micros_f64(gap), Ev::Sample { app });
    }
}

/// Background source kinds (for inter-arrival draws).
#[derive(Clone, Copy)]
pub(crate) enum BgKind {
    Pvmd,
    OtherCpu,
    OtherNet,
}

impl RoccModel {
    /// Time until the next injected consumer stall (exponential).
    fn draw_stall_gap(&mut self) -> SimDur {
        let s = self.cfg.faults.stall.expect("stall gap drawn with stalls on");
        let us = paradyn_stats::Rv::exp(s.interval_us).sample(&mut self.stall_rng);
        SimDur::from_micros_f64(us)
    }

    /// Injected slow-consumer stall: the main process's host CPU absorbs a
    /// burst of competing (Other-class) work, delaying the receive of
    /// each batch through round-robin sharing.
    fn main_stall(&mut self, ctx: &mut Ctx<Ev>) {
        let s = self.cfg.faults.stall.expect("MainStall only scheduled with stalls on");
        self.acc.stall_injected_us += s.stall_us;
        self.submit_cpu(
            ctx,
            self.bank_of(0),
            CpuJob {
                kind: CpuKind::OtherCpu,
            },
            s.stall_us,
        );
        let gap = self.draw_stall_gap();
        ctx.post_in(gap, Ev::MainStall);
    }

    pub(crate) fn draw_interarrival(&mut self, node: u32, kind: BgKind) -> SimDur {
        let p = &self.cfg.params;
        let us = match kind {
            BgKind::Pvmd => p
                .pvmd_interarrival
                .sample(&mut self.pvmd_rngs[node as usize]),
            BgKind::OtherCpu => p
                .other_cpu_interarrival
                .sample(&mut self.other_rngs[node as usize]),
            BgKind::OtherNet => p
                .other_net_interarrival
                .sample(&mut self.other_rngs[node as usize]),
        };
        SimDur::from_micros_f64(us)
    }
}

/// Build a ready-to-run simulation: the model plus its `Init` event.
pub fn build(cfg: &SimConfig) -> Sim<RoccModel> {
    build_with_calendar(cfg, paradyn_des::CalendarKind::Wheel)
}

/// [`build`] on an explicit event calendar (the differential tests run the
/// full model on the reference calendar as well as on the wheel).
pub fn build_with_calendar(cfg: &SimConfig, kind: paradyn_des::CalendarKind) -> Sim<RoccModel> {
    let mut sim = Sim::with_calendar(RoccModel::new(cfg.clone()), kind);
    sim.ctx().post_at(SimTime::ZERO, Ev::Init);
    sim
}

/// Always `false`: no configuration numbers its events per scheduling
/// cell; every run fires same-time ties in schedule order.
// lint:allow(dead-pub): simbench's ledger still calls it; it goes with ROADMAP's "Benchmark revision" item
pub fn shardable(_cfg: &SimConfig) -> bool {
    false
}
