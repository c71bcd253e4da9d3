//! Application-process behaviour: the two-state computation/communication
//! loop (Figure 7), instrumentation sampling with pipe blocking, and global
//! synchronization barriers.

use super::types::{AppId, CpuJob, CpuKind, Ev, NetJob, PdId};
use super::{RoccModel, Step};
use crate::pipe::{Deposit, Pipe};
use paradyn_des::{Ctx, SimTime, StreamRng};

/// One application process, indexed by [`AppId`]. Records are built once
/// by `RoccModel::new` and never added, removed or reused.
pub(crate) struct App {
    /// Home node.
    // lint:allow(snapshot-exempt): placement is set by the config; restore keeps the built record's
    pub node: u32,
    /// Owning daemon.
    // lint:allow(snapshot-exempt): placement is set by the config; restore keeps the built record's
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
    /// The pipe to the owning daemon (occupancy; the payloads sit in the
    /// daemon's FIFO).
    pub pipe: Pipe,
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

impl RoccModel {
    /// Begin the given step for `app`, unless its pipe writer is blocked —
    /// in which case the process pauses and resumes when the daemon drains
    /// the pipe.
    pub(crate) fn app_start_step(&mut self, ctx: &mut Ctx<Ev>, app: AppId, step: Step) {
        let a = &mut self.apps[app as usize];
        if a.pipe.writer_blocked() {
            a.paused = Some(step);
            return;
        }
        match step {
            Step::Compute => {
                let demand = match &self.cfg.replay {
                    Some(r) => {
                        let d = r.cpu_at(a.replay_cpu_pos);
                        a.replay_cpu_pos += 1;
                        d
                    }
                    None => self.cfg.app.cpu_req.sample(&mut a.cpu_rng),
                };
                a.current_burst_us = demand;
                let node = a.node;
                self.submit_cpu(
                    ctx,
                    self.bank_of(node),
                    CpuJob {
                        kind: CpuKind::AppCompute { app },
                    },
                    demand,
                );
            }
            Step::Comm => {
                let demand = match &self.cfg.replay {
                    Some(r) => {
                        let d = r.net_at(a.replay_net_pos);
                        a.replay_net_pos += 1;
                        d
                    }
                    None => self.cfg.app.net_req.sample(&mut a.net_rng),
                };
                self.submit_net(ctx, NetJob::AppComm { app }, demand);
            }
        }
    }

    /// A computation burst finished: account barrier progress, then either
    /// join the barrier or start communicating.
    pub(crate) fn app_compute_done(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        let a = &mut self.apps[app as usize];
        a.work_since_barrier_us += a.current_burst_us;
        a.current_burst_us = 0.0;
        match self.cfg.app.barrier_period_us {
            Some(period) if a.work_since_barrier_us >= period => {
                self.join_barrier(ctx, app)
            }
            _ => self.app_start_step(ctx, app, Step::Comm),
        }
    }

    /// A communication burst finished: loop back to computation.
    pub(crate) fn app_comm_done(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        self.app_start_step(ctx, app, Step::Compute);
    }

    /// The process reaches the global barrier. The barrier operation is an
    /// "event of interest" (Figure 6), so an instrumented process also
    /// emits an event-trace sample. When the last process arrives, everyone
    /// is released into their communication step.
    fn join_barrier(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        {
            let a = &mut self.apps[app as usize];
            debug_assert!(!a.at_barrier, "double barrier join");
            a.at_barrier = true;
        }
        self.barrier_waiting.push(app);
        if self.cfg.instrumented {
            // A blocked writer cannot emit the event record;
            // `deposit_sample` counts that case as a lost emission.
            self.deposit_sample(ctx, app);
        }
        if self.barrier_waiting.len() == self.apps.len() {
            self.acc.barrier_ops += 1;
            // Swap the roster into recycled scratch storage so the release
            // cycle (and the refilling roster) reuse their capacity.
            let mut released = std::mem::take(&mut self.barrier_scratch);
            std::mem::swap(&mut released, &mut self.barrier_waiting);
            for &w in &released {
                let a = &mut self.apps[w as usize];
                a.at_barrier = false;
                a.work_since_barrier_us = 0.0;
                self.app_start_step(ctx, w, Step::Comm);
            }
            released.clear();
            self.barrier_scratch = released;
        }
    }

    /// The sampling timer fired: deposit a sample. If the pipe is full the
    /// writer blocks — the timer stops until the daemon drains the pipe.
    pub(crate) fn sample_timer_fired(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        self.deposit_sample(ctx, app);
        let a = &mut self.apps[app as usize];
        if a.pipe.writer_blocked() {
            a.sampling_active = false;
        } else {
            self.schedule_next_sample(ctx, app);
        }
    }

    /// Deposit one sample generated now into `app`'s pipe, waking the
    /// daemon if it can start a collection cycle. Every call counts as one
    /// emission attempt, whatever its fate — the conservation invariant
    /// (emitted == received + lost + shed + in-flight) is anchored here.
    pub(crate) fn deposit_sample(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        let now = ctx.now();
        self.acc.emitted_samples += 1;
        if self.apps[app as usize].pipe.writer_blocked() {
            // Already blocked on an earlier sample; drop this event record
            // (the writer is stuck inside the earlier write).
            self.acc.lost_blocked += 1;
            return;
        }
        let pd = self.apps[app as usize].pd;
        // Source-side shedding: while the owning daemon is under pressure,
        // sheddable-tier samples are discarded before they enter the pipe.
        if let Some(deg) = self.cfg.degradation {
            let tier = super::degrade::app_tier(app, &deg);
            if self.daemon_pressure(pd) && super::degrade::tier_sheddable(tier, &deg) {
                self.acc.shed_by_tier[tier] += 1;
                return;
            }
        }
        match self.apps[app as usize].pipe.deposit(now) {
            Deposit::Accepted => {
                self.acc.generated_samples += 1;
                self.daemons[pd as usize].fifo.push_back((now, app));
                if self.cfg.degradation.is_some() {
                    // Occupancy and FIFO length both rose; check watermarks
                    // before the daemon starts a collection cycle.
                    self.degradation_pipe_check(ctx, app);
                    self.degradation_daemon_check(ctx, pd);
                }
                self.maybe_collect(ctx, pd);
            }
            Deposit::WouldBlock => {
                // Writer blocks; the daemon's next drain will admit the
                // parked sample and resume the process.
                self.apps[app as usize].blocked_since = Some(now);
            }
            Deposit::AlreadyBlocked => {
                // Unreachable — guarded above — but keep the books straight
                // if the guard ever regresses.
                debug_assert!(false, "deposit raced a blocked writer");
                self.acc.lost_blocked += 1;
            }
            Deposit::DroppedNewest => {
                // Lost on the floor; the pipe counted it.
            }
            Deposit::DroppedOldest => {
                // The newcomer takes the place of this app's oldest
                // buffered sample. If every buffered sample of this app is
                // already inside a collecting batch (uncancellable), the
                // newcomer is dropped instead — the pipe counted one loss
                // and occupancy is unchanged either way.
                let fifo = &mut self.daemons[pd as usize].fifo;
                if let Some(idx) = fifo.iter().position(|&(_, who)| who == app) {
                    fifo.remove(idx);
                    fifo.push_back((now, app));
                    self.acc.generated_samples += 1;
                    self.maybe_collect(ctx, pd);
                }
            }
        }
    }
}
