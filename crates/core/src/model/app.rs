//! Application-process behaviour: the two-state computation/communication
//! loop (Figure 7), instrumentation sampling with pipe blocking, and global
//! synchronization barriers.

use super::types::{AppId, CpuJob, CpuKind, Ev, NetJob};
use super::{RoccModel, Step};
use crate::pipe::Deposit;
use paradyn_des::Ctx;

impl RoccModel {
    /// Begin the given step for `app`, unless its pipe writer is blocked —
    /// in which case the process pauses and resumes when the daemon drains
    /// the pipe.
    pub(crate) fn app_start_step(&mut self, ctx: &mut Ctx<Ev>, app: AppId, step: Step) {
        if self.apps.pipe[app as usize].writer_blocked() {
            self.apps.cold[app as usize].paused = Some(step);
            return;
        }
        match step {
            Step::Compute => {
                let h = &mut self.apps.hot[app as usize];
                let demand = match &self.cfg.replay {
                    Some(r) => {
                        let c = &mut self.apps.cold[app as usize];
                        let d = r.cpu_at(c.replay_cpu_pos);
                        c.replay_cpu_pos += 1;
                        d
                    }
                    None => self.cfg.app.cpu_req.sample(&mut h.cpu_rng),
                };
                let h = &mut self.apps.hot[app as usize];
                h.current_burst_us = demand;
                let node = h.node;
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
                        let c = &mut self.apps.cold[app as usize];
                        let d = r.net_at(c.replay_net_pos);
                        c.replay_net_pos += 1;
                        d
                    }
                    None => {
                        let h = &mut self.apps.hot[app as usize];
                        self.cfg.app.net_req.sample(&mut h.net_rng)
                    }
                };
                self.submit_net(ctx, NetJob::AppComm { app }, demand);
            }
        }
    }

    /// A computation burst finished: account barrier progress, then either
    /// join the barrier or start communicating.
    pub(crate) fn app_compute_done(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        let h = &mut self.apps.hot[app as usize];
        h.work_since_barrier_us += h.current_burst_us;
        h.current_burst_us = 0.0;
        match self.cfg.app.barrier_period_us {
            Some(period) if h.work_since_barrier_us >= period => {
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
            let h = &mut self.apps.hot[app as usize];
            debug_assert!(!h.at_barrier, "double barrier join");
            h.at_barrier = true;
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
                let h = &mut self.apps.hot[w as usize];
                h.at_barrier = false;
                h.work_since_barrier_us = 0.0;
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
        if self.apps.pipe[app as usize].writer_blocked() {
            self.apps.cold[app as usize].sampling_active = false;
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
        if self.apps.pipe[app as usize].writer_blocked() {
            // Already blocked on an earlier sample; drop this event record
            // (the writer is stuck inside the earlier write).
            self.acc.lost_blocked += 1;
            return;
        }
        let pd = self.apps.hot[app as usize].pd;
        // Source-side shedding: while the owning daemon is under pressure,
        // sheddable-tier samples are discarded before they enter the pipe.
        if let Some(deg) = self.cfg.degradation {
            let tier = super::degrade::app_tier(app, &deg);
            if self.daemon_pressure(pd) && super::degrade::tier_sheddable(tier, &deg) {
                self.acc.shed_by_tier[tier] += 1;
                return;
            }
        }
        match self.apps.pipe[app as usize].deposit(now) {
            Deposit::Accepted => {
                self.acc.generated_samples += 1;
                self.daemons.fifo[pd as usize].push_back((now, app));
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
                self.apps.cold[app as usize].blocked_since = Some(now);
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
                let fifo = &mut self.daemons.fifo[pd as usize];
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
