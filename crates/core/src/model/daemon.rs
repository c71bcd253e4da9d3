//! Paradyn-daemon behaviour: collection cycles under the CF/BF policies,
//! pipe draining with writer wake-up, direct or binary-tree forwarding
//! with en-route merging, and injected crash/link faults.

use super::types::{tree_parent, Batch, CpuJob, CpuKind, Dest, Ev, NetJob, PdId, Stage};
use super::{RoccModel, Step};
use crate::config::{Arch, Forwarding};
use paradyn_des::{Ctx, SimDur};
use paradyn_workload::params::{PD_CPU_PER_EXTRA_SAMPLE_US, PD_NET_PER_EXTRA_SAMPLE_US};
use std::num::NonZeroU16;

impl RoccModel {
    /// Start a collection cycle if the daemon is idle and a full batch is
    /// buffered (CF is BF with batch = 1); otherwise arm the partial-batch
    /// flush timer, if configured.
    pub(crate) fn maybe_collect(&mut self, ctx: &mut Ctx<Ev>, pd: PdId) {
        if !self.try_collect(ctx, pd, false) {
            self.arm_flush_timer(ctx, pd);
        }
    }

    /// Attempt to start a collection cycle. With `force`, a non-empty
    /// partial batch is collected (the flush-timeout path). Returns whether
    /// a cycle started.
    fn try_collect(&mut self, ctx: &mut Ctx<Ev>, pd: PdId, force: bool) -> bool {
        let d = &mut self.daemons.hot[pd as usize];
        if d.collecting || d.down {
            return false;
        }
        let threshold = self.cfg.batch;
        let fifo = &mut self.daemons.fifo[pd as usize];
        let avail = fifo.len();
        let k = if avail >= threshold {
            threshold
        } else if force {
            avail
        } else {
            0
        };
        // Validation caps every batch threshold at `MAX_BATCH`, so `k`
        // fits the count.
        let Some(count) = NonZeroU16::new(k as _) else {
            return false;
        };
        // The roster names the apps whose pipe slots this cycle holds until
        // its CPU work finishes (see `pd_collect_done`).
        let roster = &mut self.daemons.roster[pd as usize];
        debug_assert!(roster.is_empty(), "idle daemon holds a roster");
        let mut sum_gen_ns = 0u64;
        for (gen, app) in fifo.drain(..k) {
            sum_gen_ns += gen.as_nanos();
            roster.push(app);
        }
        d.collecting = true;
        // Invalidate any armed flush timer; the buffer head changed.
        d.flush_gen = d.flush_gen.wrapping_add(1);
        let p = &self.cfg.params;
        let demand =
            p.pd.cpu_req.sample(&mut d.cpu_rng) + PD_CPU_PER_EXTRA_SAMPLE_US * (k as f64 - 1.0);
        let node = d.node;
        let batch = Batch {
            count,
            stage: Stage::Collect,
            holder: pd,
            sum_gen_ns,
            ready_ns: ctx.now().as_nanos(),
        };
        self.acc.in_batches += k as u64;
        self.submit_cpu(
            ctx,
            self.bank_of(node),
            CpuJob {
                kind: CpuKind::Batch(batch),
            },
            demand,
        );
        if self.cfg.degradation.is_some() {
            // The FIFO shrank by a batch; a shedding daemon may now be back
            // below its low watermark (falling edge → credit).
            self.degradation_daemon_check(ctx, pd);
        }
        true
    }

    /// Arm (or re-arm) the partial-batch flush timer at
    /// `oldest buffered sample + timeout`.
    fn arm_flush_timer(&mut self, ctx: &mut Ctx<Ev>, pd: PdId) {
        let Some(timeout_us) = self.cfg.batch_timeout_us else {
            return;
        };
        let d = &mut self.daemons.hot[pd as usize];
        if d.collecting || d.down {
            return;
        }
        let Some(&(oldest, _)) = self.daemons.fifo[pd as usize].front() else {
            return;
        };
        d.flush_gen = d.flush_gen.wrapping_add(1);
        let deadline = (oldest + paradyn_des::SimDur::from_micros_f64(timeout_us))
            .max(ctx.now());
        ctx.post_at(
            deadline,
            Ev::FlushTimeout {
                pd,
                gen: d.flush_gen,
            },
        );
    }

    /// A flush timer fired: collect the waiting partial batch unless the
    /// timer is stale.
    pub(crate) fn flush_timeout(&mut self, ctx: &mut Ctx<Ev>, pd: PdId, gen: u32) {
        if self.daemons.hot[pd as usize].flush_gen != gen {
            return;
        }
        self.try_collect(ctx, pd, true);
    }

    /// The collect CPU work finished: the pipe reads have happened, so
    /// drain the pipes (admitting parked samples and resuming blocked
    /// writers), then put the batch on the network.
    pub(crate) fn pd_collect_done(&mut self, ctx: &mut Ctx<Ev>, batch: Batch) {
        let pd = batch.holder;
        // The roster lists one app per sample of the batch. It is taken
        // out for the loop and put back, keeping its capacity.
        let mut roster = std::mem::take(&mut self.daemons.roster[pd as usize]);
        let count = roster.len();
        for &app in &roster {
            self.drain_one(ctx, app);
        }
        roster.clear();
        self.daemons.roster[pd as usize] = roster;
        if self.cfg.degradation.is_some() {
            // Draining may have admitted parked samples into the FIFO.
            self.degradation_daemon_check(ctx, pd);
        }
        self.daemons.hot[pd as usize].collecting = false;
        if self.daemons.hot[pd as usize].doomed {
            // The daemon crashed mid-cycle: the batch dies with it. The
            // pipe slots were still freed above — the samples are gone,
            // not stuck.
            self.daemons.hot[pd as usize].doomed = false;
            self.acc.in_batches -= count as u64;
            self.acc.lost_crash += count as u64;
            self.daemons.cold[pd as usize]
                .fault_mon
                .add_lost(count as u64);
            if !self.daemons.hot[pd as usize].down {
                self.maybe_collect(ctx, pd);
            }
            return;
        }
        let d = &mut self.daemons.hot[pd as usize];
        d.forwarded_batches += 1;
        d.forwarded_samples += count as u64;
        let p = &self.cfg.params;
        let demand =
            p.pd.net_req.sample(&mut d.net_rng) + PD_NET_PER_EXTRA_SAMPLE_US * (count as f64 - 1.0);
        self.submit_forward(ctx, batch, demand);
        // The daemon is free again; more samples may already be buffered.
        self.maybe_collect(ctx, pd);
    }

    /// Put one forwarding hop of the batch's holder on the network,
    /// subject to injected link faults: a failed attempt backs off
    /// exponentially and retries from the same holder; once the retry
    /// budget is exhausted the whole batch is dropped. A batch arriving
    /// from its collect or merge stage starts the hop; a retried one
    /// carries the hop's failures so far in its [`Stage::Forward`] (the
    /// retry budget is per hop). The network demand is drawn once per hop
    /// and reused across retries, so link faults perturb no other random
    /// stream.
    pub(crate) fn submit_forward(&mut self, ctx: &mut Ctx<Ev>, mut batch: Batch, demand_us: f64) {
        let pd = batch.holder;
        let attempts = match batch.stage {
            Stage::Forward { attempts } => attempts,
            _ => 0,
        };
        if let Some(link) = self.cfg.faults.link {
            let failed = self.daemons.cold[pd as usize].link_rng.next_f64() < link.fail_prob;
            if failed {
                let attempts = attempts + 1;
                if u32::from(attempts) > link.max_retries {
                    let count = u64::from(batch.count.get());
                    self.acc.in_batches -= count;
                    self.acc.lost_link += count;
                    self.daemons.cold[pd as usize].fault_mon.add_lost(count);
                    return;
                }
                self.daemons.cold[pd as usize].fault_mon.add_retry();
                let backoff_us =
                    link.backoff_base_us * (1u64 << (attempts - 1).min(20)) as f64;
                batch.stage = Stage::Forward { attempts };
                ctx.post_in(
                    SimDur::from_micros_f64(backoff_us),
                    Ev::RetryForward { batch, demand_us },
                );
                return;
            }
        }
        batch.stage = Stage::Forward { attempts };
        self.submit_net(ctx, NetJob::Forward(batch), demand_us);
    }

    /// Injected daemon crash: the daemon dies, taking its pipe backlog and
    /// any in-flight collection cycle with it. The pipe is conceptually
    /// torn down and recreated on restart — unread samples are lost, their
    /// slots are freed, and a blocked writer's parked sample is admitted
    /// to the fresh pipe (graceful degradation: the application continues).
    pub(crate) fn daemon_crash(&mut self, ctx: &mut Ctx<Ev>, pd: PdId) {
        let now = ctx.now();
        let entries = {
            let d = &mut self.daemons.hot[pd as usize];
            debug_assert!(!d.down, "crash scheduled while already down");
            d.down = true;
            if d.collecting {
                d.doomed = true;
            }
            // Invalidate any armed flush timer.
            d.flush_gen = d.flush_gen.wrapping_add(1);
            self.daemons.cold[pd as usize].fault_mon.crash_at(now);
            std::mem::take(&mut self.daemons.fifo[pd as usize])
        };
        let n = entries.len() as u64;
        self.acc.lost_crash += n;
        self.daemons.cold[pd as usize].fault_mon.add_lost(n);
        for (_gen, app) in entries {
            self.drain_one(ctx, app);
        }
        if self.cfg.degradation.is_some() {
            // The crash emptied the FIFO (parked admissions aside): a
            // shedding daemon clears its own pressure, though remote
            // pressure from an ancestor persists across the outage.
            self.degradation_daemon_check(ctx, pd);
        }
        let delay = self.daemons.cold[pd as usize]
            .crash
            .as_mut()
            .expect("crash event only scheduled with a crash plan")
            .recovery_delay();
        ctx.post_in(delay, Ev::DaemonRecover { pd });
    }

    /// The daemon finished restarting: resume collection and schedule its
    /// next failure.
    pub(crate) fn daemon_recover(&mut self, ctx: &mut Ctx<Ev>, pd: PdId) {
        let now = ctx.now();
        self.daemons.hot[pd as usize].down = false;
        let ttf = {
            let c = &mut self.daemons.cold[pd as usize];
            c.fault_mon.recover_at(now);
            c.crash
                .as_mut()
                .expect("recover event only scheduled with a crash plan")
                .time_to_failure()
        };
        ctx.post_in(ttf, Ev::DaemonCrash { pd });
        self.maybe_collect(ctx, pd);
    }

    /// Where a forward sent by `holder` lands: its parent on an MPP tree
    /// (where daemon index == node index), the main process otherwise.
    pub(crate) fn forward_dest(&self, holder: PdId) -> Dest {
        match self.cfg.arch {
            Arch::Mpp {
                forwarding: Forwarding::BinaryTree,
            } if holder != 0 => Dest::Node(tree_parent(holder)),
            _ => Dest::Main,
        }
    }

    /// Consume one pipe slot of `app`; if a parked sample was waiting, admit
    /// it and resume the blocked writer (timer and paused step).
    pub(crate) fn drain_one(&mut self, ctx: &mut Ctx<Ev>, app: u32) {
        let pd = self.apps.hot[app as usize].pd;
        if let Some(gen) = self.apps.pipe[app as usize].drain() {
            self.acc.generated_samples += 1;
            let c = &mut self.apps.cold[app as usize];
            if let Some(since) = c.blocked_since.take() {
                self.acc.writer_block_us += (ctx.now() - since).as_micros_f64();
            }
            let resume = c.paused.take();
            let restart_timer = !c.sampling_active;
            self.daemons.fifo[pd as usize].push_back((gen, app));
            if restart_timer {
                self.schedule_next_sample(ctx, app);
            }
            match resume {
                Some(Step::Compute) => self.app_start_step(ctx, app, Step::Compute),
                Some(Step::Comm) => self.app_start_step(ctx, app, Step::Comm),
                None => {}
            }
        }
        if self.cfg.degradation.is_some() {
            // Occupancy fell (or a parked sample was admitted); only the
            // falling pipe edge can fire here.
            self.degradation_pipe_check(ctx, app);
        }
    }

    /// A forwarded message arrived at a non-leaf tree node, which now holds
    /// it: charge the merge CPU work (`D_Pdm,CPU`).
    pub(crate) fn pd_merge_start(&mut self, ctx: &mut Ctx<Ev>, node: u32, batch: Batch) {
        let demand = self
            .cfg
            .params
            .pdm_cpu
            .sample(&mut self.daemons.cold[node as usize].merge_rng);
        self.submit_cpu(
            ctx,
            self.bank_of(node),
            CpuJob {
                kind: CpuKind::Batch(Batch {
                    stage: Stage::Merge,
                    holder: node,
                    ..batch
                }),
            },
            demand,
        );
    }

    /// Merge work done: relay the merged message one hop up. Per the paper,
    /// "the network occupancy needed for forwarding a merged sample is the
    /// same as for forwarding a local sample" — no batch marginal here.
    pub(crate) fn pd_merge_done(&mut self, ctx: &mut Ctx<Ev>, batch: Batch) {
        let node = batch.holder;
        let demand = self
            .cfg
            .params
            .pd
            .net_req
            .sample(&mut self.daemons.hot[node as usize].net_rng);
        // Merges only occur on MPP trees, where daemon index == node, so
        // the node holds the relay hop as a leaf daemon holds its own: the
        // same Main-or-parent destination and the same injected link
        // faults.
        self.submit_forward(ctx, batch, demand);
    }
}
