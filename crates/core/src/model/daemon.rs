//! Paradyn-daemon behaviour: collection cycles under the CF/BF policies,
//! pipe draining with writer wake-up, direct or binary-tree forwarding
//! with en-route merging, and injected crash/link faults.

use super::types::{tree_parent, AppId, Batch, CpuJob, CpuKind, Dest, Ev, NetJob, PdId, Stage};
use super::{RoccModel, Step};
use crate::config::{Arch, Forwarding};
use paradyn_des::{Ctx, FaultSchedule, SimDur, SimTime, StreamRng};
use paradyn_workload::params::{PD_CPU_PER_EXTRA_SAMPLE_US, PD_NET_PER_EXTRA_SAMPLE_US};
use std::collections::VecDeque;
use std::num::NonZeroU16;

/// One Paradyn daemon, indexed by [`PdId`]. Records are built once by
/// `RoccModel::new` and never added, removed or reused. The daemon runs on
/// CPU bank `bank_of(pd)`: its own node's, or the pooled bank on SMP.
pub(crate) struct Daemon {
    /// Randomness for collect/forward CPU demands.
    pub cpu_rng: StreamRng,
    /// Randomness for network occupancy demands.
    pub net_rng: StreamRng,
    /// Randomness for merge work.
    pub merge_rng: StreamRng,
    /// Deposited samples `(generation time, app)` awaiting collection.
    pub fifo: VecDeque<(SimTime, AppId)>,
    /// Apps whose pipe slots the collect cycle in flight holds, one entry
    /// per sample of its batch; drained (and writers unblocked) when the
    /// collect CPU work finishes. Non-empty exactly while the daemon is
    /// collecting (see [`Daemon::collecting`]).
    pub roster: Vec<AppId>,
    /// Whether the in-flight collection cycle belongs to a crashed daemon
    /// incarnation (its batch is lost when the CPU work completes).
    pub doomed: bool,
    /// Flush-timer generation; timers with a stale generation are ignored.
    pub flush_gen: u32,
    /// Crash/recovery event source (`None` = crash injection off).
    pub crash: Option<FaultSchedule>,
    /// Randomness for injected forwarding-link failures.
    pub link_rng: StreamRng,
    /// When the current outage began; `None` while the daemon is up
    /// (metrics count an open outage up to the horizon).
    pub down_since: Option<SimTime>,
    /// Whether this daemon's own fifo is above its high watermark and the
    /// daemon is shedding sheddable tiers.
    pub shedding: bool,
    /// Whether an ancestor in the forwarding tree signalled pressure (shed
    /// on its behalf until the credit edge arrives).
    pub remote_pressure: bool,
    /// Randomness for backpressure signalling jitter (degradation
    /// controller; untouched unless degradation is configured).
    pub shed_rng: StreamRng,
}

impl Daemon {
    /// Whether a collect CPU request is in flight (the daemon is a single
    /// process: one cycle at a time).
    pub fn collecting(&self) -> bool {
        !self.roster.is_empty()
    }

    /// Whether the daemon is crashed.
    pub fn down(&self) -> bool {
        self.down_since.is_some()
    }
}

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
        let d = &mut self.daemons[pd as usize];
        if d.collecting() || d.down() {
            return false;
        }
        let threshold = self.cfg.batch;
        let avail = d.fifo.len();
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
        // its CPU work finishes (see `pd_collect_done`); filling it starts
        // the cycle.
        let mut sum_gen_ns = 0u64;
        for (gen, app) in d.fifo.drain(..k) {
            sum_gen_ns += gen.as_nanos();
            d.roster.push(app);
        }
        // Invalidate any armed flush timer; the buffer head changed.
        d.flush_gen = d.flush_gen.wrapping_add(1);
        let p = &self.cfg.params;
        let demand =
            p.pd.cpu_req.sample(&mut d.cpu_rng) + PD_CPU_PER_EXTRA_SAMPLE_US * (k as f64 - 1.0);
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
            self.bank_of(pd),
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
        let d = &mut self.daemons[pd as usize];
        if d.collecting() || d.down() {
            return;
        }
        let Some(&(oldest, _)) = d.fifo.front() else {
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
        if self.daemons[pd as usize].flush_gen != gen {
            return;
        }
        self.try_collect(ctx, pd, true);
    }

    /// The collect CPU work finished: the pipe reads have happened, so
    /// drain the pipes (admitting parked samples and resuming blocked
    /// writers), then put the batch on the network.
    pub(crate) fn pd_collect_done(&mut self, ctx: &mut Ctx<Ev>, batch: Batch) {
        let pd = batch.holder;
        // The roster lists one app per sample of the batch. It stays in
        // place while the pipes drain, so the daemon counts as collecting
        // until it is cleared, and keeps its capacity.
        let count = self.daemons[pd as usize].roster.len();
        for i in 0..count {
            let app = self.daemons[pd as usize].roster[i];
            self.drain_one(ctx, app);
        }
        self.daemons[pd as usize].roster.clear();
        if self.cfg.degradation.is_some() {
            // Draining may have admitted parked samples into the FIFO.
            self.degradation_daemon_check(ctx, pd);
        }
        let d = &mut self.daemons[pd as usize];
        if d.doomed {
            // The daemon crashed mid-cycle: the batch dies with it. The
            // pipe slots were still freed above — the samples are gone,
            // not stuck.
            d.doomed = false;
            self.acc.in_batches -= count as u64;
            self.acc.lost_crash += count as u64;
            if !d.down() {
                self.maybe_collect(ctx, pd);
            }
            return;
        }
        self.acc.forwarded_batches += 1;
        self.acc.forwarded_samples += count as u64;
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
            let failed = self.daemons[pd as usize].link_rng.next_f64() < link.fail_prob;
            if failed {
                let attempts = attempts + 1;
                if u32::from(attempts) > link.max_retries {
                    let count = u64::from(batch.count.get());
                    self.acc.in_batches -= count;
                    self.acc.lost_link += count;
                    return;
                }
                self.acc.retries += 1;
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
        self.acc.crashes += 1;
        let entries = {
            let d = &mut self.daemons[pd as usize];
            debug_assert!(!d.down(), "crash scheduled while already down");
            d.down_since = Some(ctx.now());
            if d.collecting() {
                d.doomed = true;
            }
            // Invalidate any armed flush timer.
            d.flush_gen = d.flush_gen.wrapping_add(1);
            std::mem::take(&mut d.fifo)
        };
        let n = entries.len() as u64;
        self.acc.lost_crash += n;
        for (_gen, app) in entries {
            self.drain_one(ctx, app);
        }
        if self.cfg.degradation.is_some() {
            // The crash emptied the FIFO (parked admissions aside): a
            // shedding daemon clears its own pressure, though remote
            // pressure from an ancestor persists across the outage.
            self.degradation_daemon_check(ctx, pd);
        }
        let delay = self.daemons[pd as usize]
            .crash
            .as_mut()
            .expect("crash event only scheduled with a crash plan")
            .recovery_delay();
        ctx.post_in(delay, Ev::DaemonRecover { pd });
    }

    /// The daemon finished restarting: resume collection and schedule its
    /// next failure.
    pub(crate) fn daemon_recover(&mut self, ctx: &mut Ctx<Ev>, pd: PdId) {
        let ttf = {
            let d = &mut self.daemons[pd as usize];
            if let Some(since) = d.down_since.take() {
                self.acc.downtime_ns += (ctx.now() - since).as_nanos();
            }
            d.crash
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
        let a = &mut self.apps[app as usize];
        if let Some(gen) = a.pipe.drain() {
            self.acc.generated_samples += 1;
            if let Some(since) = a.blocked_since.take() {
                self.acc.writer_block_ns += (ctx.now() - since).as_nanos();
            }
            let resume = a.paused.take();
            let restart_timer = !a.sampling_active;
            self.daemons[a.pd as usize].fifo.push_back((gen, app));
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
            .sample(&mut self.daemons[node as usize].merge_rng);
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
            .sample(&mut self.daemons[node as usize].net_rng);
        // Merges only occur on MPP trees, where daemon index == node, so
        // the node holds the relay hop as a leaf daemon holds its own: the
        // same Main-or-parent destination and the same injected link
        // faults.
        self.submit_forward(ctx, batch, demand);
    }
}
