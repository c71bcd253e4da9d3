//! Checkpoint persistence for the full ROCC model: [`Persist`] codecs for
//! every piece of per-run state, the [`PersistState`] wiring that lets
//! [`Sim::snapshot`]/[`Sim::restore`] capture and rebuild a `RoccModel`,
//! and the fork primitives ([`warm_snapshot`], [`fork_n`]) with which
//! [`crate::run_forked`] shares one warmed-up transient across
//! replications.
//!
//! The configuration itself is **not** serialized. A snapshot can only be
//! restored into a model freshly built from the *same* configuration; the
//! frame carries a fingerprint (an FNV-1a hash of the config's debug form)
//! and [`Sim::restore`] rejects any mismatch. Each app and daemon record
//! restores into the one `RoccModel::new` built ([`PersistInto`]), so what
//! the config fixes (placement, entity counts, pipe capacity and overflow
//! policy, crash plans) stays out of the payload and is never taken from
//! the bytes, and every load validates against by-construction invariants
//! instead of trusting them.

use super::types::{AppId, CpuJob, CpuKind, Ev, NetJob, PdId};
use super::{Acc, App, Daemon, RoccModel, Step};
use crate::config::SimConfig;
use paradyn_des::{
    fnv1a, CalendarKind, Dec, Enc, FcfsServer, Persist, PersistInto, PersistState, RrCpuBank, Sim,
    SimTime, SnapError, StreamRng,
};

impl Persist for Step {
    fn save(&self, w: &mut Enc) {
        w.put_u8(match self {
            Step::Compute => 0,
            Step::Comm => 1,
        });
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(Step::Compute),
            1 => Ok(Step::Comm),
            _ => Err(SnapError::Malformed("app step tag")),
        }
    }
}

/// One record per process. Placement stays as built: the config fixes it.
impl PersistInto for App {
    fn save(&self, w: &mut Enc) {
        self.cpu_rng.save(w);
        self.net_rng.save(w);
        self.sample_rng.save(w);
        self.pipe.save(w);
        self.blocked_since.save(w);
        self.paused.save(w);
        w.put_bool(self.sampling_active);
        w.put_f64(self.work_since_barrier_us);
        w.put_f64(self.current_burst_us);
        w.put_bool(self.at_barrier);
        w.put_u64(self.replay_cpu_pos);
        w.put_u64(self.replay_net_pos);
        self.throttle_rng.save(w);
        w.put_f64(self.throttle_mult);
        w.put_bool(self.pressured);
        self.pressure_cleared_at.save(w);
        w.put_bool(self.throttle_tick_armed);
    }
    fn load_into(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        self.cpu_rng = Persist::load(r)?;
        self.net_rng = Persist::load(r)?;
        self.sample_rng = Persist::load(r)?;
        self.pipe.load_into(r)?;
        self.blocked_since = Persist::load(r)?;
        self.paused = Persist::load(r)?;
        self.sampling_active = r.take_bool()?;
        self.work_since_barrier_us = r.take_f64()?;
        self.current_burst_us = r.take_f64()?;
        self.at_barrier = r.take_bool()?;
        self.replay_cpu_pos = r.take_u64()?;
        self.replay_net_pos = r.take_u64()?;
        self.throttle_rng = Persist::load(r)?;
        self.throttle_mult = r.take_f64()?;
        self.pressured = r.take_bool()?;
        self.pressure_cleared_at = Persist::load(r)?;
        self.throttle_tick_armed = r.take_bool()?;
        Ok(())
    }
}

/// One record per daemon. Whether it has a crash plan, and the plan's
/// means, stay as built.
impl PersistInto for Daemon {
    fn save(&self, w: &mut Enc) {
        self.cpu_rng.save(w);
        self.net_rng.save(w);
        self.merge_rng.save(w);
        self.fifo.save(w);
        self.roster.save(w);
        w.put_u32(self.flush_gen);
        w.put_bool(self.doomed);
        self.crash.save(w);
        self.link_rng.save(w);
        self.down_since.save(w);
        w.put_bool(self.shedding);
        w.put_bool(self.remote_pressure);
        self.shed_rng.save(w);
    }
    fn load_into(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        self.cpu_rng = Persist::load(r)?;
        self.net_rng = Persist::load(r)?;
        self.merge_rng = Persist::load(r)?;
        self.fifo = Persist::load(r)?;
        self.roster = Persist::load(r)?;
        self.flush_gen = r.take_u32()?;
        self.doomed = r.take_bool()?;
        self.crash.load_into(r)?;
        self.link_rng = Persist::load(r)?;
        self.down_since = Persist::load(r)?;
        self.shedding = r.take_bool()?;
        self.remote_pressure = r.take_bool()?;
        self.shed_rng = Persist::load(r)?;
        Ok(())
    }
}

impl Persist for Acc {
    fn save(&self, w: &mut Enc) {
        for v in &self.cpu_busy_ns {
            w.put_u64(*v);
        }
        for v in &self.net_busy_ns {
            w.put_u64(*v);
        }
        w.put_u128(self.latency_sum_ns);
        w.put_u128(self.fwd_latency_sum_ns);
        w.put_u64(self.received_samples);
        w.put_u64(self.received_msgs);
        w.put_u64(self.generated_samples);
        w.put_u64(self.barrier_ops);
        w.put_u64(self.emitted_samples);
        w.put_u64(self.lost_blocked);
        w.put_u64(self.lost_crash);
        w.put_u64(self.lost_link);
        w.put_u64(self.in_batches);
        w.put_u64(self.forwarded_batches);
        w.put_u64(self.forwarded_samples);
        w.put_u64(self.writer_block_ns);
        w.put_u64(self.stall_injected_ns);
        w.put_u64(self.crashes);
        w.put_u64(self.downtime_ns);
        w.put_u64(self.retries);
        for v in &self.shed_by_tier {
            w.put_u64(*v);
        }
        w.put_u64(self.throttle_events);
        w.put_u64(self.backpressure_events);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let mut acc = Acc::default();
        for v in &mut acc.cpu_busy_ns {
            *v = r.take_u64()?;
        }
        for v in &mut acc.net_busy_ns {
            *v = r.take_u64()?;
        }
        acc.latency_sum_ns = r.take_u128()?;
        acc.fwd_latency_sum_ns = r.take_u128()?;
        acc.received_samples = r.take_u64()?;
        acc.received_msgs = r.take_u64()?;
        acc.generated_samples = r.take_u64()?;
        acc.barrier_ops = r.take_u64()?;
        acc.emitted_samples = r.take_u64()?;
        acc.lost_blocked = r.take_u64()?;
        acc.lost_crash = r.take_u64()?;
        acc.lost_link = r.take_u64()?;
        acc.in_batches = r.take_u64()?;
        acc.forwarded_batches = r.take_u64()?;
        acc.forwarded_samples = r.take_u64()?;
        acc.writer_block_ns = r.take_u64()?;
        acc.stall_injected_ns = r.take_u64()?;
        acc.crashes = r.take_u64()?;
        acc.downtime_ns = r.take_u64()?;
        acc.retries = r.take_u64()?;
        for v in &mut acc.shed_by_tier {
            *v = r.take_u64()?;
        }
        acc.throttle_events = r.take_u64()?;
        acc.backpressure_events = r.take_u64()?;
        Ok(acc)
    }
}

impl PersistState for RoccModel {
    /// Configuration identity for snapshot compatibility: a snapshot taken
    /// under one config can only restore into a model built from a config
    /// with the identical debug form.
    fn fingerprint(&self) -> u64 {
        fnv1a(format!("SimConfig:{:?}", self.cfg).as_bytes())
    }

    fn save_state(&self, w: &mut Enc) {
        self.banks.save(w);
        self.shared_net.save(w);
        self.apps.save(w);
        self.daemons.save(w);
        self.barrier_waiting.save(w);
        self.main_rng.save(w);
        self.pvmd_rngs.save(w);
        self.other_rngs.save(w);
        self.stall_rng.save(w);
        w.put_bool(self.overload_on);
        self.acc.save(w);
    }

    fn load_state(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        let banks: Vec<RrCpuBank<CpuJob>> = Persist::load(r)?;
        if banks.len() != self.banks.len()
            || banks
                .iter()
                .zip(&self.banks)
                .any(|(got, want)| got.cpus() != want.cpus())
        {
            return Err(SnapError::Malformed("CPU bank shape differs from config"));
        }
        if !banks.iter().flat_map(|b| b.jobs()).all(|j| self.cpu_job_in_range(j)) {
            return Err(SnapError::Malformed("CPU job names an entity the config lacks"));
        }
        let shared_net: Option<FcfsServer<NetJob>> = Persist::load(r)?;
        if shared_net.is_some() != self.shared_net.is_some() {
            return Err(SnapError::Malformed("network kind differs from config"));
        }
        if !shared_net.iter().flat_map(|s| s.jobs()).all(|j| self.net_job_in_range(j)) {
            return Err(SnapError::Malformed("network job names an entity the config lacks"));
        }
        // The records restore into the ones `RoccModel::new` built, which
        // keep the placement and shapes the config fixes.
        self.apps.load_into(r)?;
        self.daemons.load_into(r)?;
        let apps = self.apps.len();
        let unknown = self.daemons.iter().any(|d| {
            let fifo = d.fifo.iter().map(|&(_, app)| app);
            fifo.chain(d.roster.iter().copied()).any(|app| app as usize >= apps)
        });
        if unknown {
            return Err(SnapError::Malformed("daemon queue names an unknown app"));
        }
        let barrier_waiting: Vec<u32> = Persist::load(r)?;
        if barrier_waiting.len() > apps || barrier_waiting.iter().any(|&a| a as usize >= apps) {
            return Err(SnapError::Malformed("barrier roster out of range"));
        }
        let main_rng: StreamRng = Persist::load(r)?;
        let pvmd_rngs: Vec<StreamRng> = Persist::load(r)?;
        if pvmd_rngs.len() != self.pvmd_rngs.len() {
            return Err(SnapError::Malformed("pvmd stream count differs from config"));
        }
        let other_rngs: Vec<StreamRng> = Persist::load(r)?;
        if other_rngs.len() != self.other_rngs.len() {
            return Err(SnapError::Malformed("other stream count differs from config"));
        }
        let stall_rng: StreamRng = Persist::load(r)?;
        let overload_on = r.take_bool()?;
        let acc = Acc::load(r)?;
        self.banks = banks;
        self.shared_net = shared_net;
        self.barrier_waiting = barrier_waiting;
        self.main_rng = main_rng;
        self.pvmd_rngs = pvmd_rngs;
        self.other_rngs = other_rngs;
        self.stall_rng = stall_rng;
        self.overload_on = overload_on;
        self.acc = acc;
        Ok(())
    }

    fn check_pending(&self, ev: &Ev) -> Result<(), SnapError> {
        if self.can_handle(ev) {
            Ok(())
        } else {
            Err(SnapError::Malformed("pending event names an entity the config lacks"))
        }
    }

    /// Every instant the records keep is when something began, so none
    /// may lie after the restored clock: each is later subtracted from a
    /// later clock.
    fn check_clock(&self, now: SimTime) -> Result<(), SnapError> {
        let late = |t: Option<SimTime>| t.is_some_and(|t| t > now);
        for a in &self.apps {
            if late(a.blocked_since) {
                return Err(SnapError::Malformed("writer blocked after the snapshot time"));
            }
            if late(a.pipe.parked()) {
                return Err(SnapError::Malformed("parked sample after the snapshot time"));
            }
            if late(a.pressure_cleared_at) {
                return Err(SnapError::Malformed("pressure cleared after the snapshot time"));
            }
        }
        for d in &self.daemons {
            if late(d.down_since) {
                return Err(SnapError::Malformed("outage starts after the snapshot time"));
            }
            if d.fifo.iter().any(|&(gen, _)| gen > now) {
                return Err(SnapError::Malformed("buffered sample after the snapshot time"));
            }
        }
        Ok(())
    }
}

/// Bound checks for restored jobs and events. The counts come from the
/// config (`load_state` rejects a frame whose shapes differ), so a job or
/// event that passes is handled without an out-of-range index.
impl RoccModel {
    fn has_app(&self, app: AppId) -> bool {
        (app as usize) < self.apps.len()
    }

    fn has_pd(&self, pd: PdId) -> bool {
        (pd as usize) < self.daemons.len()
    }

    /// A node of the background sources (one on SMP, else every node).
    fn has_node(&self, node: u32) -> bool {
        (node as usize) < self.pvmd_rngs.len()
    }

    fn cpu_job_in_range(&self, job: CpuJob) -> bool {
        match job.kind {
            CpuKind::AppCompute { app } => self.has_app(app),
            CpuKind::Batch(batch) => self.has_pd(batch.holder),
            CpuKind::PvmdCpu { node } => self.has_node(node),
            CpuKind::OtherCpu => true,
        }
    }

    fn net_job_in_range(&self, job: NetJob) -> bool {
        match job {
            NetJob::AppComm { app } => self.has_app(app),
            NetJob::Forward(batch) => self.has_pd(batch.holder),
            NetJob::PvmdNet { node } | NetJob::OtherNet { node } => self.has_node(node),
        }
    }

    /// Whether every index `ev` carries names an entity of this model and
    /// the server or fault plan its handler needs exists.
    fn can_handle(&self, ev: &Ev) -> bool {
        match *ev {
            Ev::Slice { bank, cpu } => {
                let bank = self.banks.get(bank as usize);
                bank.is_some_and(|b| (cpu as usize) < b.cpus())
            }
            Ev::NetDone => self.shared_net.is_some(),
            Ev::Deliver(job) => self.net_job_in_range(job),
            Ev::Sample { app } | Ev::ThrottleTick { app } => self.has_app(app),
            Ev::PvmdArrival { node }
            | Ev::OtherCpuArrival { node }
            | Ev::OtherNetArrival { node } => self.has_node(node),
            Ev::FlushTimeout { pd, .. } | Ev::Backpressure { pd, .. } => self.has_pd(pd),
            Ev::DaemonCrash { pd } | Ev::DaemonRecover { pd } => {
                self.daemons.get(pd as usize).is_some_and(|d| d.crash.is_some())
            }
            Ev::RetryForward { batch, .. } => self.has_pd(batch.holder),
            Ev::MainStall => self.cfg.faults.stall.is_some(),
            // The other kinds carry no index.
            _ => true,
        }
    }
}

impl RoccModel {
    /// Decorrelate every random stream in the model from its pre-fork
    /// history by perturbing each with a sub-salt derived from `salt`.
    ///
    /// The iteration order (apps' four streams, then each daemon's five
    /// streams plus its crash schedule, then main/background/stall) is part
    /// of the format: identical `(state, salt)` always yields identical
    /// perturbed state, which the fork-equivalence tests rely on.
    pub fn perturb_streams(&mut self, salt: u64) {
        let mut i: u64 = 0;
        let mut sub = move || {
            i += 1;
            salt.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        for a in &mut self.apps {
            a.cpu_rng.perturb(sub());
            a.net_rng.perturb(sub());
            a.sample_rng.perturb(sub());
            a.throttle_rng.perturb(sub());
        }
        for d in &mut self.daemons {
            d.cpu_rng.perturb(sub());
            d.net_rng.perturb(sub());
            d.merge_rng.perturb(sub());
            d.link_rng.perturb(sub());
            d.shed_rng.perturb(sub());
            if let Some(crash) = &mut d.crash {
                crash.perturb(sub());
            }
        }
        self.main_rng.perturb(sub());
        for rng in &mut self.pvmd_rngs {
            rng.perturb(sub());
        }
        for rng in &mut self.other_rngs {
            rng.perturb(sub());
        }
        self.stall_rng.perturb(sub());
    }
}

/// Build `cfg`, run the simulation to `warmup`, and seal a snapshot of the
/// warmed state (calendar contents, RNG streams, and all model state).
///
/// # Panics
/// Panics on an invalid configuration (see [`SimConfig::validate`]).
pub fn warm_snapshot(
    cfg: &SimConfig,
    warmup: SimTime,
    kind: CalendarKind,
) -> Result<Vec<u8>, SnapError> {
    let mut sim = super::build_with_calendar(cfg, kind);
    sim.snapshot(warmup)
}

/// Restore one independent simulation per salt from a single warmed
/// snapshot, perturbing each copy's random streams with its salt so the
/// forks diverge like independently seeded replications while sharing the
/// warmed-up transient.
///
/// `cfg` must be the configuration the snapshot was taken under
/// (fingerprint-checked). A fork with salt `s` is bit-identical to running
/// the base simulation from zero to the warmup point, perturbing with `s`,
/// and continuing — the snapshot only skips the shared warmup work.
///
/// # Panics
/// Panics on an invalid configuration (see [`SimConfig::validate`]).
// lint:allow(dead-pub): tests/snapshot_equivalence.rs forks with explicit salts
pub fn fork_n(
    cfg: &SimConfig,
    snapshot: &[u8],
    kind: CalendarKind,
    fork_salts: &[u64],
) -> Result<Vec<Sim<RoccModel>>, SnapError> {
    fork_salts
        .iter()
        .map(|&salt| {
            let mut sim = Sim::restore(RoccModel::new(cfg.clone()), kind, snapshot)?;
            sim.model.perturb_streams(salt);
            Ok(sim)
        })
        .collect()
}
