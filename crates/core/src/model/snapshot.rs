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
//! and [`Sim::restore`] rejects any mismatch. This keeps derived topology
//! (node/daemon placement, bank shapes) out of the payload and makes every
//! load validate against by-construction invariants instead of trusting
//! the bytes.

use super::arena::{AppCold, AppHot, Apps, DaemonCold, DaemonHot, Daemons};
use super::types::{AppId, CpuJob, CpuKind, Ev, NetJob, PdId};
use super::{Acc, RoccModel, Step};
use crate::config::SimConfig;
use paradyn_des::{
    fnv1a, CalendarKind, Dec, Enc, FcfsServer, Persist, PersistState, RrCpuBank, Sim, SimTime,
    SnapError, StreamRng,
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

/// The app arena serializes row-major — one complete record per process,
/// reassembled from the hot/pipe/cold columns — so the frame stays
/// per-entity even though the in-memory layout is struct-of-arrays.
impl Persist for Apps {
    fn save(&self, w: &mut Enc) {
        w.put_usize(self.len());
        for i in 0..self.len() {
            let (h, c) = (&self.hot[i], &self.cold[i]);
            w.put_u32(h.node);
            w.put_u32(h.pd);
            h.cpu_rng.save(w);
            h.net_rng.save(w);
            c.sample_rng.save(w);
            self.pipe[i].save(w);
            c.blocked_since.save(w);
            c.paused.save(w);
            w.put_bool(c.sampling_active);
            w.put_f64(h.work_since_barrier_us);
            w.put_f64(h.current_burst_us);
            w.put_bool(h.at_barrier);
            w.put_u64(c.replay_cpu_pos);
            w.put_u64(c.replay_net_pos);
            c.throttle_rng.save(w);
            w.put_f64(c.throttle_mult);
            w.put_bool(c.pressured);
            c.pressure_cleared_at.save(w);
            w.put_bool(c.throttle_tick_armed);
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = r.take_usize()?;
        let mut apps = Apps::with_capacity(n);
        for _ in 0..n {
            let node = r.take_u32()?;
            let pd = r.take_u32()?;
            let cpu_rng = Persist::load(r)?;
            let net_rng = Persist::load(r)?;
            let sample_rng = Persist::load(r)?;
            let pipe = Persist::load(r)?;
            let blocked_since = Persist::load(r)?;
            let paused = Persist::load(r)?;
            let sampling_active = r.take_bool()?;
            let work_since_barrier_us = r.take_f64()?;
            let current_burst_us = r.take_f64()?;
            let at_barrier = r.take_bool()?;
            let replay_cpu_pos = r.take_u64()?;
            let replay_net_pos = r.take_u64()?;
            let throttle_rng = Persist::load(r)?;
            let throttle_mult = r.take_f64()?;
            let pressured = r.take_bool()?;
            let pressure_cleared_at = Persist::load(r)?;
            let throttle_tick_armed = r.take_bool()?;
            let hot = AppHot {
                node,
                pd,
                cpu_rng,
                net_rng,
                current_burst_us,
                work_since_barrier_us,
                at_barrier,
            };
            let cold = AppCold {
                sample_rng,
                blocked_since,
                paused,
                sampling_active,
                replay_cpu_pos,
                replay_net_pos,
                throttle_rng,
                throttle_mult,
                pressured,
                pressure_cleared_at,
                throttle_tick_armed,
            };
            apps.push(hot, pipe, cold);
        }
        Ok(apps)
    }
}

/// Row-major daemon records, mirroring [`Apps`].
impl Persist for Daemons {
    fn save(&self, w: &mut Enc) {
        w.put_usize(self.len());
        for i in 0..self.len() {
            let (h, c) = (&self.hot[i], &self.cold[i]);
            w.put_u32(h.node);
            h.cpu_rng.save(w);
            h.net_rng.save(w);
            c.merge_rng.save(w);
            self.fifo[i].save(w);
            self.roster[i].save(w);
            w.put_bool(h.collecting);
            w.put_u32(h.flush_gen);
            w.put_bool(h.down);
            w.put_bool(h.doomed);
            c.crash.save(w);
            c.link_rng.save(w);
            c.down_since.save(w);
            w.put_bool(h.shedding);
            w.put_bool(h.remote_pressure);
            c.shed_rng.save(w);
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = r.take_usize()?;
        let mut daemons = Daemons::with_capacity(n);
        for _ in 0..n {
            let node = r.take_u32()?;
            let cpu_rng = Persist::load(r)?;
            let net_rng = Persist::load(r)?;
            let merge_rng = Persist::load(r)?;
            let fifo = Persist::load(r)?;
            let roster: Vec<u32> = Persist::load(r)?;
            let collecting = r.take_bool()?;
            let flush_gen = r.take_u32()?;
            let down = r.take_bool()?;
            let doomed = r.take_bool()?;
            let crash = Persist::load(r)?;
            let link_rng = Persist::load(r)?;
            let down_since = Persist::load(r)?;
            let shedding = r.take_bool()?;
            let remote_pressure = r.take_bool()?;
            let shed_rng = Persist::load(r)?;
            if roster.is_empty() == collecting {
                return Err(SnapError::Malformed(
                    "daemon roster disagrees with its collect cycle",
                ));
            }
            let hot = DaemonHot {
                node,
                cpu_rng,
                net_rng,
                collecting,
                down,
                doomed,
                shedding,
                remote_pressure,
                flush_gen,
            };
            let cold = DaemonCold {
                merge_rng,
                crash,
                link_rng,
                down_since,
                shed_rng,
            };
            daemons.push(hot, fifo, roster, cold);
        }
        Ok(daemons)
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
        let apps: Apps = Persist::load(r)?;
        if apps.len() != self.apps.len() {
            return Err(SnapError::Malformed("app count differs from config"));
        }
        let daemons: Daemons = Persist::load(r)?;
        if daemons.len() != self.daemons.len() {
            return Err(SnapError::Malformed("daemon count differs from config"));
        }
        let fifos = daemons.fifo.iter().flatten().map(|&(_, app)| app);
        if fifos
            .chain(daemons.roster.iter().flatten().copied())
            .any(|app| app as usize >= apps.len())
        {
            return Err(SnapError::Malformed("daemon queue names an unknown app"));
        }
        let barrier_waiting: Vec<u32> = Persist::load(r)?;
        if barrier_waiting.len() > apps.len()
            || barrier_waiting.iter().any(|&a| a as usize >= apps.len())
        {
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
        self.apps = apps;
        self.daemons = daemons;
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
                let cold = self.daemons.cold.get(pd as usize);
                cold.is_some_and(|c| c.crash.is_some())
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
        for i in 0..self.apps.len() {
            let h = &mut self.apps.hot[i];
            h.cpu_rng.perturb(sub());
            h.net_rng.perturb(sub());
            let c = &mut self.apps.cold[i];
            c.sample_rng.perturb(sub());
            c.throttle_rng.perturb(sub());
        }
        for i in 0..self.daemons.len() {
            let h = &mut self.daemons.hot[i];
            h.cpu_rng.perturb(sub());
            h.net_rng.perturb(sub());
            let c = &mut self.daemons.cold[i];
            c.merge_rng.perturb(sub());
            c.link_rng.perturb(sub());
            c.shed_rng.perturb(sub());
            if let Some(crash) = &mut c.crash {
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
