//! Checkpoint persistence for the full ROCC model: [`Persist`] codecs for
//! every piece of per-run state, the [`PersistState`] wiring that lets
//! [`Sim::snapshot`]/[`Sim::restore`] capture and rebuild a `RoccModel`,
//! and the fork primitives ([`warm_snapshot`], [`fork_n`]) used by the
//! factorial sweep driver to share one warmed-up transient across
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
use super::types::{CpuJob, NetJob};
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
            w.put_usize(h.batch);
            w.put_u32(h.flush_gen);
            w.put_f64(h.cpu_used_us);
            w.put_f64(c.cpu_at_last_tick_us);
            w.put_u64(c.batch_adjustments);
            w.put_u64(h.forwarded_batches);
            w.put_u64(h.forwarded_samples);
            w.put_bool(h.down);
            w.put_bool(h.doomed);
            c.crash.save(w);
            c.link_rng.save(w);
            c.fault_mon.save(w);
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
            let batch = r.take_usize()?;
            let flush_gen = r.take_u32()?;
            let cpu_used_us = r.take_f64()?;
            let cpu_at_last_tick_us = r.take_f64()?;
            let batch_adjustments = r.take_u64()?;
            let forwarded_batches = r.take_u64()?;
            let forwarded_samples = r.take_u64()?;
            let down = r.take_bool()?;
            let doomed = r.take_bool()?;
            let crash = Persist::load(r)?;
            let link_rng = Persist::load(r)?;
            let fault_mon = Persist::load(r)?;
            let shedding = r.take_bool()?;
            let remote_pressure = r.take_bool()?;
            let shed_rng = Persist::load(r)?;
            if batch == 0 {
                return Err(SnapError::Malformed("daemon batch threshold of zero"));
            }
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
                batch,
                flush_gen,
                cpu_used_us,
                forwarded_batches,
                forwarded_samples,
            };
            let cold = DaemonCold {
                merge_rng,
                cpu_at_last_tick_us,
                batch_adjustments,
                crash,
                link_rng,
                fault_mon,
                shed_rng,
            };
            daemons.push(hot, fifo, roster, cold);
        }
        Ok(daemons)
    }
}

impl Persist for Acc {
    fn save(&self, w: &mut Enc) {
        for v in &self.cpu_busy_us {
            w.put_f64(*v);
        }
        for v in &self.net_busy_us {
            w.put_f64(*v);
        }
        w.put_f64(self.latency_sum_s);
        w.put_f64(self.fwd_latency_sum_s);
        w.put_u64(self.received_samples);
        w.put_u64(self.received_msgs);
        w.put_u64(self.generated_samples);
        w.put_u64(self.barrier_ops);
        w.put_u64(self.emitted_samples);
        w.put_u64(self.lost_blocked);
        w.put_u64(self.lost_crash);
        w.put_u64(self.lost_link);
        w.put_u64(self.in_batches);
        w.put_f64(self.writer_block_us);
        w.put_f64(self.stall_injected_us);
        for v in &self.shed_by_tier {
            w.put_u64(*v);
        }
        w.put_u64(self.throttle_events);
        w.put_u64(self.backpressure_events);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let mut acc = Acc::default();
        for v in &mut acc.cpu_busy_us {
            *v = r.take_f64()?;
        }
        for v in &mut acc.net_busy_us {
            *v = r.take_f64()?;
        }
        acc.latency_sum_s = r.take_f64()?;
        acc.fwd_latency_sum_s = r.take_f64()?;
        acc.received_samples = r.take_u64()?;
        acc.received_msgs = r.take_u64()?;
        acc.generated_samples = r.take_u64()?;
        acc.barrier_ops = r.take_u64()?;
        acc.emitted_samples = r.take_u64()?;
        acc.lost_blocked = r.take_u64()?;
        acc.lost_crash = r.take_u64()?;
        acc.lost_link = r.take_u64()?;
        acc.in_batches = r.take_u64()?;
        acc.writer_block_us = r.take_f64()?;
        acc.stall_injected_us = r.take_f64()?;
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
        let shared_net: Option<FcfsServer<NetJob>> = Persist::load(r)?;
        if shared_net.is_some() != self.shared_net.is_some() {
            return Err(SnapError::Malformed("network kind differs from config"));
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
