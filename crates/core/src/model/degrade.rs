//! The graceful-degradation controllers: per-app source throttling
//! (multiplicative decrease / additive recovery with hysteresis, driven by
//! pipe watermarks) and per-daemon low-priority shedding with backpressure
//! propagated down the forwarding tree.
//!
//! Everything here is gated on `cfg.degradation`: with the config absent,
//! none of these methods schedule events, draw randomness, or mutate
//! state, so inert runs stay bitwise identical to the undegradable model
//! (the same pattern fault injection uses).
//!
//! Watermark protocol (see DESIGN.md §9):
//!
//! * Each app pipe has high/low occupancy watermarks. Crossing the high
//!   watermark upward is a *pressure* edge: the app's sampling-period
//!   multiplier is multiplied by [`MD_FACTOR`] (capped at
//!   [`MAX_SLOWDOWN`]) and a jittered recovery tick is armed. Falling back below the low
//!   watermark merely records when pressure cleared; only after
//!   `hysteresis_us` of sustained clearance do recovery ticks subtract
//!   `recover_step` from the multiplier.
//! * Each daemon FIFO has high/low length watermarks. While the daemon is
//!   under pressure (its own FIFO too long, or an ancestor signalled
//!   pressure), samples from sheddable priority tiers are discarded — both
//!   the buffered backlog (sweeping the FIFO and freeing the pipe slots)
//!   and new deposits at the source, before they enter the pipe.
//! * On an MPP binary forwarding tree, pressure/credit edges propagate to
//!   the children with a small jittered signalling latency, so subtree
//!   daemons shed *before* their batches pile into the congested parent.
//!   Because each edge is jittered independently, a fast off/on flap can
//!   deliver edges out of order; the protocol is level-based per edge
//!   (the last-delivered level wins), which models real signalling races
//!   without breaking conservation or determinism.
//!
//! An app's priority tier is `app_id % tiers` (tier 0 highest); tiers
//! `keep_tiers..` are sheddable. Shed samples are counted per tier and in
//! the extended conservation invariant
//! `emitted == received + lost + shed + in-flight`.

use super::types::{AppId, Ev, PdId};
use super::RoccModel;
use crate::config::{Arch, DegradationConfig, Forwarding};
use paradyn_des::{Ctx, SimDur};

/// Sampling-period multiplier applied on each pressure rising edge.
pub(crate) const MD_FACTOR: f64 = 2.0;

/// Upper bound on the accumulated sampling-period multiplier.
pub(crate) const MAX_SLOWDOWN: f64 = 8.0;

/// Priority tier of an application process (tier 0 = highest priority).
#[inline]
pub(crate) fn app_tier(app: AppId, deg: &DegradationConfig) -> usize {
    app as usize % deg.tiers
}

/// Whether a tier may be shed under pressure.
#[inline]
pub(crate) fn tier_sheddable(tier: usize, deg: &DegradationConfig) -> bool {
    tier >= deg.keep_tiers
}

impl RoccModel {
    /// Whether daemon `pd` is currently under pressure (own FIFO high, or
    /// an ancestor signalled pressure).
    #[inline]
    pub(crate) fn daemon_pressure(&self, pd: PdId) -> bool {
        let d = &self.daemons[pd as usize];
        d.shedding || d.remote_pressure
    }

    /// Re-evaluate `app`'s pipe against the occupancy watermarks. Called
    /// after any occupancy change; a rising edge applies multiplicative
    /// decrease to the sampling rate, a falling edge starts the recovery
    /// hysteresis clock.
    pub(crate) fn degradation_pipe_check(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        let Some(deg) = self.cfg.degradation else {
            return;
        };
        let now = ctx.now();
        let a = &mut self.apps[app as usize];
        let fill = a.pipe.fill_frac();
        if !a.pressured && fill >= deg.pipe_hi {
            a.pressured = true;
            a.pressure_cleared_at = None;
            a.throttle_mult = (a.throttle_mult * MD_FACTOR).min(MAX_SLOWDOWN);
            self.acc.throttle_events += 1;
            self.arm_throttle_tick(ctx, app);
        } else if a.pressured && fill <= deg.pipe_lo {
            a.pressured = false;
            a.pressure_cleared_at = Some(now);
        }
    }

    /// Arm a jittered recovery tick for `app` unless one is already armed
    /// or the app is unthrottled. The jitter draw comes from the app's
    /// dedicated `CTRL_THROTTLE` stream, so no other stream is perturbed.
    fn arm_throttle_tick(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        let Some(deg) = self.cfg.degradation else {
            return;
        };
        let a = &mut self.apps[app as usize];
        if a.throttle_tick_armed || a.throttle_mult <= 1.0 {
            return;
        }
        a.throttle_tick_armed = true;
        let gap_us = deg.recover_period_us * (0.5 + a.throttle_rng.next_f64());
        ctx.post_in(SimDur::from_micros_f64(gap_us), Ev::ThrottleTick { app });
    }

    /// A recovery tick fired: if pressure has been clear for at least the
    /// hysteresis window, take one additive-recovery step; keep ticking
    /// while the multiplier exceeds 1.
    pub(crate) fn throttle_tick(&mut self, ctx: &mut Ctx<Ev>, app: AppId) {
        let Some(deg) = self.cfg.degradation else {
            return;
        };
        let now = ctx.now();
        let a = &mut self.apps[app as usize];
        a.throttle_tick_armed = false;
        if a.throttle_mult <= 1.0 {
            return;
        }
        let recovered = !a.pressured
            && a.pressure_cleared_at
                .is_some_and(|t| (now - t).as_micros_f64() >= deg.hysteresis_us);
        if recovered {
            a.throttle_mult = (a.throttle_mult - deg.recover_step).max(1.0);
        }
        self.arm_throttle_tick(ctx, app);
    }

    /// Re-evaluate daemon `pd`'s FIFO against the length watermarks and act
    /// on combined-pressure edges (shed the backlog and signal children on
    /// a rising edge; signal credit on a falling edge). Called after any
    /// FIFO length change.
    pub(crate) fn degradation_daemon_check(&mut self, ctx: &mut Ctx<Ev>, pd: PdId) {
        let Some(deg) = self.cfg.degradation else {
            return;
        };
        let before = self.daemon_pressure(pd);
        {
            let d = &mut self.daemons[pd as usize];
            let len = d.fifo.len();
            if !d.shedding && len >= deg.daemon_hi {
                d.shedding = true;
            } else if d.shedding && len <= deg.daemon_lo {
                d.shedding = false;
            }
        }
        self.apply_pressure_edge(ctx, pd, before, deg);
    }

    /// A pressure/credit edge from the parent arrived (after signalling
    /// jitter). Level-based: the delivered level replaces the stored one.
    pub(crate) fn backpressure_signal(&mut self, ctx: &mut Ctx<Ev>, pd: PdId, on: bool) {
        let Some(deg) = self.cfg.degradation else {
            return;
        };
        let before = self.daemon_pressure(pd);
        self.daemons[pd as usize].remote_pressure = on;
        self.apply_pressure_edge(ctx, pd, before, deg);
    }

    /// Act on a combined-pressure edge for daemon `pd` given the state
    /// `before` the update.
    fn apply_pressure_edge(
        &mut self,
        ctx: &mut Ctx<Ev>,
        pd: PdId,
        before: bool,
        deg: DegradationConfig,
    ) {
        let after = self.daemon_pressure(pd);
        if !before && after {
            self.shed_backlog(ctx, pd, deg);
            self.propagate_pressure(ctx, pd, true);
        } else if before && !after {
            self.propagate_pressure(ctx, pd, false);
        }
    }

    /// Sweep daemon `pd`'s FIFO, discarding every sheddable-tier entry and
    /// freeing its pipe slot. Freed slots may admit parked samples, which
    /// append to the FIFO and are themselves re-examined by the sweep (at
    /// most one parked sample per app, so the sweep terminates). The sweep
    /// stops early if the pressure condition clears mid-sweep.
    fn shed_backlog(&mut self, ctx: &mut Ctx<Ev>, pd: PdId, deg: DegradationConfig) {
        let mut i = 0;
        loop {
            if !self.daemon_pressure(pd) {
                break;
            }
            let fifo = &mut self.daemons[pd as usize].fifo;
            let Some(&(_gen, app)) = fifo.get(i) else {
                break;
            };
            let tier = app_tier(app, &deg);
            if tier_sheddable(tier, &deg) {
                fifo.remove(i);
                self.acc.shed_by_tier[tier] += 1;
                // Free the pipe slot the shed sample held; this can admit a
                // parked sample, resume a blocked writer, and clear the
                // pipe's pressure condition.
                self.drain_one(ctx, app);
            } else {
                i += 1;
            }
        }
    }

    /// Propagate a pressure (`on`) or credit (`!on`) edge to `pd`'s
    /// children in the forwarding tree, each with an independent jittered
    /// signalling latency drawn from the daemon's `CTRL_SHED` stream.
    /// Only the MPP binary tree has a forwarding hierarchy; direct
    /// topologies have no children to signal.
    fn propagate_pressure(&mut self, ctx: &mut Ctx<Ev>, pd: PdId, on: bool) {
        if !matches!(
            self.cfg.arch,
            Arch::Mpp {
                forwarding: Forwarding::BinaryTree
            }
        ) {
            return;
        }
        // On MPP, daemon index == node index (heap tree layout).
        let nodes = self.cfg.nodes as u32;
        for child in [2 * pd + 1, 2 * pd + 2] {
            if child < nodes {
                let jitter_us = self.daemons[pd as usize].shed_rng.next_f64() * 1_000.0;
                self.acc.backpressure_events += 1;
                ctx.post_in(
                    SimDur::from_micros_f64(jitter_us),
                    Ev::Backpressure { pd: child, on },
                );
            }
        }
    }
}
