//! Background load: the PVM daemon and "other user/system processes" of
//! Table 2, modelled as open Poisson sources competing for the node
//! resources.

use super::types::{CpuJob, CpuKind, Ev, NetJob};
use super::{BgKind, RoccModel};
use paradyn_des::Ctx;

impl RoccModel {
    /// A PVM-daemon request pair arrives: CPU burst now; its network
    /// request follows the CPU completion (see `CpuKind::PvmdCpu`).
    pub(crate) fn pvmd_arrival(&mut self, ctx: &mut Ctx<Ev>, node: u32) {
        let demand = self
            .cfg
            .params
            .pvmd
            .cpu_req
            .sample(&mut self.pvmd_rngs[node as usize]);
        self.submit_cpu(
            ctx,
            self.bank_of(node),
            CpuJob {
                kind: CpuKind::PvmdCpu { node },
            },
            demand,
        );
        let gap = self.draw_interarrival(node, BgKind::Pvmd);
        ctx.post_in(gap, Ev::PvmdArrival { node });
    }

    /// An other-process CPU request arrives.
    pub(crate) fn other_cpu_arrival(&mut self, ctx: &mut Ctx<Ev>, node: u32) {
        let demand = self
            .cfg
            .params
            .other
            .cpu_req
            .sample(&mut self.other_rngs[node as usize]);
        self.submit_cpu(
            ctx,
            self.bank_of(node),
            CpuJob {
                kind: CpuKind::OtherCpu,
            },
            demand,
        );
        let gap = self.draw_interarrival(node, BgKind::OtherCpu);
        ctx.post_in(gap, Ev::OtherCpuArrival { node });
    }

    /// An other-process network request arrives (independent of its CPU
    /// stream, as in Table 2's separate inter-arrival rows).
    pub(crate) fn other_net_arrival(&mut self, ctx: &mut Ctx<Ev>, node: u32) {
        let demand = self
            .cfg
            .params
            .other
            .net_req
            .sample(&mut self.other_rngs[node as usize]);
        self.submit_net(ctx, NetJob::OtherNet { node }, demand);
        let gap = self.draw_interarrival(node, BgKind::OtherNet);
        ctx.post_in(gap, Ev::OtherNetArrival { node });
    }
}
