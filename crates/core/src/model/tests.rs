//! White-box behavioural tests of the model internals: daemon collection,
//! pipe draining, tree routing, SMP daemon assignment, and event plumbing.

use super::*;
use crate::config::{Arch, DaemonCrashFaults, FaultPlan, Forwarding, LinkFaults, SimConfig};
use paradyn_des::fifo::{MAX_BLOCK, MIN_BLOCK};
use paradyn_des::CalendarKind;
use paradyn_workload::ProcessClass;
use std::collections::HashMap;
use std::num::NonZeroU16;

fn quick(arch: Arch, nodes: usize) -> SimConfig {
    SimConfig {
        arch,
        nodes,
        duration_s: 2.0,
        background: false,
        ..Default::default()
    }
}

fn run_model(cfg: SimConfig) -> (RoccModel, u64) {
    let mut sim = build(&cfg);
    sim.run_until(SimTime::from_secs_f64(cfg.duration_s));
    let events = sim.executed_events();
    (sim.model, events)
}

#[test]
fn apps_are_assigned_to_their_node_daemon_on_now() {
    let cfg = SimConfig {
        apps_per_node: 3,
        ..quick(Arch::Now { contention_free: true }, 4)
    };
    let model = RoccModel::new(cfg);
    for (gi, app) in model.apps.iter().enumerate() {
        assert_eq!(app.node, (gi / 3) as u32);
        assert_eq!(app.pd, app.node, "daemon co-located with its apps");
    }
    assert_eq!(model.daemons.len(), 4);
    assert_eq!(model.banks.len(), 4);
}

#[test]
fn smp_pools_cpus_and_round_robins_apps_over_daemons() {
    let cfg = SimConfig {
        arch: Arch::Smp,
        nodes: 8,
        apps_per_node: 6,
        pds: 2,
        ..quick(Arch::Smp, 8)
    };
    let model = RoccModel::new(cfg);
    assert_eq!(model.banks.len(), 1);
    assert_eq!(model.banks[0].cpus(), 8);
    assert_eq!(model.daemons.len(), 2);
    let pds: Vec<u32> = model.apps.iter().map(|a| a.pd).collect();
    assert_eq!(pds, vec![0, 1, 0, 1, 0, 1]);
    // All SMP daemons run on the pooled bank.
    assert!((0..2).all(|pd| model.bank_of(pd) == 0));
}

#[test]
fn batches_do_not_leak() {
    // Every collected batch must be consumed by the main process; at most
    // a handful remain in flight at the horizon, and the running count of
    // their samples matches a walk over every holder.
    for arch in [
        Arch::Now { contention_free: true },
        Arch::Mpp {
            forwarding: Forwarding::BinaryTree,
        },
    ] {
        let cfg = SimConfig {
            batch: 4,
            ..quick(arch, 8)
        };
        let mut sim = build(&cfg);
        sim.run_until(SimTime::from_secs_f64(cfg.duration_s));
        let in_flight = RoccModel::batches_held(&mut sim).len();
        assert!(
            in_flight <= 2 * sim.model.daemons.len(),
            "{arch:?}: {in_flight} batches still in flight"
        );
        assert_eq!(RoccModel::in_batch_violation(&mut sim), None, "{arch:?}");
        assert_eq!(sim.model.pipe_slot_violation(), None, "{arch:?}");
    }
}

#[test]
fn saturated_main_keeps_pipe_books_past_4096_live_batches() {
    // CF NOW with a 100 µs sampling period: seven remote daemons each
    // forward far more batches than the main process consumes, so the
    // live-batch backlog grows linearly with time (the saturated queue of
    // Table 4's 50-node, 2 ms CF cells, compressed onto eight nodes).
    // Thousands of batches wait by value in the network and CPU queues;
    // the pipe-slot books and the in-batch count must hold throughout.
    let cfg = SimConfig {
        nodes: 8,
        sampling_period_us: 100.0,
        app: paradyn_workload::compute_intensive(),
        duration_s: 2.0,
        ..Default::default()
    };
    let mut sim = build(&cfg);
    let mut peak = 0;
    for step in 1..=8 {
        let t = 0.25 * step as f64;
        sim.run_until(SimTime::from_secs_f64(t));
        peak = peak.max(RoccModel::batches_held(&mut sim).len());
        if let Some(v) = sim.model.pipe_slot_violation() {
            panic!("pipe slots at {t} s: {v}");
        }
        if let Some(v) = RoccModel::in_batch_violation(&mut sim) {
            panic!("in-flight batches at {t} s: {v}");
        }
    }
    assert!(peak > 4096, "the backlog peaked at {peak} live batches");
}

#[test]
fn saturated_queues_store_little_beyond_their_entries() {
    // Table 4's saturating cell (50 nodes, CF, 2 ms sampling), cut to
    // 1.5 s: tens of thousands of forwards wait on the shared Ethernet
    // and on node 0's CPU. Each queue keeps its slack bound, and all 51
    // together hold no more than their entries plus one block each.
    let cfg = SimConfig {
        nodes: 50,
        sampling_period_us: 2_000.0,
        duration_s: 1.5,
        ..Default::default()
    };
    let mut sim = build(&cfg);
    sim.run_until(SimTime::from_secs_f64(cfg.duration_s));
    let m = &sim.model;
    let net = m.shared_net.as_ref().expect("shared Ethernet");
    let mut queues = vec![(net.queue_len(), net.queue_allocated())];
    queues.extend(m.banks.iter().map(|b| (b.ready_len(), b.ready_allocated())));
    for &(len, allocated) in &queues {
        assert!(allocated <= 2 * len.max(MIN_BLOCK) + MAX_BLOCK, "{allocated} for {len}");
    }
    let (len, allocated) = queues
        .iter()
        .fold((0, 0), |(l, a), &(len, alloc)| (l + len, a + alloc));
    assert!(net.queue_len() > 10_000, "Ethernet backlog {}", net.queue_len());
    assert!(
        allocated <= len + queues.len() * MAX_BLOCK,
        "{allocated} entries allocated for {len} queued"
    );
}

#[test]
fn daemon_fifo_drains_to_batch_remainder() {
    let (model, _) = run_model(SimConfig {
        batch: 8,
        ..quick(Arch::Now { contention_free: true }, 2)
    });
    for d in &model.daemons {
        assert!(
            d.fifo.len() < 8,
            "daemon buffered {} >= batch 8 at idle horizon",
            d.fifo.len()
        );
        assert!(!d.collecting() || d.fifo.len() < 8);
    }
}

#[test]
fn conservation_generated_equals_buffered_plus_forwarded() {
    let (model, _) = run_model(quick(Arch::Now { contention_free: true }, 4));
    let buffered: usize = model.daemons.iter().map(|d| d.fifo.len()).sum();
    let forwarded = model.acc.forwarded_samples;
    // A collecting daemon's batch has been popped from the FIFO but not yet
    // counted as forwarded; its roster lists one app per sample. Every
    // other live batch is in the network or awaiting main-process handling.
    let collecting = model.daemons.iter().map(|d| d.roster.len() as u64).sum::<u64>();
    let post_forward = model.acc.in_batches - collecting;
    assert_eq!(
        model.acc.generated_samples,
        forwarded + buffered as u64 + collecting,
        "sample conservation at daemon boundary"
    );
    assert_eq!(
        model.acc.received_samples,
        forwarded - post_forward,
        "sample conservation at network/main boundary"
    );
}

#[test]
fn tree_messages_traverse_expected_hop_counts() {
    // With 4 nodes in a heap tree (0 root, children 1,2; 3 under 1):
    // node 3's batches hop 3->1->0->main: per batch, two merges occur.
    let (model, _) = run_model(SimConfig {
        batch: 1,
        sampling_period_us: 10_000.0,
        ..quick(
            Arch::Mpp {
                forwarding: Forwarding::BinaryTree,
            },
            4,
        )
    });
    // All daemons forwarded roughly the same number of batches (same
    // sampling rate), and everything generated was eventually received.
    let (batches, samples) = (model.acc.forwarded_batches, model.acc.forwarded_samples);
    assert!(batches > 100);
    assert!(model.acc.received_samples > 0);
    assert!(samples >= model.acc.received_samples);
    // Merge work happened: daemon CPU exceeds the collect-only cost by a
    // measurable margin on interior nodes. Compare total Pd CPU to the
    // collect-only baseline from a direct-forwarding run.
    let (direct, _) = run_model(SimConfig {
        batch: 1,
        sampling_period_us: 10_000.0,
        ..quick(
            Arch::Mpp {
                forwarding: Forwarding::Direct,
            },
            4,
        )
    });
    let tree_pd = model.acc.cpu_busy_ns[types::class_idx(ProcessClass::ParadynDaemon)] as f64;
    let direct_pd = direct.acc.cpu_busy_ns[types::class_idx(ProcessClass::ParadynDaemon)] as f64;
    assert!(
        tree_pd > 1.1 * direct_pd,
        "tree {tree_pd} vs direct {direct_pd}"
    );
}

/// Steps a four-daemon run with fixed-delay crash recovery event by event,
/// checking that every outage lasts exactly `recovery`, until `horizon`
/// names a stopping instant from the event just seen, the closed-outage
/// count and the daemons still down; then runs to that instant. Returns the
/// simulator, the horizon, the closed outages and the open outages' crash
/// instants. Crash and recovery instants come from the events themselves.
fn run_outages(
    recovery: SimDur,
    mut horizon: impl FnMut(SimTime, u64, &[Option<SimTime>]) -> Option<SimTime>,
) -> (Sim<RoccModel>, SimTime, u64, Vec<SimTime>) {
    let cfg = SimConfig {
        faults: FaultPlan {
            daemon_crash: Some(DaemonCrashFaults {
                mtbf_us: 300_000.0,
                recovery_us: recovery.as_micros_f64(),
            }),
            ..FaultPlan::default()
        },
        ..quick(Arch::Now { contention_free: true }, 4)
    };
    let mut sim = build(&cfg);
    let mut crashed_at: Vec<Option<SimTime>> = vec![None; 4];
    let (mut closed, mut stop) = (0u64, SimTime::MAX);
    while let Some((at, ev)) = sim.peek_next() {
        if at > stop {
            break;
        }
        match ev {
            Ev::DaemonCrash { pd } => crashed_at[pd as usize] = Some(at),
            Ev::DaemonRecover { pd } => {
                assert_eq!(at - crashed_at[pd as usize].take().unwrap(), recovery);
                closed += 1;
            }
            _ => {}
        }
        if stop == SimTime::MAX {
            stop = horizon(at, closed, &crashed_at).unwrap_or(SimTime::MAX);
        }
        sim.step();
    }
    sim.run_until(stop);
    let open = crashed_at.into_iter().flatten().collect();
    (sim, stop, closed, open)
}

#[test]
fn closed_outage_downtime_is_the_sum_of_recovery_delays() {
    // Stop right after a recovery that leaves every daemon up: downtime is
    // exactly the closed outages times the fixed recovery delay, in the
    // books and in the reported metric alike.
    let recovery = SimDur::from_micros_f64(200_000.0);
    let (sim, horizon, closed, open) = run_outages(recovery, |at, closed, down| {
        (closed >= 3 && down.iter().all(Option::is_none)).then_some(at)
    });
    assert!(open.is_empty() && closed >= 3, "{closed} closed, {} open", open.len());
    let acc = &sim.model.acc;
    assert_eq!(acc.crashes, closed);
    assert_eq!(acc.downtime_ns, closed * recovery.as_nanos());
    let m = sim.model.metrics(horizon - SimTime::ZERO, sim.executed_events());
    assert_eq!(m.daemon_downtime_s, (closed * recovery.as_nanos()) as f64 / 1e9);
    assert_eq!(m.daemon_crashes, closed);
}

#[test]
fn open_outage_downtime_counts_to_the_horizon_exactly() {
    // Stop halfway through an outage: the books hold only the closed
    // outages, and the metric adds, for each daemon still down, the
    // horizon minus its crash instant.
    let recovery = SimDur::from_micros_f64(200_000.0);
    let half = SimDur::from_nanos(recovery.as_nanos() / 2);
    let (sim, horizon, closed, open) = run_outages(recovery, |at, closed, down| {
        (closed >= 2 && down.iter().any(|&t| t == Some(at))).then(|| at + half)
    });
    assert!(!open.is_empty() && closed >= 2, "{closed} closed, {} open", open.len());
    let acc = &sim.model.acc;
    assert_eq!(acc.crashes, closed + open.len() as u64);
    assert_eq!(acc.downtime_ns, closed * recovery.as_nanos());
    let open_ns: u64 = open.iter().map(|&t| (horizon - t).as_nanos()).sum();
    let m = sim.model.metrics(horizon - SimTime::ZERO, sim.executed_events());
    let want_ns = closed * recovery.as_nanos() + open_ns;
    assert_eq!(m.daemon_downtime_s, want_ns as f64 / 1e9);
    assert_eq!(m.daemon_crashes, acc.crashes);
}

#[test]
fn sampling_timers_stay_alive_for_run_duration() {
    // Exponential sampling at 40 ms for 2 s over 4 apps: ~200 samples
    // expected; far fewer would mean a dead timer.
    let (model, _) = run_model(SimConfig {
        apps_per_node: 1,
        ..quick(Arch::Now { contention_free: true }, 4)
    });
    let expect = 4.0 * 2.0 / 0.040;
    let got = model.acc.generated_samples as f64;
    assert!(
        got > 0.5 * expect && got < 2.0 * expect,
        "generated {got} vs expected ~{expect}"
    );
}

#[test]
fn main_process_work_lands_on_node_zero_bank() {
    // Step the run: every main-process job any bank holds, running or
    // ready, is in node 0's bank, and main-process work did run there.
    let cfg = quick(Arch::Now { contention_free: true }, 4);
    let end = SimTime::from_secs_f64(cfg.duration_s);
    let mut sim = build(&cfg);
    let mut seen = 0;
    while sim.now() < end && sim.step() {
        for (bank, b) in sim.model.banks.iter().enumerate() {
            for _ in b.jobs().filter(|j| j.class() == ProcessClass::MainParadyn) {
                assert_eq!(bank, 0, "main-process job on bank {bank} at {}", sim.now());
                seen += 1;
            }
        }
    }
    assert!(seen > 0, "no main-process job seen");
    assert!(sim.model.acc.cpu_busy_ns[types::class_idx(ProcessClass::MainParadyn)] > 0);
}

#[test]
fn uninstrumented_run_schedules_no_is_events() {
    let (model, events) = run_model(SimConfig {
        instrumented: false,
        ..quick(Arch::Now { contention_free: true }, 2)
    });
    assert_eq!(model.acc.generated_samples, 0);
    assert_eq!((model.acc.forwarded_batches, model.acc.forwarded_samples), (0, 0));
    assert!(events > 0, "application still runs");
}

#[test]
fn snapshot_round_trips_a_daemon_mid_collect() {
    // BF with batch 8: a collect cycle holds eight pipe slots on its
    // daemon's roster until its CPU work finishes.
    let cfg = SimConfig {
        batch: 8,
        ..quick(Arch::Now { contention_free: true }, 4)
    };
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let mut sim = build(&cfg);
    let mut t = SimTime::ZERO;
    while !sim.model.daemons.iter().any(|d| d.collecting()) {
        t += SimDur::from_micros_f64(50.0);
        assert!(t < horizon, "no daemon was ever caught mid-collect");
        sim.run_until(t);
    }
    let bytes = sim.snapshot_now();
    let restore = |bytes: &[u8]| {
        Sim::restore(RoccModel::new(cfg.clone()), paradyn_des::CalendarKind::Wheel, bytes)
    };
    let mut back = restore(&bytes).expect("restore mid-collect");
    let rosters = |m: &RoccModel| m.daemons.iter().map(|d| d.roster.clone()).collect::<Vec<_>>();
    assert_eq!(rosters(&back.model), rosters(&sim.model));
    assert_eq!(back.snapshot_now(), bytes, "restore is lossless");
    sim.run_until(horizon);
    back.run_until(horizon);
    assert_eq!(back.state_payload(), sim.state_payload());
    assert_eq!(back.model.pipe_slot_violation(), None);
}

#[test]
fn restore_takes_placement_from_the_config() {
    // The frame carries no placement: an app whose owner and node were
    // pushed out of range in memory (4 nodes, so 9 names nothing) seals
    // and restores to the config's placement, and the restored run reaches
    // the horizon. Daemons keep no node at all: each runs on `bank_of(pd)`.
    let cfg = quick(Arch::Now { contention_free: false }, 4);
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let mut sim = build(&cfg);
    sim.run_until(SimTime::from_secs_f64(0.5));
    let placement = |m: &RoccModel| m.apps.iter().map(|a| (a.node, a.pd)).collect::<Vec<_>>();
    let built = placement(&sim.model);
    for a in &mut sim.model.apps {
        (a.node, a.pd) = (9, 9);
    }
    let bytes = sim.snapshot_now();
    let mut back = Sim::restore(RoccModel::new(cfg.clone()), CalendarKind::Wheel, &bytes)
        .expect("placement is not in the frame");
    assert_eq!(placement(&back.model), built);
    back.run_until(horizon);
    assert!(back.model.acc.received_samples > 0);
    assert_eq!(back.model.pipe_slot_violation(), None);
}

#[test]
fn restore_rejects_an_instant_after_the_snapshot_time() {
    // Each case stamps one recorded start instant 1 ns after the clock of
    // an idle 4-node model and seals it as it stands, so the frame's
    // checksum is valid; each such instant is later subtracted from the
    // clock, so restoring it must fail at the door.
    let cfg = SimConfig {
        faults: FaultPlan {
            daemon_crash: Some(DaemonCrashFaults::default()),
            ..FaultPlan::default()
        },
        ..quick(Arch::Now { contention_free: true }, 4)
    };
    let late = SimTime::from_nanos(1);
    let cases: [(&str, &dyn Fn(&mut RoccModel)); 5] = [
        ("outage starts after the snapshot time", &|m| m.daemons[1].down_since = Some(late)),
        ("writer blocked after the snapshot time", &|m| m.apps[2].blocked_since = Some(late)),
        ("pressure cleared after the snapshot time", &|m| {
            m.apps[3].pressure_cleared_at = Some(late)
        }),
        ("parked sample after the snapshot time", &|m| {
            let pipe = &mut m.apps[0].pipe;
            while !pipe.is_full() {
                pipe.deposit(SimTime::ZERO);
            }
            assert_eq!(pipe.deposit(late), crate::pipe::Deposit::WouldBlock);
            m.daemons[0].fifo.extend(vec![(SimTime::ZERO, 0); pipe.occupied()]);
        }),
        ("buffered sample after the snapshot time", &|m| {
            m.apps[1].pipe.deposit(late);
            m.daemons[1].fifo.push_back((late, 1));
        }),
    ];
    for (expected, plant) in cases {
        let mut sim = idle_sim(cfg.clone());
        plant(&mut sim.model);
        assert_eq!(restore_err(&sim), malformed(expected), "{expected}");
    }
}

fn held_batch(count: u8, stage: Stage, holder: u32) -> Batch {
    Batch {
        count: NonZeroU16::new(count.into()).unwrap(),
        stage,
        holder,
        sum_gen_ns: 0,
        ready_ns: 0,
    }
}

/// A model with no `Init` posted: nothing runs but what a test injects.
fn idle_sim(cfg: SimConfig) -> Sim<RoccModel> {
    Sim::with_calendar(RoccModel::new(cfg), CalendarKind::Wheel)
}

/// The batches CPU bank `bank` holds, running or ready.
fn cpu_batches(sim: &Sim<RoccModel>, bank: usize) -> Vec<Batch> {
    let jobs = sim.model.banks[bank].jobs();
    jobs.filter_map(|j| match j.kind {
        CpuKind::Batch(b) => Some(b),
        _ => None,
    })
    .collect()
}

#[test]
fn a_forward_lands_where_its_holder_sends() {
    let tree = quick(
        Arch::Mpp {
            forwarding: Forwarding::BinaryTree,
        },
        7,
    );
    let model = RoccModel::new(tree.clone());
    assert_eq!(model.forward_dest(5), Dest::Node(2));
    assert_eq!(model.forward_dest(2), Dest::Node(0));
    assert_eq!(model.forward_dest(0), Dest::Main);
    let flat = [
        Arch::Now { contention_free: false },
        Arch::Now { contention_free: true },
        Arch::Mpp {
            forwarding: Forwarding::Direct,
        },
    ];
    for arch in flat {
        let model = RoccModel::new(quick(arch, 7));
        for pd in 0..7 {
            assert_eq!(model.forward_dest(pd), Dest::Main, "{arch:?} daemon {pd}");
        }
    }

    // On the tree, node 5's forward becomes a merge held by node 2, and
    // node 0's becomes a receive on the main process's bank.
    let mut sim = idle_sim(tree);
    sim.model.acc.in_batches = 5;
    let forward = Stage::Forward { attempts: 0 };
    sim.ctx().post_at(SimTime::ZERO, Ev::Deliver(NetJob::Forward(held_batch(2, forward, 5))));
    sim.ctx().post_at(SimTime::ZERO, Ev::Deliver(NetJob::Forward(held_batch(3, forward, 0))));
    sim.run_until(SimTime::from_nanos(1));
    let merge = cpu_batches(&sim, 2);
    assert_eq!(merge.len(), 1);
    assert_eq!((merge[0].stage, merge[0].holder, merge[0].count.get()), (Stage::Merge, 2, 2));
    let receive = cpu_batches(&sim, 0);
    assert_eq!(receive.len(), 1);
    assert_eq!(
        (receive[0].stage, receive[0].holder, receive[0].count.get()),
        (Stage::Receive, 0, 3)
    );
    assert_eq!(RoccModel::in_batch_violation(&mut sim), None);
}

#[test]
fn a_retried_forward_keeps_its_holder_until_its_retries_run_out() {
    // Every forward attempt fails: each batch is retried `max_retries`
    // times by the daemon that collected it, then dropped.
    let max_retries = 3;
    let cfg = SimConfig {
        faults: FaultPlan {
            link: Some(LinkFaults {
                fail_prob: 1.0,
                max_retries,
                backoff_base_us: 200.0,
            }),
            ..Default::default()
        },
        duration_s: 0.5,
        ..quick(Arch::Now { contention_free: true }, 4)
    };
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let mut sim = build(&cfg);
    // Each retried batch, keyed by its generation stamps: its holder and
    // the most attempts seen.
    let mut seen: HashMap<(u64, u64), (u32, u8)> = HashMap::new();
    let mut pending = vec![];
    while sim.now() < horizon && sim.step() {
        pending.clear();
        sim.ctx().for_each_pending(|ev| {
            if let Ev::RetryForward { batch, .. } = *ev {
                pending.push(batch);
            }
        });
        for b in &pending {
            let Stage::Forward { attempts } = b.stage else {
                panic!("a retry outside its forward stage: {b:?}");
            };
            assert!((1..=max_retries as u8).contains(&attempts), "{b:?}");
            let key = (b.ready_ns, b.sum_gen_ns);
            let entry = seen.entry(key).or_insert((b.holder, attempts));
            assert_eq!(entry.0, b.holder, "a retry changed holder: {b:?}");
            assert!(attempts >= entry.1, "attempts went down: {b:?}");
            entry.1 = attempts;
        }
        if let Some(v) = RoccModel::in_batch_violation(&mut sim) {
            panic!("at {:?}: {v}", sim.now());
        }
    }
    let m = &sim.model;
    let forwarded = m.acc.forwarded_batches;
    let dropped = forwarded - pending.len() as u64;
    let pending_attempts: u64 = pending
        .iter()
        .map(|b| match b.stage {
            Stage::Forward { attempts } => u64::from(attempts),
            _ => 0,
        })
        .sum();
    assert!(dropped > 20, "only {dropped} batches dropped");
    assert_eq!(m.acc.retries, u64::from(max_retries) * dropped + pending_attempts);
    assert_eq!(m.acc.received_samples, 0);
    let pending_samples: u64 = pending.iter().map(|b| u64::from(b.count.get())).sum();
    assert_eq!(m.acc.in_batches, pending_samples);
    let metrics = m.metrics(horizon - SimTime::ZERO, sim.executed_events());
    assert!(metrics.lost_link > 0);
    assert_eq!(
        metrics.emitted_samples,
        metrics.received_samples
            + metrics.samples_lost
            + metrics.shed_samples
            + metrics.samples_in_flight,
        "conservation"
    );
}

#[test]
fn batches_held_walks_every_carrier() {
    // Shared Ethernet, so a forward can wait in the FCFS queue. Batches
    // go into every carrier by hand (counts 1..=7); other jobs and events
    // ride beside them and must be skipped.
    let mut sim = idle_sim(quick(Arch::Now { contention_free: false }, 4));
    let us = SimDur::from_micros_f64;
    let cpu = |b| CpuJob {
        kind: CpuKind::Batch(b),
    };
    let forward = Stage::Forward { attempts: 0 };
    let m = &mut sim.model;
    m.banks[0].submit(cpu(held_batch(1, Stage::Receive, 3)), us(100.0));
    // Queued behind the receive, in node 0's ready queue.
    m.banks[0].submit(cpu(held_batch(2, Stage::Collect, 0)), us(100.0));
    m.banks[1].submit(CpuJob { kind: CpuKind::AppCompute { app: 0 } }, us(100.0));
    m.banks[2].submit(cpu(held_batch(3, Stage::Merge, 2)), us(100.0));
    let net = m.shared_net.as_mut().expect("shared Ethernet");
    net.submit(NetJob::Forward(held_batch(4, forward, 1)), us(100.0));
    net.submit(NetJob::AppComm { app: 1 }, us(100.0));
    net.submit(NetJob::Forward(held_batch(5, forward, 2)), us(100.0));
    m.acc.in_batches = (1..=7).sum();
    let ctx = sim.ctx();
    ctx.post_at(SimTime::ZERO, Ev::Deliver(NetJob::Forward(held_batch(6, forward, 3))));
    let retry = held_batch(7, Stage::Forward { attempts: 2 }, 1);
    ctx.post_at(SimTime::ZERO, Ev::RetryForward { batch: retry, demand_us: 1.0 });
    ctx.post_at(SimTime::ZERO, Ev::Sample { app: 0 });
    let mut counts: Vec<u64> =
        RoccModel::batches_held(&mut sim).iter().map(|b| u64::from(b.count.get())).collect();
    counts.sort_unstable();
    assert_eq!(counts, (1..=7).collect::<Vec<u64>>());
    assert_eq!(RoccModel::in_batch_violation(&mut sim), None);
    sim.model.acc.in_batches += 1;
    assert_eq!(
        RoccModel::in_batch_violation(&mut sim).as_deref(),
        Some("in-batch count 29 but batches hold 28")
    );
}

#[test]
fn restore_rejects_a_carrier_naming_what_the_config_lacks() {
    // Each case puts one bad job or event on an idle 4-node model (so a
    // holder, app, node or bank of 4 is out of range) and seals the model
    // as it stands, so the frame's checksum is valid.
    let ethernet = quick(Arch::Now { contention_free: false }, 4);
    let free = quick(Arch::Now { contention_free: true }, 4);
    let job = "CPU job names an entity the config lacks";
    let net = "network job names an entity the config lacks";
    let event = "pending event names an entity the config lacks";
    let post = |sim: &mut Sim<RoccModel>, ev| sim.ctx().post_at(SimTime::ZERO, ev);
    let cases: [(&str, &SimConfig, &dyn Fn(&mut Sim<RoccModel>), &str); 9] = [
        (
            "RR bank job",
            &ethernet,
            &|sim| {
                let batch = CpuJob {
                    kind: CpuKind::Batch(held_batch(1, Stage::Collect, 4)),
                };
                sim.model.banks[0].submit(batch, SimDur::from_micros_f64(100.0));
            },
            job,
        ),
        (
            "FCFS job",
            &ethernet,
            &|sim| {
                let server = sim.model.shared_net.as_mut().expect("shared Ethernet");
                server.submit(NetJob::AppComm { app: 4 }, SimDur::from_micros_f64(100.0));
            },
            net,
        ),
        (
            "pending Deliver",
            &ethernet,
            &|sim| {
                let forward = held_batch(1, Stage::Forward { attempts: 0 }, 4);
                post(sim, Ev::Deliver(NetJob::Forward(forward)));
            },
            event,
        ),
        (
            "pending RetryForward",
            &ethernet,
            &|sim| {
                let batch = held_batch(1, Stage::Forward { attempts: 1 }, 4);
                post(sim, Ev::RetryForward { batch, demand_us: 1.0 });
            },
            event,
        ),
        ("pending Sample", &ethernet, &|sim| post(sim, Ev::Sample { app: 4 }), event),
        ("pending Slice", &ethernet, &|sim| post(sim, Ev::Slice { bank: 4, cpu: 0 }), event),
        ("NetDone without a shared network", &free, &|sim| post(sim, Ev::NetDone), event),
        ("MainStall without stalls", &free, &|sim| post(sim, Ev::MainStall), event),
        ("crash without a crash plan", &free, &|sim| post(sim, Ev::DaemonCrash { pd: 0 }), event),
    ];
    for (what, cfg, plant, expected) in cases {
        let mut sim = idle_sim(cfg.clone());
        plant(&mut sim);
        assert_eq!(restore_err(&sim), malformed(expected), "{what}");
    }
}

#[test]
fn restore_rejects_an_adapt_tick() {
    // Nothing schedules `AdaptTick`, so a frame that carries one (tag 9)
    // was not written by this model.
    let mut sim = idle_sim(quick(Arch::Now { contention_free: false }, 4));
    sim.ctx().post_at(SimTime::ZERO, Ev::AdaptTick { pd: 0 });
    assert_eq!(restore_err(&sim), malformed("Ev tag"));
}

/// Seal `sim` as it stands and restore the frame into a fresh model of
/// the same config.
fn restore_err(sim: &Sim<RoccModel>) -> Option<paradyn_des::SnapError> {
    let fresh = RoccModel::new(sim.model.cfg.clone());
    Sim::restore(fresh, CalendarKind::Wheel, &sim.snapshot_now()).err()
}

fn malformed(what: &'static str) -> Option<paradyn_des::SnapError> {
    Some(paradyn_des::SnapError::Malformed(what))
}
