//! Property-based tests on the core data structures and invariants across
//! the workspace, running on the in-tree `paradyn_stats::check` harness
//! (hermetic build: no proptest). Rerun a reported failure with
//! `PARADYN_PROP_SEED=<seed> cargo test <property name>`.

use paradyn_core::pipe::{Deposit, OverflowPolicy, Pipe};
use paradyn_des::{FcfsServer, Offer, RrCpuBank, SimDur, SimTime, Submit};
use paradyn_stats::{check, Design2kr, Rv, SplitMix64};
use paradyn_stats::{prop_assert, prop_assert_eq, prop_assume};
use paradyn_workload::{ProcessClass, Resource, Trace, TraceRecord};

/// SimTime arithmetic: (t + d) - t == d, ordering is consistent.
#[test]
fn time_add_sub_roundtrip() {
    check("time_add_sub_roundtrip", |g| {
        let t = g.u64_in(0, u64::MAX / 4);
        let d = g.u64_in(0, u64::MAX / 4);
        let base = SimTime::from_nanos(t);
        let dur = SimDur::from_nanos(d);
        prop_assert_eq!(((base + dur) - base).as_nanos(), d);
        prop_assert!(base + dur >= base);
        Ok(())
    });
}

/// Round-robin CPU bank conserves demand: the slices that ran (what the
/// model books as busy time) add up to the total submitted demand, and
/// every job completes exactly once — under any demand mix, CPU count, and
/// quantum.
#[test]
fn rr_bank_conserves_demand() {
    check("rr_bank_conserves_demand", |g| {
        let demands = g.vec_u64(1, 40, 1, 2_000_000);
        let cpus = g.usize_in(1, 5);
        let quantum_us = g.u64_in(1, 20_000);
        let mut bank = RrCpuBank::new(cpus, SimDur::from_nanos(quantum_us * 1_000));
        let mut pending: Vec<usize> = vec![]; // cpus with a live slice
        for (i, &d) in demands.iter().enumerate() {
            match bank.submit(i as u32, SimDur::from_nanos(d)) {
                Submit::Dispatched { cpu, .. } => pending.push(cpu),
                Submit::Queued(_) => {}
            }
        }
        let mut completed = vec![false; demands.len()];
        let mut ran = 0u64;
        let mut guard = 0u64;
        while let Some(cpu) = pending.pop() {
            guard += 1;
            prop_assert!(guard < 10_000_000, "livelock");
            let e = bank.slice_end(cpu);
            ran += e.ran.as_nanos();
            if e.completed {
                prop_assert!(!completed[e.job as usize], "double completion");
                completed[e.job as usize] = true;
            }
            if e.next_slice.is_some() {
                pending.push(cpu);
            }
        }
        prop_assert!(completed.iter().all(|&c| c));
        let total: u64 = demands.iter().sum();
        prop_assert_eq!(ran, total);
        prop_assert_eq!(bank.ready_len(), 0);
        Ok(())
    });
}

/// FCFS server: jobs complete in submission order, and the clock driven by
/// the spans it starts (its busy time) ends at the sum of service demands.
#[test]
fn fcfs_is_fifo_and_conserves_service() {
    check("fcfs_is_fifo_and_conserves_service", |g| {
        let services = g.vec_u64(1, 30, 1, 1_000_000);
        let mut s = FcfsServer::new();
        let mut clock = SimTime::ZERO;
        let mut next_end: Option<SimDur> = None;
        for (i, &svc) in services.iter().enumerate() {
            match s.submit(i as u32, SimDur::from_nanos(svc)) {
                Offer::Started(d) => next_end = Some(d),
                Offer::Queued(_) => {}
            }
        }
        let mut order = vec![];
        while let Some(d) = next_end {
            clock += d;
            let (job, next) = s.complete();
            order.push(job);
            next_end = next;
        }
        prop_assert_eq!(order, (0..services.len() as u32).collect::<Vec<_>>());
        let total: u64 = services.iter().sum();
        prop_assert_eq!(clock.as_nanos(), total);
        prop_assert!(!s.is_busy());
        Ok(())
    });
}

/// Pipe: occupancy never exceeds capacity under arbitrary operation
/// sequences, and a parked sample is admitted exactly once.
#[test]
fn pipe_never_overflows() {
    check("pipe_never_overflows", |g| {
        let capacity = g.usize_in(1, 16);
        let ops = g.vec_bool(1, 200);
        let mut p = Pipe::new(capacity);
        let mut admitted = 0u64;
        let mut parked = false;
        for (i, op) in ops.into_iter().enumerate() {
            let t = SimTime::from_nanos(i as u64 + 1);
            if op {
                // Deposit (only legal when the writer is not blocked).
                if !p.writer_blocked() {
                    match p.deposit(t) {
                        Deposit::Accepted => admitted += 1,
                        Deposit::WouldBlock => parked = true,
                        other => prop_assert!(false, "Block pipe returned {other:?}"),
                    }
                }
            } else if p.occupied() > 0 && p.drain().is_some() {
                admitted += 1;
                parked = false;
            }
            prop_assert!(p.occupied() <= capacity);
            prop_assert_eq!(p.writer_blocked(), parked);
        }
        prop_assert!(admitted as usize >= p.occupied());
        Ok(())
    });
}

/// Every overflow policy conserves samples: accepted deposit attempts
/// equal drains + losses + occupancy + the parked sample, at every step of
/// an arbitrary operation sequence.
#[test]
fn pipe_conserves_samples_under_every_policy() {
    check("pipe_conserves_samples_under_every_policy", |g| {
        let policies = [
            OverflowPolicy::Block,
            OverflowPolicy::DropNewest,
            OverflowPolicy::DropOldest,
        ];
        let policy = *g.choice(&policies);
        let capacity = g.usize_in(1, 16);
        let ops = g.vec_bool(1, 300);
        let mut p = Pipe::with_policy(capacity, policy);
        let mut generated = 0u64;
        let mut delivered = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            let t = SimTime::from_nanos(i as u64 + 1);
            if op {
                match p.deposit(t) {
                    // A rejected double-deposit never entered the pipe.
                    Deposit::AlreadyBlocked => {}
                    _ => generated += 1,
                }
            } else if p.occupied() > 0 {
                p.drain();
                delivered += 1;
            }
            let in_flight = p.occupied() as u64 + u64::from(p.writer_blocked());
            prop_assert_eq!(generated, delivered + p.lost() + in_flight);
            prop_assert!(p.occupied() <= capacity);
            if policy != OverflowPolicy::Block {
                prop_assert!(!p.writer_blocked(), "lossy policy blocked the writer");
                prop_assert_eq!(p.blocked_deposits(), 0);
            }
        }
        Ok(())
    });
}

/// Capacity-1 pipes under the lossy policies: the degenerate single-slot
/// edge where every overflowing deposit competes with the only queued
/// sample. DropNewest discards the newcomer, DropOldest replaces the sole
/// occupant — either way occupancy stays pinned at one, nothing blocks,
/// and loss grows by exactly one per overflowing deposit.
#[test]
fn capacity_one_lossy_pipes_pin_occupancy() {
    check("capacity_one_lossy_pipes_pin_occupancy", |g| {
        let policy = *g.choice(&[OverflowPolicy::DropNewest, OverflowPolicy::DropOldest]);
        let ops = g.vec_bool(1, 200);
        let mut p = Pipe::with_policy(1, policy);
        let mut lost = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            let t = SimTime::from_nanos(i as u64 + 1);
            if op {
                let was_full = p.is_full();
                let r = p.deposit(t);
                if was_full {
                    lost += 1;
                    let want = match policy {
                        OverflowPolicy::DropNewest => Deposit::DroppedNewest,
                        _ => Deposit::DroppedOldest,
                    };
                    prop_assert_eq!(r, want);
                    prop_assert_eq!(p.occupied(), 1);
                } else {
                    prop_assert_eq!(r, Deposit::Accepted);
                }
            } else if p.occupied() > 0 {
                prop_assert_eq!(p.drain(), None);
            }
            prop_assert!(!p.writer_blocked(), "lossy capacity-1 pipe blocked");
            prop_assert!(p.occupied() <= 1);
            prop_assert_eq!(p.lost(), lost);
            prop_assert_eq!(p.blocked_deposits(), 0);
            prop_assert_eq!(p.rejected_deposits(), 0);
        }
        Ok(())
    });
}

/// Block policy with the writer resumed within the same timestamp batch:
/// a drain at the very timestamp the writer parked at admits the parked
/// sample immediately, and the resumed writer's next deposit at that same
/// time parks again (never `AlreadyBlocked`) — the exact sequence the
/// event loop performs when a drain and a sampling tick share a timestamp.
#[test]
fn blocked_writer_resumes_within_same_timestamp_batch() {
    check("blocked_writer_resumes_within_same_timestamp_batch", |g| {
        let capacity = g.usize_in(1, 9);
        let t = SimTime::from_nanos(g.u64_in(1, 1_000_000));
        let mut p = Pipe::new(capacity);
        for _ in 0..capacity {
            prop_assert_eq!(p.deposit(t), Deposit::Accepted);
        }
        prop_assert_eq!(p.deposit(t), Deposit::WouldBlock);
        prop_assert!(p.writer_blocked());
        // Drain at the SAME timestamp: the parked sample takes the slot
        // and carries its original generation time.
        prop_assert_eq!(p.drain(), Some(t));
        prop_assert!(!p.writer_blocked());
        prop_assert_eq!(p.occupied(), capacity);
        // The resumed writer deposits again in the same batch: the pipe is
        // full again, so it parks again rather than being rejected.
        prop_assert_eq!(p.deposit(t), Deposit::WouldBlock);
        prop_assert_eq!(p.blocked_deposits(), 2);
        prop_assert_eq!(p.drain(), Some(t));
        // Drain dry: no further parked admissions, occupancy steps down.
        let mut drains = 0usize;
        while p.occupied() > 0 {
            prop_assert_eq!(p.drain(), None);
            drains += 1;
        }
        prop_assert_eq!(drains, capacity);
        prop_assert_eq!(p.lost(), 0);
        prop_assert_eq!(p.rejected_deposits(), 0);
        Ok(())
    });
}

/// Rv quantile inverts the cdf for every family and parameter choice.
#[test]
fn quantile_inverts_cdf() {
    check("quantile_inverts_cdf", |g| {
        let mean = g.f64_in(1.0, 1e5);
        let cv = g.f64_in(0.05, 3.0);
        let p = g.f64_in(0.001, 0.999);
        for rv in [
            Rv::exp(mean),
            Rv::lognormal_mean_std(mean, mean * cv),
            Rv::weibull(0.5 + cv, mean),
        ] {
            let x = rv.quantile(p);
            prop_assert!((rv.cdf(x) - p).abs() < 1e-6, "{rv:?} p={p}");
        }
        Ok(())
    });
}

/// Samples from any Rv are non-negative and finite.
#[test]
fn samples_are_physical() {
    check("samples_are_physical", |g| {
        let seed = g.u64_in(0, u64::MAX);
        let mean = g.f64_in(1.0, 1e6);
        let mut rng = SplitMix64(seed);
        for rv in [Rv::exp(mean), Rv::lognormal_mean_std(mean, mean)] {
            for _ in 0..100 {
                let x = rv.sample(&mut rng);
                prop_assert!(x.is_finite() && x >= 0.0);
            }
        }
        Ok(())
    });
}

/// 2^k factorial: explained percentages always total 100.
#[test]
fn factorial_variation_totals_hundred() {
    check("factorial_variation_totals_hundred", |g| {
        let ys = g.vec_f64(8, 9, 0.0, 1e3);
        let reps = g.vec_f64(8, 9, 0.0, 10.0);
        let mut d = Design2kr::new(vec!["a", "b", "c"]);
        let mut nontrivial = false;
        for cfg in 0..8usize {
            let base = ys[cfg];
            let jitter = reps[cfg];
            d.set_responses(cfg, vec![base, base + jitter]);
            if base != 0.0 || jitter != 0.0 {
                nontrivial = true;
            }
        }
        prop_assume!(nontrivial);
        let v = d.analyze();
        let total: f64 = v.terms.iter().map(|t| t.pct).sum::<f64>() + v.sse_pct;
        prop_assert!((total - 100.0).abs() < 1e-6 || v.sst == 0.0);
        for t in &v.terms {
            prop_assert!(t.pct >= -1e-12);
        }
        Ok(())
    });
}

/// Trace codec: arbitrary records survive a write/read round trip.
#[test]
fn trace_codec_roundtrip() {
    check("trace_codec_roundtrip", |g| {
        let classes = ProcessClass::ALL;
        let records: Vec<TraceRecord> = g.vec_of(1, 50, |g| {
            let t = g.f64_in(0.0, 1e9);
            let pid = g.u64_in(0, 64) as u32;
            let class = *g.choice(&classes);
            let is_cpu = g.bool();
            let occ = g.f64_in(0.001, 1e7);
            TraceRecord {
                t_us: (t * 1e3).round() / 1e3,
                pid,
                class,
                resource: if is_cpu { Resource::Cpu } else { Resource::Network },
                occupancy_us: (occ * 1e3).round() / 1e3,
            }
        });
        let t = Trace::from_records(records);
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("write");
        let t2 = Trace::read_from(&buf[..]).expect("read");
        prop_assert_eq!(t.len(), t2.len());
        for (a, b) in t.records().iter().zip(t2.records()) {
            prop_assert_eq!(a.class, b.class);
            prop_assert_eq!(a.resource, b.resource);
            prop_assert_eq!(a.pid, b.pid);
            prop_assert!((a.t_us - b.t_us).abs() < 5e-4);
            prop_assert!((a.occupancy_us - b.occupancy_us).abs() < 5e-4);
        }
        Ok(())
    });
}
