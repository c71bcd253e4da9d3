//! A bank of identical CPUs scheduled round-robin with a fixed quantum,
//! as a pure state machine (no events owned).
//!
//! This models the Unix scheduler abstraction of the paper's ROCC model: all
//! runnable processes on a node share a single ready queue; a dispatched
//! process runs for `min(quantum, remaining demand)` and is then either
//! finished or preempted to the queue tail.
//!
//! Event discipline: each dispatch returns the slice length; the model
//! schedules exactly one slice-end event per dispatch. Because arrivals never
//! preempt a running slice, a slice-end event is never stale — the invariant
//! is one pending slice event per busy CPU.

use crate::fifo::Fifo;
use crate::monitor::BusyTime;
use crate::time::SimDur;

/// Result of submitting a job to the bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submit {
    /// An idle CPU picked the job up; a slice of the returned length starts
    /// now on CPU `cpu`. The model must schedule the slice-end event.
    Dispatched {
        /// The CPU the job was dispatched to.
        cpu: usize,
        /// Length of the started slice.
        slice: SimDur,
    },
    /// All CPUs busy; job queued at the returned depth.
    Queued(usize),
}

/// What happened when a slice ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceEnd<J> {
    /// The job whose slice just ended (a copy, for attribution).
    pub job: J,
    /// CPU time consumed by this slice.
    pub ran: SimDur,
    /// True if the job's demand is fully served.
    pub completed: bool,
    /// If the CPU immediately dispatched another job (possibly the same one),
    /// the length of its slice; the model must schedule its slice-end event.
    pub next_slice: Option<SimDur>,
}

struct Running<J> {
    job: J,
    remaining: SimDur,
    slice: SimDur,
}

/// The CPU bank.
pub struct RrCpuBank<J> {
    quantum: SimDur,
    running: Vec<Option<Running<J>>>,
    ready: Fifo<(J, SimDur)>,
    busy: BusyTime,
    completed: u64,
}

impl<J: Copy> RrCpuBank<J> {
    /// A bank of `cpus` identical processors with the given quantum.
    ///
    /// # Panics
    /// Panics if `cpus == 0` or the quantum is zero.
    pub fn new(cpus: usize, quantum: SimDur) -> Self {
        assert!(cpus > 0, "need at least one CPU");
        assert!(!quantum.is_zero(), "quantum must be positive");
        RrCpuBank {
            quantum,
            running: (0..cpus).map(|_| None).collect(),
            ready: Fifo::new(),
            busy: BusyTime::new(),
            completed: 0,
        }
    }

    /// Number of CPUs in the bank.
    pub fn cpus(&self) -> usize {
        self.running.len()
    }

    /// Submit a job with the given total CPU demand.
    pub fn submit(&mut self, job: J, demand: SimDur) -> Submit {
        if let Some(cpu) = self.running.iter().position(Option::is_none) {
            let slice = self.dispatch(cpu, job, demand);
            Submit::Dispatched { cpu, slice }
        } else {
            self.ready.push_back((job, demand));
            Submit::Queued(self.ready.len() - 1)
        }
    }

    fn dispatch(&mut self, cpu: usize, job: J, remaining: SimDur) -> SimDur {
        let slice = remaining.min(self.quantum);
        self.busy.add(slice);
        self.running[cpu] = Some(Running {
            job,
            remaining,
            slice,
        });
        slice
    }

    /// The slice on `cpu` ended. Decides completion vs. preemption and
    /// dispatches the next ready job, if any.
    ///
    /// # Panics
    /// Panics if `cpu` was idle (a slice event without a dispatch is a model
    /// bug).
    pub fn slice_end(&mut self, cpu: usize) -> SliceEnd<J> {
        let r = self.running[cpu]
            .take()
            .expect("RrCpuBank::slice_end on idle cpu");
        let remaining = r.remaining - r.slice;
        if remaining.is_zero() {
            self.completed += 1;
            let next_slice = self
                .ready
                .pop_front()
                .map(|(j, rem)| self.dispatch(cpu, j, rem));
            SliceEnd {
                job: r.job,
                ran: r.slice,
                completed: true,
                next_slice,
            }
        } else {
            // Preempted: requeue at the tail, dispatch the head — this very
            // job if the queue was empty, which then never enters it.
            let (j, rem) = match self.ready.pop_front() {
                Some(head) => {
                    self.ready.push_back((r.job, remaining));
                    head
                }
                None => (r.job, remaining),
            };
            let slice = self.dispatch(cpu, j, rem);
            SliceEnd {
                job: r.job,
                ran: r.slice,
                completed: false,
                next_slice: Some(slice),
            }
        }
    }

    /// Number of jobs waiting in the ready queue.
    // lint:allow(dead-pub): the round-robin property in tests/properties.rs
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Ready-queue entries allocated, waiting or not (see
    /// [`Fifo::allocated`]).
    // lint:allow(dead-pub): the queue-storage bound in paradyn-core's model tests
    pub fn ready_allocated(&self) -> usize {
        self.ready.allocated()
    }

    /// Every job held, running ones first (by CPU), then the ready queue
    /// in order.
    pub fn jobs(&self) -> impl Iterator<Item = J> + '_ {
        let running = self.running.iter().flatten().map(|r| r.job);
        running.chain(self.ready.iter().map(|(j, _)| j))
    }

    /// Total CPU time dispensed (all CPUs combined).
    // lint:allow(dead-pub): the round-robin property in tests/properties.rs
    pub fn busy_total(&self) -> SimDur {
        self.busy.total()
    }

    /// Average per-CPU utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimDur) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            self.busy.total().as_nanos() as f64
                / (horizon.as_nanos() as f64 * self.cpus() as f64)
        }
    }

    /// Number of jobs fully served.
    // lint:allow(dead-pub): the round-robin property in tests/properties.rs
    pub fn completed_jobs(&self) -> u64 {
        self.completed
    }
}

impl<J: Copy + crate::snapshot::Persist> crate::snapshot::Persist for RrCpuBank<J> {
    fn save(&self, w: &mut crate::snapshot::Enc) {
        self.quantum.save(w);
        w.put_usize(self.running.len());
        for slot in &self.running {
            match slot {
                None => w.put_u8(0),
                Some(run) => {
                    w.put_u8(1);
                    run.job.save(w);
                    run.remaining.save(w);
                    run.slice.save(w);
                }
            }
        }
        self.ready.save(w);
        self.busy.save(w);
        w.put_u64(self.completed);
    }
    fn load(
        r: &mut crate::snapshot::Dec<'_>,
    ) -> Result<Self, crate::snapshot::SnapError> {
        use crate::snapshot::{Persist, SnapError};
        let quantum: SimDur = Persist::load(r)?;
        if quantum.is_zero() {
            return Err(SnapError::Malformed("RrCpuBank zero quantum"));
        }
        let cpus = r.take_usize()?;
        if cpus == 0 {
            return Err(SnapError::Malformed("RrCpuBank with zero CPUs"));
        }
        let mut running = Vec::with_capacity(cpus.min(4096));
        for _ in 0..cpus {
            running.push(match r.take_u8()? {
                0 => None,
                1 => Some(Running {
                    job: J::load(r)?,
                    remaining: Persist::load(r)?,
                    slice: Persist::load(r)?,
                }),
                _ => return Err(SnapError::Malformed("RrCpuBank running tag")),
            });
        }
        Ok(RrCpuBank {
            quantum,
            running,
            ready: Persist::load(r)?,
            busy: Persist::load(r)?,
            completed: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: f64) -> SimDur {
        SimDur::from_micros_f64(x)
    }

    #[test]
    fn short_job_runs_in_one_slice() {
        let mut b = RrCpuBank::new(1, us(10_000.0));
        match b.submit(7u32, us(2_213.0)) {
            Submit::Dispatched { cpu, slice } => {
                assert_eq!(cpu, 0);
                assert_eq!(slice, us(2_213.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = b.slice_end(0);
        assert!(e.completed);
        assert_eq!(e.job, 7);
        assert_eq!(e.ran, us(2_213.0));
        assert_eq!(e.next_slice, None);
        assert_eq!(b.completed_jobs(), 1);
    }

    #[test]
    fn long_job_is_preempted_each_quantum() {
        let mut b = RrCpuBank::new(1, us(10.0));
        b.submit(1u32, us(25.0));
        let e1 = b.slice_end(0);
        assert!(!e1.completed);
        assert_eq!(e1.ran, us(10.0));
        assert_eq!(e1.next_slice, Some(us(10.0))); // same job redispatches
        let e2 = b.slice_end(0);
        assert!(!e2.completed);
        let e3 = b.slice_end(0);
        assert!(e3.completed);
        assert_eq!(e3.ran, us(5.0));
        assert_eq!(b.busy_total(), us(25.0));
    }

    #[test]
    fn round_robin_interleaves_two_jobs() {
        let mut b = RrCpuBank::new(1, us(10.0));
        b.submit(1u32, us(20.0));
        assert_eq!(b.submit(2u32, us(10.0)), Submit::Queued(0));
        // Slice 1: job 1 preempted, job 2 dispatched.
        let e = b.slice_end(0);
        assert_eq!((e.job, e.completed), (1, false));
        // Slice 2: job 2 completes; job 1 redispatches.
        let e = b.slice_end(0);
        assert_eq!((e.job, e.completed), (2, true));
        assert_eq!(e.next_slice, Some(us(10.0)));
        // Slice 3: job 1 completes.
        let e = b.slice_end(0);
        assert_eq!((e.job, e.completed), (1, true));
    }

    #[test]
    fn multi_cpu_fills_idle_cpus_first() {
        let mut b = RrCpuBank::new(2, us(10.0));
        assert!(matches!(b.submit(1u32, us(5.0)), Submit::Dispatched { cpu: 0, .. }));
        assert!(matches!(b.submit(2u32, us(5.0)), Submit::Dispatched { cpu: 1, .. }));
        assert_eq!(b.submit(3u32, us(5.0)), Submit::Queued(0));
        let e = b.slice_end(0);
        assert!(e.completed);
        assert_eq!(e.next_slice, Some(us(5.0))); // job 3 starts on cpu 0
    }

    #[test]
    fn utilization_counts_all_cpus() {
        let mut b = RrCpuBank::new(2, us(100.0));
        b.submit(1u32, us(50.0));
        b.slice_end(0);
        // 50us of work over 2 CPUs * 100us horizon = 25%.
        assert!((b.utilization(us(100.0)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_demand_job_completes_immediately() {
        let mut b = RrCpuBank::new(1, us(10.0));
        match b.submit(1u32, SimDur::ZERO) {
            Submit::Dispatched { slice, .. } => assert_eq!(slice, SimDur::ZERO),
            other => panic!("unexpected {other:?}"),
        }
        let e = b.slice_end(0);
        assert!(e.completed);
        assert_eq!(e.ran, SimDur::ZERO);
    }

    #[test]
    #[should_panic(expected = "idle")]
    fn slice_end_on_idle_cpu_panics() {
        let mut b: RrCpuBank<u32> = RrCpuBank::new(1, us(10.0));
        b.slice_end(0);
    }

    #[test]
    fn conservation_of_demand() {
        // Property-style check: total dispensed CPU equals total demand.
        let mut b = RrCpuBank::new(3, us(7.0));
        let demands = [13.0, 1.0, 29.0, 7.0, 14.0, 3.5, 100.0];
        let mut pending: Vec<(usize, SimDur)> = vec![];
        for (i, &d) in demands.iter().enumerate() {
            match b.submit(i as u32, us(d)) {
                Submit::Dispatched { cpu, slice } => pending.push((cpu, slice)),
                Submit::Queued(_) => {}
            }
        }
        // Drive slices to completion in a simple queue order.
        let mut done = 0;
        while done < demands.len() {
            let (cpu, _) = pending.remove(0);
            let e = b.slice_end(cpu);
            if e.completed {
                done += 1;
            }
            if let Some(s) = e.next_slice {
                pending.push((cpu, s));
            }
        }
        let total: f64 = demands.iter().sum();
        assert!((b.busy_total().as_micros_f64() - total).abs() < 1e-6);
        assert_eq!(b.completed_jobs(), demands.len() as u64);
        assert_eq!(b.ready_len(), 0);
    }
}
