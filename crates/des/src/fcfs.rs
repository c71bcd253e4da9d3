//! A first-come-first-served single server as a pure state machine.
//!
//! The server owns no events; the model schedules one completion event per
//! started service, so the invariant is: the server is busy **iff** exactly
//! one completion event for it is pending. This keeps the component directly
//! unit- and property-testable without an event loop.

use crate::fifo::Fifo;
use crate::snapshot::{Dec, Enc, Persist, SnapError};
use crate::time::SimDur;

/// Result of offering a job to the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// The server was idle; service starts now and completes after the
    /// returned span. The model must schedule the completion event.
    Started(SimDur),
    /// The server was busy; the job was queued at the returned depth
    /// (0 = next in line).
    Queued(usize),
}

/// A job with its service demand, in service or waiting.
#[derive(Clone, Copy)]
struct Entry<J> {
    job: J,
    service: SimDur,
}

/// FCFS single server with unbounded queue.
pub struct FcfsServer<J> {
    current: Option<Entry<J>>,
    queue: Fifo<Entry<J>>,
}

impl<J: Copy> Default for FcfsServer<J> {
    fn default() -> Self {
        Self::new()
    }
}

impl<J: Copy> FcfsServer<J> {
    /// An idle server with an empty queue.
    pub fn new() -> Self {
        FcfsServer {
            current: None,
            queue: Fifo::new(),
        }
    }

    /// Offer `job` with the given service demand.
    pub fn submit(&mut self, job: J, service: SimDur) -> Offer {
        let entry = Entry { job, service };
        if self.current.is_none() {
            self.current = Some(entry);
            Offer::Started(service)
        } else {
            self.queue.push_back(entry);
            Offer::Queued(self.queue.len() - 1)
        }
    }

    /// The pending service completed. Returns the finished job and — if
    /// the queue was non-empty — the service span of the next job, whose
    /// completion the model must schedule.
    ///
    /// # Panics
    /// Panics if the server was idle (a completion event without a started
    /// service is a model bug).
    pub fn complete(&mut self) -> (J, Option<SimDur>) {
        let finished = self
            .current
            .take()
            .expect("FcfsServer::complete called while idle");
        self.current = self.queue.pop_front();
        let next = self.current.map(|entry| entry.service);
        (finished.job, next)
    }

    /// Whether a service is in progress.
    // lint:allow(dead-pub): the FCFS property in tests/properties.rs
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }

    /// Number of jobs waiting (excludes the one in service).
    // lint:allow(dead-pub): the Ethernet-backlog bound in paradyn-core's model tests
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Queue entries allocated, waiting or not (see [`Fifo::allocated`]).
    // lint:allow(dead-pub): the queue-storage bound in paradyn-core's model tests
    pub fn queue_allocated(&self) -> usize {
        self.queue.allocated()
    }

    /// Every job held, in service first, then waiting in queue order.
    pub fn jobs(&self) -> impl Iterator<Item = J> + '_ {
        let current = self.current.iter().map(|e| e.job);
        current.chain(self.queue.iter().map(|e| e.job))
    }
}

impl<J: Persist> Persist for Entry<J> {
    fn save(&self, w: &mut Enc) {
        self.job.save(w);
        self.service.save(w);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(Entry {
            job: J::load(r)?,
            service: Persist::load(r)?,
        })
    }
}

impl<J: Copy + Persist> Persist for FcfsServer<J> {
    fn save(&self, w: &mut Enc) {
        self.current.save(w);
        self.queue.save(w);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        let current: Option<Entry<J>> = Persist::load(r)?;
        let queue: Fifo<Entry<J>> = Persist::load(r)?;
        if current.is_none() && !queue.is_empty() {
            return Err(SnapError::Malformed("FcfsServer idle with waiting queue"));
        }
        Ok(FcfsServer { current, queue })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: f64) -> SimDur {
        SimDur::from_micros_f64(x)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FcfsServer::new();
        assert_eq!(s.submit(1u32, us(10.0)), Offer::Started(us(10.0)));
        assert!(s.is_busy());
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = FcfsServer::new();
        assert_eq!(s.submit(1u32, us(10.0)), Offer::Started(us(10.0)));
        assert_eq!(s.submit(2, us(5.0)), Offer::Queued(0));
        assert_eq!(s.submit(3, us(7.0)), Offer::Queued(1));
        // Each job starts with its own demand as its span, in order.
        assert_eq!(s.complete(), (1, Some(us(5.0))));
        assert_eq!(s.complete(), (2, Some(us(7.0))));
        assert_eq!(s.complete(), (3, None));
        assert!(!s.is_busy());
    }

    #[test]
    fn busy_time_accumulates_service() {
        // The spans the server starts, from `submit` on an idle server and
        // from each completion that starts a waiter, add up to the demands.
        let mut s = FcfsServer::new();
        let Offer::Started(mut started) = s.submit(1u32, us(10.0)) else {
            panic!("idle server queued");
        };
        s.submit(2, us(30.0));
        let (_, next) = s.complete();
        started += next.expect("a waiter starts");
        assert_eq!(s.complete(), (2, None));
        assert_eq!(started, us(40.0));
    }

    #[test]
    fn snapshot_round_trips_a_busy_queue() {
        // The spans started before and after the round trip add up to the
        // demands: the waiter's demand survives it.
        let mut s = FcfsServer::new();
        let Offer::Started(mut started) = s.submit(1u32, us(10.0)) else {
            panic!("idle server queued");
        };
        s.submit(2, us(5.0));
        let (_, next) = s.complete();
        started += next.expect("a waiter starts");
        s.submit(3, us(7.0));
        let mut w = Enc::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut t: FcfsServer<u32> = Persist::load(&mut Dec::new(&bytes)).unwrap();
        assert_eq!((t.is_busy(), t.queue_len()), (true, 1));
        let (job, next) = t.complete();
        assert_eq!(job, 2);
        started += next.expect("the restored waiter starts");
        assert_eq!(t.complete(), (3, None));
        assert_eq!(started, us(22.0));
    }

    #[test]
    fn snapshot_rejects_an_idle_server_with_waiters() {
        let mut w = Enc::new();
        None::<Entry<u32>>.save(&mut w);
        w.put_usize(1);
        Entry {
            job: 1u32,
            service: us(1.0),
        }
        .save(&mut w);
        let bytes = w.into_bytes();
        let got: Result<FcfsServer<u32>, _> = Persist::load(&mut Dec::new(&bytes));
        assert!(matches!(got, Err(SnapError::Malformed(_))));
    }

    #[test]
    fn waiting_entry_is_job_plus_service() {
        // A 24-byte job (the model's `NetJob`) waits in a 32-byte entry.
        assert_eq!(std::mem::size_of::<Entry<[u64; 3]>>(), 32);
    }

    #[test]
    #[should_panic(expected = "idle")]
    fn complete_while_idle_panics() {
        let mut s: FcfsServer<u32> = FcfsServer::new();
        s.complete();
    }
}
