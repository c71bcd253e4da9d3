//! The bounded Unix pipe between an instrumented application process and
//! its Paradyn daemon.
//!
//! Samples are deposited by the application's instrumentation; the daemon
//! drains them when it runs. Under the default [`OverflowPolicy::Block`], a
//! deposit into a full pipe blocks the writer — the mechanism behind the
//! application-CPU collapse at small sampling periods in the paper's
//! Figure 23 ("when the pipe is full, the application process that
//! generates a sample is blocked until the daemon is able to forward
//! outstanding data samples"). The lossy policies (`DropNewest`,
//! `DropOldest`) model a production system that prefers degraded data over
//! perturbing the application; the pipe counts every dropped sample so
//! conservation (delivered + lost + in-flight == generated) stays checkable.

use paradyn_des::SimTime;

/// What a full pipe does with an incoming sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OverflowPolicy {
    /// Park the sample and block the writer until the daemon drains
    /// (Figure 23 semantics — the only behavior the paper models).
    #[default]
    Block,
    /// Discard the incoming sample; the writer keeps running.
    DropNewest,
    /// Discard the oldest queued sample to make room for the incoming one;
    /// the writer keeps running.
    DropOldest,
}

/// Result of attempting a deposit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deposit {
    /// The sample was accepted.
    Accepted,
    /// The pipe is full; the sample is parked and the writer must block.
    WouldBlock,
    /// The writer is already blocked on a parked sample; the deposit is
    /// rejected and counted. A caller that sees this has a model bug (it
    /// should not run a blocked writer), but occupancy stays consistent
    /// instead of silently corrupting as the old `debug_assert!` allowed
    /// in release builds.
    AlreadyBlocked,
    /// Full pipe under [`OverflowPolicy::DropNewest`]: the incoming sample
    /// was discarded and counted as lost.
    DroppedNewest,
    /// Full pipe under [`OverflowPolicy::DropOldest`]: the incoming sample
    /// took the place of the oldest queued sample, which was discarded and
    /// counted as lost. The caller must evict the oldest payload from its
    /// FIFO (occupancy is unchanged).
    DroppedOldest,
}

/// Occupancy-counting model of one pipe. The actual sample payloads
/// (generation timestamps) live in the owning daemon's FIFO; the pipe
/// tracks capacity, writer blocking, and overflow losses.
#[derive(Clone, Debug)]
pub struct Pipe {
    capacity: usize,
    occupied: usize,
    policy: OverflowPolicy,
    /// Generation time of the sample waiting for space, if the writer is
    /// blocked on a full pipe.
    pending: Option<SimTime>,
    /// Cumulative number of samples that ever had to wait for space.
    blocked_deposits: u64,
    /// Samples discarded by a lossy overflow policy.
    lost: u64,
    /// Deposits rejected because the writer was already blocked.
    rejected_deposits: u64,
}

impl Pipe {
    /// A pipe holding up to `capacity` samples with the default
    /// [`OverflowPolicy::Block`].
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        Pipe::with_policy(capacity, OverflowPolicy::Block)
    }

    /// A pipe holding up to `capacity` samples with the given policy.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn with_policy(capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity > 0, "pipe capacity must be positive");
        Pipe {
            capacity,
            occupied: 0,
            policy,
            pending: None,
            blocked_deposits: 0,
            lost: 0,
            rejected_deposits: 0,
        }
    }

    /// Try to deposit a sample generated at `gen`.
    ///
    /// * `Accepted` — the sample occupies a slot.
    /// * `WouldBlock` (Block policy) — the sample is parked; the writer
    ///   must stop until [`Pipe::drain`] frees space.
    /// * `AlreadyBlocked` — a parked sample already exists; rejected.
    /// * `DroppedNewest` / `DroppedOldest` — lossy-policy outcomes; the
    ///   writer never blocks.
    pub fn deposit(&mut self, gen: SimTime) -> Deposit {
        if self.pending.is_some() {
            self.rejected_deposits += 1;
            return Deposit::AlreadyBlocked;
        }
        if self.occupied < self.capacity {
            self.occupied += 1;
            return Deposit::Accepted;
        }
        match self.policy {
            OverflowPolicy::Block => {
                self.pending = Some(gen);
                self.blocked_deposits += 1;
                Deposit::WouldBlock
            }
            OverflowPolicy::DropNewest => {
                self.lost += 1;
                Deposit::DroppedNewest
            }
            OverflowPolicy::DropOldest => {
                // The incoming sample replaces the evicted oldest one, so
                // occupancy is unchanged; the caller evicts the payload.
                self.lost += 1;
                Deposit::DroppedOldest
            }
        }
    }

    /// The daemon consumed one sample. If a parked sample existed, it takes
    /// the freed slot and its generation time is returned so the caller can
    /// enqueue it and unblock the writer.
    pub fn drain(&mut self) -> Option<SimTime> {
        debug_assert!(self.occupied > 0, "drain from empty pipe");
        self.occupied -= 1;
        match self.pending.take() {
            Some(gen) => {
                self.occupied += 1;
                Some(gen)
            }
            None => None,
        }
    }

    /// Samples currently in the pipe.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Whether a writer is blocked on this pipe.
    pub fn writer_blocked(&self) -> bool {
        self.pending.is_some()
    }

    /// Number of deposits that had to block.
    pub fn blocked_deposits(&self) -> u64 {
        self.blocked_deposits
    }

    /// Samples discarded by a lossy overflow policy.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Deposits rejected with [`Deposit::AlreadyBlocked`].
    pub fn rejected_deposits(&self) -> u64 {
        self.rejected_deposits
    }

    /// The pipe's overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Whether the pipe is at capacity.
    // lint:allow(dead-pub): the pipe model property in tests/properties.rs
    pub fn is_full(&self) -> bool {
        self.occupied >= self.capacity
    }

    /// Total slots in the pipe.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupancy as a fraction of capacity, in `[0, 1]` — the quantity the
    /// degradation watermarks are defined over.
    pub fn fill_frac(&self) -> f64 {
        self.occupied as f64 / self.capacity as f64
    }
}

impl paradyn_des::Persist for Pipe {
    fn save(&self, w: &mut paradyn_des::Enc) {
        w.put_usize(self.capacity);
        w.put_usize(self.occupied);
        w.put_u8(match self.policy {
            OverflowPolicy::Block => 0,
            OverflowPolicy::DropNewest => 1,
            OverflowPolicy::DropOldest => 2,
        });
        self.pending.save(w);
        w.put_u64(self.blocked_deposits);
        w.put_u64(self.lost);
        w.put_u64(self.rejected_deposits);
    }
    fn load(r: &mut paradyn_des::Dec<'_>) -> Result<Self, paradyn_des::SnapError> {
        use paradyn_des::{Persist, SnapError};
        let capacity = r.take_usize()?;
        let occupied = r.take_usize()?;
        let policy = match r.take_u8()? {
            0 => OverflowPolicy::Block,
            1 => OverflowPolicy::DropNewest,
            2 => OverflowPolicy::DropOldest,
            _ => return Err(SnapError::Malformed("pipe policy tag")),
        };
        if capacity == 0 {
            return Err(SnapError::Malformed("pipe capacity zero"));
        }
        if occupied > capacity {
            return Err(SnapError::Malformed("pipe occupancy beyond capacity"));
        }
        Ok(Pipe {
            capacity,
            occupied,
            policy,
            pending: Persist::load(r)?,
            blocked_deposits: r.take_u64()?,
            lost: r.take_u64()?,
            rejected_deposits: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn accepts_until_full_then_blocks() {
        let mut p = Pipe::new(2);
        assert_eq!(p.deposit(t(1)), Deposit::Accepted);
        assert_eq!(p.deposit(t(2)), Deposit::Accepted);
        assert!(p.is_full());
        assert_eq!(p.deposit(t(3)), Deposit::WouldBlock);
        assert!(p.writer_blocked());
        assert_eq!(p.blocked_deposits(), 1);
        assert_eq!(p.occupied(), 2);
    }

    #[test]
    fn drain_hands_slot_to_parked_sample() {
        let mut p = Pipe::new(1);
        p.deposit(t(10));
        assert_eq!(p.deposit(t(20)), Deposit::WouldBlock);
        // Drain: the parked sample (gen=20) takes the slot.
        assert_eq!(p.drain(), Some(t(20)));
        assert!(!p.writer_blocked());
        assert_eq!(p.occupied(), 1);
        // Next drain frees for real.
        assert_eq!(p.drain(), None);
        assert_eq!(p.occupied(), 0);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut p = Pipe::new(3);
        for i in 0..3 {
            assert_eq!(p.deposit(t(i)), Deposit::Accepted);
        }
        assert_eq!(p.deposit(t(99)), Deposit::WouldBlock);
        assert_eq!(p.occupied(), 3);
        p.drain();
        assert_eq!(p.occupied(), 3); // parked sample reoccupied the slot
        p.drain();
        assert_eq!(p.occupied(), 2);
    }

    #[test]
    fn deposit_while_blocked_is_rejected_not_corrupted() {
        let mut p = Pipe::new(1);
        p.deposit(t(1));
        assert_eq!(p.deposit(t(2)), Deposit::WouldBlock);
        // A second deposit while blocked is a caller bug; it must be
        // rejected without touching occupancy or the parked sample.
        assert_eq!(p.deposit(t(3)), Deposit::AlreadyBlocked);
        assert_eq!(p.rejected_deposits(), 1);
        assert_eq!(p.occupied(), 1);
        assert!(p.writer_blocked());
        // The originally parked sample (gen=2) is still the one admitted.
        assert_eq!(p.drain(), Some(t(2)));
    }

    #[test]
    fn drop_newest_discards_incoming_and_never_blocks() {
        let mut p = Pipe::with_policy(2, OverflowPolicy::DropNewest);
        assert_eq!(p.deposit(t(1)), Deposit::Accepted);
        assert_eq!(p.deposit(t(2)), Deposit::Accepted);
        assert_eq!(p.deposit(t(3)), Deposit::DroppedNewest);
        assert_eq!(p.deposit(t(4)), Deposit::DroppedNewest);
        assert!(!p.writer_blocked());
        assert_eq!(p.lost(), 2);
        assert_eq!(p.occupied(), 2);
        assert_eq!(p.blocked_deposits(), 0);
    }

    #[test]
    fn drop_oldest_keeps_occupancy_and_counts_loss() {
        let mut p = Pipe::with_policy(2, OverflowPolicy::DropOldest);
        p.deposit(t(1));
        p.deposit(t(2));
        assert_eq!(p.deposit(t(3)), Deposit::DroppedOldest);
        assert_eq!(p.occupied(), 2); // newcomer replaced the evicted one
        assert_eq!(p.lost(), 1);
        assert!(!p.writer_blocked());
        // Drains never return a parked sample under lossy policies.
        assert_eq!(p.drain(), None);
        assert_eq!(p.occupied(), 1);
    }

    #[test]
    fn conservation_holds_per_policy() {
        for policy in [
            OverflowPolicy::Block,
            OverflowPolicy::DropNewest,
            OverflowPolicy::DropOldest,
        ] {
            let mut p = Pipe::with_policy(2, policy);
            let mut generated = 0u64;
            let mut delivered = 0u64;
            for i in 0..10u64 {
                if !p.writer_blocked() {
                    p.deposit(t(i));
                    generated += 1;
                }
                if i % 3 == 0 && p.occupied() > 0 {
                    if p.drain().is_some() {
                        // Parked sample admitted: it was counted at deposit.
                    }
                    delivered += 1;
                }
            }
            let in_flight = p.occupied() as u64 + u64::from(p.writer_blocked());
            assert_eq!(
                generated,
                delivered + p.lost() + in_flight,
                "conservation violated under {policy:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Pipe::new(0);
    }
}
