//! Run monitors: resource busy time and the observable cost of faults.

use crate::snapshot::{Dec, Enc, Persist, SnapError};
use crate::time::{SimDur, SimTime};

/// Accumulator of resource busy time, yielding utilization over an interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusyTime {
    total_ns: u64,
}

impl BusyTime {
    /// Fresh accumulator.
    pub fn new() -> Self {
        BusyTime { total_ns: 0 }
    }

    /// Credit a span of busy time.
    #[inline]
    pub fn add(&mut self, d: SimDur) {
        self.total_ns += d.as_nanos();
    }

    /// Total accumulated busy time.
    pub fn total(&self) -> SimDur {
        SimDur::from_nanos(self.total_ns)
    }

    /// Busy fraction of the interval `[0, horizon]` (0 if the horizon is 0).
    pub fn utilization(&self, horizon: SimDur) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            self.total_ns as f64 / horizon.as_nanos() as f64
        }
    }
}

impl Persist for BusyTime {
    fn save(&self, w: &mut Enc) {
        w.put_u64(self.total_ns);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(BusyTime {
            total_ns: r.take_u64()?,
        })
    }
}

/// Records the observable cost of injected faults on one element: crash
/// count, samples lost, forwarding retries, and accumulated downtime.
///
/// Downtime is tracked as an open/closed interval sum so it can be queried
/// mid-outage: [`FaultMonitor::downtime_at`] includes the currently open
/// down interval, which matters when a run's horizon lands while the
/// element is still down.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultMonitor {
    crashes: u64,
    lost: u64,
    retries: u64,
    down_since: Option<SimTime>,
    downtime_ns: u64,
}

impl FaultMonitor {
    /// Fresh monitor with nothing recorded.
    pub fn new() -> Self {
        FaultMonitor::default()
    }

    /// Record a crash starting at `t`. No-op on the interval if already down.
    pub fn crash_at(&mut self, t: SimTime) {
        self.crashes += 1;
        if self.down_since.is_none() {
            self.down_since = Some(t);
        }
    }

    /// Record recovery at `t`, closing the open down interval.
    pub fn recover_at(&mut self, t: SimTime) {
        if let Some(start) = self.down_since.take() {
            self.downtime_ns += (t - start).as_nanos();
        }
    }

    /// Record `n` samples lost to faults.
    #[inline]
    pub fn add_lost(&mut self, n: u64) {
        self.lost += n;
    }

    /// Record one forwarding retry.
    #[inline]
    pub fn add_retry(&mut self) {
        self.retries += 1;
    }

    /// Number of crashes recorded.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Total samples lost to faults.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Total forwarding retries.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total downtime up to `now`, including a still-open down interval.
    pub fn downtime_at(&self, now: SimTime) -> SimDur {
        let open = match self.down_since {
            Some(start) if now > start => (now - start).as_nanos(),
            _ => 0,
        };
        SimDur::from_nanos(self.downtime_ns + open)
    }
}

impl Persist for FaultMonitor {
    fn save(&self, w: &mut Enc) {
        w.put_u64(self.crashes);
        w.put_u64(self.lost);
        w.put_u64(self.retries);
        self.down_since.save(w);
        w.put_u64(self.downtime_ns);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(FaultMonitor {
            crashes: r.take_u64()?,
            lost: r.take_u64()?,
            retries: r.take_u64()?,
            down_since: Persist::load(r)?,
            downtime_ns: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_utilization() {
        let mut b = BusyTime::new();
        b.add(SimDur::from_secs_f64(0.25));
        b.add(SimDur::from_secs_f64(0.25));
        assert!((b.utilization(SimDur::from_secs_f64(1.0)) - 0.5).abs() < 1e-12);
        assert_eq!(BusyTime::new().utilization(SimDur::ZERO), 0.0);
    }

    #[test]
    fn fault_monitor_accumulates_closed_intervals() {
        let mut m = FaultMonitor::new();
        m.crash_at(SimTime::from_secs_f64(1.0));
        m.recover_at(SimTime::from_secs_f64(1.5));
        m.crash_at(SimTime::from_secs_f64(3.0));
        m.recover_at(SimTime::from_secs_f64(3.25));
        assert_eq!(m.crashes(), 2);
        let d = m.downtime_at(SimTime::from_secs_f64(10.0));
        assert!((d.as_secs_f64() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fault_monitor_includes_open_interval() {
        let mut m = FaultMonitor::new();
        m.crash_at(SimTime::from_secs_f64(2.0));
        let d = m.downtime_at(SimTime::from_secs_f64(5.0));
        assert!((d.as_secs_f64() - 3.0).abs() < 1e-12);
        // Querying before the crash instant contributes nothing.
        assert_eq!(m.downtime_at(SimTime::from_secs_f64(2.0)), SimDur::ZERO);
    }

    #[test]
    fn fault_monitor_counts_losses_and_retries() {
        let mut m = FaultMonitor::new();
        m.add_lost(7);
        m.add_lost(3);
        m.add_retry();
        m.add_retry();
        assert_eq!(m.lost(), 10);
        assert_eq!(m.retries(), 2);
    }
}
