//! Deterministic fault scheduling for robustness studies.
//!
//! A [`FaultSchedule`] turns a dedicated random stream into an alternating
//! up/down renewal process: exponentially distributed time-to-failure
//! (mean `mtbf_us`) followed by a fixed recovery delay (`recovery_us`).
//! Because the draws come from the element's own
//! [`StreamRng`], the fault event stream is a pure function of
//! `(master seed, element id)` — adding faults to one element never
//! perturbs another element's randomness, and replicated runs stay
//! bit-identical at any worker-thread count.
//!
//! The companion [`crate::monitor::FaultMonitor`] records what the faults
//! cost: crash count, samples lost, retries, and accumulated downtime.

use crate::rng::StreamRng;
use crate::time::SimDur;

/// Deterministic generator of one element's failure/recovery event stream.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    rng: StreamRng,
    mtbf_us: f64,
    recovery_us: f64,
}

impl FaultSchedule {
    /// A schedule with exponential time-to-failure of mean `mtbf_us` and a
    /// fixed recovery delay of `recovery_us` (both in microseconds).
    ///
    /// # Panics
    /// Panics unless both means are positive.
    pub fn new(rng: StreamRng, mtbf_us: f64, recovery_us: f64) -> Self {
        assert!(mtbf_us > 0.0, "mean time between failures must be positive");
        assert!(recovery_us > 0.0, "recovery delay must be positive");
        FaultSchedule {
            rng,
            mtbf_us,
            recovery_us,
        }
    }

    /// Time from now (or from the last recovery) until the next failure:
    /// an exponential draw of mean `mtbf_us`.
    pub fn time_to_failure(&mut self) -> SimDur {
        SimDur::from_micros_f64(-self.mtbf_us * self.rng.next_f64_open().ln())
    }

    /// How long the element stays down once it has failed.
    pub fn recovery_delay(&self) -> SimDur {
        SimDur::from_micros_f64(self.recovery_us)
    }

    /// Deterministically perturb the underlying stream (snapshot forking —
    /// see [`StreamRng::perturb`]). The means are left
    /// untouched: forks vary randomness, never configuration.
    pub fn perturb(&mut self, salt: u64) {
        self.rng.perturb(salt);
    }
}

impl crate::snapshot::Persist for FaultSchedule {
    fn save(&self, w: &mut crate::snapshot::Enc) {
        self.rng.save(w);
        w.put_f64(self.mtbf_us);
        w.put_f64(self.recovery_us);
    }
    fn load(r: &mut crate::snapshot::Dec<'_>) -> Result<Self, crate::snapshot::SnapError> {
        let rng = crate::snapshot::Persist::load(r)?;
        let mtbf_us = r.take_f64()?;
        let recovery_us = r.take_f64()?;
        // Re-validate what `new` asserts, without panicking on bad bytes.
        if !(mtbf_us.is_finite() && mtbf_us > 0.0 && recovery_us.is_finite() && recovery_us > 0.0)
        {
            return Err(crate::snapshot::SnapError::Malformed(
                "fault schedule means must be positive and finite",
            ));
        }
        Ok(FaultSchedule {
            rng,
            mtbf_us,
            recovery_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StreamRng {
        StreamRng::seed_from_u64(seed)
    }

    #[test]
    fn schedule_is_deterministic_per_stream() {
        let mut a = FaultSchedule::new(rng(7), 1_000_000.0, 50_000.0);
        let mut b = FaultSchedule::new(rng(7), 1_000_000.0, 50_000.0);
        for _ in 0..100 {
            assert_eq!(a.time_to_failure(), b.time_to_failure());
            assert_eq!(a.recovery_delay(), b.recovery_delay());
        }
    }

    #[test]
    fn mean_time_to_failure_matches_mtbf() {
        let mut s = FaultSchedule::new(rng(11), 500_000.0, 1_000.0);
        let n = 20_000;
        let mean_us: f64 = (0..n)
            .map(|_| s.time_to_failure().as_micros_f64())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_us - 500_000.0).abs() < 0.05 * 500_000.0,
            "mean {mean_us}"
        );
    }

    #[test]
    fn fixed_recovery_is_exact() {
        let fixed = FaultSchedule::new(rng(3), 1e6, 25_000.0);
        assert_eq!(fixed.recovery_delay(), SimDur::from_micros_f64(25_000.0));
        assert_eq!(fixed.recovery_delay(), SimDur::from_micros_f64(25_000.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mtbf_rejected() {
        FaultSchedule::new(rng(1), 0.0, 1.0);
    }
}
