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
//! The schedule keeps no books: the model that posts its events counts
//! what the faults cost (crashes, losses, retries, downtime).

use crate::rng::StreamRng;
use crate::snapshot::{Dec, Enc, Persist, PersistInto, SnapError};
use crate::time::SimDur;

/// Deterministic generator of one element's failure/recovery event stream.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    rng: StreamRng,
    // lint:allow(snapshot-exempt): set by the config; restore keeps the built schedule's
    mtbf_us: f64,
    // lint:allow(snapshot-exempt): set by the config; restore keeps the built schedule's
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

/// Only the stream moves during a run; the means stay as built.
impl PersistInto for FaultSchedule {
    fn save(&self, w: &mut Enc) {
        self.rng.save(w);
    }
    fn load_into(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        self.rng = Persist::load(r)?;
        Ok(())
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
