//! The benchmark's one wall-clock source.
//!
//! The simulator must never read the wall clock, and the repository lint
//! enforces that everywhere outside the bench and testbed crates. Host time
//! is exactly what this package measures, so it reads the clock here, and
//! only here.

// lint:allow(wall-clock): host time is the quantity this benchmark measures
use std::time::Instant;

/// A running wall-clock timer.
#[derive(Clone, Copy)]
// lint:allow(wall-clock): host time is the quantity this benchmark measures
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    #[inline]
    pub fn start() -> Stopwatch {
        // lint:allow(wall-clock): host time is the quantity this benchmark measures
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`].
    #[inline]
    pub fn ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Milliseconds since [`Stopwatch::start`].
    pub fn ms(self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
