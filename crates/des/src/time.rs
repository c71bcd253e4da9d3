//! Simulation time as an integer number of nanoseconds.
//!
//! The paper's workload parameters are expressed in microseconds; we keep the
//! clock in integer nanoseconds so event ordering is exact and runs are
//! bit-for-bit reproducible (no floating-point comparison drift in the event
//! calendar). Conversions to and from floating-point microseconds/seconds are
//! provided at the edges where distributions are sampled and metrics are
//! reported.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Number of nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute point on the simulation clock (nanoseconds since time zero).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from a (non-negative) number of microseconds.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        SimTime(micros_to_nanos(us))
    }

    /// Construct from seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(round_u64(s * NANOS_PER_SEC as f64))
    }

    /// Raw nanoseconds since time zero.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// Value in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Span from an earlier instant to this one.
    ///
    /// # Panics
    /// Panics (in debug builds) if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDur {
        debug_assert!(earlier.0 <= self.0, "SimTime::since: earlier > self");
        SimDur(self.0 - earlier.0)
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDur {
    /// The empty span.
    pub const ZERO: SimDur = SimDur(0);
    /// The largest representable span.
    pub const MAX: SimDur = SimDur(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }

    /// Construct from a (non-negative) number of microseconds.
    ///
    /// Negative or non-finite inputs are clamped to zero; sampled service
    /// times are physically non-negative.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        SimDur(micros_to_nanos(us))
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDur(micros_to_nanos(ms * 1_000.0))
    }

    /// Construct from seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDur(micros_to_nanos(s * 1_000_000.0))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// Value in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDur) -> SimDur {
        SimDur(self.0.min(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, other: SimDur) -> Option<SimDur> {
        self.0.checked_sub(other.0).map(SimDur)
    }
}

impl crate::snapshot::Persist for SimTime {
    fn save(&self, w: &mut crate::snapshot::Enc) {
        w.put_u64(self.0);
    }
    fn load(r: &mut crate::snapshot::Dec<'_>) -> Result<Self, crate::snapshot::SnapError> {
        Ok(SimTime(r.take_u64()?))
    }
}

impl crate::snapshot::Persist for SimDur {
    fn save(&self, w: &mut crate::snapshot::Enc) {
        w.put_u64(self.0);
    }
    fn load(r: &mut crate::snapshot::Dec<'_>) -> Result<Self, crate::snapshot::SnapError> {
        Ok(SimDur(r.take_u64()?))
    }
}

#[inline]
fn micros_to_nanos(us: f64) -> u64 {
    if !us.is_finite() || us <= 0.0 {
        0
    } else {
        round_u64(us * NANOS_PER_MICRO as f64)
    }
}

/// `x.round() as u64` (half away from zero, saturating) for every `x`.
///
/// The baseline x86-64 target has no SSE4.1 rounding instruction, so
/// `f64::round` is a libm call. Below 2^52 the truncation `t` is exact and
/// so is `x - t` (Sterbenz), which makes one compare decide the rounding;
/// at and above 2^52 every `f64` is already an integer.
#[inline]
fn round_u64(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x > 0.0 && x < EXACT {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x.round() as u64
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDur) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDur) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    #[inline]
    fn sub(self, other: SimTime) -> SimDur {
        self.since(other)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    #[inline]
    fn add(self, other: SimDur) -> SimDur {
        SimDur(self.0 + other.0)
    }
}

impl AddAssign for SimDur {
    #[inline]
    fn add_assign(&mut self, other: SimDur) {
        self.0 += other.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    #[inline]
    fn sub(self, other: SimDur) -> SimDur {
        debug_assert!(other.0 <= self.0, "SimDur subtraction underflow");
        SimDur(self.0 - other.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_micros_f64(2213.0);
        assert_eq!(t.as_nanos(), 2_213_000);
        assert!((t.as_micros_f64() - 2213.0).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.002213).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDur::from_nanos(50);
        assert_eq!((t + d).as_nanos(), 150);
        assert_eq!(((t + d) - t).as_nanos(), 50);
        let mut u = t;
        u += d;
        assert_eq!(u.as_nanos(), 150);
    }

    #[test]
    fn negative_micros_clamp_to_zero() {
        assert_eq!(SimDur::from_micros_f64(-5.0).as_nanos(), 0);
        assert_eq!(SimDur::from_micros_f64(f64::NAN).as_nanos(), 0);
    }

    #[test]
    fn round_u64_matches_f64_round() {
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        let mut edges = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            0.5000000000000001,
            -0.5,
            -1.5,
            -2.0,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            1e19,
            2e19,
            u64::MAX as f64,
        ];
        for base in [two52, two53] {
            for k in 0..8 {
                let mut below = base;
                let mut above = base;
                for _ in 0..k {
                    below = f64::from_bits(below.to_bits() - 1);
                    above = f64::from_bits(above.to_bits() + 1);
                }
                edges.extend([below, above, below - 0.5, below + 0.5]);
            }
        }
        for x in edges {
            assert_eq!(round_u64(x), x.round() as u64, "x = {x:e}");
        }
        // Random magnitudes from 2^-10 to 2^60, halves included.
        let mut rng = crate::rng::Streams::new(0x5eed).stream(1);
        for _ in 0..200_000 {
            let mag = (rng.next_u64() % 70) as i32 - 10;
            let x = rng.next_f64() * 2f64.powi(mag);
            let half = (x * 2.0).floor() / 2.0;
            for y in [x, half, -x] {
                assert_eq!(round_u64(y), y.round() as u64, "x = {y:e}");
            }
        }
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn dur_min_and_saturating() {
        let a = SimDur::from_nanos(10);
        let b = SimDur::from_nanos(3);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), SimDur::ZERO);
        assert_eq!(a.checked_sub(b), Some(SimDur::from_nanos(7)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    fn millis_and_secs_constructors() {
        assert_eq!(SimDur::from_millis_f64(40.0).as_nanos(), 40 * NANOS_PER_MILLI);
        assert_eq!(SimDur::from_secs_f64(1.5).as_nanos(), 3 * NANOS_PER_SEC / 2);
        assert_eq!(SimTime::from_secs_f64(100.0).as_nanos(), 100 * NANOS_PER_SEC);
    }
}
