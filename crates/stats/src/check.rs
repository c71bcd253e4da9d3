//! In-tree property-based testing harness (the hermetic replacement for
//! `proptest`).
//!
//! A property is a closure over a [`Gen`] that draws its inputs and returns
//! `Ok(())`, a failure, or a discard (via [`prop_assume!`]). [`check`] runs
//! it for many cases with seeds derived from a master seed, and on failure
//! *shrinks* the raw draw tape by repeated halving before reporting.
//!
//! ## Environment knobs
//!
//! * `PARADYN_PROP_CASES` — cases per property (default 64).
//! * `PARADYN_PROP_SEED` — master seed override; rerun with the seed that a
//!   failure report prints to reproduce the exact failing case sequence.
//!
//! ## How shrinking works
//!
//! Every raw `u64` a generator consumes is recorded on a tape. Generators
//! map raw words to values monotonically (a smaller word gives a smaller
//! length / integer / float / index), so shrinking the *tape* shrinks the
//! *values* without the harness knowing anything about their types. On
//! failure, each tape word is repeatedly replaced by `word / 2` (and
//! finally `0`) while the property keeps failing. Each accepted step
//! strictly decreases the word, so the process terminates.

use crate::rng::{splitmix64, Rng, SplitMix64};

/// Why a property case did not pass.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Human-readable cause (empty for discards).
    pub message: String,
    /// Discarded by [`prop_assume!`] rather than failed.
    pub discard: bool,
}

impl Failure {
    /// A real failure with the given message.
    pub fn fail(message: impl Into<String>) -> Failure {
        Failure {
            message: message.into(),
            discard: false,
        }
    }

    /// A discard: the generated case does not satisfy the property's
    /// precondition and should not count either way.
    pub fn discard() -> Failure {
        Failure {
            message: String::new(),
            discard: true,
        }
    }
}

/// Result of one property case.
pub type PropResult = Result<(), Failure>;

enum Source {
    /// Fresh case: draw from the RNG and record every word.
    Random(SplitMix64),
    /// Shrinking replay: read words from a fixed tape (zeros past the end).
    Tape(Vec<u64>),
}

/// The input source handed to a property: draws values and records the raw
/// words behind them so the harness can shrink a failing case.
pub struct Gen {
    source: Source,
    tape: Vec<u64>,
}

impl Gen {
    fn random(seed: u64) -> Gen {
        Gen {
            source: Source::Random(SplitMix64(seed)),
            tape: Vec::new(),
        }
    }

    fn replay(tape: Vec<u64>) -> Gen {
        Gen {
            source: Source::Tape(tape),
            tape: Vec::new(),
        }
    }

    fn raw(&mut self) -> u64 {
        let w = match &mut self.source {
            Source::Random(rng) => rng.next_u64(),
            Source::Tape(tape) => tape.get(self.tape.len()).copied().unwrap_or(0),
        };
        self.tape.push(w);
        w
    }

    /// Uniform integer in `[lo, hi)`. Smaller raw words map to values
    /// nearer `lo`, so shrinking drives draws toward the lower bound.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range {lo}..{hi}");
        let span = hi - lo;
        lo + ((self.raw() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi > lo, "empty range {lo}..{hi}");
        let unit = (self.raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * unit
    }

    /// A boolean; shrinks toward `false`.
    pub fn bool(&mut self) -> bool {
        self.raw() & (1 << 63) != 0
    }

    /// Uniform index into a slice of length `n`; shrinks toward 0.
    pub fn index(&mut self, n: usize) -> usize {
        self.usize_in(0, n)
    }

    /// A uniformly chosen element of `choices`; shrinks toward the first.
    pub fn choice<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        &choices[self.index(choices.len())]
    }

    /// A vector with length in `[len_lo, len_hi)` whose elements come from
    /// `elem`; shrinks toward shorter vectors of smaller elements.
    pub fn vec_of<T>(
        &mut self,
        len_lo: usize,
        len_hi: usize,
        mut elem: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(len_lo, len_hi);
        (0..len).map(|_| elem(self)).collect()
    }

    /// Convenience: vector of uniform `u64`s.
    // lint:allow(dead-pub): generator for tests/properties.rs and tests/lint_props.rs
    pub fn vec_u64(&mut self, len_lo: usize, len_hi: usize, lo: u64, hi: u64) -> Vec<u64> {
        self.vec_of(len_lo, len_hi, |g| g.u64_in(lo, hi))
    }

    /// Convenience: vector of uniform `f64`s.
    // lint:allow(dead-pub): generator for tests/properties.rs
    pub fn vec_f64(&mut self, len_lo: usize, len_hi: usize, lo: f64, hi: f64) -> Vec<f64> {
        self.vec_of(len_lo, len_hi, |g| g.f64_in(lo, hi))
    }

    /// Convenience: vector of booleans.
    // lint:allow(dead-pub): generator for tests/properties.rs
    pub fn vec_bool(&mut self, len_lo: usize, len_hi: usize) -> Vec<bool> {
        self.vec_of(len_lo, len_hi, |g| g.bool())
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| {
        let v = v.trim();
        v.strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or_else(|| v.parse().ok())
    })
}

/// Cases per property: `PARADYN_PROP_CASES` or 64.
pub fn default_cases() -> u64 {
    env_u64("PARADYN_PROP_CASES").unwrap_or(64)
}

/// Shrink a failing tape by repeated halving; returns the smallest tape
/// (and its failure) still failing the property. Bounded by `budget` extra
/// property executions.
fn shrink<F>(prop: &F, tape: Vec<u64>, failure: Failure, budget: usize) -> (Vec<u64>, Failure)
where
    F: Fn(&mut Gen) -> PropResult,
{
    let mut best_tape = tape;
    let mut best_failure = failure;
    let mut spent = 0usize;
    loop {
        let mut improved = false;
        for i in 0..best_tape.len() {
            // An accepted shrink may shorten the tape under us.
            if i >= best_tape.len() {
                break;
            }
            while best_tape[i] > 0 && spent < budget {
                let mut candidate = best_tape.clone();
                // Halve, jumping straight to zero for small words.
                candidate[i] = if candidate[i] < 2 { 0 } else { candidate[i] / 2 };
                spent += 1;
                let mut g = Gen::replay(candidate);
                match prop(&mut g) {
                    Err(f) if !f.discard => {
                        // Keep the tape the replay actually consumed, so
                        // shrinking one draw can also drop trailing draws.
                        best_tape = g.tape;
                        best_failure = f;
                        improved = true;
                    }
                    _ => break,
                }
            }
            if spent >= budget {
                return (best_tape, best_failure);
            }
        }
        if !improved {
            return (best_tape, best_failure);
        }
    }
}

/// Run `prop` for many seeded cases, shrinking and reporting any failure.
///
/// # Panics
/// Panics with the property name, the shrunk failure message, and the
/// master seed to export as `PARADYN_PROP_SEED` to reproduce.
pub fn check<F>(name: &str, prop: F)
where
    F: Fn(&mut Gen) -> PropResult,
{
    let cases = default_cases();
    // Derive the default master seed from the property name so distinct
    // properties explore distinct case sequences.
    let named = {
        let mut h = 0xcbf29ce484222325u64;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h
    };
    let master = env_u64("PARADYN_PROP_SEED").unwrap_or(named);
    let mut seed_state = master;
    let mut discards = 0u64;
    let mut executed = 0u64;
    for case in 0..cases {
        let case_seed = splitmix64(&mut seed_state);
        let mut g = Gen::random(case_seed);
        match prop(&mut g) {
            Ok(()) => executed += 1,
            Err(f) if f.discard => discards += 1,
            Err(f) => {
                let (tape, shrunk) = shrink(&prop, g.tape, f, 1_000);
                panic!(
                    "property `{name}` failed (case {case}/{cases}, master seed {master:#x}):\n  \
                     {msg}\n  shrunk input tape ({n} draws): {tape:?}\n  \
                     rerun with: PARADYN_PROP_SEED={master:#x} PARADYN_PROP_CASES={upto} \
                     cargo test {name}",
                    msg = shrunk.message,
                    n = tape.len(),
                    upto = case + 1,
                );
            }
        }
    }
    assert!(
        executed >= cases / 4,
        "property `{name}` discarded too much: {discards}/{cases} cases"
    );
}

/// Assert a condition inside a property, with an optional format message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::check::Failure::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::check::Failure::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::check::Failure::fail(format!(
                "assertion failed: `{} == {}`: {:?} != {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            )));
        }
    }};
}

/// Discard the current case unless a precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::check::Failure::discard());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_ranges_are_respected() {
        check("meta_ranges", |g| {
            let x = g.u64_in(10, 20);
            prop_assert!((10..20).contains(&x), "x={x}");
            let y = g.f64_in(-2.0, 3.0);
            prop_assert!((-2.0..3.0).contains(&y), "y={y}");
            let v = g.vec_u64(1, 8, 0, 100);
            prop_assert!((1..8).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 100));
            let c = *g.choice(&[3, 5, 7]);
            prop_assert!(c == 3 || c == 5 || c == 7);
            Ok(())
        });
    }

    #[test]
    fn same_seed_gives_same_case_sequence() {
        let record = |seed: u64| -> Vec<u64> {
            let mut seed_state = seed;
            (0..10)
                .map(|_| {
                    let mut g = Gen::random(splitmix64(&mut seed_state));
                    g.u64_in(0, 1_000_000) ^ g.vec_u64(0, 5, 0, 9).len() as u64
                })
                .collect()
        };
        assert_eq!(record(0xABCD), record(0xABCD));
        assert_ne!(record(0xABCD), record(0xABCE));
    }

    #[test]
    fn shrinking_terminates_and_minimizes() {
        // Property failing whenever x >= 100: the shrinker must terminate
        // and land on a tape whose value is still >= 100 but no larger
        // than necessary (halving can't skip below 2x the boundary).
        let prop = |g: &mut Gen| -> PropResult {
            let x = g.u64_in(0, 1_000_000);
            prop_assert!(x < 100, "x={x}");
            Ok(())
        };
        // Find a failing tape.
        let mut failure = None;
        let mut seed_state = 0xFEEDu64;
        for _ in 0..100 {
            let mut g = Gen::random(splitmix64(&mut seed_state));
            if let Err(f) = prop(&mut g) {
                failure = Some((g.tape, f));
                break;
            }
        }
        let (tape, f) = failure.expect("should find a failing case");
        let (shrunk, f2) = shrink(&prop, tape, f, 10_000);
        assert!(!f2.discard);
        // Replay the shrunk tape: still failing, and close to minimal.
        let mut replay = Gen::replay(shrunk);
        let x = replay.u64_in(0, 1_000_000);
        assert!((100..200).contains(&x), "shrunk to x={x}");
    }

    #[test]
    fn discards_do_not_fail_but_excess_discard_is_reported() {
        check("meta_some_discards", |g| {
            let x = g.u64_in(0, 4);
            prop_assume!(x < 3);
            Ok(())
        });
        let result = std::panic::catch_unwind(|| {
            check("meta_all_discarded", |_| Err(Failure::discard()))
        });
        assert!(result.is_err(), "all-discard property must be flagged");
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let result = std::panic::catch_unwind(|| {
            check("meta_always_fails", |g| {
                let x = g.u64_in(0, 10);
                prop_assert!(x > 100, "impossible, x={x}");
                Ok(())
            })
        });
        let err = result.expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("meta_always_fails"), "{msg}");
        assert!(msg.contains("PARADYN_PROP_SEED="), "{msg}");
        assert!(msg.contains("shrunk input tape"), "{msg}");
    }
}
