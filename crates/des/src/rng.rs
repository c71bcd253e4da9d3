//! Reproducible, independent random-number streams.
//!
//! Each stochastic element of a model (one per process, per node) gets its
//! own stream derived from a master seed and a stream id, so adding or
//! removing one element never perturbs another element's draws — the classic
//! common-random-numbers discipline for variance reduction across "what-if"
//! configurations (Law & Kelton, ch. 11).
//!
//! The generator is xoshiro256++, seeded through SplitMix64, implemented
//! locally so the simulation core does not depend on any external crate's
//! stream-splitting behaviour staying stable. [`StreamRng`] implements the
//! workspace's own [`paradyn_stats::Rng`] trait, so it plugs directly into
//! every sampler in `paradyn-stats`.

use paradyn_stats::rng::splitmix64;

/// xoshiro256++ pseudo-random generator.
#[derive(Clone, Debug)]
pub struct StreamRng {
    s: [u64; 4],
}

impl StreamRng {
    /// Seed a generator from a single 64-bit value.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // All-zero state is invalid for xoshiro; splitmix cannot produce four
        // zero outputs in a row, but keep the guard for safety.
        if s == [0; 4] {
            s[0] = 0x853C49E6748FEA9B;
        }
        StreamRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in the half-open interval `[0, 1)` with 53-bit precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in the open interval `(0, 1)` — safe to pass to `ln()`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Deterministically perturb the stream state with `salt`: each state
    /// word is XORed with a successive SplitMix64 output of the salt. Used
    /// by snapshot forking to branch N decorrelated futures from one warmed
    /// state, and by the snapshot mutation self-check. `perturb(s)` on two
    /// bit-identical streams yields bit-identical streams; different salts
    /// yield decorrelated streams.
    pub fn perturb(&mut self, salt: u64) {
        let mut sm = salt;
        for w in &mut self.s {
            *w ^= splitmix64(&mut sm);
        }
        // Preserve the xoshiro non-zero-state invariant.
        if self.s == [0; 4] {
            self.s[0] = 0x853C49E6748FEA9B;
        }
    }
}

impl crate::snapshot::Persist for StreamRng {
    fn save(&self, w: &mut crate::snapshot::Enc) {
        for v in &self.s {
            w.put_u64(*v);
        }
    }
    fn load(r: &mut crate::snapshot::Dec<'_>) -> Result<Self, crate::snapshot::SnapError> {
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = r.take_u64()?;
        }
        if s == [0; 4] {
            // All-zero is a fixed point of xoshiro256++ — no valid stream
            // ever holds it, so the bytes are corrupt.
            return Err(crate::snapshot::SnapError::Malformed("all-zero xoshiro state"));
        }
        Ok(StreamRng { s })
    }
}

impl paradyn_stats::Rng for StreamRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        StreamRng::next_u64(self)
    }
}

/// A factory of independent streams derived from one master seed.
#[derive(Clone, Copy, Debug)]
pub struct Streams {
    master: u64,
}

impl Streams {
    /// Create a stream factory for `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Streams { master: master_seed }
    }

    /// Derive the stream with the given id. The same `(master, id)` pair
    /// always yields the same stream.
    pub fn stream(&self, id: u64) -> StreamRng {
        // Mix master and id through splitmix to decorrelate nearby ids.
        let mut s = self.master ^ id.wrapping_mul(0xA24BAED4963EE407);
        let seed = splitmix64(&mut s) ^ splitmix64(&mut s).rotate_left(17);
        StreamRng::seed_from_u64(seed)
    }

    /// Derive a stream from a structured (kind, node, index) address, so
    /// model code can name streams without manual id bookkeeping.
    pub fn stream3(&self, kind: u64, node: u64, index: u64) -> StreamRng {
        self.stream(kind.wrapping_mul(0x100000001B3) ^ node.rotate_left(24) ^ index.rotate_left(48))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StreamRng::seed_from_u64(42);
        let mut b = StreamRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StreamRng::seed_from_u64(1);
        let mut b = StreamRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StreamRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn f64_open_never_zero() {
        let mut r = StreamRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(r.next_f64_open() > 0.0);
        }
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut r = StreamRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let s = Streams::new(1234);
        let mut a1 = s.stream(5);
        let mut a2 = s.stream(5);
        let mut b = s.stream(6);
        assert_eq!(a1.next_u64(), a2.next_u64());
        // Neighbouring streams are decorrelated.
        let matches = (0..64).filter(|_| a1.next_u64() == b.next_u64()).count();
        assert!(matches < 2);
    }

    #[test]
    fn streams_from_one_master_do_not_overlap() {
        // Replication seeding depends on stream independence: outputs of
        // streams with different ids must not share values (a collision in
        // 64-bit space over this sample size is ~impossible unless two
        // streams landed in the same state cycle).
        let s = Streams::new(0xD1CE);
        let mut seen = std::collections::HashSet::new();
        for id in 0..16u64 {
            let mut r = s.stream(id);
            for _ in 0..4_096 {
                seen.insert(r.next_u64());
            }
        }
        assert_eq!(seen.len(), 16 * 4_096, "overlapping stream outputs");
    }

    #[test]
    fn adjacent_streams_are_uncorrelated() {
        // Pearson correlation of paired uniform draws from neighbouring
        // stream ids must be statistically indistinguishable from zero
        // (|rho| < ~4/sqrt(n)).
        let s = Streams::new(42);
        let n = 20_000;
        for (ida, idb) in [(0u64, 1u64), (1, 2), (7, 8)] {
            let mut a = s.stream(ida);
            let mut b = s.stream(idb);
            let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for _ in 0..n {
                let x = a.next_f64();
                let y = b.next_f64();
                sx += x;
                sy += y;
                sxx += x * x;
                syy += y * y;
                sxy += x * y;
            }
            let nf = n as f64;
            let cov = sxy / nf - (sx / nf) * (sy / nf);
            let vx = sxx / nf - (sx / nf).powi(2);
            let vy = syy / nf - (sy / nf).powi(2);
            let rho = cov / (vx * vy).sqrt();
            assert!(
                rho.abs() < 4.0 / nf.sqrt() * 1.5,
                "streams {ida}/{idb} correlated: rho={rho}"
            );
        }
    }

    #[test]
    fn stream3_addresses_distinct() {
        let s = Streams::new(99);
        let mut x = s.stream3(1, 2, 3);
        let mut y = s.stream3(1, 3, 2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn rng_trait_fill_bytes_works() {
        use paradyn_stats::Rng;
        let mut r = StreamRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
