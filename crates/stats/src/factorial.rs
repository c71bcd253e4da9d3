//! 2^k·r factorial experiment design and allocation of variation
//! (Jain, *The Art of Computer Systems Performance Analysis*, ch. 17–18).
//!
//! This is the technique behind the paper's Figures 16, 20, 25 and
//! Tables 7–8 (which the paper calls "principal component analysis" — the
//! computed quantity is the percentage of total variation explained by each
//! factor and factor combination).


/// One effect term (a factor or interaction of factors).
#[derive(Clone, Debug)]
pub struct Term {
    /// Bitmask over factors (bit j set = factor j participates).
    pub mask: u32,
    /// Label like `"A"`, `"B"`, `"AB"`, `"ABC"`.
    pub label: String,
    /// Sum of squares attributed to this term: `2^k · r · q²` for the
    /// effect `q` (half the average change when the factors flip from low
    /// to high).
    pub ss: f64,
    /// Percentage of total variation explained.
    pub pct: f64,
}

/// Result of analysing a 2^k·r design.
#[derive(Clone, Debug)]
pub struct Variation {
    /// Replications per configuration.
    pub r: usize,
    /// Effect terms sorted by decreasing explained percentage.
    pub terms: Vec<Term>,
    /// Percentage of variation unexplained (error).
    pub sse_pct: f64,
    /// Total sum of squares.
    pub sst: f64,
}

/// A 2^k·r full factorial design.
///
/// `responses[i]` holds the `r` replicate responses of configuration `i`,
/// where bit `j` of `i` gives the level (0 = low, 1 = high) of factor `j`.
#[derive(Clone, Debug)]
pub struct Design2kr {
    factor_names: Vec<String>,
    responses: Vec<Vec<f64>>,
}

impl Design2kr {
    /// Create a design for the named factors; responses are added with
    /// [`Design2kr::set_responses`].
    pub fn new<S: Into<String>>(factor_names: Vec<S>) -> Self {
        let factor_names: Vec<String> = factor_names.into_iter().map(Into::into).collect();
        assert!(
            (1..=5).contains(&factor_names.len()),
            "supported k is 1..=5"
        );
        let n = 1usize << factor_names.len();
        Design2kr {
            factor_names,
            responses: vec![vec![]; n],
        }
    }

    /// Number of factors.
    pub fn k(&self) -> usize {
        self.factor_names.len()
    }

    /// Store the replicate responses of configuration `config`
    /// (bit j of `config` = level of factor j).
    pub fn set_responses(&mut self, config: usize, reps: Vec<f64>) {
        assert!(config < self.responses.len(), "config out of range");
        assert!(!reps.is_empty(), "need at least one replicate");
        self.responses[config] = reps;
    }

    /// Single-letter code of factor `j` (A, B, C, ...).
    pub fn factor_letter(j: usize) -> char {
        (b'A' + j as u8) as char
    }

    /// Label of an effect mask, e.g. `0b011` → `"AB"`.
    pub fn label(mask: u32) -> String {
        (0..32)
            .filter(|j| mask & (1 << j) != 0)
            .map(Self::factor_letter)
            .collect()
    }

    /// Long-form description: `"A (sampling period)"`.
    pub fn describe_term(&self, mask: u32) -> String {
        if mask.count_ones() == 1 {
            let j = mask.trailing_zeros() as usize;
            format!("{} ({})", Self::factor_letter(j), self.factor_names[j])
        } else {
            Self::label(mask)
        }
    }

    /// Compute effects and the allocation of variation.
    ///
    /// # Panics
    /// Panics if any configuration is missing responses or replicate counts
    /// differ across configurations.
    pub fn analyze(&self) -> Variation {
        let k = self.k();
        let n_cfg = 1usize << k;
        let r = self.responses[0].len();
        assert!(
            self.responses.iter().all(|v| v.len() == r && r > 0),
            "all configurations need the same (non-zero) replicate count"
        );

        let means: Vec<f64> = self
            .responses
            .iter()
            .map(|v| v.iter().sum::<f64>() / r as f64)
            .collect();

        // Effects: q_c = (1/2^k) sum_i sign(i, c) * mean_i, where
        // sign(i, c) = prod over bits b of c of (+1 if bit b of i else -1)
        //            = (-1)^{popcount(c & !i)} = +1 iff popcount(c & !i) even.
        let mut terms = Vec::with_capacity(n_cfg - 1);
        for c in 1..n_cfg as u32 {
            let mut q = 0.0;
            for (i, &m) in means.iter().enumerate() {
                let neg_bits = (c & !(i as u32)).count_ones();
                let sign = if neg_bits.is_multiple_of(2) { 1.0 } else { -1.0 };
                q += sign * m;
            }
            q /= n_cfg as f64;
            let ss = (n_cfg * r) as f64 * q * q;
            terms.push(Term {
                mask: c,
                label: Self::label(c),
                ss,
                pct: 0.0,
            });
        }

        // Experimental error.
        let sse: f64 = self
            .responses
            .iter()
            .zip(&means)
            .map(|(reps, &m)| reps.iter().map(|y| (y - m).powi(2)).sum::<f64>())
            .sum();
        let ss_effects: f64 = terms.iter().map(|t| t.ss).sum();
        let sst = ss_effects + sse;

        for t in &mut terms {
            t.pct = if sst > 0.0 { 100.0 * t.ss / sst } else { 0.0 };
        }
        terms.sort_by(|a, b| b.pct.partial_cmp(&a.pct).expect("NaN pct"));

        Variation {
            r,
            sse_pct: if sst > 0.0 { 100.0 * sse / sst } else { 0.0 },
            sst,
            terms,
        }
    }
}

impl Variation {
    /// Percentage explained by the term with the given label
    /// (`None` if no such term).
    pub fn pct_of(&self, label: &str) -> Option<f64> {
        self.terms.iter().find(|t| t.label == label).map(|t| t.pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Jain's textbook memory-cache example (2^2 design):
    /// y = 15, 45, 25, 75 for (A,B) = (-,-), (+,-), (-,+), (+,+).
    #[test]
    fn jain_22_example() {
        let mut d = Design2kr::new(vec!["memory", "cache"]);
        d.set_responses(0b00, vec![15.0]);
        d.set_responses(0b01, vec![45.0]); // A high
        d.set_responses(0b10, vec![25.0]); // B high
        d.set_responses(0b11, vec![75.0]);
        let v = d.analyze();
        // Effects 20, 10, 5: SS = 2^2 · q².
        let ss = |l: &str| v.terms.iter().find(|t| t.label == l).unwrap().ss;
        assert!((ss("A") - 1600.0).abs() < 1e-9);
        assert!((ss("B") - 400.0).abs() < 1e-9);
        assert!((ss("AB") - 100.0).abs() < 1e-9);
        // Allocation: SSA:SSB:SSAB = 400:100:25 => 76.2%, 19.0%, 4.8%.
        assert!((v.pct_of("A").unwrap() - 76.19).abs() < 0.01);
        assert!((v.pct_of("B").unwrap() - 19.05).abs() < 0.01);
        assert!((v.pct_of("AB").unwrap() - 4.76).abs() < 0.01);
        assert!(v.sse_pct.abs() < 1e-9);
    }

    /// Jain's 2^2·3 replicated example: effects 21.5, 9.5, 5 with
    /// SSE = 102 and SST = 7032.
    #[test]
    fn jain_22r3_example() {
        let mut d = Design2kr::new(vec!["memory", "cache"]);
        d.set_responses(0b00, vec![15.0, 18.0, 12.0]);
        d.set_responses(0b01, vec![45.0, 48.0, 51.0]);
        d.set_responses(0b10, vec![25.0, 28.0, 19.0]);
        d.set_responses(0b11, vec![75.0, 75.0, 81.0]);
        let v = d.analyze();
        // SS = 2^2 · 3 · q² for the effects 21.5, 9.5 and 5.
        let ss = |l: &str| v.terms.iter().find(|t| t.label == l).unwrap().ss;
        assert!((ss("A") - 5547.0).abs() < 1e-9, "ssa={}", ss("A"));
        assert!((ss("B") - 1083.0).abs() < 1e-9, "ssb={}", ss("B"));
        assert!((ss("AB") - 300.0).abs() < 1e-9, "ssab={}", ss("AB"));
        assert!((v.sst - 7032.0).abs() < 1e-9, "sst={}", v.sst);
        assert!(
            (v.sse_pct - 100.0 * 102.0 / 7032.0).abs() < 1e-9,
            "sse%={}",
            v.sse_pct
        );
    }

    #[test]
    fn labels_and_masks() {
        assert_eq!(Design2kr::label(0b1), "A");
        assert_eq!(Design2kr::label(0b110), "BC");
        assert_eq!(Design2kr::label(0b1111), "ABCD");
    }

    #[test]
    fn additive_model_has_no_interaction() {
        // y = 10*A + 3*B (levels 0/1): interaction must be zero.
        let mut d = Design2kr::new(vec!["a", "b"]);
        for cfg in 0..4usize {
            let a = (cfg & 1) as f64;
            let b = ((cfg >> 1) & 1) as f64;
            d.set_responses(cfg, vec![10.0 * a + 3.0 * b]);
        }
        let v = d.analyze();
        assert!(v.pct_of("AB").unwrap() < 1e-9);
        assert!(v.pct_of("A").unwrap() > v.pct_of("B").unwrap());
    }

    #[test]
    fn four_factor_design_has_fifteen_terms() {
        let mut d = Design2kr::new(vec!["n", "p", "policy", "app"]);
        for cfg in 0..16usize {
            d.set_responses(cfg, vec![cfg as f64]);
        }
        let v = d.analyze();
        assert_eq!(v.terms.len(), 15);
        let total: f64 = v.terms.iter().map(|t| t.pct).sum();
        assert!((total + v.sse_pct - 100.0).abs() < 1e-6);
    }

    #[test]
    fn describe_includes_factor_name() {
        let d = Design2kr::new(vec!["nodes", "period"]);
        assert_eq!(d.describe_term(0b01), "A (nodes)");
        assert_eq!(d.describe_term(0b10), "B (period)");
        assert_eq!(d.describe_term(0b11), "AB");
    }

    #[test]
    #[should_panic(expected = "same")]
    fn mismatched_replicates_panic() {
        let mut d = Design2kr::new(vec!["a"]);
        d.set_responses(0, vec![1.0, 2.0]);
        d.set_responses(1, vec![1.0]);
        d.analyze();
    }
}
