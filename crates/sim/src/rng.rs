//! Deterministic random-number generation and the distributions the
//! simulation draws from.
//!
//! All stochastic behaviour in the simulator (service-time variability,
//! arrival jitter, trace sampling, user think times) flows from one seed so
//! experiments are exactly reproducible. The generator and the
//! distributions are implemented here, with no external crate: the stream is
//! xoshiro256++ seeded and sampled exactly as rand 0.8's `SmallRng` on
//! 64-bit targets, so every pinned output reproduces bit for bit.

/// A seeded deterministic RNG with the distribution helpers the simulator needs.
///
/// The determinism invariant: the same seed and fork stream always produce
/// the same draw sequence, bit for bit.
///
/// ```
/// use graf_sim::rng::DetRng;
/// let mut a = DetRng::new(42).fork(42 ^ 0x1);
/// let mut b = DetRng::new(42).fork(42 ^ 0x1);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0)); // bit-identical
/// let mut c = DetRng::new(42).fork(42 ^ 0x2); // independent stream
/// assert_ne!(a.uniform(0.0, 1.0), c.uniform(0.0, 1.0));
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    /// xoshiro256++ state.
    s: [u64; 4],
}

/// The SplitMix64 increment (2⁶⁴ / φ).
const PHI: u64 = 0x9E3779B97F4A7C15;

/// SplitMix64 step: seed expansion and seed derivation when forking streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(PHI);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates an RNG from a seed: the four state words are consecutive
    /// SplitMix64 outputs from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            s: std::array::from_fn(|k| splitmix64(seed.wrapping_add(PHI.wrapping_mul(k as u64)))),
        }
    }

    /// Derives an independent child RNG for a named stream.
    ///
    /// Forking keeps subsystems (load generation, service-time draws, trace
    /// sampling) statistically independent while preserving determinism even
    /// when one subsystem changes how many draws it makes.
    pub fn fork(&self, stream: u64) -> DetRng {
        // Derive from a fresh seed rather than the current state so forks are
        // stable regardless of draw order; mix the stream id twice to
        // decorrelate adjacent streams.
        let s = splitmix64(splitmix64(stream).wrapping_add(0xA5A5_5A5A_1234_5678));
        DetRng::new(s)
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one draw, scaled by 2⁻⁵³.
    pub fn unit(&mut self) -> f64 {
        (self.bits64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// 64 uniform random bits — one xoshiro256++ step and the cheapest draw,
    /// for consumers that batch many coarse Bernoulli trials (e.g. dropout
    /// masks) out of one call.
    pub fn bits64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]` (inclusive): Lemire's widening multiply,
    /// rejecting draws whose low half falls above rand 0.8's zone.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "cannot sample empty range");
        let range = (hi - lo).wrapping_add(1);
        if range == 0 {
            return self.bits64(); // the full u64 range
        }
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let m = u128::from(self.bits64()) * u128::from(range);
            if m as u64 <= zone {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Exponential with the given mean (inverse-CDF method).
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Guard against ln(0).
        let u = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller (cosine branch).
    pub fn std_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal parameterized by its *mean* and coefficient of variation.
    ///
    /// For service times: `mean` is the intended average work, `cv` is
    /// std/mean. `cv == 0` returns `mean` exactly.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        debug_assert!(mean > 0.0 && cv >= 0.0);
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        (mu + sigma2.sqrt() * self.std_normal()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The xoshiro256++ reference vector for the state words 1, 2, 3, 4 (the
    /// known-answer test of rand 0.8.5's `Xoshiro256PlusPlus`).
    #[test]
    fn xoshiro256plusplus_reference_vector() {
        let mut rng = DetRng { s: [1, 2, 3, 4] };
        let expected = [
            41943041u64,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        for e in expected {
            assert_eq!(rng.bits64(), e);
        }
    }

    /// `new` fills the state with the first four outputs of a SplitMix64
    /// stream started at the seed — rand 0.8's `SmallRng::seed_from_u64`.
    #[test]
    fn seeding_is_splitmix_expansion() {
        for seed in [0, 7, u64::MAX] {
            let mut state = seed;
            let words: [u64; 4] = std::array::from_fn(|_| {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            });
            assert_eq!(DetRng::new(seed).s, words, "seed {seed}");
        }
    }

    /// Draws captured from the rand 0.8 `SmallRng` this generator replaced:
    /// seeding, the step, `unit`'s scaling, forking and `uniform_u64` (the
    /// full range included). Every seeded output rests on them.
    #[test]
    fn stream_is_pinned() {
        let mut r = DetRng::new(7);
        let bits: [u64; 8] = std::array::from_fn(|_| r.bits64());
        assert_eq!(
            bits,
            [
                0x0e2c1a002aae913d,
                0x2c0fc8ddfa4e9e14,
                0xb7b311b3b0d45872,
                0x6d5d9f6a6318013c,
                0xf6b263f2f5790376,
                0x77385b627c22c489,
                0xb951f9b3621ea380,
                0x54705b5adc01e528,
            ]
        );
        let mut f = DetRng::new(7).fork(3);
        let units: [u64; 4] = std::array::from_fn(|_| f.unit().to_bits());
        assert_eq!(
            units,
            [0x3fd0c9b2eeb0b3fa, 0x3fd320ac656245b4, 0x3fe7121f76a9ae3c, 0x3fd859f4e2c7aa2c]
        );
        let mut r = DetRng::new(11);
        let small: [u64; 8] = std::array::from_fn(|_| r.uniform_u64(0, 5));
        assert_eq!(small, [0x5, 0x3, 0x1, 0x4, 0x0, 0x4, 0x2, 0x4]);
        let full: [u64; 2] = std::array::from_fn(|_| r.uniform_u64(0, u64::MAX));
        assert_eq!(full, [0x5d18724415dcfcbf, 0x4e2fffa105141ddc]);
        // [0, 2⁶³] rejects about half of all draws.
        let mut r = DetRng::new(13);
        let half: [u64; 4] = std::array::from_fn(|_| r.uniform_u64(0, 1 << 63));
        assert_eq!(
            half,
            [0x04ec0056783a6182, 0x669b64ca73318f22, 0x604137d507ccab36, 0x5b12342bbda46ee6]
        );
    }

    /// For `[0, 2⁶³]` rand's zone is 2⁶³: a draw whose low product half
    /// equals it is kept, one just above it is redrawn. The expected values
    /// are rand 0.8's `gen_range` from the same states.
    #[test]
    fn uniform_u64_rejection_zone_matches_rand() {
        let mut on_zone = DetRng { s: [0, 0, 0, 1 << 40] }; // first draw 2⁶³
        assert_eq!(on_zone.uniform_u64(0, 1 << 63), 0x4000000000000000);
        let mut above = DetRng { s: [0, 0, 0, 1 << 41] }; // first draw 1
        assert_eq!(above.uniform_u64(0, 1 << 63), 0x200002200044);
    }

    #[test]
    fn unit_is_top_53_bits() {
        let mut a = DetRng::new(99);
        let mut b = a.clone();
        for _ in 0..1000 {
            let f = a.unit();
            assert_eq!(f, (b.bits64() >> 11) as f64 / (1u64 << 53) as f64);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_state() {
        let parent1 = DetRng::new(1);
        let mut parent2 = DetRng::new(1);
        parent2.unit(); // advance parent2's state
        let mut f1 = parent1.fork(9);
        let mut f2 = parent2.fork(9);
        assert_eq!(f1.unit().to_bits(), f2.unit().to_bits(), "forks depend only on stream id");
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = DetRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn lognormal_mean_and_cv_converge() {
        let mut r = DetRng::new(4);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| r.lognormal_mean_cv(10.0, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 10.0).abs() < 0.25, "mean={mean}");
        assert!((cv - 0.5).abs() < 0.05, "cv={cv}");
    }

    #[test]
    fn lognormal_zero_cv_is_deterministic() {
        let mut r = DetRng::new(5);
        assert_eq!(r.lognormal_mean_cv(7.5, 0.0), 7.5);
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut r = DetRng::new(6);
        for _ in 0..1_000 {
            let v = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
            let u = r.uniform_u64(5, 9);
            assert!((5..=9).contains(&u));
        }
    }

    /// Dropout masks decide `keep` via `(bits64() >> 11) < ceil(p·2⁵³)` as a
    /// conversion-free version of `unit() < p`; the two must agree draw for
    /// draw (unit() is the top 53 bits of one 64-bit draw, scaled by 2⁻⁵³,
    /// and scaling `p` by the power of two 2⁵³ is exact).
    #[test]
    fn bits64_high_bits_match_unit_decisions() {
        for &p in &[0.75, 0.5, 0.9, 1.0 / 3.0, 0.123456, 0.999] {
            let mut a = DetRng::new(99);
            let mut b = a.clone();
            let thresh = (p * (1u64 << 53) as f64).ceil() as u64;
            for _ in 0..4000 {
                assert_eq!(a.unit() < p, b.bits64() >> 11 < thresh, "p={p}");
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(7);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
