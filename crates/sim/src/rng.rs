//! Deterministic random-number generation and the distributions the
//! simulation draws from.
//!
//! All stochastic behaviour in the simulator (service-time variability,
//! arrival jitter, trace sampling, user think times) flows from one seed so
//! experiments are exactly reproducible. Distributions are implemented
//! in-repo — the offline dependency set has `rand` but no `rand_distr`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
    inner: SmallRng,
}

/// SplitMix64 step, used for seed derivation when forking streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The seed of the stream named `key` under `root`: FNV-1a of the key bytes,
/// mixed with the root through `splitmix64`. A pure function of its
/// arguments — never of an index, a shard or a worker — so rerunning one
/// named stream alone reproduces it, and adding streams moves no other.
pub fn derive_seed(root: u64, key: &str) -> u64 {
    let fnv1a = key
        .bytes()
        .fold(0xcbf29ce484222325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3));
    splitmix64(fnv1a ^ splitmix64(root))
}

impl DetRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        Self { inner: SmallRng::seed_from_u64(seed) }
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// 64 uniform random bits — the cheapest draw, for consumers that batch
    /// many coarse Bernoulli trials (e.g. dropout masks) out of one call.
    pub fn bits64(&mut self) -> u64 {
        self.inner.gen::<u64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..=hi)
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
    fn seed_depends_on_key_and_grid_seed() {
        let a = derive_seed(7, "app=boutique/slo=60");
        assert_eq!(a, derive_seed(7, "app=boutique/slo=60"), "deterministic");
        assert_ne!(a, derive_seed(8, "app=boutique/slo=60"), "grid seed matters");
        assert_ne!(a, derive_seed(7, "app=boutique/slo=90"), "key matters");
    }

    #[test]
    fn nearby_keys_get_well_separated_seeds() {
        // Single-character key edits must flip roughly half the bits.
        let a = derive_seed(7, "slo=60");
        let b = derive_seed(7, "slo=61");
        let differing = (a ^ b).count_ones();
        assert!((16..=48).contains(&differing), "only {differing} bits differ");
    }

    #[test]
    fn pinned_values_guard_the_derivation() {
        // Changing the hash silently would re-seed every sweep cell in every
        // committed history; pin two reference points.
        assert_eq!(derive_seed(0, "a=1"), 0xc4d9d0b00f0c9ec3);
        assert_eq!(derive_seed(7, "app=boutique/policy=hpa/slo=60/surge=none"), 0x1d248e99311bc34e);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(7);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
