//! The benchmark's own statistics and input randomness.
//!
//! Nothing here comes from `graf-metrics` or `graf-sim`: a change to a crate
//! under test must not be able to change how it is scored or what inputs it
//! is given.

/// Sorts a copy of `values` ascending (NaN-free inputs only).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// `(q1, median, q3)` of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.5), quantile_sorted(&v, 0.75))
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile in [0, 100), value)`; `None` below eleven samples, where
/// no percentile qualifies.
///
/// With `n` samples sorted ascending, the value at index `n - 11` has exactly
/// ten samples above it, and sits at percentile `100 · (n - 10) / n`.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let v = sorted(values);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// 64-bit FNV-1a, fed incrementally. Used for output fingerprints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One FNV-1a step over a whole 64-bit word instead of eight byte steps:
    /// millions of values are hashed inside timed sections.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Hashes the exact bit pattern, so "same bytes" means same bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// SplitMix64: the benchmark's input generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let (q1, m, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
        let (q1, _, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q1, q3), (1.75, 3.25));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        // 11 samples: only the minimum has ten above it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!(x, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        // 1000 samples: p99, value 990, exactly ten samples (991..=1000) beyond.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(x, 990.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
        // Bit patterns, not values: -0.0 and 0.0 differ.
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.f64(0.0);
        b.f64(-0.0);
        assert_ne!(a, b);
    }

    #[test]
    fn rng_is_seeded_and_in_range() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs[0], c.next_u64());
        for _ in 0..1000 {
            let u = a.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&u));
        }
        let mut items: Vec<u32> = (0..20).collect();
        a.shuffle(&mut items);
        let mut back = items.clone();
        back.sort_unstable();
        assert_eq!(back, (0..20).collect::<Vec<_>>());
        assert_ne!(items, back, "20 items almost surely move");
    }
}
