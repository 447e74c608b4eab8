//! Log-bucketed latency histogram with bounded relative error.
//!
//! The design mirrors HDR-style histograms: values are mapped to buckets whose
//! width grows geometrically, so any recorded value is reproduced by
//! [`Histogram::percentile`] within a fixed relative error (~2 % by default).
//! This is the same trade-off Prometheus/Jaeger make for latency data, and it
//! is what the paper's tail-latency measurements rely on.

/// Geometric growth factor between adjacent buckets.
///
/// `1.02` keeps the relative quantile error under 2 %, comfortably below the
/// natural run-to-run variance of p99 latency that the paper itself reports
/// (Table 2 notes >20 % irreducible error from p99 noise).
const GROWTH: f64 = 1.02;

/// Number of exact one-microsecond buckets at the low end.
///
/// Latencies below this resolve exactly; beyond it buckets grow geometrically.
const LINEAR_CUTOFF: u64 = 128;

/// Precomputed geometric-bucket boundaries.
///
/// `bounds[i]` is the smallest value whose geometric bucket index is
/// `LINEAR_CUTOFF + i`; `cnt_le_pow2[k]` counts the bounds `<= 2^k`, which
/// narrows a lookup to the ~35 buckets of one octave. The table is built once
/// per process from the *same* float expression the bucketer historically
/// evaluated per record (`ln(v / cutoff) / ln(growth)`, floored), and each
/// boundary is adjusted against that expression, so table lookups reproduce
/// the float bucketing bit-for-bit — without the per-record `ln`.
struct BucketTable {
    bounds: Vec<u64>,
    cnt_le_pow2: [u32; 64],
}

static BUCKET_TABLE: std::sync::OnceLock<BucketTable> = std::sync::OnceLock::new();

impl BucketTable {
    fn get() -> &'static BucketTable {
        BUCKET_TABLE.get_or_init(BucketTable::build)
    }

    /// The historical per-record formula; the reference the table must match.
    fn float_extra(value: u64) -> usize {
        let extra = ((value as f64) / (LINEAR_CUTOFF as f64)).ln() / GROWTH.ln();
        extra.floor() as usize
    }

    fn build() -> Self {
        let mut bounds = vec![LINEAR_CUTOFF];
        loop {
            let i = bounds.len();
            if (LINEAR_CUTOFF as f64) * GROWTH.powi(i as i32) >= u64::MAX as f64 {
                break;
            }
            let from = bounds[i - 1].max(LINEAR_CUTOFF + 1);
            bounds.push(Self::first_reaching(i, from, Self::float_extra));
        }
        let mut cnt_le_pow2 = [0u32; 64];
        for (k, slot) in cnt_le_pow2.iter_mut().enumerate() {
            *slot = bounds.partition_point(|&b| b <= (1u64 << k)) as u32;
        }
        Self { bounds, cnt_le_pow2 }
    }

    /// The smallest `c >= from` with `extra(c) >= i`, for a non-decreasing
    /// `extra` (the float formula is: `as f64`, the division, `ln` and
    /// `floor` each preserve order). Gallops up from `from`, then bisects:
    /// at most ~128 evaluations, where stepping one integer at a time would
    /// take millions above 2^53, where `c as f64` stays put across long runs
    /// of integers.
    fn first_reaching(i: usize, from: u64, mut extra: impl FnMut(u64) -> usize) -> u64 {
        if extra(from) >= i {
            return from;
        }
        // Invariant: extra(lo) < i <= extra(hi).
        let (mut lo, mut step) = (from, 1u64);
        let mut hi = loop {
            let probe = lo.saturating_add(step);
            if probe == u64::MAX || extra(probe) >= i {
                break probe;
            }
            (lo, step) = (probe, step.saturating_mul(2));
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if extra(mid) >= i {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Geometric bucket offset of `value` (which must be `>= LINEAR_CUTOFF`).
    #[inline]
    fn extra_of(&self, value: u64) -> usize {
        let k = value.ilog2() as usize;
        let lo = self.cnt_le_pow2[k] as usize;
        let hi = if k + 1 < 64 { self.cnt_le_pow2[k + 1] as usize } else { self.bounds.len() };
        // The octave holds ≤ ~36 bounds: a branchless count vectorizes and
        // beats a binary search's unpredictable branches.
        let in_octave: usize = self.bounds[lo..hi].iter().map(|&b| (b <= value) as usize).sum();
        lo + in_octave - 1
    }
}

/// A log-bucketed histogram of `u64` values (simulation microseconds).
///
/// Recording is O(1); percentile queries are O(#buckets). Buckets are
/// allocated lazily up to the largest observed value.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { counts: Vec::new(), total: 0, max: 0, min: u64::MAX, sum: 0 }
    }

    /// Maps a value to its bucket index.
    ///
    /// Table-driven (one octave-narrowed binary search) but bit-identical to
    /// the original `ln`-per-call mapping — see [`BucketTable`].
    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value < LINEAR_CUTOFF {
            value as usize
        } else {
            LINEAR_CUTOFF as usize + BucketTable::get().extra_of(value)
        }
    }

    /// Returns a representative value (geometric midpoint) for a bucket index.
    fn value_of(bucket: usize) -> u64 {
        if bucket < LINEAR_CUTOFF as usize {
            bucket as u64
        } else {
            let lo = (LINEAR_CUTOFF as f64) * GROWTH.powi((bucket - LINEAR_CUTOFF as usize) as i32);
            let hi = lo * GROWTH;
            ((lo + hi) * 0.5).round() as u64
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.sum += value as u128;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Returns the value at quantile `q` in `[0, 1]`.
    ///
    /// The answer is exact for values under `LINEAR_CUTOFF` and within the
    /// bucket relative error otherwise. Returns `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation (1-based), "nearest-rank" definition.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let top = self.counts.iter().rposition(|&c| c > 0);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The extreme buckets answer with the exact extrema (so p0
                // and p100 are exact); interior buckets use the midpoint.
                if Some(b) == top && seen == self.total && c > 0 && rank > seen - c {
                    return Some(self.max);
                }
                return Some(Self::value_of(b).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Sum of all recorded values (exact).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (b, &c) in other.counts.iter().enumerate() {
            self.counts[b] += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.max = self.max.max(other.max);
            self.min = self.min.min(other.min);
        }
    }

    /// Clears all recorded data.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.max = 0;
        self.min = u64::MAX;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_table_is_pinned() {
        // FNV-1a over `bounds` then `cnt_le_pow2`, little-endian: the table
        // the one-integer-at-a-time search built, so a faster search must
        // build the same one.
        let table = BucketTable::get();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let bytes = table.bounds.iter().flat_map(|b| b.to_le_bytes());
        for b in bytes.chain(table.cnt_le_pow2.iter().flat_map(|c| c.to_le_bytes())) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!((table.bounds.len(), h), (1996, 0x89a5_76bd_7805_0811));
    }

    #[test]
    fn bucket_bound_search_is_logarithmic() {
        // Each bound costs a bounded number of formula evaluations, however
        // far it lies from the previous one.
        let bounds = &BucketTable::get().bounds;
        for i in 1..bounds.len() {
            let mut evals = 0;
            let from = bounds[i - 1].max(LINEAR_CUTOFF + 1);
            let found = BucketTable::first_reaching(i, from, |c| {
                evals += 1;
                BucketTable::float_extra(c)
            });
            assert_eq!(found, bounds[i], "bound {i}");
            assert!(evals <= 128, "bound {i}: {evals} evaluations");
        }
    }

    #[test]
    fn bucket_table_matches_float_formula() {
        // Exhaustive over the low range, boundary-neighborhood and strided
        // probes above: the table must reproduce the ln-based mapping exactly.
        for v in LINEAR_CUTOFF..100_000 {
            assert_eq!(
                Histogram::bucket_of(v),
                LINEAR_CUTOFF as usize + BucketTable::float_extra(v),
                "value {v}"
            );
        }
        for &b in &BucketTable::get().bounds {
            for v in [b.saturating_sub(1), b, b + 1] {
                assert_eq!(
                    Histogram::bucket_of(v.max(LINEAR_CUTOFF)),
                    LINEAR_CUTOFF as usize + BucketTable::float_extra(v.max(LINEAR_CUTOFF)),
                    "boundary neighbor {v}"
                );
            }
        }
        let mut v: u64 = 100_000;
        while let Some(next) = v.checked_mul(3) {
            assert_eq!(
                Histogram::bucket_of(v),
                LINEAR_CUTOFF as usize + BucketTable::float_extra(v),
                "stride {v}"
            );
            v = next.wrapping_add(12_345);
        }
        assert_eq!(
            Histogram::bucket_of(u64::MAX),
            LINEAR_CUTOFF as usize + BucketTable::float_extra(u64::MAX)
        );
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_value_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(42);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(42));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..100 {
            h.record(v);
        }
        // Nearest-rank: rank ceil(0.5*100)=50 → 50th smallest of 0..=99 is 49.
        assert_eq!(h.percentile(0.5), Some(49));
        assert_eq!(h.percentile(0.99), Some(98));
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 99);
    }

    #[test]
    fn large_values_within_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100); // 100 us .. 1 s
        }
        let p50 = h.percentile(0.5).unwrap() as f64;
        let p99 = h.percentile(0.99).unwrap() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.03, "p50={p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.03, "p99={p99}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.percentile(0.0), Some(10));
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = Histogram::new();
        h.record(5);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn percentile_monotone_in_q() {
        let mut h = Histogram::new();
        let mut x = 7u64;
        for _ in 0..5_000 {
            // Simple LCG spread over a wide range.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.record(x % 2_000_000);
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let v = h.percentile(i as f64 / 100.0).unwrap();
            assert!(v >= prev, "quantiles must be monotone");
            prev = v;
        }
    }
}
