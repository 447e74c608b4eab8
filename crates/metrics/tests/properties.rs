//! Property tests for the metrics substrate: each property runs over seeded
//! cases (case `i` draws its inputs from `DetRng::new(i)`, so a failure names
//! the seed that reproduces it).

use std::ops::Range;

use graf_metrics::{Histogram, RateCounter, Summary, WindowedLatency};
use graf_sim::rng::DetRng;

/// Seeded cases per property.
const CASES: u64 = 64;

/// A `Vec` whose length is uniform in `lens`, each element drawn by `draw`.
fn vec_of<T>(
    rng: &mut DetRng,
    lens: Range<usize>,
    mut draw: impl FnMut(&mut DetRng) -> T,
) -> Vec<T> {
    let n = rng.uniform_u64(lens.start as u64, lens.end as u64 - 1) as usize;
    (0..n).map(|_| draw(rng)).collect()
}

/// `CASES` seeded draws of `u64`s uniform in `values`, with lengths in `lens`.
fn u64_cases(lens: Range<usize>, values: Range<u64>) -> impl Iterator<Item = Vec<u64>> {
    (0..CASES).map(move |case| {
        vec_of(&mut DetRng::new(case), lens.clone(), |r| {
            r.uniform_u64(values.start, values.end - 1)
        })
    })
}

/// Every histogram quantile lies within the recorded extrema, and the
/// p100 equals the maximum exactly.
#[test]
fn histogram_quantiles_bounded() {
    // The counterexample a shrinking property runner once reduced this
    // property to runs first, then the seeded cases.
    let recorded = vec![4_491_818, 0];
    for (case, values) in
        std::iter::once(recorded).chain(u64_cases(1..400, 0..5_000_000)).enumerate()
    {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let lo = *values.iter().min().expect("non-empty");
        let hi = *values.iter().max().expect("non-empty");
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let p = h.percentile(q).expect("recorded");
            assert!(p >= lo && p <= hi, "input {case}: p{q} = {p} outside [{lo}, {hi}]");
        }
        assert_eq!(h.percentile(1.0), Some(hi), "input {case}");
        assert_eq!(h.count(), values.len() as u64, "input {case}");
    }
}

/// Histogram quantiles are non-decreasing in q.
#[test]
fn histogram_quantiles_monotone() {
    for (case, values) in u64_cases(1..300, 0..10_000_000).enumerate() {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut prev = 0;
        for i in 0..=20 {
            let p = h.percentile(i as f64 / 20.0).expect("recorded");
            assert!(p >= prev, "case {case}: p{i}/20 = {p} below {prev}");
            prev = p;
        }
    }
}

/// Histogram quantiles approximate the exact (Summary) quantiles within
/// the bucket relative error.
#[test]
fn histogram_matches_exact_summary() {
    for (case, values) in u64_cases(10..300, 1..2_000_000).enumerate() {
        let mut h = Histogram::new();
        let mut s = Summary::new();
        for &v in &values {
            h.record(v);
            s.record(v as f64);
        }
        for q in [0.5, 0.9, 0.99] {
            let approx = h.percentile(q).expect("recorded") as f64;
            let exact = s.percentile(q).expect("recorded");
            assert!(
                (approx - exact).abs() <= exact * 0.03 + 1.0,
                "case {case}: q={q}: approx {approx} vs exact {exact}"
            );
        }
    }
}

/// Merging two histograms equals recording the concatenation.
#[test]
fn histogram_merge_is_concat() {
    for case in 0..CASES {
        let rng = &mut DetRng::new(case);
        let a = vec_of(rng, 0..150, |r| r.uniform_u64(0, 999_999));
        let b = vec_of(rng, 1..150, |r| r.uniform_u64(0, 999_999));
        let mut ha = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = Histogram::new();
        for &v in &b {
            hb.record(v);
        }
        let mut hc = Histogram::new();
        for &v in a.iter().chain(&b) {
            hc.record(v);
        }
        ha.merge(&hb);
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(ha.percentile(q), hc.percentile(q), "case {case}: q={q}");
        }
        assert_eq!(ha.count(), hc.count(), "case {case}");
    }
}

/// RateCounter conserves the number of recorded events across windows.
#[test]
fn rate_counter_conserves_events() {
    for (case, ts) in u64_cases(1..300, 0..60_000_000).enumerate() {
        let mut r = RateCounter::new(1_000_000, 61);
        for &t in &ts {
            r.record(t);
        }
        let max = *ts.iter().max().expect("non-empty");
        assert_eq!(r.count_trailing(max, 61), ts.len() as u64, "case {case}");
    }
}

/// WindowedLatency trailing-window counts partition by window width.
#[test]
fn windowed_counts_partition() {
    for (case, ts) in u64_cases(1..200, 0..10_000_000).enumerate() {
        let mut w = WindowedLatency::new(1_000_000, 16);
        for &t in &ts {
            w.record(t, 5);
        }
        let total = w.count_trailing(9_999_999, 10);
        let split: u64 = (0..10u64).map(|i| w.count_trailing(i * 1_000_000, 1)).sum();
        assert_eq!(total, split, "case {case}");
        assert_eq!(total, ts.len() as u64, "case {case}");
    }
}

/// Summary percentile equals the sorted-order element (nearest rank).
#[test]
fn summary_is_nearest_rank() {
    for case in 0..CASES {
        let rng = &mut DetRng::new(case);
        let values = vec_of(rng, 1..200, |r| r.uniform(-1e6, 1e6));
        let q = rng.unit();
        let mut s = Summary::new();
        for &v in &values {
            s.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        assert_eq!(s.percentile(q), Some(sorted[rank - 1]), "case {case}: q={q}");
    }
}
