//! The metrics registry: named counters, gauges and log-bucketed histograms
//! with labelled series.
//!
//! Series are keyed by `(name, sorted labels)` and stored in a `BTreeMap`
//! so exports render in a stable order. Histograms reuse
//! [`graf_metrics::Histogram`], the same log-bucketed structure the
//! simulator's latency surfaces use (bounded relative error, O(1) record).

use std::collections::BTreeMap;

use graf_metrics::Histogram;

/// A label set: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

/// The kind and state of one metric series.
#[derive(Clone, Debug)]
pub enum Series {
    /// Monotone counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Log-bucketed histogram of `u64` values.
    Hist(Histogram),
}

impl Series {
    /// The kind of this series: `counter`, `gauge` or `histogram`.
    pub fn type_name(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Hist(_) => "histogram",
        }
    }
}

/// Keyed metric storage. All mutation goes through [`crate::Obs`].
#[derive(Debug, Default)]
pub struct Registry {
    series: BTreeMap<(&'static str, Labels), Series>,
}

fn own(labels: &[(&'static str, &str)]) -> Labels {
    let mut v: Labels = labels.iter().map(|(k, val)| (k.to_string(), val.to_string())).collect();
    v.sort();
    v
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter series, creating it at zero first.
    ///
    /// Recording under a name already registered as a different metric kind
    /// is a programming error and panics (names are static strings chosen at
    /// instrumentation sites).
    pub fn counter_add(&mut self, name: &'static str, labels: &[(&'static str, &str)], n: u64) {
        match self.series.entry((name, own(labels))).or_insert(Series::Counter(0)) {
            Series::Counter(c) => *c += n,
            other => panic!("{name} already registered as {}", other.type_name()),
        }
    }

    /// Sets a gauge series.
    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        match self.series.entry((name, own(labels))).or_insert(Series::Gauge(0.0)) {
            Series::Gauge(g) => *g = v,
            other => panic!("{name} already registered as {}", other.type_name()),
        }
    }

    /// Records into a histogram series.
    pub fn hist_record(&mut self, name: &'static str, labels: &[(&'static str, &str)], value: u64) {
        match self
            .series
            .entry((name, own(labels)))
            .or_insert_with(|| Series::Hist(Histogram::new()))
        {
            Series::Hist(h) => h.record(value),
            other => panic!("{name} already registered as {}", other.type_name()),
        }
    }

    /// All series in stable `(name, labels)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Labels, &Series)> {
        self.series.iter().map(|((name, labels), s)| (*name, labels, s))
    }

    /// Looks up a single series.
    pub fn get(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Option<&Series> {
        self.series.get(&(name, own(labels)))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` when no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut r = Registry::new();
        r.counter_add("c", &[("svc", "a")], 1);
        r.counter_add("c", &[("svc", "a")], 2);
        r.counter_add("c", &[("svc", "b")], 5);
        assert_eq!(r.len(), 2);
        match r.get("c", &[("svc", "a")]) {
            Some(Series::Counter(3)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn label_order_does_not_split_series() {
        let mut r = Registry::new();
        r.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let mut r = Registry::new();
        r.gauge_set("g", &[], 1.0);
        r.gauge_set("g", &[], -2.5);
        match r.get("g", &[]) {
            Some(Series::Gauge(v)) => assert_eq!(*v, -2.5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn histograms_record_counts() {
        let mut r = Registry::new();
        for v in [10u64, 20, 30] {
            r.hist_record("h", &[], v);
        }
        match r.get("h", &[]) {
            Some(Series::Hist(h)) => {
                assert_eq!(h.count(), 3);
                assert_eq!(h.max(), 30);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let mut r = Registry::new();
        r.counter_add("x", &[], 1);
        r.gauge_set("x", &[], 1.0);
    }
}
