//! The per-consumer fault engine.
//!
//! A [`ChaosEngine`] is forked from a [`crate::ChaosSchedule`] with a stream
//! id; each consumer that owns one — the cluster ([`crate::stream::CLUSTER`])
//! and the resilient controller ([`crate::stream::CONTROLLER`]) — forks its
//! own, so random draws never interleave between sites. All queries take
//! the current simulated time and are pure lookups except the probabilistic
//! ones, which draw from the engine's deterministic stream.

use graf_sim::rng::DetRng;
use graf_sim::time::{SimDuration, SimTime};

use crate::spec::{FaultKind, FaultSpec};

/// Answers "is fault X active, and did it strike?" at decision points.
#[derive(Clone, Debug)]
pub struct ChaosEngine {
    specs: Vec<FaultSpec>,
    rng: DetRng,
}

impl ChaosEngine {
    pub(crate) fn new(specs: Vec<FaultSpec>, seed: u64, stream: u64) -> Self {
        // `fork` derives the child purely from its stream argument, so the
        // schedule seed must be mixed in (the same convention the world's
        // rng streams use) — otherwise every seed would draw identically.
        Self { specs, rng: DetRng::new(seed).fork(seed ^ stream) }
    }

    /// Whether a [`FaultKind::MetricNan`] gap window is active.
    pub fn metric_nan(&self, now: SimTime) -> bool {
        self.specs.iter().any(|s| matches!(s.kind, FaultKind::MetricNan) && s.active_at(now))
    }

    /// The largest active [`FaultKind::MetricStale`] scrape delay, if any.
    pub fn metric_delay(&self, now: SimTime) -> Option<SimDuration> {
        self.specs
            .iter()
            .filter(|s| s.active_at(now))
            .filter_map(|s| match s.kind {
                FaultKind::MetricStale { delay } => Some(delay),
                _ => None,
            })
            .max_by_key(|d| d.as_micros())
    }

    /// When an active [`FaultKind::StaleModel`] window opened — the instant
    /// the served snapshot froze — if one is active.
    pub fn stale_model_since(&self, now: SimTime) -> Option<SimTime> {
        self.specs
            .iter()
            .filter(|s| matches!(s.kind, FaultKind::StaleModel) && s.active_at(now))
            .map(|s| s.from)
            .min_by_key(|t| t.as_micros())
    }

    /// Whether a creation batch started at `now` fails. Draws one chance per
    /// active [`FaultKind::CreationFail`] window, in schedule order, so runs
    /// stay bit-reproducible.
    pub fn creation_fails(&mut self, now: SimTime) -> bool {
        let mut failed = false;
        for i in 0..self.specs.len() {
            let s = &self.specs[i];
            if let FaultKind::CreationFail { prob } = s.kind {
                if s.active_at(now) && self.rng.chance(prob) {
                    failed = true;
                }
            }
        }
        failed
    }

    /// The combined [`FaultKind::SlowStart`] delay multiplier at `now`
    /// (product of active windows; `1.0` when none are active).
    pub fn slow_start_factor(&self, now: SimTime) -> f64 {
        self.specs
            .iter()
            .filter(|s| s.active_at(now))
            .filter_map(|s| match s.kind {
                FaultKind::SlowStart { factor } => Some(factor),
                _ => None,
            })
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChaosSchedule;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn queries_respect_windows() {
        let sched = ChaosSchedule::new(7)
            .fault(FaultKind::MetricNan, t(10.0), t(20.0))
            .fault(FaultKind::MetricStale { delay: SimDuration::from_secs(30.0) }, t(15.0), t(25.0))
            .fault(FaultKind::StaleModel, t(40.0), t(50.0))
            .fault(FaultKind::SlowStart { factor: 4.0 }, t(60.0), t(70.0));
        let e = sched.engine(1);
        assert!(e.metric_nan(t(12.0)));
        assert!(!e.metric_nan(t(22.0)));
        assert_eq!(e.metric_delay(t(16.0)), Some(SimDuration::from_secs(30.0)));
        assert_eq!(e.metric_delay(t(5.0)), None);
        assert_eq!(e.stale_model_since(t(45.0)), Some(t(40.0)));
        assert_eq!(e.stale_model_since(t(55.0)), None);
        assert_eq!(e.slow_start_factor(t(65.0)), 4.0);
        assert_eq!(e.slow_start_factor(t(5.0)), 1.0);
    }

    #[test]
    fn creation_failures_are_deterministic_per_stream() {
        let sched =
            ChaosSchedule::new(11).fault(FaultKind::CreationFail { prob: 0.5 }, t(0.0), t(100.0));
        let draws = |stream: u64| -> Vec<bool> {
            let mut e = sched.engine(stream);
            (0..32).map(|i| e.creation_fails(t(i as f64))).collect()
        };
        assert_eq!(draws(2), draws(2), "same stream → same outcomes");
        assert_ne!(draws(2), draws(3), "different streams are independent");
        assert!(draws(2).iter().any(|&b| b) && draws(2).iter().any(|&b| !b));
        // A different schedule seed must change the draws on the same stream.
        let other =
            ChaosSchedule::new(12).fault(FaultKind::CreationFail { prob: 0.5 }, t(0.0), t(100.0));
        let mut e = other.engine(2);
        let other_draws: Vec<bool> = (0..32).map(|i| e.creation_fails(t(i as f64))).collect();
        assert_ne!(draws(2), other_draws, "seed feeds the fault stream");
    }

    #[test]
    fn certain_failure_always_fires_inside_window() {
        let sched =
            ChaosSchedule::new(3).fault(FaultKind::CreationFail { prob: 1.0 }, t(10.0), t(20.0));
        let mut e = sched.engine(1);
        assert!(!e.creation_fails(t(5.0)));
        assert!(e.creation_fails(t(15.0)));
        assert!(!e.creation_fails(t(25.0)));
    }
}
