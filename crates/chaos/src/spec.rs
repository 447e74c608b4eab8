//! Fault specifications and schedules.
//!
//! A [`FaultSpec`] is one fault class active over one `[from, until)` window
//! of simulated time; a [`ChaosSchedule`] composes any number of them under a
//! single seed. Schedules are plain data — cheap to clone, comparable in
//! tests, and independent of any consumer.

use graf_sim::time::SimTime;
use graf_sim::topology::ServiceId;
use graf_sim::world::World;

use crate::engine::ChaosEngine;

/// One injectable fault class. See the crate-level fault catalog for where
/// each kind is consumed.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Trace spans are dropped with this probability while the window is
    /// active — finished traces arrive truncated (partial call graphs), the
    /// failure mode the workload analyzer must interpolate across.
    TraceDrop {
        /// Per-span drop probability in `(0, 1]`.
        drop_prob: f64,
    },
    /// The controller's metric scrape returns NaN for every per-API rate —
    /// a Prometheus gap window.
    MetricNan,
    /// The controller's metric scrape returns readings `delay` old — scrape
    /// lag / staleness.
    MetricStale {
        /// How far behind the scrape lags.
        delay: graf_sim::time::SimDuration,
    },
    /// Solver-input corruption: the controller keeps being served the
    /// snapshot taken when the window opened (a stale model input that stops
    /// tracking the live workload).
    StaleModel,
    /// Instance creation fails: a `set_desired` scale-up attempted inside
    /// the window loses its whole batch with this probability.
    CreationFail {
        /// Per-batch failure probability in `(0, 1]`.
        prob: f64,
    },
    /// Slow-start: the Figure-1 creation delay is multiplied by this factor
    /// for batches started inside the window.
    SlowStart {
        /// Delay multiplier, `> 1`.
        factor: f64,
    },
    /// A per-service latency/contention spike: requests at `service` cost
    /// `factor×` their normal CPU while the window is active (the §6
    /// noisy-neighbour anomaly).
    LatencySpike {
        /// Affected service.
        service: ServiceId,
        /// CPU-cost multiplier, `≥ 1`.
        factor: f64,
    },
}

impl FaultKind {
    /// Short stable name of the fault class, for tables and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::TraceDrop { .. } => "trace_drop",
            FaultKind::MetricNan => "metric_nan",
            FaultKind::MetricStale { .. } => "metric_stale",
            FaultKind::StaleModel => "stale_model",
            FaultKind::CreationFail { .. } => "creation_fail",
            FaultKind::SlowStart { .. } => "slow_start",
            FaultKind::LatencySpike { .. } => "latency_spike",
        }
    }
}

/// One fault active over `[from, until)` of simulated time.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl FaultSpec {
    /// Creates a spec; panics unless `until > from` and the kind's parameters
    /// are in range.
    pub fn new(kind: FaultKind, from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "fault window must be non-empty");
        match &kind {
            FaultKind::TraceDrop { drop_prob } => {
                assert!(*drop_prob > 0.0 && *drop_prob <= 1.0, "drop_prob in (0, 1]")
            }
            FaultKind::CreationFail { prob } => {
                assert!(*prob > 0.0 && *prob <= 1.0, "prob in (0, 1]")
            }
            FaultKind::SlowStart { factor } => assert!(*factor > 1.0, "slow-start factor > 1"),
            FaultKind::LatencySpike { factor, .. } => {
                assert!(*factor >= 1.0, "contention only slows work down")
            }
            FaultKind::MetricNan | FaultKind::MetricStale { .. } | FaultKind::StaleModel => {}
        }
        Self { kind, from, until }
    }

    /// Whether the window covers `now`. Windows are half-open: active at
    /// `from`, inactive again at `until`.
    ///
    /// ```
    /// use graf_chaos::{FaultKind, FaultSpec};
    /// use graf_sim::time::SimTime;
    /// let s = FaultSpec::new(FaultKind::MetricNan, SimTime::from_secs(10.0), SimTime::from_secs(20.0));
    /// assert!(s.active_at(SimTime::from_secs(10.0)));
    /// assert!(!s.active_at(SimTime::from_secs(20.0))); // half-open
    /// ```
    pub fn active_at(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// A seeded, composable set of fault windows.
///
/// The schedule is the single source of truth for a chaos run: the same
/// schedule is installed into the world ([`ChaosSchedule::install_world`])
/// and handed to each consumer as an engine ([`ChaosSchedule::engine`]), so
/// one value describes the whole experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSchedule {
    specs: Vec<FaultSpec>,
    seed: u64,
}

impl ChaosSchedule {
    /// Creates an empty schedule. Arming an empty schedule injects nothing
    /// and perturbs nothing — the `chaos off` ≡ baseline invariant.
    pub fn new(seed: u64) -> Self {
        Self { specs: Vec::new(), seed }
    }

    /// Adds a fault window (builder style). Panics on out-of-range
    /// parameters — see [`FaultSpec::new`].
    pub fn fault(mut self, kind: FaultKind, from: SimTime, until: SimTime) -> Self {
        self.specs.push(FaultSpec::new(kind, from, until));
        self
    }

    /// The schedule's seed — every engine forks its stream from it.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault windows, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether the schedule carries no faults.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Whether any fault window covers `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        self.specs.iter().any(|s| s.active_at(now))
    }

    /// Forks a consumer engine on its own deterministic stream (use the ids
    /// in [`crate::stream`] so sites never share draws).
    pub fn engine(&self, stream: u64) -> ChaosEngine {
        ChaosEngine::new(self.specs.clone(), self.seed, stream)
    }

    /// Installs the world-level faults into a simulated world: trace-span
    /// drops and per-service contention spikes. Metric, model and creation
    /// faults are consumed by the controller and the cluster instead.
    pub fn install_world(&self, world: &mut World) {
        for s in &self.specs {
            match s.kind {
                FaultKind::TraceDrop { drop_prob } => {
                    world.inject_span_drop(s.from, s.until, drop_prob);
                }
                FaultKind::LatencySpike { service, factor } if factor > 1.0 => {
                    world.inject_contention(service, factor, s.from, s.until);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn windows_are_half_open() {
        let s = FaultSpec::new(FaultKind::MetricNan, t(1.0), t(2.0));
        assert!(!s.active_at(SimTime::from_micros(999_999)));
        assert!(s.active_at(t(1.0)));
        assert!(!s.active_at(t(2.0)));
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn rejects_out_of_range_probability() {
        let _ = FaultSpec::new(FaultKind::TraceDrop { drop_prob: 1.5 }, t(0.0), t(1.0));
    }
}
