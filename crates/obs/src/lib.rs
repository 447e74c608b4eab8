//! # graf-obs
//!
//! Framework-wide telemetry for the GRAF control loop: structured spans and
//! points, a metrics registry, and two exports (a JSONL event log and a
//! human-readable summary).
//!
//! The paper's GRAF consumes observability (Jaeger traces, Prometheus and
//! cAdvisor metrics) but our reproduction had none *of itself*: solver
//! iteration counts, training curves, Algorithm-1 probe counts and
//! instance-creation behaviour were invisible, which made scaling work
//! unmeasurable. This crate is the substrate every performance PR reports
//! against.
//!
//! ## Design
//!
//! Everything hangs off an [`Obs`] handle — a cheap clonable
//! `Option<Arc<..>>`. A **disabled** handle (the default everywhere) costs
//! one branch per instrumentation point: no allocation, no locking, no
//! clock reads, so hot paths are unaffected and simulation results are
//! bit-identical with telemetry on or off (telemetry never feeds back into
//! control decisions).
//!
//! * [`Obs::span`] returns an [`ObsSpan`] scoped guard recording name,
//!   wall-clock duration, optional simulated time and key/value attributes
//!   into a bounded event sink on drop.
//! * [`Obs::point`] records an instantaneous event the same way.
//! * [`Obs::counter_add`] / [`Obs::gauge_set`] / [`Obs::hist_record`]
//!   maintain named, labelled series in the metrics registry; histograms
//!   reuse [`graf_metrics::Histogram`]'s log-bucketed internals.
//! * [`Obs::write_jsonl`] and [`Obs::summary`] export everything (see
//!   [`export`]).
//!
//! This is the one record of a run: a control tick's decision (inputs,
//! ladder rung, solver statistics, applied plan) is a `graf.controller.tick`
//! span plus a `graf.resilient.tick` point, not a side file.
//!
//! ## Naming conventions
//!
//! Dotted lowercase paths, `graf.<component>.<thing>`:
//! `graf.controller.tick`, `graf.solver.solve`, `graf.solver.iterations`,
//! `graf.train.eval`, `graf.sample.bounds`, `graf.cluster.creations_started`,
//! `graf.sim.events`.
//!
//! **Invariants.** Telemetry is strictly write-only: no instrumented
//! component ever reads a counter, gauge or span back to make a decision,
//! so enabling or disabling observation cannot change simulation results.
//! A disabled handle ([`Obs::disabled`]) short-circuits before formatting
//! or allocating, keeping instrumented hot paths allocation-free.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod export;
pub mod json;
pub mod registry;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use registry::Registry;

/// Default bound on retained events; newer events beyond it are counted as
/// dropped rather than growing the log without limit.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

/// An attribute or metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Floating-point value.
    F64(f64),
    /// Signed integer value.
    I64(i64),
    /// Unsigned integer value.
    U64(u64),
    /// Boolean value.
    Bool(bool),
    /// String value.
    Str(String),
    /// A list of numbers (per-API rates, per-service counts); non-finite
    /// entries export as `null`.
    List(Vec<f64>),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::List(v)
    }
}

/// What an [`Event`] records.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A completed span with its wall-clock duration in microseconds.
    Span {
        /// Wall-clock duration, µs.
        dur_us: u64,
    },
    /// An instantaneous event.
    Point,
}

/// One recorded telemetry event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotone sequence number (unique per handle).
    pub seq: u64,
    /// Wall-clock microseconds since the handle was created (monotone).
    pub wall_us: u64,
    /// Simulated time in seconds, when the instrumentation point knows it.
    pub sim_s: Option<f64>,
    /// Event name (`graf.controller.tick`, …).
    pub name: &'static str,
    /// Span or point.
    pub kind: EventKind,
    /// Key/value attributes.
    pub attrs: Vec<(&'static str, Value)>,
}

struct Sink {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
    last_wall_us: u64,
}

struct Inner {
    start: Instant,
    seq: AtomicU64,
    sink: Mutex<Sink>,
    registry: Mutex<Registry>,
}

impl Inner {
    /// Wall-clock µs since handle creation, guaranteed non-decreasing across
    /// recorded events (enforced under the sink lock).
    fn record(&self, mut ev: Event) {
        let mut sink = self.sink.lock().expect("obs sink");
        ev.wall_us = ev.wall_us.max(sink.last_wall_us);
        sink.last_wall_us = ev.wall_us;
        if sink.events.len() >= sink.capacity {
            sink.dropped += 1;
        } else {
            sink.events.push(ev);
        }
    }
}

/// The telemetry handle. Clones share the same sink and registry.
///
/// A disabled handle (from [`Obs::disabled`] or `Obs::default()`) makes every
/// operation a cheap no-op.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => {
                let sink = i.sink.lock().expect("obs sink");
                write!(
                    f,
                    "Obs {{ enabled, events: {}, dropped: {} }}",
                    sink.events.len(),
                    sink.dropped
                )
            }
            None => write!(f, "Obs {{ disabled }}"),
        }
    }
}

impl Obs {
    /// A disabled handle: every instrumentation point is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle with the default event capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled handle retaining at most `capacity` events.
    #[expect(
        clippy::disallowed_methods,
        reason = "the epoch of the wall_us stamps: telemetry output, never a simulation input"
    )]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                seq: AtomicU64::new(0),
                sink: Mutex::new(Sink {
                    events: Vec::new(),
                    capacity: capacity.max(1),
                    dropped: 0,
                    last_wall_us: 0,
                }),
                registry: Mutex::new(Registry::new()),
            })),
        }
    }

    /// `true` when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a scoped span; its duration and attributes are recorded when
    /// the returned guard drops. No-op (no allocation) when disabled.
    pub fn span(&self, name: &'static str) -> ObsSpan {
        match &self.inner {
            Some(inner) => ObsSpan {
                state: Some(SpanState {
                    inner: Arc::clone(inner),
                    name,
                    start_us: inner.start.elapsed().as_micros() as u64,
                    sim_s: None,
                    attrs: Vec::new(),
                    kind_is_span: true,
                }),
            },
            None => ObsSpan { state: None },
        }
    }

    /// Starts an instantaneous event; recorded (with its attributes, no
    /// duration) when the returned guard drops.
    pub fn point(&self, name: &'static str) -> ObsSpan {
        let mut s = self.span(name);
        if let Some(state) = &mut s.state {
            state.kind_is_span = false;
        }
        s
    }

    /// Adds `n` to the counter `name` with the given labels.
    pub fn counter_add(&self, name: &'static str, labels: &[(&'static str, &str)], n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().expect("obs registry").counter_add(name, labels, n);
        }
    }

    /// Sets the gauge `name` with the given labels to `v`.
    pub fn gauge_set(&self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().expect("obs registry").gauge_set(name, labels, v);
        }
    }

    /// Records `value` into the log-bucketed histogram `name` with the given
    /// labels.
    pub fn hist_record(&self, name: &'static str, labels: &[(&'static str, &str)], value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().expect("obs registry").hist_record(name, labels, value);
        }
    }

    /// Snapshot of all recorded events, in record order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.sink.lock().expect("obs sink").events.clone(),
            None => Vec::new(),
        }
    }

    /// Number of events dropped because the sink was full.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.sink.lock().expect("obs sink").dropped,
            None => 0,
        }
    }

    /// Runs `f` over the metrics registry snapshot (None when disabled).
    pub(crate) fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| f(&inner.registry.lock().expect("obs registry")))
    }

    pub(crate) fn wall_us_now(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.start.elapsed().as_micros() as u64,
            None => 0,
        }
    }
}

struct SpanState {
    inner: Arc<Inner>,
    name: &'static str,
    start_us: u64,
    sim_s: Option<f64>,
    attrs: Vec<(&'static str, Value)>,
    kind_is_span: bool,
}

/// Scoped span (or point-event) guard returned by [`Obs::span`] /
/// [`Obs::point`]; records on drop. All methods are no-ops when the parent
/// handle is disabled.
pub struct ObsSpan {
    state: Option<SpanState>,
}

impl ObsSpan {
    /// Attaches an attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        if let Some(s) = &mut self.state {
            s.attrs.push((key, value.into()));
        }
        self
    }

    /// Tags the span with the simulated time it covers.
    pub fn sim_time_s(&mut self, t_s: f64) -> &mut Self {
        if let Some(s) = &mut self.state {
            s.sim_s = Some(t_s);
        }
        self
    }

    /// `true` when this span will actually record (cheap guard for attribute
    /// computations that are themselves costly).
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }
}

impl Drop for ObsSpan {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let end_us = s.inner.start.elapsed().as_micros() as u64;
            let kind = if s.kind_is_span {
                EventKind::Span { dur_us: end_us.saturating_sub(s.start_us) }
            } else {
                EventKind::Point
            };
            let seq = s.inner.seq.fetch_add(1, Ordering::AcqRel);
            let (wall_us, name, sim_s, attrs, inner) = (end_us, s.name, s.sim_s, s.attrs, s.inner);
            inner.record(Event { seq, wall_us, sim_s, name, kind, attrs });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        {
            let mut s = obs.span("graf.test");
            s.attr("k", 1.0).sim_time_s(2.0);
            assert!(!s.is_recording());
        }
        obs.counter_add("c", &[], 1);
        obs.gauge_set("g", &[], 1.0);
        obs.hist_record("h", &[], 1);
        assert!(obs.events().is_empty());
        assert_eq!(obs.dropped_events(), 0);
    }

    #[test]
    fn span_records_on_drop_with_attrs() {
        let obs = Obs::enabled();
        {
            let mut s = obs.span("graf.test.span");
            s.attr("x", 41u64).attr("y", "hello").sim_time_s(12.5);
        }
        obs.point("graf.test.point").attr("z", true);
        let evs = obs.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "graf.test.span");
        assert!(matches!(evs[0].kind, EventKind::Span { .. }));
        assert_eq!(evs[0].sim_s, Some(12.5));
        assert_eq!(evs[0].attrs[0], ("x", Value::U64(41)));
        assert_eq!(evs[0].attrs[1], ("y", Value::Str("hello".into())));
        assert_eq!(evs[1].kind, EventKind::Point);
        assert_eq!(evs[1].attrs[0], ("z", Value::Bool(true)));
    }

    #[test]
    fn wall_clock_is_monotone_across_events() {
        let obs = Obs::enabled();
        for _ in 0..100 {
            obs.point("e");
        }
        let evs = obs.events();
        let mut prev = 0u64;
        for e in &evs {
            assert!(e.wall_us >= prev, "wall_us must be monotone");
            prev = e.wall_us;
        }
    }

    #[test]
    fn sink_capacity_bounds_memory() {
        let obs = Obs::with_capacity(4);
        for _ in 0..10 {
            obs.point("e");
        }
        assert_eq!(obs.events().len(), 4);
        assert_eq!(obs.dropped_events(), 6);
    }

    #[test]
    fn clones_share_the_sink() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.point("from-clone");
        assert_eq!(obs.events().len(), 1);
        clone.counter_add("c", &[], 3);
        obs.counter_add("c", &[], 2);
        let summary = obs.summary();
        assert!(summary.lines().any(|l| l.split_whitespace().eq(["c", "5"])), "{summary}");
    }
}
