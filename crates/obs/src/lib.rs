//! # graf-obs
//!
//! Framework-wide telemetry for the GRAF control loop: one event log of
//! structured spans and points, and two exports of it (JSON Lines and a
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
//! * [`Obs::scoped`] returns a handle on the same sink that stamps `key =
//!   value` on every event it records, so each event names its run.
//! * [`Obs::write_jsonl`] and [`Obs::summary`] export the log (see
//!   [`export`]).
//!
//! This is the one record of a run: a control tick's decision (inputs,
//! ladder rung, solver statistics, applied plan) is a `graf.controller.tick`
//! span plus a `graf.resilient.tick` point, not a side file. A count is an
//! attribute of the event that produced it (a solve's `iterations`, a
//! creation batch's size), so a total over a run is a sum over its events;
//! there is no separate counter or gauge store, and no value that
//! concurrent users of one handle overwrite.
//!
//! ## Naming conventions
//!
//! Dotted lowercase paths, `graf.<component>.<thing>`:
//! `graf.controller.tick`, `graf.solver.solve`, `graf.train.eval`,
//! `graf.sample.bounds`, `graf.cluster.create`.
//!
//! **Invariants.** Telemetry is strictly write-only: no instrumented
//! component ever reads an event back to make a decision,
//! so enabling or disabling observation cannot change simulation results.
//! A disabled handle ([`Obs::disabled`]) short-circuits before formatting
//! or allocating, keeping instrumented hot paths allocation-free.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod export;
pub mod json;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default bound on retained events; newer events beyond it are counted as
/// dropped rather than growing the log without limit.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

/// An attribute value.
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

/// An enabled handle: the shared sink and the scope it stamps on its events.
struct Handle {
    inner: Arc<Inner>,
    scope: Vec<(&'static str, Value)>,
}

/// The telemetry handle. Clones and [`Obs::scoped`] children share the same
/// sink and sequence.
///
/// A disabled handle (from [`Obs::disabled`] or `Obs::default()`) makes every
/// operation a cheap no-op.
#[derive(Clone, Default)]
pub struct Obs {
    handle: Option<Arc<Handle>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.handle {
            Some(h) => {
                let sink = h.inner.sink.lock().expect("obs sink");
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
        Self { handle: None }
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
        let inner = Arc::new(Inner {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            sink: Mutex::new(Sink {
                events: Vec::new(),
                capacity: capacity.max(1),
                dropped: 0,
                last_wall_us: 0,
            }),
        });
        Self { handle: Some(Arc::new(Handle { inner, scope: Vec::new() })) }
    }

    /// `true` when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.handle.is_some()
    }

    /// A handle on the same sink that stamps `key = value` on every event it
    /// records, after this handle's scope (outer first); disabled stays so.
    pub fn scoped(&self, key: &'static str, value: impl Into<Value>) -> Obs {
        let handle = self.handle.as_ref().map(|h| {
            let mut scope = h.scope.clone();
            scope.push((key, value.into()));
            Arc::new(Handle { inner: Arc::clone(&h.inner), scope })
        });
        Obs { handle }
    }

    /// Starts a scoped span; its duration and attributes are recorded when
    /// the returned guard drops. No-op (no allocation) when disabled.
    pub fn span(&self, name: &'static str) -> ObsSpan {
        match &self.handle {
            Some(h) => ObsSpan {
                state: Some(SpanState {
                    inner: Arc::clone(&h.inner),
                    name,
                    start_us: h.inner.start.elapsed().as_micros() as u64,
                    sim_s: None,
                    attrs: h.scope.clone(),
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

    /// Snapshot of all recorded events, in record order.
    pub fn events(&self) -> Vec<Event> {
        match &self.handle {
            Some(h) => h.inner.sink.lock().expect("obs sink").events.clone(),
            None => Vec::new(),
        }
    }

    /// Number of events dropped because the sink was full.
    pub fn dropped_events(&self) -> u64 {
        match &self.handle {
            Some(h) => h.inner.sink.lock().expect("obs sink").dropped,
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
    /// Attaches an attribute under a key new to the event and its scope.
    pub fn attr(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        if let Some(s) = &mut self.state {
            debug_assert!(s.attrs.iter().all(|(k, _)| *k != key), "attribute {key} set twice");
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
        obs.point("graf.test.point").attr("k", 1u64);
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
    fn a_scoped_span_and_point_carry_the_scope() {
        let obs = Obs::enabled().scoped("exp", "fig21");
        obs.span("graf.test.span").attr("x", 1u64);
        obs.point("graf.test.point");
        for e in obs.events() {
            assert_eq!(e.attrs[0], ("exp", Value::Str("fig21".into())), "{}", e.name);
        }
        assert_eq!(obs.events()[0].attrs[1], ("x", Value::U64(1)));
    }

    #[test]
    fn nested_scopes_come_out_outer_first() {
        let obs = Obs::enabled();
        obs.scoped("exp", "chaos")
            .scoped("fault", "trace_drop")
            .scoped("policy", "ladder")
            .point("p");
        let keys: Vec<&str> = obs.events()[0].attrs.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["exp", "fault", "policy"]);
    }

    #[test]
    fn a_scoped_disabled_handle_records_nothing() {
        let obs = Obs::disabled().scoped("exp", "fig21");
        assert!(!obs.is_enabled());
        assert!(!obs.span("graf.test").is_recording());
        obs.point("graf.test.point").attr("k", 1u64);
        assert!(obs.events().is_empty());
    }

    #[test]
    fn a_scoped_clone_writes_into_the_parent_sink() {
        let obs = Obs::enabled();
        let child = obs.scoped("users", 750usize).clone();
        obs.point("first");
        child.point("second");
        let evs = obs.events();
        assert_eq!(
            evs.iter().map(|e| (e.seq, e.name)).collect::<Vec<_>>(),
            [(0, "first"), (1, "second")]
        );
        assert!(evs[0].attrs.is_empty());
        assert_eq!(evs[1].attrs, [("users", Value::U64(750))]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "attribute policy set twice")]
    fn a_scope_key_is_never_an_event_attribute() {
        Obs::enabled().scoped("policy", "ladder").point("p").attr("policy", "freeze");
    }

    #[test]
    fn clones_share_the_sink() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.point("from-clone");
        obs.point("from-clone");
        assert_eq!(obs.events().len(), 2);
        let summary = clone.summary();
        assert!(summary.lines().any(|l| l.split_whitespace().eq(["from-clone", "2"])), "{summary}");
    }
}
