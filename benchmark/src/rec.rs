//! The benchmark's own span recorder.
//!
//! A span is recorded around every call the benchmark makes into a layer;
//! nothing is recorded inside the crates. Spans live in one pre-sized `Vec`
//! and are written out after the run. Single-threaded by design: the crates'
//! own worker threads are inside the call a span surrounds.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::json::{obj, Value};

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// The layer (crate or module) whose public function was called.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Repetition of the timed section this span belongs to.
    pub rep: u32,
    /// Work items the call handled (requests, samples, rows, …), 0 if none.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span sink. A disabled recorder costs one branch per call site.
pub struct Recorder {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<u32>>,
    rep: Cell<u32>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans before it reallocates;
    /// starts disabled.
    pub fn new(capacity: usize) -> Self {
        Self {
            enabled: Cell::new(false),
            origin: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(capacity)),
            open: Cell::new(None),
            rep: Cell::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags subsequent spans with repetition `rep`.
    pub fn set_rep(&self, rep: u32) {
        self.rep.set(rep);
    }

    /// Runs `f` inside a span. `f` may store the number of work items it
    /// handled through its argument.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut u64) -> T,
    ) -> T {
        let mut count = 0;
        if !self.enabled.get() {
            return f(&mut count);
        }
        let parent = self.open.get();
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent,
                layer,
                name,
                start_ns: 0,
                end_ns: 0,
                rep: self.rep.get(),
                count: 0,
            });
            id
        };
        self.open.set(Some(id));
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(&mut count);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.set(parent);
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[id as usize];
        (s.start_ns, s.end_ns, s.count) = (start_ns, end_ns, count);
        out
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for s in self.spans.borrow().iter() {
            let line = obj([
                ("id", Value::from(s.id as u64)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::from(p as u64))),
                ("layer", Value::from(s.layer)),
                ("name", Value::from(s.name)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                ("rep", Value::from(s.rep as u64)),
                ("count", Value::from(s.count)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Index `i` belongs to `spans[i]` (ids are indices).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Views over the spans of one repetition.
pub struct RepView<'a> {
    spans: &'a [Span],
    own: &'a [u64],
    rep: u32,
}

impl<'a> RepView<'a> {
    pub fn new(spans: &'a [Span], own: &'a [u64], rep: u32) -> Self {
        Self { spans, own, rep }
    }

    fn named(&self, name: &'a str) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans.iter().filter(move |s| s.rep == self.rep && s.name == name)
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Total self seconds of spans called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| self.own[s.id as usize]).sum::<u64>() as f64 * 1e-9
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Sum of the work counts of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.count).sum()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration_ns() as f64 * 1e-9).collect()
    }

    /// Self seconds per layer, for the attribution table.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.rep == self.rep) {
            *by_layer.entry(s.layer).or_insert(0.0) += self.own[s.id as usize] as f64 * 1e-9;
        }
        by_layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, layer, name: layer, start_ns: start, end_ns: end, rep: 0, count: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 { a 10..40 { c 15..25 }, b 50..90 }
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "c", 15, 25),
            span(3, Some(0), "b", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_counts_and_tags_reps() {
        let rec = Recorder::new(8);
        assert_eq!(rec.span("x", "off", |_| 5), 5);
        assert!(rec.spans().is_empty(), "disabled recorder records nothing");

        rec.set_enabled(true);
        rec.set_rep(3);
        let got = rec.span("outer", "outer", |n| {
            *n = 2;
            rec.span("inner", "inner", |n| *n = 7);
            rec.span("inner", "inner", |_| ());
            "done"
        });
        assert_eq!(got, "done");
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        assert_eq!((spans[0].count, spans[1].count, spans[2].count), (2, 7, 0));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let own = self_times_ns(&spans);
        let view = RepView::new(&spans, &own, 3);
        assert_eq!(view.calls("inner"), 2);
        assert_eq!(view.count("inner"), 7);
        assert_eq!(view.durations_s("inner").len(), 2);
        assert!(view.self_s("outer") <= view.total_s("outer"));
        let layers = view.layer_self_s();
        let total: f64 = layers.values().sum();
        assert!((total - view.total_s("outer")).abs() < 1e-12, "layers partition the root");
        assert_eq!(RepView::new(&spans, &own, 0).calls("inner"), 0);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let rec = Recorder::new(2);
        rec.set_enabled(true);
        rec.span("sim", "sim.world.run_until", |n| *n = 9);
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1);
        let v = crate::json::parse(text.trim()).unwrap();
        assert_eq!(v.get("layer").unwrap().as_str(), Some("sim"));
        assert_eq!(v.get("parent"), Some(&Value::Null));
        assert_eq!(v.get("count").unwrap().as_f64(), Some(9.0));
    }
}
