//! Trace assembly and retention.

use crate::span::{Span, TraceId};

/// A fully assembled trace: all spans of one end-to-end request.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The trace id.
    pub id: TraceId,
    /// Index of the API this request invoked.
    pub api: u16,
    /// Spans in completion order; the root span is the one with `parent == None`.
    pub spans: Vec<Span>,
}

/// Handle to a trace being assembled, returned by [`TraceStore::open_trace`].
///
/// The producer (the simulator) keeps the handle in its per-request state and
/// passes it back for every span — a slab index, so the hot span path does no
/// hashing. A handle is dead after `finish_open`/`abort_open`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenTrace(pub u32);

/// Collects spans, assembles completed traces, and bounds memory.
///
/// The simulator opens a slab slot per sampled request
/// ([`TraceStore::open_trace`]), pushes spans against the returned handle as
/// service frames finish, and calls [`TraceStore::finish_open`] when the root
/// span completes. Completed traces are kept in a bounded FIFO (the Jaeger
/// retention analog); consumers drain or inspect them.
#[derive(Debug)]
pub struct TraceStore {
    /// Span buffers of in-flight traces, indexed by [`OpenTrace`]. Free
    /// slots (on `free`) keep their buffer, so an abort→open cycle reuses
    /// the allocation.
    open: Vec<Vec<Span>>,
    free: Vec<u32>,
    open_count: usize,
    finished: Vec<Trace>,
    capacity: usize,
    dropped: u64,
}

impl TraceStore {
    /// Creates a store retaining up to `capacity` finished traces.
    pub fn new(capacity: usize) -> Self {
        Self {
            open: Vec::new(),
            free: Vec::new(),
            open_count: 0,
            finished: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Opens a slab slot for a new trace, reserving room for `span_budget`
    /// spans (one right-sized allocation instead of a growth chain when the
    /// producer knows the call tree's size; pass 0 when unknown).
    pub fn open_trace(&mut self, span_budget: usize) -> OpenTrace {
        self.open_count += 1;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.open.push(Vec::new());
                (self.open.len() - 1) as u32
            }
        };
        let buf = &mut self.open[slot as usize];
        debug_assert!(buf.is_empty(), "free slot holds a cleared buffer");
        if buf.capacity() < span_budget {
            buf.reserve(span_budget - buf.len());
        }
        OpenTrace(slot)
    }

    /// Records a span for the in-flight trace behind `handle`.
    pub fn push_span(&mut self, handle: OpenTrace, span: Span) {
        self.open[handle.0 as usize].push(span);
    }

    /// Marks the trace behind `handle` complete, moving its spans to the
    /// finished set under `id`. The handle is dead afterwards.
    pub fn finish_open(&mut self, handle: OpenTrace, id: TraceId, api: u16) {
        let spans = std::mem::take(&mut self.open[handle.0 as usize]);
        self.free.push(handle.0);
        self.open_count -= 1;
        if self.finished.len() >= self.capacity {
            // FIFO eviction; bulk-drain half to amortize the shift.
            let drop_n = (self.capacity / 2).max(1);
            self.finished.drain(0..drop_n);
            self.dropped += drop_n as u64;
        }
        self.finished.push(Trace { id, api, spans });
    }

    /// Discards the in-flight trace behind `handle` without finishing it
    /// (request failure). The span buffer stays with the slab slot and is
    /// reused by a later [`TraceStore::open_trace`]. The handle is dead
    /// afterwards.
    pub fn abort_open(&mut self, handle: OpenTrace) {
        self.open[handle.0 as usize].clear();
        self.free.push(handle.0);
        self.open_count -= 1;
    }

    /// Completed traces currently retained, oldest first.
    pub fn finished(&self) -> &[Trace] {
        &self.finished
    }

    /// Removes and returns all completed traces.
    pub fn drain_finished(&mut self) -> Vec<Trace> {
        std::mem::take(&mut self.finished)
    }

    /// Number of traces evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of traces still being assembled.
    pub fn open_count(&self) -> usize {
        self.open_count
    }

    /// Clears all state. Outstanding [`OpenTrace`] handles are invalidated.
    pub fn clear(&mut self) {
        self.open.clear();
        self.free.clear();
        self.open_count = 0;
        self.finished.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    fn span(span_id: u32, parent: Option<u32>, service: u16, s: u64, e: u64) -> Span {
        Span {
            span_id: SpanId(span_id),
            parent: parent.map(SpanId),
            service,
            start_us: s,
            end_us: e,
        }
    }

    #[test]
    fn assembles_traces() {
        let mut st = TraceStore::new(16);
        let h = st.open_trace(2);
        assert_eq!(st.open_count(), 1);
        st.push_span(h, span(0, None, 0, 0, 100));
        st.push_span(h, span(1, Some(0), 1, 10, 60));
        st.finish_open(h, TraceId(1), 0);
        assert_eq!(st.finished().len(), 1);
        let t = &st.finished()[0];
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans.iter().filter(|s| s.service == 1).count(), 1);
        assert_eq!(st.open_count(), 0);
    }

    #[test]
    fn span_budget_reserves_once() {
        let mut st = TraceStore::new(4);
        let h = st.open_trace(13);
        for i in 0..13u32 {
            st.push_span(h, span(i, (i > 0).then(|| i - 1), 0, 0, 1));
        }
        st.finish_open(h, TraceId(1), 0);
        assert_eq!(st.finished()[0].spans.len(), 13);
        assert!(st.finished()[0].spans.capacity() <= 16, "no growth chain");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut st = TraceStore::new(4);
        for i in 0..6u64 {
            let h = st.open_trace(1);
            st.push_span(h, span(0, None, 0, 0, 1));
            st.finish_open(h, TraceId(i), 0);
        }
        assert!(st.finished().len() <= 4 + 1);
        assert!(st.dropped() >= 2);
        // The newest trace is always retained.
        assert!(st.finished().iter().any(|t| t.id == TraceId(5)));
    }

    #[test]
    fn abort_discards_open_trace() {
        let mut st = TraceStore::new(4);
        let h = st.open_trace(1);
        st.push_span(h, span(0, None, 0, 0, 1));
        st.abort_open(h);
        assert!(st.finished().is_empty());
        assert_eq!(st.open_count(), 0);
    }

    #[test]
    fn aborted_buffers_are_recycled() {
        let mut st = TraceStore::new(4);
        let h = st.open_trace(2);
        st.push_span(h, span(0, None, 0, 0, 1));
        st.push_span(h, span(1, Some(0), 1, 0, 1));
        st.abort_open(h);
        let h2 = st.open_trace(0);
        assert_eq!(h2, h, "new trace reuses the freed slot (and its buffer)");
        st.push_span(h2, span(0, None, 0, 0, 1));
        st.finish_open(h2, TraceId(2), 0);
        assert_eq!(st.finished()[0].spans.len(), 1, "recycled buffer starts empty");
    }

    #[test]
    fn drain_empties_store() {
        let mut st = TraceStore::new(4);
        let h = st.open_trace(1);
        st.push_span(h, span(0, None, 0, 0, 1));
        st.finish_open(h, TraceId(1), 0);
        let traces = st.drain_finished();
        assert_eq!(traces.len(), 1);
        assert!(st.finished().is_empty());
    }
}
