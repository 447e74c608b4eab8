//! Span and identifier types.

/// Identifies one end-to-end request (one trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u32);

/// One service-level unit of work within a trace.
///
/// Mirrors the Jaeger span model: a span covers the interval a service spent
/// handling (part of) a request, and links to the span of the calling service.
/// The trace id and API live once on the enclosing [`Trace`](crate::Trace),
/// not on each span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// This span's id, unique within the trace.
    pub span_id: SpanId,
    /// The parent span's id; `None` for the root span.
    pub parent: Option<SpanId>,
    /// Index of the service that executed this span.
    pub service: u16,
    /// Span start, simulated microseconds.
    pub start_us: u64,
    /// Span end, simulated microseconds. Always >= `start_us`.
    pub end_us: u64,
}

impl Span {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// `true` when this is the trace's root span.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span { span_id: SpanId(1), parent: None, service: 0, start_us: start, end_us: end }
    }

    #[test]
    fn a_span_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Span>(), 32);
    }

    #[test]
    fn duration_is_end_minus_start() {
        assert_eq!(span(10, 35).duration_us(), 25);
    }

    #[test]
    fn duration_saturates() {
        // A degenerate span never yields an underflowed duration.
        assert_eq!(span(35, 10).duration_us(), 0);
    }

    #[test]
    fn root_detection() {
        let mut s = span(0, 1);
        assert!(s.is_root());
        s.parent = Some(SpanId(0));
        assert!(!s.is_root());
    }
}
