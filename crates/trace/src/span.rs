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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Span>(), 32);
    }
}
