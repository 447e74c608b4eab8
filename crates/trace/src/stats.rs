//! Per-API call statistics derived from traces.
//!
//! This is the data-reduction step between raw traces and GRAF's workload
//! analyzer (§3.3): for each API we learn (a) which services a request
//! touches and how many times (summarized at a percentile, the paper's
//! 90 %-ile), and (b) the parent→child service edges, which define the
//! message-passing structure of the GNN (§3.4).

use std::collections::{BTreeMap, HashMap};

use graf_metrics::Summary;

use crate::store::Trace;

/// A directed service-to-service call edge observed in traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Calling service index.
    pub parent: u16,
    /// Called service index.
    pub child: u16,
}

/// Call profile of one API: per-service call-multiplicity samples.
#[derive(Clone, Debug, Default)]
pub struct ApiProfile {
    /// Per-service: one sample per trace = number of spans that service ran.
    /// A `BTreeMap` so iteration (and everything derived from it) is
    /// deterministic without a sort step.
    calls: BTreeMap<u16, Summary>,
    traces_seen: u64,
}

impl ApiProfile {
    /// Number of traces aggregated into this profile.
    pub fn traces_seen(&self) -> u64 {
        self.traces_seen
    }

    /// Call multiplicity of `service` at percentile `q` over observed traces.
    ///
    /// Traces in which the service did not appear contribute zero samples, so
    /// optional branches are reflected in the distribution. Returns 0.0 for
    /// services never observed.
    pub fn multiplicity(&mut self, service: u16, q: f64) -> f64 {
        self.calls.get_mut(&service).and_then(|s| s.percentile(q)).unwrap_or(0.0)
    }

    /// Services this API was observed to touch at least once, ascending.
    pub fn services(&self) -> Vec<u16> {
        self.calls.keys().copied().collect()
    }
}

/// Aggregates traces into per-API profiles and the global edge set.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    profiles: BTreeMap<u16, ApiProfile>,
    edges: BTreeMap<Edge, u64>,
}

impl CallStats {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed trace into the statistics.
    pub fn observe(&mut self, trace: &Trace) {
        let profile = self.profiles.entry(trace.api).or_default();
        profile.traces_seen += 1;

        // Count spans per service in this trace. Ordered so the sample
        // insertion order below is deterministic.
        let mut per_service: BTreeMap<u16, u32> = BTreeMap::new();
        for s in &trace.spans {
            *per_service.entry(s.service).or_insert(0) += 1;
        }
        // Record one multiplicity sample per service that appeared. Services
        // known from earlier traces but absent here get an explicit 0 sample
        // so the percentile reflects optionality.
        for (svc, n) in &per_service {
            profile.calls.entry(*svc).or_default().record(*n as f64);
        }
        let known: Vec<u16> = profile.calls.keys().copied().collect();
        for svc in known {
            if !per_service.contains_key(&svc) {
                profile.calls.get_mut(&svc).expect("key just listed").record(0.0);
            }
        }

        // Edges from parent links.
        let by_id: HashMap<_, _> = trace.spans.iter().map(|s| (s.span_id, s)).collect();
        for s in &trace.spans {
            if let Some(pid) = s.parent {
                if let Some(parent) = by_id.get(&pid) {
                    *self
                        .edges
                        .entry(Edge { parent: parent.service, child: s.service })
                        .or_insert(0) += 1;
                }
            }
        }
    }

    /// Folds a batch of traces.
    pub fn observe_all<'a>(&mut self, traces: impl IntoIterator<Item = &'a Trace>) {
        for t in traces {
            self.observe(t);
        }
    }

    /// The profile for `api`, if any trace of it has been seen.
    pub fn profile_mut(&mut self, api: u16) -> Option<&mut ApiProfile> {
        self.profiles.get_mut(&api)
    }

    /// All observed service-to-service edges, in ascending order.
    pub fn edges(&self) -> Vec<Edge> {
        self.edges.keys().copied().collect()
    }

    /// APIs that have at least one observed trace, ascending.
    pub fn apis(&self) -> Vec<u16> {
        self.profiles.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanId, TraceId};

    fn trace(id: u64, api: u16, spans: &[(u32, Option<u32>, u16)]) -> Trace {
        Trace {
            id: TraceId(id),
            api,
            spans: spans
                .iter()
                .map(|&(sid, parent, svc)| Span {
                    trace_id: TraceId(id),
                    span_id: SpanId(sid),
                    parent: parent.map(SpanId),
                    service: svc,
                    api,
                    start_us: 0,
                    end_us: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn edges_follow_parent_links() {
        let mut cs = CallStats::new();
        // 0 -> 1, 0 -> 2, 1 -> 3
        let t = trace(1, 0, &[(0, None, 0), (1, Some(0), 1), (2, Some(0), 2), (3, Some(1), 3)]);
        cs.observe(&t);
        let edges = cs.edges();
        assert_eq!(
            edges,
            vec![
                Edge { parent: 0, child: 1 },
                Edge { parent: 0, child: 2 },
                Edge { parent: 1, child: 3 }
            ]
        );
    }

    #[test]
    fn multiplicity_counts_spans_per_trace() {
        let mut cs = CallStats::new();
        // Service 1 called twice per request.
        let t = trace(1, 0, &[(0, None, 0), (1, Some(0), 1), (2, Some(0), 1)]);
        cs.observe(&t);
        let p = cs.profile_mut(0).unwrap();
        assert_eq!(p.multiplicity(1, 0.9), 2.0);
        assert_eq!(p.multiplicity(0, 0.9), 1.0);
        assert_eq!(p.multiplicity(9, 0.9), 0.0, "unseen service");
    }

    #[test]
    fn optional_services_show_in_low_percentiles() {
        let mut cs = CallStats::new();
        // Trace A touches service 1; trace B does not.
        cs.observe(&trace(1, 0, &[(0, None, 0), (1, Some(0), 1)]));
        cs.observe(&trace(2, 0, &[(0, None, 0)]));
        let p = cs.profile_mut(0).unwrap();
        assert_eq!(p.traces_seen(), 2);
        // Samples for service 1 are {1, 0} → median 0 or 1 depending on rank;
        // p90 must be 1 (it is called in most-demanding traces).
        assert_eq!(p.multiplicity(1, 0.9), 1.0);
        assert_eq!(p.multiplicity(1, 0.1), 0.0);
    }

    #[test]
    fn profiles_are_per_api() {
        let mut cs = CallStats::new();
        cs.observe(&trace(1, 0, &[(0, None, 0)]));
        cs.observe(&trace(2, 1, &[(0, None, 0), (1, Some(0), 2)]));
        assert_eq!(cs.apis(), vec![0, 1]);
        assert_eq!(cs.profile_mut(1).unwrap().services(), vec![0, 2]);
    }
}
