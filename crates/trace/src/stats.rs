//! Per-API call statistics derived from traces.
//!
//! This is the data-reduction step between raw traces and GRAF's workload
//! analyzer (§3.3): for each API we learn (a) which services a request
//! touches and how many times (summarized at a percentile, the paper's
//! 90 %-ile), and (b) the parent→child service edges, which define the
//! message-passing structure of the GNN (§3.4).
//!
//! Memory follows the query, not the trace count: a multiplicity is a small
//! integer, so each (API, service) keeps one counter per multiplicity seen,
//! and folding a trace allocates nothing once its API, services and
//! multiplicities have been seen before.

use std::collections::{BTreeMap, BTreeSet};

use crate::store::Trace;

/// A directed service-to-service call edge observed in traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Calling service index.
    pub parent: u16,
    /// Called service index.
    pub child: u16,
}

/// Call profile of one API: per-service counts of call multiplicities.
#[derive(Clone, Debug, Default)]
pub struct ApiProfile {
    /// Indexed by service, then by multiplicity `k`: how many traces ran
    /// that service exactly `k` times. Empty for a service this API has not
    /// been seen to touch.
    calls: Vec<Vec<u64>>,
    traces_seen: u64,
}

impl ApiProfile {
    /// Number of traces aggregated into this profile.
    pub fn traces_seen(&self) -> u64 {
        self.traces_seen
    }

    /// How many traces ran `service` exactly `k` times, indexed by `k`: one
    /// counter per multiplicity up to the largest seen. Empty for a service
    /// never observed.
    pub fn counts(&self, service: u16) -> &[u64] {
        self.calls.get(service as usize).map_or(&[], Vec::as_slice)
    }

    /// Call multiplicity of `service` at percentile `q` over observed traces,
    /// by the nearest-rank method.
    ///
    /// Once a service has been seen, each later trace that misses it counts
    /// as a 0, so optional branches are reflected in the distribution;
    /// traces before its first sighting count for nothing. Returns 0.0 for
    /// services never observed.
    pub fn multiplicity(&self, service: u16, q: f64) -> f64 {
        let counts = self.counts(service);
        let total: u64 = counts.iter().sum();
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut below = 0;
        for (k, &n) in counts.iter().enumerate() {
            below += n;
            if below >= rank {
                return k as f64;
            }
        }
        0.0
    }

    /// Services this API was observed to touch at least once, ascending.
    pub fn services(&self) -> Vec<u16> {
        let seen = self.calls.iter().enumerate().filter(|(_, counts)| !counts.is_empty());
        seen.map(|(s, _)| s as u16).collect()
    }
}

/// Aggregates traces into per-API profiles and the global edge set.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    profiles: BTreeMap<u16, ApiProfile>,
    edges: BTreeSet<Edge>,
    /// Spans per service in the trace being folded, indexed by service; all
    /// zero between calls to [`CallStats::observe`].
    scratch: Vec<u32>,
}

impl CallStats {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed trace into the statistics.
    pub fn observe(&mut self, trace: &Trace) {
        for s in &trace.spans {
            let svc = s.service as usize;
            if svc >= self.scratch.len() {
                self.scratch.resize(svc + 1, 0);
            }
            self.scratch[svc] += 1;
        }

        let profile = self.profiles.entry(trace.api).or_default();
        profile.traces_seen += 1;
        if profile.calls.len() < self.scratch.len() {
            profile.calls.resize_with(self.scratch.len(), Vec::new);
        }
        // One count per service that appeared, and a 0 for every service
        // known from earlier traces but absent here.
        for (n, counts) in self.scratch.iter_mut().zip(&mut profile.calls) {
            let k = std::mem::take(n) as usize;
            if k == 0 && counts.is_empty() {
                continue;
            }
            if counts.len() <= k {
                counts.resize(k + 1, 0);
            }
            counts[k] += 1;
        }

        // Edges from parent links. A repeated span id resolves to its last
        // span; a parent outside the trace adds no edge.
        for s in &trace.spans {
            let Some(pid) = s.parent else { continue };
            if let Some(parent) = trace.spans.iter().rev().find(|p| p.span_id == pid) {
                self.edges.insert(Edge { parent: parent.service, child: s.service });
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
    pub fn profile(&self, api: u16) -> Option<&ApiProfile> {
        self.profiles.get(&api)
    }

    /// All observed service-to-service edges, in ascending order.
    pub fn edges(&self) -> Vec<Edge> {
        self.edges.iter().copied().collect()
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
                    span_id: SpanId(sid),
                    parent: parent.map(SpanId),
                    service: svc,
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
        let p = cs.profile(0).unwrap();
        assert_eq!(p.multiplicity(1, 0.9), 2.0);
        assert_eq!(p.multiplicity(0, 0.9), 1.0);
        assert_eq!(p.multiplicity(9, 0.9), 0.0, "unseen service");
        assert_eq!(p.counts(1), &[0, 0, 1]);
    }

    #[test]
    fn optional_services_show_in_low_percentiles() {
        let mut cs = CallStats::new();
        // Trace A touches service 1; trace B does not.
        cs.observe(&trace(1, 0, &[(0, None, 0), (1, Some(0), 1)]));
        cs.observe(&trace(2, 0, &[(0, None, 0)]));
        let p = cs.profile(0).unwrap();
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
        assert_eq!(cs.profile(1).unwrap().services(), vec![0, 2]);
        assert_eq!(cs.profile(0).unwrap().services(), vec![0]);
    }
}
