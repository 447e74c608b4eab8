//! The workload analyzer (§3.3).
//!
//! Front-end workloads `w` (per-API qps) do not expose the graph structure of
//! the application, so the analyzer distributes them over microservices using
//! per-API call multiplicities learned from distributed traces: the workload
//! of service `i` is `l_i = Σ_api w_api × m(api, i)`, where `m` is the
//! 90 %-ile number of calls service `i` receives per request of that API
//! ("from the history 90 %-ile samples are chosen to represent the behavior
//! of the API").

use graf_trace::{CallStats, Trace};

/// Per-API, per-service call multiplicities plus the derived service graph.
#[derive(Clone, Debug)]
pub struct WorkloadAnalyzer {
    /// `mult[api][service]` — calls to `service` per request of `api`.
    mult: Vec<Vec<f64>>,
    /// Parent→child service edges observed in traces.
    edges: Vec<(u16, u16)>,
    /// Traces folded in.
    traces_seen: u64,
}

impl WorkloadAnalyzer {
    /// Builds the analyzer from a corpus of traces, read in place.
    ///
    /// `num_apis`/`num_services` bound the table; APIs or services never seen
    /// in traces get zero multiplicity.
    pub fn from_traces<'a>(
        traces: impl IntoIterator<Item = &'a Trace>,
        num_apis: usize,
        num_services: usize,
        percentile: f64,
    ) -> Self {
        let mut stats = CallStats::new();
        let mut traces_seen = 0;
        for t in traces {
            stats.observe(t);
            traces_seen += 1;
        }
        let mut mult = vec![vec![0.0; num_services]; num_apis];
        for (api, row) in mult.iter_mut().enumerate() {
            if let Some(profile) = stats.profile(api as u16) {
                for (svc, cell) in row.iter_mut().enumerate() {
                    *cell = profile.multiplicity(svc as u16, percentile);
                }
            }
        }
        let edges = stats.edges().into_iter().map(|e| (e.parent, e.child)).collect();
        Self { mult, edges, traces_seen }
    }

    /// Builds an analyzer from known multiplicities (tests, synthetic runs).
    pub fn from_multiplicities(mult: Vec<Vec<f64>>, edges: Vec<(u16, u16)>) -> Self {
        Self { mult, edges, traces_seen: 0 }
    }

    /// Number of APIs.
    pub fn num_apis(&self) -> usize {
        self.mult.len()
    }

    /// Number of services.
    pub fn num_services(&self) -> usize {
        self.mult.first().map_or(0, Vec::len)
    }

    /// Multiplicity of `service` under `api`.
    pub fn multiplicity(&self, api: usize, service: usize) -> f64 {
        self.mult[api][service]
    }

    /// Traces the analyzer was fitted on.
    pub fn traces_seen(&self) -> u64 {
        self.traces_seen
    }

    /// The service graph observed in traces — this is what the GNN's message
    /// passing runs over (§3.4: "MPNN is structured with edge connection
    /// details derived from trace data").
    pub fn edges(&self) -> &[(u16, u16)] {
        &self.edges
    }

    /// Folds a freshly refitted analyzer into this one, interpolating across
    /// trace gaps: an API's multiplicity row is adopted from `fresh` only
    /// when its observed trace coverage is at least `floor`; rows whose
    /// coverage collapsed (spans dropped, traces truncated) keep the
    /// last-known-good multiplicities instead, so per-service workloads stay
    /// continuous across the gap rather than silently shrinking toward zero.
    ///
    /// `coverage[api]` is the observed fraction of expected spans per trace
    /// (see [`WorkloadAnalyzer::expected_spans`]). Returns how many API rows
    /// were held back (interpolated).
    ///
    /// # Panics
    /// Panics if `fresh` or `coverage` disagree with this analyzer's shape.
    pub fn fold_refit(&mut self, fresh: &WorkloadAnalyzer, coverage: &[f64], floor: f64) -> usize {
        assert_eq!(fresh.num_apis(), self.num_apis(), "same API count");
        assert_eq!(fresh.num_services(), self.num_services(), "same service count");
        assert_eq!(coverage.len(), self.num_apis(), "one coverage figure per API");
        let mut held = 0usize;
        for ((dst, src), &cov) in self.mult.iter_mut().zip(&fresh.mult).zip(coverage) {
            if cov >= floor {
                dst.clone_from(src);
            } else {
                held += 1;
            }
        }
        self.traces_seen += fresh.traces_seen;
        held
    }

    /// Expected spans per trace of `api` under this analyzer's
    /// multiplicities — `Σ_svc m(api, svc)`, the yardstick live trace
    /// coverage is measured against.
    pub fn expected_spans(&self, api: usize) -> f64 {
        self.mult[api].iter().sum()
    }

    /// Distributes per-API front-end rates into per-service workloads:
    /// `l_i = Σ_api w_api × m(api, i)`.
    ///
    /// ```
    /// use graf_core::WorkloadAnalyzer;
    /// // One API calling service 0 once and service 1 twice per request.
    /// let a = WorkloadAnalyzer::from_multiplicities(vec![vec![1.0, 2.0]], vec![(0, 1)]);
    /// assert_eq!(a.service_workloads(&[10.0]), vec![10.0, 20.0]);
    /// ```
    ///
    /// # Panics
    /// Panics if `api_rates.len()` differs from the analyzer's API count.
    pub fn service_workloads(&self, api_rates: &[f64]) -> Vec<f64> {
        assert_eq!(api_rates.len(), self.num_apis(), "one rate per API");
        let n = self.num_services();
        let mut l = vec![0.0; n];
        for (api, &w) in api_rates.iter().enumerate() {
            for (svc, li) in l.iter_mut().enumerate() {
                *li += w * self.mult[api][svc];
            }
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_trace::{Span, SpanId, TraceId};

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
                    end_us: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn workloads_follow_multiplicities() {
        // API 0: svc0 once, svc1 twice. API 1: svc0 once.
        let traces = vec![
            trace(1, 0, &[(0, None, 0), (1, Some(0), 1), (2, Some(0), 1)]),
            trace(2, 1, &[(0, None, 0)]),
        ];
        let a = WorkloadAnalyzer::from_traces(&traces, 2, 2, 0.9);
        assert_eq!(a.multiplicity(0, 1), 2.0);
        let l = a.service_workloads(&[10.0, 5.0]);
        assert_eq!(l[0], 15.0, "svc0 = 10×1 + 5×1");
        assert_eq!(l[1], 20.0, "svc1 = 10×2");
    }

    #[test]
    fn percentile_uses_demanding_traces() {
        // svc1 usually called once, occasionally 3 times.
        let mut traces = Vec::new();
        for i in 0..9 {
            traces.push(trace(i, 0, &[(0, None, 0), (1, Some(0), 1)]));
        }
        traces.push(trace(
            9,
            0,
            &[(0, None, 0), (1, Some(0), 1), (2, Some(0), 1), (3, Some(0), 1)],
        ));
        let a = WorkloadAnalyzer::from_traces(&traces, 1, 2, 0.9);
        // p90 over {1×9, 3×1} = 1 (rank 9 of 10); p100 would be 3.
        assert_eq!(a.multiplicity(0, 1), 1.0);
        let a100 = WorkloadAnalyzer::from_traces(&traces, 1, 2, 1.0);
        assert_eq!(a100.multiplicity(0, 1), 3.0);
    }

    #[test]
    fn edges_come_from_traces() {
        let traces = vec![trace(1, 0, &[(0, None, 0), (1, Some(0), 1), (2, Some(1), 2)])];
        let a = WorkloadAnalyzer::from_traces(&traces, 1, 3, 0.9);
        assert_eq!(a.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(a.traces_seen(), 1);
    }

    #[test]
    fn fold_refit_interpolates_across_gaps() {
        let mut a = WorkloadAnalyzer::from_multiplicities(
            vec![vec![1.0, 2.0], vec![1.0, 0.0]],
            vec![(0, 1)],
        );
        let fresh = WorkloadAnalyzer::from_multiplicities(
            vec![vec![1.0, 3.0], vec![1.0, 1.0]],
            vec![(0, 1)],
        );
        // API 0 fully covered → adopt; API 1 in a trace gap → hold last good.
        let held = a.fold_refit(&fresh, &[1.0, 0.2], 0.7);
        assert_eq!(held, 1);
        assert_eq!(a.multiplicity(0, 1), 3.0, "covered row adopted");
        assert_eq!(a.multiplicity(1, 1), 0.0, "gapped row interpolated (held)");
        assert_eq!(a.expected_spans(0), 4.0);
    }

    #[test]
    fn unseen_api_contributes_nothing() {
        let traces = vec![trace(1, 0, &[(0, None, 0)])];
        let a = WorkloadAnalyzer::from_traces(&traces, 2, 1, 0.9);
        let l = a.service_workloads(&[10.0, 100.0]);
        assert_eq!(l[0], 10.0, "api 1 never traced → multiplicity 0");
    }
}
