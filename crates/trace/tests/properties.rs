//! Property tests for the call statistics: over seeded random traces (case
//! `i` draws its traces from `DetRng::new(i)`, so a failure names the seed
//! that reproduces it), `CallStats` answers every query with the bits of a
//! reference that keeps one `Summary` sample per trace per service and finds
//! parents through a `HashMap` of span ids.

use std::collections::{BTreeMap, BTreeSet};

use graf_metrics::Summary;
use graf_sim::rng::DetRng;
use graf_trace::{CallStats, Edge, Span, SpanId, Trace, TraceId};

/// Seeded cases.
const CASES: u64 = 64;
const APIS: u16 = 3;
/// Services a case may draw; the pool widens as the stream goes on, so
/// later services are first seen mid-stream.
const SERVICES: u16 = 10;
const QUANTILES: [f64; 5] = [0.0, 0.1, 0.5, 0.9, 1.0];

/// Raw-sample statistics: per API, per service, one multiplicity sample per
/// trace from the service's first sighting on; edges through a span-id map.
#[derive(Default)]
struct Reference {
    calls: BTreeMap<u16, BTreeMap<u16, Summary>>,
    traces_seen: BTreeMap<u16, u64>,
    edges: BTreeSet<Edge>,
}

impl Reference {
    #[expect(
        clippy::disallowed_types,
        reason = "the reference resolves parents the way a span-id HashMap does: last insert wins"
    )]
    fn observe(&mut self, trace: &Trace) {
        *self.traces_seen.entry(trace.api).or_insert(0) += 1;
        let calls = self.calls.entry(trace.api).or_default();
        let mut per_service: BTreeMap<u16, u32> = BTreeMap::new();
        for s in &trace.spans {
            *per_service.entry(s.service).or_insert(0) += 1;
        }
        for (svc, n) in &per_service {
            calls.entry(*svc).or_default().record(*n as f64);
        }
        for (svc, summary) in calls.iter_mut() {
            if !per_service.contains_key(svc) {
                summary.record(0.0);
            }
        }
        let by_id: std::collections::HashMap<_, _> =
            trace.spans.iter().map(|s| (s.span_id, s)).collect();
        for s in &trace.spans {
            if let Some(parent) = s.parent.and_then(|pid| by_id.get(&pid)) {
                self.edges.insert(Edge { parent: parent.service, child: s.service });
            }
        }
    }
}

/// Trace `i` of a stream: up to 13 spans of services drawn from a pool that
/// widens with `i`; span ids sometimes repeat, and parents sometimes point
/// at an id no span carries.
fn trace(rng: &mut DetRng, i: u64) -> Trace {
    let api = rng.uniform_u64(0, APIS as u64 - 1) as u16;
    let pool = (2 + i / 16).min(SERVICES as u64);
    let n = rng.uniform_u64(0, 13) as u32;
    let spans = (0..n)
        .map(|j| {
            let span_id = if rng.chance(0.1) { rng.uniform_u64(0, j as u64) as u32 } else { j };
            let parent =
                (j > 0 && !rng.chance(0.1)).then(|| rng.uniform_u64(0, n as u64 + 2) as u32);
            Span {
                span_id: SpanId(span_id),
                parent: parent.map(SpanId),
                service: rng.uniform_u64(0, pool - 1) as u16,
                start_us: 0,
                end_us: 1,
            }
        })
        .collect();
    Trace { id: TraceId(i), api, spans }
}

#[test]
fn counts_answer_with_the_bits_of_raw_samples() {
    for case in 0..CASES {
        let mut rng = DetRng::new(case);
        let mut stats = CallStats::new();
        let mut reference = Reference::default();
        let len = rng.uniform_u64(1, 300);
        for i in 0..len {
            let t = trace(&mut rng, i);
            stats.observe(&t);
            reference.observe(&t);
        }

        let ref_apis: Vec<u16> = reference.calls.keys().copied().collect();
        assert_eq!(stats.apis(), ref_apis, "case {case}");
        for (api, calls) in &mut reference.calls {
            let profile = stats.profile(*api).expect("api observed");
            assert_eq!(profile.traces_seen(), reference.traces_seen[api], "case {case} api {api}");
            let ref_services: Vec<u16> = calls.keys().copied().collect();
            assert_eq!(profile.services(), ref_services, "case {case} api {api}");
            for svc in 0..SERVICES + 1 {
                let total: u64 = profile.counts(svc).iter().sum();
                let samples = calls.get(&svc).map_or(0, |s| s.count() as u64);
                assert_eq!(total, samples, "case {case} api {api} service {svc}: stored counts");
                for q in QUANTILES {
                    let want = calls.get_mut(&svc).and_then(|s| s.percentile(q)).unwrap_or(0.0);
                    let got = profile.multiplicity(svc, q);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "case {case} api {api} service {svc} q {q}: {got} vs {want}"
                    );
                }
            }
        }
        let ref_edges: Vec<Edge> = reference.edges.iter().copied().collect();
        assert_eq!(stats.edges(), ref_edges, "case {case}");
    }
}
