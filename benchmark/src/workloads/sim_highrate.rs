//! `sim_highrate`: one long `World` at 50 k requests per simulated second.
//!
//! Steady-state event core, stations and metric windows with no construction
//! cost — the opposite regime to `boutique_closed_loop`'s short worlds.
//! Phase A samples 1 % of traces; phase B replays the same arrival streams
//! with every request traced and a consumer reading the traces, so a gain for
//! sparse sampling that taxes full tracing shows. Open loop: Poisson arrivals
//! on a schedule, whatever the response times. One thread.

use std::time::Instant;

use graf_apps::online_boutique;
use graf_core::WorkloadAnalyzer;
use graf_loadgen::{LoadGen, OpenLoop};
use graf_metrics::{Histogram, WindowedLatency};
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::{ApiId, AppTopology, ServiceId};
use graf_sim::world::{Completion, SimConfig, World, WorldStats};
use graf_trace::{CallStats, Trace};

use crate::harness::{Named, RepOutcome, Size, Workload};
use crate::probe::per_call_s;
use crate::rec::{Recorder, RepView};
use crate::stats::{Fnv, Rng};

/// Simulated seconds of `(phase A, phase B, between analyzer refits)`.
const FULL: (u64, u64, u64) = (20, 7, 3);
const SMOKE: (u64, u64, u64) = (2, 1, 1);

/// Replicas of 1000 mc per service: about half utilised at the offered load.
const REPLICAS: [usize; 6] = [50, 16, 26, 42, 70, 30];
/// Offered Poisson rate per API, requests per simulated second.
const RATES_QPS: [f64; 3] = [15_000.0, 15_000.0, 20_000.0];
/// Simulated time allowed for the backlog to drain after the last arrival.
const DRAIN_SECS: u64 = 5;

/// Span names of one phase, so the two phases aggregate separately.
struct PhaseSpans {
    phase: &'static str,
    arrivals: &'static str,
    inject: &'static str,
    run_until: &'static str,
    drain_completions: &'static str,
    drain_finished: &'static str,
}

const PHASE_A: PhaseSpans = PhaseSpans {
    phase: "benchmark.phase_a",
    arrivals: "loadgen.open.arrivals",
    inject: "sim.world.inject",
    run_until: "sim.world.run_until",
    drain_completions: "sim.world.drain_completions",
    drain_finished: "trace.store.drain_finished",
};
const PHASE_B: PhaseSpans = PhaseSpans {
    phase: "benchmark.phase_b",
    arrivals: "loadgen.open.arrivals.traced",
    inject: "sim.world.inject.traced",
    run_until: "sim.world.run_until.traced",
    drain_completions: "sim.world.drain_completions.traced",
    drain_finished: "trace.store.drain_finished.traced",
};

/// Folds a batch of completions into the fingerprint.
pub fn fold_completions(fp: &mut Fnv, completions: &[Completion]) {
    for c in completions {
        fp.u64(c.request.0 ^ (c.api.0 as u64) << 48 ^ (c.timed_out as u64) << 63);
        fp.u64(c.start.0);
        fp.u64(c.end.0);
    }
}

/// What one phase leaves behind.
struct PhaseEnd {
    world: World,
    stats: WorldStats,
    wall_s: f64,
}

pub struct SimHighrate {
    topo: AppTopology,
    seed: u64,
    secs_a: u64,
    secs_b: u64,
    refit_every: u64,
    topology_build_us: f64,
    /// Phase A's world as the last repetition left it, for the read probes.
    last_world: Option<World>,
}

impl SimHighrate {
    fn world(&self, trace_sample: f64) -> World {
        // Defaults (client timeout included, so failures are visible) except
        // the sampling rate and a 1 ms CPU-account resolution.
        let cfg = SimConfig { trace_sample, cpu_checkpoint_us: 1_000, ..SimConfig::default() };
        let mut world = World::new(self.topo.clone(), cfg, self.seed);
        for (s, &n) in REPLICAS.iter().enumerate() {
            world.add_instances(ServiceId(s as u16), n, 1000.0, SimTime::ZERO);
        }
        world
    }

    /// Drives a fresh world for `secs` simulated seconds in one-second
    /// segments, handing each segment's finished traces to `consume`.
    fn phase(
        &self,
        rec: &Recorder,
        names: &PhaseSpans,
        trace_sample: f64,
        secs: u64,
        fp: &mut Fnv,
        mut consume: impl FnMut(u64, Vec<Trace>),
    ) -> PhaseEnd {
        let t0 = Instant::now();
        let (world, stats) = rec.span("benchmark", names.phase, |_| {
            let mut world = self.world(trace_sample);
            let mut load = OpenLoop::new(self.seed ^ 0x51).poisson();
            for (api, &qps) in RATES_QPS.iter().enumerate() {
                load = load.rate(ApiId(api as u16), qps);
            }
            let mut completions: Vec<Completion> = Vec::new();
            for seg in 1..=secs {
                let (from, to) =
                    (SimTime::from_secs((seg - 1) as f64), SimTime::from_secs(seg as f64));
                let arrivals = rec.span("loadgen", names.arrivals, |n| {
                    let a = load.arrivals(from, to);
                    *n = a.len() as u64;
                    a
                });
                rec.span("sim", names.inject, |n| {
                    *n = arrivals.len() as u64;
                    for &(t, api) in &arrivals {
                        world.inject(api, t);
                    }
                });
                let before = world.stats().events;
                rec.span("sim", names.run_until, |n| {
                    world.run_until(to);
                    *n = world.stats().events - before;
                });
                rec.span("sim", names.drain_completions, |n| {
                    world.drain_completions_into(&mut completions);
                    *n = completions.len() as u64;
                });
                fold_completions(fp, &completions);
                let traces = rec.span("trace", names.drain_finished, |n| {
                    let t = world.traces_mut().drain_finished();
                    *n = t.len() as u64;
                    t
                });
                consume(seg, traces);
            }
            let before = world.stats().events;
            rec.span("sim", names.run_until, |n| {
                world.run_to_quiescence(SimTime::from_secs((secs + DRAIN_SECS) as f64));
                *n = world.stats().events - before;
            });
            world.drain_completions_into(&mut completions);
            fold_completions(fp, &completions);
            world.traces_mut().drain_finished();
            let stats = world.stats();
            (world, stats)
        });
        PhaseEnd { world, stats, wall_s: t0.elapsed().as_secs_f64() }
    }
}

impl Workload for SimHighrate {
    const NAME: &'static str = "sim_highrate";
    const GOLDEN: &'static str = include_str!("../../golden/sim_highrate-seed7.json");

    fn setup(seed: u64, size: Size) -> Self {
        let (secs_a, secs_b, refit_every) = if size == Size::Full { FULL } else { SMOKE };
        let t0 = Instant::now();
        let topo = online_boutique();
        let topology_build_us = t0.elapsed().as_secs_f64() * 1e6;
        let this =
            Self { topo, seed, secs_a, secs_b, refit_every, topology_build_us, last_world: None };
        // Warm-up: one traced second through the timed path.
        let warm = Recorder::new(0);
        this.phase(&warm, &PHASE_B, 1.0, 1, &mut Fnv::default(), |_, _| ());
        this
    }

    fn rep(&mut self, rec: &Recorder) -> RepOutcome {
        let mut out = RepOutcome::default();
        let mut fp = Fnv::default();

        let a = self.phase(rec, &PHASE_A, 0.01, self.secs_a, &mut fp, |_, _| ());

        let mut call_stats = CallStats::new();
        let mut consumer_fp = Fnv::default();
        let (mut refits, mut traces_seen) = (0u64, 0u64);
        let (apis, services) = (self.topo.num_apis(), self.topo.num_services());
        let refit_every = self.refit_every;
        let b = self.phase(rec, &PHASE_B, 1.0, self.secs_b, &mut fp, |seg, traces| {
            traces_seen += traces.len() as u64;
            rec.span("trace", "trace.stats.observe_all", |n| {
                *n = traces.len() as u64;
                call_stats.observe_all(&traces);
            });
            if seg % refit_every == 0 {
                let analyzer = rec.span("core.analyzer", "core.analyzer.from_traces", |n| {
                    *n = traces.len() as u64;
                    WorkloadAnalyzer::from_traces(&traces, apis, services, 0.9)
                });
                consumer_fp.f64(analyzer.multiplicity(0, 0));
                refits += 1;
            }
        });
        fp.u64(consumer_fp.0);
        fp.u64(call_stats.edges().len() as u64);

        let backlog = (a.world.in_flight() + b.world.in_flight()) as u64;
        for (name, end) in [("A", &a), ("B", &b)] {
            let s = end.stats;
            out.check(s.injected == s.completed + end.world.in_flight() as u64, || {
                format!(
                    "phase {name}: {} injected but {} completed + {} in flight",
                    s.injected,
                    s.completed,
                    end.world.in_flight()
                )
            });
        }
        out.check(backlog == 0, || format!("{backlog} requests still in flight after the drain"));
        out.check(refits > 0 && traces_seen > 0, || {
            format!(
                "consumer saw {traces_seen} traces of {} requests, {refits} refits",
                b.stats.completed
            )
        });

        out.attempted = a.stats.injected + b.stats.injected;
        out.failed = a.stats.timeouts + b.stats.timeouts + backlog;
        out.fingerprint = fp.0;
        out.work = a.stats.completed as f64;
        out.work_s = a.wall_s;
        out.facts = vec![
            ("sim.world.events", a.stats.events as f64),
            ("sim.world.events_per_req", a.stats.events as f64 / a.stats.injected as f64),
            ("sim.world.timeouts", (a.stats.timeouts + b.stats.timeouts) as f64),
            ("sim.world.backlog_end", backlog as f64),
            ("trace.store.spans", b.stats.spans as f64),
            ("trace.store.dropped", b.world.traces().dropped() as f64),
            ("loadgen.arrivals", out.attempted as f64),
        ];
        self.last_world = Some(a.world);
        out
    }

    fn layer_metrics(&self, view: &RepView<'_>, outcome: &RepOutcome, out: &mut Named) {
        let per = |total_s: f64, n: u64| total_s / n.max(1) as f64;
        let (a, b) = (&PHASE_A, &PHASE_B);
        let run_until_s = view.total_s(a.run_until);
        out.push((
            "sim.world.inject_ns_per_req",
            per(view.total_s(a.inject), view.count(a.inject)) * 1e9,
        ));
        out.push(("sim.world.run_until_s", run_until_s));
        out.push(("sim.world.ns_per_event", per(run_until_s, view.count(a.run_until)) * 1e9));
        out.push((
            "sim.world.drain_completions_us_per_seg",
            per(view.total_s(a.drain_completions), view.calls(a.drain_completions)) * 1e6,
        ));
        out.push((
            "trace.store.drain_finished_us_per_seg",
            per(view.total_s(b.drain_finished), view.calls(b.drain_finished)) * 1e6,
        ));
        let observe = "trace.stats.observe_all";
        out.push((
            "trace.stats.observe_ns_per_trace",
            per(view.total_s(observe), view.count(observe)) * 1e9,
        ));
        out.push((
            "loadgen.open.arrivals_ns_per_req",
            per(view.total_s(a.arrivals), view.count(a.arrivals)) * 1e9,
        ));
        let refit = "core.analyzer.from_traces";
        out.push((
            "core.analyzer.from_traces_ms",
            per(view.total_s(refit), view.calls(refit)) * 1e3,
        ));

        // What tracing every request adds to the simulator's own calls.
        let sim_ns_per_req = |p: &PhaseSpans| {
            let s = view.total_s(p.inject)
                + view.total_s(p.run_until)
                + view.total_s(p.drain_completions)
                + view.total_s(p.drain_finished);
            per(s, view.count(p.inject)) * 1e9
        };
        out.push(("trace.tracing_ns_per_req", sim_ns_per_req(b) - sim_ns_per_req(a)));
        out.push(("sim.world.req_per_s", outcome.work / view.total_s(a.phase)));
        out.push((
            "sim.world.traced_req_per_s",
            view.count(b.inject) as f64 / view.total_s(b.phase),
        ));
    }

    fn probes(&mut self, rec: &Recorder, out: &mut Named) {
        out.push(("apps.topology_build_us", self.topology_build_us));
        let s = per_call_s(rec, "sim", "sim.world.new", 16, 9, || {
            std::hint::black_box(self.world(0.01));
        });
        out.push(("sim.world.new_us", s * 1e6));

        // The reads a controller makes every tick, on the world phase A left.
        let world = self.last_world.take().expect("probes run after a repetition");
        let s = per_call_s(rec, "sim", "sim.world.query", 200, 9, || {
            std::hint::black_box(world.e2e_percentile(10, 0.99));
            for svc in 0..world.topology().num_services() as u16 {
                std::hint::black_box(world.service_percentile(ServiceId(svc), 10, 0.99));
                std::hint::black_box(
                    world.service_utilization(ServiceId(svc), SimDuration::from_secs(15.0)),
                );
            }
            for api in 0..world.topology().num_apis() as u16 {
                std::hint::black_box(world.api_arrival_rate(ApiId(api), 5));
            }
        });
        out.push(("sim.world.query_us", s * 1e6));

        // `graf-metrics` directly: 10⁶ records at this workload's rate.
        const RECORDS: usize = 1_000_000;
        let mut rng = Rng::new(self.seed);
        let latencies_us: Vec<u64> =
            (0..RECORDS).map(|_| rng.uniform(500.0, 60_000.0) as u64).collect();
        let mut window = WindowedLatency::new(1_000_000, 600);
        let s = per_call_s(rec, "metrics", "metrics.window.record", 1, 5, || {
            window.clear();
            for (i, &l) in latencies_us.iter().enumerate() {
                window.record(i as u64 * 20, l);
            }
        });
        out.push(("metrics.window.record_ns", s / RECORDS as f64 * 1e9));
        let now_us = RECORDS as u64 * 20;
        let s = per_call_s(rec, "metrics", "metrics.window.percentile_trailing", 20, 9, || {
            std::hint::black_box(window.percentile_trailing(now_us, 10, 0.99));
        });
        out.push(("metrics.window.percentile_trailing_us", s * 1e6));
        let mut histogram = Histogram::new();
        let s = per_call_s(rec, "metrics", "metrics.histogram.record", 1, 5, || {
            histogram.clear();
            for &l in &latencies_us {
                histogram.record(l);
            }
        });
        out.push(("metrics.histogram.record_ns", s / RECORDS as f64 * 1e9));
        let s = per_call_s(rec, "metrics", "metrics.histogram.percentile", 200, 9, || {
            std::hint::black_box(histogram.percentile(0.99));
        });
        out.push(("metrics.histogram.percentile_us", s * 1e6));
    }
}
