//! Zero-allocation steady state for the simulator's request path, proven
//! by the counting allocator.
//!
//! The event core recycles everything it touches per request — calendar-queue
//! buckets, the request slab, the frame slab, station job vectors, the
//! min-load index and the completion buffer — so once every pool has reached
//! its high-water mark, driving a request from arrival to completion must not
//! touch the heap at all. The counting global allocator proves it: a measured
//! steady-state window performs **zero** allocations.
//!
//! The client timeout is on at its 30 s default: deadlines wait in the
//! world's FIFO, a ring buffer that reaches its high-water mark (about the
//! arrivals since the oldest in-flight request) during warmup and then only
//! cycles. Tracing is sampled out (`trace_sample: 0.0`) except in the trace
//! test, which measures what span recording costs: each sampled trace hands
//! its span buffer to the finished set, so the next `open_trace` reserves a
//! fresh one — at most one allocation per sampled trace, none per span. CPU
//! checkpointing runs at its coarsest resolution so the usage series
//! collapses into a single in-place cell, except in the horizon test, which
//! keeps the default one-per-microsecond checkpoints and runs past
//! [`CPU_HORIZON`] to show that the account stops growing there. One test
//! holds the trace consumer, `CallStats`, to the same zero.

use std::collections::BTreeMap;

use graf::apps::online_boutique;
use graf::nn::sanitize::{alloc_delta, CountingAlloc};
use graf::sim::rng::DetRng;
use graf::sim::time::SimTime;
use graf::sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceId, ServiceSpec};
use graf::sim::world::{Completion, SimConfig, World, CPU_HORIZON};
use graf::trace::CallStats;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A two-service pipeline with deterministic (cv = 0) service times: under
/// fixed-interval arrivals the in-flight population is constant, so every
/// pool reaches its final size during warmup.
fn pipeline_topo() -> AppTopology {
    AppTopology::new(
        "sanitize",
        vec![ServiceSpec::new("a", 0.8, 150).cv(0.0), ServiceSpec::new("b", 1.2, 150).cv(0.0)],
        vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
    )
}

fn sanitize_config() -> SimConfig {
    SimConfig {
        trace_sample: 0.0,
        cpu_checkpoint_us: u64::MAX,
        // Small windows and a short retention horizon: the metric deques
        // reach retention during warmup, after which window rotation recycles
        // evicted histograms instead of allocating new ones.
        window_us: 10_000,
        retain_windows: 8,
        ..SimConfig::default()
    }
}

/// Heap allocations made while simulating a 2 s steady-state window at
/// 500 qps (≤ 38% utilization on both services), after a 10 s warmup that
/// fills every slab, bucket and scratch buffer, and the number of traces
/// sampled in that window. Arrivals for the measured window are
/// pre-scheduled: the request path being certified starts at the event pop
/// (injection is certified by the per-second test below).
fn steady_state_allocs(cfg: SimConfig) -> (u64, u64) {
    let mut w = World::new(pipeline_topo(), cfg, 17);
    w.add_instances(ServiceId(0), 2, 800.0, SimTime::ZERO);
    w.add_instances(ServiceId(1), 2, 800.0, SimTime::ZERO);
    // Two warmup windows with a drain between them: `drain_completions_into`
    // swaps buffers with the world, so BOTH vectors in rotation must reach
    // their high-water capacity before the measured window (the experiment
    // driver's persistent buffer reaches this steady state the same way).
    // The warmup spans 10 s because the arrival-to-wheel-slot alignment
    // pattern repeats every lcm(2 ms, 64 µs · 1024) = 8.192 s — one full
    // period establishes the high-water mark of every level-0 bucket.
    let mut sink: Vec<Completion> = Vec::new();
    for i in 0..5_000u64 {
        w.inject(ApiId(0), SimTime(i * 2_000));
    }
    w.run_until(SimTime::from_secs(5.0));
    w.drain_completions_into(&mut sink);
    w.run_until(SimTime::from_secs(10.0));
    w.drain_completions_into(&mut sink);
    assert!(w.stats().completed > 4_990, "warmup did work ({})", w.stats().completed);

    for i in 5_000..6_000u64 {
        w.inject(ApiId(0), SimTime(i * 2_000));
    }
    let traced = w.traces().finished().len();
    let ((), allocs) = alloc_delta(|| w.run_until(SimTime::from_secs(12.0)));
    w.drain_completions_into(&mut sink);
    assert!(w.stats().completed > 5_990, "measured window did work ({})", w.stats().completed);
    (allocs, (w.traces().finished().len() - traced) as u64)
}

#[test]
fn request_path_is_allocation_free_on_the_calendar_queue() {
    assert_eq!(
        steady_state_allocs(sanitize_config()).0,
        0,
        "steady-state request path must not allocate (calendar core)"
    );
}

/// The way the benchmark drives a long world: each second's arrivals are
/// injected at the start of that second, then the world runs through it.
/// Most of a batch lands in level-1 wheel buckets, each holding one 65.5 ms
/// slice; a run passes a new level-1 slot every 65.5 ms for 67 s before the
/// wheel comes round. Far buckets draw their buffers from one pool that
/// cascades refill, so once the first seconds have warmed it, injecting and
/// running seconds 10–20 (150+ level-1 slots never used before) allocates
/// nothing.
#[test]
fn per_second_injection_is_allocation_free_once_the_pool_is_warm() {
    let mut w = World::new(pipeline_topo(), sanitize_config(), 17);
    w.add_instances(ServiceId(0), 2, 800.0, SimTime::ZERO);
    w.add_instances(ServiceId(1), 2, 800.0, SimTime::ZERO);
    let mut sink: Vec<Completion> = Vec::new();
    let mut allocs = 0;
    for sec in 0..20u64 {
        let ((), n) = alloc_delta(|| {
            for i in 0..500 {
                w.inject(ApiId(0), SimTime(sec * 1_000_000 + i * 2_000));
            }
            w.run_until(SimTime((sec + 1) * 1_000_000));
        });
        w.drain_completions_into(&mut sink);
        if sec >= 10 {
            allocs += n;
        }
    }
    assert!(w.stats().completed > 9_990, "the run did work ({})", w.stats().completed);
    assert_eq!(allocs, 0, "injecting and running seconds 10-20 must not allocate");
}

/// With a quarter of requests traced, the only allocations left are the
/// sampled traces' span buffers: at most one per sampled trace.
#[test]
fn span_recording_allocates_at_most_once_per_sampled_trace() {
    let (allocs, sampled) =
        steady_state_allocs(SimConfig { trace_sample: 0.25, ..sanitize_config() });
    assert!(sampled > 200, "the measured window samples traces ({sampled})");
    assert!(allocs <= sampled, "{allocs} allocations for {sampled} sampled traces");
}

/// Online Boutique under Poisson load: stochastic bursts can keep raising a
/// high-water mark (a deeper wheel bucket, a new slab slot), so finite runs
/// never hit exactly zero — but allocations must taper to a trickle once the
/// pools are warm: later windows allocate no more than earlier ones, and the
/// final 2 s window (≈1200 requests, ≈15k events) stays under a few dozen.
#[test]
fn boutique_steady_state_allocations_taper_off() {
    let mut w = World::new(online_boutique(), sanitize_config(), 9);
    for s in 0..6u16 {
        w.add_instances(ServiceId(s), 4, 250.0, SimTime::ZERO);
    }
    // Pre-generate all arrivals for 8 s of ~600 qps mixed load, so the
    // measured windows contain only event processing.
    let mut rng = DetRng::new(9 ^ 0x51);
    for (api, rate) in [(0u16, 180.0f64), (1, 180.0), (2, 240.0)] {
        let mut t = 0.0;
        loop {
            t += rng.exp(1e6 / rate);
            if t >= 8e6 {
                break;
            }
            w.inject(ApiId(api), SimTime(t as u64));
        }
    }
    let mut sink: Vec<Completion> = Vec::new();
    let mut windows = [0u64; 4];
    for (i, slot) in windows.iter_mut().enumerate() {
        let end = SimTime::from_secs(2.0 * (i + 1) as f64);
        let ((), n) = alloc_delta(|| w.run_until(end));
        w.drain_completions_into(&mut sink);
        *slot = n;
    }
    assert!(w.stats().completed > 4_000, "the run did work ({})", w.stats().completed);
    assert!(windows[3] <= windows[1], "allocations must not grow once warm: windows {windows:?}");
    assert!(
        windows[3] <= 64,
        "steady state tapers to a trickle (high-water growth only): windows {windows:?}"
    );
}

/// The trace consumer's side: `CallStats` keeps one counter per (API,
/// service, multiplicity), so once earlier traces have shown it every
/// combination, folding 10 000 more boutique traces allocates nothing, and
/// each service's stored counts end at its largest multiplicity however many
/// traces went in.
#[test]
fn call_stats_fold_is_allocation_free_once_every_multiplicity_is_seen() {
    let mut w =
        World::new(online_boutique(), SimConfig { trace_sample: 1.0, ..sanitize_config() }, 9);
    for s in 0..6u16 {
        w.add_instances(ServiceId(s), 4, 250.0, SimTime::ZERO);
    }
    let mut rng = DetRng::new(9 ^ 0x51);
    for (api, rate) in [(0u16, 180.0f64), (1, 180.0), (2, 240.0)] {
        let mut t = 0.0;
        loop {
            t += rng.exp(1e6 / rate);
            if t >= 30e6 {
                break;
            }
            w.inject(ApiId(api), SimTime(t as u64));
        }
    }
    w.run_to_quiescence(SimTime::from_secs(90.0));
    let traces = w.traces_mut().drain_finished();
    assert!(traces.len() >= 15_000, "the run traced enough requests ({})", traces.len());
    let (warmup, measured) = traces.split_at(traces.len() - 10_000);

    let mut stats = CallStats::new();
    stats.observe_all(warmup);
    let ((), allocs) = alloc_delta(|| stats.observe_all(measured));
    assert_eq!(allocs, 0, "folding traces of seen multiplicities must not allocate");

    // The largest multiplicity of each (API, service) in the corpus.
    let mut largest: BTreeMap<(u16, u16), usize> = BTreeMap::new();
    for t in &traces {
        let mut per_service: BTreeMap<u16, usize> = BTreeMap::new();
        for s in &t.spans {
            *per_service.entry(s.service).or_insert(0) += 1;
        }
        for (svc, n) in per_service {
            let m = largest.entry((t.api, svc)).or_insert(0);
            *m = (*m).max(n);
        }
    }
    for api in stats.apis() {
        let profile = stats.profile(api).expect("api observed");
        assert!(profile.traces_seen() > 1_000, "api {api}: {}", profile.traces_seen());
        for svc in profile.services() {
            assert_eq!(
                profile.counts(svc).len(),
                largest[&(api, svc)] + 1,
                "api {api} service {svc}: one counter per multiplicity 0..=largest"
            );
        }
    }
}

/// At the default per-microsecond CPU checkpoints, each service's account
/// grows until the run passes [`CPU_HORIZON`] and then recycles its buffer:
/// at a steady 500 qps its capacity doubles for the last time at 65 s, and
/// seconds 68–134 allocate nothing, while the HPA's 15 s utilization query
/// still reads the live window. Without the horizon the account doubles
/// again at about 130 s. The window is the stretch between the event
/// wheel's level-2 crossings at 67.1 s and 134.2 s: the far-bucket pool
/// allocates 3 buffers at each crossing, whatever the CPU resolution.
#[test]
fn cpu_account_stops_growing_past_its_horizon() {
    let cfg = SimConfig {
        cpu_checkpoint_us: SimConfig::default().cpu_checkpoint_us,
        ..sanitize_config()
    };
    assert_eq!(cfg.cpu_checkpoint_us, 1, "the default resolution");
    assert!(CPU_HORIZON.as_secs_f64() < 66.0, "the measured window is longer than the horizon");
    let mut w = World::new(pipeline_topo(), cfg, 17);
    w.add_instances(ServiceId(0), 2, 800.0, SimTime::ZERO);
    w.add_instances(ServiceId(1), 2, 800.0, SimTime::ZERO);
    let mut sink: Vec<Completion> = Vec::new();
    let mut allocs = 0;
    for sec in 0..134u64 {
        let ((), n) = alloc_delta(|| {
            for i in 0..500 {
                w.inject(ApiId(0), SimTime(sec * 1_000_000 + i * 2_000));
            }
            w.run_until(SimTime((sec + 1) * 1_000_000));
        });
        w.drain_completions_into(&mut sink);
        if (68..134).contains(&sec) {
            allocs += n;
        }
    }
    assert!(w.stats().completed > 66_990, "the run did work ({})", w.stats().completed);
    assert_eq!(allocs, 0, "running seconds 68-134 must not allocate");
    let util = w.service_utilization(ServiceId(0), graf::sim::time::SimDuration::from_secs(15.0));
    assert!(util.is_some_and(|u| u > 0.1), "utilization over the last 15 s: {util:?}");
}
