//! Integration: whole-experiment determinism — identical seeds produce
//! bit-identical outcomes across the full stack (simulator + orchestrator +
//! load generation + autoscaler).

use graf::apps::online_boutique;
use graf::loadgen::ClosedLoop;
use graf::orchestrator::{
    run_experiment, Cluster, CreationModel, Deployment, ExperimentHooks, HpaConfig, KubernetesHpa,
};
use graf::sim::time::SimTime;
use graf::sim::topology::{ApiId, ServiceId};
use graf::sim::world::{SimConfig, World};

fn run_once(seed: u64) -> (u64, u64, Vec<u64>, usize) {
    let topo = online_boutique();
    let world = World::new(topo.clone(), SimConfig::default(), seed);
    let deployments =
        (0..topo.num_services()).map(|s| Deployment::new(ServiceId(s as u16), 100.0, 3)).collect();
    let mut cluster = Cluster::new(world, deployments, CreationModel::default());
    let mut users = ClosedLoop::with_mix(
        vec![(ApiId(0), 3.0), (ApiId(1), 3.0), (ApiId(2), 4.0)],
        300,
        seed ^ 1,
    );
    let mut hpa = KubernetesHpa::new(HpaConfig::with_threshold(0.5), 6);
    let mut latencies = Vec::new();
    let mut on_segment = |_: &mut Cluster, comps: &[graf::sim::world::Completion]| {
        latencies.extend(comps.iter().map(|c| c.latency_us()));
    };
    let mut hooks = ExperimentHooks { on_segment: Some(&mut on_segment), on_control: None };
    run_experiment(&mut cluster, &mut users, &mut hpa, SimTime::from_secs(120.0), &mut hooks);
    let stats = cluster.world().stats();
    (stats.completed, stats.events, latencies, cluster.total_instances())
}

#[test]
fn same_seed_same_everything() {
    let a = run_once(77);
    let b = run_once(77);
    assert_eq!(a.0, b.0, "completed counts match");
    assert_eq!(a.1, b.1, "event counts match");
    assert_eq!(a.2, b.2, "every latency matches bit-for-bit");
    assert_eq!(a.3, b.3, "final instance counts match");
    assert!(a.0 > 1000, "the run actually did work ({} completions)", a.0);
}

/// The full pilot-style experiment pinned across revisions: completion
/// count, event total, an order-sensitive fingerprint of the latency stream
/// and the final instance count, per seed. The constants were captured at
/// commit `1611261`, the last revision that also ran a reference binary-heap
/// event core and asserted it bit-identical to the calendar queue on this
/// run; the pins now hold what that comparison certified.
#[test]
fn pilot_experiment_output_is_pinned() {
    // (seed, (completed, events, latency fingerprint, final instances))
    const PINNED: [(u64, (u64, u64, u64, usize)); 3] = [
        (7, (14093, 223628, 0x46cb513d6d007d4f, 8)),
        (77, (14259, 227115, 0x1d0d16ee4b7783d7, 8)),
        (402, (14124, 224448, 0xd4671fdc16d5bcfa, 8)),
    ];
    for (seed, want) in PINNED {
        let (completed, events, latencies, instances) = run_once(seed);
        assert_eq!(latencies.len() as u64, completed, "one latency per completion (seed {seed})");
        let fp = latencies.iter().fold(FNV_OFFSET, |h, &l| fnv_mix(h, l));
        assert_eq!((completed, events, fp, instances), want, "pilot output moved (seed {seed})");
    }
}

#[test]
fn different_seed_different_trajectory() {
    let a = run_once(77);
    let c = run_once(78);
    assert_ne!(a.2, c.2, "different seeds explore different randomness");
}

/// Data-parallel training is thread-count invariant: a [`LatencyModel`]
/// trained with one worker and one trained with three produce bit-identical
/// learning curves, parameters (via predictions), and solver gradients —
/// mini-batches are sharded over fixed chunks with an index-ordered gradient
/// reduction, so the thread count never touches the numerics.
#[test]
fn parallel_training_matches_serial_bit_for_bit() {
    use graf::core::{FeatureScaler, LatencyModel, NetKind, Sample, TrainConfig};
    use graf::sim::rng::DetRng;

    fn synthetic_samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = DetRng::new(seed);
        let works = [1.0, 3.0, 2.0];
        (0..n)
            .map(|_| {
                let w = rng.uniform(20.0, 120.0);
                let quotas: Vec<f64> = (0..3).map(|_| rng.uniform(200.0, 2000.0)).collect();
                let mut p99 = 3.0;
                for i in 0..3 {
                    let head = (quotas[i] - w * works[i]).max(20.0);
                    p99 += 1000.0 * works[i] / head + works[i];
                }
                Sample {
                    api_rates: vec![w],
                    workloads: vec![w, w, w],
                    quotas_mc: quotas,
                    p99_ms: p99 * rng.lognormal_mean_cv(1.0, 0.08),
                }
            })
            .collect()
    }

    fn train_with(threads: usize) -> (graf::core::TrainReport, Vec<f64>, Vec<f64>) {
        let samples = synthetic_samples(400, 21);
        let scaler = FeatureScaler::fit(
            samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
        );
        let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
        let split = ds.split(0.7, 0.15, 3);
        let mut model = LatencyModel::new(
            NetKind::Gnn,
            &[(0, 1), (1, 2)],
            3,
            scaler,
            split.train.label_mean().max(1e-9),
            11,
        );
        let cfg = TrainConfig { epochs: 12, evals: 4, threads, ..Default::default() };
        let report = model.train(&split, &cfg);
        let w = [60.0, 60.0, 60.0];
        let q = [700.0, 900.0, 800.0];
        let preds = vec![model.predict_ms(&w, &q), model.predict_ms(&[90.0; 3], &[500.0; 3])];
        let mut grads = Vec::new();
        model.predict_ms_with_grad(&w, &q, f64::NEG_INFINITY, &mut grads);
        (report, preds, grads)
    }

    let serial = train_with(1);
    let parallel = train_with(3);
    assert_eq!(serial.0.train_loss, parallel.0.train_loss, "training losses bit-identical");
    assert_eq!(serial.0.val_loss, parallel.0.val_loss, "validation losses bit-identical");
    assert_eq!(serial.0.best_iter, parallel.0.best_iter, "same best checkpoint");
    assert_eq!(serial.1, parallel.1, "predictions bit-identical");
    assert_eq!(serial.2, parallel.2, "quota gradients bit-identical");
}

/// FNV-1a step shared by the stream fingerprints of the pinned runs.
fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3)
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Order-sensitive FNV-1a fingerprint of a completion stream.
fn fingerprint_completions(completions: &[graf::sim::world::Completion]) -> u64 {
    let mut h = FNV_OFFSET;
    for c in completions {
        h = fnv_mix(h, c.request.0);
        h = fnv_mix(h, c.api.0 as u64);
        h = fnv_mix(h, c.start.0);
        h = fnv_mix(h, c.end.0);
        h = fnv_mix(h, c.timed_out as u64);
    }
    h
}

/// Order-sensitive FNV-1a fingerprint of finished traces (ids, apis and
/// every span's coordinates).
fn fingerprint_traces(traces: &[graf::trace::Trace]) -> u64 {
    let mut h = FNV_OFFSET;
    for t in traces {
        h = fnv_mix(h, t.id.0);
        h = fnv_mix(h, t.api as u64);
        for s in &t.spans {
            h = fnv_mix(h, s.span_id.0 as u64);
            h = fnv_mix(h, s.parent.map_or(u64::MAX, |p| p.0 as u64));
            h = fnv_mix(h, s.service as u64);
            h = fnv_mix(h, s.start_us);
            h = fnv_mix(h, s.end_us);
        }
    }
    h
}

/// The open-loop boutique run of `serial_world_output_is_pinned`: 2 s of
/// Poisson arrivals, then drained. Returns the drained world and its
/// completions; `traced` sets `trace_sample` to 1.0, otherwise the world
/// keeps the default (no tracing).
fn serial_world(seed: u64, traced: bool) -> (World, Vec<graf::sim::world::Completion>) {
    use graf::sim::rng::DetRng;

    let mut cfg = SimConfig { request_timeout_us: None, ..SimConfig::default() };
    if traced {
        cfg.trace_sample = 1.0;
    }
    let mut w = World::new(online_boutique(), cfg, seed);
    for s in 0..6u16 {
        w.add_instances(ServiceId(s), 3, 300.0, SimTime::ZERO);
    }
    let mut rng = DetRng::new(seed ^ 0x9e37);
    for (api, rate) in [(0u16, 120.0f64), (1, 120.0), (2, 160.0)] {
        let mut t = 0.0;
        loop {
            t += rng.exp(1e6 / rate);
            if t >= 2e6 {
                break;
            }
            w.inject(ApiId(api), SimTime(t as u64));
        }
    }
    w.run_until(SimTime::from_secs(2.0));
    w.run_to_quiescence(SimTime::from_secs(10.0));
    let comps = w.drain_completions();
    assert!(comps.len() > 500, "the run actually did work ({} completions)", comps.len());
    assert_eq!(w.in_flight(), 0, "the run drained");
    (w, comps)
}

/// Serial-`World` output pinned across revisions: the traced
/// [`serial_world`] run must reproduce these
/// `(completions, traces, events)` fingerprints for every seed. The constants
/// were captured at commit `c77e2c3`, before the sharded executor and its
/// hooks in `World` were removed; a change that moves any of them changed
/// what a seed means.
#[test]
fn serial_world_output_is_pinned() {
    fn run_once(seed: u64) -> (u64, u64, u64) {
        let (mut w, comps) = serial_world(seed, true);
        let traces = w.traces_mut().drain_finished();
        (fingerprint_completions(&comps), fingerprint_traces(&traces), w.stats().events)
    }

    // (seed, (completions, traces, events))
    const PINNED: [(u64, (u64, u64, u64)); 3] = [
        (7, (0xf858e7bd8c93dcac, 0xd151d9ebdda88315, 11842)),
        (77, (0x4dcf5c2b4ab5bff1, 0x48720e6407ab19f0, 11257)),
        (402, (0xa37686a9f926387c, 0x64ca00833f8f2e45, 11860)),
    ];
    for (seed, want) in PINNED {
        assert_eq!(run_once(seed), want, "serial output moved (seed {seed})");
    }
}

/// Traces are observability only: at every pinned seed, the untraced
/// default world completes the same requests at the same instants, through
/// the same number of events, as the fully traced one — and keeps no spans.
#[test]
fn trace_sampling_does_not_move_the_simulation() {
    assert_eq!(SimConfig::default().trace_sample, 0.0, "tracing is opt-in");
    for seed in [7, 77, 402] {
        let (traced, traced_comps) = serial_world(seed, true);
        let (plain, plain_comps) = serial_world(seed, false);
        assert_eq!(
            fingerprint_completions(&plain_comps),
            fingerprint_completions(&traced_comps),
            "completions moved with the trace rate (seed {seed})"
        );
        assert_eq!(plain.stats().events, traced.stats().events, "events (seed {seed})");
        assert!(traced.stats().spans > 0, "the traced run recorded spans (seed {seed})");
        assert_eq!(plain.stats().spans, 0, "a default world records no span (seed {seed})");
        assert!(plain.traces().finished().is_empty(), "and retains no trace (seed {seed})");
        assert_eq!(plain.traces().open_count(), 0, "nor opens one (seed {seed})");
    }
}

/// The client-timeout path pinned across revisions: the open-loop boutique of
/// `serial_world_output_is_pinned`, 4 s of arrivals into a starved cluster
/// (60 mc × 3 instances per service) with the client timeout on — 100 ms,
/// where about two thirds of the requests are abandoned, and the default
/// 30 s — drained past the last deadline. The
/// `(completions, traces)` fingerprints and `events_parent` were captured at
/// commit `e15fbf8`, which scheduled one `RequestTimeout` queue event per
/// request. Deadlines now wait in the world's FIFO instead: every byte of
/// output is the same, and the event count drops by exactly the deadlines of
/// requests that had already completed when theirs came up.
#[test]
fn timeout_world_output_is_pinned() {
    use graf::sim::rng::DetRng;

    /// `(completions, traces, events, completed, timeouts)`.
    fn run_once(seed: u64, timeout_us: u64) -> (u64, u64, u64, u64, u64) {
        let cfg = SimConfig {
            request_timeout_us: Some(timeout_us),
            trace_sample: 1.0,
            ..SimConfig::default()
        };
        let mut w = World::new(online_boutique(), cfg, seed);
        for s in 0..6u16 {
            w.add_instances(ServiceId(s), 3, 60.0, SimTime::ZERO);
        }
        let mut rng = DetRng::new(seed ^ 0x9e37);
        for (api, rate) in [(0u16, 120.0f64), (1, 120.0), (2, 160.0)] {
            let mut t = 0.0;
            loop {
                t += rng.exp(1e6 / rate);
                if t >= 4e6 {
                    break;
                }
                w.inject(ApiId(api), SimTime(t as u64));
            }
        }
        w.run_until(SimTime::from_secs(4.0));
        w.run_to_quiescence(SimTime(4_000_000 + timeout_us + 1_000_000));
        let comps = w.drain_completions();
        let traces = w.traces_mut().drain_finished();
        let s = w.stats();
        assert_eq!(w.in_flight(), 0, "the run drained past the last deadline");
        assert_eq!(s.completed, s.injected, "every request completed or timed out");
        let fps = (fingerprint_completions(&comps), fingerprint_traces(&traces));
        (fps.0, fps.1, s.events, s.completed, s.timeouts)
    }

    struct Pin {
        seed: u64,
        timeout_us: u64,
        completions: u64,
        traces: u64,
        events_parent: u64,
        events: u64,
        completed: u64,
        timeouts: u64,
    }
    #[rustfmt::skip]
    const PINNED: [Pin; 6] = [
        Pin { seed: 7, timeout_us: 100_000, completions: 0x7344eac5e6a0362c, traces: 0xc1b6f2b4241f399a, events_parent: 19477, events: 18911, completed: 1657, timeouts: 1091 },
        Pin { seed: 7, timeout_us: 30_000_000, completions: 0x6823efa7043c7f42, traces: 0x70e41f884d54bdae, events_parent: 30005, events: 28348, completed: 1657, timeouts: 0 },
        Pin { seed: 77, timeout_us: 100_000, completions: 0x83bb837a3921cbf9, traces: 0xdef83e29fcd34549, events_parent: 20515, events: 19856, completed: 1596, timeouts: 937 },
        Pin { seed: 77, timeout_us: 30_000_000, completions: 0x88b86a4b0cd0b62b, traces: 0x08ebfde1d7e1ed43, events_parent: 28899, events: 27303, completed: 1596, timeouts: 0 },
        Pin { seed: 402, timeout_us: 100_000, completions: 0x50bb9b5e05a54c00, traces: 0x2b391c19372347cc, events_parent: 19832, events: 19290, completed: 1666, timeouts: 1124 },
        Pin { seed: 402, timeout_us: 30_000_000, completions: 0xb79e87d3a9f81fb3, traces: 0xb05cda310fbeb886, events_parent: 30071, events: 28405, completed: 1666, timeouts: 0 },
    ];
    for p in PINNED {
        assert_eq!(
            p.events_parent - p.events,
            p.completed - p.timeouts,
            "only completed requests' deadlines left the event count (seed {})",
            p.seed
        );
        let want = (p.completions, p.traces, p.events, p.completed, p.timeouts);
        assert_eq!(
            run_once(p.seed, p.timeout_us),
            want,
            "timeout-path output moved (seed {}, {} µs timeout)",
            p.seed,
            p.timeout_us
        );
    }
}

/// The two Algorithm-1 set-ups of the bound-search tests below, at smoke
/// sizes (2 s window after a 1 s warm-up): the collector's own `chain2` and
/// Online Boutique configured as the closed-loop benchmark configures it.
fn bound_search_cases(
    seed: u64,
    threads: usize,
) -> [(&'static str, graf::sim::topology::AppTopology, graf::core::SamplingConfig); 2] {
    use graf::core::SamplingConfig;
    use graf::sim::topology::{ApiSpec, AppTopology, CallNode, ServiceSpec};

    let chain2 = AppTopology::new(
        "chain2",
        vec![ServiceSpec::new("a", 1.0, 300), ServiceSpec::new("b", 3.0, 300)],
        vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
    );
    let smoke =
        SamplingConfig { measure_secs: 2.0, warmup_secs: 1.0, seed, threads, ..Default::default() };
    [
        (
            "chain2",
            chain2,
            SamplingConfig { probe_qps: vec![40.0], abundant_quota_mc: 3000.0, ..smoke.clone() },
        ),
        (
            "boutique",
            online_boutique(),
            SamplingConfig {
                slo_ms: 80.0,
                probe_qps: vec![180.0, 180.0, 240.0],
                workload_range: (0.25, 1.6),
                cpu_unit_mc: 100.0,
                ..smoke
            },
        ),
    ]
}

/// `(lower, upper)` of a bound search as `f64` bit patterns.
fn bound_bits(
    topo: graf::sim::topology::AppTopology,
    cfg: graf::core::SamplingConfig,
) -> (Vec<u64>, Vec<u64>) {
    let bounds = graf::core::SampleCollector::new(topo, cfg).reduce_search_space();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (bits(&bounds.lower), bits(&bounds.upper))
}

/// Algorithm 1 runs its baseline pair and its per-service scans on
/// `SamplingConfig::threads` workers; every probe's seed depends only on its
/// (service, step) position and results are assembled in service order, so
/// the bounds must not depend on the worker count — fewer workers than
/// services, as many, and more.
#[test]
fn bound_search_is_thread_count_invariant() {
    let one_worker = bound_search_cases(7, 1).map(|(_, topo, cfg)| bound_bits(topo, cfg));
    for threads in [2, 3, 8] {
        for ((app, topo, cfg), want) in bound_search_cases(7, threads).into_iter().zip(&one_worker)
        {
            assert_eq!(&bound_bits(topo, cfg), want, "{app} bounds moved with {threads} workers");
        }
    }
}

/// Algorithm-1 bounds pinned across revisions. The bit patterns were captured
/// at commit `e8f8f79` from the serial `for i in 0..n` scan loop, before it
/// was replaced by the worker-pool scans: the pool must reproduce the old
/// loop's bytes, not merely agree with itself.
#[test]
fn algorithm1_bounds_are_pinned() {
    // (seed, (lower, upper) of chain2 then of boutique)
    type Pin = (&'static [u64], &'static [u64]);
    const PINNED: [(u64, [Pin; 2]); 2] = [
        (
            7,
            [
                (
                    &[0x4058b58e337a61a1, 0x4067aae37db497d0],
                    &[0x407344f1b2fe7a0a, 0x409cc98000000000],
                ),
                (
                    &[
                        0x4081c7bc79762de2,
                        0x406361385088246c,
                        0x406f8e84a79b7518,
                        0x4079b14243fdf810,
                        0x40889bfb1ecfdc4c,
                        0x40729011cc0117b4,
                    ],
                    &[
                        0x4084eafbda30ae74,
                        0x4075d6ab8697dfa7,
                        0x4081c7bc79762de2,
                        0x408cf3be0621b7e1,
                        0x409bbb48f5c28f5c,
                        0x40889bfb1ecfdc4c,
                    ],
                ),
            ],
        ),
        (
            77,
            [
                (
                    &[0x405500b8def4d2fc, 0x4067aae37db497d0],
                    &[0x4076ab76b476adb2, 0x408e0dd9a161e4f7],
                ),
                (
                    &[
                        0x407e39f39b48e79a,
                        0x406361385088246c,
                        0x406f8e84a79b7518,
                        0x4075d6ab8697dfa7,
                        0x4084eafbda30ae74,
                        0x40729011cc0117b4,
                    ],
                    &[
                        0x4084eafbda30ae74,
                        0x407e39f39b48e79a,
                        0x4081c7bc79762de2,
                        0x408cf3be0621b7e1,
                        0x4094093bc0ebedfa,
                        0x40889bfb1ecfdc4c,
                    ],
                ),
            ],
        ),
    ];
    for (seed, pins) in PINNED {
        for ((app, topo, cfg), (lower, upper)) in bound_search_cases(seed, 2).into_iter().zip(pins)
        {
            let got = bound_bits(topo, cfg);
            assert_eq!(
                (got.0.as_slice(), got.1.as_slice()),
                (lower, upper),
                "{app} bounds moved (seed {seed})"
            );
        }
    }
}

/// End-to-end GRAF pipeline (build → controller-driven experiment) with
/// telemetry enabled vs disabled: decisions and measurements must be
/// bit-identical — the obs layer observes, it never perturbs.
#[test]
fn telemetry_does_not_perturb_the_pipeline() {
    use graf::core::{Graf, GrafBuildConfig, SamplingConfig, TrainConfig};
    use graf::obs::Obs;
    use graf::sim::topology::{ApiSpec, AppTopology, CallNode, ServiceSpec};

    fn tiny_topo() -> AppTopology {
        AppTopology::new(
            "tiny",
            vec![ServiceSpec::new("a", 1.0, 300), ServiceSpec::new("b", 2.5, 300)],
            vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
        )
    }

    fn run_pipeline(obs: &Obs) -> (Vec<f64>, Vec<usize>, Vec<u64>, u64) {
        let cfg = GrafBuildConfig {
            sampling: SamplingConfig {
                probe_qps: vec![40.0],
                measure_secs: 3.0,
                warmup_secs: 1.5,
                abundant_quota_mc: 2500.0,
                threads: 4,
                ..SamplingConfig::default()
            },
            train: TrainConfig { epochs: 10, evals: 3, ..Default::default() },
            num_samples: 60,
            ..Default::default()
        };
        let graf = Graf::build_observed(tiny_topo(), cfg, obs);
        let mut ctrl = graf.controller(80.0);
        ctrl.set_obs(obs.clone());

        let world = World::new(tiny_topo(), SimConfig::default(), 5);
        let mut cluster = Cluster::new(
            world,
            vec![Deployment::new(ServiceId(0), 100.0, 2), Deployment::new(ServiceId(1), 100.0, 2)],
            CreationModel::default(),
        );
        cluster.set_obs(obs.clone());
        let mut users = ClosedLoop::with_mix(vec![(ApiId(0), 1.0)], 60, 9);
        let mut latencies = Vec::new();
        let mut on_segment = |_: &mut Cluster, comps: &[graf::sim::world::Completion]| {
            latencies.extend(comps.iter().map(|c| c.latency_us()));
        };
        let mut hooks = ExperimentHooks { on_segment: Some(&mut on_segment), on_control: None };
        run_experiment(&mut cluster, &mut users, &mut ctrl, SimTime::from_secs(60.0), &mut hooks);
        let desired: Vec<usize> = cluster.deployments().iter().map(|d| d.desired).collect();
        (ctrl.last_quotas_mc.clone(), desired, latencies, cluster.world().stats().events)
    }

    let enabled = Obs::enabled();
    let on = run_pipeline(&enabled);
    let off = run_pipeline(&Obs::disabled());
    assert_eq!(on.0, off.0, "planned quotas are bit-identical");
    assert_eq!(on.1, off.1, "instance decisions are bit-identical");
    assert_eq!(on.2, off.2, "every latency is bit-identical");
    assert_eq!(on.3, off.3, "event counts are bit-identical");

    // The enabled run actually captured the pipeline.
    let names: Vec<&str> = enabled.events().iter().map(|e| e.name).collect();
    assert!(names.contains(&"graf.sample.bounds"), "bound-search span recorded");
    assert!(names.contains(&"graf.sample.collect"), "sample fan-out span recorded");
    assert!(names.contains(&"graf.train"), "training span recorded");
    assert!(names.contains(&"graf.train.eval"), "training eval points recorded");
    assert!(names.contains(&"graf.controller.tick"), "controller tick spans recorded");
    assert!(names.contains(&"graf.solver.solve"), "solver spans recorded");
    assert!(names.contains(&"graf.cluster.create"), "creation batches recorded");
}

/// Training and solver bytes pinned across revisions. One FNV-1a hash covers,
/// for the Social Network `MicroserviceGnn` and for the `FlatMlp` ablation
/// over the same features: the loss of every training step, the final
/// parameter bits, and the batch-1 and batch-5 input gradients. It then
/// covers the quotas and instance counts `plan_outcome` picks on a Social
/// Network GNN `LatencyModel` trained end to end. The 160-row batch is two
/// full 64-row training chunks and a half one. The graf-nn kernels may be
/// retiled, fused or reordered only if every output element keeps its exact
/// `mul_add` chain, and this pin fails on any change that does not. The
/// constant was captured at commit `b14018e`, before the weight-gradient,
/// bias-seeding and scratch-reuse rewrite of the kernels.
#[test]
fn gnn_training_output_is_pinned() {
    use graf::apps::social_network;
    use graf::core::{
        Bounds, FeatureScaler, GrafController, GrafControllerConfig, LatencyModel, NetKind, Sample,
        TrainConfig, WorkloadAnalyzer,
    };
    use graf::gnn::{FlatMlp, GnnConfig, GraphSpec, LatencyNet, MicroserviceGnn};
    use graf::nn::{Adam, AsymmetricHuber, Matrix, Param};
    use graf::sim::rng::DetRng;

    const PINNED: u64 = 0x36ef4587232379c8;

    /// Hashes the per-step losses of eight training steps, then the batch-1
    /// and batch-5 input gradients of the trained net.
    fn train_and_probe(net: &mut dyn LatencyNet, x: &Matrix, y: &[f64], mut h: u64) -> u64 {
        let loss = AsymmetricHuber::default();
        let mut opt = Adam::new(3e-3);
        let mut rng = DetRng::new(32);
        for _ in 0..8 {
            h = fnv_mix(h, net.train_step(x, y, &loss, &mut opt, &mut rng).to_bits());
        }
        for rows in [1, 5] {
            for v in net.grad_input(&x.slice_rows(0, rows)).data() {
                h = fnv_mix(h, v.to_bits());
            }
        }
        h
    }
    fn hash_param(h: &mut u64, p: &Param) {
        for v in p.value.data() {
            *h = fnv_mix(*h, v.to_bits());
        }
    }

    let topo = social_network();
    let n = topo.num_services();
    let edges: Vec<(u16, u16)> = topo.edges().iter().map(|&(p, c)| (p.0, c.0)).collect();
    let mut data_rng = DetRng::new(31);
    let x = Matrix::from_fn(160, 2 * n, |_, _| data_rng.uniform(0.05, 1.0));
    let y: Vec<f64> = (0..160)
        .map(|r| {
            let row = x.row(r);
            1.0 + (0..n).map(|i| 0.2 * row[2 * i] / (row[2 * i + 1] + 0.3)).sum::<f64>()
        })
        .collect();

    let mut h = FNV_OFFSET;
    let graph = GraphSpec::from_edges(n, &edges);
    let mut gnn = MicroserviceGnn::new(graph, GnnConfig::default(), &mut DetRng::new(33));
    h = train_and_probe(&mut gnn, &x, &y, h);
    gnn.for_each_param(|p| hash_param(&mut h, p));
    let mut flat = FlatMlp::new(n, 2, 120, 0.25, &mut DetRng::new(34));
    h = train_and_probe(&mut flat, &x, &y, h);
    flat.for_each_param(|p| hash_param(&mut h, p));

    // The solver on a trained model: an analytic convex latency surface over
    // the front-end rate and the per-service quotas.
    let mult: Vec<f64> = (0..n).map(|s| topo.multiplicity(ApiId(0), ServiceId(s as u16))).collect();
    let work: Vec<f64> = topo.services.iter().map(|s| s.work_ms).collect();
    let bounds = Bounds {
        lower: (0..n).map(|i| 100.0 + 250.0 * mult[i] * work[i]).collect(),
        upper: vec![2000.0; n],
    };
    let mut corpus_rng = DetRng::new(35);
    let samples: Vec<Sample> = (0..1024)
        .map(|_| {
            let rate = corpus_rng.uniform(50.0, 250.0);
            let quotas_mc: Vec<f64> =
                (0..n).map(|i| corpus_rng.uniform(bounds.lower[i], bounds.upper[i])).collect();
            let p99_ms = 4.0
                + (0..n)
                    .map(|i| {
                        let headroom = (quotas_mc[i] - rate * mult[i] * work[i]).max(10.0);
                        2400.0 * work[i] / headroom + work[i]
                    })
                    .sum::<f64>();
            let workloads = mult.iter().map(|m| rate * m).collect();
            Sample { api_rates: vec![rate], workloads, quotas_mc, p99_ms }
        })
        .collect();
    let scaler = FeatureScaler::fit(
        samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
    );
    let split = LatencyModel::dataset_from_samples(&scaler, &samples).split(0.75, 0.125, 36);
    let mut model =
        LatencyModel::new(NetKind::Gnn, &edges, n, scaler, split.train.label_mean(), 37);
    let report = model.train(
        &split,
        &TrainConfig { epochs: 30, evals: 3, seed: 38, threads: 1, ..TrainConfig::default() },
    );
    for v in report.train_loss.iter().chain(&report.val_loss) {
        h = fnv_mix(h, v.to_bits());
    }
    let centre: Vec<f64> = mult.iter().map(|m| 150.0 * m).collect();
    let floor = model.predict_ms(&centre, &bounds.lower);
    let top = model.predict_ms(&centre, &bounds.upper);
    let analyzer = WorkloadAnalyzer::from_multiplicities(vec![mult.clone()], edges.clone());
    let cfg = GrafControllerConfig {
        train_total_qps: 150.0,
        integer_refine: true,
        ..GrafControllerConfig::default()
    };
    let mut ctrl = GrafController::new(model, analyzer, bounds, cfg);
    for slo_ms in [2.0 * floor, top + 0.5 * (floor - top)] {
        ctrl.cfg.slo_ms = slo_ms;
        for rate in [80.0, 150.0, 210.0] {
            let plan = ctrl.plan_outcome(&[rate], Some(100.0));
            for q in &plan.quotas_mc {
                h = fnv_mix(h, q.to_bits());
            }
            for &c in plan.counts.as_deref().unwrap_or_default() {
                h = fnv_mix(h, c as u64);
            }
        }
    }
    assert_eq!(h, PINNED, "training or solver bytes moved: {h:#018x}");
}
