//! Integration: the full GRAF pipeline (profile → Algorithm 1 → sample →
//! train → solve → control) against a simulated application, spanning
//! graf-sim, graf-trace, graf-orchestrator, graf-gnn and graf-core.

use graf::core::sample_collector::SamplingConfig;
use graf::core::{Graf, GrafBuildConfig, TrainConfig};
use graf::orchestrator::{Cluster, CreationModel, Deployment};
use graf::sim::time::SimTime;
use graf::sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceId, ServiceSpec};
use graf::sim::world::{SimConfig, World};

fn app() -> AppTopology {
    AppTopology::new(
        "it-app",
        vec![
            ServiceSpec::new("edge", 0.4, 300),
            ServiceSpec::new("mid", 0.8, 250),
            ServiceSpec::new("leaf", 0.5, 250),
        ],
        vec![ApiSpec::new("req", CallNode::new(0).call(CallNode::new(1).call(CallNode::new(2))))],
    )
}

fn quick_cfg(seed: u64) -> GrafBuildConfig {
    GrafBuildConfig {
        sampling: SamplingConfig {
            probe_qps: vec![120.0],
            slo_ms: 40.0,
            cpu_unit_mc: 100.0,
            measure_secs: 4.0,
            warmup_secs: 2.0,
            abundant_quota_mc: 3000.0,
            threads: 8,
            seed,
            ..SamplingConfig::default()
        },
        // Small dataset → one mini-batch per epoch, so epochs ≈ optimizer
        // steps; give the model a real budget.
        train: TrainConfig { epochs: 150, evals: 10, seed, ..Default::default() },
        num_samples: 350,
        split_seed: seed ^ 0xAB,
    }
}

#[test]
fn pipeline_learns_structure_and_solves() {
    let graf = Graf::build(app(), quick_cfg(11));

    // The analyzer learned the chain purely from traces.
    assert_eq!(graf.analyzer.edges(), &[(0, 1), (1, 2)]);
    let l = graf.analyzer.service_workloads(&[100.0]);
    assert_eq!(l, vec![100.0, 100.0, 100.0]);

    // Algorithm-1 bounds are ordered and the box is a real reduction.
    for i in 0..3 {
        assert!(graf.bounds.lower[i] <= graf.bounds.upper[i]);
    }
    assert!(graf.bounds.volume_reduction(50.0, 3000.0) < 0.2);

    // The model learned the two first-order relationships. Quota direction
    // is probed at the top of the trained workload range where the latency
    // contrast across the Algorithm-1 box is strongest.
    let l_heavy = graf.analyzer.service_workloads(&[190.0]);
    let p_lo = graf.model.predict_ms(&l_heavy, &graf.bounds.lower);
    let p_hi = graf.model.predict_ms(&l_heavy, &graf.bounds.upper);
    assert!(p_lo > p_hi, "starved {p_lo} must predict slower than abundant {p_hi}");
    // Workload direction at mid-quota.
    let mid: Vec<f64> =
        graf.bounds.lower.iter().zip(&graf.bounds.upper).map(|(&a, &b)| 0.5 * (a + b)).collect();
    let light = graf.model.predict_ms(&graf.analyzer.service_workloads(&[40.0]), &mid);
    let heavy = graf.model.predict_ms(&l_heavy, &mid);
    assert!(heavy > light, "more workload predicts slower: {light} vs {heavy}");

    // Solving responds to workload and stays in bounds.
    let mut ctrl = graf.controller(40.0);
    let low = ctrl.plan_outcome(&[40.0], None);
    let high = ctrl.plan_outcome(&[120.0], None);
    assert!(high.quotas_mc.iter().sum::<f64>() >= low.quotas_mc.iter().sum::<f64>());
    assert!(high.solve.iterations > 0);
    for (q, lo) in high.quotas_mc.iter().zip(&graf.bounds.lower) {
        assert!(*q >= lo - 1e-6);
    }
}

#[test]
fn controller_drives_a_live_cluster_to_meet_slo() {
    let graf = Graf::build(app(), quick_cfg(13));
    let slo_ms = 40.0;
    let mut ctrl = graf.controller(slo_ms);

    let world = World::new(app(), SimConfig::default(), 99);
    let deployments = (0..3).map(|s| Deployment::new(ServiceId(s as u16), 100.0, 4)).collect();
    let mut cluster = Cluster::new(world, deployments, CreationModel::instant());

    // 120 qps steady; tick the controller every 15 s like the paper.
    let mut rng = graf::sim::rng::DetRng::new(5);
    let mut t_us = 0.0f64;
    let end = SimTime::from_secs(180.0);
    let mut all_arrivals = Vec::new();
    loop {
        t_us += rng.exp(1e6 / 120.0);
        if t_us >= end.as_micros() as f64 {
            break;
        }
        all_arrivals.push(SimTime(t_us as u64));
    }
    let mut next_tick = SimTime::from_secs(15.0);
    let mut ai = 0;
    while cluster.world().now() < end {
        let to = next_tick.min(end);
        while ai < all_arrivals.len() && all_arrivals[ai] < to {
            cluster.world_mut().inject(ApiId(0), all_arrivals[ai]);
            ai += 1;
        }
        cluster.world_mut().run_until(to);
        use graf::orchestrator::Autoscaler;
        ctrl.tick(&mut cluster);
        next_tick = SimTime(next_tick.0 + 15_000_000);
    }

    // Over the last minute the measured p99 tracks the SLO with the usual
    // model-error band.
    let p99 = cluster.world().e2e_percentile(60, 0.99).expect("traffic flowed").as_millis_f64();
    assert!(p99 <= slo_ms * 1.6, "GRAF keeps p99 ({p99:.1} ms) in the SLO band ({slo_ms} ms)");
    // And it did not trivially max out capacity to get there.
    let quota = cluster.total_ready_quota_mc();
    let upper: f64 = graf.bounds.upper.iter().sum();
    assert!(quota < upper * 1.2, "quota {quota} stays below the bounds' ceiling {upper}");
}

#[test]
fn builds_are_deterministic() {
    let a = Graf::build(app(), quick_cfg(7));
    let b = Graf::build(app(), quick_cfg(7));
    assert_eq!(a.bounds, b.bounds);
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.quotas_mc, y.quotas_mc);
        assert_eq!(x.p99_ms, y.p99_ms);
    }
    let mut ca = a.controller(40.0);
    let mut cb = b.controller(40.0);
    let qa = ca.plan_outcome(&[100.0], None).quotas_mc;
    let qb = cb.plan_outcome(&[100.0], None).quotas_mc;
    assert_eq!(qa, qb, "identical builds plan identically");
}
