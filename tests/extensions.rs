//! Integration: the §6 extensions working end-to-end on a live simulated
//! cluster — integer refinement through the controller, the anomaly guard
//! around GRAF, and the partitioned latency model on real collected samples.

use graf::core::sample_collector::SamplingConfig;
use graf::core::{
    AnomalyGuard, Graf, GrafBuildConfig, GrafControllerConfig, NetKind, PartitionedLatencyModel,
    TrainConfig,
};
use graf::orchestrator::{Autoscaler, Cluster, CreationModel, Deployment};
use graf::sim::time::SimTime;
use graf::sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceId, ServiceSpec};
use graf::sim::world::{SimConfig, World};

fn app() -> AppTopology {
    AppTopology::new(
        "ext-app",
        vec![
            ServiceSpec::new("edge", 0.4, 300),
            ServiceSpec::new("mid", 0.8, 250),
            ServiceSpec::new("leaf", 0.5, 250),
        ],
        vec![ApiSpec::new("req", CallNode::new(0).call(CallNode::new(1).call(CallNode::new(2))))],
    )
}

fn build(seed: u64) -> Graf {
    Graf::build(
        app(),
        GrafBuildConfig {
            sampling: SamplingConfig {
                probe_qps: vec![120.0],
                slo_ms: 40.0,
                cpu_unit_mc: 100.0,
                measure_secs: 4.0,
                warmup_secs: 2.0,
                threads: 8,
                seed,
                ..SamplingConfig::default()
            },
            train: TrainConfig { epochs: 150, evals: 10, seed, ..Default::default() },
            num_samples: 350,
            split_seed: seed ^ 0xE1,
            ..Default::default()
        },
    )
}

#[test]
fn integer_refinement_is_leaner_and_still_meets_slo_live() {
    let graf = build(23);
    let slo = 40.0;

    let run = |refine: bool| -> (usize, f64) {
        let mut ctrl = graf.controller_with(GrafControllerConfig {
            slo_ms: slo,
            train_total_qps: graf.train_total_qps(),
            integer_refine: refine,
            ..Default::default()
        });
        let world = World::new(app(), SimConfig::default(), 91);
        let deployments = (0..3).map(|s| Deployment::new(ServiceId(s as u16), 100.0, 4)).collect();
        let mut cluster = Cluster::new(world, deployments, CreationModel::instant());
        let mut rng = graf::sim::rng::DetRng::new(6);
        let mut t = 0.0f64;
        let end = SimTime::from_secs(150.0);
        let mut arrivals = Vec::new();
        loop {
            t += rng.exp(1e6 / 120.0);
            if t >= end.as_micros() as f64 {
                break;
            }
            arrivals.push(SimTime(t as u64));
        }
        let mut next = SimTime::from_secs(15.0);
        let mut ai = 0;
        while cluster.world().now() < end {
            let to = next.min(end);
            while ai < arrivals.len() && arrivals[ai] < to {
                cluster.world_mut().inject(ApiId(0), arrivals[ai]);
                ai += 1;
            }
            cluster.world_mut().run_until(to);
            ctrl.tick(&mut cluster);
            next = SimTime(next.0 + 15_000_000);
        }
        let p99 = cluster.world().e2e_percentile(60, 0.99).unwrap().as_millis_f64();
        (cluster.total_instances(), p99)
    };

    let (plain_inst, plain_p99) = run(false);
    let (refined_inst, refined_p99) = run(true);
    assert!(refined_inst <= plain_inst, "refined {refined_inst} <= ceil {plain_inst}");
    assert!(plain_p99 <= slo * 1.6, "ceil variant in band: {plain_p99}");
    assert!(refined_p99 <= slo * 1.7, "refined variant in band: {refined_p99}");
}

#[test]
fn anomaly_guard_wraps_graf_and_reacts_to_injected_contention() {
    let graf = build(29);
    let inner = graf.controller(40.0);
    let mut guard = AnomalyGuard::new(inner, 3);

    let mut world = World::new(app(), SimConfig::default(), 92);
    world.inject_contention(
        ServiceId(1),
        5.0,
        SimTime::from_secs(120.0),
        SimTime::from_secs(200.0),
    );
    let deployments = (0..3).map(|s| Deployment::new(ServiceId(s as u16), 100.0, 4)).collect();
    let mut cluster = Cluster::new(world, deployments, CreationModel::instant());
    let mut rng = graf::sim::rng::DetRng::new(8);
    let mut t = 0.0f64;
    let end = SimTime::from_secs(240.0);
    let mut arrivals = Vec::new();
    loop {
        t += rng.exp(1e6 / 120.0);
        if t >= end.as_micros() as f64 {
            break;
        }
        arrivals.push(SimTime(t as u64));
    }
    let mut next = SimTime::from_secs(15.0);
    let mut ai = 0;
    while cluster.world().now() < end {
        let to = next.min(end);
        while ai < arrivals.len() && arrivals[ai] < to {
            cluster.world_mut().inject(ApiId(0), arrivals[ai]);
            ai += 1;
        }
        cluster.world_mut().run_until(to);
        guard.tick(&mut cluster);
        next = SimTime(next.0 + 15_000_000);
    }
    assert!(guard.triggers >= 1, "contention on 'mid' detected");
}

#[test]
fn partitioned_model_tracks_the_full_model_on_real_samples() {
    let graf = build(31);
    let (part, reports) = PartitionedLatencyModel::build(
        NetKind::Gnn,
        graf.analyzer.edges(),
        3,
        2,
        graf.model.scaler,
        &graf.samples,
        &graf.build_cfg.train,
        graf.build_cfg.split_seed,
    );
    assert_eq!(part.num_parts(), 2);
    assert_eq!(reports.len(), 2);
    // Each sub-model is smaller than the full model.
    assert!(part.num_params() < 2 * graf.model.num_params());
    let mut full_mape = 0.0;
    for s in &graf.samples {
        let p = graf.model.predict_ms(&s.workloads, &s.quotas_mc);
        full_mape += ((p - s.p99_ms) / s.p99_ms.max(1e-9)).abs();
    }
    full_mape *= 100.0 / graf.samples.len() as f64;
    let part_mape = part.mape(&graf.samples);
    assert!(
        part_mape < full_mape * 3.0 + 10.0,
        "partitioned error stays in the same regime: {part_mape:.1}% vs {full_mape:.1}%"
    );
}
