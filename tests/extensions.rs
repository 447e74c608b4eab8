//! Integration: the §6 integer-refinement extension working end-to-end on a
//! live simulated cluster, through the controller.

use graf::core::sample_collector::SamplingConfig;
use graf::core::{Graf, GrafBuildConfig, GrafControllerConfig, TrainConfig};
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
