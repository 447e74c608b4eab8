//! Integration: GRAF's headline claim at test scale — equal-SLO steady state
//! with less CPU than a threshold autoscaler, on a small two-service app.

use graf::core::baseline::{run_steady, SteadyTrial};
use graf::core::sample_collector::SamplingConfig;
use graf::core::{Graf, GrafBuildConfig, TrainConfig};
use graf::orchestrator::{HpaConfig, KubernetesHpa};
use graf::sim::time::SimDuration;
use graf::sim::topology::{ApiSpec, AppTopology, CallNode, ServiceSpec};

fn app() -> AppTopology {
    AppTopology::new(
        "steady",
        vec![ServiceSpec::new("front", 0.4, 300), ServiceSpec::new("back", 1.0, 300)],
        vec![ApiSpec::new("req", CallNode::new(0).call(CallNode::new(1)))],
    )
}

#[test]
fn graf_meets_slo_with_competitive_quota() {
    let slo_ms = 35.0;
    let graf = Graf::build(
        app(),
        GrafBuildConfig {
            sampling: SamplingConfig {
                probe_qps: vec![150.0],
                slo_ms,
                cpu_unit_mc: 100.0,
                measure_secs: 4.0,
                warmup_secs: 2.0,
                threads: 8,
                seed: 31,
                ..SamplingConfig::default()
            },
            train: TrainConfig { epochs: 30, evals: 6, seed: 31, ..Default::default() },
            num_samples: 300,
            split_seed: 3,
        },
    );

    let mut trial = SteadyTrial::new(app(), vec![150.0]).initial_replicas(4);
    trial.warmup = SimDuration::from_secs(420.0);
    trial.measure = SimDuration::from_secs(120.0);

    let mut graf_ctrl = graf.controller(slo_ms);
    let graf_out = run_steady(&trial, &mut graf_ctrl);
    let graf_p99 = graf_out.p99_ms.expect("graf served traffic");
    assert!(
        graf_p99 <= slo_ms * 1.5,
        "GRAF p99 {graf_p99:.1} ms within the SLO band ({slo_ms} ms)"
    );
    assert_eq!(graf_out.timeouts, 0, "no timeouts in steady state");

    // An over-tight HPA trivially meets the SLO but burns CPU; GRAF must
    // undercut it while staying in the band.
    let mut tight = KubernetesHpa::new(HpaConfig::with_threshold(0.25), 2);
    let tight_out = run_steady(&trial, &mut tight);
    assert!(
        tight_out.p99_ms.expect("hpa served traffic") <= slo_ms * 1.5,
        "tight HPA meets the SLO too"
    );
    assert!(
        graf_out.mean_quota_mc < tight_out.mean_quota_mc,
        "GRAF ({:.0} mc) undercuts the over-tight HPA ({:.0} mc)",
        graf_out.mean_quota_mc,
        tight_out.mean_quota_mc
    );
}
