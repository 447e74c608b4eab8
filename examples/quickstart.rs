//! Quickstart: train GRAF on a small microservice app and solve for the
//! cheapest CPU configuration that meets a latency SLO.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use graf::core::{Graf, GrafBuildConfig, SamplingConfig, TrainConfig};
use graf::sim::topology::{ApiSpec, AppTopology, CallNode, ServiceSpec};

#[expect(
    clippy::disallowed_methods,
    reason = "times the build for the reader; no output depends on it"
)]
fn main() {
    // A three-service chain: gateway → auth → database-ish backend.
    // Work is in milliseconds-of-a-full-core per request.
    let topo = AppTopology::new(
        "quickstart",
        vec![
            ServiceSpec::new("gateway", 1.0, 400),
            ServiceSpec::new("auth", 2.0, 300),
            ServiceSpec::new("backend", 4.0, 500),
        ],
        vec![ApiSpec::new(
            "request",
            CallNode::new(0).call(CallNode::new(1).call(CallNode::new(2))),
        )],
    );

    println!("== GRAF quickstart: {} ==", topo.name);
    print!("{}", topo.to_dot());

    // Offline phase: profile, bound the search space (Algorithm 1), collect
    // samples from the simulated cluster, train the GNN latency predictor.
    let cfg = GrafBuildConfig {
        sampling: SamplingConfig {
            probe_qps: vec![60.0],
            slo_ms: 60.0,
            measure_secs: 5.0,
            warmup_secs: 2.5,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            ..Default::default()
        },
        train: TrainConfig { epochs: 40, ..Default::default() },
        num_samples: 400,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let graf = Graf::build(topo, cfg);
    println!(
        "trained on {} samples in {:.1}s (best val loss {:.4})",
        graf.samples.len(),
        t0.elapsed().as_secs_f64(),
        graf.report.best_val
    );
    println!(
        "Algorithm-1 bounds per service (mc): lower {:?}, upper {:?}",
        graf.bounds.lower.iter().map(|v| v.round()).collect::<Vec<_>>(),
        graf.bounds.upper.iter().map(|v| v.round()).collect::<Vec<_>>(),
    );

    // Online phase: what is the cheapest configuration for each workload at
    // a 60 ms p99 SLO?
    let mut controller = graf.controller(60.0);
    for qps in [30.0, 60.0, 90.0] {
        let plan = controller.plan_outcome(&[qps], None);
        println!(
            "{qps:>5.0} qps → quotas {:?} mc (total {:>6.0}), predicted p99 {:>5.1} ms, {} model evaluations",
            plan.quotas_mc.iter().map(|v| v.round()).collect::<Vec<_>>(),
            plan.quotas_mc.iter().sum::<f64>(),
            plan.solve.predicted_ms,
            plan.solve.iterations,
        );
    }
}
