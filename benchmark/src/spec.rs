//! The benchmark's contract: workload and metric names, units and
//! directions. `BENCHMARK.json` at the repository root lists exactly these,
//! in this order (a unit test holds the two together).

/// Workload names, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] =
    ["boutique_closed_loop", "gnn_train", "control_ticks", "sim_highrate"];

/// `(name, unit, better)`.
pub type MetricSpec = (&'static str, &'static str, &'static str);

/// End-to-end metrics: measured with tracing off, reported by every workload.
pub const END_TO_END: [MetricSpec; 5] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
];

/// Regression bound of each end-to-end metric, as a share of the parent's
/// median, in `END_TO_END` order.
pub const BOUNDS: [f64; 5] = [0.25, 0.25, 0.25, 0.2, 0.25];

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 28;

/// Per-layer metrics: reported by the traced run; 0 where a workload does not
/// touch the layer.
pub const PER_LAYER: [MetricSpec; 83] = [
    // sim
    ("sim.world.new_us", "us", "lower"),
    ("sim.world.short_run_ms", "ms", "lower"),
    ("sim.world.inject_ns_per_req", "ns", "lower"),
    ("sim.world.run_until_s", "s", "lower"),
    ("sim.world.events", "count", "lower"),
    ("sim.world.ns_per_event", "ns", "lower"),
    ("sim.world.events_per_req", "ratio", "lower"),
    ("sim.world.drain_completions_us_per_seg", "us", "lower"),
    ("sim.world.query_us", "us", "lower"),
    ("sim.world.timeouts", "count", "lower"),
    ("sim.world.backlog_end", "count", "lower"),
    ("sim.world.stats_drift", "count", "lower"),
    ("sim.world.req_per_s", "1/s", "higher"),
    ("sim.world.traced_req_per_s", "1/s", "higher"),
    // trace
    ("trace.store.spans", "count", "lower"),
    ("trace.store.dropped", "count", "lower"),
    ("trace.store.drain_finished_us_per_seg", "us", "lower"),
    ("trace.stats.observe_ns_per_trace", "ns", "lower"),
    ("trace.tracing_ns_per_req", "ns", "lower"),
    // metrics
    ("metrics.window.record_ns", "ns", "lower"),
    ("metrics.window.percentile_trailing_us", "us", "lower"),
    ("metrics.histogram.record_ns", "ns", "lower"),
    ("metrics.histogram.percentile_us", "us", "lower"),
    // loadgen
    ("loadgen.open.arrivals_ns_per_req", "ns", "lower"),
    ("loadgen.closed.arrivals_us_per_seg", "us", "lower"),
    ("loadgen.closed.on_completions_us_per_seg", "us", "lower"),
    ("loadgen.arrivals", "count", "higher"),
    // orchestrator
    ("orchestrator.run_experiment_s", "s", "lower"),
    ("orchestrator.run_experiment_hpa_s", "s", "lower"),
    ("orchestrator.run_experiment_self_s", "s", "lower"),
    ("orchestrator.hpa_tick_us", "us", "lower"),
    ("orchestrator.segments", "count", "lower"),
    ("orchestrator.instances_peak", "count", "lower"),
    ("orchestrator.slo_violation_frac", "ratio", "lower"),
    ("orchestrator.instance_saving_vs_hpa_pct", "%", "higher"),
    // core.sample_collector
    ("core.sample_collector.profile_s", "s", "lower"),
    ("core.sample_collector.bounds_s", "s", "lower"),
    ("core.sample_collector.collect_s", "s", "lower"),
    ("core.sample_collector.samples", "count", "higher"),
    ("core.sample_collector.samples_per_s", "1/s", "higher"),
    ("core.sample_collector.measure_ms", "ms", "lower"),
    ("core.sample_collector.missing", "count", "lower"),
    // core.analyzer
    ("core.analyzer.from_traces_ms", "ms", "lower"),
    ("core.analyzer.service_workloads_ns", "ns", "lower"),
    // core.latency_model
    ("core.latency_model.dataset_ms", "ms", "lower"),
    ("core.latency_model.train_s", "s", "lower"),
    ("core.latency_model.train_steps", "count", "lower"),
    ("core.latency_model.nonfinite_steps", "count", "lower"),
    ("core.latency_model.predict_us", "us", "lower"),
    ("core.latency_model.predict_grad_us", "us", "lower"),
    ("core.latency_model.eval_loss_ms", "ms", "lower"),
    ("core.latency_model.train_rows_per_s", "1/s", "higher"),
    ("core.latency_model.pred_mape_pct", "%", "lower"),
    // gnn
    ("gnn.train_step_ms", "ms", "lower"),
    ("gnn.predict_b256_ms", "ms", "lower"),
    ("gnn.eval_loss_ms", "ms", "lower"),
    ("gnn.predict_b1_us", "us", "lower"),
    ("gnn.grad_input_b1_us", "us", "lower"),
    // nn
    ("nn.matmul_stacked_us", "us", "lower"),
    ("nn.matmul_readout_us", "us", "lower"),
    ("nn.matmul_transa_acc_us", "us", "lower"),
    ("nn.affine_relu_us", "us", "lower"),
    ("nn.adam_update_us", "us", "lower"),
    ("nn.matmul_readout_gflops", "GFLOP/s", "higher"),
    // core.solver
    ("core.solver.solve_loose_ms", "ms", "lower"),
    ("core.solver.solve_binding_ms", "ms", "lower"),
    ("core.solver.solve_capped_ms", "ms", "lower"),
    ("core.solver.us_per_iteration", "us", "lower"),
    ("core.solver.iterations_per_solve", "count", "lower"),
    ("core.solver.capped_frac", "ratio", "lower"),
    ("core.solver.integer_refine_us", "us", "lower"),
    // core.controller
    ("core.controller.plan_outcome_ms", "ms", "lower"),
    ("core.controller.tick_p50_ms", "ms", "lower"),
    ("core.controller.tick_p99_ms", "ms", "lower"),
    ("core.controller.tick_in_loop_ms", "ms", "lower"),
    ("core.controller.ticks", "count", "lower"),
    ("core.controller.infeasible", "count", "lower"),
    ("core.controller.planned_quota_mc", "mc", "lower"),
    // apps
    ("apps.topology_build_us", "us", "lower"),
    // the benchmark itself
    ("benchmark.trace_overhead_pct", "%", "lower"),
    ("benchmark.attributed_pct", "%", "higher"),
    ("benchmark.failed_frac", "ratio", "lower"),
    ("benchmark.reps", "count", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn owned(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
        specs.iter().map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, BOUNDS);
        assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(RUN_SECONDS as f64));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let paths = doc.get("paths").and_then(Value::as_array).unwrap();
        assert_eq!(paths, [Value::from("benchmark")]);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).chain(WORKLOADS).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(better));
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }
}
