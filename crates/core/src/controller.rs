//! The resource controller and GRAF's proactive control loop (§3.6, §3.8).
//!
//! Every control interval the controller:
//!
//! 1. reads the **front-end** workload per API — the only live signal GRAF
//!    needs, available the instant traffic changes (§3.8),
//! 2. scales the workload into the trained region (§3.6: "scale observed
//!    workload moderately to fit into the latency prediction model"),
//! 3. distributes it over microservices with the workload analyzer (§3.3),
//! 4. runs the configuration solver through the trained model (§3.5),
//! 5. scales the solved quotas back up and converts them to instance counts
//!    (`ceil(quota / unit)`, eq. 7), and
//! 6. applies the decision to **every** microservice at once — which is what
//!    defeats the cascading effect when traffic surges.

use graf_orchestrator::{Autoscaler, Cluster, CONTROL_INTERVAL};
use graf_sim::time::SimDuration;
use graf_sim::topology::{ApiId, ServiceId};

use graf_obs::Obs;

use crate::analyzer::WorkloadAnalyzer;
use crate::latency_model::LatencyModel;
use crate::sample_collector::Bounds;
use crate::solver::{solve_observed, SolveResult, SolverConfig};

/// Trailing window over which front-end rates are observed.
const RATE_WINDOW: SimDuration = SimDuration(5_000_000);

/// Control-loop configuration.
#[derive(Clone, Debug)]
pub struct GrafControllerConfig {
    /// End-to-end p99 SLO, ms.
    pub slo_ms: f64,
    /// Reference total front-end qps of the trained region; higher observed
    /// totals are scaled down by `s = total/reference` before solving and the
    /// resulting quotas multiplied back by `s` (§3.6).
    pub train_total_qps: f64,
    /// Solver settings.
    pub solver: SolverConfig,
    /// §6 extension: refine `ceil(quota/unit)` into leaner integer instance
    /// counts by greedy model-checked removal. Applies when the observed
    /// workload is inside the trained region (no §3.6 rescaling active).
    pub integer_refine: bool,
}

impl Default for GrafControllerConfig {
    fn default() -> Self {
        Self {
            slo_ms: 100.0,
            train_total_qps: 100.0,
            solver: SolverConfig::default(),
            integer_refine: false,
        }
    }
}

/// Everything one §3.6 planning pass produces.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// Applied per-service quotas (after §3.6 rescaling), millicores.
    pub quotas_mc: Vec<f64>,
    /// Instance counts, when a CPU unit was supplied (eq. 7, possibly
    /// tightened by the §6 integer refinement).
    pub counts: Option<Vec<usize>>,
    /// Per-service workloads the solver saw (scaled space).
    pub workloads: Vec<f64>,
    /// §3.6 scale factor `s = total/train_total_qps` (≥ 1).
    pub scale: f64,
    /// The solver's result at the scaled workload.
    pub solve: SolveResult,
    /// Instances reclaimed by the integer refinement versus plain `ceil`.
    pub refine_saved: usize,
}

/// GRAF's end-to-end autoscaler.
pub struct GrafController {
    model: LatencyModel,
    analyzer: WorkloadAnalyzer,
    bounds: Bounds,
    /// Control configuration (mutable so experiments can toggle options like
    /// `integer_refine` after construction).
    pub cfg: GrafControllerConfig,
    /// Most recent applied per-service quotas (after workload rescaling), mc.
    pub last_quotas_mc: Vec<f64>,
    /// Telemetry handle; disabled by default.
    pub obs: Obs,
}

impl GrafController {
    /// Creates the controller from trained artifacts.
    pub fn new(
        model: LatencyModel,
        analyzer: WorkloadAnalyzer,
        bounds: Bounds,
        cfg: GrafControllerConfig,
    ) -> Self {
        assert_eq!(model.num_services(), analyzer.num_services());
        assert!(cfg.train_total_qps > 0.0);
        Self { model, analyzer, bounds, cfg, last_quotas_mc: Vec::new(), obs: Obs::disabled() }
    }

    /// Attaches a telemetry handle: ticks, solves and planning decisions are
    /// recorded through it. Telemetry never alters any decision.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The controller configuration.
    pub fn config(&self) -> &GrafControllerConfig {
        &self.cfg
    }

    /// The workload analyzer the controller plans with.
    pub fn analyzer(&self) -> &WorkloadAnalyzer {
        &self.analyzer
    }

    /// Mutable access to the workload analyzer — the degradation layer
    /// refreshes multiplicities from live traces through this.
    pub fn analyzer_mut(&mut self) -> &mut WorkloadAnalyzer {
        &mut self.analyzer
    }

    /// Reads the front-end per-API rates the controller would plan from:
    /// the trailing 5 s of each API's arrival counter (§3.8).
    pub fn observed_rates(&self, cluster: &Cluster) -> Vec<f64> {
        let k = (RATE_WINDOW.as_micros() / cluster.world().config().window_us).max(1) as usize;
        let napis = cluster.world().topology().num_apis();
        (0..napis).map(|a| cluster.world().api_arrival_rate(ApiId(a as u16), k)).collect()
    }

    /// One full §3.6 planning pass for the given per-API rates, without
    /// touching a cluster; it also sets `last_quotas_mc`.
    ///
    /// With `cpu_unit_mc = Some(unit)` the outcome also carries instance
    /// counts: eq. 7's `ceil(quota/unit)`, tightened by the §6 integer
    /// refinement when enabled and the workload is inside the trained region.
    pub fn plan_outcome(&mut self, api_rates: &[f64], cpu_unit_mc: Option<f64>) -> PlanOutcome {
        let total: f64 = api_rates.iter().sum();
        let s = (total / self.cfg.train_total_qps).max(1.0);
        let scaled: Vec<f64> = api_rates.iter().map(|r| r / s).collect();
        let workloads = self.analyzer.service_workloads(&scaled);
        let res = solve_observed(
            &mut self.model,
            &workloads,
            self.cfg.slo_ms,
            &self.bounds,
            &self.cfg.solver,
            &self.obs,
        );
        let quotas: Vec<f64> = res.quotas_mc.iter().map(|q| q * s).collect();

        let mut refine_saved = 0usize;
        let mut refined = false;
        let counts = cpu_unit_mc.map(|unit| {
            let ceil_counts: Vec<usize> =
                quotas.iter().map(|q| (q / unit).ceil().max(1.0) as usize).collect();
            if self.cfg.integer_refine && s <= 1.0 {
                let (counts, _) = crate::solver::integer_refine(
                    &self.model,
                    &workloads,
                    &res.quotas_mc,
                    &self.bounds,
                    unit,
                    self.cfg.slo_ms,
                );
                let ceil_total: usize = ceil_counts.iter().sum();
                let refined_total: usize = counts.iter().sum();
                refine_saved = ceil_total.saturating_sub(refined_total);
                refined = true;
                counts
            } else {
                ceil_counts
            }
        });

        self.last_quotas_mc = match (&counts, cpu_unit_mc) {
            (Some(c), Some(unit)) if refined => c.iter().map(|&k| k as f64 * unit).collect(),
            _ => quotas.clone(),
        };
        PlanOutcome { quotas_mc: quotas, counts, workloads, scale: s, solve: res, refine_saved }
    }
}

impl GrafController {
    /// One control tick planned from externally supplied per-API `rates`
    /// instead of a live metric read — the entry point the degradation layer
    /// uses to feed (possibly repaired) signals through the full §3.6 path.
    /// Returns the instance counts applied to the cluster.
    pub fn tick_with_rates(&mut self, cluster: &mut Cluster, rates: &[f64]) -> Vec<usize> {
        // Eq. 7's CPU unit: one per cluster, which is also what the §6
        // integer refinement is defined over.
        let deployments = cluster.deployments();
        let unit = deployments.first().expect("the cluster deploys the application").cpu_unit_mc;
        assert!(
            deployments.iter().all(|d| d.cpu_unit_mc == unit),
            "every deployment of a GRAF-managed cluster must share one CPU unit"
        );
        let mut span = self.obs.span("graf.controller.tick");
        let out = self.plan_outcome(rates, Some(unit));
        let counts = out.counts.expect("a plan with a CPU unit has instance counts");
        if span.is_recording() {
            let deltas: Vec<f64> = counts
                .iter()
                .enumerate()
                .map(|(svc, &n)| {
                    let desired = cluster
                        .deployments()
                        .iter()
                        .find(|d| d.service.0 as usize == svc)
                        .map_or(0, |d| d.desired);
                    n.max(1) as f64 - desired as f64
                })
                .collect();
            let delta_total = deltas.iter().map(|d| d.abs() as i64).sum::<i64>();
            span.sim_time_s(cluster.world().now().as_secs_f64())
                .attr("total_qps", rates.iter().sum::<f64>())
                .attr("scale_s", out.scale)
                .attr("solver_iterations", out.solve.iterations)
                .attr("solver_stop", out.solve.stop.as_str())
                .attr("solver_wall_active", out.solve.wall_active)
                .attr("solver_loss", out.solve.loss)
                .attr("predicted_p99_ms", out.solve.predicted_ms)
                .attr("quota_total_mc", out.quotas_mc.iter().sum::<f64>())
                .attr("instances", counts.iter().sum::<usize>())
                .attr("instance_delta_total", delta_total)
                .attr("instance_deltas", deltas)
                .attr("refine_saved", out.refine_saved);
        }
        drop(span);
        // Proactive application: every microservice scaled in the same tick.
        for (svc, &n) in counts.iter().enumerate() {
            cluster.set_desired(ServiceId(svc as u16), n.max(1));
        }
        counts
    }
}

impl Autoscaler for GrafController {
    fn interval(&self) -> SimDuration {
        CONTROL_INTERVAL
    }

    fn tick(&mut self, cluster: &mut Cluster) {
        let rates = self.observed_rates(cluster);
        self.tick_with_rates(cluster, &rates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureScaler;
    use crate::latency_model::{NetKind, TrainConfig};
    use crate::sample_collector::Sample;
    use graf_orchestrator::{CreationModel, Deployment};
    use graf_sim::rng::DetRng;
    use graf_sim::time::SimTime;
    use graf_sim::topology::{ApiSpec, AppTopology, CallNode, ServiceSpec};
    use graf_sim::world::{SimConfig, World};

    fn topo2() -> AppTopology {
        AppTopology::new(
            "t2",
            vec![ServiceSpec::new("a", 1.0, 200).cv(0.0), ServiceSpec::new("b", 3.0, 200).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
        )
    }

    fn trained_controller(train_total_qps: f64, slo_ms: f64) -> GrafController {
        // Synthetic surface as in solver tests.
        let mut rng = DetRng::new(21);
        let works = [1.0, 3.0];
        let ranges = [(150.0, 1500.0), (400.0, 2800.0)];
        let mut samples = Vec::new();
        for _ in 0..600 {
            let w = rng.uniform(20.0, 100.0);
            let quotas: Vec<f64> = ranges.iter().map(|&(lo, hi)| rng.uniform(lo, hi)).collect();
            let mut p99 = 2.0;
            for i in 0..2 {
                let head = (quotas[i] - w * works[i]).max(15.0);
                p99 += 1200.0 * works[i] / head + works[i];
            }
            samples.push(Sample {
                api_rates: vec![w],
                workloads: vec![w, w],
                quotas_mc: quotas,
                p99_ms: p99,
            });
        }
        let scaler = FeatureScaler::fit(
            samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
        );
        let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
        let split = ds.split(0.8, 0.1, 2);
        let mut model =
            LatencyModel::new(NetKind::Gnn, &[(0, 1)], 2, scaler, split.train.label_mean(), 5);
        model.train(&split, &TrainConfig { epochs: 80, evals: 8, ..Default::default() });
        let analyzer = WorkloadAnalyzer::from_multiplicities(vec![vec![1.0, 1.0]], vec![(0, 1)]);
        let bounds = Bounds { lower: vec![150.0, 400.0], upper: vec![1500.0, 2800.0] };
        GrafController::new(
            model,
            analyzer,
            bounds,
            GrafControllerConfig { slo_ms, train_total_qps, ..Default::default() },
        )
    }

    #[test]
    fn plan_responds_to_workload() {
        // SLO 18 ms is binding at this load (corner predicts ~25-30 ms).
        let mut c = trained_controller(100.0, 18.0);
        let q_low = c.plan_outcome(&[25.0], None).quotas_mc;
        let q_high = c.plan_outcome(&[95.0], None).quotas_mc;
        assert!(
            q_high.iter().sum::<f64>() > q_low.iter().sum::<f64>(),
            "more workload → more CPU: {q_low:?} vs {q_high:?}"
        );
    }

    #[test]
    fn workload_scaling_extends_beyond_training_region() {
        let mut c = trained_controller(100.0, 18.0);
        let q_ref = c.plan_outcome(&[100.0], None).quotas_mc;
        let q_double = c.plan_outcome(&[200.0], None).quotas_mc;
        let ratio = q_double.iter().sum::<f64>() / q_ref.iter().sum::<f64>();
        assert!(
            (1.7..=2.3).contains(&ratio),
            "2× workload beyond the trained region scales quotas ≈2×: {ratio}"
        );
    }

    #[test]
    fn integer_refine_plans_no_more_instances_than_ceil() {
        let mut plain = trained_controller(100.0, 18.0);
        let counts_ceil = plain.plan_outcome(&[60.0], Some(100.0)).counts.unwrap();
        let mut refined_ctrl = {
            let mut c = trained_controller(100.0, 18.0);
            c.cfg.integer_refine = true;
            c
        };
        let counts_ref = refined_ctrl.plan_outcome(&[60.0], Some(100.0)).counts.unwrap();
        assert_eq!(counts_ceil.len(), counts_ref.len());
        let sum = |v: &[usize]| v.iter().sum::<usize>();
        assert!(
            sum(&counts_ref) <= sum(&counts_ceil),
            "refinement only removes: {counts_ref:?} vs {counts_ceil:?}"
        );
        assert!(counts_ref.iter().all(|&c| c >= 1));
    }

    #[test]
    fn tick_scales_every_service_at_once() {
        let mut controller = trained_controller(100.0, 18.0);
        let world = World::new(topo2(), SimConfig::default(), 31);
        let mut cluster = Cluster::new(
            world,
            vec![Deployment::new(ServiceId(0), 250.0, 1), Deployment::new(ServiceId(1), 250.0, 1)],
            CreationModel::instant(),
        );
        // Offer 80 qps for 10 s so the rate window sees the workload.
        for i in 0..800u64 {
            cluster.world_mut().inject(ApiId(0), SimTime(i * 12_500));
        }
        cluster.world_mut().run_until(SimTime::from_secs(10.0));
        controller.tick(&mut cluster);
        let d0 = cluster.deployment(ServiceId(0)).desired;
        let d1 = cluster.deployment(ServiceId(1)).desired;
        assert!(d1 > 1, "the heavy service scaled in one tick: {d0}, {d1}");
        assert!(d1 > d0, "the heavier service gets more instances: {d0} vs {d1}");
    }
}
