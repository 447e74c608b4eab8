//! End-to-end GRAF assembly: profile → bound → sample → train → control.
//!
//! [`Graf::build`] performs the full §3 pipeline against a simulated
//! application, producing the trained artifacts; [`Graf::controller`] then
//! yields an [`crate::GrafController`] ready to drive a live cluster.

use graf_sim::topology::AppTopology;

use crate::analyzer::WorkloadAnalyzer;
use crate::controller::{GrafController, GrafControllerConfig};
use crate::dataset::Dataset;
use crate::features::FeatureScaler;
use crate::latency_model::{LatencyModel, NetKind, TrainConfig, TrainReport};
use crate::sample_collector::{Bounds, Sample, SampleCollector, SamplingConfig};

/// Configuration for [`Graf::build`], which always trains the GNN
/// ([`NetKind::Gnn`]).
#[derive(Clone, Debug)]
pub struct GrafBuildConfig {
    /// Sampling and Algorithm-1 settings.
    pub sampling: SamplingConfig,
    /// Training settings.
    pub train: TrainConfig,
    /// Number of training samples to collect (paper: 42 k–50 k; CPU-scale
    /// default much smaller).
    pub num_samples: usize,
    /// Train/val split seed.
    pub split_seed: u64,
}

impl Default for GrafBuildConfig {
    fn default() -> Self {
        Self {
            sampling: SamplingConfig::default(),
            train: TrainConfig::default(),
            num_samples: 1500,
            split_seed: 42,
        }
    }
}

/// The trained GRAF artifacts for one application: Algorithm 1 runs once
/// per build, and whoever needs its box, its analyzer or a measurement
/// reads them here — the kept [`Graf::collector`] measures with the build's
/// sampling configuration, and [`Graf::retrain`] fits another model on the
/// build's samples and split.
#[derive(Clone)]
pub struct Graf {
    /// The application this instance was trained for.
    pub topo: AppTopology,
    /// Workload analyzer fitted on profiling traces.
    pub analyzer: WorkloadAnalyzer,
    /// Algorithm-1 quota bounds.
    pub bounds: Bounds,
    /// The trained latency prediction model.
    pub model: LatencyModel,
    /// Learning curves of the training run.
    pub report: TrainReport,
    /// Held-out test set (for Table-2 style analysis).
    pub test_set: Dataset,
    /// The raw collected samples.
    pub samples: Vec<Sample>,
    /// The collector that profiled, bounded and sampled the application,
    /// kept so experiments measure through the build's own configuration.
    pub collector: SampleCollector,
    /// Build configuration used.
    pub build_cfg: GrafBuildConfig,
}

impl Graf {
    /// Runs the full offline pipeline: profile the app, reduce the search
    /// space (Algorithm 1), collect samples in parallel, and train the
    /// latency prediction model with best-checkpoint selection.
    ///
    /// Quickstart — build GRAF for a two-service chain and plan instances:
    ///
    /// ```
    /// use graf_core::{Graf, GrafBuildConfig, SamplingConfig, TrainConfig};
    /// use graf_sim::topology::{ApiSpec, AppTopology, CallNode, ServiceSpec};
    ///
    /// let topo = AppTopology::new(
    ///     "demo",
    ///     vec![ServiceSpec::new("web", 1.0, 300), ServiceSpec::new("db", 3.0, 300)],
    ///     vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
    /// );
    /// let graf = Graf::build(
    ///     topo,
    ///     GrafBuildConfig {
    ///         sampling: SamplingConfig {
    ///             probe_qps: vec![40.0],
    ///             measure_secs: 2.0,
    ///             warmup_secs: 1.0,
    ///             ..SamplingConfig::default()
    ///         },
    ///         train: TrainConfig { epochs: 3, evals: 1, ..Default::default() },
    ///         num_samples: 24,
    ///         ..Default::default()
    ///     },
    /// );
    /// // The analyzer learned the call graph from traces; the controller
    /// // turns per-API rates into per-service instance counts.
    /// assert_eq!(graf.analyzer.edges(), &[(0, 1)]);
    /// let mut controller = graf.controller(100.0);
    /// let counts = controller.plan_outcome(&[40.0], Some(500.0)).counts.unwrap();
    /// assert!(counts.iter().all(|&c| c >= 1));
    /// ```
    pub fn build(topo: AppTopology, cfg: GrafBuildConfig) -> Self {
        Self::build_observed(topo, cfg, &graf_obs::Obs::disabled())
    }

    /// [`Graf::build`] with telemetry: the bound search, sample fan-out and
    /// training run report through `obs`. The produced artifacts are
    /// identical to the unobserved build.
    pub fn build_observed(topo: AppTopology, cfg: GrafBuildConfig, obs: &graf_obs::Obs) -> Self {
        let collector =
            SampleCollector::new(topo.clone(), cfg.sampling.clone()).with_obs(obs.clone());
        let analyzer = collector.profile();
        let bounds = collector.reduce_search_space();
        let samples = collector.collect(&bounds, &analyzer, cfg.num_samples);
        assert!(!samples.is_empty(), "sample collection produced nothing");
        let (model, report, test_set) =
            fit(&topo, &analyzer, &samples, NetKind::Gnn, cfg.split_seed, &cfg.train, obs);
        Self { topo, analyzer, bounds, model, report, test_set, samples, collector, build_cfg: cfg }
    }

    /// Retrains a model of the given kind on this build's samples with the
    /// same split, unobserved — the §5.1 "GRAF vs GRAF without MPNN"
    /// ablation (Fig 11) and the loss ablation's variants. Its test set is
    /// [`Graf::test_set`].
    pub fn retrain(&self, kind: NetKind, train: &TrainConfig) -> (LatencyModel, TrainReport) {
        let split_seed = self.build_cfg.split_seed;
        let disabled = graf_obs::Obs::disabled();
        let (model, report, _) =
            fit(&self.topo, &self.analyzer, &self.samples, kind, split_seed, train, &disabled);
        (model, report)
    }

    /// Reference total front-end qps for §3.6 workload scaling: the probe
    /// operating point, i.e. the *center* of the sampled workload range.
    /// Observed totals beyond it are scaled down to this well-modeled region
    /// and the solved quotas scaled back up, rather than solving at the edge
    /// of the training box where the quota bounds bind.
    pub fn train_total_qps(&self) -> f64 {
        self.build_cfg.sampling.probe_qps.iter().sum()
    }

    /// Creates a controller targeting `slo_ms` with the trained artifacts.
    pub fn controller(&self, slo_ms: f64) -> GrafController {
        let cfg = GrafControllerConfig {
            slo_ms,
            train_total_qps: self.train_total_qps(),
            ..Default::default()
        };
        self.controller_with(cfg)
    }

    /// Creates a controller with a custom configuration.
    pub fn controller_with(&self, cfg: GrafControllerConfig) -> GrafController {
        GrafController::new(self.model.clone(), self.analyzer.clone(), self.bounds.clone(), cfg)
    }
}

/// Fits a `kind` model on `samples`: the scaler, the `(0.7, 0.15,
/// split_seed)` split, the label scale and the model seed all derive from
/// the samples and `split_seed`, so every fit on a build's samples sees the
/// build's split. Returns the model, its learning curves and the split's
/// test set.
fn fit(
    topo: &AppTopology,
    analyzer: &WorkloadAnalyzer,
    samples: &[Sample],
    kind: NetKind,
    split_seed: u64,
    train: &TrainConfig,
    obs: &graf_obs::Obs,
) -> (LatencyModel, TrainReport, Dataset) {
    let scaler = FeatureScaler::fit(
        samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
    );
    let dataset = LatencyModel::dataset_from_samples(&scaler, samples);
    let split = dataset.split(0.7, 0.15, split_seed);
    let label_scale = split.train.label_mean().max(1e-9);
    // The GNN's graph comes from traces (§3.4); fall back to the static
    // topology if profiling somehow saw no edges.
    let mut edges: Vec<(u16, u16)> = analyzer.edges().to_vec();
    if edges.is_empty() {
        edges = topo.edges().iter().map(|&(p, c)| (p.0, c.0)).collect();
    }
    let mut model = LatencyModel::new(
        kind,
        &edges,
        topo.num_services(),
        scaler,
        label_scale,
        split_seed ^ 0x6E7,
    );
    let report = model.train_observed(&split, train, obs);
    (model, report, split.test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_collector::SamplingConfig;
    use graf_sim::topology::{ApiSpec, CallNode, ServiceSpec};

    fn tiny_build() -> Graf {
        let topo = AppTopology::new(
            "tiny",
            vec![ServiceSpec::new("a", 1.0, 300), ServiceSpec::new("b", 2.5, 300)],
            vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
        );
        let cfg = GrafBuildConfig {
            sampling: SamplingConfig {
                probe_qps: vec![40.0],
                measure_secs: 3.0,
                warmup_secs: 1.5,
                abundant_quota_mc: 2500.0,
                threads: 8,
                ..SamplingConfig::default()
            },
            train: TrainConfig { epochs: 20, evals: 5, ..Default::default() },
            num_samples: 120,
            ..Default::default()
        };
        Graf::build(topo, cfg)
    }

    #[test]
    fn build_produces_consistent_artifacts() {
        let graf = tiny_build();
        assert_eq!(graf.analyzer.edges(), &[(0, 1)]);
        assert_eq!(graf.samples.len(), 120);
        assert!(graf.bounds.lower[1] > graf.bounds.lower[0], "heavy service floors higher");
        assert!(!graf.test_set.is_empty());
        assert!(graf.report.best_val.is_finite());
        // Model responds to quota in a sane direction at a loaded point.
        let l = graf.analyzer.service_workloads(&[45.0]);
        let p_small = graf.model.predict_ms(&l, &graf.bounds.lower);
        let p_big = graf.model.predict_ms(&l, &graf.bounds.upper);
        assert!(p_small > p_big, "starved config predicts higher latency: {p_small} vs {p_big}");
        // A retrain of the build's own kind and recipe is the build's fit:
        // same scaler, split, label scale and seed.
        let (model, report) = graf.retrain(NetKind::Gnn, &graf.build_cfg.train);
        assert_eq!(report.val_loss, graf.report.val_loss);
        assert_eq!(model.predict_ms(&l, &graf.bounds.lower).to_bits(), p_small.to_bits());
    }

    #[test]
    fn controller_from_build_plans_quotas() {
        let graf = tiny_build();
        let mut ctrl = graf.controller(80.0);
        let plan = ctrl.plan_outcome(&[40.0], None);
        assert_eq!(plan.quotas_mc.len(), 2);
        assert!(plan.quotas_mc.iter().all(|&q| q > 0.0));
        assert!(plan.solve.iterations > 0);
    }
}
