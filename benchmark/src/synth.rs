//! Synthetic Social Network corpus: `(workload, quotas) → p99` samples from
//! an analytic convex latency surface, so the model-only workloads
//! (`gnn_train`, `control_ticks`) never construct a simulator.

use graf_core::{
    Bounds, FeatureScaler, LatencyModel, NetKind, Sample, Split, TrainConfig, WorkloadAnalyzer,
};
use graf_sim::topology::{ApiId, AppTopology, ServiceId};

use crate::stats::Rng;

/// Front-end rate range of the corpus, req/s. Its centre is the controller's
/// `train_total_qps`.
pub const RATE_RANGE: (f64, f64) = (50.0, 250.0);
pub const TRAIN_TOTAL_QPS: f64 = 150.0;
/// Top of every service's quota box, millicores.
const UPPER_MC: f64 = 2000.0;
/// Weight of the queueing term: p99 spans roughly 15–110 ms over the box.
const QUEUEING_MS_MC: f64 = 2400.0;

/// Everything derived from the topology that the model-only workloads need.
pub struct SocialModelInputs {
    pub edges: Vec<(u16, u16)>,
    pub num_services: usize,
    /// Per-service CPU demand, ms of a core per request.
    work_ms: Vec<f64>,
    /// Calls per front-end request, per service.
    mult: Vec<f64>,
    pub bounds: Bounds,
}

impl SocialModelInputs {
    pub fn new(topo: &AppTopology) -> Self {
        let n = topo.num_services();
        let work_ms: Vec<f64> = topo.services.iter().map(|s| s.work_ms).collect();
        let mult: Vec<f64> =
            (0..n).map(|s| topo.multiplicity(ApiId(0), ServiceId(s as u16))).collect();
        // Lower bound: a little above the quota the peak rate saturates.
        let lower = (0..n).map(|i| 100.0 + RATE_RANGE.1 * mult[i] * work_ms[i]).collect();
        Self {
            edges: topo.edges().iter().map(|&(p, c)| (p.0, c.0)).collect(),
            num_services: n,
            work_ms,
            mult,
            bounds: Bounds { lower, upper: vec![UPPER_MC; n] },
        }
    }

    /// The analytic surface: a base latency plus, per service, its own work
    /// and a queueing term that blows up as the quota's headroom over the
    /// offered load (`rate · work`) shrinks. Convex in every quota.
    pub fn p99_ms(&self, rate: f64, quotas_mc: &[f64]) -> f64 {
        let mut p99 = 4.0;
        for ((&quota, &mult), &work) in quotas_mc.iter().zip(&self.mult).zip(&self.work_ms) {
            let headroom = (quota - rate * mult * work).max(10.0);
            p99 += QUEUEING_MS_MC * work / headroom + work;
        }
        p99
    }

    pub fn workloads(&self, rate: f64) -> Vec<f64> {
        self.mult.iter().map(|m| rate * m).collect()
    }

    pub fn analyzer(&self) -> WorkloadAnalyzer {
        WorkloadAnalyzer::from_multiplicities(vec![self.mult.clone()], self.edges.clone())
    }

    /// `n` samples drawn uniformly over the rate range and the quota box.
    pub fn corpus(&self, n: usize, rng: &mut Rng) -> Vec<Sample> {
        (0..n)
            .map(|_| {
                let rate = rng.uniform(RATE_RANGE.0, RATE_RANGE.1);
                let quotas_mc: Vec<f64> = self
                    .bounds
                    .lower
                    .iter()
                    .zip(&self.bounds.upper)
                    .map(|(&l, &h)| rng.uniform(l, h))
                    .collect();
                let p99_ms = self.p99_ms(rate, &quotas_mc);
                Sample { api_rates: vec![rate], workloads: self.workloads(rate), quotas_mc, p99_ms }
            })
            .collect()
    }
}

/// A corpus turned into what `LatencyModel::train` takes.
pub struct TrainingSet {
    pub scaler: FeatureScaler,
    pub split: Split,
}

impl TrainingSet {
    pub fn new(samples: &[Sample], train_frac: f64, val_frac: f64, seed: u64) -> Self {
        let scaler = FeatureScaler::fit(
            samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
        );
        let dataset = LatencyModel::dataset_from_samples(&scaler, samples);
        let split = dataset.split(train_frac, val_frac, seed);
        Self { scaler, split }
    }

    pub fn untrained_model(&self, inputs: &SocialModelInputs, seed: u64) -> LatencyModel {
        LatencyModel::new(
            NetKind::Gnn,
            &inputs.edges,
            inputs.num_services,
            self.scaler,
            self.split.train.label_mean().max(1e-9),
            seed,
        )
    }
}

/// Single-threaded training configuration of the model-only workloads.
pub fn train_config(epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig { epochs, evals: epochs.min(10), seed, threads: 1, ..TrainConfig::default() }
}
