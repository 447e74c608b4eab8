//! Steady-state evaluation runs and baseline tuning.
//!
//! The paper compares GRAF against a *fine-tuned* Kubernetes autoscaler:
//! "we hand-tuned the resource utilization threshold of K8s autoscaler to
//! meet latency SLO. One global resource utilization threshold is empirically
//! found according to the latency SLO" (§5.3). [`tune_hpa_threshold`]
//! automates that hand-tuning: it tries thresholds from loose to tight and
//! keeps the loosest one whose steady-state p99 meets the SLO.
//!
//! [`run_steady`] is the shared trial runner: warm up under load with the
//! given autoscaler, then measure p99 and average resource usage — the
//! quantities behind Figures 14/15/16/18.

use graf_loadgen::OpenLoop;
use graf_metrics::Summary;
use graf_orchestrator::{
    run_experiment, Autoscaler, Cluster, ExperimentHooks, HpaConfig, KubernetesHpa,
};
use graf_sim::time::SimDuration;
use graf_sim::topology::{ApiId, AppTopology, ServiceId};
use graf_sim::world::{Completion, SimConfig, World};

/// Outcome of one steady-state trial.
#[derive(Clone, Debug)]
pub struct SteadyOutcome {
    /// p99 end-to-end latency over the measurement phase, ms.
    pub p99_ms: Option<f64>,
    /// p95 end-to-end latency over the measurement phase, ms.
    pub p95_ms: Option<f64>,
    /// Time-averaged total live instances during measurement.
    pub mean_instances: f64,
    /// Time-averaged total ready quota, millicores.
    pub mean_quota_mc: f64,
    /// Time-averaged ready quota per service, millicores.
    pub per_service_quota_mc: Vec<f64>,
    /// Time-averaged live instances per service.
    pub per_service_instances: Vec<f64>,
    /// Requests completed during measurement.
    pub completed: usize,
    /// Requests that hit the client timeout during measurement.
    pub timeouts: usize,
}

/// A steady-state trial definition.
#[derive(Clone, Debug)]
pub struct SteadyTrial {
    /// Application under test.
    pub topo: AppTopology,
    /// Instance CPU unit per service (uniform), millicores.
    pub cpu_unit_mc: f64,
    /// Initial replicas per service.
    pub initial_replicas: usize,
    /// Offered open-loop rate per API, req/s.
    pub rates: Vec<f64>,
    /// Warm-up phase (autoscaler converges), then measurement phase.
    pub warmup: SimDuration,
    /// Measurement phase length.
    pub measure: SimDuration,
    /// Simulation seed.
    pub seed: u64,
}

impl SteadyTrial {
    /// A trial with sensible defaults for the given app and rates.
    pub fn new(topo: AppTopology, rates: Vec<f64>) -> Self {
        assert_eq!(rates.len(), topo.num_apis());
        Self {
            topo,
            cpu_unit_mc: 100.0,
            initial_replicas: 4,
            rates,
            // Warm-up must exceed the HPA's 5-minute scale-down stabilization
            // window so the measured phase reflects converged behaviour.
            warmup: SimDuration::from_secs(420.0),
            measure: SimDuration::from_secs(180.0),
            seed: 77,
        }
    }

    /// Sets the initial replica count per service (start near the expected
    /// operating point to avoid a cold-start backlog distorting warm-up).
    pub fn initial_replicas(mut self, n: usize) -> Self {
        self.initial_replicas = n;
        self
    }

    /// Builds the cluster for this trial.
    pub fn cluster(&self) -> Cluster {
        let world = World::new(self.topo.clone(), SimConfig::default(), self.seed);
        Cluster::uniform(world, self.cpu_unit_mc, self.initial_replicas)
    }

    /// Builds the open-loop generator for this trial.
    pub fn loadgen(&self) -> OpenLoop {
        let mut g = OpenLoop::new(self.seed ^ 0x10AD).poisson();
        for (api, &rate) in self.rates.iter().enumerate() {
            g = g.rate(ApiId(api as u16), rate);
        }
        g
    }
}

/// Runs a steady-state trial under the given autoscaler.
pub fn run_steady(trial: &SteadyTrial, scaler: &mut dyn Autoscaler) -> SteadyOutcome {
    let mut cluster = trial.cluster();
    let mut loadgen = trial.loadgen();
    let warmup_end = cluster.world().now() + trial.warmup;
    let end = warmup_end + trial.measure;
    let n = trial.topo.num_services();

    let mut lat = Summary::new();
    let mut completed = 0usize;
    let mut timeouts = 0usize;
    let mut inst_samples = 0usize;
    let mut inst_sum = 0.0f64;
    let mut quota_sum = 0.0f64;
    let mut per_quota = vec![0.0f64; n];
    let mut per_inst = vec![0.0f64; n];

    let mut on_segment = |cluster: &mut Cluster, comps: &[Completion]| {
        let now = cluster.world().now();
        if now <= warmup_end {
            return;
        }
        for c in comps {
            lat.record(c.latency_us() as f64 / 1000.0);
            completed += 1;
            if c.timed_out {
                timeouts += 1;
            }
        }
        inst_samples += 1;
        inst_sum += cluster.total_instances() as f64;
        quota_sum += cluster.total_ready_quota_mc();
        for s in 0..n {
            per_quota[s] += cluster.world().ready_quota_mc(ServiceId(s as u16));
            per_inst[s] += cluster.live_instances(ServiceId(s as u16)) as f64;
        }
    };
    let mut hooks = ExperimentHooks { on_segment: Some(&mut on_segment), on_control: None };
    run_experiment(&mut cluster, &mut loadgen, scaler, end, &mut hooks);

    let div = inst_samples.max(1) as f64;
    SteadyOutcome {
        p99_ms: lat.percentile(0.99),
        p95_ms: lat.percentile(0.95),
        mean_instances: inst_sum / div,
        mean_quota_mc: quota_sum / div,
        per_service_quota_mc: per_quota.iter().map(|v| v / div).collect(),
        per_service_instances: per_inst.iter().map(|v| v / div).collect(),
        completed,
        timeouts,
    }
}

/// Creates an HPA with the given threshold (convenience for evaluations).
pub fn hpa_with_threshold(threshold: f64, num_services: usize) -> KubernetesHpa {
    KubernetesHpa::new(HpaConfig::with_threshold(threshold), num_services)
}

/// Hand-tunes the HPA utilization threshold for a latency SLO (§5.3):
/// candidates are tried loosest-first and the loosest threshold whose
/// steady-state p99 meets `slo_ms` wins; if none qualifies the tightest is
/// returned. Returns `(threshold, outcome)`.
///
/// A fixed global threshold must hold up across runs, not just on the run it
/// was picked on — an operator hand-tuning against live p99 noise cannot
/// overfit to one trajectory. The tuner therefore validates every candidate
/// on **two** independent seeds and only accepts thresholds that meet the
/// SLO on both; the returned outcome is from the trial's own seed.
pub fn tune_hpa_threshold(
    trial: &SteadyTrial,
    slo_ms: f64,
    candidates: &[f64],
) -> (f64, SteadyOutcome) {
    assert!(!candidates.is_empty());
    let mut sorted: Vec<f64> = candidates.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite thresholds"));
    let mut validation = trial.clone();
    validation.seed = trial.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut last = None;
    for &threshold in &sorted {
        let mut hpa =
            KubernetesHpa::new(HpaConfig::with_threshold(threshold), trial.topo.num_services());
        let outcome = run_steady(trial, &mut hpa);
        let ok = outcome.p99_ms.is_some_and(|p| p <= slo_ms);
        let ok = ok && {
            let mut hpa2 =
                KubernetesHpa::new(HpaConfig::with_threshold(threshold), trial.topo.num_services());
            let v = run_steady(&validation, &mut hpa2);
            v.p99_ms.is_some_and(|p| p <= slo_ms)
        };
        let record = (threshold, outcome);
        if ok {
            return record;
        }
        last = Some(record);
    }
    last.expect("at least one candidate evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_orchestrator::StaticScaler;
    use graf_sim::topology::{ApiSpec, CallNode, ServiceSpec};

    fn topo() -> AppTopology {
        AppTopology::new(
            "t",
            vec![ServiceSpec::new("a", 1.0, 200), ServiceSpec::new("b", 3.0, 200)],
            vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
        )
    }

    fn quick_trial(rates: Vec<f64>) -> SteadyTrial {
        let mut t = SteadyTrial::new(topo(), rates).initial_replicas(2);
        t.cpu_unit_mc = 250.0;
        t.warmup = SimDuration::from_secs(60.0);
        t.measure = SimDuration::from_secs(30.0);
        t
    }

    #[test]
    fn static_provisioning_measures_latency_and_resources() {
        let trial = quick_trial(vec![30.0]);
        let out = run_steady(&trial, &mut StaticScaler);
        assert!(out.completed > 500, "completed {}", out.completed);
        assert!(out.p99_ms.unwrap() > 4.0);
        assert!((out.mean_instances - 4.0).abs() < 1e-9, "2 services × 2 replicas");
        assert_eq!(out.per_service_quota_mc.len(), 2);
    }

    #[test]
    fn hpa_outcome_tracks_threshold() {
        let trial = quick_trial(vec![120.0]);
        // Offered: a=120 mc, b=360 mc. Tight threshold → more instances.
        let mut loose = KubernetesHpa::new(HpaConfig::with_threshold(0.9), 2);
        let mut tight = KubernetesHpa::new(HpaConfig::with_threshold(0.2), 2);
        let out_loose = run_steady(&trial, &mut loose);
        let out_tight = run_steady(&trial, &mut tight);
        assert!(
            out_tight.mean_instances > out_loose.mean_instances,
            "tight {} vs loose {}",
            out_tight.mean_instances,
            out_loose.mean_instances
        );
        assert!(
            out_tight.p99_ms.unwrap() <= out_loose.p99_ms.unwrap() * 1.1,
            "tight threshold cannot be much slower"
        );
    }

    #[test]
    fn tuning_picks_loosest_threshold_meeting_slo() {
        let trial = quick_trial(vec![120.0]);
        let candidates = [0.9, 0.7, 0.5, 0.3];
        let (threshold, outcome) = tune_hpa_threshold(&trial, 40.0, &candidates);
        assert!(candidates.contains(&threshold));
        // The chosen configuration was actually evaluated.
        assert!(outcome.completed > 0);
        if let Some(p99) = outcome.p99_ms {
            // Either it met the SLO or the tightest candidate was returned.
            assert!(p99 <= 40.0 || (threshold - 0.3).abs() < 1e-9);
        }
    }
}
