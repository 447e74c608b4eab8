//! Standard experiment setups shared by the experiments.
//!
//! The paper trains one latency prediction model per application and reuses
//! it for every result (§5, *Sample Collection and Training*). These helpers
//! pin the per-application probe workloads, SLOs and CPU units, and
//! [`ModelCache`] builds each distinct pipeline once per process, so every
//! experiment evaluates against the same artifacts.

use std::collections::BTreeMap;

use graf_apps::{online_boutique, social_network};
use graf_chaos::{ChaosSchedule, FaultKind};
use graf_core::baseline::SteadyTrial;
use graf_core::{Graf, GrafBuildConfig, SamplingConfig, TrainConfig};
use graf_loadgen::ClosedLoop;
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, AppTopology, ServiceId};

use crate::args::Args;

/// A standard per-application evaluation setup.
#[derive(Clone, Debug)]
pub struct AppSetup {
    /// Application.
    pub topo: AppTopology,
    /// Probe workload per API, req/s (total ≈ the paper's operating point).
    pub probe_qps: Vec<f64>,
    /// End-to-end p99 SLO, ms.
    pub slo_ms: f64,
    /// Instance CPU unit, millicores.
    pub cpu_unit_mc: f64,
}

impl AppSetup {
    /// The steady-state trial the HPA threshold is tuned on and GRAF is
    /// compared in: the probe workload on the setup's CPU unit, with
    /// generous initial replicas so a cold-start backlog does not pollute
    /// warm-up.
    pub fn steady_trial(&self) -> SteadyTrial {
        let mut trial =
            SteadyTrial::new(self.topo.clone(), self.probe_qps.clone()).initial_replicas(6);
        trial.cpu_unit_mc = self.cpu_unit_mc;
        trial
    }

    /// Everything a model build or an HPA tuning reads from the setup: the
    /// key of both caches.
    pub fn key(&self) -> String {
        format!(
            "{} slo={} probe={:?} unit={}",
            self.topo.name, self.slo_ms, self.probe_qps, self.cpu_unit_mc
        )
    }
}

/// Online Boutique under the three-API Locust-style mix.
pub fn boutique_setup() -> AppSetup {
    AppSetup {
        topo: online_boutique(),
        probe_qps: vec![180.0, 180.0, 240.0],
        slo_ms: 80.0,
        cpu_unit_mc: 100.0,
    }
}

/// Social Network under Vegeta post-compose load.
pub fn social_setup() -> AppSetup {
    AppSetup { topo: social_network(), probe_qps: vec![600.0], slo_ms: 80.0, cpu_unit_mc: 100.0 }
}

/// The standard sampling configuration for a setup, scaled by `args`.
pub fn sampling_config(setup: &AppSetup, args: &Args) -> SamplingConfig {
    SamplingConfig {
        slo_ms: setup.slo_ms,
        probe_qps: setup.probe_qps.clone(),
        workload_range: (0.25, 1.6),
        cpu_unit_mc: setup.cpu_unit_mc,
        measure_secs: if args.quick { 4.0 } else { 10.0 },
        warmup_secs: if args.quick { 2.0 } else { 5.0 },
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        seed: args.seed,
        ..SamplingConfig::default()
    }
}

/// The standard build configuration (samples + training scale) for a setup.
pub fn build_config(setup: &AppSetup, args: &Args) -> GrafBuildConfig {
    let num_samples = args.samples.unwrap_or_else(|| args.scaled(150, 1200, 8000));
    let threads = args.threads.unwrap_or(1);
    let train = if args.paper_scale {
        TrainConfig { seed: args.seed, threads, ..TrainConfig::paper() }
    } else {
        TrainConfig {
            epochs: args.scaled(15, 60, 450),
            seed: args.seed,
            threads,
            ..TrainConfig::default()
        }
    };
    GrafBuildConfig {
        sampling: sampling_config(setup, args),
        train,
        num_samples,
        split_seed: args.seed ^ 0x5EED,
    }
}

/// Trained pipelines, each distinct one built once, keyed by
/// [`AppSetup::key`]; scale and seed come from the process's one `Args`, so
/// they are not part of it.
#[derive(Default)]
pub struct ModelCache {
    built: BTreeMap<String, Graf>,
}

impl ModelCache {
    /// The pipeline for `setup`, built from `cfg()` on first request; the
    /// build reports through `obs` scoped by `build = <its cache key>`.
    pub fn get(
        &mut self,
        setup: &AppSetup,
        obs: &graf_obs::Obs,
        cfg: impl FnOnce() -> GrafBuildConfig,
    ) -> &Graf {
        let key = setup.key();
        let obs = obs.scoped("build", key.as_str());
        let build = || Graf::build_observed(setup.topo.clone(), cfg(), &obs);
        self.built.entry(key).or_insert_with(build)
    }

    /// How many pipelines were built (every miss builds exactly one).
    pub fn misses(&self) -> usize {
        self.built.len()
    }
}

/// The service with the highest per-request CPU work: where the chaos
/// scenarios point `latency_spike`.
pub fn hottest_service(topo: &AppTopology) -> ServiceId {
    let services = topo.services.iter().enumerate();
    let hottest = services.max_by(|a, b| a.1.work_ms.total_cmp(&b.1.work_ms));
    ServiceId(hottest.expect("topology has services").0 as u16)
}

/// Every fault of `kinds` active over `[from_s, until_s)`: the window the
/// chaos scenarios put around their surge.
pub fn fault_window(kinds: Vec<FaultKind>, seed: u64, from_s: f64, until_s: f64) -> ChaosSchedule {
    let (from, until) = (SimTime::from_secs(from_s), SimTime::from_secs(until_s));
    kinds.into_iter().fold(ChaosSchedule::new(seed), |sched, kind| sched.fault(kind, from, until))
}

/// `users` closed-loop Locust users on Online Boutique's three-API mix.
pub fn boutique_users(users: usize, seed: u64) -> ClosedLoop {
    ClosedLoop::with_mix(vec![(ApiId(0), 3.0), (ApiId(1), 3.0), (ApiId(2), 4.0)], users, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_are_consistent() {
        for setup in [boutique_setup(), social_setup()] {
            assert_eq!(
                setup.probe_qps.len(),
                setup.topo.num_apis(),
                "{}: one probe rate per API",
                setup.topo.name
            );
        }
    }

    #[test]
    fn build_config_scales_with_args() {
        let setup = boutique_setup();
        let quick = build_config(&setup, &Args { quick: true, ..Default::default() });
        let normal = build_config(&setup, &Args::default());
        let paper = build_config(&setup, &Args { paper_scale: true, ..Default::default() });
        assert!(quick.num_samples < normal.num_samples);
        assert!(normal.num_samples < paper.num_samples);
        assert!(quick.train.epochs < paper.train.epochs);
        let explicit = build_config(&setup, &Args { samples: Some(42), ..Default::default() });
        assert_eq!(explicit.num_samples, 42);
    }

    #[test]
    fn the_hpa_trial_and_the_cache_key_follow_the_cpu_unit() {
        let setup = AppSetup { cpu_unit_mc: 500.0, ..boutique_setup() };
        assert_eq!(setup.steady_trial().cpu_unit_mc, 500.0);
        assert_ne!(setup.key(), boutique_setup().key());
    }
}
