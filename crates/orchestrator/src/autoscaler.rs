//! Autoscaler baselines.
//!
//! * [`KubernetesHpa`] — the threshold-based horizontal pod autoscaler GRAF is
//!   compared against throughout the paper: per-service
//!   `desired = ceil(replicas × utilization / threshold)` every 15 s, with the
//!   default 10 % tolerance band and the 5-minute scale-down stabilization
//!   window ("K8s autoscaler records the scale recommendations of the past
//!   5 minutes and chooses the highest one", §5.3).
//! * [`FirmLike`] — the paper's FIRM-like baseline (§5.3): scale a service up
//!   when its p95/p50 latency ratio exceeds a threshold.
//! * [`ProactiveOnce`] — §2.1's "Opportunity": at a configured time, jump all
//!   services to a preset replica vector at once.
//! * [`StaticScaler`] — does nothing (fixed provisioning).

use std::collections::VecDeque;

use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::ServiceId;

use crate::cluster::Cluster;

/// The control interval of the HPA, the FIRM-like scaler and GRAF's
/// controller (paper/production default: 15 s).
pub const CONTROL_INTERVAL: SimDuration = SimDuration(15_000_000);
// The HPA and FIRM-like scalers read utilization over one control interval;
// the world's CPU account answers queries only that far back.
const _: () = assert!(CONTROL_INTERVAL.0 <= graf_sim::world::CPU_HORIZON.0);
/// HPA tolerance band: no action when `|util/threshold − 1| <` this (k8s
/// default 0.1).
const HPA_TOLERANCE: f64 = 0.1;
/// HPA scale-down stabilization window (k8s default 5 minutes).
const HPA_STABILIZATION: SimDuration = SimDuration(300_000_000);
/// FIRM-like: scale up when p95/p50 exceeds this (paper: "a pre-determined
/// threshold").
const FIRM_RATIO_THRESHOLD: f64 = 4.0;
/// FIRM-like: scale down one step when latency is calm and utilization is
/// below this.
const FIRM_SCALE_DOWN_UTIL: f64 = 0.25;

/// A controller invoked at a fixed interval by the experiment driver.
pub trait Autoscaler {
    /// How often [`Autoscaler::tick`] runs.
    fn interval(&self) -> SimDuration;

    /// Observes the cluster and applies scaling decisions.
    fn tick(&mut self, cluster: &mut Cluster);
}

/// Configuration of the Kubernetes HPA baseline.
#[derive(Clone, Debug)]
pub struct HpaConfig {
    /// Target CPU utilization in `(0, 1]` — the knob the paper hand-tunes.
    pub threshold: f64,
}

impl Default for HpaConfig {
    fn default() -> Self {
        Self { threshold: 0.5 }
    }
}

impl HpaConfig {
    /// Config with the given utilization threshold.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(threshold > 0.0 && threshold <= 1.0);
        Self { threshold }
    }
}

/// The Kubernetes horizontal pod autoscaler baseline.
pub struct KubernetesHpa {
    cfg: HpaConfig,
    /// Per-service recent recommendations: `(time, desired)`.
    recommendations: Vec<VecDeque<(SimTime, usize)>>,
}

impl KubernetesHpa {
    /// Creates an HPA for a cluster with `num_services` services.
    pub fn new(cfg: HpaConfig, num_services: usize) -> Self {
        Self { cfg, recommendations: vec![VecDeque::new(); num_services] }
    }
}

impl Autoscaler for KubernetesHpa {
    fn interval(&self) -> SimDuration {
        CONTROL_INTERVAL
    }

    fn tick(&mut self, cluster: &mut Cluster) {
        let now = cluster.world().now();
        let services: Vec<ServiceId> = cluster.deployments().iter().map(|d| d.service).collect();
        for service in services {
            let (starting, ready, _) = cluster.world().instance_counts(service);
            let live = starting + ready;
            if ready == 0 {
                continue; // no utilization signal yet
            }
            let Some(util) = cluster.utilization(service, CONTROL_INTERVAL) else {
                continue;
            };
            let ratio = util / self.cfg.threshold;
            // Raw recommendation from the current observation. Utilization is
            // measured against *ready* quota; starting pods will add capacity
            // soon, so recommend relative to ready and treat live as current.
            let mut desired = if (ratio - 1.0).abs() <= HPA_TOLERANCE {
                live
            } else {
                (ready as f64 * ratio).ceil() as usize
            };
            desired = desired.max(1);

            // Scale-down stabilization: use the max recommendation over the
            // trailing window.
            let recs = &mut self.recommendations[service.0 as usize];
            recs.push_back((now, desired));
            let horizon =
                now.since(SimTime::ZERO).as_micros().saturating_sub(HPA_STABILIZATION.as_micros());
            while let Some(&(t, _)) = recs.front() {
                if t.as_micros() < horizon {
                    recs.pop_front();
                } else {
                    break;
                }
            }
            let stabilized = recs.iter().map(|&(_, d)| d).max().unwrap_or(desired);
            let target =
                if stabilized > desired { stabilized.max(live.min(stabilized)) } else { desired };
            if target != live {
                cluster.set_desired(service, target);
            }
        }
    }
}

/// The FIRM-like baseline: per-service latency-anomaly triggered scaling.
///
/// The paper's comparison implements FIRM's detection as "increase the CPU
/// quota of a microservice when a ratio between median and 95 %-tile latency
/// for the microservice exceeds a pre-determined threshold". Under sustained
/// overload the median inflates along with the tail (queueing delays every
/// request), which would blind a pure ratio trigger, so — like FIRM's
/// SLO-driven critical-component detection — a per-service latency ceiling
/// also triggers scale-up. Scaling is one instance per violating service per
/// tick, reproducing the incremental ramps of Figure 21.
pub struct FirmLike {
    /// Scale up when per-service p95 exceeds this.
    pub latency_ceiling: SimDuration,
}

impl Default for FirmLike {
    fn default() -> Self {
        Self { latency_ceiling: SimDuration::from_millis(500.0) }
    }
}

impl Autoscaler for FirmLike {
    fn interval(&self) -> SimDuration {
        CONTROL_INTERVAL
    }

    fn tick(&mut self, cluster: &mut Cluster) {
        let k = (CONTROL_INTERVAL.as_micros() / cluster.world().config().window_us).max(1) as usize;
        let services: Vec<ServiceId> = cluster.deployments().iter().map(|d| d.service).collect();
        for service in services {
            let (starting, ready, _) = cluster.world().instance_counts(service);
            let live = starting + ready;
            let p50 = cluster.world().service_percentile(service, k, 0.50);
            let p95 = cluster.world().service_percentile(service, k, 0.95);
            let (Some(p50), Some(p95)) = (p50, p95) else { continue };
            let ratio = p95.as_micros().max(1) as f64 / p50.as_micros().max(1) as f64;
            let violating = ratio > FIRM_RATIO_THRESHOLD || p95 > self.latency_ceiling;
            if violating {
                // SLO-violation suspect: grow this microservice's CPU quota.
                cluster.set_desired(service, live + 1);
            } else if ratio < FIRM_RATIO_THRESHOLD * 0.5 && p95 < self.latency_ceiling {
                if let Some(util) = cluster.utilization(service, CONTROL_INTERVAL) {
                    if util < FIRM_SCALE_DOWN_UTIL && live > 1 {
                        cluster.set_desired(service, live - 1);
                    }
                }
            }
        }
    }
}

/// Applies a fixed replica vector once at a configured time — the manual
/// proactive scaling of §2.1 ("we manually create the heuristically
/// determined number of instances for each microservice").
pub struct ProactiveOnce {
    /// When to apply the target.
    pub at: SimTime,
    /// `(service, replicas)` to apply.
    pub targets: Vec<(ServiceId, usize)>,
    applied: bool,
}

impl ProactiveOnce {
    /// Creates the one-shot scaler.
    pub fn new(at: SimTime, targets: Vec<(ServiceId, usize)>) -> Self {
        Self { at, targets, applied: false }
    }
}

impl Autoscaler for ProactiveOnce {
    fn interval(&self) -> SimDuration {
        SimDuration::from_secs(1.0)
    }

    fn tick(&mut self, cluster: &mut Cluster) {
        if self.applied || cluster.world().now() < self.at {
            return;
        }
        // Create instances for *all* services in the chain at once — the key
        // to avoiding the cascading effect.
        for &(service, replicas) in &self.targets {
            cluster.set_desired(service, replicas);
        }
        self.applied = true;
    }
}

/// No-op scaler (fixed provisioning).
pub struct StaticScaler;

impl Autoscaler for StaticScaler {
    fn interval(&self) -> SimDuration {
        SimDuration::from_secs(3600.0)
    }

    fn tick(&mut self, _cluster: &mut Cluster) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Deployment;
    use crate::creation::CreationModel;
    use graf_sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceSpec};
    use graf_sim::world::{SimConfig, World};

    fn one_service_cluster(creation: CreationModel) -> Cluster {
        let topo = AppTopology::new(
            "one",
            vec![ServiceSpec::new("s", 5.0, 100).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let world = World::new(topo, SimConfig::default(), 21);
        Cluster::new(world, vec![Deployment::new(ServiceId(0), 500.0, 1)], creation)
    }

    /// Drives constant load and the scaler for `secs` seconds.
    fn drive(cluster: &mut Cluster, scaler: &mut dyn Autoscaler, qps: f64, secs: f64) {
        let mut next_tick = cluster.world().now() + scaler.interval();
        let gap = (1e6 / qps) as u64;
        let start = cluster.world().now();
        let end = SimTime(start.0 + (secs * 1e6) as u64);
        let mut t = start;
        let mut i = 0u64;
        while t < end {
            let seg_end = SimTime((t.0 + 100_000).min(end.0));
            while start.0 + i * gap < seg_end.0 {
                cluster.world_mut().inject(ApiId(0), SimTime(start.0 + i * gap));
                i += 1;
            }
            cluster.world_mut().run_until(seg_end);
            if seg_end >= next_tick {
                scaler.tick(cluster);
                next_tick += scaler.interval();
            }
            t = seg_end;
        }
    }

    #[test]
    fn hpa_scales_up_under_load() {
        let mut c = one_service_cluster(CreationModel::instant());
        let mut hpa = KubernetesHpa::new(HpaConfig::with_threshold(0.5), 1);
        // 150 qps × 5 core·ms = 750 mc offered; at threshold 0.5 HPA needs
        // ≈ 1500 mc → 3 instances of 500 mc.
        drive(&mut c, &mut hpa, 150.0, 120.0);
        let live = c.live_instances(ServiceId(0));
        assert!((3..=5).contains(&live), "HPA converged to {live} instances");
    }

    #[test]
    fn hpa_respects_tolerance_band() {
        let mut c = one_service_cluster(CreationModel::instant());
        let mut hpa = KubernetesHpa::new(HpaConfig::with_threshold(0.5), 1);
        // 50 qps × 5 = 250 mc over 500 mc → utilization 0.5 — exactly on
        // target: never scales.
        drive(&mut c, &mut hpa, 50.0, 60.0);
        assert_eq!(c.live_instances(ServiceId(0)), 1);
    }

    #[test]
    fn hpa_scale_down_waits_for_stabilization() {
        let mut c = one_service_cluster(CreationModel::instant());
        let mut hpa = KubernetesHpa::new(HpaConfig::with_threshold(0.5), 1);
        drive(&mut c, &mut hpa, 150.0, 90.0);
        let peak = c.live_instances(ServiceId(0));
        assert!(peak >= 3);
        // Load drops to near zero; within the 5-minute window the HPA must
        // not scale below the recent max recommendation.
        drive(&mut c, &mut hpa, 1.0, 120.0);
        let during_window = c.live_instances(ServiceId(0));
        assert!(during_window >= peak.min(3), "no fast scale-down: {during_window} vs peak {peak}");
        // After the stabilization window passes, it may shrink.
        drive(&mut c, &mut hpa, 1.0, 400.0);
        let after = c.live_instances(ServiceId(0));
        assert!(after < peak, "eventually scales down: {after} < {peak}");
    }

    #[test]
    fn firm_like_reacts_to_latency_ratio() {
        let mut c = one_service_cluster(CreationModel::instant());
        let mut firm = FirmLike::default();
        // Overload: 190 qps × 5 = 950 mc over 500 mc. Queueing inflates the
        // p95/p50 ratio → FIRM adds instances.
        drive(&mut c, &mut firm, 190.0, 120.0);
        assert!(c.live_instances(ServiceId(0)) > 1, "FIRM-like scaled up");
    }

    #[test]
    fn proactive_applies_once_at_time() {
        let mut c = one_service_cluster(CreationModel::instant());
        let mut p = ProactiveOnce::new(SimTime::from_secs(30.0), vec![(ServiceId(0), 7)]);
        drive(&mut c, &mut p, 10.0, 29.0);
        assert_eq!(c.live_instances(ServiceId(0)), 1);
        drive(&mut c, &mut p, 10.0, 10.0);
        assert_eq!(c.live_instances(ServiceId(0)), 7);
    }

    #[test]
    fn hpa_never_scales_below_one_replica() {
        let mut c = one_service_cluster(CreationModel::instant());
        let mut hpa = KubernetesHpa::new(HpaConfig::with_threshold(0.9), 1);
        // Near-zero load for long enough that the stabilization window expires.
        drive(&mut c, &mut hpa, 0.5, 700.0);
        assert_eq!(c.live_instances(ServiceId(0)), 1, "floor at one replica");
    }

    #[test]
    fn firm_like_scales_down_when_calm() {
        let mut c = one_service_cluster(CreationModel::instant());
        c.set_desired(ServiceId(0), 5);
        let mut firm = FirmLike::default();
        // Light load: ratio calm and utilization low → shrink toward 1.
        drive(&mut c, &mut firm, 10.0, 300.0);
        assert!(
            c.live_instances(ServiceId(0)) < 5,
            "FIRM-like releases idle capacity: {}",
            c.live_instances(ServiceId(0))
        );
    }

    #[test]
    fn static_scaler_never_moves() {
        let mut c = one_service_cluster(CreationModel::instant());
        let mut s = StaticScaler;
        drive(&mut c, &mut s, 400.0, 30.0);
        assert_eq!(c.live_instances(ServiceId(0)), 1);
    }
}
