//! §6 extension: actively countering contention anomalies.
//!
//! GRAF minimizes resources for the *modeled* latency surface, so an
//! unmodeled contention event (noisy neighbour, cache thrashing — simulated
//! via `World::inject_contention`) produces latency spikes the solver cannot
//! anticipate; the paper notes that "an algorithm that actively removes
//! contentions … should take place in order to fully utilize the capabilities
//! of GRAF while meeting SLO latency at all times."
//!
//! [`AnomalyGuard`] wraps any autoscaler (typically [`crate::GrafController`])
//! with a per-service anomaly detector: it tracks a calm-period EWMA of each
//! service's p99 and, when the current p99 exceeds it by a trigger ratio,
//! temporarily boosts that service's replicas — spreading load over more
//! instances dilutes the contended ones — until the spike clears.

use graf_orchestrator::{Autoscaler, Cluster};
use graf_sim::time::SimDuration;
use graf_sim::topology::ServiceId;

/// A service is anomalous when its p99 exceeds `EWMA × TRIGGER_RATIO`.
const TRIGGER_RATIO: f64 = 3.0;
/// Replica multiplier applied while a service is anomalous.
const BOOST: f64 = 1.6;
/// Control ticks the boost persists after the last trigger.
const HOLD_TICKS: u32 = 2;
/// Observation window for per-service p99.
const WINDOW: SimDuration = SimDuration(15_000_000);
/// EWMA smoothing factor for the calm baseline.
const EWMA_ALPHA: f64 = 0.15;

/// Wraps an autoscaler with contention-anomaly detection and mitigation.
pub struct AnomalyGuard<A: Autoscaler> {
    inner: A,
    baseline_p99_ms: Vec<Option<f64>>,
    hold: Vec<u32>,
    /// Total anomaly triggers observed (for experiments).
    pub triggers: u64,
}

impl<A: Autoscaler> AnomalyGuard<A> {
    /// Wraps `inner` for a cluster with `num_services` services.
    pub fn new(inner: A, num_services: usize) -> Self {
        Self {
            inner,
            baseline_p99_ms: vec![None; num_services],
            hold: vec![0; num_services],
            triggers: 0,
        }
    }

    /// The wrapped autoscaler.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Services currently under an anomaly boost.
    pub fn boosted(&self) -> Vec<usize> {
        self.hold.iter().enumerate().filter(|&(_, &h)| h > 0).map(|(i, _)| i).collect()
    }
}

impl<A: Autoscaler> Autoscaler for AnomalyGuard<A> {
    fn interval(&self) -> SimDuration {
        self.inner.interval()
    }

    fn tick(&mut self, cluster: &mut Cluster) {
        self.inner.tick(cluster);
        let k = (WINDOW.as_micros() / cluster.world().config().window_us).max(1) as usize;
        for svc in 0..self.baseline_p99_ms.len() {
            let service = ServiceId(svc as u16);
            let Some(p99) =
                cluster.world().service_percentile(service, k, 0.99).map(|d| d.as_millis_f64())
            else {
                continue;
            };
            match self.baseline_p99_ms[svc] {
                None => self.baseline_p99_ms[svc] = Some(p99),
                Some(base) => {
                    if p99 > base * TRIGGER_RATIO {
                        // Anomaly: do not poison the baseline; arm the boost.
                        if self.hold[svc] == 0 {
                            self.triggers += 1;
                        }
                        self.hold[svc] = HOLD_TICKS;
                    } else {
                        let a = EWMA_ALPHA;
                        self.baseline_p99_ms[svc] = Some(base * (1.0 - a) + p99 * a);
                        self.hold[svc] = self.hold[svc].saturating_sub(1);
                    }
                }
            }
            if self.hold[svc] > 0 {
                let desired = cluster.deployment(service).desired;
                let boosted = ((desired as f64) * BOOST).ceil() as usize;
                cluster.set_desired(service, boosted.max(desired + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_orchestrator::{CreationModel, Deployment, StaticScaler};
    use graf_sim::time::SimTime;
    use graf_sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceSpec};
    use graf_sim::world::{SimConfig, World};

    fn topo() -> AppTopology {
        AppTopology::new(
            "anom",
            vec![ServiceSpec::new("a", 0.5, 100).cv(0.3), ServiceSpec::new("b", 1.0, 100).cv(0.3)],
            vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
        )
    }

    /// Drives 100 qps for `secs`, ticking the scaler every 15 s.
    fn drive(cluster: &mut Cluster, scaler: &mut dyn Autoscaler, secs: f64) {
        let start = cluster.world().now();
        let end = SimTime(start.0 + (secs * 1e6) as u64);
        let mut rng = graf_sim::rng::DetRng::new(3);
        let mut t = start.as_micros() as f64;
        let mut arrivals = Vec::new();
        loop {
            t += rng.exp(10_000.0);
            if t >= end.as_micros() as f64 {
                break;
            }
            arrivals.push(SimTime(t as u64));
        }
        let mut ai = 0;
        let mut next = SimTime(start.0 + 15_000_000);
        while cluster.world().now() < end {
            let to = next.min(end);
            while ai < arrivals.len() && arrivals[ai] < to {
                cluster.world_mut().inject(ApiId(0), arrivals[ai]);
                ai += 1;
            }
            cluster.world_mut().run_until(to);
            scaler.tick(cluster);
            next = SimTime(next.0 + 15_000_000);
        }
    }

    fn cluster_with_contention() -> Cluster {
        let mut world = World::new(topo(), SimConfig::default(), 44);
        // Service b suffers 5x contention between 120 s and 240 s.
        world.inject_contention(
            ServiceId(1),
            5.0,
            SimTime::from_secs(120.0),
            SimTime::from_secs(240.0),
        );
        Cluster::new(
            world,
            vec![Deployment::new(ServiceId(0), 100.0, 2), Deployment::new(ServiceId(1), 100.0, 3)],
            CreationModel::instant(),
        )
    }

    #[test]
    fn guard_detects_and_boosts_the_contended_service() {
        let mut cluster = cluster_with_contention();
        let mut guard = AnomalyGuard::new(StaticScaler, 2);
        drive(&mut cluster, &mut guard, 100.0); // calm phase: learn baseline
        assert_eq!(guard.triggers, 0, "no false positives in the calm phase");
        let before = cluster.deployment(ServiceId(1)).desired;
        drive(&mut cluster, &mut guard, 80.0); // into the contention window
        assert!(guard.triggers >= 1, "contention detected");
        assert!(guard.boosted().contains(&1), "service b boosted");
        let during = cluster.deployment(ServiceId(1)).desired;
        assert!(during > before, "replicas raised: {before} → {during}");
        // After the anomaly clears, the boost is released.
        drive(&mut cluster, &mut guard, 200.0);
        assert!(guard.boosted().is_empty(), "boost released after recovery");
    }

    #[test]
    fn guard_mitigates_tail_latency_versus_unguarded() {
        // Unguarded.
        let mut c1 = cluster_with_contention();
        let mut plain = StaticScaler;
        drive(&mut c1, &mut plain, 230.0);
        let unguarded = c1.world().e2e_percentile(60, 0.99).unwrap().as_millis_f64();
        // Guarded.
        let mut c2 = cluster_with_contention();
        let mut guard = AnomalyGuard::new(StaticScaler, 2);
        drive(&mut c2, &mut guard, 230.0);
        let guarded = c2.world().e2e_percentile(60, 0.99).unwrap().as_millis_f64();
        assert!(
            guarded < unguarded,
            "guard reduces the contention spike: {guarded:.1} vs {unguarded:.1} ms"
        );
    }
}
