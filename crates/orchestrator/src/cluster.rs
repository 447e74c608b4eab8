//! Deployments and the cluster control plane.

use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::ServiceId;
use graf_sim::world::World;

use crate::creation::CreationModel;

/// A Kubernetes-style deployment: one service, a fixed CPU unit per instance,
/// a desired replica count and bounds.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Managed service.
    pub service: ServiceId,
    /// CPU quota per instance in millicores (the paper's "CPU unit" of
    /// eq. 7: instances = ceil(quota / unit)).
    pub cpu_unit_mc: f64,
    /// Current desired replicas.
    pub desired: usize,
    /// Lower bound on replicas.
    pub min_replicas: usize,
    /// Upper bound on replicas.
    pub max_replicas: usize,
}

impl Deployment {
    /// Creates a deployment with bounds `[1, 1000]` and the given initial size.
    pub fn new(service: ServiceId, cpu_unit_mc: f64, initial: usize) -> Self {
        assert!(cpu_unit_mc > 0.0);
        Self { service, cpu_unit_mc, desired: initial, min_replicas: 1, max_replicas: 1000 }
    }

    /// Sets replica bounds.
    pub fn bounds(mut self, min: usize, max: usize) -> Self {
        assert!(min <= max);
        self.min_replicas = min;
        self.max_replicas = max;
        self
    }
}

/// The control plane: a simulated world plus its deployments and the
/// instance-creation latency model.
pub struct Cluster {
    world: World,
    deployments: Vec<Deployment>,
    creation: CreationModel,
    /// Ready times of in-flight creations (pruned lazily).
    inflight_creations: Vec<SimTime>,
    /// Fault engine for creation failures / slow-start, when chaos is armed.
    chaos: Option<graf_chaos::ChaosEngine>,
    obs: graf_obs::Obs,
}

impl Cluster {
    /// Creates a cluster and immediately starts the initial replicas (ready
    /// without startup delay — experiments begin from a warm deployment, as
    /// the paper's do).
    pub fn new(mut world: World, deployments: Vec<Deployment>, creation: CreationModel) -> Self {
        for d in &deployments {
            assert!(
                (d.service.0 as usize) < world.topology().num_services(),
                "deployment references unknown service"
            );
            world.add_instances(d.service, d.desired, d.cpu_unit_mc, world.now());
        }
        // Make the initial instances ready by processing their events "now".
        let now = world.now();
        world.run_until(now);
        Self {
            world,
            deployments,
            creation,
            inflight_creations: Vec::new(),
            chaos: None,
            obs: graf_obs::Obs::disabled(),
        }
    }

    /// A cluster with the default creation model and one deployment per
    /// service of `world`'s topology, each `replicas` instances of
    /// `cpu_unit_mc`. Takes the world so a caller can prepare it (inject
    /// contention, say) first.
    pub fn uniform(world: World, cpu_unit_mc: f64, replicas: usize) -> Self {
        let deployments = (0..world.topology().num_services())
            .map(|s| Deployment::new(ServiceId(s as u16), cpu_unit_mc, replicas))
            .collect();
        Self::new(world, deployments, CreationModel::default())
    }

    /// Arms a chaos schedule: world-level faults (trace-span drops,
    /// contention spikes) are installed into the simulated world and the
    /// cluster keeps an engine for the creation faults (batch failures,
    /// slow-start). Arming an empty schedule changes nothing — runs stay
    /// bit-identical to a cluster that never armed chaos.
    pub fn arm_chaos(&mut self, schedule: &graf_chaos::ChaosSchedule) {
        schedule.install_world(&mut self.world);
        self.chaos = Some(schedule.engine(graf_chaos::stream::CLUSTER));
    }

    /// Attaches a telemetry handle. The cluster records one
    /// `graf.cluster.create` point per creation batch: its service, size,
    /// start delay, the creations then pending, and whether a chaos fault
    /// failed or slowed it. A batch completes `delay_s` after the point's
    /// simulated time.
    pub fn set_obs(&mut self, obs: graf_obs::Obs) {
        self.obs = obs;
    }

    /// The simulated world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the simulated world.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The deployments, in construction order.
    pub fn deployments(&self) -> &[Deployment] {
        &self.deployments
    }

    /// The deployment managing `service`.
    pub fn deployment(&self, service: ServiceId) -> &Deployment {
        self.deployments.iter().find(|d| d.service == service).expect("service has a deployment")
    }

    /// Number of creations currently in flight cluster-wide.
    pub fn inflight_creations(&mut self) -> usize {
        let now = self.world.now();
        self.inflight_creations.retain(|&t| t > now);
        self.inflight_creations.len()
    }

    /// Sets the desired replica count of `service`, clamped to the
    /// deployment's bounds. Added instances become ready after the
    /// creation-latency curve; removals drain immediately.
    ///
    /// Returns the applied (clamped) desired count.
    pub fn set_desired(&mut self, service: ServiceId, replicas: usize) -> usize {
        let now = self.world.now();
        let d = self
            .deployments
            .iter_mut()
            .find(|d| d.service == service)
            .expect("service has a deployment");
        let target = replicas.clamp(d.min_replicas, d.max_replicas);
        let unit = d.cpu_unit_mc;
        d.desired = target;
        let (starting, ready, _draining) = self.world.instance_counts(service);
        let current = starting + ready;
        if target > current {
            let add = target - current;
            self.inflight_creations.retain(|&t| t > now);
            let mut point = self.obs.point("graf.cluster.create");
            point
                .sim_time_s(now.as_secs_f64())
                .attr("service", service.0 as u64)
                .attr("batch", add);
            // Chaos: an armed creation-failure fault loses the whole batch —
            // no instances start, and no rng is drawn unless a window is
            // active. `desired` stays at the target, so a retrying controller
            // re-attempts the batch on its next tick.
            if let Some(engine) = self.chaos.as_mut() {
                if engine.creation_fails(now) {
                    point.attr("failed", true).attr("pending", self.inflight_creations.len());
                    return target;
                }
            }
            let concurrent = self.inflight_creations.len() + add;
            let mut delay = self.creation.delay(concurrent);
            let mut slowed = false;
            if let Some(engine) = self.chaos.as_ref() {
                let factor = engine.slow_start_factor(now);
                if factor > 1.0 {
                    delay = SimDuration::from_micros((delay.as_micros() as f64 * factor) as u64);
                    slowed = true;
                }
            }
            let ready_at = now + delay;
            self.world.add_instances(service, add, unit, ready_at);
            for _ in 0..add {
                self.inflight_creations.push(ready_at);
            }
            point
                .attr("failed", false)
                .attr("slowed", slowed)
                .attr("delay_s", delay.as_secs_f64())
                .attr("pending", self.inflight_creations.len());
        } else if target < current {
            self.world.remove_instances(service, current - target);
        }
        target
    }

    /// Live (starting + ready + draining) instance count of `service`.
    pub fn live_instances(&self, service: ServiceId) -> usize {
        let (s, r, d) = self.world.instance_counts(service);
        s + r + d
    }

    /// Total live instances across all deployments.
    pub fn total_instances(&self) -> usize {
        self.deployments.iter().map(|d| self.live_instances(d.service)).sum()
    }

    /// Total ready CPU quota across all deployments, millicores.
    pub fn total_ready_quota_mc(&self) -> f64 {
        self.deployments.iter().map(|d| self.world.ready_quota_mc(d.service)).sum()
    }

    /// Mean CPU utilization of `service` over the trailing `dur`.
    pub fn utilization(&self, service: ServiceId, dur: SimDuration) -> Option<f64> {
        self.world.service_utilization(service, dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_obs::Value;
    use graf_sim::topology::{ApiSpec, AppTopology, CallNode, ChildMode, ServiceSpec};
    use graf_sim::world::SimConfig;

    fn topo() -> AppTopology {
        AppTopology::new(
            "t",
            vec![ServiceSpec::new("a", 1.0, 100).cv(0.0), ServiceSpec::new("b", 2.0, 100).cv(0.0)],
            vec![ApiSpec::new(
                "get",
                CallNode::new(0).children_mode(ChildMode::Sequential, vec![CallNode::new(1)]),
            )],
        )
    }

    fn cluster() -> Cluster {
        let world = World::new(topo(), SimConfig::default(), 11);
        Cluster::new(
            world,
            vec![Deployment::new(ServiceId(0), 500.0, 2), Deployment::new(ServiceId(1), 500.0, 1)],
            CreationModel::default(),
        )
    }

    #[test]
    fn initial_replicas_are_ready_immediately() {
        let c = cluster();
        let (_, ready_a, _) = c.world().instance_counts(ServiceId(0));
        let (_, ready_b, _) = c.world().instance_counts(ServiceId(1));
        assert_eq!((ready_a, ready_b), (2, 1));
        assert_eq!(c.total_instances(), 3);
        assert!((c.total_ready_quota_mc() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_deploys_every_service_alike() {
        let c = Cluster::uniform(World::new(topo(), SimConfig::default(), 11), 250.0, 3);
        let desired: Vec<_> =
            c.deployments().iter().map(|d| (d.service, d.cpu_unit_mc, d.desired)).collect();
        assert_eq!(desired, [(ServiceId(0), 250.0, 3), (ServiceId(1), 250.0, 3)]);
        assert_eq!(c.total_instances(), 6);
    }

    #[test]
    fn scale_up_takes_creation_time() {
        let mut c = cluster();
        c.set_desired(ServiceId(0), 3);
        let (starting, ready, _) = c.world().instance_counts(ServiceId(0));
        assert_eq!((starting, ready), (1, 2));
        // Single creation: ready after 5.5 s.
        c.world_mut().run_until(SimTime::from_secs(5.0));
        assert_eq!(c.world().instance_counts(ServiceId(0)).1, 2, "not ready yet");
        c.world_mut().run_until(SimTime::from_secs(6.0));
        assert_eq!(c.world().instance_counts(ServiceId(0)).1, 3, "ready after 5.5s");
    }

    #[test]
    fn batch_creation_is_slower() {
        let mut c = cluster();
        c.set_desired(ServiceId(0), 10); // batch of 8 new
        c.world_mut().run_until(SimTime::from_secs(10.0));
        assert_eq!(c.world().instance_counts(ServiceId(0)).1, 2, "8-batch takes 23.6s");
        c.world_mut().run_until(SimTime::from_secs(24.0));
        assert_eq!(c.world().instance_counts(ServiceId(0)).1, 10);
    }

    #[test]
    fn scale_down_is_immediate() {
        let mut c = cluster();
        c.set_desired(ServiceId(0), 1);
        let (starting, ready, draining) = c.world().instance_counts(ServiceId(0));
        assert_eq!(starting, 0);
        assert_eq!(ready + draining, 1, "idle instances removed instantly");
    }

    #[test]
    fn bounds_are_enforced() {
        let world = World::new(topo(), SimConfig::default(), 1);
        let mut c = Cluster::new(
            world,
            vec![
                Deployment::new(ServiceId(0), 500.0, 2).bounds(2, 4),
                Deployment::new(ServiceId(1), 500.0, 1),
            ],
            CreationModel::instant(),
        );
        assert_eq!(c.set_desired(ServiceId(0), 0), 2);
        assert_eq!(c.set_desired(ServiceId(0), 100), 4);
    }

    #[test]
    fn inflight_creations_prune() {
        let mut c = cluster();
        c.set_desired(ServiceId(0), 3);
        assert_eq!(c.inflight_creations(), 1);
        c.world_mut().run_until(SimTime::from_secs(10.0));
        assert_eq!(c.inflight_creations(), 0);
    }

    #[test]
    fn telemetry_tracks_creation_lifecycle() {
        let obs = graf_obs::Obs::enabled();
        let mut c = cluster();
        c.set_obs(obs.clone());
        c.set_desired(ServiceId(0), 5); // 3 new instances in one batch
        c.set_desired(ServiceId(0), 5); // already met: no batch
        c.world_mut().run_until(SimTime::from_secs(30.0));
        assert_eq!(c.inflight_creations(), 0);
        let events = obs.events();
        assert_eq!(events.len(), 1, "one point per batch: {events:?}");
        let point = &events[0];
        assert_eq!((point.name, &point.kind), ("graf.cluster.create", &graf_obs::EventKind::Point));
        assert_eq!(point.sim_s, Some(0.0));
        let attr = |key: &str| point.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
        assert_eq!(attr("service"), Some(Value::U64(0)));
        assert_eq!(attr("batch"), Some(Value::U64(3)));
        assert_eq!(attr("pending"), Some(Value::U64(3)));
        assert_eq!(attr("failed"), Some(Value::Bool(false)));
        assert_eq!(attr("slowed"), Some(Value::Bool(false)));
        let delay = CreationModel::default().delay(3).as_secs_f64();
        assert_eq!(attr("delay_s"), Some(Value::F64(delay)));
    }
}
