//! Zero-allocation steady state for the control plane, proven by the
//! counting allocator.
//!
//! * The **solver's descent loop** — the real `solve`, both its regimes:
//!   the Adam walk down the box and the walk along the SLO wall — must not
//!   touch the heap once the model's scratch is warm: a solve cut off after
//!   30 iterations and one that runs several hundred allocate exactly the
//!   same number of times, i.e. set-up and result only.
//! * One **pilot tick** — `GrafController::tick` over a live cluster — is
//!   allowed its small fixed set of per-tick buffers (rates, units, counts,
//!   solver setup), but that count must be bounded and stable: it must not
//!   grow tick over tick. The same holds for a `ResilientController` tick
//!   with a `graf-chaos` fault armed, and the fault engine's queries add no
//!   allocation of their own.

use graf_chaos::ChaosSchedule;
use graf_core::sample_collector::Bounds;
use graf_core::{
    solve, FeatureScaler, GrafController, GrafControllerConfig, LatencyModel, NetKind,
    ResilientConfig, ResilientController, SolverConfig, WorkloadAnalyzer,
};
use graf_nn::sanitize::{alloc_delta, CountingAlloc};
use graf_orchestrator::{Autoscaler, Cluster, CreationModel, Deployment};
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceId, ServiceSpec};
use graf_sim::world::{SimConfig, World};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn model3() -> LatencyModel {
    let scaler = FeatureScaler { workload_div: 100.0, quota_div: 1000.0 };
    LatencyModel::new(NetKind::Gnn, &[(0, 1), (1, 2)], 3, scaler, 1.0, 5)
}

#[test]
fn solver_allocates_for_setup_only_however_long_it_runs() {
    let mut model = model3();
    let workloads = [60.0, 60.0, 60.0];
    let bounds = Bounds { lower: vec![150.0; 3], upper: vec![2500.0; 3] };
    // An SLO the untrained model meets at the top of the box and misses at
    // the bottom, so the long solve walks the wall; a tenth of the default
    // step stretches the walk to several hundred iterations.
    let top = model.predict_ms(&workloads, &bounds.upper);
    let floor = model.predict_ms(&workloads, &bounds.lower);
    assert!(top != floor, "the untrained model is not constant over the box");
    let slo_ms = 0.5 * (top + floor);
    let long = SolverConfig { lr: 0.002, ..SolverConfig::default() };
    let short = SolverConfig { max_iters: 30, ..long.clone() };

    // Warm the model's scratch.
    solve(&mut model, &workloads, slo_ms, &bounds, &short);
    let (cut_off, short_allocs) =
        alloc_delta(|| solve(&mut model, &workloads, slo_ms, &bounds, &short));
    let (walked, long_allocs) =
        alloc_delta(|| solve(&mut model, &workloads, slo_ms, &bounds, &long));
    assert_eq!(cut_off.iterations, 30);
    assert!(
        walked.iterations >= 300 && walked.wall_active,
        "the long solve exercises both regimes: {walked:?}"
    );
    assert_eq!(
        short_allocs,
        long_allocs,
        "{} extra iterations may not allocate: {cut_off:?} vs {walked:?}",
        walked.iterations - cut_off.iterations
    );
}

/// A trained-shape controller over a live three-service cluster that has
/// run 5 s of traffic.
fn pilot() -> (GrafController, Cluster) {
    let topo = AppTopology::new(
        "t3",
        vec![
            ServiceSpec::new("a", 1.0, 200).cv(0.0),
            ServiceSpec::new("b", 2.0, 200).cv(0.0),
            ServiceSpec::new("c", 1.5, 200).cv(0.0),
        ],
        vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1).call(CallNode::new(2))))],
    );
    let analyzer =
        WorkloadAnalyzer::from_multiplicities(vec![vec![1.0, 1.0, 1.0]], vec![(0, 1), (1, 2)]);
    let bounds = Bounds { lower: vec![150.0; 3], upper: vec![2500.0; 3] };
    let cfg = GrafControllerConfig { slo_ms: 25.0, train_total_qps: 80.0, ..Default::default() };
    let controller = GrafController::new(model3(), analyzer, bounds, cfg);

    let world = World::new(topo, SimConfig::default(), 31);
    let mut cluster = Cluster::new(
        world,
        vec![
            Deployment::new(ServiceId(0), 250.0, 1),
            Deployment::new(ServiceId(1), 250.0, 1),
            Deployment::new(ServiceId(2), 250.0, 1),
        ],
        CreationModel::instant(),
    );
    for i in 0..400u64 {
        cluster.world_mut().inject(ApiId(0), SimTime(i * 12_500));
    }
    cluster.world_mut().run_until(SimTime::from_secs(5.0));
    (controller, cluster)
}

/// Warms `controller`'s buffers with five ticks, then returns the heap
/// allocations of the next two. Five, because the resilient controller's
/// scrape history grows by one reading per tick and its deque doubles at the
/// fifth: ticks six and seven both fit its capacity.
fn steady_tick_allocs(controller: &mut impl Autoscaler, cluster: &mut Cluster) -> (u64, u64) {
    for _ in 0..5 {
        controller.tick(cluster);
    }
    let ((), t4) = alloc_delta(|| controller.tick(cluster));
    let ((), t5) = alloc_delta(|| controller.tick(cluster));
    (t4, t5)
}

#[test]
fn pilot_tick_allocation_is_bounded_and_stable() {
    let (mut controller, mut cluster) = pilot();
    let (t4, t5) = steady_tick_allocs(&mut controller, &mut cluster);
    assert_eq!(t4, t5, "per-tick allocation count must not grow tick over tick");
    assert!(t4 < 2000, "pilot tick allocates a small bounded set of buffers, saw {t4}");
}

/// The fault engine's queries run on every resilient tick; they must add
/// nothing to its allocations. With the `metric_stale` catalog entry active
/// the tick takes the stale-reading path and stays bounded and stable; with
/// the same entry armed but its window not yet open, the tick allocates
/// exactly what an unarmed controller's does.
#[test]
fn resilient_tick_with_a_chaos_fault_is_bounded_and_stable() {
    let kinds = graf_chaos::named_faults("metric_stale", ServiceId(0)).expect("catalog entry");
    let resilient_allocs = |window: Option<(f64, f64)>| {
        let (inner, mut cluster) = pilot();
        let mut controller = ResilientController::new(inner, ResilientConfig::default());
        if let Some((from, until)) = window {
            let schedule = kinds.iter().fold(ChaosSchedule::new(5), |s, kind| {
                s.fault(kind.clone(), SimTime::from_secs(from), SimTime::from_secs(until))
            });
            controller.arm_chaos(&schedule);
        }
        steady_tick_allocs(&mut controller, &mut cluster)
    };

    let (t4, t5) = resilient_allocs(Some((0.0, 3600.0)));
    assert_eq!(t4, t5, "per-tick allocation count must not grow tick over tick");
    assert!(t4 < 2000, "resilient tick allocates a small bounded set of buffers, saw {t4}");

    let unarmed = resilient_allocs(None);
    let pending = resilient_allocs(Some((600.0, 3600.0)));
    assert_eq!(pending, unarmed, "an armed fault engine's queries must not allocate");
}
