//! Timeline recording for the time-series figures (2, 7, 20, 21, 22).

use graf_loadgen::LoadGen;
use graf_metrics::Summary;
use graf_orchestrator::{run_experiment, Autoscaler, Cluster, ExperimentHooks};
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::ServiceId;
use graf_sim::world::Completion;

/// One sample of the cluster state during a run.
#[derive(Clone, Debug)]
pub struct TimelinePoint {
    /// Simulated time, seconds.
    pub t_s: f64,
    /// Total live instances across deployments.
    pub total_instances: usize,
    /// Perceived workload per service (req/s over the trailing 5 s) — the
    /// Figure-7 signal.
    pub per_service_rate: Vec<f64>,
    /// End-to-end p99 over the trailing 10 s, ms.
    pub p99_ms: Option<f64>,
}

/// Runs an experiment until `end_s` simulated seconds while sampling a
/// [`TimelinePoint`] every `every_s`. Returns the timeline plus every
/// completion (for offline percentile work).
pub fn run_with_timeline(
    cluster: &mut Cluster,
    loadgen: &mut dyn LoadGen,
    scaler: &mut dyn Autoscaler,
    end_s: f64,
    every_s: f64,
) -> (Vec<TimelinePoint>, Vec<Completion>) {
    let (until, every) = (SimTime::from_secs(end_s), SimDuration::from_secs(every_s));
    let n = cluster.world().topology().num_services();
    let mut timeline = Vec::new();
    let mut completions = Vec::new();
    let mut next = cluster.world().now() + every;
    let mut on_segment = |cluster: &mut Cluster, comps: &[Completion]| {
        completions.extend_from_slice(comps);
        let now = cluster.world().now();
        if now >= next {
            timeline.push(TimelinePoint {
                t_s: now.as_secs_f64(),
                total_instances: cluster.total_instances(),
                per_service_rate: (0..n)
                    .map(|s| cluster.world().service_arrival_rate(ServiceId(s as u16), 5))
                    .collect(),
                p99_ms: cluster.world().e2e_percentile(10, 0.99).map(|d| d.as_millis_f64()),
            });
            next += every;
        }
    };
    let mut hooks = ExperimentHooks { on_segment: Some(&mut on_segment), on_control: None };
    run_experiment(cluster, loadgen, scaler, until, &mut hooks);
    (timeline, completions)
}

/// p-quantile (ms) of completions finishing in `[from_s, to_s)`.
pub fn percentile_between(comps: &[Completion], from_s: f64, to_s: f64, q: f64) -> Option<f64> {
    let mut s = Summary::new();
    for c in comps {
        let t = c.end.as_secs_f64();
        if t >= from_s && t < to_s {
            s.record(c.latency_us() as f64 / 1000.0);
        }
    }
    s.percentile(q)
}

/// Figure 22's convergence time: seconds from `surge_s` until the trailing
/// p99 stays at or below `slo_ms` for `hold` consecutive timeline points.
/// Returns `None` if it never settles within the timeline.
pub fn convergence_time_s(
    timeline: &[TimelinePoint],
    surge_s: f64,
    slo_ms: f64,
    hold: usize,
) -> Option<f64> {
    let mut run_start: Option<f64> = None;
    let mut run_len = 0usize;
    for p in timeline.iter().filter(|p| p.t_s >= surge_s) {
        let ok = p.p99_ms.is_some_and(|v| v <= slo_ms);
        if ok {
            if run_len == 0 {
                run_start = Some(p.t_s);
            }
            run_len += 1;
            if run_len >= hold {
                return run_start.map(|t| t - surge_s);
            }
        } else {
            run_len = 0;
            run_start = None;
        }
    }
    None
}

/// Mean total instances over the timeline points in `[from_s, to_s)`; `None`
/// when no point falls in the window.
pub fn mean_instances(timeline: &[TimelinePoint], from_s: f64, to_s: f64) -> Option<f64> {
    let window: Vec<f64> = timeline
        .iter()
        .filter(|p| p.t_s >= from_s && p.t_s < to_s)
        .map(|p| p.total_instances as f64)
        .collect();
    (!window.is_empty()).then(|| window.iter().sum::<f64>() / window.len() as f64)
}

/// Most total instances at any timeline point from `from_s` on (0 if none).
pub fn peak_instances(timeline: &[TimelinePoint], from_s: f64) -> usize {
    timeline.iter().filter(|p| p.t_s >= from_s).map(|p| p.total_instances).max().unwrap_or(0)
}

/// Total instances at the last timeline point (0 for an empty timeline).
pub fn final_instances(timeline: &[TimelinePoint]) -> usize {
    timeline.last().map_or(0, |p| p.total_instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_sim::frame::RequestId;
    use graf_sim::topology::ApiId;

    fn point(t_s: f64, p99: Option<f64>) -> TimelinePoint {
        TimelinePoint { t_s, total_instances: 1, per_service_rate: vec![0.0], p99_ms: p99 }
    }

    #[test]
    fn convergence_finds_first_sustained_ok_run() {
        let tl = vec![
            point(10.0, Some(500.0)),
            point(20.0, Some(90.0)), // blip, not sustained
            point(30.0, Some(400.0)),
            point(40.0, Some(80.0)),
            point(50.0, Some(70.0)),
            point(60.0, Some(60.0)),
        ];
        let t = convergence_time_s(&tl, 10.0, 100.0, 3).unwrap();
        assert_eq!(t, 30.0, "converged at t=40 after surge at 10");
        assert_eq!(convergence_time_s(&tl, 10.0, 10.0, 3), None);
    }

    #[test]
    fn percentile_between_filters_by_time() {
        let mk = |end_s: f64, lat_ms: u64| Completion {
            request: RequestId(0),
            api: ApiId(0),
            start: SimTime::from_secs(end_s - lat_ms as f64 / 1000.0),
            end: SimTime::from_secs(end_s),
            timed_out: false,
        };
        let comps = vec![mk(1.0, 10), mk(2.0, 20), mk(10.0, 1000)];
        let p = percentile_between(&comps, 0.0, 5.0, 1.0).unwrap();
        assert!((p - 20.0).abs() < 0.5);
    }
}
