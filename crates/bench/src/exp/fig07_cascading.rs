//! Figure 7: the workload each microservice perceives over time during a
//! traffic surge — the cascading effect (§2.1).
//!
//! Under the HPA, the front end saturates first; deeper services only see
//! the increased workload after earlier services scale out, so their
//! perceived-peak times are staggered down the chain ("While 'Frontend'
//! perceives its peak traffic at 31 s, 'Cart' starts handling its peak
//! workload at 118 s... subsequent microservices see the peak even further
//! later at 155 s"). With proactive creation, every service reaches its peak
//! at about the same time.

use std::io::{self, Write};

use graf_apps::{boutique, online_boutique};
use graf_loadgen::OpenLoop;
use graf_orchestrator::{Autoscaler, HpaConfig, KubernetesHpa, ProactiveOnce};
use graf_sim::time::SimTime;
use graf_sim::topology::ApiId;

use super::fig02_03_surge_hpa::{cart_cluster, targets_for};
use super::Ctx;
use crate::timeline::{run_with_timeline, TimelinePoint};

const BASE_QPS: f64 = 60.0;
const SURGE_QPS: f64 = 300.0;
const WARMUP_S: f64 = 360.0;
const END_S: f64 = WARMUP_S + 300.0;

fn surge(cx: &Ctx, scaler: &mut dyn Autoscaler) -> Vec<TimelinePoint> {
    let mut cluster = cart_cluster(cx, &targets_for(BASE_QPS));
    let mut load = OpenLoop::new(cx.args.seed ^ 0x7).poisson().schedule(
        ApiId(boutique::API_CART),
        vec![(SimTime::ZERO, BASE_QPS), (SimTime::from_secs(WARMUP_S), SURGE_QPS)],
    );
    run_with_timeline(&mut cluster, &mut load, scaler, END_S, 5.0).0
}

/// First time (relative to the surge) a service's perceived rate reaches 90 %
/// of its final plateau.
fn peak_times(tl: &[TimelinePoint], n: usize) -> Vec<f64> {
    let last = tl.last().expect("non-empty timeline");
    (0..n)
        .map(|s| {
            let plateau = last.per_service_rate[s];
            tl.iter()
                .find(|p| p.t_s >= WARMUP_S && p.per_service_rate[s] >= 0.9 * plateau)
                .map_or(f64::NAN, |p| p.t_s - WARMUP_S)
        })
        .collect()
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let topo = online_boutique();
    let names: Vec<&str> = topo.services.iter().map(|s| s.name.as_str()).collect();
    writeln!(cx.out, "# Figure 7 — perceived workload per microservice through a {BASE_QPS}→{SURGE_QPS} qps surge")?;

    let mut hpa = KubernetesHpa::new(HpaConfig::with_threshold(0.5), 6);
    let hpa_tl = surge(cx, &mut hpa);
    let mut pro = ProactiveOnce::new(SimTime::from_secs(WARMUP_S), targets_for(SURGE_QPS));
    let pro_tl = surge(cx, &mut pro);

    writeln!(
        cx.out,
        "\n## Time (s after surge) for each service to perceive 90% of its peak workload"
    )?;
    writeln!(cx.out, "{:<16} {:>14} {:>14}", "service", "k8s-autoscaler", "proactive")?;
    let hpa_peaks = peak_times(&hpa_tl, 6);
    let pro_peaks = peak_times(&pro_tl, 6);
    for (i, name) in names.iter().enumerate() {
        writeln!(cx.out, "{:<16} {:>14.0} {:>14.0}", name, hpa_peaks[i], pro_peaks[i])?;
    }
    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
    };
    writeln!(
        cx.out,
        "\npeak-time spread — HPA: {:.0} s (staggered down the chain), proactive: {:.0} s",
        spread(&hpa_peaks),
        spread(&pro_peaks)
    )?;

    for (which, tl) in [("HPA", &hpa_tl), ("proactive", &pro_tl)] {
        writeln!(cx.out, "\n## Per-service perceived workload (req/s), {which} run")?;
        writeln!(cx.out, "t_s,{}", names.join(","))?;
        for p in tl.iter().filter(|p| p.t_s >= WARMUP_S - 30.0) {
            write!(cx.out, "{:.0}", p.t_s - WARMUP_S)?;
            for s in 0..6 {
                write!(cx.out, ",{:.0}", p.per_service_rate[s])?;
            }
            writeln!(cx.out)?;
        }
    }
    Ok(())
}
