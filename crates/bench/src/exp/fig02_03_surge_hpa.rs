//! Figures 2 & 3: total instances over time and end-to-end latency when
//! traffic surges, comparing manual proactive scaling against the Kubernetes
//! HPA at utilization thresholds 10 %, 25 % and 50 % (§2.1).
//!
//! The paper drives the cart page at 300 qps with Vegeta. Our reproduction
//! surges from a converged 100 qps baseline to 300 qps (a cold 0→300 start on
//! CPU-limited instances would only measure the client-timeout ceiling; real
//! pods burst above their requests during cold start — see EXPERIMENTS.md).
//! The shape under test: the proactive jump creates all instances at once
//! and settles tail latency several times faster with several times fewer
//! instances than the low-threshold HPA.

use std::io::{self, Write};

use graf_apps::{boutique, online_boutique};
use graf_loadgen::OpenLoop;
use graf_obs::Obs;
use graf_orchestrator::{
    Autoscaler, Cluster, CreationModel, Deployment, HpaConfig, KubernetesHpa, ProactiveOnce,
    StaticScaler,
};
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, ServiceId};
use graf_sim::world::{SimConfig, World};

use super::Ctx;
use crate::timeline::{final_instances, percentile_between, run_with_timeline, TimelinePoint};

const BASE_QPS: f64 = 100.0;
const SURGE_QPS: f64 = 300.0;
const WARMUP_S: f64 = 360.0; // HPA stabilization window passes before the surge
const SURGE_AT_S: f64 = WARMUP_S;
const END_S: f64 = WARMUP_S + 350.0;
const CPU_UNIT: f64 = 100.0;

/// Headroom-provisioned instance targets for a given cart-page rate — the
/// §2.1 "heuristically determined number of instances".
pub(super) fn targets_for(rate_qps: f64) -> Vec<(ServiceId, usize)> {
    let topo = online_boutique();
    let api = ApiId(boutique::API_CART);
    (0..topo.num_services() as u16)
        .map(|s| {
            let mult = topo.multiplicity(api, ServiceId(s));
            let offered_mc = rate_qps * mult * topo.services[s as usize].work_ms;
            let with_headroom = offered_mc * 1.8 + 60.0;
            (ServiceId(s), (with_headroom / CPU_UNIT).ceil().max(1.0) as usize)
        })
        .collect()
}

/// Online Boutique at the given per-service instance counts, reporting through `obs`.
pub(super) fn cart_cluster(seed: u64, obs: Obs, initial: &[(ServiceId, usize)]) -> Cluster {
    let world = World::new(online_boutique(), SimConfig::default(), seed);
    let deployments = initial.iter().map(|&(s, n)| Deployment::new(s, CPU_UNIT, n)).collect();
    let mut cluster = Cluster::new(world, deployments, CreationModel::default());
    cluster.set_obs(obs);
    cluster
}

fn load(seed: u64) -> OpenLoop {
    OpenLoop::new(seed ^ 0x5).poisson().schedule(
        ApiId(boutique::API_CART),
        vec![(SimTime::ZERO, BASE_QPS), (SimTime::from_secs(SURGE_AT_S), SURGE_QPS)],
    )
}

fn variant(
    cx: &mut Ctx,
    name: &str,
    scaler: &mut dyn Autoscaler,
    initial: &[(ServiceId, usize)],
) -> io::Result<Vec<TimelinePoint>> {
    let mut cluster = cart_cluster(cx.args.seed, cx.obs.scoped("variant", name), initial);
    let mut load = load(cx.args.seed);
    let (tl, comps) = run_with_timeline(&mut cluster, &mut load, scaler, END_S, 5.0);
    let p = |q: f64| percentile_between(&comps, SURGE_AT_S, END_S, q).unwrap_or(f64::NAN);
    let timeouts =
        comps.iter().filter(|c| c.timed_out && c.end.as_secs_f64() >= SURGE_AT_S).count();
    writeln!(
        cx.out,
        "{name}: p90 {:.2} s, p95 {:.2} s, p99 {:.2} s, timeouts {}, final instances {}",
        p(0.90) / 1000.0,
        p(0.95) / 1000.0,
        p(0.99) / 1000.0,
        timeouts,
        final_instances(&tl)
    )?;
    Ok(tl)
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    writeln!(
        cx.out,
        "# Figures 2 & 3 — proactive vs HPA thresholds, cart-page {BASE_QPS}→{SURGE_QPS} qps \
         surge at t={SURGE_AT_S}s"
    )?;
    let base = targets_for(BASE_QPS);
    let surge = targets_for(SURGE_QPS);
    writeln!(
        cx.out,
        "proactive targets: base {:?} → surge {:?}",
        base.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
        surge.iter().map(|&(_, n)| n).collect::<Vec<_>>()
    )?;

    writeln!(cx.out, "\n## Figure 3 rows (latency over the surge window)")?;
    let mut variants: Vec<Vec<TimelinePoint>> = Vec::new();
    {
        // Proactive: statically at the base targets, jump to surge targets
        // the moment the front-end rate changes.
        let mut p = ProactiveOnce::new(SimTime::from_secs(SURGE_AT_S), surge.clone());
        variants.push(variant(cx, "Proactive", &mut p, &base)?);
    }
    for thr in [0.10, 0.25, 0.50] {
        let mut hpa = KubernetesHpa::new(HpaConfig::with_threshold(thr), 6);
        let name = format!("K8s Autoscaler({:.0}%)", thr * 100.0);
        variants.push(variant(cx, &name, &mut hpa, &base)?);
    }
    {
        // Reference: never scaling shows the raw damage of the surge.
        variants.push(variant(cx, "No scaling", &mut StaticScaler, &base)?);
    }

    writeln!(cx.out, "\n## Figure 2 series (total instances over time, t relative to surge)")?;
    writeln!(cx.out, "t_s,proactive,hpa10,hpa25,hpa50,static")?;
    let len = variants.iter().map(Vec::len).min().unwrap_or(0);
    for i in 0..len {
        if variants[0][i].t_s < SURGE_AT_S - 60.0 {
            continue; // show a bit of pre-surge context only
        }
        write!(cx.out, "{:.0}", variants[0][i].t_s - SURGE_AT_S)?;
        for tl in &variants {
            write!(cx.out, ",{}", tl[i].total_instances)?;
        }
        writeln!(cx.out)?;
    }
    Ok(())
}
