//! Figures 21 & 22: GRAF vs the Kubernetes HPA vs a FIRM-like scaler when
//! Locust doubles its user population (§5.3, *Handling traffic surge*).
//!
//! The paper surges from 250 to 500 Locust threads against Online Boutique
//! and reports (a) the total-instance timelines — GRAF creates the required
//! instances concurrently at ~50 s while the others ramp — and (b) the time
//! for end-to-end tail latency to converge, GRAF being up to 2.6× faster
//! with 13–60 % fewer instances.
//!
//! Our user counts are scaled to this reproduction's operating point (the
//! apps' CPU demands differ from the real deployments); the shape under test
//! is who converges faster and with how many instances.

use std::io::{self, Write};

use graf_apps::online_boutique;
use graf_orchestrator::{Autoscaler, Cluster, FirmLike, HpaConfig, KubernetesHpa};
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::world::{SimConfig, World};

use super::Ctx;
use crate::standard::{boutique_setup, boutique_users};
use crate::timeline::{
    convergence_time_s, final_instances, peak_instances, run_with_timeline, TimelinePoint,
};

const WARMUP_S: f64 = 360.0;
const RUN_S: f64 = 300.0;

fn surge(
    seed: u64,
    obs: graf_obs::Obs,
    scaler: &mut dyn Autoscaler,
    unit: f64,
    before: usize,
    after: usize,
) -> Vec<TimelinePoint> {
    let world = World::new(online_boutique(), SimConfig::default(), seed);
    let mut cluster = Cluster::uniform(world, unit, 4);
    cluster.set_obs(obs);
    let mut users =
        boutique_users(before, seed ^ 0x21).users_at(SimTime::from_secs(WARMUP_S), after);
    run_with_timeline(&mut cluster, &mut users, scaler, WARMUP_S + RUN_S, 5.0).0
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    writeln!(cx.out, "# Figures 21 & 22 — surge handling: GRAF vs HPA vs FIRM-like")?;
    writeln!(cx.out, "training GRAF...")?;
    let graf = cx.graf(&setup);
    writeln!(
        cx.out,
        "trained: {} samples, best val loss {:.4}",
        graf.samples.len(),
        graf.report.best_val
    )?;

    // User populations scaled to the trained operating point: ~600 qps total
    // ≈ 1500 users at ≤5 s think time.
    for (before, after) in [(750usize, 1500usize), (1500, 3000)] {
        writeln!(cx.out, "\n## Surge {before} → {after} users at t=0 (relative to surge)")?;
        let mut results: Vec<(&str, Vec<TimelinePoint>)> = Vec::new();
        let (seed, unit) = (cx.args.seed, setup.cpu_unit_mc);
        let policy = |name: &str| cx.obs.scoped("users", before).scoped("policy", name);

        let mut graf_ctrl = graf.controller(setup.slo_ms);
        graf_ctrl.set_obs(policy("GRAF"));
        results.push(("GRAF", surge(seed, policy("GRAF"), &mut graf_ctrl, unit, before, after)));

        let mut hpa = KubernetesHpa::new(HpaConfig::with_threshold(0.5), 6);
        results.push(("K8s", surge(seed, policy("K8s"), &mut hpa, unit, before, after)));

        let mut firm = FirmLike { latency_ceiling: SimDuration::from_millis(setup.slo_ms * 1.5) };
        results
            .push(("FIRM-like", surge(seed, policy("FIRM-like"), &mut firm, unit, before, after)));

        writeln!(
            cx.out,
            "### Figure 22 row: time to converge p99 ≤ {} ms (hold 4 samples)",
            setup.slo_ms
        )?;
        for (name, tl) in &results {
            let conv = convergence_time_s(tl, WARMUP_S, setup.slo_ms, 4);
            let (final_inst, peak_inst) = (final_instances(tl), peak_instances(tl, WARMUP_S));
            writeln!(
                cx.out,
                "{name:>10}: converge {}, final instances {final_inst}, peak {peak_inst}",
                conv.map_or("never".to_string(), |t| format!("{t:.0} s")),
            )?;
        }

        writeln!(cx.out, "### Figure 21 series (total instances; t relative to surge)")?;
        writeln!(cx.out, "t_s,graf,k8s,firm")?;
        let len = results.iter().map(|(_, tl)| tl.len()).min().unwrap_or(0);
        for i in 0..len {
            let t = results[0].1[i].t_s;
            if t < WARMUP_S - 30.0 {
                continue;
            }
            write!(cx.out, "{:.0}", t - WARMUP_S)?;
            for (_, tl) in &results {
                write!(cx.out, ",{}", tl[i].total_instances)?;
            }
            writeln!(cx.out)?;
        }
    }
    Ok(())
}
