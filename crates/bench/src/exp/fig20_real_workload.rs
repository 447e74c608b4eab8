//! Figure 20: total instances under a real-workload time series (§5.3,
//! *Real workload demonstration*).
//!
//! The paper replays AzurePublicDatasetV2 — per-minute function invocation
//! counts mapped to Locust user threads — over a 1900 s window, showing GRAF
//! tracking the workload up *and down* while the Kubernetes autoscaler lags
//! surges (cascading effect) and holds instances for 5 minutes after the
//! sharp drop at ~1500 s (scale-down stabilization). GRAF used 21 % fewer
//! net instances. The dataset itself is not redistributable; an equivalent
//! synthetic minute-series is generated (see DESIGN.md).

use std::io::{self, Write};

use graf_apps::online_boutique;
use graf_core::baseline::hpa_with_threshold;
use graf_loadgen::azure::{azure_series, AzureParams};
use graf_orchestrator::{Autoscaler, Cluster};
use graf_sim::time::SimTime;
use graf_sim::world::{Completion, SimConfig, World};

use super::Ctx;
use crate::standard::{boutique_setup, boutique_users};
use crate::timeline::{mean_instances, percentile_between, run_with_timeline, TimelinePoint};

const MINUTES: usize = 32; // ≈ 1900 s
const END_S: f64 = MINUTES as f64 * 60.0;

fn replay(
    scaler: &mut dyn Autoscaler,
    series: &[u32],
    unit: f64,
    seed: u64,
) -> (Vec<TimelinePoint>, Vec<Completion>) {
    let world = World::new(online_boutique(), SimConfig::default(), seed);
    let mut cluster = Cluster::uniform(world, unit, (series[0] as usize / 120).clamp(2, 60));
    let mut users = boutique_users(series[0] as usize, seed ^ 0x20);
    for (m, &u) in series.iter().enumerate().skip(1) {
        users.set_users(SimTime::from_secs(60.0 * m as f64), u as usize);
    }
    run_with_timeline(&mut cluster, &mut users, scaler, END_S, 10.0)
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    let seed = cx.args.seed;
    // Scale the series to the trained operating point (~1500 users) with the
    // paper's sharp drop at ~1500 s.
    let params = AzureParams {
        mean_users: 1500.0,
        drop_at_min: Some(25),
        drop_to: 0.45,
        ..Default::default()
    };
    let series = azure_series(&params, MINUTES, seed ^ 0xA2);
    writeln!(
        cx.out,
        "# Figure 20 — instances under an Azure-like minute series ({} min)",
        MINUTES
    )?;
    writeln!(cx.out, "user series: {series:?}")?;

    writeln!(cx.out, "training GRAF...")?;
    let graf = cx.graf(&setup);
    let (thr, _) = cx.hpa_threshold(&setup);
    writeln!(cx.out, "HPA threshold tuned once: {thr:.2}")?;

    let mut graf_ctrl = cx.controller(&graf, setup.slo_ms);
    let (graf_tl, graf_comps) = replay(&mut graf_ctrl, &series, setup.cpu_unit_mc, seed);
    let mut hpa = hpa_with_threshold(thr, 6);
    let (hpa_tl, hpa_comps) = replay(&mut hpa, &series, setup.cpu_unit_mc, seed);

    writeln!(cx.out, "\nt_s,users,graf_instances,k8s_instances")?;
    for (g, h) in graf_tl.iter().zip(&hpa_tl) {
        let minute = (g.t_s / 60.0) as usize;
        writeln!(
            cx.out,
            "{:.0},{},{},{}",
            g.t_s,
            series.get(minute).copied().unwrap_or(0),
            g.total_instances,
            h.total_instances
        )?;
    }

    let mean = |tl, from_s, to_s| mean_instances(tl, from_s, to_s).unwrap_or(0.0);
    let graf_mean = mean(&graf_tl, 0.0, f64::INFINITY);
    let hpa_mean = mean(&hpa_tl, 0.0, f64::INFINITY);
    writeln!(
        cx.out,
        "\nmean instances — GRAF {:.1}, K8s {:.1}: GRAF uses {:.1}% fewer (paper: 21%)",
        graf_mean,
        hpa_mean,
        100.0 * (1.0 - graf_mean / hpa_mean)
    )?;
    let p95 = |c: &[Completion]| percentile_between(c, 120.0, END_S, 0.95).unwrap_or(f64::NAN);
    writeln!(
        cx.out,
        "p95 latency — GRAF {:.0} ms, K8s {:.0} ms (paper: both ≈180 ms)",
        p95(&graf_comps),
        p95(&hpa_comps)
    )?;
    // Post-drop lag: mean instances in the 5 minutes after the drop.
    let drop_s = 25.0 * 60.0;
    writeln!(
        cx.out,
        "mean instances in the 5 min after the drop — GRAF {:.1}, K8s {:.1} \
         (the HPA's stabilization window holds capacity)",
        mean(&graf_tl, drop_s, drop_s + 300.0),
        mean(&hpa_tl, drop_s, drop_s + 300.0)
    )
}
