//! Figure 18: total instances and instances saved by GRAF across simulated
//! user counts (§5.2, *Scaling workload*).
//!
//! The paper varies Locust's simulated users from 500 to 3000 and shows GRAF
//! matching the tuned HPA's tail latency while the number of saved instances
//! grows proportionally with workload. The HPA threshold is tuned once (at
//! the mid-range point) and reused — the paper's single global threshold —
//! so at some loads the HPA misses the SLO; `k8s_over_slo` flags those rows,
//! where `saved` is not a comparison at equal p99.

use std::io::{self, Write};

use graf_core::baseline::hpa_with_threshold;
use graf_orchestrator::{Autoscaler, Cluster};
use graf_sim::world::{SimConfig, World};

use super::Ctx;
use crate::standard::{boutique_setup, boutique_users};
use crate::timeline::{mean_instances, percentile_between, run_with_timeline};

const WARMUP_S: f64 = 420.0;
const MEASURE_S: f64 = 180.0;

fn run_users(
    scaler: &mut dyn Autoscaler,
    users: usize,
    unit: f64,
    seed: u64,
) -> (f64, Option<f64>) {
    let world = World::new(graf_apps::online_boutique(), SimConfig::default(), seed);
    // Start near the expected footprint to keep warm-up clean.
    let mut cluster = Cluster::uniform(world, unit, (users / 120).clamp(2, 60));
    let mut load = boutique_users(users, seed ^ 0x18);
    let end = WARMUP_S + MEASURE_S;
    let (tl, comps) = run_with_timeline(&mut cluster, &mut load, scaler, end, 5.0);
    let p99 = percentile_between(&comps, WARMUP_S, end, 0.99);
    (mean_instances(&tl, WARMUP_S, end).unwrap_or(0.0), p99)
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    let seed = cx.args.seed;
    writeln!(cx.out, "# Figure 18 — instances vs simulated users (Online Boutique)")?;
    writeln!(cx.out, "training GRAF...")?;
    let graf = cx.graf(&setup);

    // Tune the HPA once at the standard operating point (~1500 users worth
    // of open-loop traffic), as the paper tunes one global threshold.
    let (thr, _) = cx.hpa_threshold(&setup);
    writeln!(cx.out, "HPA threshold tuned once: {thr:.2}")?;

    writeln!(
        cx.out,
        "\nusers,graf_instances,k8s_instances,saved,graf_p99_ms,k8s_p99_ms,k8s_over_slo"
    )?;
    for users in [500usize, 1000, 1500, 2000, 2500, 3000] {
        let mut graf_ctrl = cx.controller(&graf, setup.slo_ms);
        let (graf_inst, graf_p99) = run_users(&mut graf_ctrl, users, setup.cpu_unit_mc, seed);
        let mut hpa = hpa_with_threshold(thr, 6);
        let (hpa_inst, hpa_p99) = run_users(&mut hpa, users, setup.cpu_unit_mc, seed);
        // No completion in the window is a violation too.
        let hpa_over = hpa_p99.is_none_or(|p| p > setup.slo_ms);
        writeln!(
            cx.out,
            "{users},{graf_inst:.1},{hpa_inst:.1},{:.1},{:.0},{:.0},{}",
            hpa_inst - graf_inst,
            graf_p99.unwrap_or(f64::NAN),
            hpa_p99.unwrap_or(f64::NAN),
            hpa_over as u8,
        )?;
    }
    writeln!(cx.out, "\n(paper: saved instances grow with users while tail latency matches)")?;
    writeln!(
        cx.out,
        "(k8s_over_slo=1: the HPA's p99 breaks the {:.0} ms SLO, so `saved` on that row \
         compares the HPA's violating plan with GRAF's, not two plans at equal p99)",
        setup.slo_ms
    )
}
