//! Ablation of the §6 "actively removing contention anomalies" extension:
//! GRAF alone vs GRAF wrapped in the [`graf_core::AnomalyGuard`] while a
//! contention event hits one microservice.
//!
//! GRAF minimizes resources for the modeled surface, so an unmodeled
//! contention spike (injected via the simulator's fault injection) violates
//! the SLO until the anomaly clears; the guard detects the per-service p99
//! excursion and temporarily boosts the afflicted service.

use std::io::{self, Write};

use graf_apps::online_boutique;
use graf_core::AnomalyGuard;
use graf_loadgen::OpenLoop;
use graf_orchestrator::{Autoscaler, Cluster};
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, ServiceId};
use graf_sim::world::{SimConfig, World};

use super::Ctx;
use crate::standard::{boutique_setup, AppSetup};
use crate::timeline::{mean_instances, percentile_between, run_with_timeline};

const CONTENTION_FROM_S: f64 = 420.0;
const CONTENTION_TO_S: f64 = 600.0;
const END_S: f64 = 780.0;

fn contended(setup: &AppSetup, scaler: &mut dyn Autoscaler, seed: u64) -> (f64, f64, f64) {
    let mut world = World::new(online_boutique(), SimConfig::default(), seed);
    // recommendation (MS5) suffers 4x contention for 3 minutes.
    world.inject_contention(
        ServiceId(4),
        4.0,
        SimTime::from_secs(CONTENTION_FROM_S),
        SimTime::from_secs(CONTENTION_TO_S),
    );
    let mut cluster = Cluster::uniform(world, setup.cpu_unit_mc, 6);
    let mut load = OpenLoop::new(seed ^ 0xA0).poisson();
    for (api, &r) in setup.probe_qps.iter().enumerate() {
        load = load.rate(ApiId(api as u16), r);
    }
    let (tl, comps) = run_with_timeline(&mut cluster, &mut load, scaler, END_S, 5.0);
    let during = percentile_between(&comps, CONTENTION_FROM_S + 30.0, CONTENTION_TO_S, 0.99)
        .unwrap_or(f64::NAN);
    let violation_frac = {
        let pts: Vec<_> =
            tl.iter().filter(|p| p.t_s >= CONTENTION_FROM_S && p.t_s < CONTENTION_TO_S).collect();
        pts.iter().filter(|p| p.p99_ms.is_some_and(|v| v > setup.slo_ms)).count() as f64
            / pts.len().max(1) as f64
    };
    (during, violation_frac, mean_instances(&tl, 120.0, f64::INFINITY).unwrap_or(0.0))
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    writeln!(
        cx.out,
        "# Anomaly-guard ablation — 4× contention on recommendation during \
         [{CONTENTION_FROM_S}, {CONTENTION_TO_S}) s"
    )?;
    writeln!(cx.out, "training GRAF...")?;
    let graf = cx.graf(&setup);

    let mut plain = cx.controller(&graf, setup.slo_ms);
    let (p99_plain, viol_plain, inst_plain) = contended(&setup, &mut plain, cx.args.seed);

    let guarded_inner = cx.controller(&graf, setup.slo_ms);
    let mut guarded = AnomalyGuard::new(guarded_inner, setup.topo.num_services());
    let (p99_guard, viol_guard, inst_guard) = contended(&setup, &mut guarded, cx.args.seed);

    writeln!(
        cx.out,
        "\n{:<16} {:>16} {:>18} {:>16}",
        "controller", "p99 during (ms)", "SLO-violating time", "mean instances"
    )?;
    writeln!(
        cx.out,
        "{:<16} {:>16.0} {:>17.0}% {:>16.1}",
        "GRAF",
        p99_plain,
        viol_plain * 100.0,
        inst_plain
    )?;
    writeln!(
        cx.out,
        "{:<16} {:>16.0} {:>17.0}% {:>16.1}",
        "GRAF + guard",
        p99_guard,
        viol_guard * 100.0,
        inst_guard
    )?;
    writeln!(cx.out, "guard triggers: {}", guarded.triggers)?;
    writeln!(
        cx.out,
        "\n(the guard spends a few extra instances during the anomaly to cut the \
         violation window — the §6 trade-off made concrete)"
    )
}
