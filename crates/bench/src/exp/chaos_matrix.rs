//! Chaos matrix: every fault class × degradation policy under a traffic
//! surge (EXPERIMENTS.md §7).
//!
//! Each cell replays the Fig-21-style surge scenario on a three-service
//! chain while `graf-chaos` injects one fault class over a window that
//! brackets the surge, and the controller runs under one of two policies:
//!
//! * **ladder** — [`ResilientController`] with the full degradation ladder
//!   (full solve → last-good plan → HPA fallback → freeze, with hysteresis
//!   and trace-gap interpolation),
//! * **freeze** — the naive strawman that freezes on *any* unhealthy signal
//!   and resumes only when every signal recovers.
//!
//! Reported per cell: post-surge p99, time for p99 to reconverge under the
//! SLO, final/peak instances and degradation transitions. The run is
//! bit-deterministic per seed; the same seed always yields the same table.
//!
//! With `--telemetry`, every event of a cell (its creation batches, solver
//! spans and one `graf.resilient.tick` decision record per control tick)
//! carries the cell's `fault` and `policy`.

use std::io::{self, Write};

use graf_chaos::{ChaosSchedule, FaultKind};
use graf_core::{
    GrafBuildConfig, GrafController, PolicyMode, ResilientConfig, ResilientController, TrainConfig,
};
use graf_loadgen::ClosedLoop;
use graf_obs::Obs;
use graf_orchestrator::Cluster;
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceSpec};
use graf_sim::world::{SimConfig, World};

use super::Ctx;
use crate::standard::{fault_window, hottest_service, sampling_config, AppSetup};
use crate::timeline::{
    convergence_time_s, final_instances, peak_instances, percentile_between, run_with_timeline,
};

const SLO_MS: f64 = 60.0;
const UNIT_MC: f64 = 500.0;
/// Surge fires here; the controller has warmed up and planned by then.
const SURGE_S: f64 = 120.0;
const END_S: f64 = 420.0;
/// Fault window bracketing the surge.
const FAULT_FROM_S: f64 = 90.0;
const FAULT_UNTIL_S: f64 = 240.0;

/// gateway → auth → backend chain (front-loaded light, back-loaded heavy).
fn chain3() -> AppTopology {
    AppTopology::new(
        "chain3",
        vec![
            ServiceSpec::new("gateway", 1.0, 400),
            ServiceSpec::new("auth", 2.0, 300),
            ServiceSpec::new("backend", 4.0, 500),
        ],
        vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1).call(CallNode::new(2))))],
    )
}

/// The canonical fault catalog, with `latency_spike` pointed at the chain's
/// hottest service (the backend).
fn fault_classes() -> Vec<(&'static str, Vec<FaultKind>)> {
    let hot = hottest_service(&chain3());
    graf_chaos::CATALOG
        .iter()
        .map(|&name| (name, graf_chaos::named_faults(name, hot).expect("catalog name resolves")))
        .collect()
}

struct Cell {
    p99_ms: Option<f64>,
    converge_s: Option<f64>,
    final_instances: usize,
    peak_instances: usize,
    transitions: u64,
    final_level: &'static str,
}

fn run_cell(
    ctrl: GrafController,
    sched: &ChaosSchedule,
    mode: PolicyMode,
    seed: u64,
    obs: &Obs,
) -> Cell {
    // The resilient controller reads trace coverage, so this world traces.
    let world = World::new(chain3(), SimConfig { trace_sample: 1.0, ..SimConfig::default() }, seed);
    let mut cluster = Cluster::uniform(world, UNIT_MC, 4);
    cluster.arm_chaos(sched);
    cluster.set_obs(obs.clone());

    let mut rc =
        ResilientController::new(ctrl, ResilientConfig { mode, ..ResilientConfig::default() });
    rc.arm_chaos(sched);
    rc.set_obs(obs.clone());

    // ~300 qps before the surge, ~600 qps after (think time 2 s per user):
    // an under-provisioned post-surge cluster genuinely queues.
    let mut users = ClosedLoop::with_mix(vec![(ApiId(0), 2.0)], 600, seed ^ 0x21)
        .users_at(SimTime::from_secs(SURGE_S), 1200);
    let (tl, comps) = run_with_timeline(&mut cluster, &mut users, &mut rc, END_S, 5.0);
    Cell {
        p99_ms: percentile_between(&comps, SURGE_S, END_S, 0.99),
        converge_s: convergence_time_s(&tl, SURGE_S, SLO_MS, 4),
        final_instances: final_instances(&tl),
        peak_instances: peak_instances(&tl, SURGE_S),
        transitions: rc.transitions(),
        final_level: rc.level().name(),
    }
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let args = cx.args.clone();
    writeln!(cx.out, "# Chaos matrix — fault class × degradation policy (surge at t={SURGE_S} s)")?;
    writeln!(
        cx.out,
        "# fault window [{FAULT_FROM_S}, {FAULT_UNTIL_S}) s, SLO {SLO_MS} ms, seed {}",
        args.seed
    )?;
    writeln!(cx.out, "training GRAF on chain3...")?;
    let setup =
        AppSetup { topo: chain3(), probe_qps: vec![400.0], slo_ms: SLO_MS, cpu_unit_mc: UNIT_MC };
    // A three-service chain trains at its own, smaller scale.
    let cfg = GrafBuildConfig {
        sampling: sampling_config(&setup, &args),
        train: TrainConfig {
            epochs: args.scaled(12, 40, 200),
            seed: args.seed,
            threads: args.threads.unwrap_or(1),
            ..TrainConfig::default()
        },
        num_samples: args.samples.unwrap_or_else(|| args.scaled(120, 400, 2000)),
        split_seed: args.seed ^ 0x5EED,
        ..Default::default()
    };
    let graf = cx.graf_with(&setup, || cfg);
    writeln!(
        cx.out,
        "trained: {} samples, best val loss {:.4}\n",
        graf.samples.len(),
        graf.report.best_val
    )?;

    writeln!(
        cx.out,
        "{:<14} {:<8} {:>8} {:>11} {:>7} {:>6} {:>12} {:>11}",
        "fault", "policy", "p99_ms", "converge_s", "final", "peak", "transitions", "final_level"
    )?;
    let mut ladder_vs_freeze: Vec<(&str, f64, f64)> = Vec::new();
    for (name, kinds) in fault_classes() {
        if args.chaos.as_deref().is_some_and(|only| only != name) {
            continue;
        }
        let sched = fault_window(kinds, args.seed, FAULT_FROM_S, FAULT_UNTIL_S);
        let mut row: Vec<(&str, Cell)> = Vec::new();
        for (policy, mode) in
            [("ladder", PolicyMode::Ladder), ("freeze", PolicyMode::FreezeOnFault)]
        {
            let obs = cx.obs.scoped("fault", name).scoped("policy", policy);
            let cell = run_cell(graf.controller(SLO_MS), &sched, mode, args.seed, &obs);
            writeln!(
                cx.out,
                "{:<14} {:<8} {:>8} {:>11} {:>7} {:>6} {:>12} {:>11}",
                name,
                policy,
                cell.p99_ms.map_or("n/a".into(), |v| format!("{v:.1}")),
                cell.converge_s.map_or("never".into(), |v| format!("{v:.0}")),
                cell.final_instances,
                cell.peak_instances,
                cell.transitions,
                cell.final_level,
            )?;
            row.push((policy, cell));
        }
        if let [(_, ladder), (_, freeze)] = &row[..] {
            if let (Some(l), Some(f)) = (ladder.p99_ms, freeze.p99_ms) {
                ladder_vs_freeze.push((name, l, f));
            }
        }
    }

    writeln!(cx.out, "\n## ladder vs freeze (post-surge p99)")?;
    for (name, l, f) in &ladder_vs_freeze {
        writeln!(
            cx.out,
            "{name:>14}: ladder {l:.1} ms vs freeze {f:.1} ms ({})",
            if l < f { "ladder better" } else { "freeze no worse" }
        )?;
    }
    // The degradation ladder must strictly beat the freeze strawman where
    // degrading gracefully matters most: lost traces and failed creations.
    for target in ["trace_drop", "creation_fail"] {
        if let Some((_, l, f)) = ladder_vs_freeze.iter().find(|(n, _, _)| *n == target) {
            assert!(l < f, "ladder p99 ({l:.1} ms) must beat freeze ({f:.1} ms) under {target}");
        }
    }
    Ok(())
}
