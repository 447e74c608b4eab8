//! `graf-exp sweep`: grid axes mapped onto concrete GRAF scenarios, and the
//! command that runs them.
//!
//! The sweep machinery ([`crate::grid`], [`crate::run`], [`crate::record`],
//! [`crate::report`]) is scenario-agnostic — axes and values are strings.
//! This module gives those strings meaning:
//!
//! | axis | values | default |
//! |---|---|---|
//! | `app` | `boutique`, `social`, `robot_shop`, `bookinfo` | `boutique` |
//! | `slo` | end-to-end p99 SLO in ms (any positive number) | the app's standard SLO |
//! | `surge` | `none`, `step`, `ramp`, `spike` | `none` |
//! | `chaos` | the `graf_chaos::CATALOG` names | `none` |
//! | `policy` | `hpa`, `firm`, `static`, `graf`, `ladder` | — (required) |
//! | `load` | base-load multiplier (any positive number) | `1` |
//!
//! Every cell replays the Figure-21-style scenario: warm up at a base user
//! population, optionally surge at `SURGE_S`, inject the cell's fault class
//! over a window bracketing the surge, and report post-surge tail latency,
//! convergence time and instance usage.
//!
//! **Seed discipline.** The cell seed (derived by [`run_sweep`] from
//! `(grid_seed, cell key)`) drives the simulated world and the load
//! generator. Model training uses the *grid* seed: the paper trains one
//! model per application and reuses it for every result, so all cells of a
//! sweep — on whichever worker — take their model from the runner's one
//! cache ([`Ctx::graf`]), built once per process, and a cell's result
//! cannot depend on which other cells asked first.
//!
//! `sweep` prints a table and writes the aggregated JSONL report (`--out`),
//! byte-identical for any worker count; failing cells become error records
//! and the exit code is non-zero at the end.

use std::io::{self, Write};

use graf_core::{PolicyMode, ResilientConfig, ResilientController};
use graf_loadgen::ClosedLoop;
use graf_orchestrator::{Autoscaler, Cluster, FirmLike, HpaConfig, KubernetesHpa, StaticScaler};
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::ApiId;
use graf_sim::world::{SimConfig, World};

use crate::exp::Ctx;
use crate::grid::{Cell, Grid};
use crate::record::CellResult;
use crate::report::{aggregate, render_table};
use crate::run::run_sweep;
use crate::standard::{
    bookinfo_setup, boutique_setup, fault_window, hottest_service, robot_shop_setup, social_setup,
    AppSetup,
};
use crate::timeline::{
    convergence_time_s, final_instances, mean_instances, peak_instances, percentile_between,
    run_with_timeline,
};

/// Axis names this mapper understands, sorted.
pub const KNOWN_AXES: &[&str] = &["app", "chaos", "load", "policy", "slo", "surge"];

/// Application axis values.
pub const APPS: &[&str] = &["boutique", "social", "robot_shop", "bookinfo"];

/// Surge-shape axis values.
pub const SURGES: &[&str] = &["none", "step", "ramp", "spike"];

/// Controller-policy axis values.
pub const POLICIES: &[&str] = &["hpa", "firm", "static", "graf", "ladder"];

/// Named grid presets (`--grid @smoke` etc.).
///
/// * `@smoke` — 2×2 cells, HPA only (no model training): the CI
///   worker-count-invariance check.
/// * `@default` — the everyday sweep: GRAF vs HPA across SLOs and surge
///   shapes on Online Boutique.
/// * `@fleet` — the full matrix: every app, four policies, surges and the
///   high-signal fault classes.
pub const PRESETS: &[(&str, &str)] = &[
    ("@smoke", "app=boutique;policy=hpa;slo=60,90;surge=none,step"),
    ("@default", "app=boutique;policy=graf,hpa;slo=60,90;surge=none,step,spike"),
    (
        "@fleet",
        "app=boutique,social,robot_shop,bookinfo;policy=graf,hpa,firm,ladder;\
         slo=60,90;surge=step,spike;chaos=none,trace_drop,creation_fail",
    ),
];

/// Scenario clock: warmup until the surge fires, then a measurement window.
const SURGE_S: f64 = 180.0;
const END_S: f64 = 480.0;
/// Quick mode shrinks the whole timeline (budget knob, not a claim knob).
const QUICK_SURGE_S: f64 = 60.0;
const QUICK_END_S: f64 = 180.0;
/// Fault window bracketing the surge, relative to the surge time.
const FAULT_LEAD_S: f64 = 30.0;
const FAULT_TAIL_S: f64 = 120.0;

/// Resolves a grid spec — either a `@preset` name or a literal
/// `axis=v1,v2;axis2=v3` spec — and validates every axis and value.
pub fn resolve_grid(spec: &str) -> Result<Grid, String> {
    let literal = if spec.starts_with('@') {
        PRESETS.iter().find(|(name, _)| *name == spec).map(|&(_, s)| s).ok_or_else(|| {
            let names: Vec<&str> = PRESETS.iter().map(|&(n, _)| n).collect();
            format!("unknown preset {spec:?}; available: {}", names.join(", "))
        })?
    } else {
        spec
    };
    let grid = Grid::parse(literal)?;
    validate(&grid)?;
    Ok(grid)
}

/// Validates axis names and values so typos fail before the fleet spins up.
pub fn validate(grid: &Grid) -> Result<(), String> {
    let mut has_policy = false;
    for axis in grid.axes() {
        match axis.name.as_str() {
            "app" => check_values(&axis.values, APPS, "app")?,
            "surge" => check_values(&axis.values, SURGES, "surge")?,
            "policy" => {
                has_policy = true;
                check_values(&axis.values, POLICIES, "policy")?;
            }
            "chaos" => check_values(&axis.values, graf_chaos::CATALOG, "chaos")?,
            "slo" => check_numbers(&axis.values, "slo")?,
            "load" => check_numbers(&axis.values, "load")?,
            other => {
                return Err(format!(
                    "unknown axis {other:?}; known axes: {}",
                    KNOWN_AXES.join(", ")
                ))
            }
        }
    }
    if !has_policy {
        return Err("grid must include a `policy` axis".to_string());
    }
    Ok(())
}

fn check_values(values: &[String], known: &[&str], axis: &str) -> Result<(), String> {
    for v in values {
        if !known.contains(&v.as_str()) {
            return Err(format!("unknown {axis} value {v:?}; known: {}", known.join(", ")));
        }
    }
    Ok(())
}

fn check_numbers(values: &[String], axis: &str) -> Result<(), String> {
    for v in values {
        let ok = v.parse::<f64>().map(|x| x.is_finite() && x > 0.0).unwrap_or(false);
        if !ok {
            return Err(format!("{axis} value {v:?} is not a positive number"));
        }
    }
    Ok(())
}

/// Evaluates one cell under its derived seed; `graf`/`ladder` cells take
/// the application's model from `cx`'s shared cache. Errors (unknown values —
/// normally caught by [`validate`] — or degenerate scenarios) become error
/// records; the fleet keeps going.
pub fn run_cell(cx: &Ctx, cell: &Cell, seed: u64) -> Result<CellResult, String> {
    let app = cell.get("app").unwrap_or("boutique");
    let setup = match app {
        "boutique" => boutique_setup(),
        "social" => social_setup(),
        "robot_shop" => robot_shop_setup(),
        "bookinfo" => bookinfo_setup(),
        other => return Err(format!("unknown app {other:?}")),
    };
    let slo_ms = match cell.get("slo") {
        Some(v) => v.parse::<f64>().map_err(|_| format!("slo value {v:?} is not a number"))?,
        None => setup.slo_ms,
    };
    let load = match cell.get("load") {
        Some(v) => v.parse::<f64>().map_err(|_| format!("load value {v:?} is not a number"))?,
        None => 1.0,
    };
    if !(slo_ms > 0.0 && load > 0.0) {
        return Err(format!("slo ({slo_ms}) and load ({load}) must be positive"));
    }
    let surge = cell.get("surge").unwrap_or("none");
    let chaos = cell.get("chaos").unwrap_or("none");
    let policy = cell.get("policy").ok_or("cell has no policy axis")?.to_string();

    let (surge_s, end_s) =
        if cx.args.quick { (QUICK_SURGE_S, QUICK_END_S) } else { (SURGE_S, END_S) };

    let topo = setup.topo.clone();
    let num_services = topo.num_services();
    let faults = graf_chaos::named_faults(chaos, hottest_service(&topo))
        .ok_or_else(|| format!("unknown chaos {chaos:?}"))?;
    // The fault window brackets the surge.
    let sched =
        fault_window(faults, seed, (surge_s - FAULT_LEAD_S).max(0.0), surge_s + FAULT_TAIL_S);

    // Only the ladder reads traces (its coverage check); other worlds keep none.
    let trace_sample = if policy == "ladder" { 1.0 } else { 0.0 };
    let world = World::new(topo, SimConfig { trace_sample, ..SimConfig::default() }, seed);
    let mut cluster = Cluster::uniform(world, setup.cpu_unit_mc, 4);
    if !sched.is_empty() {
        cluster.arm_chaos(&sched);
    }

    let mut users = users_loadgen(&setup, surge, load, surge_s, seed)?;

    let mut scaler: Box<dyn Autoscaler> = match policy.as_str() {
        "static" => Box::new(StaticScaler),
        "hpa" => Box::new(KubernetesHpa::new(HpaConfig::with_threshold(0.5), num_services)),
        "firm" => Box::new(FirmLike { latency_ceiling: SimDuration::from_millis(slo_ms * 1.5) }),
        "graf" => Box::new(cx.graf(&setup).controller(slo_ms)),
        "ladder" => {
            let ctrl = cx.graf(&setup).controller(slo_ms);
            let mut rc = ResilientController::new(
                ctrl,
                ResilientConfig { mode: PolicyMode::Ladder, ..ResilientConfig::default() },
            );
            if !sched.is_empty() {
                rc.arm_chaos(&sched);
            }
            Box::new(rc)
        }
        other => return Err(format!("unknown policy {other:?}")),
    };

    let (tl, comps) = run_with_timeline(&mut cluster, &mut users, scaler.as_mut(), end_s, 5.0);

    // All window metrics cover [surge_s, end_s) — the post-surge period,
    // or simply the steady tail when surge=none.
    let window: Vec<&graf_sim::world::Completion> = comps
        .iter()
        .filter(|c| {
            let t = c.end.as_secs_f64();
            t >= surge_s && t < end_s
        })
        .collect();
    let completed = window.len();
    let timeouts = window.iter().filter(|c| c.timed_out).count();
    let within_slo =
        window.iter().filter(|c| !c.timed_out && c.latency_us() as f64 / 1000.0 <= slo_ms).count();

    let mut r = CellResult::default();
    r.push("completed", completed as f64);
    r.push("timeouts", timeouts as f64);
    r.push("p99_ms", percentile_between(&comps, surge_s, end_s, 0.99).unwrap_or(-1.0));
    r.push("converge_s", convergence_time_s(&tl, surge_s, slo_ms, 4).unwrap_or(-1.0));
    r.push("slo_attained", if completed > 0 { within_slo as f64 / completed as f64 } else { -1.0 });
    r.push("final_instances", final_instances(&tl) as f64);
    r.push("peak_instances", peak_instances(&tl, surge_s) as f64);
    r.push("mean_instances", mean_instances(&tl, surge_s, f64::INFINITY).unwrap_or(-1.0));
    Ok(r)
}

/// Builds the cell's closed-loop population: a base population sized to the
/// app's trained operating point (scaled by `load`), then the surge shape.
fn users_loadgen(
    setup: &AppSetup,
    surge: &str,
    load: f64,
    surge_s: f64,
    seed: u64,
) -> Result<ClosedLoop, String> {
    let mix: Vec<(ApiId, f64)> =
        setup.probe_qps.iter().enumerate().map(|(i, &q)| (ApiId(i as u16), q)).collect();
    // ~2.5 users per probe req/s puts the population at the trained
    // operating point (think time U[0, 5 s]); base load holds at half that.
    let base = ((setup.probe_qps.iter().sum::<f64>() * 1.25 * load).round() as usize).max(1);
    let mut users = ClosedLoop::with_mix(mix, base, seed ^ 0x21);
    match surge {
        "none" => {}
        "step" => users.set_users(SimTime::from_secs(surge_s), base * 2),
        "ramp" => {
            // Linear climb to 2× over eight 15 s steps.
            for k in 1..=8usize {
                users.set_users(
                    SimTime::from_secs(surge_s + (k as f64 - 1.0) * 15.0),
                    base + base * k / 8,
                );
            }
        }
        "spike" => {
            users.set_users(SimTime::from_secs(surge_s), base * 3);
            users.set_users(SimTime::from_secs(surge_s + 60.0), base);
        }
        other => return Err(format!("unknown surge {other:?}")),
    }
    Ok(users)
}

/// `graf-exp sweep`: evaluates every cell of `--grid` on up to `workers`
/// threads, prints the table and writes `--out`. Returns the number of
/// failed cells; nothing runs if the grid is invalid.
pub fn sweep(cx: &mut Ctx, workers: usize) -> io::Result<usize> {
    let args = cx.args.clone();
    let spec = args.grid.as_deref().unwrap_or_default();
    let grid = resolve_grid(spec).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let quick = if args.quick { "  (quick)" } else { "" };
    let (cells, seed) = (grid.num_cells(), args.seed);
    writeln!(cx.out, "graf-exp sweep  grid={spec}  cells={cells}  seed={seed}{quick}")?;

    let shared: &Ctx = cx;
    let records = run_sweep(&grid, seed, workers, |cell, seed| run_cell(shared, cell, seed));
    if let Some(path) = &args.out {
        std::fs::write(path, aggregate(&records))
            .map_err(|e| io::Error::new(e.kind(), format!("{path}: {e}")))?;
        writeln!(cx.out, "aggregated report written to {path}")?;
    }
    writeln!(cx.out, "\n{}", render_table(&records))?;
    let failed = records.iter().filter(|r| r.error.is_some()).count();
    if failed > 0 {
        writeln!(cx.out, "{failed}/{cells} cell(s) FAILED")?;
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Args;
    use graf_sim::rng::derive_seed;

    fn quick_ctx() -> Ctx {
        Ctx::new(Args { quick: true, ..Args::default() }, Box::new(io::sink())).expect("no path")
    }

    #[test]
    fn presets_resolve_and_validate() {
        for (name, _) in PRESETS {
            let grid = resolve_grid(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!grid.cells().is_empty());
        }
        assert_eq!(resolve_grid("@smoke").unwrap().cells().len(), 4);
        assert!(resolve_grid("@bogus").unwrap_err().contains("unknown preset"));
    }

    #[test]
    fn validation_rejects_typos() {
        let bad_axis = Grid::parse("policy=hpa;zone=us").unwrap();
        assert!(validate(&bad_axis).unwrap_err().contains("unknown axis"));
        let bad_value = Grid::parse("policy=hpa;app=buotique").unwrap();
        assert!(validate(&bad_value).unwrap_err().contains("unknown app value"));
        let bad_slo = Grid::parse("policy=hpa;slo=-5").unwrap();
        assert!(validate(&bad_slo).unwrap_err().contains("positive number"));
        let no_policy = Grid::parse("app=boutique").unwrap();
        assert!(validate(&no_policy).unwrap_err().contains("policy"));
    }

    #[test]
    fn smoke_cell_runs_deterministically() {
        let grid = resolve_grid("@smoke").unwrap();
        let cell = &grid.cells()[0];
        let seed = derive_seed(7, &cell.key());
        let a = run_cell(&quick_ctx(), cell, seed).unwrap();
        let b = run_cell(&quick_ctx(), cell, seed).unwrap();
        assert_eq!(a, b, "same cell + seed → identical metrics");
        assert!(a.get("completed").unwrap_or(0.0) > 0.0, "requests completed");
    }

    #[test]
    fn unknown_cell_values_are_runtime_errors_not_panics() {
        let cx = quick_ctx();
        for spec in ["app=nope;policy=hpa", "policy=nope"] {
            let cell = &Grid::parse(spec).expect("parseable spec").cells()[0];
            assert!(run_cell(&cx, cell, 1).is_err(), "{spec}");
        }
    }
}
