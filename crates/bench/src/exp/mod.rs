//! The experiments behind the paper's tables and figures, and the one runner
//! (`graf-exp`) that executes them.
//!
//! Every experiment is a module with a single entry point
//! `run(cx: &mut Ctx) -> io::Result<()>` that writes its artefact to
//! `cx.out`; [`REGISTRY`] is the only list of them. [`Ctx`] holds what the
//! paper builds once and reuses for every result: the parsed flags, the
//! telemetry handle, the trained pipelines and the tuned HPA thresholds. A
//! cached pipeline is the one place an application is profiled, bounded by
//! Algorithm 1, sampled and trained; experiments read its analyzer, box and
//! collector, and retrain on its samples through [`Graf::retrain`].

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use graf_core::baseline::{tune_hpa_threshold, SteadyOutcome};
use graf_core::{Graf, GrafBuildConfig, GrafController};
use graf_sim::par::{fan_out, panic_message};

use crate::standard::{build_config, AppSetup, ModelCache};
use crate::Args;

/// One experiment: name (also its `results/<name>.txt` stem), one-line
/// description, entry point.
pub type Entry = (&'static str, &'static str, fn(&mut Ctx) -> io::Result<()>);

macro_rules! experiments {
    ($($name:ident: $what:literal,)*) => {
        $(mod $name;)*
        /// Every experiment, in the order `graf-exp all` starts them.
        pub const REGISTRY: &[Entry] = &[$((stringify!($name), $what, $name::run)),*];
    };
}

experiments! {
    fig01_instance_creation: "Fig 1: seconds to create a batch of 1..16 instances",
    topologies: "Figs 4, 5, 10: the benchmark applications as Graphviz DOT",
    fig02_03_surge_hpa: "Figs 2-3: proactive scaling vs HPA thresholds through a cart-page surge",
    fig06_latency_curves: "Fig 6: per-service p50 latency against CPU quota",
    fig07_cascading: "Fig 7: when each service perceives a surge (the cascading effect)",
    table1_hyperparams: "Table 1: training hyper-parameters",
    table2_prediction_error: "Table 2: prediction error by p99-latency region",
    fig11_ablation_mpnn: "Fig 11: learning curves, GRAF vs GRAF without MPNN",
    fig12_loss_heatmap: "Fig 12: solver loss over two services' quotas",
    fig13_search_space: "Fig 13: Algorithm 1's reduced search space",
    fig14_16_resource_saving: "Figs 14-16: steady-state CPU, GRAF vs the tuned HPA",
    fig17_slo_targeting: "Fig 17: measured p99 against the targeted SLO",
    fig18_user_scaling: "Fig 18: instances saved across user counts",
    fig19_cost_benefit: "Fig 19: cost-benefit frontier",
    table3_budget: "Table 3: AWS budget for sampling and training",
    fig20_real_workload: "Fig 20: instances under an Azure-like minute series",
    fig21_22_surge_comparison: "Figs 21-22: surge handling, GRAF vs HPA vs FIRM-like",
    chaos_matrix: "fault class x degradation policy under a surge (--chaos CLASS)",
    solver_latency: "sec. 3.8: solver wall-clock latency and iteration counts",
    ablation_loss: "ablation: asymmetric Huber loss against its variants",
    ablation_sampling: "ablation: Algorithm 1's box against naive full-range sampling",
    ablation_integer: "ablation: eq. 7's ceil against integer refinement",
}

/// What the experiments of one `graf-exp` process share, and where the
/// running one writes. Its caches hold one [`Graf`] per distinct setup —
/// profile, Algorithm-1 box, samples, trained model and the collector that
/// measured them — and one tuned HPA threshold per application and SLO.
pub struct Ctx {
    /// The flags, parsed once.
    pub args: Args,
    /// The one telemetry handle (`--telemetry`); disabled when the flag is unset.
    pub obs: graf_obs::Obs,
    /// Where the running experiment writes its artefact (shareable, so `all`
    /// workers can read the rest of the context while none of them writes).
    pub out: Box<dyn Write + Send + Sync>,
    caches: Arc<Caches>,
}

/// Built once per process, whichever experiment (on whichever `run_all`
/// worker) asks first; a second asker waits for the first to finish.
#[derive(Default)]
struct Caches {
    models: Mutex<ModelCache>,
    thresholds: Mutex<BTreeMap<String, (f64, SteadyOutcome)>>,
}

/// A build or tuning that panics leaves its map as it was, so a poisoned
/// cache is still valid: the next asker retries and reports the real panic.
fn lock<T>(cache: &Mutex<T>) -> MutexGuard<'_, T> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Ctx {
    /// A context writing to `out`; fails when `--telemetry` names an
    /// unwritable path.
    pub fn new(args: Args, out: Box<dyn Write + Send + Sync>) -> Result<Self, String> {
        let obs = args.obs()?;
        Ok(Self { args, obs, out, caches: Arc::default() })
    }

    /// The standard trained pipeline for `setup`, built on first request.
    pub fn graf(&self, setup: &AppSetup) -> Graf {
        self.graf_with(setup, || build_config(setup, &self.args))
    }

    /// [`Ctx::graf`] for an experiment with its own build scale. The caller
    /// gets its own copy, whose collector reports through the caller's
    /// handle: a `Graf` cannot be shared between threads.
    pub fn graf_with(&self, setup: &AppSetup, cfg: impl FnOnce() -> GrafBuildConfig) -> Graf {
        let mut graf = lock(&self.caches.models).get(setup, &self.obs, cfg).clone();
        graf.collector = graf.collector.with_obs(self.obs.clone());
        graf
    }

    /// A controller over `graf` targeting `slo_ms`, reporting through the
    /// telemetry handle.
    pub fn controller(&self, graf: &Graf, slo_ms: f64) -> GrafController {
        let mut ctrl = graf.controller(slo_ms);
        ctrl.set_obs(self.obs.clone());
        ctrl
    }

    /// The HPA threshold hand-tuned once for `setup`'s SLO (§5.3), with the
    /// outcome of the winning steady-state trial.
    pub fn hpa_threshold(&self, setup: &AppSetup) -> (f64, SteadyOutcome) {
        // The paper hand-tunes one global threshold; candidates 0.85 down to
        // 0.05 give that search 10 %-step granularity.
        let grid: Vec<f64> = (1..=9).map(|i| 0.05 + 0.1 * (9 - i) as f64).collect();
        let tune = || tune_hpa_threshold(&setup.steady_trial(), setup.slo_ms, &grid);
        let key = format!("{} slo={}", setup.topo.name, setup.slo_ms);
        let mut tuned = lock(&self.caches.thresholds);
        tuned.entry(key).or_insert_with(tune).clone()
    }

    /// Model builds and HPA tunings performed so far (the caches' misses).
    pub fn cache_misses(&self) -> (usize, usize) {
        let models = lock(&self.caches.models);
        let tuned = lock(&self.caches.thresholds);
        (models.misses(), tuned.len())
    }

    /// Ends a telemetry session: writes the JSONL dump to the `--telemetry`
    /// path and the summary table to `out`. No-op when telemetry is off.
    pub fn finish_telemetry(&mut self) -> io::Result<()> {
        let Some(path) = &self.args.telemetry else { return Ok(()) };
        self.obs.write_jsonl_path(Path::new(path))?;
        writeln!(self.out, "\n{}", self.obs.summary())?;
        writeln!(self.out, "telemetry written to {path}")
    }
}

/// Runs one experiment on `cx`; a panic or an I/O error comes back as its
/// message, and whatever it recorded stays in `cx.obs`.
fn run_caught(run: fn(&mut Ctx) -> io::Result<()>, cx: &mut Ctx) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| run(cx))) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(panic) => Err(format!("panicked: {}", panic_message(&*panic))),
    }
}

/// Runs experiment `name` into `path` on a context of its own that shares
/// `cx`'s flags, caches and telemetry sink, scoped by `exp = name`; a panic
/// or an I/O error comes back as its message.
fn run_into(path: &Path, (name, _, run): Entry, cx: &Ctx) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let (args, obs, caches) = (cx.args.clone(), cx.obs.scoped("exp", name), cx.caches.clone());
    run_caught(run, &mut Ctx { args, obs, out: Box::new(file), caches })
}

/// `graf-exp <name>`: runs one experiment on `cx` the way [`run_all`] runs
/// each, so a panic is reported (`panicked: <msg>` on stderr) rather than
/// aborting the process, and the caller still writes the telemetry recorded
/// up to the failure, scoped by `exp = name`. Returns the number of
/// failures, 0 or 1.
pub fn run_one((name, _, run): Entry, cx: &mut Ctx) -> usize {
    cx.obs = cx.obs.scoped("exp", name);
    match run_caught(run, cx) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("graf-exp: {e}");
            1
        }
    }
}

/// Runs every entry of `registry`, each writing `<dir>/<name>.txt`, on the
/// workspace's worker pool ([`fan_out`], one worker per core), then reports
/// one progress line per entry on `cx.out`, in registry order. The artefacts
/// do not depend on the schedule: experiments share only the caches, whose
/// contents are a function of the flags. An experiment that panics or fails
/// to write is recorded and the rest still run; returns the number that
/// failed.
pub fn run_all(registry: &[Entry], cx: &mut Ctx, dir: &Path) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let path = |name: &str| dir.join(format!("{name}.txt"));
    let shared: &Ctx = cx;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results =
        fan_out(registry.len(), workers, |i| run_into(&path(registry[i].0), registry[i], shared));
    let mut failed = Vec::new();
    for (&(name, _, _), result) in registry.iter().zip(results) {
        match result {
            Ok(()) => writeln!(cx.out, "ok   {name}")?,
            Err(e) => {
                writeln!(cx.out, "FAIL {name} (output: {}): {e}", path(name).display())?;
                failed.push(name);
            }
        }
    }
    let (builds, tunings) = cx.cache_misses();
    writeln!(
        cx.out,
        "\n{}/{} experiments passed ({builds} model builds, {tunings} HPA tunings); outputs in {}/",
        registry.len() - failed.len(),
        registry.len(),
        dir.display()
    )?;
    if !failed.is_empty() {
        writeln!(cx.out, "FAILED: {}", failed.join(", "))?;
    }
    Ok(failed.len())
}

fn usage(error: &str) -> ExitCode {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.0).collect();
    eprintln!(
        "graf-exp: {error}\n\
         usage: graf-exp list\n\
         \x20      graf-exp <EXPERIMENT | all> [--seed U64] [--quick] [--paper-scale] [--samples N]\n\
         \x20               [--threads N] [--telemetry PATH] [--chaos CLASS]\n\
         `all` runs every experiment into results/<name>.txt. Experiments:\n  {}",
        names.join("\n  ")
    );
    ExitCode::from(2)
}

/// The `graf-exp` command line: `list`, `<name> [flags]` or `all [flags]`.
pub fn cli(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let Some(cmd) = argv.next() else { return usage("no experiment named") };
    let entry = REGISTRY.iter().find(|e| e.0 == cmd);
    if entry.is_none() && !["all", "list"].contains(&cmd.as_str()) {
        return usage(&format!("unknown experiment {cmd}"));
    }
    let args = match Args::from_args(&cmd, argv) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    if cmd == "list" {
        for (name, what, _) in REGISTRY {
            println!("{name:<26} {what}");
        }
        return ExitCode::SUCCESS;
    }
    let mut cx = match Ctx::new(args, Box::new(io::stdout())) {
        Ok(cx) => cx,
        Err(e) => return usage(&e),
    };
    let failed = match entry {
        Some(&entry) => Ok(run_one(entry, &mut cx)),
        None => run_all(REGISTRY, &mut cx, Path::new("results")),
    };
    match failed.and_then(|n| cx.finish_telemetry().map(|()| n)) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("graf-exp: {e}");
            ExitCode::FAILURE
        }
    }
}
