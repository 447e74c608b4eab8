//! Compute-backend wall-clock benchmark, the repo's perf trajectory recorder.
//!
//! Measures the three hot paths of the GRAF control loop — latency-model
//! training (§3.4), the configuration solver (§3.5) and an end-to-end pilot
//! tick (solve + §6 integer refinement + prediction) — plus raw simulator
//! throughput, and writes the medians into `BENCH_COMPUTE.json` next to the
//! stored baseline so every PR can see the before/after ratio.
//!
//! Flags:
//! * `--out <path>` — write/update the JSON file (preserves an existing
//!   `baseline` section; the fresh numbers go under `current`).
//! * `--as-baseline` — store the fresh numbers as the `baseline` section
//!   instead (used once, before an optimization lands).
//! * `--smoke` — a fast sanity pass (fewer repetitions, no file written
//!   unless `--out` is also given): CI uses it to keep the bench runnable.
//! * `--threads <n>` — worker threads for the training measurements.
//! * `--history <path>` — append one JSONL record per benchmark
//!   (`{rev, bench, median_ms, iqr_ms, mode}`) for `graf-perf compare`.
//! * `--rev <str>` — revision tag for `--history` records (default:
//!   `git rev-parse HEAD`).
//! * `--sim-out <path>` — write the simulator tiers (headline: median + IQR
//!   of the 10 s / ~600 qps Online Boutique run; `benches` array adds the
//!   60 s / ~50k qps tier) to their own small JSON file.

use std::time::Instant;

use graf_bench::perf::{median_iqr, BenchRun};

use graf_core::features::FeatureScaler;
use graf_core::latency_model::{LatencyModel, NetKind, TrainConfig};
use graf_core::sample_collector::{Bounds, Sample};
use graf_core::solver::{integer_refine, solve, SolverConfig};
use graf_gnn::{GnnConfig, GraphSpec, LatencyNet, MicroserviceGnn};
use graf_nn::{Adam, AsymmetricHuber, Matrix};
use graf_sim::rng::DetRng;
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, ServiceId};
use graf_sim::world::{Completion, SimConfig, World};

/// Runs `f` `reps` times (after `warmup` unmeasured runs) and returns the
/// `(median, IQR)` wall-clock in milliseconds. The IQR is the per-run noise
/// estimate `graf-perf compare` weighs regressions against.
fn time_stats_ms(warmup: usize, reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    for _ in 0..warmup {
        f();
    }
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median_iqr(&times)
}

fn chain_edges(n: usize) -> Vec<(u16, u16)> {
    (0..n as u16 - 1).map(|i| (i, i + 1)).collect()
}

fn training_batch(n_nodes: usize, batch: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = DetRng::new(seed);
    let x = Matrix::from_fn(batch, n_nodes * 2, |_, _| rng.unit());
    let y = (0..batch).map(|_| rng.uniform(0.2, 3.0)).collect();
    (x, y)
}

/// One optimizer step at Table-1 batch size on an `n`-node chain GNN.
fn bench_train_step(n: usize, threads: usize, warmup: usize, reps: usize) -> (f64, f64) {
    let (x, y) = training_batch(n, 256, 7);
    let mut rng = DetRng::new(1);
    let mut gnn = MicroserviceGnn::new(
        GraphSpec::from_edges(n, &chain_edges(n)),
        GnnConfig::default(),
        &mut rng,
    );
    gnn.set_threads(threads);
    let loss = AsymmetricHuber::default();
    let mut opt = Adam::new(1e-3);
    let mut drop_rng = DetRng::new(2);
    time_stats_ms(warmup, reps, || {
        gnn.train_step(&x, &y, &loss, &mut opt, &mut drop_rng);
    })
}

/// One pass over a 2560-sample dataset (10 × 256 steps): the "train epoch".
fn bench_train_epoch(n: usize, threads: usize, warmup: usize, reps: usize) -> (f64, f64) {
    let (x, y) = training_batch(n, 2560, 8);
    let mut rng = DetRng::new(1);
    let mut gnn = MicroserviceGnn::new(
        GraphSpec::from_edges(n, &chain_edges(n)),
        GnnConfig::default(),
        &mut rng,
    );
    gnn.set_threads(threads);
    let loss = AsymmetricHuber::default();
    let mut opt = Adam::new(1e-3);
    let mut drop_rng = DetRng::new(2);
    time_stats_ms(warmup, reps, || {
        for b in 0..10 {
            let xb = x.slice_rows(b * 256, (b + 1) * 256);
            let yb = &y[b * 256..(b + 1) * 256];
            gnn.train_step(&xb, yb, &loss, &mut opt, &mut drop_rng);
        }
    })
}

/// The solver-bench scenario: a 6-service chain trained on a synthetic convex
/// latency surface (identical to `benches/solver.rs`).
fn solver_model() -> (LatencyModel, Bounds, Vec<f64>) {
    let works = [0.5, 0.2, 0.4, 0.3, 1.0, 0.8];
    let n = works.len();
    let mut rng = DetRng::new(42);
    let mut samples = Vec::new();
    for _ in 0..800 {
        let w = rng.uniform(50.0, 250.0);
        let quotas: Vec<f64> =
            works.iter().map(|wk| rng.uniform(100.0 + wk * 260.0, 2000.0)).collect();
        let mut p99 = 4.0;
        for i in 0..n {
            let head = (quotas[i] - w * works[i]).max(10.0);
            p99 += 600.0 * works[i] / head + works[i];
        }
        samples.push(Sample {
            api_rates: vec![w],
            workloads: vec![w; n],
            quotas_mc: quotas,
            p99_ms: p99,
        });
    }
    let scaler = FeatureScaler::fit(
        samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
    );
    let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
    let split = ds.split(0.8, 0.1, 1);
    let edges = chain_edges(n);
    let mut model = LatencyModel::new(NetKind::Gnn, &edges, n, scaler, split.train.label_mean(), 3);
    model.train(&split, &TrainConfig { epochs: 30, evals: 5, ..Default::default() });
    let bounds =
        Bounds { lower: works.iter().map(|w| 100.0 + w * 260.0).collect(), upper: vec![2000.0; n] };
    (model, bounds, vec![150.0; n])
}

/// The simulator-bench scenario: 10 s of Online Boutique at ~600 qps.
fn bench_sim_10s(warmup: usize, reps: usize) -> (f64, f64) {
    time_stats_ms(warmup, reps, || {
        let topo = graf_apps::online_boutique();
        let mut w = World::new(topo, SimConfig::default(), 9);
        for s in 0..6u16 {
            w.add_instances(ServiceId(s), 4, 250.0, SimTime::ZERO);
        }
        let mut rng = DetRng::new(9 ^ 0x51);
        for (api, rate) in [(0u16, 180.0f64), (1, 180.0), (2, 240.0)] {
            let mut t = 0.0;
            loop {
                t += rng.exp(1e6 / rate);
                if t >= 10e6 {
                    break;
                }
                w.inject(ApiId(api), SimTime(t as u64));
            }
        }
        w.run_until(SimTime::from_secs(10.0));
    })
}

/// The high-rate simulator tier: 60 s of Online Boutique at ~50k qps —
/// ROADMAP item 1's "millions of users" traffic scale. Run like a real
/// experiment: load injected and completions/traces drained in 1 s segments
/// so memory stays bounded, 1 % trace sampling and a 1 ms CPU-checkpoint
/// resolution (production-style observability settings at this rate).
fn bench_sim_50k(warmup: usize, reps: usize) -> (f64, f64) {
    struct ApiLoad {
        api: u16,
        rng: DetRng,
        mean_us: f64,
        next: f64,
    }
    time_stats_ms(warmup, reps, || {
        let topo = graf_apps::online_boutique();
        let cfg = SimConfig {
            trace_sample: 0.01,
            request_timeout_us: None,
            cpu_checkpoint_us: 1_000,
            ..SimConfig::default()
        };
        let mut w = World::new(topo, cfg, 11);
        // Replica counts sized for ~50 % utilization at the offered load.
        for (s, &n) in [50usize, 16, 26, 42, 70, 30].iter().enumerate() {
            w.add_instances(ServiceId(s as u16), n, 1000.0, SimTime::ZERO);
        }
        let mut loads: Vec<ApiLoad> = [(0u16, 15_000.0f64), (1, 15_000.0), (2, 20_000.0)]
            .iter()
            .map(|&(api, rate)| {
                let mut rng = DetRng::new(11 ^ (0x51 + api as u64));
                let mean_us = 1e6 / rate;
                let next = rng.exp(mean_us);
                ApiLoad { api, rng, mean_us, next }
            })
            .collect();
        let mut sink: Vec<Completion> = Vec::new();
        for seg in 1..=60u64 {
            let seg_end = seg as f64 * 1e6;
            for l in &mut loads {
                while l.next < seg_end {
                    w.inject(ApiId(l.api), SimTime(l.next as u64));
                    l.next += l.rng.exp(l.mean_us);
                }
            }
            w.run_until(SimTime(seg * 1_000_000));
            w.drain_completions_into(&mut sink);
            w.traces_mut().drain_finished();
        }
        assert!(w.stats().completed > 2_500_000, "50k tier actually ran");
    })
}

/// The simulator headline metric's bench id (also the `BENCH_SIM.json` key).
const SIM_BENCH: &str = "sim_boutique_10s_600qps_ms";

/// Bench id of the high-rate tier recorded alongside the headline.
const SIM_BENCH_50K: &str = "sim_boutique_60s_50kqps_ms";

fn measure(smoke: bool, threads: usize) -> Vec<(&'static str, f64, f64)> {
    let (w, r) = if smoke { (1, 3) } else { (3, 15) };
    let mut out = Vec::new();
    let push = |out: &mut Vec<(&'static str, f64, f64)>, k, (med, iqr): (f64, f64)| {
        out.push((k, med, iqr));
    };
    eprintln!("measuring training (threads={threads})...");
    push(&mut out, "train_step_gnn6_b256_ms", bench_train_step(6, threads, w, r));
    push(&mut out, "train_step_gnn10_b256_ms", bench_train_step(10, threads, w, r));
    push(
        &mut out,
        "train_epoch_gnn6_2560_ms",
        bench_train_epoch(6, threads, 1, if smoke { 2 } else { 7 }),
    );
    eprintln!("measuring solver...");
    let (mut model, bounds, workloads) = solver_model();
    let cfg = SolverConfig::default();
    push(
        &mut out,
        "solver_solve_6svc_ms",
        time_stats_ms(w, r, || {
            solve(&mut model, &workloads, 40.0, &bounds, &cfg);
        }),
    );
    push(
        &mut out,
        "pilot_tick_6svc_ms",
        time_stats_ms(w, r, || {
            let res = solve(&mut model, &workloads, 40.0, &bounds, &cfg);
            let (_counts, _pred) =
                integer_refine(&model, &workloads, &res.quotas_mc, &bounds, 100.0, 40.0);
            model.predict_ms(&workloads, &res.quotas_mc);
        }),
    );
    eprintln!("measuring simulator...");
    push(&mut out, SIM_BENCH, bench_sim_10s(if smoke { 0 } else { 1 }, if smoke { 2 } else { 5 }));
    eprintln!("measuring simulator (50k qps tier)...");
    push(
        &mut out,
        SIM_BENCH_50K,
        bench_sim_50k(if smoke { 0 } else { 1 }, if smoke { 1 } else { 5 }),
    );
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn render_section(vals: &[(String, f64)], indent: &str) -> String {
    let body: Vec<String> =
        vals.iter().map(|(k, v)| format!("{indent}  \"{k}\": {v:.4}")).collect();
    format!("{{\n{}\n{indent}}}", body.join(",\n"))
}

/// Pulls `"key": number` pairs out of a named flat JSON object in `text`.
/// Enough of a parser for the file this binary itself writes.
fn parse_section(text: &str, section: &str) -> Vec<(String, f64)> {
    let Some(start) = text.find(&format!("\"{section}\"")) else { return Vec::new() };
    let Some(open) = text[start..].find('{') else { return Vec::new() };
    let body_start = start + open + 1;
    let Some(close) = text[body_start..].find('}') else { return Vec::new() };
    let body = &text[body_start..body_start + close];
    let mut out = Vec::new();
    for pair in body.split(',') {
        let mut it = pair.splitn(2, ':');
        let (Some(k), Some(v)) = (it.next(), it.next()) else { continue };
        let k = k.trim().trim_matches('"').to_string();
        if let Ok(v) = v.trim().parse::<f64>() {
            out.push((k, v));
        }
    }
    out
}

/// The current git HEAD SHA, or `"unknown"` outside a work tree.
fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut sim_out_path: Option<String> = None;
    let mut history_path: Option<String> = None;
    let mut rev: Option<String> = None;
    let mut as_baseline = false;
    let mut smoke = false;
    let mut threads = 1usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = Some(it.next().expect("--out needs a path")),
            "--sim-out" => sim_out_path = Some(it.next().expect("--sim-out needs a path")),
            "--history" => history_path = Some(it.next().expect("--history needs a path")),
            "--rev" => rev = Some(it.next().expect("--rev needs a string")),
            "--as-baseline" => as_baseline = true,
            "--smoke" => smoke = true,
            "--threads" => {
                threads = it.next().and_then(|v| v.parse().ok()).expect("--threads needs a usize");
            }
            other => panic!("unknown flag {other}"),
        }
    }

    let stats: Vec<(String, f64, f64)> =
        measure(smoke, threads).into_iter().map(|(k, m, i)| (k.to_string(), m, i)).collect();
    let fresh: Vec<(String, f64)> = stats.iter().map(|(k, m, _)| (k.clone(), *m)).collect();

    println!("\n{:<34} {:>12} {:>10}", "metric", "median ms", "iqr ms");
    for (k, m, i) in &stats {
        println!("{k:<34} {m:>12.4} {i:>10.4}");
    }

    if let Some(path) = &history_path {
        let rev = rev.unwrap_or_else(git_head);
        let mode = if smoke { "smoke" } else { "full" };
        let mut lines = String::new();
        for (k, m, i) in &stats {
            let run = BenchRun {
                rev: rev.clone(),
                bench: k.clone(),
                median_ms: *m,
                iqr_ms: *i,
                mode: mode.to_string(),
            };
            lines.push_str(&run.to_json());
            lines.push('\n');
        }
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("opening {path}: {e}"));
        f.write_all(lines.as_bytes()).unwrap_or_else(|e| panic!("appending to {path}: {e}"));
        println!(
            "\nappended {} run(s) for rev {} to {path}",
            stats.len(),
            &rev[..rev.len().min(12)]
        );
    }

    if let Some(path) = &sim_out_path {
        let mode = if smoke { "smoke" } else { "full" };
        assert!(
            stats.iter().any(|(k, _, _)| k == SIM_BENCH),
            "headline bench {SIM_BENCH} was not measured"
        );
        // The top level is a named *pointer* into `benches` — the headline
        // tier's numbers exist exactly once, so pointer and entry can never
        // drift apart (readers: `graf_bench::perf::parse_bench_sim`).
        let entries: Vec<String> = stats
            .iter()
            .filter(|(k, _, _)| k.starts_with("sim_"))
            .map(|(k, em, ei)| {
                format!(
                    "    {{ \"bench\": \"{k}\", \"median_ms\": {em:.4}, \"iqr_ms\": {ei:.4}, \"mode\": \"{mode}\" }}"
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"headline\": \"{SIM_BENCH}\",\n  \"benches\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("simulator tiers written to {path}");
    }

    let Some(path) = out_path else {
        println!("\n(no --out given; compute summary not written)");
        return;
    };
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let baseline = if as_baseline {
        fresh.clone()
    } else {
        let b = parse_section(&existing, "baseline");
        if b.is_empty() {
            fresh.clone()
        } else {
            b
        }
    };

    let mut speedups = Vec::new();
    for (k, cur) in &fresh {
        if let Some((_, base)) = baseline.iter().find(|(bk, _)| bk == k) {
            if *cur > 0.0 {
                speedups.push((format!("{k}_x"), base / cur));
            }
        }
    }
    println!();
    for (k, x) in &speedups {
        println!("{k:<34} {x:>11.2}x");
    }

    let json = format!(
        "{{\n  \"machine\": {{\n    \"cpu_model\": \"{}\",\n    \"cpus\": {},\n    \"os\": \"{} {}\",\n    \"threads_flag\": {}\n  }},\n  \"baseline\": {},\n  \"current\": {},\n  \"speedup_vs_baseline\": {}\n}}\n",
        cpu_model(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::consts::OS,
        std::env::consts::ARCH,
        threads,
        render_section(&baseline, "  "),
        render_section(&fresh, "  "),
        render_section(&speedups, "  "),
    );
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwritten to {path}");
}
