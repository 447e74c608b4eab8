//! `graf-sweep` — the sharded scenario-sweep fleet.
//!
//! ```text
//! graf-sweep run --grid <spec|@preset> [--workers N] [--seed U64] [--out PATH]
//!                [--log-dir DIR] [--quick] [--samples N] [--threads N]
//!                [--history PATH] [--rev REV]
//! graf-sweep compare <revA> <revB> [--history PATH] [--gate METRIC]
//!                [--threshold PCT] [--strict]
//! ```
//!
//! `run` expands a declarative grid (`app=boutique;slo=60,90;policy=graf,hpa`
//! or a preset like `@smoke`) into cells, derives each cell's seed from
//! `(grid seed, cell key)`, shards cells across worker threads, and merges
//! the per-worker JSONL streams into one ordered report — byte-identical for
//! any `--workers` value. Failing cells become error records and the sweep
//! keeps going; the exit code is nonzero at the end if any cell failed.
//!
//! `compare` diffs two revisions' sweeps recorded in a history file (written
//! by `run --history --rev`), gating on one metric (default `p99_ms`,
//! higher-is-worse). Missing cells are warned loudly on stderr; `--strict`
//! turns a cell-coverage mismatch into a failure when both revisions have
//! history.

use std::path::PathBuf;
use std::process::Command;

use graf_bench::sweepgrid::{resolve_grid, CellRunner};
use graf_bench::Args;
use graf_sweep::{
    aggregate, compare, record, render_compare, render_table, run_sweep, CellRecord, SweepConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: graf-sweep run --grid <spec|@preset> [--workers N] [--seed U64] [--out PATH]\n\
         \x20                  [--log-dir DIR] [--quick] [--samples N] [--threads N]\n\
         \x20                  [--history PATH] [--rev REV]\n\
         \x20      graf-sweep compare <revA> <revB> [--history PATH] [--gate METRIC]\n\
         \x20                  [--threshold PCT] [--strict]"
    );
    std::process::exit(2);
}

/// Resolves a symbolic revision to a full SHA via `git rev-parse`, falling
/// back to the literal input (so synthetic histories work without git).
fn resolve_rev(rev: &str) -> String {
    let out = Command::new("git").args(["rev-parse", &format!("{rev}^{{commit}}")]).output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => rev.to_string(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) {
    let mut grid_spec: Option<String> = None;
    let mut workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    // The grid seed and the scale every cell shares.
    let mut scale = Args::default();
    let mut out: Option<PathBuf> = None;
    let mut log_dir: Option<PathBuf> = None;
    let mut history: Option<PathBuf> = None;
    let mut rev: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--grid" => grid_spec = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                scale.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--log-dir" => log_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--quick" => scale.quick = true,
            "--samples" => {
                scale.samples =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--threads" => {
                scale.threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--history" => history = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--rev" => rev = Some(it.next().unwrap_or_else(|| usage()).clone()),
            _ => usage(),
        }
    }
    let Some(grid_spec) = grid_spec else { usage() };
    let seed = scale.seed;
    let grid = resolve_grid(&grid_spec).unwrap_or_else(|e| {
        eprintln!("graf-sweep: {e}");
        std::process::exit(2);
    });

    if let Some(dir) = &log_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("graf-sweep: cannot create log dir {}: {e}", dir.display());
            std::process::exit(2);
        });
    }

    println!(
        "graf-sweep run  grid={grid_spec}  cells={}  workers={workers}  seed={seed}{}",
        grid.num_cells(),
        if scale.quick { "  (quick)" } else { "" }
    );

    let cfg = SweepConfig { workers, grid_seed: seed, worker_log_dir: log_dir.clone() };
    let reports = run_sweep(&grid, &cfg, |_worker| {
        let mut runner = CellRunner::new(scale.clone());
        move |cell: &graf_sweep::Cell, cell_seed: u64| runner.run_cell(cell, cell_seed)
    });

    let records: Vec<CellRecord> = reports.into_iter().flat_map(|r| r.records).collect();
    let failed: Vec<&CellRecord> = records.iter().filter(|r| r.error.is_some()).collect();
    for r in &failed {
        eprintln!(
            "graf-sweep: cell {} FAILED: {}",
            r.cell,
            r.error.as_deref().unwrap_or("unknown")
        );
    }

    let aggregated = aggregate(records.clone()).unwrap_or_else(|e| {
        eprintln!("graf-sweep: aggregation failed: {e}");
        std::process::exit(1);
    });
    if let Some(path) = &out {
        std::fs::write(path, &aggregated).unwrap_or_else(|e| {
            eprintln!("graf-sweep: cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("aggregated report written to {}", path.display());
    }

    println!("\n{}", render_table(&records));

    if let Some(path) = &history {
        let full_rev = rev.map(|r| resolve_rev(&r)).unwrap_or_else(|| resolve_rev("HEAD"));
        let mut sink = graf_obs::JsonlSink::append(path).unwrap_or_else(|e| {
            eprintln!("graf-sweep: cannot append to {}: {e}", path.display());
            std::process::exit(1);
        });
        for r in &records {
            let mut tagged = (*r).clone();
            tagged.rev = Some(full_rev.clone());
            sink.record(&tagged.to_json()).unwrap_or_else(|e| {
                eprintln!("graf-sweep: writing history: {e}");
                std::process::exit(1);
            });
        }
        sink.finish().unwrap_or_else(|e| {
            eprintln!("graf-sweep: flushing history: {e}");
            std::process::exit(1);
        });
        println!("{} record(s) appended to {} as rev {full_rev}", records.len(), path.display());
    }

    if !failed.is_empty() {
        eprintln!("graf-sweep: {}/{} cell(s) failed", failed.len(), records.len());
        std::process::exit(1);
    }
}

fn cmd_compare(args: &[String]) {
    let mut rev_a: Option<String> = None;
    let mut rev_b: Option<String> = None;
    let mut history_path = "SWEEP_HISTORY.jsonl".to_string();
    let mut gate = "p99_ms".to_string();
    let mut threshold = 10.0f64;
    let mut strict = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--history" => history_path = it.next().unwrap_or_else(|| usage()).clone(),
            "--gate" => gate = it.next().unwrap_or_else(|| usage()).clone(),
            "--threshold" => {
                threshold = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--strict" => strict = true,
            other if rev_a.is_none() => rev_a = Some(other.to_string()),
            other if rev_b.is_none() => rev_b = Some(other.to_string()),
            _ => usage(),
        }
    }
    let (Some(rev_a), Some(rev_b)) = (rev_a, rev_b) else { usage() };

    let Ok(text) = std::fs::read_to_string(&history_path) else {
        println!("graf-sweep: no history at {history_path}; nothing to compare (ok)");
        return;
    };
    let (history, skipped) = record::parse_history(&text);
    if skipped > 0 {
        eprintln!("graf-sweep: skipped {skipped} unparseable history line(s)");
    }

    let full_a = resolve_rev(&rev_a);
    let full_b = resolve_rev(&rev_b);
    let short = |s: &str| if s.len() > 12 { s[..12].to_string() } else { s.to_string() };
    println!(
        "graf-sweep compare  base={} ({})  new={} ({})  gate={gate}  threshold={threshold}%",
        rev_a,
        short(&full_a),
        rev_b,
        short(&full_b)
    );

    let report = compare(&history, &full_a, &full_b, &gate, threshold);
    print!("{}", render_compare(&report, &gate));

    let matches = |rev: &str| {
        history.iter().any(|r| {
            r.rev.as_deref().is_some_and(|rr| rr == rev || (rev.len() >= 7 && rr.starts_with(rev)))
        })
    };
    let (have_a, have_b) = (matches(&full_a), matches(&full_b));
    if report.rows.is_empty() && !report.has_coverage_gaps() {
        println!(
            "(base history: {}, new history: {}); nothing to gate (ok)",
            if have_a { "yes" } else { "none" },
            if have_b { "yes" } else { "none" }
        );
    }
    if report.has_coverage_gaps() {
        eprintln!(
            "graf-sweep: WARNING: cell coverage differs between revisions \
             ({} only at base, {} only at new)",
            report.only_base.len(),
            report.only_new.len()
        );
    }

    let mut fail = false;
    if report.has_regressions() {
        let n = report
            .rows
            .iter()
            .filter(|(_, v)| matches!(v, graf_sweep::CellVerdict::Regressed { .. }))
            .count();
        eprintln!("graf-sweep: {n} cell(s) regressed beyond {threshold}% on {gate}");
        fail = true;
    }
    if strict && have_a && have_b && report.has_coverage_gaps() {
        eprintln!("graf-sweep: --strict: differing cell sets are a failure");
        fail = true;
    }
    if fail {
        std::process::exit(1);
    }
    println!("graf-sweep: no regressions beyond {threshold}% on {gate}");
}
