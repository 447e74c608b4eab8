//! The whole suite: every workload in its own process, so set-up time and
//! peak memory are per workload, then one table and `out/results.json`.

use std::process::{Command, ExitCode, Stdio};

use crate::identity::identity;
use crate::json::{obj, parse, Value};
use crate::spec;
use crate::Args;

/// One child run: its parsed result line.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]).args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.update_golden {
        cmd.arg("--update-golden");
    }
    // `output` waits for the child, so none outlives the suite.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    let result = parse(line)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", out.status))?;
    if !out.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload}: output checks failed ({})", out.status));
    }
    Ok(result)
}

/// End-to-end metric `name` of one workload's row of a set.
fn metric(row: &Value, name: &str) -> f64 {
    row.get("end_to_end")
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// One set: every workload untraced, and traced too when asked.
fn run_set(args: &Args, failures: &mut Vec<String>) -> Vec<(String, Value)> {
    let mut rows = Vec::new();
    for workload in spec::WORKLOADS {
        let mut row = Vec::new();
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match child(args, workload, trace) {
                Ok(result) => row.push((if trace { "per_layer" } else { "end_to_end" }, result)),
                Err(e) => failures.push(e),
            }
        }
        rows.push((workload.to_string(), obj(row)));
    }
    rows
}

fn print_table(set: &[(String, Value)]) {
    print!("\n{:<24}", "end-to-end");
    for (name, unit, _) in spec::END_TO_END {
        print!(" {:>18}", format!("{name} [{unit}]"));
    }
    println!();
    for (workload, row) in set {
        print!("{workload:<24}");
        for (name, _, _) in spec::END_TO_END {
            print!(" {:>18.4}", metric(row, name));
        }
        println!();
    }
}

/// Prints both medians, their gap as a share of the first and the bound for
/// every workload × end-to-end metric; returns the pairs beyond their bound.
fn compare(first: &[(String, Value)], second: &[(String, Value)]) -> Vec<String> {
    let mut beyond = Vec::new();
    println!(
        "\n{:<24} {:<12} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(second) {
        for ((name, _, better), bound) in spec::END_TO_END.into_iter().zip(spec::BOUNDS) {
            let (x, y) = (metric(a, name), metric(b, name));
            // Positive when the second set is worse.
            let gap = if better == "lower" { (y - x) / x } else { (x - y) / x };
            let verdict = if gap.abs() <= bound { "" } else { "  BEYOND BOUND" };
            println!(
                "{workload:<24} {name:<12} {x:>14.4} {y:>14.4} {:>7.2}% {:>6.1}%{verdict}",
                gap * 100.0,
                bound * 100.0
            );
            if gap.abs() > bound || gap.is_nan() {
                beyond.push(format!(
                    "{workload} × {name}: gap {:.2} % over bound {:.1} %",
                    gap * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    beyond
}

pub fn run(args: &Args) -> ExitCode {
    let mut failures = Vec::new();
    let mut sets = vec![run_set(args, &mut failures)];
    print_table(&sets[0]);
    if args.check_repeat {
        sets.push(run_set(args, &mut failures));
        print_table(&sets[1]);
        failures.extend(compare(&sets[0], &sets[1]));
    }
    if args.smoke {
        println!("\nSMOKE SIZES: the checks ran, but none of these numbers is usable.");
    }

    let results = obj([
        ("identity", identity(args.seed, args.seconds, args.smoke)),
        ("sets", Value::Arr(sets.into_iter().map(Value::Obj).collect())),
        ("failures", Value::Arr(failures.iter().map(|f| Value::from(f.as_str())).collect())),
    ]);
    let path = "benchmark/out/results.json";
    match std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(path, results.encode() + "\n"))
    {
        Ok(()) => println!("results written to {path}"),
        Err(e) => failures.push(format!("could not write {path}: {e}")),
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
