//! The GRAF benchmark: four workloads that drive the repository's crates
//! through their public functions only, and the single source of every
//! performance number quoted for it. See `benchmark/README.md`.
//!
//! ```text
//! benchmark/run.sh                       all workloads, each in its own process
//! benchmark/run.sh --workload W …        one run (what BENCHMARK.json's command does)
//!     --seed S        inputs are made from S                  (default 7)
//!     --seconds N     measure for N seconds                   (default 28)
//!     --trace [0|1]   also record spans and per-layer metrics (default 0)
//!     --smoke         toy sizes, all checks on, numbers unusable
//!     --check-repeat  two sets back to back, compared against the bounds
//!     --update-golden rewrite golden/<workload>-seed7.json (seed 7 only)
//! ```

mod harness;
mod identity;
mod json;
mod probe;
mod rec;
mod spec;
mod stats;
mod suite;
mod synth;
mod sys;
mod workloads {
    pub mod boutique;
    pub mod control_ticks;
    pub mod gnn_train;
    pub mod sim_highrate;
}

use std::process::ExitCode;

use harness::{run, RunConfig, RunReport, Size, Workload};
use rec::Recorder;

/// Parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub check_repeat: bool,
    pub update_golden: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.peekable();
    let mut args = Args {
        workload: None,
        seed: harness::GOLDEN_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        check_repeat: false,
        update_golden: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !spec::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`; one of {:?}", spec::WORKLOADS));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a whole number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                args.seconds = s;
            }
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                args.trace = argv.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--update-golden" => args.update_golden = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run_one<W: Workload>(args: &Args) -> (RunReport, Recorder) {
    run::<W>(&RunConfig {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        trace: args.trace,
        size: if args.smoke { Size::Smoke } else { Size::Full },
        update_golden: args.update_golden,
    })
}

/// One run of one workload in this process; the result line goes last.
fn single(name: &str, args: &Args) -> ExitCode {
    let (report, rec) = match name {
        "boutique_closed_loop" => run_one::<workloads::boutique::BoutiqueClosedLoop>(args),
        "gnn_train" => run_one::<workloads::gnn_train::GnnTrain>(args),
        "control_ticks" => run_one::<workloads::control_ticks::ControlTicks>(args),
        "sim_highrate" => run_one::<workloads::sim_highrate::SimHighrate>(args),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let (q1, mid, q3) = stats::quartiles(&report.rep_wall_s);
    println!(
        "{} seed {} — {} untraced repetitions, wall q1 {q1:.4} median {mid:.4} q3 {q3:.4} s, fingerprint {:016x}{}",
        report.workload,
        args.seed,
        report.rep_wall_s.len(),
        report.fingerprint,
        if args.smoke { " — SMOKE SIZES, NUMBERS UNUSABLE" } else { "" }
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<44} {value:>16.6} {unit}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.failures {
        println!("FAILED CHECK: {failure}");
    }
    if args.trace {
        let path = format!("benchmark/out/trace-{}.jsonl", report.workload);
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| rec.write_jsonl(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("graf-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => single(name, &args),
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_and_human_forms_of_trace_both_parse() {
        let a = parse("--workload gnn_train --seed 11 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("gnn_train"), 11, 3.0, true)
        );
        assert!(!parse("--trace 0 --smoke").unwrap().trace);
        let a = parse("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke, "a bare --trace must not swallow the next flag");
        assert!(parse("--trace").unwrap().trace);
        let a = parse("").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, spec::RUN_SECONDS as f64, false));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in ["--workload nope", "--seed x", "--seconds 0", "--seconds", "--frobnicate"] {
            assert!(parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}
