//! The `graf-lint` CLI.
//!
//! ```text
//! graf-lint [--root DIR]
//! ```
//!
//! Lints the workspace at `DIR` (default: the nearest parent directory with a
//! `lint.toml`) under `DIR/lint.toml` and prints one block per finding.
//!
//! Exit codes: `0` — no findings; `1` — findings; `2` — usage, configuration
//! or I/O error.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use graf_lint::{lint_workspace, Config};

const USAGE: &str = "usage: graf-lint [--root DIR]";

fn parse_args() -> Result<Option<PathBuf>, String> {
    let mut root = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let dir = it.next().ok_or_else(|| format!("--root needs a value\n{USAGE}"))?;
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(root)
}

/// Walks up from the current directory to the first one containing
/// `lint.toml` (the repo root).
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    loop {
        if dir.join("lint.toml").is_file() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no lint.toml found in any parent directory (use --root)".into());
        }
    }
}

fn run() -> Result<bool, String> {
    let root = match parse_args()? {
        Some(r) => r,
        None => find_root()?,
    };
    let config_path = root.join("lint.toml");
    let cfg_text =
        fs::read_to_string(&config_path).map_err(|e| format!("{}: {e}", config_path.display()))?;
    let cfg = Config::parse(&cfg_text)?;
    let report = lint_workspace(&root, &cfg)?;
    for f in &report.findings {
        println!("{}:{}: [{}] {}", f.path, f.line, f.lint, f.message);
        println!("    {}", f.snippet);
    }
    println!("graf-lint: {} files, {} findings", report.files_scanned, report.findings.len());
    Ok(report.findings.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("graf-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}
