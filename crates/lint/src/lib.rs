//! # graf-lint
//!
//! A zero-dependency static-analysis pass enforcing this repository's
//! determinism and hot-path invariants at the sites where they can be read
//! off one file. It is one pipeline over a hand-rolled Rust lexer —
//! comment-, string- and attribute-aware, not grep:
//!
//! ```text
//! lex → parse (item model + evidence sites) → per-file lints
//! ```
//!
//! Each file is lexed once and each evidence kind (wall-clock read, RNG
//! construction, `std::thread` use, unordered-map iteration, allocation) is
//! recognized by one detector ([`parse`]); every lint is a query over that
//! model and reports a named finding:
//!
//! * `wallclock-in-deterministic-crate` — `Instant::now`/`SystemTime` outside
//!   the telemetry/bench crates, unless gated by `is_recording()`,
//! * `unordered-map-iteration` — iterating `HashMap`/`HashSet` in crates
//!   whose aggregate outputs must be order-stable,
//! * `unseeded-rng` — RNG construction outside the seeded `sim::rng` home,
//! * `thread-outside-ordered-reduction` — `std::thread::{spawn,scope}`
//!   outside the telemetry/bench crates and the ordered-reduction files,
//! * `hot-alloc` — allocation (`Vec::new`, `Vec::<T>::new`, `Rc::new`,
//!   `.clone()`, `.collect()`, `format!`, …) inside the body of a function
//!   declared hot in `lint.toml`,
//! * `unwrap-in-lib` — `.unwrap()` in library code,
//! * `relaxed-atomic` — `Ordering::Relaxed` on shared state,
//! * `unsafe-no-safety` — `unsafe` without a `// graf-lint: safety(<why>)`,
//! * `unordered-float-reduction` — float `+=` in loops of parallel-adjacent
//!   modules,
//! * `bad-annotation` — a malformed or unjustified allow annotation,
//! * `stale-allow` — an annotation that no longer suppresses anything.
//!
//! Findings are suppressed with `// graf-lint: allow(<lint>, <why>)` on the
//! same or preceding line. What the hot functions' callees allocate, and
//! whether outputs are deterministic end to end, is checked where the code
//! runs: the counting-allocator tests (`graf_nn::sanitize`) and the tier-1
//! byte pins. See `DESIGN.md` §9 for the catalog and workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod config;
pub mod lexer;
pub mod lints;
pub mod parse;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use config::Config;
pub use lints::Finding;

/// Result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, lint).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files found under the root.
    pub files_scanned: usize,
}

/// Lints every `.rs` file under `root` (excluding `cfg.exclude` prefixes and
/// dot-directories).
///
/// I/O failures and configuration errors (a `[[hot]]` name that no longer
/// resolves) are both reported as `Err(message)` — the caller exits 2.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, &mut files).map_err(|e| format!("scan: {e}"))?;
    files.sort();
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in files {
        let src =
            fs::read_to_string(root.join(&rel)).map_err(|e| format!("{}: {e}", rel.display()))?;
        sources.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    let (findings, stale_specs) = lint_sources(&sources, cfg);
    if !stale_specs.is_empty() {
        return Err(stale_specs.join("\n"));
    }
    Ok(Report { findings, files_scanned: sources.len() })
}

/// The pipeline over in-memory `(repo-relative path, source)` pairs, of which
/// test, bench and example targets are skipped: findings sorted by
/// (path, line, lint), plus one message per `[[hot]]` name that resolves to
/// no function in these sources.
pub(crate) fn lint_sources(
    sources: &[(String, String)],
    cfg: &Config,
) -> (Vec<Finding>, Vec<String>) {
    let files: Vec<parse::FileModel> = sources
        .iter()
        .filter_map(|(rel, src)| Some(parse::parse_file(rel, lints::classify(rel)?, src)))
        .filter(|m| !m.is_test)
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    let mut allows: Vec<Vec<lints::Allow>> = Vec::new();
    for m in &files {
        allows.push(lints::parse_annotations(m, &mut raw));
        lints::file_findings(m, cfg, &mut raw);
    }

    // A renamed hot function must not silently drop out of the zero-alloc
    // claim: every `[[hot]]` name must define a function in its file.
    let mut stale_specs = Vec::new();
    for region in &cfg.hot {
        for name in &region.functions {
            let defined = files
                .iter()
                .filter(|m| m.path == region.file)
                .any(|m| m.fns.iter().any(|d| !d.in_test && d.name == *name));
            if !defined {
                stale_specs.push(format!("[[hot]] {}: function `{name}` not found", region.file));
            }
        }
    }

    // Every finding honors the annotations of its own file, anchored at its
    // line.
    let file_of = |path: &str| files.iter().position(|m| m.path == path);
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !file_of(&f.path).is_some_and(|i| lints::suppress(&mut allows[i], f)))
        .collect();

    // An annotation that suppressed nothing is itself a finding —
    // suppressions must not outlive the code they excuse.
    for (m, allows) in files.iter().zip(&allows) {
        for a in allows.iter().filter(|a| !a.used) {
            let message = if a.safety {
                "safety() with no `unsafe` on this or the next line; remove it".to_string()
            } else {
                format!("allow({}) no longer suppresses anything; remove it", a.lint)
            };
            findings.push(lints::finding(m, lints::STALE_ALLOW, a.line, message));
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    (findings, stale_specs)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let Ok(rel) = path.strip_prefix(root) else {
            continue;
        };
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if name.starts_with('.') {
            continue;
        }
        if cfg.exclude.iter().any(|ex| rel_str == *ex || rel_str.starts_with(&format!("{ex}/"))) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if rel_str.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}
