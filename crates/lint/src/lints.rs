//! The lint names, the annotation grammar and the per-file rules.
//!
//! Every rule reads the file's [`FileModel`]: the crate-scoped bans and
//! `hot-alloc` are queries over its evidence sites, the other four walk its
//! token stream — so matches inside strings, comments and `#[cfg(test)]`
//! items never fire.
//! Findings can be suppressed with an annotation on the same or preceding
//! line:
//!
//! ```text
//! // graf-lint: allow(<lint>, <justification>)
//! ```
//!
//! where `<lint>` is the full lint name or its short alias (`wallclock`,
//! `unordered-map`, `unwrap`, `rng`, `relaxed`, `unsafe`, `float-reduction`,
//! `thread`). An annotation without a justification, or naming an unknown
//! lint, is itself a finding (`bad-annotation`) — exceptions must stay
//! explained.

use crate::config::Config;
use crate::lexer::TokenKind;
use crate::parse::{Evidence, FileModel};

/// `Instant::now`/`SystemTime` in a deterministic crate.
pub const WALLCLOCK: &str = "wallclock-in-deterministic-crate";
/// Iterating a `HashMap`/`HashSet` where ordering feeds outputs.
pub const UNORDERED_MAP: &str = "unordered-map-iteration";
/// Heap allocation inside the body of a function declared hot.
pub const HOT_ALLOC: &str = "hot-alloc";
/// `.unwrap()` in library code.
pub const UNWRAP_IN_LIB: &str = "unwrap-in-lib";
/// RNG construction outside the seeded `sim::rng` home.
pub const UNSEEDED_RNG: &str = "unseeded-rng";
/// Malformed or unjustified `graf-lint: allow(…)` annotation.
pub const BAD_ANNOTATION: &str = "bad-annotation";
/// `Ordering::Relaxed` on an atomic that may feed a decision.
pub const RELAXED_ATOMIC: &str = "relaxed-atomic";
/// An `unsafe` token without a `// graf-lint: safety(<why>)` justification.
pub const UNSAFE_NO_SAFETY: &str = "unsafe-no-safety";
/// Unordered `+=` float accumulation in a loop of a parallel-adjacent module.
pub const FLOAT_REDUCTION: &str = "unordered-float-reduction";
/// A suppression annotation whose lint no longer fires on that snippet.
pub const STALE_ALLOW: &str = "stale-allow";
/// `std::thread` spawn/scope outside the ordered-reduction files.
pub const THREAD_OUTSIDE_ORDERED: &str = "thread-outside-ordered-reduction";

/// All lint names.
pub const ALL_LINTS: [&str; 11] = [
    WALLCLOCK,
    UNORDERED_MAP,
    HOT_ALLOC,
    UNWRAP_IN_LIB,
    UNSEEDED_RNG,
    BAD_ANNOTATION,
    RELAXED_ATOMIC,
    UNSAFE_NO_SAFETY,
    FLOAT_REDUCTION,
    STALE_ALLOW,
    THREAD_OUTSIDE_ORDERED,
];

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Lint name (one of [`ALL_LINTS`]).
    pub lint: &'static str,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
}

/// A `lint` finding at `line` of `m`.
pub(crate) fn finding(m: &FileModel, lint: &'static str, line: u32, message: String) -> Finding {
    Finding { lint, path: m.path.clone(), line, message, snippet: m.snippet(line).to_string() }
}

/// Resolves an annotation name (full or alias) to the canonical lint name.
fn canonical_lint(name: &str) -> Option<&'static str> {
    match name {
        "wallclock" | WALLCLOCK => Some(WALLCLOCK),
        "unordered-map" | UNORDERED_MAP => Some(UNORDERED_MAP),
        HOT_ALLOC => Some(HOT_ALLOC),
        "unwrap" | UNWRAP_IN_LIB => Some(UNWRAP_IN_LIB),
        "rng" | UNSEEDED_RNG => Some(UNSEEDED_RNG),
        "relaxed" | RELAXED_ATOMIC => Some(RELAXED_ATOMIC),
        "unsafe" | UNSAFE_NO_SAFETY => Some(UNSAFE_NO_SAFETY),
        "float-reduction" | FLOAT_REDUCTION => Some(FLOAT_REDUCTION),
        "thread" | THREAD_OUTSIDE_ORDERED => Some(THREAD_OUTSIDE_ORDERED),
        _ => None,
    }
}

/// One parsed suppression annotation (`allow(…)` or `safety(…)`), with a
/// liveness flag: an annotation that never suppresses a finding is stale.
#[derive(Clone, Debug)]
pub struct Allow {
    /// 1-based line the annotation sits on (covers this line and the next).
    pub line: u32,
    /// Canonical lint name it suppresses.
    pub lint: &'static str,
    /// `true` for the `safety(<why>)` form (unsafe-block justifications).
    pub safety: bool,
    /// Set when the annotation suppressed at least one raw finding.
    pub used: bool,
}

/// How a file participates in linting: `Some(crate-key)` for library code.
pub(crate) fn classify(rel: &str) -> Option<&str> {
    let test_like = rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/");
    if test_like {
        return None;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (krate, tail) = rest.split_once('/')?;
        if tail.starts_with("src/") {
            return Some(krate);
        }
        return None;
    }
    if rel.starts_with("src/") {
        return Some("graf");
    }
    None
}

/// Lints one file on its own — the whole pipeline over a one-file workspace.
/// `rel` is the repo-relative path with forward slashes. `[[hot]]` names in
/// `cfg` that this file does not define are ignored: only the workspace pass
/// can hold `lint.toml` to the whole tree.
pub fn lint_file(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    crate::lint_sources(&[(rel.to_string(), src.to_string())], cfg).0
}

/// The per-file rules: raw findings of `m`, before suppression.
pub(crate) fn file_findings(m: &FileModel, cfg: &Config, out: &mut Vec<Finding>) {
    site_bans(m, cfg, out);
    hot_alloc(m, cfg, out);
    token_rules(m, out);
    if cfg.parallel_adjacent_files.contains(&m.path) {
        float_reduction(m, out);
    }
}

/// Applies every matching annotation to `f`, marking it live. An annotation
/// covers its own line and the next one.
pub(crate) fn suppress(allows: &mut [Allow], f: &Finding) -> bool {
    let mut hit = false;
    for a in allows.iter_mut() {
        if a.lint == f.lint && (a.line == f.line || a.line + 1 == f.line) {
            a.used = true;
            hit = true;
        }
    }
    hit
}

/// Parses `graf-lint: allow(lint, reason)` and `graf-lint: safety(reason)`
/// annotations from line comments; malformed ones become `bad-annotation`
/// findings in `out` and suppress nothing (fail closed).
pub(crate) fn parse_annotations(m: &FileModel, out: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &m.comments {
        let text = &m.src[c.start..c.end];
        // The span starts after the `//`, so doc comments (`///`, `//!`)
        // begin with `/` or `!`. They describe the annotation grammar in
        // prose and never carry a live annotation.
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let Some(pos) = text.find("graf-lint:") else {
            continue;
        };
        let rest = text[pos + "graf-lint:".len()..].trim();
        let mut bad = |message: String| out.push(finding(m, BAD_ANNOTATION, c.line, message));
        let mut allow =
            |lint, safety| allows.push(Allow { line: c.line, lint, safety, used: false });
        // `safety(<why>)` — the unsafe-block justification form.
        if let Some(inner) =
            rest.strip_prefix("safety(").and_then(|r| r.rfind(')').map(|close| &r[..close]))
        {
            if inner.trim().is_empty() {
                bad("safety() needs a justification: safety(<why this unsafe is sound>)".into());
            } else {
                allow(UNSAFE_NO_SAFETY, true);
            }
            continue;
        }
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|r| r.find(')').map(|close| &r[..close]))
            .map(|inner| match inner.split_once(',') {
                Some((name, reason)) => (name.trim(), reason.trim()),
                None => (inner.trim(), ""),
            });
        match parsed {
            None => bad("expected `graf-lint: allow(<lint>, <justification>)`".into()),
            Some((name, reason)) => match canonical_lint(name) {
                None => bad(format!("unknown lint `{name}` in allow annotation")),
                Some(_) if reason.is_empty() => {
                    bad(format!("allow({name}) needs a justification: allow({name}, <why>)"))
                }
                Some(lint) => allow(lint, false),
            },
        }
    }
    allows
}

/// The crate-scoped bans, as a query over the file's evidence:
/// `wallclock-in-deterministic-crate` outside the exempt crates,
/// `thread-outside-ordered-reduction` outside the exempt crates and the
/// ordered-reduction files, `unseeded-rng` outside the seeded home,
/// `unordered-map-iteration` in the crates whose aggregate outputs must be
/// order-stable.
fn site_bans(m: &FileModel, cfg: &Config, out: &mut Vec<Finding>) {
    let exempt = cfg.wallclock_exempt_crates.contains(&m.krate);
    for s in &m.sites {
        let what = &s.what;
        let (lint, message) = match s.kind {
            Evidence::Wallclock if !exempt => (
                WALLCLOCK,
                format!("{what} in a deterministic crate; gate behind is_recording() or route through sim time"),
            ),
            Evidence::Rng if !cfg.rng_home.contains(&m.path) => (
                UNSEEDED_RNG,
                format!("`{what}`: derive randomness from sim::rng::DetRng streams instead"),
            ),
            Evidence::UnorderedIter if cfg.ordered_crates.contains(&m.krate) => (
                UNORDERED_MAP,
                format!("`{what}` iterates an unordered map/set; use BTreeMap or sort keys first"),
            ),
            Evidence::Thread if !exempt && !cfg.ordered_reduction_files.contains(&m.path) => (
                THREAD_OUTSIDE_ORDERED,
                format!(
                    "`{what}` outside the ordered-reduction files; fan out on sim::par's \
                     worker pool, whose output is thread-count-invariant"
                ),
            ),
            _ => continue,
        };
        out.push(finding(m, lint, s.line, message));
    }
}

/// `hot-alloc`: allocation evidence inside the body of a `[[hot]]` function
/// of this file. What a hot function's callees allocate is measured at run
/// time by the counting-allocator tests, not traced here.
fn hot_alloc(m: &FileModel, cfg: &Config, out: &mut Vec<Finding>) {
    let names: Vec<&String> =
        cfg.hot.iter().filter(|h| h.file == m.path).flat_map(|h| &h.functions).collect();
    let hot: Vec<_> = m.fns.iter().filter(|d| !d.in_test && names.contains(&&d.name)).collect();
    for s in m.sites.iter().filter(|s| s.kind == Evidence::Alloc) {
        // A site in a hot function nested inside another reports once.
        if let Some(def) = hot.iter().find(|d| m.sites_in(d).any(|t| t.tok == s.tok)) {
            let message = format!(
                "`{}` inside hot function `{}`; hot kernels must reuse caller buffers",
                s.what,
                def.qualified()
            );
            out.push(finding(m, HOT_ALLOC, s.line, message));
        }
    }
}

/// The three single-token rules, in one walk over the non-test tokens:
///
/// * `unwrap-in-lib` — `.unwrap()` in library code: propagate, or `expect`
///   with an invariant message instead;
/// * `relaxed-atomic` — `Ordering::Relaxed`: relaxed loads and stores are
///   invisible to the determinism contract until they feed a decision, so
///   every use is either strengthened or carries an allow arguing why the
///   value never influences an output;
/// * `unsafe-no-safety` — every `unsafe` token needs a
///   `// graf-lint: safety(<why>)` on the same or preceding line.
fn token_rules(m: &FileModel, out: &mut Vec<Finding>) {
    let p = m.parser();
    for i in (0..p.t.len()).filter(|&i| !p.t[i].in_test) {
        let (lint, message) = match p.ident(i) {
            Some("unwrap") if i >= 1 && p.is_punct(i - 1, '.') && p.is_punct(i + 1, '(') => (
                UNWRAP_IN_LIB,
                "`.unwrap()` in library code; propagate the error or use `expect(\"<invariant>\")`",
            ),
            Some("Relaxed") => (
                RELAXED_ATOMIC,
                "`Ordering::Relaxed` on shared state; strengthen the ordering or justify why \
                 the value never flows into a decision",
            ),
            Some("unsafe") => (
                UNSAFE_NO_SAFETY,
                "`unsafe` without a safety justification; add `// graf-lint: safety(<why>)`",
            ),
            _ => continue,
        };
        out.push(finding(m, lint, p.line(i), message.to_string()));
    }
}

/// `unordered-float-reduction`: `+=` accumulation into a float inside a loop
/// of a parallel-adjacent module. Float addition is not associative, so any
/// accumulation order that could vary with thread count must be routed
/// through the ordered-reduction helpers (or justified as chunk-local).
fn float_reduction(m: &FileModel, out: &mut Vec<Finding>) {
    let p = m.parser();
    // Pass A: names with float-typed declarations (`x: f64`) or float-literal
    // initializers (`x = 0.0`). Fields and locals both land here; the check
    // is name-based, like the unordered-map tracker.
    let mut float_names: Vec<&str> = Vec::new();
    for i in 0..p.t.len() {
        let Some(name) = p.ident(i) else {
            continue;
        };
        if p.is_punct(i + 1, ':')
            && !p.is_punct(i + 2, ':')
            && matches!(p.ident(i + 2), Some("f32" | "f64"))
        {
            float_names.push(name);
        }
        if p.is_punct(i + 1, '=') && !p.is_punct(i + 2, '=') {
            if let Some(t) = p.t.get(i + 2) {
                if t.kind == TokenKind::Number {
                    let txt = p.text(i + 2);
                    if txt.contains('.') || txt.ends_with("f32") || txt.ends_with("f64") {
                        float_names.push(name);
                    }
                }
            }
        }
    }
    if float_names.is_empty() {
        return;
    }

    // Pass B: `+=` under loop braces. Brace/loop tracking runs over every
    // token (test regions keep braces balanced); only non-test sites report.
    let mut stack: Vec<bool> = Vec::new();
    let mut loop_depth = 0usize;
    let mut pending_loop = false;
    let mut pending_impl = false;
    for i in 0..p.t.len() {
        match p.ident(i) {
            Some("impl") => pending_impl = true,
            // `impl Trait for Type` and HRTB `for<'a>` are not loops.
            Some("for") if !pending_impl && !p.is_punct(i + 1, '<') => pending_loop = true,
            Some("while" | "loop") => pending_loop = true,
            _ => {}
        }
        if p.is_punct(i, '{') {
            stack.push(pending_loop);
            if pending_loop {
                loop_depth += 1;
            }
            pending_loop = false;
            pending_impl = false;
        } else if p.is_punct(i, '}') {
            if stack.pop() == Some(true) {
                loop_depth = loop_depth.saturating_sub(1);
            }
        } else if p.is_punct(i, ';') {
            pending_loop = false;
            pending_impl = false;
        }
        if loop_depth == 0 || p.t[i].in_test {
            continue;
        }
        // `name += …` with adjacent `+` `=`.
        if p.is_punct(i, '+') && p.is_punct(i + 1, '=') && p.t[i + 1].start == p.t[i].end && i >= 1
        {
            if let Some(name) = p.ident(i - 1) {
                if float_names.contains(&name) {
                    out.push(finding(
                        m,
                        FLOAT_REDUCTION,
                        p.line(i),
                        format!(
                            "float accumulation `{name} += …` in a loop of a parallel-adjacent \
                             module; route through the ordered reduction or justify the order"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with_hot(file: &str, functions: &[&str]) -> Config {
        let mut cfg = Config::default();
        cfg.hot.push(crate::config::HotRegion {
            file: file.into(),
            functions: functions.iter().map(|s| s.to_string()).collect(),
        });
        cfg
    }

    fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/nn/src/matrix.rs"), Some("nn"));
        assert_eq!(classify("src/lib.rs"), Some("graf"));
        assert_eq!(classify("crates/nn/tests/sanitize.rs"), None);
        assert_eq!(classify("crates/nn/benches/kernels.rs"), None);
        assert_eq!(classify("examples/pilot.rs"), None);
        assert_eq!(classify("tests/determinism.rs"), None);
        assert_eq!(classify("scripts/gen.rs"), None);
    }

    #[test]
    fn wallclock_fires_and_gating_suppresses() {
        let cfg = Config::default();
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = lint_file("crates/sim/src/world.rs", src, &cfg);
        assert_eq!(lints_of(&f), vec![WALLCLOCK]);

        let gated = "fn f(s: &Span) { let t0 = s.is_recording().then(std::time::Instant::now); }";
        assert!(lint_file("crates/sim/src/world.rs", gated, &cfg).is_empty());

        // Exempt crate.
        assert!(lint_file("crates/obs/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn wallclock_in_string_comment_or_test_does_not_fire() {
        let cfg = Config::default();
        let src = r#"
fn f() {
    let s = "Instant::now()";
    // Instant::now()
}
#[cfg(test)]
mod tests {
    fn t() { let x = std::time::Instant::now(); }
}
"#;
        assert!(lint_file("crates/sim/src/world.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unordered_map_detects_for_and_methods() {
        let cfg = Config::default();
        let src = "
use std::collections::HashMap;
struct S { profiles: HashMap<u16, u64> }
fn f(s: &S) {
    for (k, v) in &s.profiles {}
    let ids: Vec<u16> = s.profiles.keys().cloned().collect();
}
fn g() {
    let mut local = HashMap::new();
    local.insert(1, 2);
    for v in local.values() {}
}
";
        let f = lint_file("crates/trace/src/stats.rs", src, &cfg);
        assert_eq!(lints_of(&f), vec![UNORDERED_MAP; 3]);
    }

    #[test]
    fn unordered_map_lookup_only_is_clean() {
        let cfg = Config::default();
        let src = "
use std::collections::HashMap;
struct S { open: HashMap<u64, u32> }
fn f(s: &mut S) -> Option<u32> { s.open.remove(&3) }
";
        assert!(lint_file("crates/trace/src/store.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unordered_map_outside_configured_crates_is_clean() {
        let cfg = Config::default();
        let src =
            "use std::collections::HashMap;\nfn f(m: HashMap<u8, u8>) { for x in m.values() {} }";
        // `metrics` is not in the ordered-crates list.
        let m =
            "fn f() { let m = std::collections::HashMap::<u8,u8>::new(); for x in m.values() {} }";
        assert!(lint_file("crates/metrics/src/lib.rs", src, &cfg).is_empty());
        assert!(lint_file("crates/metrics/src/lib.rs", m, &cfg).is_empty());
    }

    #[test]
    fn unwrap_fires_in_lib_not_in_tests() {
        let cfg = Config::default();
        let src = "
fn f(x: Option<u8>) -> u8 { x.unwrap() }
fn ok(x: Option<u8>) -> u8 { x.unwrap_or(0) }
#[cfg(test)]
mod tests {
    fn t(x: Option<u8>) -> u8 { x.unwrap() }
}
";
        let f = lint_file("crates/core/src/solver.rs", src, &cfg);
        assert_eq!(lints_of(&f), vec![UNWRAP_IN_LIB]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unseeded_rng_fires_outside_home() {
        let cfg = Config::default();
        let src = "fn f() { let r = rand::rngs::SmallRng::seed_from_u64(7); }";
        let f = lint_file("crates/gnn/src/model.rs", src, &cfg);
        assert!(f.iter().all(|f| f.lint == UNSEEDED_RNG) && !f.is_empty());
        assert!(lint_file("crates/sim/src/rng.rs", src, &cfg).is_empty());
    }

    #[test]
    fn ordered_reduction_file_blesses_threads_but_not_wallclock() {
        let cfg = Config {
            ordered_reduction_files: vec!["crates/gnn/src/model.rs".into()],
            ..Config::default()
        };
        let src = "pub fn train_step() { std::thread::scope(|s| {}); }\n\
                   fn helper() { let t = std::time::Instant::now(); }\n";
        let f = lint_file("crates/gnn/src/model.rs", src, &cfg);
        assert_eq!(lints_of(&f), vec![WALLCLOCK]);
        // The same scope anywhere else in a deterministic crate is banned,
        // and so is a spawn; the exempt crates may use threads freely.
        let f = lint_file("crates/core/src/solver.rs", src, &cfg);
        assert_eq!(lints_of(&f), vec![THREAD_OUTSIDE_ORDERED, WALLCLOCK]);
        let spawn = "fn f() { std::thread::spawn(|| {}); }";
        let f = lint_file("crates/nn/src/optim.rs", spawn, &cfg);
        assert_eq!(lints_of(&f), vec![THREAD_OUTSIDE_ORDERED]);
        assert!(lint_file("crates/bench/src/run.rs", spawn, &cfg).is_empty());
    }

    #[test]
    fn hot_path_alloc_only_in_declared_functions() {
        let cfg = cfg_with_hot("crates/nn/src/matrix.rs", &["matmul_into"]);
        let src = "
impl Matrix {
    pub fn matmul_into(&self, out: &mut Matrix) {
        let v = self.data.to_vec();
        let w: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
        let s = format!(\"{}\", w.len());
    }
    pub fn matmul(&self) -> Vec<f64> {
        self.data.to_vec()
    }
}
";
        let f = lint_file("crates/nn/src/matrix.rs", src, &cfg);
        assert_eq!(lints_of(&f), vec![HOT_ALLOC; 3]);
        assert!(f.iter().all(|x| x.message.contains("Matrix::matmul_into")));
    }

    #[test]
    fn hot_alloc_is_the_hot_body_only() {
        // A nested hot function's site reports once; a callee's allocation
        // is the counting-allocator tests' to catch, not this lint's.
        let cfg = cfg_with_hot("crates/nn/src/matrix.rs", &["kernel", "inner"]);
        let src = "
pub fn kernel() {
    fn inner() { let s = String::new(); }
    helper();
}
fn helper() { let v = Vec::new(); }
";
        let f = lint_file("crates/nn/src/matrix.rs", src, &cfg);
        assert_eq!(lints_of(&f), vec![HOT_ALLOC]);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("`kernel`"), "{}", f[0].message);
    }

    #[test]
    fn allow_annotation_suppresses_with_reason() {
        let cfg = Config::default();
        let src = "
// graf-lint: allow(unwrap, poisoned mutex is unrecoverable here)
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
        assert!(lint_file("crates/core/src/solver.rs", src, &cfg).is_empty());
    }

    #[test]
    fn allow_annotation_same_line_works() {
        let cfg = Config::default();
        let src =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // graf-lint: allow(unwrap, demo reason)";
        assert!(lint_file("crates/core/src/solver.rs", src, &cfg).is_empty());
    }

    #[test]
    fn allow_without_reason_is_bad_annotation() {
        let cfg = Config::default();
        let src = "
// graf-lint: allow(unwrap)
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
        let f = lint_file("crates/core/src/solver.rs", src, &cfg);
        // Fail closed: the malformed annotation is reported AND the
        // underlying finding still fires.
        assert_eq!(lints_of(&f), vec![BAD_ANNOTATION, UNWRAP_IN_LIB]);
    }

    #[test]
    fn allow_unknown_lint_is_bad_annotation() {
        let cfg = Config::default();
        let src = "// graf-lint: allow(no-such-lint, whatever)\nfn f() {}";
        let f = lint_file("crates/core/src/solver.rs", src, &cfg);
        assert_eq!(lints_of(&f), vec![BAD_ANNOTATION]);
    }

    #[test]
    fn annotation_does_not_leak_two_lines_down() {
        let cfg = Config::default();
        let src = "
// graf-lint: allow(unwrap, only covers the next line)
fn a(x: Option<u8>) -> u8 { x.unwrap() }
fn b(x: Option<u8>) -> u8 { x.unwrap() }
";
        let f = lint_file("crates/core/src/solver.rs", src, &cfg);
        assert_eq!(lints_of(&f), vec![UNWRAP_IN_LIB]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn test_only_file_is_skipped() {
        let cfg = Config::default();
        let src = "#![cfg(test)]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(lint_file("crates/core/src/solver.rs", src, &cfg).is_empty());
    }
}
