//! The lint configuration, driven end to end on fixture crates.
//!
//! `tests/lints.rs` holds the workspace itself to zero findings; these tests
//! show that the configuration it runs catches what it is meant to catch and
//! nothing else. Each test writes a one-file library crate under
//! `CARGO_TARGET_TMPDIR/engine/`, gives it the repository's `clippy.toml`
//! and the root manifest's `[workspace.lints.clippy]`
//! table, runs `cargo clippy` on it and checks which lints fire on which
//! lines. A fixture's manifest carries its own `[workspace]`, so the
//! repository's workspace does not claim it, and its own target directory, so
//! fixtures build side by side without waiting on each other's lock.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DISALLOWED_METHODS: &str = "clippy::disallowed_methods";
const DISALLOWED_TYPES: &str = "clippy::disallowed_types";
const UNWRAP_USED: &str = "clippy::unwrap_used";
const UNDOCUMENTED_UNSAFE: &str = "clippy::undocumented_unsafe_blocks";
const ALLOW_WITHOUT_REASON: &str = "clippy::allow_attributes_without_reason";
const UNFULFILLED_EXPECTATION: &str = "unfulfilled_lint_expectations";

/// The lint configuration of the repository, one file for every crate.
const ROOT_CONFIG: &str = "clippy.toml";

/// One banned construct per lint, each on its own line and each spelled so
/// that it is the only site on that line.
const DIRTY: &str = "\
pub fn wall() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}

pub fn stamp() -> bool {
    std::time::SystemTime::now() > std::time::UNIX_EPOCH
}

pub struct Table {
    pub by_name: std::collections::HashMap<String, u32>,
    pub seen: std::collections::HashSet<u32>,
}

pub fn hasher() -> std::collections::hash_map::RandomState {
    Default::default()
}

pub fn must(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn read(r: &u64) -> u64 {
    let p: *const u64 = r;
    unsafe { *p }
}

pub fn fan_out() {
    std::thread::spawn(|| {});
}

pub fn fan_in() -> u32 {
    std::thread::scope(|_| 1)
}

#[allow(dead_code)]
fn annotated_badly() {}
";

/// What `DIRTY` must fire under the root configuration: the line holding
/// each needle, and the lint that fires there.
const DIRTY_WANT: [(&str, &str); 10] = [
    ("Instant::now()", DISALLOWED_METHODS),
    ("SystemTime::now()", DISALLOWED_METHODS),
    ("HashMap<String", DISALLOWED_TYPES),
    ("HashSet<u32>", DISALLOWED_TYPES),
    ("RandomState {", DISALLOWED_TYPES),
    ("v.unwrap()", UNWRAP_USED),
    ("unsafe { *p }", UNDOCUMENTED_UNSAFE),
    ("thread::spawn", DISALLOWED_METHODS),
    ("thread::scope", DISALLOWED_METHODS),
    ("#[allow(dead_code)]", ALLOW_WITHOUT_REASON),
];

fn repo_file(rel: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// The root manifest's `[workspace.lints.clippy]` table, as a package's
/// `[lints.clippy]`.
fn workspace_lints() -> String {
    let manifest = repo_file("Cargo.toml");
    let body: Vec<&str> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.lints.clippy]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect();
    assert!(body.iter().any(|l| l.contains('=')), "no [workspace.lints.clippy] in Cargo.toml");
    format!("[lints.clippy]\n{}\n", body.join("\n"))
}

/// The 1-based line of `src` that holds `needle`; it must hold exactly one.
fn line_of(src: &str, needle: &str) -> usize {
    let hits: Vec<usize> =
        src.lines().enumerate().filter(|(_, l)| l.contains(needle)).map(|(i, _)| i + 1).collect();
    assert_eq!(hits.len(), 1, "`{needle}` must be on exactly one fixture line");
    hits[0]
}

/// `(line, lint)` pairs, sorted, for `want`'s needles in `src`.
fn expected(src: &str, want: &[(&str, &'static str)]) -> Vec<(usize, String)> {
    let mut v: Vec<(usize, String)> =
        want.iter().map(|&(needle, lint)| (line_of(src, needle), lint.to_string())).collect();
    v.sort();
    v
}

/// One diagnostic: the file and position its short rendering starts with,
/// and its lint name (empty for a diagnostic without one).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Finding {
    file: String,
    line: usize,
    col: usize,
    lint: String,
}

/// The JSON string value after `key` in `json`, escapes left as they are.
fn json_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(key)? + key.len();
    let rest = &json[start..];
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        match c {
            '\\' => escaped = !escaped,
            '"' if !escaped => return Some(&rest[..i]),
            _ => escaped = false,
        }
    }
    None
}

/// The diagnostics in cargo's `json-diagnostic-short` output, sorted, each
/// once: a library site is reported by both the library and its test build.
fn findings(out: &Output) -> Vec<Finding> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut found: Vec<Finding> = stdout
        .lines()
        .filter(|l| l.starts_with(r#"{"reason":"compiler-message""#))
        .filter_map(|l| {
            // "src/lib.rs:13:1: warning: …"
            let rendered = json_str(l, r#""rendered":""#)?;
            let mut at = rendered.split(": ").next()?.rsplitn(3, ':');
            let col = at.next()?.parse().ok()?;
            let line = at.next()?.parse().ok()?;
            let file = at.next()?.to_string();
            let lint = json_str(l, r#""code":{"code":""#).unwrap_or("").to_string();
            Some(Finding { file, line, col, lint })
        })
        .collect();
    found.sort();
    found.dedup();
    found
}

/// `(line, lint)` of the findings in the fixture's `src/lib.rs`.
fn lib_sites(found: &[Finding]) -> Vec<(usize, String)> {
    found.iter().filter(|f| f.file == "src/lib.rs").map(|f| (f.line, f.lint.clone())).collect()
}

fn report(out: &Output) -> String {
    format!(
        "status {}\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    )
}

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    /// A fresh crate `CARGO_TARGET_TMPDIR/engine/<name>` whose `clippy.toml`
    /// is the repository's and whose `src/lib.rs` is `lib`.
    fn create(name: &str, lib: &str) -> Fixture {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("engine").join(name);
        if root.exists() {
            fs::remove_dir_all(&root).expect("clear stale fixture");
        }
        fs::create_dir_all(root.join("src")).expect("fixture dirs");
        let manifest = format!(
            "[package]\nname = \"fixture\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
             [workspace]\n\n{}",
            workspace_lints()
        );
        fs::write(root.join("Cargo.toml"), manifest).expect("write fixture Cargo.toml");
        let fx = Fixture { root };
        fx.write_config(&repo_file(ROOT_CONFIG));
        fx.write_lib(lib);
        fx
    }

    fn write_config(&self, text: &str) {
        fs::write(self.root.join("clippy.toml"), text).expect("write fixture clippy.toml");
    }

    fn write_lib(&self, src: &str) {
        fs::write(self.root.join("src/lib.rs"), src).expect("write fixture lib.rs");
    }

    /// `cargo clippy` over the library and its unit tests; `rustc_args` go
    /// after `--`.
    fn clippy(&self, cargo_args: &[&str], rustc_args: &[&str]) -> Output {
        Command::new(env!("CARGO"))
            .current_dir(&self.root)
            .env_remove("CLIPPY_CONF_DIR")
            .args(["clippy", "--offline", "--quiet", "--all-targets"])
            .arg("--message-format=json-diagnostic-short")
            .args(cargo_args)
            .arg("--target-dir")
            .arg(self.root.join("target"))
            .arg("--")
            .args(rustc_args)
            .output()
            .expect("could not start cargo")
    }

    /// The findings of a run that must complete: warnings are not denied.
    fn findings(&self) -> Vec<Finding> {
        let out = self.clippy(&[], &[]);
        assert!(out.status.success(), "clippy failed on the fixture: {}", report(&out));
        findings(&out)
    }

    /// The outcome CI sees: clippy with warnings denied.
    fn gate(&self) -> Output {
        self.clippy(&[], &["-D", "warnings"])
    }
}

#[test]
fn dirty_fixture_fires_every_lint_once() {
    let fx = Fixture::create("dirty", DIRTY);
    let found = fx.findings();
    assert_eq!(lib_sites(&found), expected(DIRTY, &DIRTY_WANT), "{found:#?}");
}

#[test]
fn violations_in_strings_comments_and_test_code_do_not_fire() {
    // Test code may unwrap (`allow-unwrap-in-tests`); the type and method
    // bans hold there as everywhere else.
    let lib = "\
pub fn describe() -> &'static str {
    // Instant::now(), SystemTime::now(), thread::spawn and .unwrap() in a comment are inert.
    \"so is .unwrap() or std::time::Instant::now() inside a string literal\"
}

pub fn raw() -> &'static str {
    r#\"even in raw strings: \"std::collections::HashMap\", unsafe { *p }\"#
}

#[cfg(test)]
mod tests {
    fn first(v: &[u32]) -> Option<u32> {
        v.first().copied()
    }

    #[test]
    fn test_code_may_unwrap() {
        assert_eq!(first(&[2]).unwrap(), 2);
    }
}
";
    let fx = Fixture::create("clean", lib);
    let found = fx.findings();
    assert!(found.is_empty(), "clean fixture must produce no findings: {found:#?}");
}

#[test]
fn justified_annotations_suppress_real_violations() {
    let lib = "\
#[expect(clippy::disallowed_types, reason = \"lookups only; never iterated\")]
pub struct Cache {
    pub entries: std::collections::HashMap<u64, u64>,
}

#[expect(clippy::unwrap_used, reason = \"the caller checked is_some\")]
pub fn must(v: Option<u64>) -> u64 {
    v.unwrap()
}

#[expect(clippy::disallowed_methods, reason = \"telemetry only, never a simulation input\")]
pub fn wall() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}

pub fn read(r: &u64) -> u64 {
    let p: *const u64 = r;
    // SAFETY: `p` comes from a reference, so it is valid for reads.
    unsafe { *p }
}
";
    let fx = Fixture::create("allowed", lib);
    let found = fx.findings();
    assert!(found.is_empty(), "annotated fixture must produce no findings: {found:#?}");
    let out = fx.gate();
    assert!(out.status.success(), "{}", report(&out));
}

#[test]
fn concurrency_fixture_fires_each_new_lint_once() {
    // One thread spawn, one thread scope and one unsafe block without a
    // `// SAFETY:` comment fire; their justified twins stay silent. A
    // `Relaxed` counter is not a finding: `fetch_add` hands out unique
    // values under any ordering, so determinism does not rest on it.
    let lib = "\
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn claim(next: &AtomicUsize) -> usize {
    next.fetch_add(1, Ordering::Relaxed)
}

pub fn spawn_one() {
    std::thread::spawn(|| {});
}

pub fn scope_one() -> u32 {
    std::thread::scope(|_| 1)
}

pub fn read_raw(r: &u64) -> u64 {
    let p: *const u64 = r;
    unsafe { *p }
}

#[expect(clippy::disallowed_methods, reason = \"the ordered reduction: results in index order\")]
pub fn justified(r: &u64) -> u64 {
    let p: *const u64 = r;
    // SAFETY: `p` comes from a reference, so it is valid for reads.
    let v = unsafe { *p };
    std::thread::scope(|s| s.spawn(move || v).join().unwrap_or(0))
}
";
    let fx = Fixture::create("concurrency", lib);
    let want = [
        ("thread::spawn(|| {})", DISALLOWED_METHODS),
        ("thread::scope(|_| 1)", DISALLOWED_METHODS),
        ("    unsafe { *p }", UNDOCUMENTED_UNSAFE),
    ];
    let found = fx.findings();
    assert_eq!(lib_sites(&found), expected(lib, &want), "{found:#?}");
}

#[test]
fn binary_goes_red_on_new_violations_only() {
    let fx = Fixture::create("red", "pub fn one(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n");

    // A violation in the tree: CI is red.
    let out = fx.gate();
    assert!(!out.status.success(), "{}", report(&out));
    assert_eq!(lib_sites(&findings(&out)), vec![(2, UNWRAP_USED.to_string())], "{}", report(&out));

    // The violation is fixed: CI is green again.
    fx.write_lib("pub fn one(v: Option<u32>) -> u32 {\n    v.unwrap_or(0)\n}\n");
    let out = fx.gate();
    assert!(out.status.success(), "{}", report(&out));
    assert!(findings(&out).is_empty(), "{}", report(&out));

    // A NEW violation lands: CI goes red, and names exactly that one.
    fx.write_lib(
        "pub fn one(v: Option<u32>) -> u32 {\n    v.unwrap_or(0)\n}\n\
         pub fn two(v: Option<u64>) -> u64 {\n    v.unwrap()\n}\n",
    );
    let out = fx.gate();
    assert!(!out.status.success(), "{}", report(&out));
    assert_eq!(lib_sites(&findings(&out)), vec![(5, UNWRAP_USED.to_string())], "{}", report(&out));
}

#[test]
fn crate_scoped_bans_see_function_bodies_and_file_level_sites() {
    // The type bans fire on a `use`, a type alias and a field, which sit in
    // no function body; the method bans fire on a call through a `use` and
    // on a function taken by path without a call.
    let lib = "\
use std::collections::HashMap;
use std::time::Instant;

pub type Index = HashMap<u32, u32>;

pub struct S {
    pub m: HashMap<u32, u32>,
}

pub fn total(s: &S) -> u32 {
    s.m.values().sum()
}

pub fn since_start() -> u64 {
    Instant::now().elapsed().as_secs()
}

pub fn stamp() -> u64 {
    let now = std::time::SystemTime::now;
    now().elapsed().map_or(0, |d| d.as_secs())
}
";
    let types = [
        ("use std::collections::HashMap;", DISALLOWED_TYPES),
        ("pub type Index", DISALLOWED_TYPES),
        ("pub m: HashMap", DISALLOWED_TYPES),
    ];
    let methods =
        [("Instant::now()", DISALLOWED_METHODS), ("SystemTime::now;", DISALLOWED_METHODS)];

    let fx = Fixture::create("bans", lib);
    let found = fx.findings();
    let all: Vec<_> = types.iter().chain(&methods).copied().collect();
    assert_eq!(lib_sites(&found), expected(lib, &all), "{found:#?}");
}

#[test]
fn stale_allows_are_flagged_and_inventoried() {
    let lib = "\
#[expect(clippy::unwrap_used, reason = \"the caller guarantees Some\")]
pub fn one(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[expect(clippy::disallowed_methods, reason = \"nothing here reads a clock\")]
pub fn two() -> u32 {
    42
}
";
    let fx = Fixture::create("stale-expect", lib);
    let out = fx.gate();
    assert!(!out.status.success(), "a stale expectation must fail the gate: {}", report(&out));
    // The live expectation still suppresses: the stale one is the only finding.
    let want = [("nothing here reads a clock", UNFULFILLED_EXPECTATION)];
    assert_eq!(lib_sites(&findings(&out)), expected(lib, &want), "{}", report(&out));
}

#[test]
fn two_runs_on_a_dirty_workspace_print_identical_bytes() {
    let fx = Fixture::create("bytes", DIRTY);
    let diagnostics = |out: &Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with(r#"{"reason":"compiler-message""#))
            .map(str::to_string)
            .collect()
    };
    // One job: the library and its test build report the same sites, and
    // run side by side they interleave their reports in any order.
    let first = fx.clippy(&["--jobs", "1"], &[]);
    // A cold second run, not a replay of the first run's cached output.
    fs::remove_dir_all(fx.root.join("target")).expect("clear fixture target");
    let second = fx.clippy(&["--jobs", "1"], &[]);
    assert!(first.status.success() && second.status.success(), "{}", report(&first));
    assert_eq!(findings(&first).len(), DIRTY_WANT.len(), "{}", report(&first));
    assert_eq!(
        diagnostics(&first),
        diagnostics(&second),
        "diagnostics must be identical across runs"
    );
}

#[test]
fn binary_rejects_config_typos() {
    let fx = Fixture::create("config-typo", "pub fn one() {}\n");
    let config = repo_file(ROOT_CONFIG);
    assert!(config.contains("\ndisallowed-types"), "root clippy.toml has no disallowed-types");
    fx.write_config(&config.replace("\ndisallowed-types", "\ndisalowed-types"));
    let out = fx.gate();
    assert!(!out.status.success(), "a misspelt key must be a hard error: {}", report(&out));
    assert!(report(&out).contains("unknown field `disalowed-types`"), "{}", report(&out));
}

#[test]
fn analyze_rejects_stale_hot_names() {
    // clippy only warns about a banned path that names nothing, and that
    // warning is not a lint, so `-D warnings` lets it through while the ban
    // silently stops applying. Hold the committed config to zero such
    // warnings.
    let lib =
        "pub fn wall() -> u64 {\n    std::time::Instant::now().elapsed().as_nanos() as u64\n}\n";
    let fx = Fixture::create("stale-path", lib);
    let found = fx.findings();
    let in_config: Vec<_> = found.iter().filter(|f| f.file.ends_with("clippy.toml")).collect();
    assert!(
        in_config.is_empty(),
        "clippy.toml names a path that resolves to nothing: {in_config:#?}"
    );

    // The hole the check closes: a renamed path is flagged in the config
    // and the call it meant to ban goes through.
    let config = repo_file(ROOT_CONFIG);
    fx.write_config(&config.replace("\"std::time::Instant::now\"", "\"std::time::Instant::noww\""));
    let found = fx.findings();
    let in_config: Vec<_> = found.iter().filter(|f| f.file.ends_with("clippy.toml")).collect();
    assert_eq!(in_config.len(), 1, "{found:#?}");
    assert!(lib_sites(&found).is_empty(), "{found:#?}");
}
