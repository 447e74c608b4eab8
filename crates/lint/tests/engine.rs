//! End-to-end tests for the lint engine and the `graf-lint` binary.
//!
//! The fixture files under `tests/fixtures/` are real `.rs` sources that are
//! never compiled (nothing below `tests/` is a test target) and never scanned
//! by the repo's own lint run (`lint.toml` excludes the directory); the tests
//! lint them under synthetic `crates/sim/src/…` paths. The binary tests build
//! a throwaway mini-workspace under `CARGO_TARGET_TMPDIR` and drive the
//! compiled `graf-lint` executable, proving CI goes red exactly while a
//! violation is in the tree; the last test holds the repository itself to
//! zero findings.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use graf_lint::lints::{
    lint_file, BAD_ANNOTATION, FLOAT_REDUCTION, HOT_ALLOC, RELAXED_ATOMIC, THREAD_OUTSIDE_ORDERED,
    UNORDERED_MAP, UNSAFE_NO_SAFETY, UNSEEDED_RNG, UNWRAP_IN_LIB, WALLCLOCK,
};
use graf_lint::{lint_workspace, Config};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// Default config plus a hot region covering the dirty fixture's kernel.
fn fixture_cfg() -> Config {
    Config::parse(
        "[[hot]]\n\
         file = \"crates/sim/src/dirty.rs\"\n\
         functions = [\"hot_kernel\"]\n",
    )
    .expect("fixture config parses")
}

#[test]
fn dirty_fixture_fires_every_lint_once() {
    let findings = lint_file("crates/sim/src/dirty.rs", &fixture("dirty.rs"), &fixture_cfg());
    let mut lints: Vec<&str> = findings.iter().map(|f| f.lint).collect();
    lints.sort_unstable();
    // `hot-alloc` fires once per allocation form: `Vec::with_capacity`,
    // its turbofish spelling and `Rc::new`.
    let mut want = vec![
        BAD_ANNOTATION,
        HOT_ALLOC,
        HOT_ALLOC,
        HOT_ALLOC,
        UNORDERED_MAP,
        UNSEEDED_RNG,
        UNWRAP_IN_LIB,
        WALLCLOCK,
        THREAD_OUTSIDE_ORDERED,
    ];
    want.sort_unstable();
    assert_eq!(lints, want, "expected exactly one finding per lint, got: {findings:#?}");
}

#[test]
fn violations_in_strings_comments_and_test_code_do_not_fire() {
    let findings = lint_file("crates/sim/src/clean.rs", &fixture("clean.rs"), &fixture_cfg());
    assert!(findings.is_empty(), "clean fixture must produce no findings: {findings:#?}");
}

#[test]
fn justified_annotations_suppress_real_violations() {
    let findings = lint_file("crates/sim/src/allowed.rs", &fixture("allowed.rs"), &fixture_cfg());
    assert!(findings.is_empty(), "annotated fixture must produce no findings: {findings:#?}");
}

#[test]
fn fixture_findings_outside_declared_crates_are_scoped() {
    // Linted under a crate not in `ordered_crates`, the map iteration is
    // allowed; the unconditional lints still apply.
    let findings = lint_file("crates/apps/src/dirty.rs", &fixture("dirty.rs"), &fixture_cfg());
    assert!(findings.iter().all(|f| f.lint != UNORDERED_MAP), "{findings:#?}");
    assert!(findings.iter().any(|f| f.lint == UNWRAP_IN_LIB));
    // And under a test path the file is not a lint target at all.
    assert!(lint_file("crates/sim/tests/dirty.rs", &fixture("dirty.rs"), &fixture_cfg()).is_empty());
}

#[test]
fn concurrency_fixture_fires_each_new_lint_once() {
    let cfg = Config::parse(
        "[analyze]\n\
         parallel-adjacent-files = [\"crates/sim/src/concurrency.rs\"]\n",
    )
    .expect("fixture config parses");
    let findings = lint_file("crates/sim/src/concurrency.rs", &fixture("concurrency.rs"), &cfg);
    let mut lints: Vec<&str> = findings.iter().map(|f| f.lint).collect();
    lints.sort_unstable();
    assert_eq!(
        lints,
        vec![RELAXED_ATOMIC, FLOAT_REDUCTION, UNSAFE_NO_SAFETY],
        "expected one finding per concurrency lint, got: {findings:#?}"
    );
}

#[test]
fn float_reduction_is_scoped_to_parallel_adjacent_files() {
    // The same fixture linted without the parallel-adjacent marking: the
    // float accumulation is fine, the other two lints are unconditional.
    let findings =
        lint_file("crates/sim/src/concurrency.rs", &fixture("concurrency.rs"), &fixture_cfg());
    assert!(findings.iter().all(|f| f.lint != FLOAT_REDUCTION), "{findings:#?}");
    assert!(findings.iter().any(|f| f.lint == RELAXED_ATOMIC), "{findings:#?}");
    assert!(findings.iter().any(|f| f.lint == UNSAFE_NO_SAFETY), "{findings:#?}");
}

// ---------------------------------------------------------------------------
// Binary workflow.
// ---------------------------------------------------------------------------

struct MiniWs {
    root: PathBuf,
}

impl MiniWs {
    /// `CARGO_TARGET_TMPDIR/<name>` with a `lint.toml` and one library file.
    fn create(name: &str) -> MiniWs {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        if root.exists() {
            fs::remove_dir_all(&root).expect("clear stale mini-workspace");
        }
        fs::create_dir_all(root.join("crates/foo/src")).expect("mini-workspace dirs");
        fs::write(root.join("lint.toml"), "# defaults\n").expect("write lint.toml");
        let ws = MiniWs { root };
        ws.write_lib("pub fn one(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n");
        ws
    }

    fn write_lib(&self, src: &str) {
        fs::write(self.root.join("crates/foo/src/lib.rs"), src).expect("write lib.rs");
    }

    fn run(&self) -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_graf-lint"));
        cmd.arg("--root").arg(&self.root);
        cmd.output().expect("run graf-lint")
    }
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("graf-lint exited via signal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn binary_goes_red_on_new_violations_only() {
    let ws = MiniWs::create("lint-ws-red");

    // Fresh workspace with a violation: CI is red.
    let out = ws.run();
    assert_eq!(code(&out), 1, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("unwrap-in-lib"));

    // The violation is fixed: CI is green again.
    ws.write_lib("pub fn one(v: Option<u32>) -> u32 {\n    v.unwrap_or(0)\n}\n");
    let out = ws.run();
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("0 findings"), "stdout: {}", stdout(&out));

    // A NEW violation lands: CI goes red, and names exactly that one.
    ws.write_lib(
        "pub fn one(v: Option<u32>) -> u32 {\n    v.unwrap_or(0)\n}\n\
         pub fn two(v: Option<u64>) -> u64 {\n    v.unwrap()\n}\n",
    );
    let out = ws.run();
    assert_eq!(code(&out), 1);
    assert!(stdout(&out).contains("crates/foo/src/lib.rs:5: [unwrap-in-lib]"), "{}", stdout(&out));
    assert!(stdout(&out).contains("1 findings"), "{}", stdout(&out));
}

/// A mini-workspace whose `lint.toml` declares `hot_loop` a hot function;
/// `lib` is `crates/foo/src/lib.rs`.
fn hot_ws(name: &str, lib: &str) -> MiniWs {
    let ws = MiniWs::create(name);
    fs::write(
        ws.root.join("lint.toml"),
        "[[hot]]\n\
         file = \"crates/foo/src/lib.rs\"\n\
         functions = [\"hot_loop\"]\n",
    )
    .expect("write lint.toml");
    ws.write_lib(lib);
    ws
}

#[test]
fn direct_alloc_in_a_hot_function_turns_the_binary_red() {
    let ws = hot_ws(
        "lint-ws-hot-root",
        "pub fn drive() {}\n\n\
         pub fn hot_loop(n: u64) -> usize {\n\
         \x20   format!(\"{n}\").len()\n\
         }\n",
    );
    let out = ws.run();
    assert_eq!(code(&out), 1, "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("crates/foo/src/lib.rs:4: [hot-alloc]"), "{text}");
    assert!(text.contains("`format!` inside hot function `hot_loop`"), "{text}");
}

#[test]
fn crate_scoped_bans_see_function_bodies_and_file_level_sites() {
    // `sim` is an ordered, non-exempt crate under the default config. The
    // `use` line and the field type sit in no function body.
    let ws = MiniWs::create("lint-ws-bans");
    fs::create_dir_all(ws.root.join("crates/sim/src")).expect("sim crate dir");
    fs::write(
        ws.root.join("crates/sim/src/lib.rs"),
        "use std::collections::HashMap;\n\
         use std::time::SystemTime;\n\n\
         pub struct S {\n\
         \x20   pub rng: SmallRng,\n\
         \x20   pub m: HashMap<u32, u32>,\n\
         }\n\n\
         pub fn total(s: &S) -> u32 {\n\
         \x20   s.m.values().sum()\n\
         }\n",
    )
    .expect("write sim lib.rs");
    ws.write_lib("pub fn one() {}\n");
    let out = ws.run();
    assert_eq!(code(&out), 1, "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("crates/sim/src/lib.rs:2: [wallclock-in-deterministic-crate]"), "{text}");
    assert!(text.contains("crates/sim/src/lib.rs:5: [unseeded-rng]"), "{text}");
    assert!(text.contains("crates/sim/src/lib.rs:10: [unordered-map-iteration]"), "{text}");
    assert!(text.contains("3 findings"), "{text}");
}

#[test]
fn analyze_rejects_stale_hot_names() {
    // A renamed hot function must not silently drop out of the zero-alloc
    // claim; nor may a region whose file is no longer scanned.
    for (name, file, want) in [
        ("lint-ws-stale-hot-fn", "crates/foo/src/lib.rs", "function `hot_loop` not found"),
        ("lint-ws-stale-hot-file", "crates/foo/src/moved.rs", "[[hot]] crates/foo/src/moved.rs"),
    ] {
        let ws = MiniWs::create(name);
        fs::write(
            ws.root.join("lint.toml"),
            format!("[[hot]]\nfile = \"{file}\"\nfunctions = [\"one\", \"hot_loop\"]\n"),
        )
        .expect("write lint.toml");
        let out = ws.run();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(code(&out), 2, "a dangling [[hot]] name must be a hard error: {stderr}");
        assert!(stderr.contains(want), "stderr: {stderr}");
    }
}

#[test]
fn stale_allows_are_flagged_and_inventoried() {
    let ws = MiniWs::create("lint-ws-stale-allow");
    ws.write_lib(
        "pub fn one(v: Option<u32>) -> u32 {\n\
         \x20   // graf-lint: allow(unwrap, caller guarantees Some)\n\
         \x20   v.unwrap()\n\
         }\n\n\
         pub fn two() -> u32 {\n\
         \x20   // graf-lint: allow(wallclock, nothing here reads a clock)\n\
         \x20   42\n\
         }\n",
    );
    let out = ws.run();
    assert_eq!(code(&out), 1, "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("crates/foo/src/lib.rs:7: [stale-allow]"), "{text}");
    assert!(text.contains("no longer suppresses anything"), "{text}");
    // The live allow still suppresses: the stale-allow is the only finding.
    assert!(text.contains("1 findings"), "{text}");
    assert!(!text.contains("[unwrap-in-lib]"), "{text}");
}

#[test]
fn two_runs_on_a_dirty_workspace_print_identical_bytes() {
    // Findings from every stage — site bans, the hot query, token rules, a
    // stale allow — print in the same order every run.
    let ws = hot_ws(
        "lint-ws-bytes",
        "pub fn drive() -> u64 {\n\
         \x20   std::thread::scope(|_| b() + a())\n\
         }\n\n\
         fn a() -> u64 {\n\
         \x20   std::time::Instant::now().elapsed().as_micros() as u64\n\
         }\n\n\
         fn b() -> u64 {\n\
         \x20   a()\n\
         }\n\n\
         pub fn hot_loop(v: Option<u64>) -> u64 {\n\
         \x20   // graf-lint: allow(rng, nothing here draws)\n\
         \x20   vec![v.unwrap()].len() as u64 + b()\n\
         }\n",
    );
    let first = ws.run();
    let second = ws.run();
    assert_eq!(code(&first), 1, "stdout: {}", stdout(&first));
    for lint in [
        "wallclock-in-deterministic-crate",
        "thread-outside-ordered-reduction",
        "hot-alloc",
        "stale-allow",
        "unwrap-in-lib",
    ] {
        assert!(stdout(&first).contains(lint), "{lint} missing: {}", stdout(&first));
    }
    assert_eq!(first.stdout, second.stdout, "output must be byte-identical across runs");
}

#[test]
fn binary_rejects_config_typos() {
    let ws = MiniWs::create("lint-ws-cfg");
    fs::write(ws.root.join("lint.toml"), "[bogus]\nkey = \"v\"\n").expect("write bad config");
    let out = ws.run();
    assert_eq!(code(&out), 2, "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

// ---------------------------------------------------------------------------
// The repository itself.
// ---------------------------------------------------------------------------

#[test]
fn workspace_is_clean() {
    // The full pipeline over the real tree: site bans, hot bodies, token
    // rules, stale allows and stale `[[hot]]` names (an `Err`).
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg_text = fs::read_to_string(root.join("lint.toml")).expect("repo lint.toml");
    let cfg = Config::parse(&cfg_text).expect("repo lint.toml parses");
    let report = lint_workspace(&root, &cfg).expect("repo lint.toml specs all resolve");
    assert!(report.files_scanned > 100, "scanned {} files", report.files_scanned);
    assert!(report.findings.is_empty(), "workspace has findings: {:#?}", report.findings);
}
