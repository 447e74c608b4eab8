//! The experiment registry against the committed artefacts, and the runner's
//! contracts: shared caches change no byte, one failure stops nothing, flags
//! are validated once for every experiment.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::rc::Rc;

use graf_bench::exp::{self, Ctx, Entry, REGISTRY};
use graf_bench::Args;

/// A sink the test keeps a handle to after `Ctx` has boxed the other.
#[derive(Clone, Default)]
struct Buf(Rc<RefCell<Vec<u8>>>);

impl Write for Buf {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(bytes);
        Ok(bytes.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn ctx(flags: &[&str]) -> (Ctx, Buf) {
    let buf = Buf::default();
    let args = Args::from_args(flags.iter().map(|f| f.to_string())).expect("valid flags");
    (Ctx::new(args, Box::new(buf.clone())).expect("no telemetry path to open"), buf)
}

fn entry(name: &str) -> Entry {
    *REGISTRY.iter().find(|e| e.0 == name).unwrap_or_else(|| panic!("{name} is not registered"))
}

fn repo(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path)
}

/// A fresh directory under the system's temp dir, unique to `test`.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graf-exp-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

#[test]
fn model_free_experiments_reproduce_the_committed_artefacts() {
    for name in [
        "fig01_instance_creation",
        "topologies",
        "table1_hyperparams",
        "table3_budget",
        "fig19_cost_benefit",
    ] {
        let (mut cx, buf) = ctx(&["--seed", "7"]);
        entry(name).2(&mut cx).expect("writing to memory cannot fail");
        let committed = std::fs::read(repo(&format!("results/{name}.txt"))).expect("committed");
        assert!(*buf.0.borrow() == committed, "{name} differs from results/{name}.txt");
    }
}

#[test]
fn registry_names_are_unique_and_match_results_and_design_index() {
    let names: BTreeSet<&str> = REGISTRY.iter().map(|e| e.0).collect();
    assert_eq!(names.len(), REGISTRY.len(), "duplicate experiment name");

    let committed: BTreeSet<String> = std::fs::read_dir(repo("results"))
        .expect("results/ exists")
        .filter_map(|f| {
            f.expect("readable entry").file_name().to_str()?.strip_suffix(".txt").map(String::from)
        })
        .collect();
    assert_eq!(
        committed,
        names.iter().map(|n| n.to_string()).collect(),
        "results/*.txt vs REGISTRY"
    );

    let design = std::fs::read_to_string(repo("DESIGN.md")).expect("DESIGN.md exists");
    let index = design.split("\n## 3. ").nth(1).and_then(|s| s.split("\n## 4. ").next());
    let cited: Vec<&str> = index
        .expect("DESIGN.md has a section 3")
        .split("`graf-exp ")
        .skip(1)
        .filter_map(|s| s.split(['`', ' ']).next())
        .filter(|name| !name.starts_with('<') && !matches!(*name, "list" | "all"))
        .collect();
    assert!(cited.len() >= 20, "DESIGN §3 cites the experiments by `graf-exp <name>`: {cited:?}");
    for name in cited {
        assert!(names.contains(name), "DESIGN §3 cites unregistered experiment {name}");
    }
}

#[test]
fn sharing_one_context_changes_no_byte_and_builds_once() {
    let flags = ["--quick", "--samples", "60"];
    let pair = [entry("fig12_loss_heatmap"), entry("fig11_ablation_mpnn")];
    let dir = scratch("shared");
    let (mut shared, _) = ctx(&flags);
    assert_eq!(exp::run_all(&pair, &mut shared, &dir).expect("temp dir is writable"), 0);
    assert_eq!(shared.cache_misses(), (1, 0), "one boutique build serves both experiments");
    for e in pair {
        let (mut fresh, buf) = ctx(&flags);
        e.2(&mut fresh).expect("writing to memory cannot fail");
        assert_eq!(fresh.cache_misses(), (1, 0));
        let on_shared = std::fs::read(dir.join(format!("{}.txt", e.0))).expect("artefact written");
        assert!(*buf.0.borrow() == on_shared, "{} depends on what ran before it", e.0);
    }
    std::fs::remove_dir_all(dir).expect("temp dir is removable");
}

#[test]
fn a_panicking_experiment_fails_alone() {
    let slice = [
        entry("table3_budget"),
        ("boom", "panics", |_| panic!("boom")),
        entry("fig19_cost_benefit"),
    ];
    let dir = scratch("keepgoing");
    let (mut cx, progress) = ctx(&[]);
    assert_eq!(exp::run_all(&slice, &mut cx, &dir).expect("temp dir is writable"), 1);
    let progress = String::from_utf8(progress.0.borrow().clone()).expect("utf-8");
    assert_eq!(progress.matches("FAIL ").count(), 1, "{progress}");
    assert!(progress.contains("FAIL boom") && progress.contains("panicked: boom"), "{progress}");
    assert!(progress.contains("2/3 experiments passed") && progress.contains("FAILED: boom"));
    for good in ["table3_budget", "fig19_cost_benefit"] {
        let committed = std::fs::read(repo(&format!("results/{good}.txt"))).expect("committed");
        assert!(std::fs::read(dir.join(format!("{good}.txt"))).expect("written") == committed);
    }
    std::fs::remove_dir_all(dir).expect("temp dir is removable");
}

fn graf_exp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_graf-exp")).args(args).output().expect("graf-exp runs")
}

#[test]
fn an_unknown_flag_is_a_usage_error_for_every_experiment() {
    for name in ["table3_budget", "fig01_instance_creation", "all", "list"] {
        let out = graf_exp(&[name, "--frobnicate"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("unknown flag --frobnicate"), "{name}: {stderr}");
        assert!(
            stderr.contains("usage: graf-exp list") && stderr.contains("fig21_22_surge_comparison")
        );
        assert!(out.stdout.is_empty(), "{name} ran before its flags were checked");
    }
    assert_eq!(graf_exp(&["fig99_nope"]).status.code(), Some(2));
    assert_eq!(graf_exp(&[]).status.code(), Some(2));
}

#[test]
fn telemetry_is_written_by_an_experiment_that_only_collects() {
    let path = scratch("telemetry").join("t.jsonl");
    let out =
        graf_exp(&["fig13_search_space", "--quick", "--telemetry", path.to_str().expect("utf-8")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let jsonl = std::fs::read_to_string(&path).expect("telemetry file written");
    assert!(jsonl.contains("graf.sample.bound"), "Algorithm 1 reported through --telemetry");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("telemetry written to"), "{stdout}");
    std::fs::remove_dir_all(path.parent().expect("scratch dir")).expect("temp dir is removable");
}
