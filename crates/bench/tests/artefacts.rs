//! The experiment registry against the committed artefacts, and the runner's
//! contracts: shared caches change no byte, one failure stops nothing, flags
//! are validated once for every subcommand, and telemetry is the one complete
//! record of a run.

use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};

use graf_bench::exp::{self, Ctx, Entry, REGISTRY};
use graf_bench::Args;
use graf_obs::json::{self, Json};

/// A sink the test keeps a handle to after `Ctx` has boxed the other.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl Buf {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("no writer panicked").clone()
    }
}

impl Write for Buf {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("no writer panicked").extend_from_slice(bytes);
        Ok(bytes.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A context for subcommand `cmd` (any experiment name, or `all`).
fn ctx_for(cmd: &str, flags: &[&str]) -> (Ctx, Buf) {
    let buf = Buf::default();
    let args = Args::from_args(cmd, flags.iter().map(|f| f.to_string())).expect("valid flags");
    (Ctx::new(args, Box::new(buf.clone())).expect("no telemetry path to open"), buf)
}

fn ctx(flags: &[&str]) -> (Ctx, Buf) {
    ctx_for("all", flags)
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
        "fig02_03_surge_hpa",
        "fig06_latency_curves",
        "fig07_cascading",
        "table1_hyperparams",
        "table3_budget",
        "fig19_cost_benefit",
    ] {
        let (mut cx, buf) = ctx(&["--seed", "7"]);
        entry(name).2(&mut cx).expect("writing to memory cannot fail");
        let committed = std::fs::read(repo(&format!("results/{name}.txt"))).expect("committed");
        assert!(buf.bytes() == committed, "{name} differs from results/{name}.txt");
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

    for doc in ["EXPERIMENTS.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(repo(doc)).expect("doc exists");
        let cited: Vec<&str> = text
            .split("results/")
            .skip(1)
            .filter_map(|s| s.split_once(".txt").map(|(name, _)| name))
            .filter(|name| {
                !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            })
            .collect();
        for name in cited {
            assert!(names.contains(name), "{doc} cites results/{name}.txt, which nothing writes");
        }
    }
}

/// Algorithm-1 runs recorded on `cx` (one `graf.sample.bounds` span each).
fn algorithm_one_runs(cx: &Ctx) -> usize {
    cx.obs.events().iter().filter(|e| e.name == "graf.sample.bounds").count()
}

#[test]
fn sharing_one_context_changes_no_byte_and_builds_once() {
    let dir = scratch("shared");
    let telemetry = dir.join("t.jsonl");
    let flags = ["--quick", "--samples", "60", "--telemetry", telemetry.to_str().expect("utf-8")];
    let entries = [
        "fig12_loss_heatmap",
        "fig11_ablation_mpnn",
        "fig13_search_space",
        "ablation_sampling",
        "ablation_loss",
    ]
    .map(entry);
    let (mut shared, _) = ctx(&flags);
    assert_eq!(exp::run_all(&entries, &mut shared, &dir).expect("temp dir is writable"), 0);
    // Fig 13 reads boutique's and Social Network's builds; the rest read boutique's.
    assert_eq!(shared.cache_misses(), (2, 0), "one build per application serves every experiment");
    assert_eq!(algorithm_one_runs(&shared), 2, "Algorithm 1 runs inside a build, once per build");
    for e in entries {
        let (mut fresh, buf) = ctx(&flags);
        e.2(&mut fresh).expect("writing to memory cannot fail");
        let builds = if e.0 == "fig13_search_space" { 2 } else { 1 };
        assert_eq!(fresh.cache_misses(), (builds, 0), "{}", e.0);
        assert_eq!(algorithm_one_runs(&fresh), builds, "{} runs Algorithm 1 outside a build", e.0);
        let on_shared = std::fs::read(dir.join(format!("{}.txt", e.0))).expect("artefact written");
        assert!(buf.bytes() == on_shared, "{} depends on what ran before it", e.0);
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
    let progress = String::from_utf8(progress.bytes()).expect("utf-8");
    let lines: Vec<&str> = progress.lines().take(3).collect();
    assert!(
        lines[0] == "ok   table3_budget" && lines[2] == "ok   fig19_cost_benefit",
        "{progress}"
    );
    assert!(lines[1].starts_with("FAIL boom "), "progress in slice order: {progress}");
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
    // Subcommands that were deleted are unknown experiments.
    for (cmd, args) in [("compare", ["a", "b"]), ("sweep", ["--grid", "@smoke"])] {
        let out = graf_exp(&[&[cmd][..], &args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(&format!("unknown experiment {cmd}")), "{stderr}");
        assert!(out.stdout.is_empty(), "{cmd} ran");
    }
    assert_eq!(graf_exp(&[]).status.code(), Some(2));
    // A misspelt fault class is caught before the model trains.
    let out = graf_exp(&["chaos_matrix", "--quick", "--chaos", "trace-drop"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown --chaos class \"trace-drop\"; known: none, "), "{stderr}");
    assert!(out.stdout.is_empty(), "chaos_matrix ran with an unknown class");
}

#[test]
fn telemetry_is_written_by_an_experiment_that_drives_no_controller() {
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

#[test]
fn a_panicking_experiment_still_writes_the_telemetry_it_recorded() {
    let dir = scratch("panic-telemetry");
    let path = dir.join("t.jsonl");
    let (mut cx, _) = ctx_for("boom", &["--telemetry", path.to_str().expect("utf-8")]);
    let boom: fn(&mut Ctx) -> io::Result<()> = |cx| {
        cx.obs.point("graf.test.before_panic");
        panic!("boom")
    };
    assert_eq!(exp::run_one(boom, &mut cx), 1, "a panic is one failure, not an abort");
    cx.finish_telemetry().expect("temp dir is writable");
    let jsonl = std::fs::read_to_string(&path).expect("telemetry file written");
    assert!(jsonl.contains("\"name\":\"graf.test.before_panic\""), "{jsonl}");
    std::fs::remove_dir_all(dir).expect("temp dir is removable");
}

/// The attributes of a JSONL event line.
fn attrs(line: &Json) -> &Json {
    line.get("attrs").expect("the event has attributes")
}

#[test]
fn chaos_matrix_telemetry_holds_every_decision_of_every_cell() {
    let dir = scratch("chaos-telemetry");
    let path = dir.join("t.jsonl");
    let flags = ["chaos_matrix", "--quick", "--chaos", "trace_drop", "--telemetry"];
    let out = graf_exp(&[&flags[..], &[path.to_str().expect("utf-8")]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("telemetry file written");
    let lines: Vec<Json> =
        text.lines().map(|l| json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}"))).collect();
    let name = |j: &Json| j.get("name").and_then(Json::as_str).expect("named").to_string();

    // Split the one log at the cell markers: ladder, then freeze.
    let cells: Vec<usize> =
        (0..lines.len()).filter(|&i| name(&lines[i]) == "graf.chaos.cell").collect();
    assert_eq!(cells.len(), 2, "one marker per cell");
    for (c, policy) in ["ladder", "freeze"].into_iter().enumerate() {
        let marker = attrs(&lines[cells[c]]);
        assert_eq!(marker.get("fault").and_then(Json::as_str), Some("trace_drop"));
        assert_eq!(marker.get("policy").and_then(Json::as_str), Some(policy));
        let end = cells.get(c + 1).copied().unwrap_or(lines.len());
        let ticks: Vec<usize> =
            (cells[c]..end).filter(|&i| name(&lines[i]) == "graf.resilient.tick").collect();
        // 420 simulated seconds at one control tick per 15 s.
        assert_eq!(ticks.len(), 28, "{policy}: one decision record per tick");
        for (n, &i) in ticks.iter().enumerate() {
            let point = attrs(&lines[i]);
            assert_eq!(point.get("tick").and_then(Json::as_u64), Some(n as u64), "{policy}");
            for key in ["level", "signal_age_s", "coverage", "rates_finite", "creation_ok"] {
                assert!(point.get(key).is_some(), "{policy} tick {n} lacks {key}");
            }
            for (key, len) in [("rates", 1), ("desired", 3), ("deltas", 3)] {
                let list = point.get(key);
                assert!(matches!(list, Some(Json::Arr(v)) if v.len() == len), "{key}: {list:?}");
            }
            // A Full tick's solver stats: the span just before, same sim_s.
            if point.get("level").and_then(Json::as_str) == Some("full") {
                let span = &lines[i - 1];
                assert_eq!(name(span), "graf.controller.tick", "{policy} tick {n}");
                assert_eq!(span.get("sim_s"), lines[i].get("sim_s"), "{policy} tick {n}");
                for key in ["solver_iterations", "solver_stop", "solver_loss", "predicted_p99_ms"] {
                    assert!(attrs(span).get(key).is_some(), "{policy} tick {n} lacks {key}");
                }
            }
        }
    }
    let counters: Vec<String> = lines
        .iter()
        .filter(|l| l.get("type").and_then(Json::as_str) == Some("counter"))
        .map(name)
        .collect();
    for counter in ["graf.resilient.transitions", "graf.sim.events"] {
        assert!(counters.iter().any(|c| c == counter), "no {counter} counter: {counters:?}");
    }
    std::fs::remove_dir_all(dir).expect("temp dir is removable");
}

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

#[test]
fn every_telemetry_name_in_the_crates_is_in_the_design_names_table() {
    let design = std::fs::read_to_string(repo("DESIGN.md")).expect("DESIGN.md exists");
    let table = design
        .split("\n### Observability\n")
        .nth(1)
        .and_then(|s| s.split("\n### ").next())
        .expect("DESIGN §2 has an Observability section");
    let mut missing = BTreeSet::new();
    for krate in std::fs::read_dir(repo("crates")).expect("crates/ exists") {
        let src = krate.expect("readable entry").path().join("src");
        for file in rust_files(&src) {
            let text = std::fs::read_to_string(&file).expect("readable source");
            // Non-test code: everything before the file's first test module.
            let code = text.split("\n#[cfg(test)]").next().unwrap_or_default();
            for rest in code.split("\"graf.").skip(1) {
                let name = format!("graf.{}", rest.split('"').next().unwrap_or_default());
                if !table.contains(&format!("`{name}`")) {
                    missing.insert(name);
                }
            }
        }
    }
    assert!(missing.is_empty(), "names missing from DESIGN §2's table: {missing:?}");
}
