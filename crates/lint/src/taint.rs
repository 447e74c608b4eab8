//! Reachability queries over the call graph: determinism taint and hot-path
//! allocation.
//!
//! *Determinism taint* walks forward from the entry points declared in
//! `lint.toml` (`[analyze] entry-points`) and reports every reachable
//! non-determinism evidence site: wall-clock reads, RNG construction outside
//! the seeded home, `std::thread` use outside the blessed ordered-reduction
//! files, and unordered-map iteration. The finding is anchored at the sink
//! line and carries the call chain from the entry point, so the report reads
//! as a proof sketch rather than a bare location.
//!
//! *Hot alloc* walks forward from every `[[hot]]` function and reports the
//! constructor-class allocations of the roots and of their subtree alike.
//! Functions in `[analyze] alloc-allowed` are subtree barriers — recognized
//! init/growth paths that are cold by construction — as are the exempt
//! crates; a root itself is never barred.
//!
//! A spec that names nothing — an entry point, an `alloc-allowed` function or
//! a `[[hot]]` name — is reported in [`TaintReport::stale_specs`]; the
//! workspace pass turns it into a hard error, so a rename fails CI loudly
//! instead of silently shrinking the analyzed surface.

use std::collections::{BTreeSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lints::{finding, Finding, DETERMINISM_TAINT, HOT_ALLOC};
use crate::parse::{Evidence, FileModel, Site};
use crate::symbols::FnId;

/// Output of the reachability queries.
#[derive(Debug, Default)]
pub struct TaintReport {
    /// Taint and hot-alloc findings, before suppression.
    pub findings: Vec<Finding>,
    /// One message per `lint.toml` spec that resolves to no function.
    pub stale_specs: Vec<String>,
}

/// BFS parent forest: `parent[v]` is the predecessor on the first discovered
/// path, `None` for roots and unreached nodes (`visited` disambiguates).
struct Walk {
    visited: Vec<bool>,
    parent: Vec<Option<FnId>>,
}

/// Forward BFS from `roots`. `barred` nodes are never entered through an
/// edge; a root is always visited.
fn bfs(graph: &CallGraph, roots: &[FnId], barred: &dyn Fn(FnId) -> bool) -> Walk {
    let n = graph.edges.len();
    let mut w = Walk { visited: vec![false; n], parent: vec![None; n] };
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &r in roots {
        if !w.visited[r] {
            w.visited[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &t in &graph.edges[v] {
            if w.visited[t] || barred(t) {
                continue;
            }
            w.visited[t] = true;
            w.parent[t] = Some(v);
            queue.push_back(t);
        }
    }
    w
}

/// An evidence site of a function reached from a root.
struct Reached<'m> {
    file: &'m FileModel,
    site: &'m Site,
    /// Qualified name of the root the function was first reached from.
    root: String,
    /// The `root → … → function` chain; `None` at a root itself.
    via: Option<String>,
}

/// Walks forward from `roots` and lists every evidence site of every reached
/// function, once.
fn reach<'m>(
    files: &'m [FileModel],
    graph: &CallGraph,
    roots: &[FnId],
    barred: &dyn Fn(FnId) -> bool,
) -> Vec<Reached<'m>> {
    let walk = bfs(graph, roots, barred);
    let mut out = Vec::new();
    // A site inside a nested function belongs to both definitions.
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for id in (0..graph.edges.len()).filter(|&id| walk.visited[id]) {
        let (file, def) = graph.symbols.def(files, id);
        let mut names = vec![def.qualified()];
        let mut v = id;
        while let Some(p) = walk.parent[v] {
            names.push(graph.symbols.def(files, p).1.qualified());
            v = p;
        }
        names.reverse();
        let via = (names.len() > 1).then(|| names.join(" → "));
        for site in file.sites_in(def) {
            if seen.insert((graph.symbols.ids[id].0, site.tok)) {
                out.push(Reached { file, site, root: names[0].clone(), via: via.clone() });
            }
        }
    }
    out
}

/// Runs both reachability queries.
pub fn analyze(files: &[FileModel], graph: &CallGraph, cfg: &Config) -> TaintReport {
    let symbols = &graph.symbols;
    let mut report = TaintReport::default();
    let mut resolve = |key: &str, specs: &[String]| -> Vec<FnId> {
        let mut ids: Vec<FnId> = Vec::new();
        for spec in specs {
            let found = symbols.resolve_spec(files, spec);
            if found.is_empty() {
                report.stale_specs.push(format!(
                    "[analyze] {key}: `{spec}` resolves to no function \
                     (renamed or moved? update lint.toml)"
                ));
            }
            ids.extend(found);
        }
        ids
    };
    let entries = resolve("entry-points", &cfg.analyze.entry_points);
    let allowed = resolve("alloc-allowed", &cfg.analyze.alloc_allowed);
    let mut hot_roots: Vec<FnId> = Vec::new();
    for region in &cfg.hot {
        for name in &region.functions {
            let found = symbols.in_file(&region.file, name);
            if found.is_empty() {
                report
                    .stale_specs
                    .push(format!("[[hot]] {}: function `{name}` not found", region.file));
            }
            hot_roots.extend(found);
        }
    }

    let exempt = |id: FnId| cfg.analyze.exempt_crates.contains(&symbols.def(files, id).0.krate);
    for r in reach(files, graph, &entries, &exempt) {
        let what = match r.site.kind {
            Evidence::Wallclock => "wall-clock read",
            Evidence::Rng if !cfg.rng_home.contains(&r.file.path) => "RNG construction",
            Evidence::Thread if !cfg.analyze.ordered_reduction_files.contains(&r.file.path) => {
                "thread use outside an ordered-reduction file"
            }
            Evidence::UnorderedIter => "unordered-map iteration",
            _ => continue,
        };
        let message = format!(
            "{what} `{}` reachable from deterministic entry `{}` via {}",
            r.site.what,
            r.root,
            r.via.as_ref().unwrap_or(&r.root)
        );
        report.findings.push(finding(r.file, DETERMINISM_TAINT, r.site.line, message));
    }
    for r in reach(files, graph, &hot_roots, &|id| exempt(id) || allowed.contains(&id)) {
        if r.site.kind != Evidence::Alloc {
            continue;
        }
        let (what, root) = (&r.site.what, &r.root);
        let message = match &r.via {
            None => {
                format!(
                    "`{what}` inside hot function `{root}`; hot kernels must reuse caller buffers"
                )
            }
            Some(via) => format!(
                "`{what}` reachable from hot `{root}` via {via}; reuse caller buffers \
                 or list the cold callee in [analyze] alloc-allowed"
            ),
        };
        report.findings.push(finding(r.file, HOT_ALLOC, r.site.line, message));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HotRegion;
    use crate::parse::parse_file;

    fn setup(srcs: &[(&str, &str, &str)]) -> (Vec<FileModel>, CallGraph) {
        let files: Vec<FileModel> =
            srcs.iter().map(|(rel, krate, src)| parse_file(rel, krate, src)).collect();
        let graph = CallGraph::build(&files);
        (files, graph)
    }

    #[test]
    fn taint_crosses_call_edges_with_a_chain() {
        let (files, graph) = setup(&[(
            "crates/sim/src/world.rs",
            "sim",
            "pub fn run_until() { step(); }\n\
             fn step() { leaf(); }\n\
             fn leaf() { let t = std::time::Instant::now(); }\n",
        )]);
        let mut cfg = Config::default();
        cfg.analyze.entry_points = vec!["crates/sim/src/world.rs::run_until".into()];
        let report = analyze(&files, &graph, &cfg);
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!(f.lint, DETERMINISM_TAINT);
        assert_eq!(f.line, 3);
        assert!(f.message.contains("run_until → step → leaf"), "msg: {}", f.message);
        assert!(f.snippet.contains("Instant::now"));
    }

    #[test]
    fn unreachable_sinks_do_not_fire() {
        let (files, graph) = setup(&[(
            "crates/sim/src/world.rs",
            "sim",
            "pub fn run_until() {}\n\
             fn orphan() { let t = std::time::Instant::now(); }\n",
        )]);
        let mut cfg = Config::default();
        cfg.analyze.entry_points = vec!["crates/sim/src/world.rs::run_until".into()];
        let report = analyze(&files, &graph, &cfg);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn ordered_reduction_file_blesses_threads_but_not_wallclock() {
        let src = "pub fn train_step() { std::thread::scope(|s| {}); helper(); }\n\
                   fn helper() { let t = std::time::Instant::now(); }\n";
        let (files, graph) = setup(&[("crates/gnn/src/model.rs", "gnn", src)]);
        let mut cfg = Config::default();
        cfg.analyze.entry_points = vec!["crates/gnn/src/model.rs::train_step".into()];
        cfg.analyze.ordered_reduction_files = vec!["crates/gnn/src/model.rs".into()];
        let report = analyze(&files, &graph, &cfg);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("wall-clock"));
    }

    #[test]
    fn exempt_crates_are_barriers() {
        let (files, graph) = setup(&[
            ("crates/sim/src/world.rs", "sim", "pub fn run_until() { graf_obs::record(); }\n"),
            (
                "crates/obs/src/lib.rs",
                "obs",
                "pub fn record() { let t = std::time::Instant::now(); }\n",
            ),
        ]);
        let mut cfg = Config::default();
        cfg.analyze.entry_points = vec!["crates/sim/src/world.rs::run_until".into()];
        let report = analyze(&files, &graph, &cfg);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn unresolvable_entry_point_is_a_hard_error() {
        let (files, graph) =
            setup(&[("crates/sim/src/world.rs", "sim", "pub fn run_until() {}\n")]);
        let mut cfg = Config::default();
        cfg.analyze.entry_points = vec!["crates/sim/src/world.rs::renamed_away".into()];
        let report = analyze(&files, &graph, &cfg);
        assert!(report.stale_specs[0].contains("resolves to no function"), "{report:?}");
    }

    #[test]
    fn hot_alloc_reports_root_and_subtree_once_each() {
        let src = "pub fn kernel() { let s = String::new(); helper(); }\n\
                   fn helper() { let v = Vec::new(); }\n";
        let (files, graph) = setup(&[("crates/nn/src/matrix.rs", "nn", src)]);
        let mut cfg = Config::default();
        cfg.hot.push(HotRegion {
            file: "crates/nn/src/matrix.rs".into(),
            functions: vec!["kernel".into()],
        });
        let report = analyze(&files, &graph, &cfg);
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        assert!(report.findings.iter().all(|f| f.lint == HOT_ALLOC));
        let (root, subtree) = (&report.findings[0], &report.findings[1]);
        assert_eq!(root.line, 1);
        assert!(root.message.contains("inside hot function `kernel`"), "msg: {}", root.message);
        assert_eq!(subtree.line, 2);
        assert!(subtree.message.contains("kernel → helper"), "msg: {}", subtree.message);
    }

    #[test]
    fn alloc_allowed_is_a_subtree_barrier() {
        let src = "pub fn kernel() { grow(); }\n\
                   fn grow() { deep(); }\n\
                   fn deep() { let v = Vec::new(); }\n";
        let (files, graph) = setup(&[("crates/nn/src/matrix.rs", "nn", src)]);
        let mut cfg = Config::default();
        cfg.hot.push(HotRegion {
            file: "crates/nn/src/matrix.rs".into(),
            functions: vec!["kernel".into()],
        });
        cfg.analyze.alloc_allowed = vec!["crates/nn/src/matrix.rs::grow".into()];
        let report = analyze(&files, &graph, &cfg);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }
}
