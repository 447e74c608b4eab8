//! Workspace symbol table: function ids, lookup indexes and call resolution.
//!
//! Resolution is best-effort and deliberately over-approximates where the
//! token stream underdetermines the target (see DESIGN.md §9):
//!
//! * `self.m(…)` resolves to methods named `m` on the surrounding impl type
//!   (same crate first, then any crate — impls may be split across files),
//! * `Type::m(…)` resolves to methods named `m` on `Type` anywhere in the
//!   workspace (dynamic dispatch through `dyn Trait` thus fans out to every
//!   implementor that names the method — conservative),
//! * `expr.m(…)` on an unknown receiver resolves to *every* workspace impl
//!   method named `m`,
//! * bare `f(…)` resolves same-file first, then crate-wide, then through
//!   this file's `use` imports,
//! * `std::`/`core::`/`alloc::` paths resolve to nothing (std is modeled by
//!   the allocation/trait patterns, not by nodes).

use std::collections::BTreeMap;

use crate::parse::{Call, CallKind, FileModel, FnDef};

/// Index of a function in the flattened workspace list.
pub type FnId = usize;

/// The symbol table over a set of parsed files.
#[derive(Debug, Default)]
pub struct Symbols {
    /// FnId → (file index, fn index within the file).
    pub ids: Vec<(usize, usize)>,
    /// FnId → stable node id: `<file>::<Type>::<fn>` / `<file>::<fn>`.
    pub node_ids: Vec<String>,
    by_crate_name: BTreeMap<(String, String), Vec<FnId>>,
    by_type_method: BTreeMap<(String, String), Vec<FnId>>,
    by_method: BTreeMap<String, Vec<FnId>>,
    by_file_name: BTreeMap<(String, String), Vec<FnId>>,
}

/// Path roots that belong to std (or std-shaped vendored crates): a
/// qualified call starting with one of these never targets workspace code.
/// Without this, `Vec::new()` would fall through the in-crate fallback and
/// resolve to every workspace `new` — a graph-poisoning over-approximation.
const STD_PATH_ROOTS: [&str; 36] = [
    "std",
    "core",
    "alloc",
    "Vec",
    "VecDeque",
    "Box",
    "String",
    "str",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Option",
    "Result",
    "Some",
    "None",
    "Ok",
    "Err",
    "Arc",
    "Rc",
    "Cell",
    "RefCell",
    "Mutex",
    "RwLock",
    "Instant",
    "Duration",
    "SystemTime",
    "Ordering",
    "Layout",
    "System",
    "Reverse",
    "Wrapping",
    "PhantomData",
    "Cow",
    "Default",
];

/// Method names so ubiquitous on std containers/iterators/options that a
/// receiver-unknown `.name(…)` call is overwhelmingly a std call. These are
/// excluded from the workspace-wide method fallback; the cost is a missed
/// edge when a workspace type reuses such a name *and* is called through a
/// field or local (documented conservatism — `self.m()` and `Type::m()`
/// still resolve).
const STD_METHODS: [&str; 72] = [
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "clear",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "extend",
    "drain",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "last",
    "first",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "min",
    "max",
    "sum",
    "take",
    "swap",
    "fill",
    "resize",
    "reserve",
    "truncate",
    "entry",
    "or_insert",
    "or_default",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "push_str",
    "split",
    "join",
    "collect",
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "expect",
    "retain",
    "dedup",
    "rev",
    "zip",
    "enumerate",
    "filter",
    "fold",
    "any",
    "all",
    "find",
    "position",
    "count",
    "copied",
    "cloned",
    "swap_remove",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "write",
    "read",
    "flush",
    "abs",
];

/// Maps a path's leading segment to a workspace crate key, if it names one:
/// `graf_sim` → `sim`, `graf` → `graf`, `crate` → the current crate.
fn crate_of_segment(seg: &str, current: &str) -> Option<String> {
    if seg == "crate" || seg == "self" || seg == "super" {
        // `super` is approximated as the current crate (file-level modules
        // are flattened).
        return Some(current.to_string());
    }
    if seg == "graf" {
        return Some("graf".to_string());
    }
    seg.strip_prefix("graf_").map(|k| k.to_string())
}

impl Symbols {
    /// Builds the table. Test functions are not indexed.
    pub fn build(files: &[FileModel]) -> Symbols {
        let mut s = Symbols::default();
        for (fi, file) in files.iter().enumerate() {
            for (gi, def) in file.fns.iter().enumerate() {
                if def.in_test {
                    continue;
                }
                let id = s.ids.len();
                s.ids.push((fi, gi));
                s.node_ids.push(format!("{}::{}", file.path, def.qualified()));
                s.by_crate_name.entry((file.krate.clone(), def.name.clone())).or_default().push(id);
                s.by_file_name.entry((file.path.clone(), def.name.clone())).or_default().push(id);
                if let Some(ty) = &def.self_type {
                    s.by_type_method.entry((ty.clone(), def.name.clone())).or_default().push(id);
                    s.by_method.entry(def.name.clone()).or_default().push(id);
                }
            }
        }
        s
    }

    /// The (file index, fn index) behind a FnId.
    pub fn def<'m>(&self, files: &'m [FileModel], id: FnId) -> (&'m FileModel, &'m FnDef) {
        let (fi, gi) = self.ids[id];
        (&files[fi], &files[fi].fns[gi])
    }

    /// Every function named `name` in `file` — how a `[[hot]]` region names
    /// its roots.
    pub fn in_file(&self, file: &str, name: &str) -> &[FnId] {
        self.by_file_name.get(&(file.to_string(), name.to_string())).map_or(&[], Vec::as_slice)
    }

    /// Resolves a `<file>.rs::<fn>` / `<file>.rs::<Type>::<fn>` spec, as used
    /// by `entry-points` and `alloc-allowed` in `lint.toml`.
    pub fn resolve_spec(&self, files: &[FileModel], spec: &str) -> Vec<FnId> {
        let Some(pos) = spec.find(".rs::") else {
            return Vec::new();
        };
        let (file, rest) = (&spec[..pos + 3], &spec[pos + 5..]);
        let mut out: Vec<FnId> = Vec::new();
        for id in 0..self.ids.len() {
            let (f, def) = self.def(files, id);
            if f.path == file && (def.qualified() == rest || def.name == rest) {
                out.push(id);
            }
        }
        out
    }

    /// Resolves one call site to candidate targets. `file_idx` and `def` give
    /// the calling context.
    pub fn resolve_call(
        &self,
        files: &[FileModel],
        file_idx: usize,
        def: &FnDef,
        call: &Call,
    ) -> Vec<FnId> {
        let file = &files[file_idx];
        let mut out = match call.kind {
            CallKind::SelfMethod => {
                let name = &call.segments[0];
                match &def.self_type {
                    Some(ty) => self.type_method(ty, name, &file.krate),
                    None => self.method(name),
                }
            }
            CallKind::Method => self.method(&call.segments[0]),
            CallKind::Bare => {
                let name = &call.segments[0];
                let mut v = self.in_file(&file.path, name).to_vec();
                if v.is_empty() {
                    v = self
                        .by_crate_name
                        .get(&(file.krate.clone(), name.clone()))
                        .cloned()
                        .unwrap_or_default();
                }
                if v.is_empty() {
                    if let Some(u) = file.uses.iter().find(|u| u.alias == *name) {
                        v = self.resolve_path(files, file_idx, def, &u.segments);
                    }
                }
                v
            }
            CallKind::Path => self.resolve_path(files, file_idx, def, &call.segments),
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    fn method(&self, name: &str) -> Vec<FnId> {
        if STD_METHODS.contains(&name) {
            return Vec::new();
        }
        self.by_method.get(name).cloned().unwrap_or_default()
    }

    /// `Type::m` — same-crate impls first; cross-crate only when the type has
    /// no same-crate impl (impls of one type can span files, not crates, in
    /// this workspace).
    fn type_method(&self, ty: &str, name: &str, krate: &str) -> Vec<FnId> {
        let all = self
            .by_type_method
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default();
        let same: Vec<FnId> =
            all.iter().copied().filter(|&id| self.krate_of(id) == krate).collect();
        if same.is_empty() {
            all
        } else {
            same
        }
    }

    fn krate_of(&self, id: FnId) -> &str {
        // node id starts with the file path; crate is not stored per id, so
        // recompute from the path prefix.
        let path = &self.node_ids[id];
        if let Some(rest) = path.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or("")
        } else {
            "graf"
        }
    }

    fn resolve_path(
        &self,
        files: &[FileModel],
        file_idx: usize,
        def: &FnDef,
        segments: &[String],
    ) -> Vec<FnId> {
        let file = &files[file_idx];
        if segments.is_empty() {
            return Vec::new();
        }
        let mut segs: Vec<String> = segments.to_vec();
        // `Self::m` → the surrounding impl type.
        if segs[0] == "Self" {
            match &def.self_type {
                Some(ty) => segs[0] = ty.clone(),
                None => return Vec::new(),
            }
        }
        // Expand a leading `use` alias (`World::go` with `use graf_sim::world::World;`).
        if let Some(u) = file.uses.iter().find(|u| u.alias == segs[0]) {
            let mut full = u.segments.clone();
            full.extend(segs[1..].iter().cloned());
            segs = full;
        }
        let first = segs[0].as_str();
        if STD_PATH_ROOTS.contains(&first) {
            return Vec::new();
        }
        let last = segs[segs.len() - 1].clone();
        if let Some(krate) = crate_of_segment(first, &file.krate) {
            // Qualified into a workspace crate: try `Type::fn` then a free fn.
            if segs.len() >= 2 {
                let second_last = segs[segs.len() - 2].clone();
                let typed: Vec<FnId> = self
                    .by_type_method
                    .get(&(second_last, last.clone()))
                    .map(|v| v.iter().copied().filter(|&id| self.krate_of(id) == krate).collect())
                    .unwrap_or_default();
                if !typed.is_empty() {
                    return typed;
                }
            }
            return self.by_crate_name.get(&(krate, last)).cloned().unwrap_or_default();
        }
        // `Type::m` in the current crate. A capitalized head that implements
        // nothing in the workspace is a foreign type (`Layout::new`) — it
        // must NOT fall through to the name-based fallback, which would wire
        // `Foreign::new` to every workspace `new`.
        let head_is_type = first.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        if head_is_type {
            let ty = segs[segs.len() - 2].clone();
            return self.type_method(&ty, &last, &file.krate);
        }
        // `module::Type::m` within the current crate — same rule.
        if segs.len() >= 3 {
            let ty = segs[segs.len() - 2].clone();
            if ty.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                return self.type_method(&ty, &last, &file.krate);
            }
        }
        // `module::f` within the current crate.
        self.by_crate_name.get(&(file.krate.clone(), last)).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn two_files() -> Vec<FileModel> {
        vec![
            parse_file(
                "crates/sim/src/world.rs",
                "sim",
                "pub struct World;\n\
                 impl World {\n    pub fn run_until(&mut self) { self.dispatch(); helper(); }\n\
                 fn dispatch(&mut self) { graf_trace::store::push_raw(1); }\n}\n\
                 fn helper() {}\n",
            ),
            parse_file(
                "crates/trace/src/store.rs",
                "trace",
                "pub fn push_raw(x: u32) {}\npub struct TraceStore;\n\
                 impl TraceStore {\n    pub fn push_span(&mut self) {}\n}\n",
            ),
        ]
    }

    #[test]
    fn self_method_and_bare_resolve_in_crate() {
        let files = two_files();
        let s = Symbols::build(&files);
        let (f0, run) = (0usize, &files[0].fns[0]);
        assert_eq!(run.name, "run_until");
        let dispatch: Vec<FnId> = s.resolve_call(&files, f0, run, &run.calls[0]);
        // Calls are sorted by segments: dispatch < helper.
        assert_eq!(dispatch.len(), 1);
        assert!(s.node_ids[dispatch[0]].ends_with("World::dispatch"));
    }

    #[test]
    fn cross_crate_path_resolves() {
        let files = two_files();
        let s = Symbols::build(&files);
        let dispatch = &files[0].fns[1];
        let targets = s.resolve_call(&files, 0, dispatch, &dispatch.calls[0]);
        assert_eq!(targets.len(), 1);
        assert!(s.node_ids[targets[0]].starts_with("crates/trace/src/store.rs"));
    }

    #[test]
    fn method_fallback_is_workspace_wide() {
        let files = two_files();
        let s = Symbols::build(&files);
        let m = s.method("push_span");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn resolve_spec_finds_methods_and_free_fns() {
        let files = two_files();
        let s = Symbols::build(&files);
        assert_eq!(s.resolve_spec(&files, "crates/sim/src/world.rs::run_until").len(), 1);
        assert_eq!(s.resolve_spec(&files, "crates/sim/src/world.rs::World::run_until").len(), 1);
        assert_eq!(s.resolve_spec(&files, "crates/sim/src/world.rs::helper").len(), 1);
        assert!(s.resolve_spec(&files, "crates/sim/src/world.rs::nope").is_empty());
    }
}
