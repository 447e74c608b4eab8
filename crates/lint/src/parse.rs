//! Token stream → item model and evidence: the one place a file is lexed,
//! and the one place each evidence kind is recognized.
//!
//! This is *not* a Rust grammar. It recognizes exactly the structure the
//! lints need: `impl` blocks (with the self type), `use` declarations,
//! function definitions with their body extents, the call sites inside each
//! body, and the evidence sites of the whole file (wall-clock, RNG
//! construction, thread spawn/scope, unordered-map iteration, allocation).
//! Everything else — expressions, types, generics — is skipped over by
//! brace/bracket matching. Every lint is a query over this model: a function
//! owns the sites inside its body range, the rest are file-level.
//!
//! Known conservatisms (documented in DESIGN.md §9): nested functions and
//! closures attribute their calls and sites to the enclosing top-level
//! function (an over-approximation that keeps reachability sound); macro
//! bodies are scanned as plain tokens; dynamic dispatch resolves by method
//! name (see [`crate::symbols`]).

use crate::lexer::{lex, strip_raw_ident, LineComment, Token, TokenKind};

/// How a call site names its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a free-function call.
    Bare,
    /// `self.name(…)` — a method on the surrounding impl type.
    SelfMethod,
    /// `expr.name(…)` — a method on an unknown receiver.
    Method,
    /// `a::b::name(…)` — a qualified path call.
    Path,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Resolution class.
    pub kind: CallKind,
    /// Path segments; a single element for `Bare`/`SelfMethod`/`Method`.
    pub segments: Vec<String>,
    /// 1-based source line.
    pub line: u32,
}

/// What an evidence site is evidence of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evidence {
    /// Wall-clock read (`Instant::now`, `SystemTime`), `is_recording`-gated
    /// lines excluded.
    Wallclock,
    /// RNG construction (`thread_rng`, `SmallRng`, `seed_from_u64`, …).
    Rng,
    /// `std::thread` spawn/scope use.
    Thread,
    /// Iteration over a `HashMap`/`HashSet` declared in this file.
    UnorderedIter,
    /// Constructor-class allocation (`Vec::new`, `.collect()`, `format!`, …).
    Alloc,
}

/// A non-determinism or allocation evidence site (never in test code).
#[derive(Clone, Debug)]
pub struct Site {
    /// Evidence class.
    pub kind: Evidence,
    /// Index of the matched token; [`FileModel::sites_in`] compares it with
    /// body ranges.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// What was seen (`Instant::now`, `thread::scope`, `Vec::new`, …).
    pub what: String,
}

/// One function definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name (raw-ident prefix stripped).
    pub name: String,
    /// Surrounding `impl` self type, when inside an impl block.
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `true` for `#[cfg(test)]`/`#[test]` functions (excluded from graphs).
    pub in_test: bool,
    /// Token indices of the body's `{` and `}`; `None` for a declaration.
    pub body: Option<(usize, usize)>,
    /// Call sites inside the body.
    pub calls: Vec<Call>,
}

impl FnDef {
    /// `file.rs::Type::name` or `file.rs::name` — the stable node id prefix
    /// is added by the call-graph layer.
    pub fn qualified(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `use` declaration, flattened: local alias → full path segments.
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// The name the path is visible as in this file.
    pub alias: String,
    /// Full path segments, e.g. `["graf_sim", "world", "World"]`.
    pub segments: Vec<String>,
}

/// The per-file model: the lexed file plus everything recognized in it.
#[derive(Clone, Debug, Default)]
pub struct FileModel {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// Owning crate (per [`crate::lints`] path classification).
    pub krate: String,
    /// The source text.
    pub src: String,
    /// All non-comment tokens, in source order.
    pub tokens: Vec<Token>,
    /// All line comments (the annotation carriers), in source order.
    pub comments: Vec<LineComment>,
    /// `true` for a `#![cfg(test)]` file: test-only, not a lint target.
    pub is_test: bool,
    /// Flattened `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Function definitions in source order.
    pub fns: Vec<FnDef>,
    /// Every evidence site of the file, in token order.
    pub sites: Vec<Site>,
}

impl FileModel {
    /// The token view the lints read.
    pub(crate) fn parser(&self) -> Parser<'_> {
        Parser { src: &self.src, t: &self.tokens }
    }

    /// The sites `def` owns: those inside its body range.
    pub fn sites_in<'m>(&'m self, def: &FnDef) -> impl Iterator<Item = &'m Site> {
        let (open, close) = def.body.unwrap_or((0, 0));
        self.sites.iter().filter(move |s| open < s.tok && s.tok < close)
    }

    /// The trimmed source line, for finding reports.
    pub fn snippet(&self, line: u32) -> &str {
        self.src.lines().nth(line.saturating_sub(1) as usize).map_or("", str::trim)
    }
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as", "let", "else",
    "unsafe", "ref", "mut", "box",
];

/// Token-stream view with the little helpers the parser and the lints share.
pub(crate) struct Parser<'s> {
    pub(crate) src: &'s str,
    pub(crate) t: &'s [Token],
}

impl<'s> Parser<'s> {
    pub(crate) fn text(&self, i: usize) -> &'s str {
        let t = &self.t[i];
        &self.src[t.start..t.end]
    }

    pub(crate) fn ident(&self, i: usize) -> Option<&'s str> {
        let t = self.t.get(i)?;
        (t.kind == TokenKind::Ident).then(|| strip_raw_ident(&self.src[t.start..t.end]))
    }

    pub(crate) fn is_ident(&self, i: usize, s: &str) -> bool {
        self.ident(i) == Some(s)
    }

    pub(crate) fn is_punct(&self, i: usize, c: char) -> bool {
        self.t.get(i).is_some_and(|t| t.kind == TokenKind::Punct) && self.text(i).starts_with(c)
    }

    fn is_path_sep(&self, i: usize) -> bool {
        // `::` — two adjacent `:` puncts.
        self.is_punct(i, ':') && self.is_punct(i + 1, ':') && self.t[i + 1].start == self.t[i].end
    }

    pub(crate) fn line(&self, i: usize) -> u32 {
        self.t[i].line
    }

    /// Index of the matching `}` for the `{` at `open`.
    fn close_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.t.len() {
            if self.is_punct(i, '{') {
                depth += 1;
            } else if self.is_punct(i, '}') {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.t.len().saturating_sub(1)
    }
}

/// Parses one file into its model. `rel` must already be classified as a
/// lintable library path (the caller checks).
pub fn parse_file(rel: &str, krate: &str, src: &str) -> FileModel {
    let lexed = lex(src);
    let p = Parser { src, t: &lexed.tokens };
    let mut model = FileModel {
        path: rel.to_string(),
        krate: krate.to_string(),
        src: src.to_string(),
        comments: lexed.comments,
        is_test: lexed.file_is_test,
        sites: scan_evidence(&p),
        ..FileModel::default()
    };

    // Structural walk: impl blocks, use declarations, fn definitions.
    let mut impl_stack: Vec<(usize, String)> = Vec::new(); // (close index, type)
    let mut i = 0usize;
    while i < p.t.len() {
        while let Some(&(close, _)) = impl_stack.last() {
            if i > close {
                impl_stack.pop();
            } else {
                break;
            }
        }
        if p.is_ident(i, "use") && !p.t[i].in_test {
            let (decls, next) = parse_use(&p, i + 1);
            model.uses.extend(decls);
            i = next;
            continue;
        }
        if p.is_ident(i, "impl") {
            // Self type: the first path ident after generics, or the one
            // after `for` in `impl Trait for Type`.
            let mut j = i + 1;
            // Skip `<…>` generic params (angle depth over puncts).
            if p.is_punct(j, '<') {
                let mut depth = 0i32;
                while j < p.t.len() {
                    if p.is_punct(j, '<') {
                        depth += 1;
                    } else if p.is_punct(j, '>') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            let mut ty: Option<String> = None;
            while j < p.t.len() && !p.is_punct(j, '{') {
                if p.is_ident(j, "for") {
                    // `impl Trait for Type`: the self type is after `for`,
                    // so the trait name collected above is discarded.
                    ty = None;
                } else if ty.is_none() {
                    if let Some(name) = p.ident(j) {
                        ty = Some(name.to_string());
                    }
                }
                j += 1;
            }
            if j < p.t.len() && p.is_punct(j, '{') {
                let close = p.close_brace(j);
                if let Some(ty) = ty {
                    impl_stack.push((close, ty));
                }
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }
        if p.is_ident(i, "fn") {
            let Some(name) = p.ident(i + 1) else {
                i += 1;
                continue;
            };
            let line = p.line(i);
            let in_test = p.t[i].in_test;
            // Body: first `{` before a top-level `;` (trait decls have none).
            let mut j = i + 2;
            let mut body: Option<(usize, usize)> = None;
            let mut paren = 0i32;
            while j < p.t.len() {
                if p.is_punct(j, '(') || p.is_punct(j, '[') {
                    paren += 1;
                } else if p.is_punct(j, ')') || p.is_punct(j, ']') {
                    paren -= 1;
                } else if paren == 0 && p.is_punct(j, '{') {
                    body = Some((j, p.close_brace(j)));
                    break;
                } else if paren == 0 && p.is_punct(j, ';') {
                    break;
                }
                j += 1;
            }
            let self_type = impl_stack.last().map(|(_, t)| t.clone());
            let mut def =
                FnDef { name: name.to_string(), self_type, line, in_test, body, calls: Vec::new() };
            if let Some((open, close)) = body {
                collect_calls(&p, open, close, &mut def);
                model.fns.push(def);
                // Continue walking *inside* the body so nested fns are also
                // recorded (their calls are attributed to both, which is the
                // conservative direction for reachability).
                i = open + 1;
                continue;
            }
            model.fns.push(def);
            i = j + 1;
            continue;
        }
        i += 1;
    }
    model.tokens = lexed.tokens;
    model
}

/// Names declared with a `HashMap`/`HashSet` type or initializer — fields
/// and locals alike; the check is name-based.
fn tracked_unordered_names<'s>(p: &Parser<'s>) -> Vec<&'s str> {
    let mut tracked = Vec::new();
    for i in 0..p.t.len() {
        if !(p.is_ident(i, "HashMap") || p.is_ident(i, "HashSet")) {
            continue;
        }
        // Walk back over `::`-joined path segments (std::collections::…).
        let mut j = i;
        while j >= 3 && p.is_path_sep(j - 2) && p.ident(j - 3).is_some() {
            j -= 3;
        }
        // `name: [path::]HashMap<…>` — a field or typed binding.
        if j >= 2 && p.is_punct(j - 1, ':') && !p.is_punct(j - 2, ':') {
            if let Some(name) = p.ident(j - 2) {
                tracked.push(name);
                continue;
            }
        }
        // `name = HashMap::new()` — an untyped binding.
        if j >= 2 && p.is_punct(j - 1, '=') {
            if let Some(name) = p.ident(j - 2) {
                tracked.push(name);
            }
        }
    }
    tracked
}

/// Parses a `use` declaration starting after the `use` keyword. Handles
/// `use a::b::C;`, `use a::b::{C, D};`, `use a::B as E;`. Glob imports and
/// nested groups deeper than one level are skipped (conservative: the
/// name-based method fallback still finds their targets).
fn parse_use(p: &Parser<'_>, start: usize) -> (Vec<UseDecl>, usize) {
    let mut segs: Vec<String> = Vec::new();
    let mut decls = Vec::new();
    let mut i = start;
    while i < p.t.len() && !p.is_punct(i, ';') {
        if let Some(name) = p.ident(i) {
            if name == "as" {
                // `use path as alias;` — next ident renames the last path.
                if let Some(alias) = p.ident(i + 1) {
                    if !segs.is_empty() {
                        decls.push(UseDecl { alias: alias.to_string(), segments: segs.clone() });
                        segs.clear();
                    }
                    i += 2;
                    continue;
                }
            }
            segs.push(name.to_string());
            i += 1;
            continue;
        }
        if p.is_path_sep(i) {
            i += 2;
            continue;
        }
        if p.is_punct(i, '{') {
            // One group level: `use a::{B, C as D, e};`
            let close = p.close_brace(i);
            let prefix = segs.clone();
            let mut inner: Vec<String> = Vec::new();
            let mut j = i + 1;
            while j < close {
                if let Some(name) = p.ident(j) {
                    if name == "as" {
                        if let Some(alias) = p.ident(j + 1) {
                            let mut full = prefix.clone();
                            full.append(&mut inner);
                            decls.push(UseDecl { alias: alias.to_string(), segments: full });
                            j += 2;
                            continue;
                        }
                    }
                    inner.push(name.to_string());
                    j += 1;
                    continue;
                }
                if p.is_punct(j, ',') {
                    if let Some(last) = inner.last().cloned() {
                        let mut full = prefix.clone();
                        full.append(&mut inner);
                        decls.push(UseDecl { alias: last, segments: full });
                    }
                    j += 1;
                    continue;
                }
                j += 1;
            }
            if let Some(last) = inner.last().cloned() {
                let mut full = prefix;
                full.extend(inner);
                decls.push(UseDecl { alias: last, segments: full });
            }
            i = close + 1;
            segs.clear();
            continue;
        }
        if p.is_punct(i, '*') {
            segs.clear();
            i += 1;
            continue;
        }
        i += 1;
    }
    if let Some(last) = segs.last().cloned() {
        decls.push(UseDecl { alias: last, segments: segs });
    }
    (decls, i + 1)
}

/// The one detector per evidence kind, over the whole token stream of the
/// file (test regions excluded).
fn scan_evidence(p: &Parser<'_>) -> Vec<Site> {
    use Evidence::{Alloc, Rng, Thread, UnorderedIter, Wallclock};
    // A wall-clock read on a line that also asks `is_recording()` is
    // telemetry, never a simulation input.
    let gated: Vec<u32> =
        (0..p.t.len()).filter(|&i| p.is_ident(i, "is_recording")).map(|i| p.line(i)).collect();
    let tracked = tracked_unordered_names(p);
    let mut sites: Vec<Site> = Vec::new();
    for k in 0..p.t.len() {
        let Some(word) = p.ident(k).filter(|_| !p.t[k].in_test) else {
            continue;
        };
        // `word::member` / `recv.word(` shapes.
        let member = if p.is_path_sep(k + 1) { p.ident(k + 3) } else { None };
        let receiver = if k >= 2 && p.is_punct(k - 1, '.') { p.ident(k - 2) } else { None };
        let after_dot = k >= 1 && p.is_punct(k - 1, '.');
        let hit = match word {
            "Instant" if member == Some("now") => Some((Wallclock, "Instant::now".to_string())),
            "SystemTime" => Some((Wallclock, word.to_string())),
            "thread_rng" | "ThreadRng" | "from_entropy" | "from_os_rng" | "OsRng"
            | "seed_from_u64" | "from_seed" | "from_rng" | "SmallRng" | "StdRng" => {
                Some((Rng, word.to_string()))
            }
            "thread" => match member {
                Some(m @ ("spawn" | "scope")) => Some((Thread, format!("thread::{m}"))),
                _ => None,
            },
            "Vec" | "Box" | "String" => match member {
                Some(m @ ("new" | "with_capacity" | "from")) => {
                    Some((Alloc, format!("{word}::{m}")))
                }
                _ => None,
            },
            "format" | "vec" if p.is_punct(k + 1, '!') => Some((Alloc, format!("{word}!"))),
            "clone" | "to_vec" | "to_owned" | "to_string" | "collect"
                if after_dot && (p.is_punct(k + 1, '(') || p.is_path_sep(k + 1)) =>
            {
                Some((Alloc, format!(".{word}()")))
            }
            "iter" | "iter_mut" | "keys" | "values" | "values_mut" | "into_iter" | "drain"
                if p.is_punct(k + 1, '(') =>
            {
                receiver
                    .filter(|name| tracked.contains(name))
                    .map(|name| (UnorderedIter, format!("{name}.{word}()")))
            }
            "for" => for_loop_over(p, k, &tracked)
                .map(|name| (UnorderedIter, format!("for … in {name}"))),
            _ => None,
        };
        let Some((kind, what)) = hit else {
            continue;
        };
        let line = p.line(k);
        // `for v in m.values()` matches twice; report each line once.
        let repeat = kind == UnorderedIter
            && sites.iter().rev().find(|s| s.kind == kind).is_some_and(|s| s.line == line);
        if repeat || (kind == Wallclock && gated.contains(&line)) {
            continue;
        }
        sites.push(Site { kind, tok: k, line, what });
    }
    sites
}

/// `for pat in <expr naming a tracked map> {` at the `for` token `k`: the
/// tracked name, if any.
fn for_loop_over<'s>(p: &Parser<'s>, k: usize, tracked: &[&'s str]) -> Option<&'s str> {
    let mut j = k + 1;
    while j < p.t.len() && !p.is_ident(j, "in") && !p.is_punct(j, '{') {
        j += 1;
    }
    if !p.is_ident(j, "in") {
        return None;
    }
    (j + 1..p.t.len())
        .take_while(|&m| !p.is_punct(m, '{'))
        .find_map(|m| p.ident(m).filter(|name| tracked.contains(name)))
}

/// Collects the call sites of the body token range.
fn collect_calls(p: &Parser<'_>, open: usize, close: usize, def: &mut FnDef) {
    let mut k = open + 1;
    while k < close {
        let Some(word) = p.ident(k) else {
            k += 1;
            continue;
        };
        let line = p.line(k);
        if NON_CALL_KEYWORDS.contains(&word) {
            k += 1;
            continue;
        }
        let prev_dot = k >= 1 && p.is_punct(k - 1, '.');
        let prev_sep = k >= 2 && p.is_path_sep(k - 2);
        if prev_dot && p.is_punct(k + 1, '(') {
            let kind = if k >= 2 && p.is_ident(k - 2, "self") {
                CallKind::SelfMethod
            } else {
                CallKind::Method
            };
            def.calls.push(Call { kind, segments: vec![word.to_string()], line });
            k += 1;
            continue;
        }
        if !prev_sep && !prev_dot && p.is_path_sep(k + 1) {
            // Path start: walk `a::b::c`, stop at turbofish or non-ident.
            let mut segs = vec![word.to_string()];
            let mut j = k + 1;
            while p.is_path_sep(j) {
                if p.is_punct(j + 2, '<') {
                    // turbofish `::<…>` — std generic call, skip the path.
                    segs.clear();
                    break;
                }
                let Some(next) = p.ident(j + 2) else {
                    segs.clear();
                    break;
                };
                segs.push(next.to_string());
                j += 3;
            }
            if segs.len() >= 2 && p.is_punct(j, '(') {
                def.calls.push(Call { kind: CallKind::Path, segments: segs, line });
                k = j;
                continue;
            }
            k += 1;
            continue;
        }
        if !prev_sep && !prev_dot && p.is_punct(k + 1, '(') {
            def.calls.push(Call { kind: CallKind::Bare, segments: vec![word.to_string()], line });
        }
        k += 1;
    }
    // Deterministic order and no duplicate edges from repeated sites.
    def.calls.sort_by(|a, b| {
        (&a.segments, a.kind as u8, a.line).cmp(&(&b.segments, b.kind as u8, b.line))
    });
    def.calls.dedup_by(|a, b| a.segments == b.segments && a.kind == b.kind);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        parse_file("crates/sim/src/world.rs", "sim", src)
    }

    /// How many `kind` sites function `i` owns.
    fn count(m: &FileModel, i: usize, kind: Evidence) -> usize {
        m.sites_in(&m.fns[i]).filter(|s| s.kind == kind).count()
    }

    #[test]
    fn finds_fns_and_impl_types() {
        let m = model(
            "pub struct W;\n\
             impl W {\n    pub fn run(&mut self) { self.step(); }\n    fn step(&mut self) {}\n}\n\
             fn free() { helper(); }\nfn helper() {}\n",
        );
        let names: Vec<String> = m.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["W::run", "W::step", "free", "helper"]);
        assert_eq!(m.fns[0].calls.len(), 1);
        assert_eq!(m.fns[0].calls[0].kind, CallKind::SelfMethod);
        assert_eq!(m.fns[2].calls[0].kind, CallKind::Bare);
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let m = model("trait T { fn go(&self); }\nimpl T for Wide {\n    fn go(&self) {}\n}\n");
        assert_eq!(m.fns.last().expect("fn").qualified(), "Wide::go");
    }

    #[test]
    fn use_declarations_flatten() {
        let m = model(
            "use std::collections::BTreeMap;\n\
             use graf_trace::{TraceStore, span::Span as S};\n\
             fn f() {}\n",
        );
        let find = |a: &str| m.uses.iter().find(|u| u.alias == a).map(|u| u.segments.clone());
        assert_eq!(
            find("BTreeMap"),
            Some(vec!["std".into(), "collections".into(), "BTreeMap".into()])
        );
        assert_eq!(find("TraceStore"), Some(vec!["graf_trace".into(), "TraceStore".into()]));
        assert_eq!(find("S"), Some(vec!["graf_trace".into(), "span".into(), "Span".into()]));
    }

    #[test]
    fn traits_collected_per_function() {
        let m = model(
            "fn dirty() {\n\
                 let t = std::time::Instant::now();\n\
                 let r = SmallRng::seed_from_u64(7);\n\
                 std::thread::spawn(|| {});\n\
                 let v = Vec::new();\n\
             }\n\
             fn clean() { let x = 1; }\n",
        );
        assert_eq!(count(&m, 0, Evidence::Wallclock), 1);
        assert!(count(&m, 0, Evidence::Rng) > 0);
        assert_eq!(count(&m, 0, Evidence::Thread), 1);
        assert_eq!(count(&m, 0, Evidence::Alloc), 1);
        assert_eq!(m.sites_in(&m.fns[1]).count(), 0);
    }

    #[test]
    fn path_calls_resolve_segments() {
        let m = model("fn f() { graf_sim::rng::derive(3); W::go(); }\n");
        let path_calls: Vec<&Call> =
            m.fns[0].calls.iter().filter(|c| c.kind == CallKind::Path).collect();
        assert_eq!(path_calls.len(), 2);
        assert!(path_calls.iter().any(|c| c.segments == ["graf_sim", "rng", "derive"]));
        assert!(path_calls.iter().any(|c| c.segments == ["W", "go"]));
    }

    #[test]
    fn unordered_iteration_site_attributed() {
        let m = model(
            "use std::collections::HashMap;\n\
             struct S { m: HashMap<u32, u32> }\n\
             fn f(s: &S) { for (k, v) in &s.m {} }\n",
        );
        assert_eq!(count(&m, 0, Evidence::UnorderedIter), 1);
    }

    #[test]
    fn raw_idents_normalize() {
        let m = model("fn r#type() {}\nfn f() { r#type(); }\n");
        assert_eq!(m.fns[0].name, "type");
        assert_eq!(m.fns[1].calls[0].segments, vec!["type"]);
    }

    #[test]
    fn gated_wallclock_is_not_evidence() {
        let m = model("fn f(s: &Span) { let t = s.is_recording().then(std::time::Instant::now); }");
        assert_eq!(count(&m, 0, Evidence::Wallclock), 0);
    }
}
