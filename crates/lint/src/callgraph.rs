//! Best-effort intra-workspace call graph over the parsed file models.
//!
//! Nodes are the [`Symbols`] function ids — non-test function definitions in
//! lintable files; edges come from [`crate::symbols`] resolution.
//! Construction is fully deterministic: files are walked in sorted order,
//! functions in token order, and edge lists are sorted and deduplicated.

use crate::parse::FileModel;
use crate::symbols::{FnId, Symbols};

/// The workspace call graph, with the symbol table it was resolved through.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// The symbol table; node `id` is `symbols.def(files, id)`.
    pub symbols: Symbols,
    /// Adjacency: `edges[id]` is sorted and deduplicated.
    pub edges: Vec<Vec<FnId>>,
}

impl CallGraph {
    /// Builds the graph from parsed models (files must be pre-sorted).
    pub fn build(files: &[FileModel]) -> CallGraph {
        let symbols = Symbols::build(files);
        let mut edges = Vec::with_capacity(symbols.ids.len());
        for (id, &(fi, _)) in symbols.ids.iter().enumerate() {
            let (_, def) = symbols.def(files, id);
            let mut out: Vec<FnId> = Vec::new();
            for call in &def.calls {
                out.extend(symbols.resolve_call(files, fi, def, call));
            }
            out.sort_unstable();
            out.dedup();
            // Self-loops carry no reachability information.
            out.retain(|&t| t != id);
            edges.push(out);
        }
        CallGraph { symbols, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    #[test]
    fn edges_cross_crates() {
        let files = [
            parse_file(
                "crates/sim/src/world.rs",
                "sim",
                "pub fn run() { graf_trace::push_raw(); }\n",
            ),
            parse_file("crates/trace/src/lib.rs", "trace", "pub fn push_raw() {}\n"),
        ];
        let g = CallGraph::build(&files);
        let name = |id: FnId| g.symbols.def(&files, id).1.name.as_str();
        let run = (0..g.edges.len()).find(|&id| name(id) == "run").expect("run node");
        assert_eq!(g.edges[run].len(), 1);
        assert_eq!(name(g.edges[run][0]), "push_raw");
    }
}
