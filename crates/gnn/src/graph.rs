//! The directed service graph message passing runs over.

/// A directed graph over `num_nodes` services, stored as per-node parent
/// lists (`N(i)` in the paper's eq. 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphSpec {
    parents: Vec<Vec<u16>>,
}

impl GraphSpec {
    /// Builds a graph from `(parent, child)` edges.
    ///
    /// # Panics
    /// Panics if an edge references a node `>= num_nodes` or is a self-loop.
    pub fn from_edges(num_nodes: usize, edges: &[(u16, u16)]) -> Self {
        let mut parents = vec![Vec::new(); num_nodes];
        for &(p, c) in edges {
            assert!((p as usize) < num_nodes && (c as usize) < num_nodes, "edge out of range");
            assert_ne!(p, c, "self-loops are not meaningful in a call graph");
            if !parents[c as usize].contains(&p) {
                parents[c as usize].push(p);
            }
        }
        for p in &mut parents {
            p.sort_unstable();
        }
        Self { parents }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parents.len()
    }

    /// Parent set of node `i`.
    pub fn parents(&self, i: usize) -> &[u16] {
        &self.parents[i]
    }

    /// All edges, sorted `(parent, child)`.
    pub fn edges(&self) -> Vec<(u16, u16)> {
        let mut v = Vec::new();
        for (c, ps) in self.parents.iter().enumerate() {
            for &p in ps {
                v.push((p, c as u16));
            }
        }
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_are_collected_and_deduped() {
        let g = GraphSpec::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 1)]);
        assert_eq!(g.parents(0), &[] as &[u16]);
        assert_eq!(g.parents(1), &[0]);
        assert_eq!(g.parents(3), &[1, 2]);
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        GraphSpec::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn out_of_range_rejected() {
        GraphSpec::from_edges(2, &[(0, 5)]);
    }
}
