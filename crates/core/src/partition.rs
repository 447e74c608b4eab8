//! §6 extension: graph partitioning for scalability.
//!
//! The readout layer's input grows linearly with the number of microservices
//! (§6: "the readout phase's neural network input node dimension is linearly
//! dependent on the number of microservices"), so the paper suggests that
//! "graph partitioning algorithms might reduce the burden … by partitioning
//! the microservices and training separately."
//!
//! This module implements that suggestion: [`partition_graph`] splits the
//! service graph into `k` balanced, connectivity-aware parts, and
//! [`PartitionedLatencyModel`] trains one (much smaller) GNN per part on the
//! *same* end-to-end labels, restricted to that part's features. Predictions
//! compose additively around the global mean:
//!
//! `L̂(x) = base + Σ_p (L̂_p(x_p) − base)`
//!
//! which is exact when the true latency decomposes additively across
//! partitions (sequential chains) and an approximation otherwise. The
//! `ablation_partition` bench quantifies the accuracy/size trade-off.

use crate::dataset::Dataset;
use crate::features::FeatureScaler;
use crate::latency_model::{LatencyModel, NetKind, TrainConfig, TrainReport};
use crate::sample_collector::Sample;

/// Splits a graph of `num_nodes` services into `k` balanced parts.
///
/// Greedy BFS region growing: parts are seeded round-robin from unassigned
/// nodes and grown along edges, keeping sizes within one node of each other.
/// Returns each part's sorted node list; every node appears exactly once.
pub fn partition_graph(num_nodes: usize, edges: &[(u16, u16)], k: usize) -> Vec<Vec<u16>> {
    assert!(k >= 1 && k <= num_nodes, "1 <= k <= nodes");
    let mut adj = vec![Vec::new(); num_nodes];
    for &(a, b) in edges {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    let target = num_nodes.div_ceil(k);
    let mut assigned = vec![false; num_nodes];
    let mut parts: Vec<Vec<u16>> = Vec::with_capacity(k);
    for _ in 0..k {
        // Seed: first unassigned node (deterministic).
        let Some(seed) = (0..num_nodes).find(|&n| !assigned[n]) else { break };
        let mut part = vec![seed as u16];
        assigned[seed] = true;
        let mut frontier = vec![seed as u16];
        while part.len() < target {
            // Expand along edges first; fall back to any unassigned node.
            let next = frontier
                .iter()
                .flat_map(|&f| adj[f as usize].iter().copied())
                .find(|&n| !assigned[n as usize])
                .or_else(|| (0..num_nodes as u16).find(|&n| !assigned[n as usize]));
            match next {
                Some(n) => {
                    assigned[n as usize] = true;
                    part.push(n);
                    frontier.push(n);
                }
                None => break,
            }
        }
        part.sort_unstable();
        parts.push(part);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// One trained sub-model with its node subset.
struct Part {
    nodes: Vec<u16>,
    model: LatencyModel,
}

/// An ensemble of per-partition latency models (§6 scalability).
pub struct PartitionedLatencyModel {
    parts: Vec<Part>,
    base_ms: f64,
    num_services: usize,
}

impl PartitionedLatencyModel {
    /// Partitions the graph, trains one model per part on the shared samples
    /// and split, and returns the ensemble with each part's train report.
    #[expect(
        clippy::too_many_arguments,
        reason = "the graph, its part count, and the inputs every part trains on"
    )]
    pub fn build(
        kind: NetKind,
        edges: &[(u16, u16)],
        num_services: usize,
        k: usize,
        scaler: FeatureScaler,
        samples: &[Sample],
        train: &TrainConfig,
        split_seed: u64,
    ) -> (Self, Vec<TrainReport>) {
        assert!(!samples.is_empty());
        let parts_nodes = partition_graph(num_services, edges, k);
        let base_ms = samples.iter().map(|s| s.p99_ms).sum::<f64>() / samples.len() as f64;
        let mut parts = Vec::new();
        let mut reports = Vec::new();
        for nodes in parts_nodes {
            // Induced subgraph with remapped ids.
            let remap = |id: u16| nodes.iter().position(|&n| n == id).map(|i| i as u16);
            let sub_edges: Vec<(u16, u16)> =
                edges.iter().filter_map(|&(a, b)| Some((remap(a)?, remap(b)?))).collect();
            // Per-part dataset: the same e2e labels, features restricted to
            // the part's services.
            let mut ds = Dataset::new();
            for s in samples {
                let w: Vec<f64> = nodes.iter().map(|&n| s.workloads[n as usize]).collect();
                let q: Vec<f64> = nodes.iter().map(|&n| s.quotas_mc[n as usize]).collect();
                ds.push(scaler.features(&w, &q), s.p99_ms);
            }
            let split = ds.split(0.7, 0.15, split_seed);
            let label_scale = split.train.label_mean().max(1e-9);
            let mut model = LatencyModel::new(
                kind,
                &sub_edges,
                nodes.len(),
                scaler,
                label_scale,
                split_seed ^ (nodes[0] as u64) << 3,
            );
            let report = model.train(&split, train);
            reports.push(report);
            parts.push(Part { nodes, model });
        }
        (Self { parts, base_ms, num_services }, reports)
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Total trainable parameters across all part models.
    pub fn num_params(&self) -> usize {
        self.parts.iter().map(|p| p.model.num_params()).sum()
    }

    /// Predicts e2e p99 (ms) by additive composition around the global mean.
    pub fn predict_ms(&self, workloads: &[f64], quotas_mc: &[f64]) -> f64 {
        assert_eq!(workloads.len(), self.num_services);
        let mut acc = self.base_ms;
        for p in &self.parts {
            let w: Vec<f64> = p.nodes.iter().map(|&n| workloads[n as usize]).collect();
            let q: Vec<f64> = p.nodes.iter().map(|&n| quotas_mc[n as usize]).collect();
            acc += p.model.predict_ms(&w, &q) - self.base_ms;
        }
        acc
    }

    /// Mean absolute percentage error over a sample set.
    pub fn mape(&self, samples: &[Sample]) -> f64 {
        let mut acc = 0.0;
        for s in samples {
            let p = self.predict_ms(&s.workloads, &s.quotas_mc);
            acc += ((p - s.p99_ms) / s.p99_ms.max(1e-9)).abs();
        }
        100.0 * acc / samples.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_sim::rng::DetRng;

    #[test]
    fn partition_covers_all_nodes_exactly_once() {
        let edges = [(0u16, 1u16), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7)];
        for k in 1..=4 {
            let parts = partition_graph(8, &edges, k);
            let mut all: Vec<u16> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..8).collect::<Vec<_>>(), "k={k}: {parts:?}");
            // Balanced within one target size.
            let target = 8usize.div_ceil(k);
            for p in &parts {
                assert!(p.len() <= target, "k={k}: part too large {parts:?}");
            }
        }
    }

    #[test]
    fn partition_prefers_connected_regions() {
        // Two disjoint chains: 0-1-2 and 3-4-5. k=2 must split them apart.
        let edges = [(0u16, 1u16), (1, 2), (3, 4), (4, 5)];
        let parts = partition_graph(6, &edges, 2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], vec![0, 1, 2]);
        assert_eq!(parts[1], vec![3, 4, 5]);
    }

    /// On an additively decomposable surface, the partitioned ensemble tracks
    /// the truth nearly as well as it would with full visibility.
    #[test]
    fn partitioned_model_learns_additive_surface() {
        let works = [0.5, 1.5, 1.0, 2.0];
        let n = works.len();
        let mut rng = DetRng::new(9);
        let mut samples = Vec::new();
        for _ in 0..800 {
            let w = rng.uniform(20.0, 100.0);
            let quotas: Vec<f64> =
                works.iter().map(|wk| rng.uniform(120.0 + wk * 110.0, 2000.0)).collect();
            let mut p99 = 3.0;
            for i in 0..n {
                let head = (quotas[i] - w * works[i]).max(12.0);
                p99 += 800.0 * works[i] / head + works[i];
            }
            samples.push(Sample {
                api_rates: vec![w],
                workloads: vec![w; n],
                quotas_mc: quotas,
                p99_ms: p99,
            });
        }
        let scaler = FeatureScaler::fit(
            samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
        );
        let edges = [(0u16, 1u16), (1, 2), (2, 3)];
        let train = TrainConfig { epochs: 60, evals: 6, ..Default::default() };
        let (model, reports) = PartitionedLatencyModel::build(
            NetKind::Gnn,
            &edges,
            n,
            2,
            scaler,
            &samples,
            &train,
            17,
        );
        assert_eq!(model.num_parts(), 2);
        assert_eq!(reports.len(), 2);
        let err = model.mape(&samples);
        assert!(err < 15.0, "partitioned ensemble fits the additive surface: {err:.1}%");
        // Quota direction is preserved through the composition.
        let w = vec![60.0; n];
        let lo: Vec<f64> = works.iter().map(|wk| 130.0 + wk * 110.0).collect();
        let hi = vec![2000.0; n];
        assert!(model.predict_ms(&w, &lo) > model.predict_ms(&w, &hi));
    }
}
