//! # graf-core
//!
//! GRAF itself: the paper's proactive, SLO-oriented resource-allocation
//! framework, assembled from the components of §3 (Figure 8):
//!
//! 1. **State and trace collection** (§3.2) — the simulated cluster is the
//!    cAdvisor + Jaeger analog, and each consumer reads the signal it needs:
//!    [`GrafController::observed_rates`] the front-end per-API rates,
//!    [`ResilientController`]'s trace refit the live traces, and
//!    [`SampleCollector::profile`] a fully traced profiling run.
//! 2. **Workload analyzer** ([`analyzer`], §3.3) — converts per-API front-end
//!    rates into per-microservice workloads using the 90 %-ile call
//!    multiplicities observed in traces.
//! 3. **Latency prediction model** ([`latency_model`], §3.4) — trains the
//!    MPNN+readout network (or the no-MPNN ablation) with the asymmetric
//!    Hüber percentage loss to predict end-to-end p99 latency from
//!    `(workload, quota)` node features.
//! 4. **Configuration solver** ([`solver`], §3.5) — gradient descent
//!    *through the trained network* over the CPU-quota variables, minimizing
//!    `Σ r` subject to `L̂(w,r) ≤ SLO` (eq. 5/6) within Algorithm-1 bounds:
//!    down the box until the SLO wall, then along it.
//! 5. **Resource controller** ([`controller`], §3.6) — scales workloads into
//!    the trained region, converts solved quotas to instance counts
//!    (`ceil(quota / unit)`, eq. 7) and applies them to every microservice at
//!    once — the proactive allocation of §3.8. The one §6 extension kept,
//!    integer refinement of that `ceil` ([`solver::integer_refine`]), is
//!    opt-in through [`GrafControllerConfig::integer_refine`].
//! 6. **Sample collector** ([`sample_collector`], §3.7) — Algorithm 1's
//!    search-space reduction plus parallel state-aware sample collection.
//!
//! [`framework::Graf`] wires all of it together: collect → train → control.
//! [`resilient::ResilientController`] wraps the controller in a health-gated
//! degradation ladder (full solve → last-good plan → HPA fallback → freeze)
//! for running under the fault classes `graf-chaos` injects.
//!
//! **Invariants.** The whole pipeline is deterministic per seed: sample
//! collection forks per-sample RNG streams, training shards with ordered
//! reductions (`graf-gnn`), and the solver is seed-free gradient descent —
//! so collect → train → control is bit-reproducible, with or without a
//! chaos schedule armed. Training/solver hot loops are allocation-free
//! after warm-up (measured by the counting allocator in `tests/sanitize.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod analyzer;
pub mod baseline;
pub mod controller;
pub mod dataset;
pub mod features;
pub mod framework;
pub mod latency_model;
pub mod resilient;
pub mod sample_collector;
pub mod solver;

pub use analyzer::WorkloadAnalyzer;
pub use controller::{GrafController, GrafControllerConfig, PlanOutcome};
pub use dataset::{Dataset, Split};
pub use features::FeatureScaler;
pub use framework::{Graf, GrafBuildConfig};
pub use latency_model::{LatencyModel, NetKind, TrainConfig, TrainReport};
pub use resilient::{PolicyLevel, PolicyMode, ResilientController};
pub use sample_collector::{Bounds, Sample, SampleCollector, SamplingConfig};
pub use solver::{integer_refine, solve, solve_observed, SolveResult, SolverConfig, Stop};
