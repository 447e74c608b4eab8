//! # GRAF — GNN-based Proactive Resource Allocation for SLO-Oriented Microservices
//!
//! A full Rust reproduction of *GRAF: A Graph Neural Network based Proactive
//! Resource Allocation Framework for SLO-Oriented Microservices* (Park, Choi,
//! Lee, Han — CoNEXT 2021), including every substrate the paper's evaluation
//! depends on:
//!
//! | layer | crate | paper analog |
//! |---|---|---|
//! | metrics | [`metrics`] | Prometheus / cAdvisor / Linkerd |
//! | tracing | [`trace`] | Jaeger |
//! | telemetry | [`obs`] | GRAF's own spans, points and metrics, one JSONL log |
//! | cluster simulation | [`sim`] | 7-node Kubernetes testbed |
//! | control plane + baselines | [`orchestrator`] | Kubernetes deployments, HPA, FIRM-like |
//! | load generation | [`loadgen`] | Vegeta, Locust, Azure trace replay |
//! | benchmark apps | [`apps`] | Online Boutique, Social Network, Robot Shop, Bookinfo |
//! | neural nets | [`nn`] | PyTorch |
//! | GNN | [`gnn`] | torch-geometric MPNN |
//! | GRAF | [`core`] | the paper's contribution (§3) |
//! | fault injection | [`chaos`] | production failure modes (lost traces, scrape gaps, failed creations) |
//!
//! ## Quickstart
//!
//! ```no_run
//! use graf::apps::online_boutique;
//! use graf::core::{Graf, GrafBuildConfig, SamplingConfig};
//!
//! // Profile the app, reduce the search space (Algorithm 1), collect
//! // samples, train the GNN latency predictor:
//! let cfg = GrafBuildConfig {
//!     sampling: SamplingConfig { probe_qps: vec![30.0, 30.0, 40.0], ..Default::default() },
//!     ..Default::default()
//! };
//! let graf = Graf::build(online_boutique(), cfg);
//!
//! // Ask for the cheapest configuration meeting a 100 ms p99 SLO at the
//! // current front-end workload:
//! let mut controller = graf.controller(100.0);
//! let plan = controller.plan_outcome(&[30.0, 30.0, 40.0], None);
//! println!("quotas: {:?}, predicted p99 = {:.1} ms", plan.quotas_mc, plan.solve.predicted_ms);
//! ```
//!
//! `examples/quickstart.rs` is a runnable tour of this API, and the
//! `graf-exp` runner of `crates/bench` runs every table/figure of the
//! paper's evaluation (see DESIGN.md for the experiment index).

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub use graf_apps as apps;
pub use graf_chaos as chaos;
pub use graf_core as core;
pub use graf_gnn as gnn;
pub use graf_loadgen as loadgen;
pub use graf_metrics as metrics;
pub use graf_nn as nn;
pub use graf_obs as obs;
pub use graf_orchestrator as orchestrator;
pub use graf_sim as sim;
pub use graf_trace as trace;
