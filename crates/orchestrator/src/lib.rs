//! # graf-orchestrator
//!
//! A Kubernetes-like control plane over the `graf-sim` world: deployments,
//! replica management with realistic instance-creation latency, the
//! autoscaler baselines GRAF is compared against, and the experiment driver
//! that interleaves load generation, simulation and control.
//!
//! Components:
//!
//! * [`creation`] — the instance-creation latency model, reproducing the
//!   measured curve of the paper's Figure 1 (5.5 s for one instance, rising
//!   to 45.6 s when 16 are created at once). This delay is what turns
//!   chain-oblivious autoscaling into the cascading effect of §2.1.
//! * [`cluster`] — [`Cluster`]: deployments (service, CPU unit per instance,
//!   desired replicas clamped to `[1, 1000]`) and the `set_desired`/apply
//!   machinery.
//! * [`autoscaler`] — the [`Autoscaler`] trait and baselines: the
//!   threshold-based Kubernetes HPA (15 s interval, 5-minute scale-down
//!   stabilization, §2.1/§5.3), the FIRM-like p95/p50-ratio scaler (§5.3),
//!   a proactive manual scaler (§2.1's "Opportunity"), and a static no-op.
//! * [`experiment`] — the driver loop gluing a [`Cluster`], a
//!   `graf_loadgen::LoadGen` and an [`Autoscaler`] together.
//!
//! **Invariants.** The control plane is deterministic: scaling decisions
//! depend only on simulated state, never on wall-clock or ambient
//! randomness, so a run is bit-reproducible per seed. Injected failures
//! (creation failure/slow-start via [`Cluster::arm_chaos`]) draw from the
//! chaos schedule's own seeded stream and an empty schedule draws nothing —
//! arming it leaves a run bit-identical to never arming it. Telemetry
//! ([`Cluster::set_obs`]) is write-only and never feeds back into decisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod autoscaler;
pub mod cluster;
pub mod creation;
pub mod experiment;

pub use autoscaler::{
    Autoscaler, FirmLike, HpaConfig, KubernetesHpa, ProactiveOnce, StaticScaler, CONTROL_INTERVAL,
};
pub use cluster::{Cluster, Deployment};
pub use creation::CreationModel;
pub use experiment::{run_experiment, ExperimentHooks};
