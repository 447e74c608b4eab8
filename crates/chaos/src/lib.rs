//! # graf-chaos
//!
//! Deterministic fault injection for the GRAF control loop.
//!
//! The paper's framework runs against a real Kubernetes cluster where traces
//! go missing, metric scrapes lag, and instance creation fails; this crate
//! reproduces those failure modes inside the simulation so the degradation
//! paths the paper implicitly relies on (§3.7 anomaly handling, fallback to
//! threshold scaling) can be exercised and measured. Each fault is a
//! schedule-driven [`FaultSpec`] window; a [`ChaosSchedule`] composes them and
//! hands out per-consumer [`ChaosEngine`]s that the simulator, the cluster
//! control plane and the resource controller query at decision points.
//!
//! ## Fault catalog
//!
//! | fault | injected where | control-loop stage it corrupts |
//! |---|---|---|
//! | [`FaultKind::TraceDrop`] | span recording in `graf-sim` | workload analyzer (partial call graphs) |
//! | [`FaultKind::MetricNan`] | controller's metric scrape | per-API rate signal (NaN/gap windows) |
//! | [`FaultKind::MetricStale`] | controller's metric scrape | per-API rate signal (delayed reads) |
//! | [`FaultKind::StaleModel`] | controller's metric scrape | solver input (frozen snapshot) |
//! | [`FaultKind::CreationFail`] | `Cluster::set_desired` | instance creation (batch lost) |
//! | [`FaultKind::SlowStart`] | `Cluster::set_desired` | instance creation (multiplied delay) |
//! | [`FaultKind::LatencySpike`] | per-service work cost in `graf-sim` | measured latency (contention) |
//!
//! ## Determinism invariants
//!
//! * All randomness comes from [`graf_sim::rng::DetRng`] streams forked from
//!   the schedule's seed — a chaos-enabled run is bit-identical across
//!   executions with the same seed (`tests/chaos.rs`).
//! * An empty schedule injects nothing and draws nothing: arming chaos with
//!   no faults leaves a run bit-identical to one that never heard of this
//!   crate (`chaos off` ≡ baseline).
//! * Engine queries on the simulation hot path allocate nothing (measured by
//!   `graf-core`'s counting-allocator suite) and never read the wall clock
//!   (banned by the workspace `clippy.toml`).
//!
//! ## Quickstart
//!
//! ```
//! use graf_chaos::{ChaosSchedule, FaultKind, stream};
//! use graf_sim::time::{SimDuration, SimTime};
//!
//! // A 60 s window of dropped trace spans plus a creation-failure window.
//! let schedule = ChaosSchedule::new(42)
//!     .fault(
//!         FaultKind::TraceDrop { drop_prob: 0.75 },
//!         SimTime::from_secs(90.0),
//!         SimTime::from_secs(150.0),
//!     )
//!     .fault(
//!         FaultKind::CreationFail { prob: 1.0 },
//!         SimTime::from_secs(120.0),
//!         SimTime::from_secs(210.0),
//!     );
//! assert!(schedule.active_at(SimTime::from_secs(100.0)));
//!
//! // Consumers fork their own engine so draws never interleave.
//! let mut engine = schedule.engine(stream::CLUSTER);
//! assert!(engine.creation_fails(SimTime::from_secs(130.0)));
//! assert!(!engine.creation_fails(SimTime::from_secs(30.0)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod catalog;
pub mod engine;
pub mod spec;

pub use catalog::{named_faults, CATALOG};
pub use engine::ChaosEngine;
pub use spec::{ChaosSchedule, FaultKind, FaultSpec};

/// Well-known [`graf_sim::rng::DetRng`] stream ids, one per engine-owning
/// site, so the cluster and the controller never share a random stream.
/// (World faults are installed by [`ChaosSchedule::install_world`] and draw
/// from the world's own trace stream; the world owns no engine.)
pub mod stream {
    /// Stream for the cluster control plane (creation faults).
    pub const CLUSTER: u64 = 0xC4A0_0002;
    /// Stream for the resource controller's metric scrape.
    pub const CONTROLLER: u64 = 0xC4A0_0003;
}
