//! # graf-metrics
//!
//! Metrics substrate for the GRAF reproduction: the in-simulation analog of the
//! Prometheus + cAdvisor + Linkerd stack the paper deploys on its Kubernetes
//! cluster (§3.2, §4).
//!
//! The crate provides:
//!
//! * [`Histogram`] — a log-bucketed latency histogram with bounded relative
//!   error, used for per-service and end-to-end latency percentiles,
//! * [`WindowedLatency`] — fixed-width windows of histograms so that
//!   percentiles can be queried "over the last 10 seconds" exactly as the
//!   paper's sample collector does (§5, *Sample Collection and Training*),
//! * [`TimeSeries`] — an append-only `(t, v)` series used to record workload,
//!   instance counts and CPU figures for the figure-regeneration benches,
//! * [`CpuAccount`] — integrates CPU usage against allocated quota over time,
//!   yielding the utilization signal the Kubernetes autoscaler consumes,
//! * [`Summary`] — exact percentiles/means over small in-memory samples.
//!
//! Everything here is deterministic and allocation-light; no wall-clock time is
//! ever read. Times are simulation microseconds (`u64`) throughout, matching
//! `graf-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod cpu;
pub mod histogram;
pub mod rate;
pub mod summary;
pub mod timeseries;
pub mod window;

pub use cpu::CpuAccount;
pub use histogram::Histogram;
pub use rate::RateCounter;
pub use summary::Summary;
pub use timeseries::TimeSeries;
pub use window::WindowedLatency;
