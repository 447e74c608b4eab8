//! # graf-trace
//!
//! Distributed-tracing substrate for the GRAF reproduction — the in-simulation
//! analog of Jaeger (§3.2 of the paper). Every request that flows through the
//! simulated microservice application emits one [`Span`] per service hop; the
//! [`TraceStore`] assembles spans into traces and the [`CallStats`] layer
//! derives exactly the data GRAF's workload analyzer consumes (§3.3):
//!
//! * the execution path of each API (which services a request touches),
//! * the per-trace call multiplicity of each service for each API, summarized
//!   at a configurable percentile (the paper uses the 90 %-ile) from one
//!   counter per multiplicity, not one sample per trace, and
//! * parent→child edges of the microservice graph, which the GNN's
//!   message-passing structure is built from (§3.4).
//!
//! Services and APIs are identified by plain `u16` indices assigned by the
//! simulator; this crate stays a pure data layer with no dependency at all.
//!
//! A [`Span`] carries no trace id or API (the `Span::trace_id` and
//! `Span::api` fields are gone): both live once on its [`Trace`], which
//! keeps a span at 32 bytes.
//!
//! **Invariants.** The crate draws no randomness and reads no clock: an
//! identical span stream always assembles into identical traces and call
//! statistics, which is what makes whole-framework runs reproducible per
//! seed. Span drop/truncation faults live upstream in `graf-chaos`/`graf-sim`
//! — this layer faithfully stores whatever survives.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod span;
pub mod stats;
pub mod store;

pub use span::{Span, SpanId, TraceId};
pub use stats::{ApiProfile, CallStats, Edge};
pub use store::{OpenTrace, Trace, TraceStore};
