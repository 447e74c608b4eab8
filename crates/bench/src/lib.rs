//! # graf-bench
//!
//! The evaluation harness: one binary per table/figure of the paper (see
//! DESIGN.md's experiment index); the timing claims are measured by the
//! stand-alone `benchmark/` package. This library holds the shared pieces:
//!
//! * [`args`] — a tiny flag parser (`--seed`, `--paper-scale`, …) shared by
//!   every experiment binary,
//! * [`pricing`] — the AWS EC2 on-demand prices of Table 3 and the
//!   cost-benefit arithmetic of Figure 19,
//! * [`sweepgrid`] — the axis mapping behind the `graf-sweep` binary: grid
//!   axes (`app`/`slo`/`surge`/`chaos`/`policy`/`load`) onto concrete
//!   scenarios, with per-worker model caches,
//! * [`standard`] — the standard experiment configurations: per-application
//!   probe workloads, SLOs, CPU units and pre-built GRAF pipelines, so every
//!   figure binary trains against the same artifacts the way the paper
//!   trains one model per application and reuses it for every result
//!   ("the model is trained once... used to reproduce every result").
//!
//! **Invariants.** Every experiment binary is deterministic per `--seed`:
//! rerunning one produces byte-identical output (the chaos matrix asserts
//! this property is preserved under fault injection too). Scale knobs
//! (`--quick`, `--paper-scale`, `--samples`) change budgets, never the
//! claim under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod pricing;
pub mod standard;
pub mod sweepgrid;
pub mod timeline;

pub use args::Args;
