//! # graf-bench
//!
//! The evaluation harness: every table and figure of the paper is an
//! experiment in [`exp`], run by the one `graf-exp` binary (`graf-exp list`
//! names them, DESIGN.md §3 indexes them); the timing claims are measured by
//! the stand-alone `benchmark/` package. The pieces:
//!
//! * [`exp`] — the experiments, their registry, the context that builds the
//!   standard artefacts once per process, and the runner behind
//!   `graf-exp <name>` / `graf-exp all`,
//! * [`args`] — the flags (`--seed`, `--paper-scale`, …) the runner parses
//!   once, whichever subcommand runs,
//! * [`standard`] — the standard experiment configurations: per-application
//!   probe workloads, SLOs, CPU units and the cache of built GRAF pipelines,
//!   so every experiment evaluates against the same artifacts the way the
//!   paper trains one model per application and reuses it for every result
//!   ("the model is trained once... used to reproduce every result"),
//! * [`timeline`] — timeline recording for the time-series figures,
//! * [`pricing`] — the AWS EC2 on-demand prices of Table 3 and the
//!   cost-benefit arithmetic of Figure 19.
//!
//! **Invariants.** Every experiment is deterministic per `--seed`: rerunning
//! one produces byte-identical output, alone or under `graf-exp all`,
//! telemetry on or off (the chaos matrix asserts this property is preserved
//! under fault injection too). Scale knobs (`--quick`, `--paper-scale`,
//! `--samples`) change budgets, never the claim under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod args;
pub mod exp;
pub mod pricing;
pub mod standard;
pub mod timeline;

pub use args::Args;
