//! # graf-sweep
//!
//! The sharded scenario-sweep harness (ROADMAP item 2): a declarative
//! scenario grid is expanded into cells, each cell gets a deterministic seed
//! derived from `(grid_seed, cell key)`, and cells are sharded across worker
//! threads with results streamed as JSONL. A single deterministic
//! aggregation step merges the per-worker streams into one ordered report.
//!
//! The crate is scenario-agnostic: axes and values are strings, and the
//! caller supplies the function that evaluates one cell (graf-bench's
//! `sweepgrid` module maps axes like `app`/`slo`/`surge`/`chaos`/`policy`
//! onto actual simulations). This split keeps the fleet machinery reusable
//! for any future grid — topology generators, multi-tenant scenarios,
//! forecasting ablations — without touching the harness.
//!
//! **Invariants.**
//!
//! * *Per-cell seeds are a pure function of `(grid_seed, cell)`* — derived
//!   from the cell's axis assignments (sorted by axis name), never from the
//!   cell's index in the grid or its shard. Adding values to an axis, adding
//!   axes, reordering the grid spec, or changing the worker count never
//!   changes another cell's seed.
//! * *The aggregated report is byte-identical for any worker count and any
//!   shard assignment.* Workers only affect which thread evaluates a cell;
//!   [`report::aggregate`] orders records by cell key and serializes them
//!   canonically.
//! * *A failing cell never aborts the sweep.* Errors become error records in
//!   the same stream; the caller decides the exit code after the fleet
//!   drains (the same keep-going discipline as `graf-exp all`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod grid;
pub mod record;
pub mod report;
pub mod run;
pub mod seed;

pub use grid::{Axis, Cell, Grid};
pub use record::{CellRecord, CellResult};
pub use report::{
    aggregate, compare, render_compare, render_table, CellVerdict, SweepCompareReport,
};
pub use run::{run_sweep, SweepConfig, WorkerReport};
pub use seed::derive_seed;
