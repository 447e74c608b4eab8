//! # graf-sweep
//!
//! The scenario-sweep harness behind `graf-exp sweep` and `graf-exp compare`:
//! a declarative scenario grid is expanded into cells, each cell gets a
//! deterministic seed derived from `(grid_seed, cell key)`
//! (`graf_sim::rng::derive_seed`), cells are evaluated on the workspace's one
//! worker pool (`graf_sim::par::fan_out`), and a single deterministic
//! aggregation step turns the records into one ordered report.
//!
//! The crate is scenario-agnostic: axes and values are strings, and the
//! caller supplies the function that evaluates one cell (graf-bench's
//! `sweepgrid` module maps axes like `app`/`slo`/`surge`/`chaos`/`policy`
//! onto actual simulations, with the trained models coming from the runner's
//! one shared cache).
//!
//! **Invariants.**
//!
//! * *Per-cell seeds are a pure function of `(grid_seed, cell)`* — derived
//!   from the cell's axis assignments (sorted by axis name), never from the
//!   cell's index in the grid or the worker that ran it. Adding values to an
//!   axis, adding axes, reordering the grid spec, or changing the worker
//!   count never changes another cell's seed.
//! * *The aggregated report is byte-identical for any worker count.* Workers
//!   only affect which thread evaluates a cell; [`report::aggregate`] orders
//!   records by cell key and serializes them canonically.
//! * *A failing cell never aborts the sweep.* An error or a panic becomes an
//!   error record beside the others; the caller decides the exit code after
//!   the fleet drains (the same keep-going discipline as `graf-exp all`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod grid;
pub mod record;
pub mod report;
pub mod run;

pub use grid::{Axis, Cell, Grid};
pub use record::{CellRecord, CellResult};
pub use report::{
    aggregate, compare, render_compare, render_table, CellVerdict, SweepCompareReport,
};
pub use run::run_sweep;
