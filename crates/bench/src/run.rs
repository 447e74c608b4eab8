//! The sweep fleet: expand the grid, derive each cell's seed from its key,
//! evaluate every cell on the workspace's one worker pool, one record per
//! cell.
//!
//! **Invariants.**
//!
//! * *A cell's seed is a pure function of `(grid_seed, cell key)`*
//!   (`graf_sim::rng::derive_seed`), never of the cell's index or its
//!   worker: adding values or axes, reordering the spec or changing the
//!   worker count moves no other cell's seed.
//! * *The aggregated report is byte-identical for any worker count*: workers
//!   only decide which thread evaluates a cell, and
//!   [`crate::report::aggregate`] orders the records by cell key.
//! * *A failing cell never aborts the sweep*: an error or a panic becomes an
//!   error record beside the others, and the caller decides the exit code
//!   after the fleet drains.

use std::panic::{catch_unwind, AssertUnwindSafe};

use graf_sim::par::{fan_out, panic_message};
use graf_sim::rng::derive_seed;

use crate::grid::{Cell, Grid};
use crate::record::{CellRecord, CellResult};

/// Runs every cell of `grid` on up to `workers` threads and returns the
/// records in expansion order. `eval` gets a cell and its seed — a function
/// of `(grid_seed, cell key)` alone — and returns the cell's metrics; an
/// error or a panic becomes that cell's error record and the rest still
/// run. `workers` changes wall-clock time, never a record.
pub fn run_sweep(
    grid: &Grid,
    grid_seed: u64,
    workers: usize,
    eval: impl Fn(&Cell, u64) -> Result<CellResult, String> + Sync,
) -> Vec<CellRecord> {
    let cells = grid.cells();
    fan_out(cells.len(), workers, |i| {
        let key = cells[i].key();
        let seed = derive_seed(grid_seed, &key);
        // `eval` reads shared state only through caches that stay valid when
        // a build panics, so the next cell may run after a caught panic.
        match catch_unwind(AssertUnwindSafe(|| eval(&cells[i], seed))) {
            Ok(Ok(result)) => CellRecord::ok(key, seed, result),
            Ok(Err(e)) => CellRecord::failed(key, seed, e),
            Err(panic) => {
                CellRecord::failed(key, seed, format!("panicked: {}", panic_message(&*panic)))
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::aggregate;

    /// A deterministic fake cell evaluator: metrics derived from the seed.
    fn fake_eval(cell: &Cell, seed: u64) -> Result<CellResult, String> {
        if cell.get("v") == Some("bad") {
            return Err("synthetic failure".to_string());
        }
        let mut r = CellResult::default();
        r.push("seed_lo", (seed % 1000) as f64);
        r.push("key_len", cell.key().len() as f64);
        Ok(r)
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let grid = Grid::parse("a=1,2,3;v=x,y").unwrap();
        let records = run_sweep(&grid, 7, 4, fake_eval);
        let keys: Vec<String> = records.iter().map(|c| c.cell.clone()).collect();
        let expanded: Vec<String> = grid.cells().iter().map(Cell::key).collect();
        assert_eq!(keys, expanded, "one record per cell, in expansion order");
        for r in &records {
            assert_eq!(r.seed, derive_seed(7, &r.cell), "seed is a function of the key");
        }
    }

    #[test]
    fn worker_count_does_not_change_the_aggregate() {
        let grid = Grid::parse("a=1,2,3,4,5;b=p,q,r").unwrap();
        let agg = |workers| aggregate(&run_sweep(&grid, 7, workers, fake_eval));
        let one = agg(1);
        assert_eq!(one, agg(3), "1 vs 3 workers");
        assert_eq!(one, agg(16), "1 vs 16 workers (more workers than cells)");
    }

    #[test]
    fn failures_become_error_records_and_do_not_abort() {
        let grid = Grid::parse("a=1,2;v=ok,bad").unwrap();
        let records = run_sweep(&grid, 7, 2, fake_eval);
        assert_eq!(records.len(), 4);
        let failed: Vec<_> = records.iter().filter(|r| r.error.is_some()).collect();
        assert_eq!(failed.len(), 2, "both v=bad cells failed");
        assert!(records.iter().filter(|r| r.result.is_some()).count() == 2);
    }

    #[test]
    fn a_panicking_cell_is_one_error_record_and_the_rest_finish() {
        let grid = Grid::parse("a=1,2,3,4,5").unwrap();
        for workers in [1, 3] {
            let records = run_sweep(&grid, 7, workers, |cell, seed| {
                assert!(cell.get("a") != Some("3"), "cell {} blew up", cell.key());
                fake_eval(cell, seed)
            });
            assert_eq!(records.iter().filter(|r| r.result.is_some()).count(), 4);
            assert_eq!(records[2].error.as_deref(), Some("panicked: cell a=3 blew up"));
        }
    }
}
