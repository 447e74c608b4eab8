//! Reusable scratch-buffer pool for the allocation-free kernels.

use crate::matrix::Matrix;

/// A LIFO pool of [`Matrix`] scratch buffers.
///
/// The forward/backward hot loops `take` a buffer (reshaped in place to the
/// requested dimensions, contents unspecified) and `give` it back when done;
/// once the pool has warmed up over the first iteration, steady-state takes
/// reuse existing allocations and the heap is never touched. The `(reused,
/// allocated)` counters feed the graf-obs allocation-avoidance telemetry.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Matrix>,
    reused: u64,
    allocated: u64,
}

impl Workspace {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a `rows × cols` buffer, reusing a pooled allocation when one is
    /// available and large enough. Like
    /// [`Matrix::reshape_for_overwrite`], a reused buffer is not refilled:
    /// its values are unspecified, so the caller overwrites every element
    /// before reading any, or zeroes it first.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        match self.pool.pop() {
            Some(mut m) => {
                if m.capacity() >= rows * cols {
                    self.reused += 1;
                } else {
                    self.allocated += 1;
                }
                m.reshape_for_overwrite(rows, cols);
                m
            }
            None => {
                self.allocated += 1;
                Matrix::zeros(rows, cols)
            }
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn give(&mut self, m: Matrix) {
        self.pool.push(m);
    }

    /// `(reused, allocated)` take counts since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.reused, self.allocated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_takes_reuse_allocations() {
        let mut ws = Workspace::new();
        let a = ws.take(8, 8);
        ws.give(a);
        let b = ws.take(4, 4); // smaller: fits the pooled capacity
        assert_eq!((b.rows(), b.cols()), (4, 4));
        assert!(b.data().iter().all(|&v| v == 0.0));
        assert_eq!(ws.stats(), (1, 1), "one cold alloc, one warm reuse");
    }

    #[test]
    fn reused_takes_are_not_refilled() {
        let mut ws = Workspace::new();
        let mut a = ws.take(3, 4);
        a.data_mut().fill(7.0);
        ws.give(a);
        let b = ws.take(2, 5);
        assert_eq!((b.rows(), b.cols()), (2, 5));
        assert!(b.data().iter().all(|&v| v == 7.0), "the kept prefix is not refilled");
    }

    #[test]
    fn growing_takes_count_as_allocations() {
        let mut ws = Workspace::new();
        let a = ws.take(2, 2);
        ws.give(a);
        let _big = ws.take(100, 100);
        assert_eq!(ws.stats(), (0, 2));
    }
}
