//! Fixed-width time windows of latency histograms.
//!
//! The paper measures percentile latency "within 10 seconds time windows"
//! during sample collection (§5) and uses short windows for control decisions.
//! [`WindowedLatency`] buckets observations by `floor(t / window_us)` and lets
//! callers query percentiles for a single window or across the trailing `k`
//! windows, discarding windows older than a retention horizon.

use std::collections::VecDeque;

use crate::histogram::Histogram;

/// Latency observations grouped into fixed-width windows of simulated time.
#[derive(Clone, Debug)]
pub struct WindowedLatency {
    window_us: u64,
    retain: usize,
    /// `(window_index, histogram)` in increasing window order.
    windows: VecDeque<(u64, Histogram)>,
}

impl WindowedLatency {
    /// Creates a store with `window_us`-wide windows, keeping the most recent
    /// `retain` windows.
    ///
    /// # Panics
    /// Panics if `window_us == 0` or `retain == 0`.
    pub fn new(window_us: u64, retain: usize) -> Self {
        assert!(window_us > 0, "window width must be positive");
        assert!(retain > 0, "must retain at least one window");
        Self { window_us, retain, windows: VecDeque::new() }
    }

    /// Window width in simulated microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Records a latency observed at simulated time `t_us`.
    ///
    /// Observations may arrive slightly out of order (completions do); any
    /// window still retained accepts records.
    pub fn record(&mut self, t_us: u64, latency_us: u64) {
        let idx = t_us / self.window_us;
        // Common case: newest window.
        if let Some(back) = self.windows.back_mut() {
            if back.0 == idx {
                back.1.record(latency_us);
                return;
            }
        }
        if let Some(pos) = self.windows.iter().position(|(i, _)| *i == idx) {
            self.windows[pos].1.record(latency_us);
            return;
        }
        // New window. At retention, recycle the evicted oldest histogram
        // (clear keeps its bucket capacity) so the steady-state record path
        // performs zero allocations once the deque and buckets are warm.
        let mut h = if self.windows.len() >= self.retain {
            match self.windows.front() {
                // Below the retention horizon: the old code inserted the
                // window and immediately evicted it again — a no-op.
                Some(&(front, _)) if idx < front => return,
                _ => {
                    let (_, mut old) = self.windows.pop_front().expect("retain > 0");
                    old.clear();
                    old
                }
            }
        } else {
            Histogram::new()
        };
        h.record(latency_us);
        let insert_at =
            self.windows.iter().position(|(i, _)| *i > idx).unwrap_or(self.windows.len());
        self.windows.insert(insert_at, (idx, h));
    }

    /// Percentile over the single window containing `t_us`, if any data exists.
    pub fn percentile_at(&self, t_us: u64, q: f64) -> Option<u64> {
        let idx = t_us / self.window_us;
        self.windows.iter().find(|(i, _)| *i == idx).and_then(|(_, h)| h.percentile(q))
    }

    /// Percentile over the trailing `k` windows ending at the window that
    /// contains `now_us` (inclusive).
    pub fn percentile_trailing(&self, now_us: u64, k: usize, q: f64) -> Option<u64> {
        let hi = now_us / self.window_us;
        let lo = hi.saturating_sub(k.saturating_sub(1) as u64);
        let mut merged = Histogram::new();
        for (i, h) in &self.windows {
            if *i >= lo && *i <= hi {
                merged.merge(h);
            }
        }
        merged.percentile(q)
    }

    /// Number of observations in the trailing `k` windows ending at `now_us`.
    pub fn count_trailing(&self, now_us: u64, k: usize) -> u64 {
        let hi = now_us / self.window_us;
        let lo = hi.saturating_sub(k.saturating_sub(1) as u64);
        self.windows.iter().filter(|(i, _)| *i >= lo && *i <= hi).map(|(_, h)| h.count()).sum()
    }

    /// Removes all stored windows.
    pub fn clear(&mut self) {
        self.windows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_their_window() {
        let mut w = WindowedLatency::new(10_000_000, 8); // 10 s windows
        w.record(1_000_000, 100);
        w.record(11_000_000, 900);
        assert_eq!(w.percentile_at(5_000_000, 0.5), Some(100));
        assert_eq!(w.percentile_at(15_000_000, 0.5), Some(900));
        assert_eq!(w.percentile_at(25_000_000, 0.5), None);
    }

    #[test]
    fn trailing_merges_windows() {
        let mut w = WindowedLatency::new(1_000_000, 16);
        for i in 0..10u64 {
            w.record(i * 1_000_000 + 1, i * 10);
        }
        // Last 10 windows contain 0,10,...,90.
        let p100 = w.percentile_trailing(9_500_000, 10, 1.0).unwrap();
        assert_eq!(p100, 90);
        assert_eq!(w.count_trailing(9_500_000, 10), 10);
        // Only the final window.
        assert_eq!(w.percentile_trailing(9_500_000, 1, 1.0), Some(90));
    }

    #[test]
    fn retention_discards_old_windows() {
        let mut w = WindowedLatency::new(1_000, 2);
        w.record(500, 1);
        w.record(1_500, 2);
        w.record(2_500, 3);
        assert_eq!(w.percentile_at(500, 0.5), None, "oldest window evicted");
        assert_eq!(w.percentile_at(2_500, 0.5), Some(3));
    }

    #[test]
    fn out_of_order_records_accepted() {
        let mut w = WindowedLatency::new(1_000, 8);
        w.record(2_500, 30);
        w.record(500, 10); // late record for an older, still-retained window
        assert_eq!(w.percentile_at(500, 0.5), Some(10));
        assert_eq!(w.count_trailing(2_500, 3), 2);
    }
}
