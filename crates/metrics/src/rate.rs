//! Windowed event-rate counter.
//!
//! Figure 7 of the paper plots the workload (qps) *perceived by each
//! microservice* over time; the HPA baseline also needs recent request rates.
//! [`RateCounter`] counts events in fixed-width windows of simulated time and
//! reports per-second rates.

use std::collections::VecDeque;

/// Counts events in fixed-width windows and reports rates.
#[derive(Clone, Debug)]
pub struct RateCounter {
    window_us: u64,
    retain: usize,
    /// `(window_index, count)` in increasing window order.
    windows: VecDeque<(u64, u64)>,
}

impl RateCounter {
    /// Creates a counter with `window_us`-wide windows retaining `retain` of them.
    ///
    /// # Panics
    /// Panics if `window_us == 0` or `retain == 0`.
    pub fn new(window_us: u64, retain: usize) -> Self {
        assert!(window_us > 0 && retain > 0);
        Self { window_us, retain, windows: VecDeque::new() }
    }

    /// Records one event at time `t_us`.
    pub fn record(&mut self, t_us: u64) {
        let idx = t_us / self.window_us;
        if let Some(back) = self.windows.back_mut() {
            if back.0 == idx {
                back.1 += 1;
                return;
            }
        }
        if let Some(pos) = self.windows.iter().position(|(i, _)| *i == idx) {
            self.windows[pos].1 += 1;
            return;
        }
        // New window. Evict the oldest *before* inserting so the deque never
        // exceeds `retain` entries: once its capacity is warm, the
        // steady-state record path performs zero allocations.
        if self.windows.len() >= self.retain {
            match self.windows.front() {
                // Below the retention horizon: the old code inserted the
                // window and immediately evicted it again — a no-op.
                Some(&(front, _)) if idx < front => return,
                _ => {
                    self.windows.pop_front();
                }
            }
        }
        let at = self.windows.iter().position(|(i, _)| *i > idx).unwrap_or(self.windows.len());
        self.windows.insert(at, (idx, 1));
    }

    /// Events counted over the trailing `k` windows ending at `now_us`.
    pub fn count_trailing(&self, now_us: u64, k: usize) -> u64 {
        let hi = now_us / self.window_us;
        let lo = hi.saturating_sub(k.saturating_sub(1) as u64);
        self.windows.iter().filter(|(i, _)| *i >= lo && *i <= hi).map(|(_, c)| *c).sum()
    }

    /// Mean events-per-second over the trailing `k` windows ending at `now_us`.
    pub fn rate_trailing(&self, now_us: u64, k: usize) -> f64 {
        let n = self.count_trailing(now_us, k);
        let secs = (self.window_us as f64 * k as f64) / 1e6;
        if secs <= 0.0 {
            0.0
        } else {
            n as f64 / secs
        }
    }

    /// Window width in microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_per_window() {
        let mut r = RateCounter::new(1_000_000, 8);
        for t in [100, 200, 300, 1_000_100] {
            r.record(t);
        }
        assert_eq!(r.count_trailing(500, 1), 3);
        assert_eq!(r.count_trailing(1_500_000, 1), 1);
        assert_eq!(r.count_trailing(2_500_000, 1), 0);
    }

    #[test]
    fn rate_is_per_second() {
        let mut r = RateCounter::new(1_000_000, 8);
        for i in 0..300 {
            r.record(i * 3_000); // 300 events in ~0.9 s, all window 0
        }
        let rate = r.rate_trailing(900_000, 1);
        assert!((rate - 300.0).abs() < 1e-9);
    }

    #[test]
    fn trailing_spans_windows() {
        let mut r = RateCounter::new(1_000, 16);
        r.record(500);
        r.record(1_500);
        r.record(2_500);
        assert_eq!(r.count_trailing(2_500, 2), 2);
        assert_eq!(r.count_trailing(2_500, 3), 3);
    }

    #[test]
    fn retention_evicts_old_windows() {
        let mut r = RateCounter::new(1_000, 2);
        r.record(500);
        r.record(1_500);
        r.record(2_500);
        assert_eq!(r.count_trailing(500, 1), 0);
        assert_eq!(r.count_trailing(2_500, 1), 1);
    }
}
