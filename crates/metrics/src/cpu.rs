//! CPU usage and utilization accounting — the cAdvisor analog.
//!
//! The Kubernetes autoscaler the paper compares against scales on CPU
//! *utilization*: used CPU time divided by allocated quota over a control
//! window. [`CpuAccount`] integrates both quantities against simulated time so
//! the HPA baseline sees the same signal it would get from cAdvisor.
//!
//! With a retention horizon ([`CpuAccount::set_horizon`]), an account's
//! memory follows the event rate times the horizon, not the run length.

/// Integrates CPU usage (millicore·µs) and quota availability over time.
///
/// A service's instances call [`CpuAccount::add_usage`] as jobs execute; the
/// service runtime calls [`CpuAccount::set_quota`] whenever the total ready
/// quota changes. Utilization over a window is then
/// `used(window) / quota_integral(window)`.
///
/// With a horizon set, a query may reach back at most `horizon_us` before
/// the newest checkpoint; [`CpuAccount::used_in`] and
/// [`CpuAccount::quota_in`] panic on an older `from_us`.
#[derive(Clone, Debug)]
pub struct CpuAccount {
    /// Cumulative used millicore·µs checkpoints: `(t_us, cumulative)`.
    used: Vec<(u64, f64)>,
    used_acc: f64,
    /// Current total quota in millicores and when it was last changed.
    quota_mc: f64,
    quota_since: u64,
    /// Cumulative quota integral checkpoints: `(t_us, cumulative mc·us)`.
    quota_integral: Vec<(u64, f64)>,
    quota_acc: f64,
    /// Usage-checkpoint resolution in µs: samples landing in the same
    /// `t / res_us` cell replace the previous checkpoint instead of appending.
    /// `1` stores one checkpoint per distinct microsecond (exact queries).
    res_us: u64,
    /// How far back (µs) before the newest checkpoint a query may reach;
    /// `u64::MAX` (the default) keeps every checkpoint.
    horizon_us: u64,
}

impl Default for CpuAccount {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuAccount {
    /// Creates an account with zero quota at t = 0.
    pub fn new() -> Self {
        Self {
            used: vec![(0, 0.0)],
            used_acc: 0.0,
            quota_mc: 0.0,
            quota_since: 0,
            quota_integral: vec![(0, 0.0)],
            quota_acc: 0.0,
            res_us: 1,
            horizon_us: u64::MAX,
        }
    }

    /// Sets the usage-checkpoint resolution (µs). At the default `1`, the
    /// account stores one checkpoint per distinct timestamp — exact for any
    /// query window. Coarser resolutions bound memory at high event rates:
    /// cumulative totals stay exact (the running sum is carried forward);
    /// only the placement of usage *within* one cell is approximated.
    pub fn set_resolution(&mut self, res_us: u64) {
        self.res_us = res_us.max(1);
    }

    /// Sets the retention horizon (µs): queries may start no earlier than
    /// `horizon_us` before the newest checkpoint, and older checkpoints are
    /// dropped — in place, amortised, only when a series fills its
    /// capacity. The last checkpoint at or before each cut stays as the
    /// cumulative base, so every query the horizon admits returns the same
    /// bits as an untrimmed account.
    pub fn set_horizon(&mut self, horizon_us: u64) {
        self.horizon_us = horizon_us;
    }

    /// Number of stored checkpoints (usage plus quota).
    pub fn checkpoints(&self) -> usize {
        self.used.len() + self.quota_integral.len()
    }

    /// Appends `point` to `series`. When the series is full, it first drops
    /// the checkpoints before the last one at or before `point.0 − horizon_us`
    /// (no admissible query reads them), and doubles its capacity if that
    /// freed less than half of it — so a trim's cost is paid for by at least
    /// `capacity / 2` pushes, and a steady rate stops allocating.
    fn push_bounded(series: &mut Vec<(u64, f64)>, point: (u64, f64), horizon_us: u64) {
        if series.len() == series.capacity() {
            let cut = point.0.saturating_sub(horizon_us);
            let base = series.partition_point(|&(t, _)| t <= cut).saturating_sub(1);
            series.drain(..base);
            if series.len() > series.capacity() / 2 {
                series.reserve(series.capacity());
            }
        }
        series.push(point);
    }

    /// Panics unless a query starting at `from_us` lies inside the horizon.
    fn check_horizon(&self, from_us: u64) {
        let newest = self.used.last().expect("series starts non-empty").0.max(self.quota_since);
        let floor = newest.saturating_sub(self.horizon_us);
        assert!(
            from_us >= floor,
            "CPU query from {from_us} µs reaches past the account's {} µs horizon \
             (earliest admissible start {floor} µs)",
            self.horizon_us
        );
    }

    /// Adds `mc_us` millicore·µs of CPU work consumed, stamped at `t_us`.
    ///
    /// Zero-usage samples are skipped (they cannot change any integral), and
    /// a sample in the same resolution cell as the last checkpoint replaces
    /// it — so a burst of same-timestamp station advances costs one stored
    /// checkpoint, not one per event.
    pub fn add_usage(&mut self, t_us: u64, mc_us: f64) {
        debug_assert!(mc_us >= -1e-6, "usage cannot be negative: {mc_us}");
        if mc_us <= 0.0 {
            return;
        }
        self.used_acc += mc_us;
        let last = self.used.last_mut().expect("series starts non-empty");
        if last.0 / self.res_us == t_us / self.res_us {
            *last = (t_us, self.used_acc);
        } else {
            Self::push_bounded(&mut self.used, (t_us, self.used_acc), self.horizon_us);
        }
    }

    /// Updates the total ready quota to `quota_mc` at time `t_us`.
    pub fn set_quota(&mut self, t_us: u64, quota_mc: f64) {
        // Close out the previous quota segment.
        self.quota_acc += self.quota_mc * (t_us.saturating_sub(self.quota_since)) as f64;
        Self::push_bounded(&mut self.quota_integral, (t_us, self.quota_acc), self.horizon_us);
        self.quota_mc = quota_mc;
        self.quota_since = t_us;
    }

    /// Current quota in millicores.
    pub fn quota_mc(&self) -> f64 {
        self.quota_mc
    }

    fn cum_at(series: &[(u64, f64)], t_us: u64) -> f64 {
        let idx = series.partition_point(|&(t, _)| t <= t_us);
        if idx == 0 {
            0.0
        } else {
            series[idx - 1].1
        }
    }

    /// CPU used in `[from_us, to_us)`, in millicore·µs.
    ///
    /// # Panics
    /// If `from_us` lies before the account's horizon.
    pub fn used_in(&self, from_us: u64, to_us: u64) -> f64 {
        self.check_horizon(from_us);
        Self::cum_at(&self.used, to_us) - Self::cum_at(&self.used, from_us)
    }

    /// Quota integral over `[from_us, to_us)`, in millicore·µs, including the
    /// live segment since the last [`CpuAccount::set_quota`] call.
    ///
    /// # Panics
    /// If `from_us` lies before the account's horizon.
    pub fn quota_in(&self, from_us: u64, to_us: u64) -> f64 {
        self.check_horizon(from_us);
        let live = |t: u64| -> f64 {
            if t > self.quota_since {
                Self::cum_at(&self.quota_integral, t)
                    + self.quota_mc * (t - self.quota_since) as f64
            } else {
                Self::cum_at(&self.quota_integral, t)
            }
        };
        live(to_us) - live(from_us)
    }

    /// Mean utilization over `[from_us, to_us)`: used / quota, in `[0, ∞)`.
    ///
    /// Returns `None` when the quota integral is zero (no capacity existed).
    pub fn utilization(&self, from_us: u64, to_us: u64) -> Option<f64> {
        let q = self.quota_in(from_us, to_us);
        if q <= 0.0 {
            None
        } else {
            Some(self.used_in(from_us, to_us) / q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_used_over_quota() {
        let mut a = CpuAccount::new();
        a.set_quota(0, 1000.0); // 1000 mc
        a.add_usage(500_000, 250.0 * 500_000.0); // 250 mc for 0.5 s
        let u = a.utilization(0, 500_000).unwrap();
        assert!((u - 0.25).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn quota_changes_are_integrated() {
        let mut a = CpuAccount::new();
        a.set_quota(0, 1000.0);
        a.set_quota(100, 3000.0);
        // [0,100): 1000; [100,200): 3000 → integral = 100*1000 + 100*3000
        let q = a.quota_in(0, 200);
        assert!((q - 400_000.0).abs() < 1e-6, "q={q}");
    }

    #[test]
    fn zero_quota_yields_none() {
        let a = CpuAccount::new();
        assert_eq!(a.utilization(0, 100), None);
    }

    #[test]
    fn quota_live_segment_counts_before_next_set() {
        let mut a = CpuAccount::new();
        a.set_quota(0, 200.0);
        // No further set_quota: the live segment must still integrate.
        let q = a.quota_in(0, 1_000);
        assert!((q - 200_000.0).abs() < 1e-9, "live quota integral {q}");
    }

    #[test]
    fn utilization_can_exceed_one_during_drain() {
        // Usage attributed while quota was already withdrawn (draining
        // instances) may push utilization above 1; it must not panic or clamp.
        let mut a = CpuAccount::new();
        a.set_quota(0, 100.0);
        a.add_usage(100, 100.0 * 100.0);
        a.set_quota(100, 0.0);
        a.add_usage(200, 50.0 * 100.0);
        let u = a.utilization(0, 100).unwrap();
        assert!((u - 1.0).abs() < 1e-9);
        assert_eq!(a.utilization(100, 200), None, "zero quota window");
    }

    #[test]
    fn same_timestamp_samples_collapse_exactly() {
        // A burst of samples at one timestamp stores one checkpoint and every
        // query is identical to the append-always behaviour.
        let mut a = CpuAccount::new();
        a.set_quota(0, 100.0);
        a.add_usage(10, 5.0);
        a.add_usage(10, 7.0);
        a.add_usage(10, 9.0);
        a.add_usage(20, 1.0);
        assert_eq!(a.used.len(), 1 + 2, "initial + one per distinct t");
        assert!((a.used_in(0, 15) - 21.0).abs() < 1e-9);
        assert!((a.used_in(15, 25) - 1.0).abs() < 1e-9);
        a.add_usage(30, 0.0); // zero usage cannot move any integral: skipped
        assert_eq!(a.used.len(), 3);
    }

    #[test]
    fn coarse_resolution_keeps_cumulative_totals_exact() {
        let mut a = CpuAccount::new();
        a.set_resolution(1_000);
        a.set_quota(0, 100.0);
        for t in 0..100u64 {
            a.add_usage(t * 50, 2.0); // 100 samples over 5 ms → 5 cells
        }
        assert!(a.used.len() <= 1 + 5 + 1, "bounded by cell count, got {}", a.used.len());
        // Totals across any boundary beyond the last sample are exact.
        assert!((a.used_in(0, 10_000) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn windows_partition_usage() {
        let mut a = CpuAccount::new();
        a.set_quota(0, 100.0);
        a.add_usage(10, 5.0);
        a.add_usage(20, 7.0);
        a.add_usage(30, 9.0);
        let total = a.used_in(0, 40);
        let parts = a.used_in(0, 15) + a.used_in(15, 25) + a.used_in(25, 40);
        assert!((total - parts).abs() < 1e-9);
        assert!((total - 21.0).abs() < 1e-9);
    }
}
