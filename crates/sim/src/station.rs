//! Processor-sharing service instances.
//!
//! An [`Instance`] is one replica of a microservice with a CPU quota in
//! millicores. All in-flight jobs share the quota equally, with each job's
//! rate capped at one core (a request handler is single-threaded). This model
//! produces the two properties the paper relies on:
//!
//! * latency is a monotone decreasing, convex function of quota (§2.2, §3.5),
//!   flattening once `quota ≥ concurrency × per-job cap` — which is what puts
//!   an *upper* bound on useful quota in Algorithm 1;
//! * transient overload lengthens every in-flight request, producing the heavy
//!   p99 tails the latency prediction model is trained on.

use crate::frame::FrameId;
use crate::time::SimTime;
use crate::topology::ServiceId;

/// Work remaining below this threshold (millicore·µs) counts as finished;
/// absorbs rounding from integer event times.
const WORK_EPS: f64 = 1e-3;

/// Per-job CPU rate cap in millicores: a request handler is single-threaded,
/// so one job never runs faster than one core, whatever the quota.
const PER_JOB_CAP_MC: f64 = 1000.0;

/// Identifies an instance within the world's instance table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Lifecycle state of an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceState {
    /// Created but not yet schedulable; becomes [`InstanceState::Ready`] at
    /// the contained time (container startup latency, Figure 1).
    Starting {
        /// When the instance becomes ready.
        ready_at: SimTime,
    },
    /// Serving traffic.
    Ready,
    /// Removed from service: finishes in-flight jobs, accepts no new ones.
    Draining,
}

/// One in-flight job on an instance.
#[derive(Clone, Copy, Debug)]
struct Job {
    frame: FrameId,
    remaining_mc_us: f64,
}

/// A processor-sharing replica of a microservice.
#[derive(Debug)]
pub struct Instance {
    /// Owning service.
    pub service: ServiceId,
    /// CPU quota in millicores.
    pub quota_mc: f64,
    /// Lifecycle state.
    pub state: InstanceState,
    jobs: Vec<Job>,
    last_advance: SimTime,
    /// Bumped whenever the job set or rates change; stale completion-check
    /// events (scheduled under an older epoch) are ignored.
    pub epoch: u64,
    /// Cached `min(jobs.remaining_mc_us)` (`f64::INFINITY` when idle) so
    /// [`Instance::next_completion`] is O(1) instead of a per-event scan.
    /// Processor sharing burns every job by the same amount per advance, so
    /// the minimum element never changes between job-set mutations and the
    /// cache stays bitwise equal to a fresh fold over the jobs.
    min_remaining: f64,
}

impl Instance {
    /// Creates an instance for `service` with `quota_mc` millicores.
    pub fn new(service: ServiceId, quota_mc: f64, state: InstanceState, now: SimTime) -> Self {
        assert!(quota_mc > 0.0, "quota must be positive");
        Self {
            service,
            quota_mc,
            state,
            jobs: Vec::new(),
            last_advance: now,
            epoch: 0,
            min_remaining: f64::INFINITY,
        }
    }

    /// Number of in-flight jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if the instance can accept new jobs.
    pub fn accepts_jobs(&self) -> bool {
        self.state == InstanceState::Ready
    }

    /// Per-job execution rate in millicores at the current job count.
    fn rate_per_job(&self) -> f64 {
        let n = self.jobs.len();
        if n == 0 {
            return 0.0;
        }
        (self.quota_mc / n as f64).min(PER_JOB_CAP_MC)
    }

    /// Advances job progress from `last_advance` to `now`.
    ///
    /// Returns the CPU consumed during the interval in millicore·µs (for the
    /// cAdvisor-style usage account).
    pub fn advance(&mut self, now: SimTime) -> f64 {
        let dt = (now - self.last_advance).as_micros() as f64;
        self.last_advance = now;
        if dt <= 0.0 || self.jobs.is_empty() {
            return 0.0;
        }
        let rate = self.rate_per_job();
        let burn = rate * dt;
        let mut used = 0.0;
        for j in &mut self.jobs {
            let actual = burn.min(j.remaining_mc_us.max(0.0));
            j.remaining_mc_us -= burn;
            used += actual;
        }
        // Every job burned the same amount: the cached minimum is the minimum
        // job's value, so the same subtraction keeps it bitwise in sync.
        self.min_remaining -= burn;
        used
    }

    /// Adds a job with `work_mc_us` millicore·µs of demand. Caller must have
    /// advanced the instance to `now` first and must reschedule the
    /// completion check. Bumps the epoch.
    pub fn push_job(&mut self, frame: FrameId, work_mc_us: f64) {
        debug_assert!(work_mc_us > 0.0);
        self.jobs.push(Job { frame, remaining_mc_us: work_mc_us });
        self.min_remaining = self.min_remaining.min(work_mc_us);
        self.epoch += 1;
    }

    /// Removes and returns frames whose work is complete. Bumps the epoch if
    /// anything finished. Caller must have advanced to `now` first.
    ///
    /// Allocating convenience wrapper over [`Instance::take_finished_into`];
    /// the event loop uses the `_into` form with a pooled buffer.
    pub fn take_finished(&mut self) -> Vec<FrameId> {
        let mut done = Vec::new();
        self.take_finished_into(&mut done);
        done
    }

    /// Appends frames whose work is complete to `done`, removing them from
    /// the job set. Bumps the epoch if anything finished. Caller must have
    /// advanced to `now` first.
    pub fn take_finished_into(&mut self, done: &mut Vec<FrameId>) {
        let before = done.len();
        let mut min_rem = f64::INFINITY;
        self.jobs.retain(|j| {
            if j.remaining_mc_us <= WORK_EPS {
                done.push(j.frame);
                false
            } else {
                min_rem = min_rem.min(j.remaining_mc_us);
                true
            }
        });
        self.min_remaining = min_rem;
        if done.len() != before {
            self.epoch += 1;
        }
    }

    /// Predicts when the next job will finish, given current rates.
    ///
    /// Returns `None` when idle. The returned time is strictly after `now`
    /// (rounded up to the next microsecond). O(1) via the cached minimum.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let rate = self.rate_per_job();
        if rate <= 0.0 {
            return None;
        }
        let min_rem = self.min_remaining.max(0.0);
        if !min_rem.is_finite() {
            return None;
        }
        let dt_us = (min_rem / rate).ceil().max(1.0) as u64;
        Some(SimTime(now.0 + dt_us))
    }

    /// Removes a specific job (client abandoned the request). Caller must
    /// advance first and reschedule the completion check. Bumps the epoch.
    /// Returns `true` if the job was present.
    pub fn remove_job(&mut self, frame: FrameId) -> bool {
        let before = self.jobs.len();
        self.jobs.retain(|j| j.frame != frame);
        let removed = self.jobs.len() != before;
        if removed {
            self.min_remaining =
                self.jobs.iter().map(|j| j.remaining_mc_us).fold(f64::INFINITY, f64::min);
            self.epoch += 1;
        }
        removed
    }

    /// Changes the quota (vertical scaling). Caller must advance first and
    /// reschedule the completion check. Bumps the epoch.
    pub fn set_quota(&mut self, quota_mc: f64) {
        assert!(quota_mc > 0.0);
        self.quota_mc = quota_mc;
        self.epoch += 1;
    }

    /// Marks the instance draining. Bumps the epoch.
    pub fn start_draining(&mut self) {
        self.state = InstanceState::Draining;
        self.epoch += 1;
    }

    /// `true` when draining and no jobs remain (safe to delete).
    pub fn drained(&self) -> bool {
        self.state == InstanceState::Draining && self.jobs.is_empty()
    }

    /// Sum of remaining work over in-flight jobs (millicore·µs) — used by
    /// tests to check work conservation.
    pub fn backlog_mc_us(&self) -> f64 {
        self.jobs.iter().map(|j| j.remaining_mc_us.max(0.0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(quota: f64) -> Instance {
        Instance::new(ServiceId(0), quota, InstanceState::Ready, SimTime::ZERO)
    }

    #[test]
    fn single_job_runs_at_capped_rate() {
        let mut i = inst(2000.0);
        i.push_job(FrameId(1), 1000.0 * 1000.0); // 1000 mc·ms = 1 core-second... in µs: 1e6 mc·µs
                                                 // Rate capped at 1000 mc although quota is 2000.
        let t = i.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(t.0, 1000, "1e6 mc·µs at 1000 mc = 1000 µs");
    }

    #[test]
    fn two_jobs_share_quota() {
        let mut i = inst(1000.0);
        i.push_job(FrameId(1), 1000.0); // needs 1 µs alone... at shared 500mc: 2 µs
        i.push_job(FrameId(2), 1000.0);
        let t = i.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(t.0, 2);
        let used = i.advance(SimTime(2));
        assert!((used - 2000.0).abs() < 1e-6, "full quota consumed: {used}");
        let done = i.take_finished();
        assert_eq!(done.len(), 2);
        assert_eq!(i.job_count(), 0);
    }

    #[test]
    fn advance_is_work_conserving() {
        let mut i = inst(800.0);
        i.push_job(FrameId(1), 5_000.0);
        i.push_job(FrameId(2), 9_000.0);
        let before = i.backlog_mc_us();
        let used = i.advance(SimTime(5));
        let after = i.backlog_mc_us();
        assert!((before - after - used).abs() < 1e-6, "burned work equals usage");
    }

    #[test]
    fn epochs_invalidate_on_change() {
        let mut i = inst(1000.0);
        let e0 = i.epoch;
        i.push_job(FrameId(1), 100.0);
        assert!(i.epoch > e0);
        i.advance(SimTime(10));
        let e1 = i.epoch;
        let done = i.take_finished();
        assert_eq!(done, vec![FrameId(1)]);
        assert!(i.epoch > e1);
    }

    #[test]
    fn idle_instance_has_no_completion() {
        let i = inst(1000.0);
        assert_eq!(i.next_completion(SimTime::ZERO), None);
        assert_eq!(i.job_count(), 0);
    }

    #[test]
    fn draining_lifecycle() {
        let mut i = inst(1000.0);
        i.push_job(FrameId(1), 1000.0);
        i.start_draining();
        assert!(!i.accepts_jobs());
        assert!(!i.drained(), "still has a job");
        i.advance(SimTime(10));
        i.take_finished();
        assert!(i.drained());
    }

    #[test]
    fn completion_time_is_strictly_future() {
        let mut i = inst(1000.0);
        i.push_job(FrameId(1), 1e-9); // vanishing work still takes >= 1 µs
        let t = i.next_completion(SimTime(5)).unwrap();
        assert!(t.0 >= 6);
    }

    #[test]
    fn more_quota_is_never_slower() {
        // Latency monotonicity at the instance level.
        for &(q1, q2) in &[(200.0, 400.0), (400.0, 900.0), (900.0, 5000.0)] {
            let mut a = inst(q1);
            let mut b = inst(q2);
            for f in 0..4 {
                a.push_job(FrameId(f), 10_000.0);
                b.push_job(FrameId(f), 10_000.0);
            }
            let ta = a.next_completion(SimTime::ZERO).unwrap();
            let tb = b.next_completion(SimTime::ZERO).unwrap();
            assert!(tb <= ta, "quota {q2} should not be slower than {q1}");
        }
    }
}
