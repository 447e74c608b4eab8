//! Closed-loop user-thread load generation (the Locust analog).
//!
//! Each simulated user runs the loop the paper describes (§5.3): pick a
//! request type from the API mix, send it, wait for the response, then wait a
//! random think time of up to `max_think` (the paper's 5 seconds) before the
//! next request. The user count can follow a schedule, producing surges
//! (Figure 21) and trace replays (Figure 20).

use std::collections::VecDeque;

use graf_sim::rng::DetRng;
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::ApiId;
use graf_sim::world::Completion;

use crate::LoadGen;

#[derive(Clone, Copy, Debug)]
enum UserState {
    /// Will send the next request at this time.
    Thinking(SimTime),
    /// Sent a request, waiting for its completion.
    Waiting,
    /// Chosen for removal; compacted away in the same schedule step.
    Retiring,
}

/// A `waiting` entry of a retired user: it absorbs the completion of that
/// user's in-flight request and wakes nobody.
const RETIRED: usize = usize::MAX;

/// A Locust-like closed-loop generator.
pub struct ClosedLoop {
    /// API mix: `(api, weight)`.
    mix: Vec<(ApiId, f64)>,
    max_think: SimDuration,
    users: Vec<UserState>,
    /// Indices of users waiting for a completion, FIFO, or [`RETIRED`].
    waiting: VecDeque<usize>,
    /// `(from, user_count)` schedule, sorted.
    schedule: Vec<(SimTime, usize)>,
    rng: DetRng,
}

impl ClosedLoop {
    /// Creates a generator with `users` user threads and a single-API mix.
    pub fn new(api: ApiId, users: usize, seed: u64) -> Self {
        Self::with_mix(vec![(api, 1.0)], users, seed)
    }

    /// Creates a generator with a weighted API mix.
    pub fn with_mix(mix: Vec<(ApiId, f64)>, users: usize, seed: u64) -> Self {
        assert!(!mix.is_empty(), "mix must not be empty");
        assert!(mix.iter().all(|&(_, w)| w >= 0.0), "weights must be non-negative");
        assert!(mix.iter().any(|&(_, w)| w > 0.0), "at least one positive weight");
        Self {
            mix,
            max_think: SimDuration::from_secs(5.0),
            users: Vec::new(),
            waiting: VecDeque::new(),
            schedule: vec![(SimTime::ZERO, users)],
            rng: DetRng::new(seed),
        }
    }

    /// Sets the maximum think time (uniform in `[0, max]`; paper default 5 s).
    pub fn max_think(mut self, max: SimDuration) -> Self {
        self.max_think = max;
        self
    }

    /// Appends a user-count change at time `from` (must be after previous
    /// schedule entries).
    pub fn set_users(&mut self, from: SimTime, users: usize) {
        if let Some(&(last, _)) = self.schedule.last() {
            assert!(from >= last, "user schedule must be time-ordered");
        }
        self.schedule.push((from, users));
    }

    /// Builder form of [`ClosedLoop::set_users`].
    pub fn users_at(mut self, from: SimTime, users: usize) -> Self {
        self.set_users(from, users);
        self
    }

    /// Number of users in the population.
    pub fn active_users(&self) -> usize {
        self.users.len()
    }

    fn target_users(&self, t: SimTime) -> usize {
        let idx = self.schedule.partition_point(|&(from, _)| from <= t);
        if idx == 0 {
            0
        } else {
            self.schedule[idx - 1].1
        }
    }

    fn pick_api(&mut self) -> ApiId {
        let total: f64 = self.mix.iter().map(|&(_, w)| w).sum();
        let mut x = self.rng.unit() * total;
        for &(api, w) in &self.mix {
            x -= w;
            if x <= 0.0 {
                return api;
            }
        }
        self.mix.last().expect("non-empty mix").0
    }

    fn apply_schedule(&mut self, now: SimTime) {
        let target = self.target_users(now);
        let active = self.active_users();
        if active < target {
            // Spawn users; each starts with a random initial think so a surge
            // ramps in over the think window rather than as one spike.
            for _ in 0..(target - active) {
                let think = SimDuration::from_micros(
                    self.rng.uniform(0.0, self.max_think.as_micros().max(1) as f64) as u64,
                );
                self.users.push(UserState::Thinking(now + think));
            }
        } else if active > target {
            let mut to_retire = active - target;
            // Retire thinkers first (they vanish immediately); then mark
            // waiters to retire on completion.
            for u in self.users.iter_mut() {
                if to_retire == 0 {
                    break;
                }
                if matches!(u, UserState::Thinking(_)) {
                    *u = UserState::Retiring;
                    to_retire -= 1;
                }
            }
            for u in self.users.iter_mut() {
                if to_retire == 0 {
                    break;
                }
                if matches!(u, UserState::Waiting) {
                    *u = UserState::Retiring;
                    to_retire -= 1;
                }
            }
            // Compact, and remap the waiting queue to the new indices: a
            // retired waiter's entry becomes a tombstone in its place.
            let mut new_index = Vec::with_capacity(self.users.len());
            let mut kept = 0;
            for u in &self.users {
                if matches!(u, UserState::Retiring) {
                    new_index.push(RETIRED);
                } else {
                    new_index.push(kept);
                    kept += 1;
                }
            }
            for idx in self.waiting.iter_mut().filter(|idx| **idx != RETIRED) {
                *idx = new_index[*idx];
            }
            self.users.retain(|u| !matches!(u, UserState::Retiring));
        }
    }

    /// Completions are matched to waiters in FIFO order; a tombstone takes
    /// its completion and wakes nobody.
    fn user_completed(&mut self, end: SimTime) {
        let Some(idx) = self.waiting.pop_front() else { return };
        if idx == RETIRED {
            return;
        }
        let think = SimDuration::from_micros(
            self.rng.uniform(0.0, self.max_think.as_micros().max(1) as f64) as u64,
        );
        debug_assert!(matches!(self.users[idx], UserState::Waiting));
        self.users[idx] = UserState::Thinking(end + think);
    }
}

impl LoadGen for ClosedLoop {
    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, ApiId)> {
        self.apply_schedule(from);
        let mut out = Vec::new();
        for idx in 0..self.users.len() {
            if let UserState::Thinking(at) = self.users[idx] {
                if at < to {
                    let api = self.pick_api();
                    out.push((at.max(from), api));
                    self.users[idx] = UserState::Waiting;
                    self.waiting.push_back(idx);
                }
            }
        }
        out
    }

    fn on_completions(&mut self, completions: &[Completion]) {
        for c in completions {
            self.user_completed(c.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_sim::frame::RequestId;

    fn completion(end: SimTime) -> Completion {
        Completion {
            request: RequestId(0),
            api: ApiId(0),
            start: SimTime::ZERO,
            end,
            timed_out: false,
        }
    }

    #[test]
    fn users_send_then_wait() {
        let mut g = ClosedLoop::new(ApiId(0), 10, 1);
        let first = g.arrivals(SimTime::ZERO, SimTime::from_secs(6.0));
        assert_eq!(first.len(), 10, "every user sends within the think window");
        // No completions: nobody sends again.
        let second = g.arrivals(SimTime::from_secs(6.0), SimTime::from_secs(12.0));
        assert!(second.is_empty(), "closed loop throttles on outstanding requests");
    }

    #[test]
    fn completions_release_users() {
        let mut g = ClosedLoop::new(ApiId(0), 5, 2);
        let n = g.arrivals(SimTime::ZERO, SimTime::from_secs(6.0)).len();
        assert_eq!(n, 5);
        g.on_completions(&[completion(SimTime::from_secs(6.0)); 5]);
        let again = g.arrivals(SimTime::from_secs(6.0), SimTime::from_secs(12.0));
        assert_eq!(again.len(), 5, "all users cycle after completion");
    }

    #[test]
    fn user_surge_schedule() {
        let mut g = ClosedLoop::new(ApiId(0), 2, 3).users_at(SimTime::from_secs(10.0), 6);
        let before = g.arrivals(SimTime::ZERO, SimTime::from_secs(6.0)).len();
        assert_eq!(before, 2);
        g.on_completions(&[completion(SimTime::from_secs(6.0)); 2]);
        // After the surge point, 4 new users appear.
        let after = g.arrivals(SimTime::from_secs(10.0), SimTime::from_secs(16.0)).len();
        assert_eq!(after, 6);
    }

    #[test]
    fn scale_down_retires_users() {
        let mut g = ClosedLoop::new(ApiId(0), 8, 4).users_at(SimTime::from_secs(10.0), 3);
        let _ = g.arrivals(SimTime::ZERO, SimTime::from_secs(6.0));
        g.on_completions(&[completion(SimTime::from_secs(6.0)); 8]);
        let after = g.arrivals(SimTime::from_secs(10.0), SimTime::from_secs(16.0));
        assert_eq!(after.len(), 3, "population shrank to 3");
        assert_eq!(g.active_users(), 3);
    }

    #[test]
    fn mix_weights_are_respected() {
        let mut g = ClosedLoop::with_mix(vec![(ApiId(0), 3.0), (ApiId(1), 1.0)], 400, 5)
            .max_think(SimDuration::from_millis(1.0));
        let a = g.arrivals(SimTime::ZERO, SimTime::from_secs(1.0));
        let n0 = a.iter().filter(|(_, api)| *api == ApiId(0)).count();
        let n1 = a.len() - n0;
        assert_eq!(a.len(), 400);
        let frac = n0 as f64 / (n0 + n1) as f64;
        assert!((frac - 0.75).abs() < 0.08, "mix fraction {frac}");
    }

    #[test]
    fn throughput_tracks_latency() {
        // With think ≈ 0 and service latency L, each user completes ~1/L rps.
        let mut g = ClosedLoop::new(ApiId(0), 10, 6).max_think(SimDuration::from_micros(1));
        let mut sent = 0usize;
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            let seg_end = t + SimDuration::from_millis(100.0);
            let arrivals = g.arrivals(t, seg_end);
            sent += arrivals.len();
            // Pretend every request takes 100 ms: complete at segment end.
            let comps: Vec<Completion> = arrivals.iter().map(|_| completion(seg_end)).collect();
            g.on_completions(&comps);
            t = seg_end;
        }
        // 10 users × 10 rps × 10 s = ~1000 requests.
        assert!((900..=1010).contains(&sent), "sent {sent}");
    }

    #[test]
    fn waiters_kept_through_a_shrink_are_woken_by_their_completions() {
        let mut g = ClosedLoop::new(ApiId(0), 6, 7).max_think(SimDuration::from_micros(1));
        let ms = |m: f64| SimTime::from_millis(m);
        assert_eq!(g.arrivals(ms(0.0), ms(1.0)).len(), 6);
        // Three complete and think; three are still waiting when the
        // population drops to 3, which retires the thinkers.
        g.on_completions(&[completion(ms(1.0)); 3]);
        g.set_users(ms(2.0), 3);
        assert!(g.arrivals(ms(2.0), ms(3.0)).is_empty(), "the survivors are all waiting");
        assert_eq!(g.active_users(), 3);
        g.on_completions(&[completion(ms(3.0)); 3]);
        assert_eq!(g.arrivals(ms(3.0), ms(4.0)).len(), 3, "every survivor sends again");
    }

    /// Requests sent per 100 ms segment over 100 s by 100 users that follow
    /// `schedule` (`(second, users)` steps) and think up to 1 s; each request
    /// completes 500 ms after it was sent. Checks the population after every
    /// step.
    fn sends_per_segment(seed: u64, schedule: &[(u64, usize)]) -> Vec<usize> {
        let mut g = ClosedLoop::new(ApiId(0), 100, seed).max_think(SimDuration::from_secs(1.0));
        for &(at, users) in schedule {
            g.set_users(SimTime::from_secs(at as f64), users);
        }
        let seg = SimDuration::from_millis(100.0);
        let latency = SimDuration::from_millis(500.0);
        let mut in_flight: Vec<SimTime> = Vec::new();
        let mut sent = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            let end = t + seg;
            let arrivals = g.arrivals(t, end);
            let expected =
                schedule.iter().rev().find(|&&(at, _)| SimTime::from_secs(at as f64) <= t);
            assert_eq!(g.active_users(), expected.map_or(100, |&(_, n)| n), "users at {t:?}");
            sent.push(arrivals.len());
            in_flight.extend(arrivals.iter().map(|&(at, _)| at + latency));
            in_flight.sort_unstable();
            let done = in_flight.partition_point(|&e| e < end);
            let comps: Vec<Completion> = in_flight.drain(..done).map(completion).collect();
            g.on_completions(&comps);
            t = end;
        }
        sent
    }

    #[test]
    fn a_shrink_and_regrow_cycle_restores_the_steady_send_rate() {
        // Mean send rate over the final 25 s.
        let tail = |sent: Vec<usize>| sent[750..].iter().sum::<usize>() as f64 / 25.0;
        for seed in 0..10 {
            let cycled = tail(sends_per_segment(seed, &[(30, 50), (60, 100)]));
            let steady = tail(sends_per_segment(seed, &[]));
            assert!(
                (cycled / steady - 1.0).abs() <= 0.03,
                "seed {seed}: {cycled:.1} req/s after the cycle vs {steady:.1} steady"
            );
        }
    }
}
