//! Open-loop constant-rate load generation (the Vegeta analog).

use graf_sim::rng::DetRng;
use graf_sim::time::SimTime;
use graf_sim::topology::ApiId;

use crate::LoadGen;

/// One API's piecewise-constant rate schedule.
#[derive(Clone, Debug)]
struct Stream {
    api: ApiId,
    /// `(from_us, qps)` segments sorted by time; rate 0 before the first.
    schedule: Vec<(u64, f64)>,
    /// Time of the next arrival to emit, in µs (fractional carry kept in f64).
    next_at: f64,
}

impl Stream {
    fn rate_at(&self, t_us: u64) -> f64 {
        let idx = self.schedule.partition_point(|&(from, _)| from <= t_us);
        if idx == 0 {
            0.0
        } else {
            self.schedule[idx - 1].1
        }
    }
}

/// A Vegeta-like open-loop generator: requests are emitted at a configured
/// rate regardless of response times. Supports multiple APIs, per-API rate
/// schedules, and optional exponential (Poisson) spacing.
pub struct OpenLoop {
    streams: Vec<Stream>,
    poisson: bool,
    rng: DetRng,
}

impl OpenLoop {
    /// Creates a generator with evenly spaced arrivals (Vegeta's default
    /// constant pacing). Use [`OpenLoop::poisson`] for Poisson arrivals.
    pub fn new(seed: u64) -> Self {
        Self { streams: Vec::new(), poisson: false, rng: DetRng::new(seed) }
    }

    /// Switches to exponentially distributed inter-arrival gaps.
    pub fn poisson(mut self) -> Self {
        self.poisson = true;
        self
    }

    /// Adds an API with a constant rate from t = 0.
    pub fn rate(self, api: ApiId, qps: f64) -> Self {
        self.schedule(api, vec![(SimTime::ZERO, qps)])
    }

    /// Adds an API with a piecewise-constant schedule of `(from, qps)` steps.
    pub fn schedule(mut self, api: ApiId, steps: Vec<(SimTime, f64)>) -> Self {
        assert!(!steps.is_empty(), "schedule needs at least one step");
        let mut schedule: Vec<(u64, f64)> =
            // graf-lint: allow(hot-alloc, builder-time setup; the hot edge is a method-name collision with the event queue's `schedule`, not a real call)
            steps.into_iter().map(|(t, q)| (t.as_micros(), q)).collect();
        schedule.sort_by_key(|&(t, _)| t);
        for &(_, q) in &schedule {
            assert!(q >= 0.0, "rates must be non-negative");
        }
        let first = schedule[0].0 as f64;
        self.streams.push(Stream { api, schedule, next_at: first });
        self
    }

    /// Replaces the rate of `api` from time `from` onward (for dynamic
    /// experiments that change rates mid-run).
    pub fn set_rate(&mut self, api: ApiId, from: SimTime, qps: f64) {
        if let Some(s) = self.streams.iter_mut().find(|s| s.api == api) {
            s.schedule.retain(|&(t, _)| t < from.as_micros());
            s.schedule.push((from.as_micros(), qps));
        }
    }
}

impl LoadGen for OpenLoop {
    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, ApiId)> {
        let mut out = Vec::new();
        let from_us = from.as_micros() as f64;
        let to_us = to.as_micros() as f64;
        for s in &mut self.streams {
            if s.next_at < from_us {
                s.next_at = from_us;
            }
            loop {
                let t = s.next_at;
                if t >= to_us {
                    break;
                }
                let rate = s.rate_at(t as u64);
                if rate <= 0.0 {
                    // Jump to the next schedule step after t, if any.
                    match s.schedule.iter().find(|&&(st, q)| st as f64 > t && q > 0.0) {
                        Some(&(st, _)) => {
                            s.next_at = st as f64;
                            continue;
                        }
                        None => break,
                    }
                }
                out.push((SimTime(t as u64), s.api));
                let gap_us = if self.poisson { self.rng.exp(1e6 / rate) } else { 1e6 / rate };
                s.next_at = t + gap_us.max(1.0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_emits_expected_count() {
        let mut g = OpenLoop::new(1).rate(ApiId(0), 100.0);
        let a = g.arrivals(SimTime::ZERO, SimTime::from_secs(2.0));
        assert_eq!(a.len(), 200);
        // Evenly spaced: gaps of 10 ms.
        assert_eq!(a[1].0.as_micros() - a[0].0.as_micros(), 10_000);
    }

    #[test]
    fn segmented_generation_is_seamless() {
        let mut g1 = OpenLoop::new(1).rate(ApiId(0), 37.0);
        let whole = g1.arrivals(SimTime::ZERO, SimTime::from_secs(3.0));
        let mut g2 = OpenLoop::new(1).rate(ApiId(0), 37.0);
        let mut parts = Vec::new();
        for k in 0..30 {
            parts.extend(g2.arrivals(
                SimTime::from_millis(k as f64 * 100.0),
                SimTime::from_millis((k + 1) as f64 * 100.0),
            ));
        }
        let whole_t: Vec<u64> = whole.iter().map(|(t, _)| t.as_micros()).collect();
        let parts_t: Vec<u64> = parts.iter().map(|(t, _)| t.as_micros()).collect();
        assert_eq!(whole_t, parts_t, "segmentation must not change the stream");
    }

    #[test]
    fn schedule_steps_change_rate() {
        let mut g = OpenLoop::new(1)
            .schedule(ApiId(0), vec![(SimTime::ZERO, 10.0), (SimTime::from_secs(1.0), 100.0)]);
        let first = g.arrivals(SimTime::ZERO, SimTime::from_secs(1.0));
        let second = g.arrivals(SimTime::from_secs(1.0), SimTime::from_secs(2.0));
        assert_eq!(first.len(), 10);
        assert_eq!(second.len(), 100);
    }

    #[test]
    fn zero_rate_periods_emit_nothing() {
        let mut g = OpenLoop::new(1)
            .schedule(ApiId(0), vec![(SimTime::ZERO, 0.0), (SimTime::from_secs(1.0), 50.0)]);
        assert!(g.arrivals(SimTime::ZERO, SimTime::from_secs(1.0)).is_empty());
        let a = g.arrivals(SimTime::from_secs(1.0), SimTime::from_secs(2.0));
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn poisson_rate_converges() {
        let mut g = OpenLoop::new(7).poisson().rate(ApiId(0), 200.0);
        let a = g.arrivals(SimTime::ZERO, SimTime::from_secs(50.0));
        let n = a.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "poisson count {n}");
    }

    #[test]
    fn multiple_apis_interleave_independently() {
        let mut g = OpenLoop::new(1).rate(ApiId(0), 10.0).rate(ApiId(1), 5.0);
        let a = g.arrivals(SimTime::ZERO, SimTime::from_secs(2.0));
        let n0 = a.iter().filter(|(_, api)| *api == ApiId(0)).count();
        let n1 = a.iter().filter(|(_, api)| *api == ApiId(1)).count();
        assert_eq!((n0, n1), (20, 10));
    }

    #[test]
    fn arrivals_are_within_requested_segment() {
        let mut g = OpenLoop::new(3).poisson().rate(ApiId(0), 333.0);
        let from = SimTime::from_secs(5.0);
        let to = SimTime::from_secs(6.0);
        let _ = g.arrivals(SimTime::ZERO, from);
        for (t, _) in g.arrivals(from, to) {
            assert!(t >= from && t < to, "arrival {t} outside [{from}, {to})");
        }
    }

    #[test]
    fn set_rate_overrides_future() {
        let mut g = OpenLoop::new(1).rate(ApiId(0), 10.0);
        let _ = g.arrivals(SimTime::ZERO, SimTime::from_secs(1.0));
        g.set_rate(ApiId(0), SimTime::from_secs(1.0), 20.0);
        let a = g.arrivals(SimTime::from_secs(1.0), SimTime::from_secs(2.0));
        assert_eq!(a.len(), 20);
    }
}
