//! Property tests for the simulator's core invariants: each property runs
//! over seeded cases (case `i` draws its inputs from `DetRng::new(i)`, so a
//! failure names the seed that reproduces it), plus the calendar queue's
//! deterministic replays against a reference model.

use std::ops::Range;

use graf_sim::events::CalendarQueue;
use graf_sim::frame::FrameId;
use graf_sim::rng::DetRng;
use graf_sim::station::{Instance, InstanceState};
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceId, ServiceSpec};
use graf_sim::world::{SimConfig, World};

/// Seeded cases per property.
const CASES: u64 = 64;

/// A `Vec` whose length is uniform in `lens`, each element drawn by `draw`.
fn vec_of<T>(
    rng: &mut DetRng,
    lens: Range<usize>,
    mut draw: impl FnMut(&mut DetRng) -> T,
) -> Vec<T> {
    let n = rng.uniform_u64(lens.start as u64, lens.end as u64 - 1) as usize;
    (0..n).map(|_| draw(rng)).collect()
}

/// The reference the calendar queue is replayed against: entries kept sorted
/// by `(time, seq)`, latest first, so the earliest pops off the back. Trivially
/// correct, and test-only.
struct Reference<E> {
    entries: Vec<(SimTime, u64, E)>,
    next_seq: u64,
}

impl<E> Reference<E> {
    fn new() -> Self {
        Self { entries: Vec::new(), next_seq: 0 }
    }

    fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        let at = self.entries.partition_point(|e| (e.0, e.1) > (time, seq));
        self.entries.insert(at, (time, seq, event));
    }

    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.last().map(|e| e.0)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.entries.pop().map(|(t, _, e)| (t, e))
    }

    fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        self.pop_before(t, u64::MAX)
    }

    fn pop_before(&mut self, t: SimTime, seq: u64) -> Option<(SimTime, E)> {
        match self.entries.last() {
            Some(e) if (e.0, e.1) < (t, seq) => self.pop(),
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The event queue pops events in non-decreasing time order regardless of
/// schedule order, with ties resolved by insertion sequence.
#[test]
fn event_queue_orders_any_schedule() {
    for case in 0..CASES {
        let times = vec_of(&mut DetRng::new(case), 1..300, |r| r.uniform_u64(0, 999_999));
        let mut q = CalendarQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last_time = 0u64;
        let mut last_seq_at_time = None::<usize>;
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            assert!(t.0 >= last_time, "case {case}: {} popped after {last_time}", t.0);
            if t.0 == last_time {
                if let Some(prev) = last_seq_at_time {
                    // Ties pop in insertion order only among equal times.
                    if times[prev] == times[idx] {
                        assert!(idx > prev, "case {case}: tie at {last_time} out of order");
                    }
                }
            }
            last_time = t.0;
            last_seq_at_time = Some(idx);
            popped += 1;
        }
        assert_eq!(popped, times.len(), "case {case}");
    }
}

/// Processor sharing conserves work: usage reported by advance() equals
/// the backlog reduction, for arbitrary job sets and time steps.
#[test]
fn station_conserves_work() {
    for case in 0..CASES {
        let rng = &mut DetRng::new(case);
        let quota = rng.uniform(50.0, 4000.0);
        let jobs = vec_of(rng, 1..20, |r| r.uniform(10.0, 1e6));
        let steps = vec_of(rng, 1..20, |r| r.uniform_u64(1, 99_999));
        let mut inst = Instance::new(ServiceId(0), quota, InstanceState::Ready, SimTime::ZERO);
        for (i, &w) in jobs.iter().enumerate() {
            inst.push_job(FrameId(i as u32), w);
        }
        let before = inst.backlog_mc_us();
        let mut now = 0u64;
        let mut used_total = 0.0;
        for &dt in &steps {
            now += dt;
            used_total += inst.advance(SimTime(now));
            let _ = inst.take_finished();
        }
        let after = inst.backlog_mc_us();
        assert!(
            (before - after - used_total).abs() < 1e-6 * (1.0 + before),
            "case {case}: work conservation: before {before}, after {after}, used {used_total}"
        );
        // Usage can never exceed capacity × elapsed (modulo per-job caps).
        assert!(used_total <= quota * now as f64 + 1e-6, "case {case}: {used_total} used");
    }
}

/// End-to-end: every injected request either completes or is still in
/// flight — nothing is lost — and completions have sane timestamps.
#[test]
fn world_conserves_requests() {
    for case in 0..CASES {
        let rng = &mut DetRng::new(case);
        let n_requests = rng.uniform_u64(1, 119) as usize;
        let quota = rng.uniform(100.0, 2000.0);
        let gap_us = rng.uniform_u64(500, 49_999);
        let seed = rng.uniform_u64(0, 999);
        let topo = AppTopology::new(
            "prop",
            vec![ServiceSpec::new("a", 0.5, 200), ServiceSpec::new("b", 1.0, 200)],
            vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
        );
        let mut w = World::new(topo, SimConfig::default(), seed);
        w.add_instances(ServiceId(0), 1, quota, SimTime::ZERO);
        w.add_instances(ServiceId(1), 1, quota, SimTime::ZERO);
        for i in 0..n_requests {
            w.inject(ApiId(0), SimTime(i as u64 * gap_us));
        }
        w.run_until(SimTime::from_secs(120.0));
        let done = w.drain_completions();
        assert_eq!(done.len() + w.in_flight(), n_requests, "case {case}");
        for c in &done {
            assert!(c.end >= c.start, "case {case}");
            assert!(c.latency_us() > 0, "case {case}");
            // The 30 s client timeout bounds every reported latency.
            assert!(c.latency_us() <= 30_000_000, "case {case}");
        }
    }
}

/// Differential: for any interleaving of schedules, seq reservations and
/// pops — offsets spanning every wheel level, same-timestamp ties,
/// zero-delay events, far-overflow horizons and `(time, seq)` bounds that
/// tie an entry exactly — the calendar queue pops exactly what the
/// reference pops, in the same order.
#[test]
fn calendar_queue_matches_reference_heap() {
    for case in 0..CASES {
        let ops = vec_of(&mut DetRng::new(case), 1..400, |r| {
            (r.uniform_u64(0, 6) as u8, r.uniform_u64(0, u64::MAX - 1))
        });
        let mut cal = CalendarQueue::new();
        let mut reference = Reference::new();
        let mut now = 0u64;
        let mut queued = 0usize;
        // Every `(time, seq)` key handed out so far, schedules and
        // reservations alike; `keys[seq]` is the key of seq `seq`, and each
        // event carries its seq.
        let mut keys: Vec<(u64, u64)> = Vec::new();
        for (i, &(kind, x)) in ops.iter().enumerate() {
            let seq = keys.len() as u64;
            match kind {
                // Schedule at now + an offset chosen to exercise one level:
                // ties (0), L0 (<64 µs), L1 (<~65 ms), L2 (<~67 s), overflow.
                0..=3 => {
                    let spread = match kind {
                        0 => x % 2,         // tie or 1 µs
                        1 => x % (1 << 6),  // within L0
                        2 => x % 60_000,    // within L1
                        _ => x % (1 << 38), // L2 and the overflow list
                    };
                    cal.schedule(SimTime(now + spread), seq);
                    reference.schedule(SimTime(now + spread), seq);
                    keys.push((now + spread, seq));
                    queued += 1;
                }
                4 => {
                    // Reserve a seq (a deadline kept outside the queue): both
                    // hand out the number a schedule would have taken.
                    let (a, b) = (cal.take_seq(), reference.take_seq());
                    assert_eq!((a, b), (seq, seq), "case {case}: take_seq diverged at op {i}");
                    keys.push((now + x % 70_000_000, seq));
                }
                5 if !keys.is_empty() => {
                    // Bounded pop at a key handed out earlier, its seq nudged
                    // by −1, 0 or +1: an entry tying the bound exactly stays.
                    let (t, s) = keys[(x % seq) as usize];
                    let bound = match (x >> 40) % 3 {
                        0 => s.saturating_sub(1),
                        1 => s,
                        _ => s + 1,
                    };
                    let a = cal.pop_before(SimTime(t), bound);
                    let b = reference.pop_before(SimTime(t), bound);
                    assert_eq!(a, b, "case {case}: pop_before diverged at op {i}");
                    match a {
                        Some((pt, ps)) => {
                            assert!((pt.0, ps) < (t, bound), "case {case}: popped past the bound");
                            now = now.max(pt.0);
                            queued -= 1;
                        }
                        None => now = now.max(t),
                    }
                }
                _ if x % 3 == 0 && queued > 0 => {
                    // Far horizon: drain everything (crosses overflow paths).
                    let a = cal.pop();
                    let b = reference.pop();
                    assert_eq!(a, b, "case {case}: pop diverged at op {i}");
                    let Some((t, _)) = a else { unreachable!() };
                    now = now.max(t.0);
                    queued -= 1;
                }
                _ => {
                    // Bounded pop: may return None, advancing the cursor.
                    let horizon = now + x % 70_000_000;
                    let a = cal.pop_due(SimTime(horizon));
                    let b = reference.pop_due(SimTime(horizon));
                    assert_eq!(a, b, "case {case}: pop_due diverged at op {i}");
                    match a {
                        Some((t, _)) => {
                            now = now.max(t.0);
                            queued -= 1;
                        }
                        None => now = now.max(horizon),
                    }
                }
            }
            assert_eq!(cal.len(), reference.len(), "case {case}: len diverged at op {i}");
            assert_eq!(cal.peek_time(), reference.peek_time(), "case {case}: peek at op {i}");
        }
        // Drain the tail: order must match to the last event.
        loop {
            let a = cal.pop();
            let b = reference.pop();
            assert_eq!(a, b, "case {case}: tail drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}

/// Latency is monotone in quota on average: doubling every quota never
/// increases the mean latency materially (allowing small stochastic
/// wiggle when both systems are unloaded).
#[test]
fn more_quota_never_materially_slower() {
    fn mean_latency(quota: f64, gap: u64, seed: u64) -> f64 {
        let topo = AppTopology::new(
            "prop",
            vec![ServiceSpec::new("s", 1.0, 100)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let mut w = World::new(topo, SimConfig::default(), seed);
        w.add_instances(ServiceId(0), 1, quota, SimTime::ZERO);
        for i in 0..200u64 {
            w.inject(ApiId(0), SimTime(i * gap));
        }
        w.run_until(SimTime::from_secs(120.0));
        let done = w.drain_completions();
        done.iter().map(|c| c.latency_us() as f64).sum::<f64>() / done.len().max(1) as f64
    }
    for case in 0..CASES {
        let rng = &mut DetRng::new(case);
        let base_quota = rng.uniform(120.0, 600.0);
        let rate_gap_us = rng.uniform_u64(2_000, 19_999);
        let seed = rng.uniform_u64(0, 199);
        let slow = mean_latency(base_quota, rate_gap_us, seed);
        let fast = mean_latency(base_quota * 2.0, rate_gap_us, seed);
        assert!(
            fast <= slow * 1.05 + 50.0,
            "case {case}: doubling quota can't hurt: {slow} → {fast} \
             (quota {base_quota}, gap {rate_gap_us})"
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic calendar-queue replays. The differential property above
// sweeps the space statistically; these pin the exact edges where the wheel
// switches representation — every level and the overflow list, level-width
// and slot-width boundaries, the far-bucket capacity floor, a reserved seq —
// bit-identically against the reference, so a slot arithmetic off-by-one
// cannot hide behind sampling luck.
// ---------------------------------------------------------------------------

/// Runs the same schedule/pop script against the calendar queue and the
/// reference and asserts every pop and peek matches bit-for-bit.
fn assert_kinds_agree(script: &[(u64, &str)]) {
    let mut cal: CalendarQueue<usize> = CalendarQueue::new();
    let mut reference: Reference<usize> = Reference::new();
    for (i, &(x, op)) in script.iter().enumerate() {
        match op {
            "sched" => {
                cal.schedule(SimTime(x), i);
                reference.schedule(SimTime(x), i);
            }
            "pop_due" => {
                assert_eq!(
                    cal.pop_due(SimTime(x)),
                    reference.pop_due(SimTime(x)),
                    "pop_due({x}) diverged at step {i}"
                );
            }
            "pop" => assert_eq!(cal.pop(), reference.pop(), "pop diverged at step {i}"),
            other => panic!("unknown op {other}"),
        }
        assert_eq!(cal.peek_time(), reference.peek_time(), "peek diverged at step {i}");
        assert_eq!(cal.len(), reference.len(), "len diverged at step {i}");
    }
    loop {
        let (a, b) = (cal.pop(), reference.pop());
        assert_eq!(a, b, "tail drain diverged");
        if a.is_none() {
            break;
        }
    }
}

/// Events exactly at, one below, and one above every wheel level's span
/// (2^16 µs, 2^26 µs, 2^36 µs — SLOT_BITS + SHIFTS[level]) pop in reference
/// order, both from a zero cursor and from a cursor parked at an odd time
/// (so the level-base alignment `cur & !(span - 1)` is exercised off-origin).
#[test]
fn calendar_queue_level_width_boundaries_match_heap() {
    let spans: [u64; 3] = [1 << 16, 1 << 26, 1 << 36];
    for &span in &spans {
        for &cursor in &[0u64, 12_345, span - 1] {
            let mut script: Vec<(u64, &str)> = Vec::new();
            if cursor > 0 {
                // Park both cursors without popping anything.
                script.push((cursor, "pop_due"));
            }
            // Same-slot tie, slot edge, span edge, exact span, one past, and
            // a deep overshoot that must fall through to the next level.
            for off in [0, 1, span - 1, span, span + 1, 2 * span + 3] {
                script.push((cursor + off, "sched"));
            }
            // Interleave: drain two, schedule another boundary batch, drain all.
            script.push((0, "pop"));
            script.push((cursor + span, "pop_due"));
            for off in [span - 1, span, span + 1] {
                script.push((cursor + span + off, "sched"));
            }
            assert_kinds_agree(&script);
        }
    }
}

/// Slot-width boundaries (2^6, 2^16, 2^26 µs — SHIFTS) where an event moves
/// from one bucket to the next within a level.
#[test]
fn calendar_queue_slot_width_boundaries_match_heap() {
    let mut script: Vec<(u64, &str)> = Vec::new();
    for shift in [6u32, 16, 26] {
        let w = 1u64 << shift;
        for off in [w - 1, w, w + 1] {
            script.push((off, "sched"));
        }
    }
    script.push((1 << 6, "pop_due"));
    script.push((1 << 16, "pop_due"));
    assert_kinds_agree(&script);
}

/// The far-bucket capacity floor (FAR_BUCKET_MIN = 64): filling a single
/// far-level bucket to one below, exactly at, and past the reserve floor
/// never reorders pops — the floor is an allocation hint, not a limit.
#[test]
fn calendar_queue_far_bucket_floor_is_not_a_capacity_limit() {
    for n in [63usize, 64, 65, 130] {
        let far = (1u64 << 16) + 7; // lands in level 1, same bucket each time
        let mut script: Vec<(u64, &str)> = Vec::new();
        for _ in 0..n {
            script.push((far, "sched"));
        }
        // Drain half bounded, then let the tail drain in assert_kinds_agree.
        for _ in 0..n / 2 {
            script.push((far, "pop_due"));
        }
        assert_kinds_agree(&script);
    }
}

#[test]
fn calendar_crosses_every_level_and_overflow() {
    // One event per residence class: level 0 (64 µs buckets), level 1
    // (~65 ms), level 2 (~67 s) and the >19 h overflow.
    let times = [50u64, 70_000, 70_000_000, 1 << 37, (1 << 37) + 5];
    let mut q = CalendarQueue::new();
    let mut h = Reference::new();
    for (i, &t) in times.iter().enumerate() {
        q.schedule(SimTime(t), i);
        h.schedule(SimTime(t), i);
    }
    loop {
        let (a, b) = (q.pop(), h.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn reserved_seq_orders_where_a_scheduled_event_would() {
    // Queue `a` schedules the marker event at 100 µs; queue `b` only
    // reserves its seq at the same point and merges it with `pop_before`.
    // Ties at 100 µs on both sides of the reservation must pop in the same
    // order, on the wheel and on the reference.
    let script = [(100u64, 0), (50, 1), (100, 2), (u64::MAX, 99), (100, 3), (99, 4), (101, 5)];
    macro_rules! merged_and_reference {
        ($queue:ident) => {{
            let (mut a, mut b) = ($queue::new(), $queue::new());
            let mut reserved = None;
            for &(t, id) in &script {
                if id == 99 {
                    a.schedule(SimTime(100), id);
                    reserved = Some(b.take_seq());
                } else {
                    a.schedule(SimTime(t), id);
                    b.schedule(SimTime(t), id);
                }
            }
            let seq = reserved.expect("script reserves once");
            let mut merged = Vec::new();
            while let Some((t, id)) = b.pop_before(SimTime(100), seq) {
                merged.push((t, id));
            }
            merged.push((SimTime(100), 99));
            while let Some(e) = b.pop() {
                merged.push(e);
            }
            let scheduled: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
            (merged, scheduled)
        }};
    }
    let calendar = merged_and_reference!(CalendarQueue);
    let reference = merged_and_reference!(Reference);
    for (name, (merged, scheduled)) in [("calendar", calendar), ("reference", reference)] {
        assert_eq!(merged, scheduled, "{name}");
        let ids: Vec<_> = scheduled.iter().map(|e| e.1).collect();
        assert_eq!(ids, [1, 4, 0, 2, 99, 3, 5], "{name}: ties split at the reservation");
    }
}

#[test]
fn calendar_matches_heap_on_mixed_horizons() {
    // Deterministic mixed workload: interleaved schedules and horizon pops,
    // exercising cascades mid-drain.
    let mut q = CalendarQueue::new();
    let mut h = Reference::new();
    let mut now = 0u64;
    let mut x: u64 = 0x9E3779B97F4A7C15;
    let mut id = 0usize;
    for step in 0..2000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if step % 3 != 2 {
            let spread = match x % 5 {
                0 => 0,                // tie
                1 => x % 64,           // same bucket
                2 => x % 60_000,       // level 0/1
                3 => x % 50_000_000,   // level 1/2
                _ => x % (1u64 << 38), // level 2 / overflow
            };
            q.schedule(SimTime(now + spread), id);
            h.schedule(SimTime(now + spread), id);
            id += 1;
        } else {
            let horizon = SimTime(now + x % 1_000_000);
            let (a, b) = (q.pop_due(horizon), h.pop_due(horizon));
            assert_eq!(a, b, "divergence at step {step}");
            now = a.map_or(horizon.0, |(t, _)| t.0);
        }
    }
    loop {
        let (a, b) = (q.pop(), h.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    assert!(q.is_empty() && h.is_empty());
}
