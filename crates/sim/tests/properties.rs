//! Property-based tests for the simulator's core invariants.

use graf_sim::events::{CalendarQueue, EventQueue};
use graf_sim::frame::FrameId;
use graf_sim::station::{Instance, InstanceState};
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, ApiSpec, AppTopology, CallNode, ServiceId, ServiceSpec};
use graf_sim::world::{SimConfig, World};
use proptest::prelude::*;

proptest! {
    /// The event queue pops events in non-decreasing time order regardless of
    /// schedule order, with ties resolved by insertion sequence.
    #[test]
    fn event_queue_orders_any_schedule(times in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last_time = 0u64;
        let mut last_seq_at_time = None::<usize>;
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t.0 >= last_time);
            if t.0 == last_time {
                if let Some(prev) = last_seq_at_time {
                    // Ties pop in insertion order only among equal times.
                    if times[prev] == times[idx] {
                        prop_assert!(idx > prev);
                    }
                }
            }
            last_time = t.0;
            last_seq_at_time = Some(idx);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Processor sharing conserves work: usage reported by advance() equals
    /// the backlog reduction, for arbitrary job sets and time steps.
    #[test]
    fn station_conserves_work(
        quota in 50.0f64..4000.0,
        jobs in proptest::collection::vec(10.0f64..1e6, 1..20),
        steps in proptest::collection::vec(1u64..100_000, 1..20),
    ) {
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
        prop_assert!(
            (before - after - used_total).abs() < 1e-6 * (1.0 + before),
            "work conservation: before {before}, after {after}, used {used_total}"
        );
        // Usage can never exceed capacity × elapsed (modulo per-job caps).
        prop_assert!(used_total <= quota * now as f64 + 1e-6);
    }

    /// End-to-end: every injected request either completes or is still in
    /// flight — nothing is lost — and completions have sane timestamps.
    #[test]
    fn world_conserves_requests(
        n_requests in 1usize..120,
        quota in 100.0f64..2000.0,
        gap_us in 500u64..50_000,
        seed in 0u64..1000,
    ) {
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
        prop_assert_eq!(done.len() + w.in_flight(), n_requests);
        for c in &done {
            prop_assert!(c.end >= c.start);
            prop_assert!(c.latency_us() > 0);
            // The 30 s client timeout bounds every reported latency.
            prop_assert!(c.latency_us() <= 30_000_000);
        }
    }

    /// Differential: for any interleaving of schedules, seq reservations and
    /// pops — offsets spanning every wheel level, same-timestamp ties,
    /// zero-delay events, far-overflow horizons and `(time, seq)` bounds that
    /// tie an entry exactly — the calendar queue pops exactly what the
    /// reference `BinaryHeap` queue pops, in the same order.
    #[test]
    fn calendar_queue_matches_reference_heap(
        ops in proptest::collection::vec((0u8..7, 0u64..u64::MAX), 1..400),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
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
                        0 => x % 2,             // tie or 1 µs
                        1 => x % (1 << 6),      // within L0
                        2 => x % 60_000,        // within L1
                        _ => x % (1 << 38),     // L2 and the overflow list
                    };
                    cal.schedule(SimTime(now + spread), seq);
                    heap.schedule(SimTime(now + spread), seq);
                    keys.push((now + spread, seq));
                    queued += 1;
                }
                4 => {
                    // Reserve a seq (a deadline kept outside the queue): both
                    // kinds hand out the number a schedule would have taken.
                    let (a, b) = (cal.take_seq(), heap.take_seq());
                    prop_assert_eq!((a, b), (seq, seq), "take_seq diverged at op {}", i);
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
                    let b = heap.pop_before(SimTime(t), bound);
                    prop_assert_eq!(a, b, "pop_before diverged at op {}", i);
                    match a {
                        Some((pt, ps)) => {
                            prop_assert!((pt.0, ps) < (t, bound), "popped at or past the bound");
                            now = now.max(pt.0);
                            queued -= 1;
                        }
                        None => now = now.max(t),
                    }
                }
                _ if x % 3 == 0 && queued > 0 => {
                    // Far horizon: drain everything (crosses overflow paths).
                    let a = cal.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b, "pop diverged at op {}", i);
                    let Some((t, _)) = a else { unreachable!() };
                    now = now.max(t.0);
                    queued -= 1;
                }
                _ => {
                    // Bounded pop: may return None, advancing the cursor.
                    let horizon = now + x % 70_000_000;
                    let a = cal.pop_due(SimTime(horizon));
                    let b = heap.pop_due(SimTime(horizon));
                    prop_assert_eq!(a, b, "pop_due diverged at op {}", i);
                    match a {
                        Some((t, _)) => { now = now.max(t.0); queued -= 1; }
                        None => now = now.max(horizon),
                    }
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.peek_time(), heap.peek_time(), "peek diverged at op {}", i);
        }
        // Drain the tail: order must match to the last event.
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b, "tail drain diverged");
            if a.is_none() { break; }
        }
    }

    /// Latency is monotone in quota on average: doubling every quota never
    /// increases the mean latency materially (allowing small stochastic
    /// wiggle when both systems are unloaded).
    #[test]
    fn more_quota_never_materially_slower(
        base_quota in 120.0f64..600.0,
        rate_gap_us in 2_000u64..20_000,
        seed in 0u64..200,
    ) {
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
        let slow = mean_latency(base_quota, rate_gap_us, seed);
        let fast = mean_latency(base_quota * 2.0, rate_gap_us, seed);
        prop_assert!(
            fast <= slow * 1.05 + 50.0,
            "doubling quota can't hurt: {slow} → {fast} (quota {base_quota}, gap {rate_gap_us})"
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic calendar-queue boundary regressions. The proptest above
// sweeps the space statistically; these pin the exact edges where the wheel
// switches representation — level-width boundaries and the far-bucket
// capacity floor — bit-identically against the reference heap, so a slot
// arithmetic off-by-one cannot hide behind sampling luck.
// ---------------------------------------------------------------------------

/// Runs the same schedule/pop script against the calendar queue and the
/// reference heap and asserts every pop and peek matches bit-for-bit.
fn assert_kinds_agree(script: &[(u64, &str)]) {
    let mut cal: CalendarQueue<usize> = CalendarQueue::new();
    let mut heap: EventQueue<usize> = EventQueue::new();
    for (i, &(x, op)) in script.iter().enumerate() {
        match op {
            "sched" => {
                cal.schedule(SimTime(x), i);
                heap.schedule(SimTime(x), i);
            }
            "pop_due" => {
                assert_eq!(
                    cal.pop_due(SimTime(x)),
                    heap.pop_due(SimTime(x)),
                    "pop_due({x}) diverged at step {i}"
                );
            }
            "pop" => assert_eq!(cal.pop(), heap.pop(), "pop diverged at step {i}"),
            other => panic!("unknown op {other}"),
        }
        assert_eq!(cal.peek_time(), heap.peek_time(), "peek diverged at step {i}");
        assert_eq!(cal.len(), heap.len(), "len diverged at step {i}");
    }
    loop {
        let (a, b) = (cal.pop(), heap.pop());
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
