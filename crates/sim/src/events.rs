//! Deterministic event queues.
//!
//! Events are ordered by `(time, insertion sequence)` so ties resolve in
//! schedule order, keeping runs bit-for-bit reproducible across platforms.
//!
//! Two implementations share that contract:
//!
//! * [`EventQueue`] — the reference `BinaryHeap` min-queue. O(log n) per
//!   operation, trivially correct; kept as the differential-testing oracle.
//! * [`CalendarQueue`] — a three-level bucketed timing wheel. O(1) amortized
//!   per operation for the discrete-event steady state, where nearly every
//!   event is scheduled a short horizon ahead of the current time. This is
//!   the simulator's default core (see DESIGN.md §12).
//!
//! [`Queue`] dispatches between them; [`QueueKind`] selects one per world via
//! `SimConfig`.
//!
//! # Merging an outside sequence
//!
//! A caller that keeps some timestamped work outside the queue — `World`
//! keeps client deadlines in a FIFO — merges it in exact `(time, seq)` order
//! with two primitives. `take_seq` claims the next sequence number without
//! inserting anything, so the outside item sorts exactly where an event
//! scheduled at that moment would have. `pop_before(t, seq)` pops the earliest
//! event only if it sorts strictly before `(t, seq)`; the caller handles its
//! own item when it returns `None`. `pop_due(t)` is `pop_before(t, u64::MAX)`.
//!
//! # The calendar queue's extra contract
//!
//! The wheel maintains a monotone cursor `cur`, a lower bound on every queued
//! event time. [`CalendarQueue::schedule`] requires `time >= cur`, i.e. no
//! event may be scheduled before the last popped event or before any bound
//! already passed to [`CalendarQueue::pop_before`] (or `pop_due`).
//! Discrete-event simulation satisfies this by construction (causality:
//! handlers schedule at or after `now`); `World` clamps external injections
//! to `now`. A violating time is
//! clamped to `cur` in release builds (it would fire as soon as possible,
//! exactly like an already-due event in the heap) and asserts in debug.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Which event-queue implementation a world uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// Bucketed timing wheel ([`CalendarQueue`]): the fast default.
    #[default]
    Calendar,
    /// Reference `BinaryHeap` ([`EventQueue`]): the differential-test oracle.
    Heap,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-queue of timestamped events with deterministic tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        self.heap.push(Entry { time, seq, event });
    }

    /// Claims the next sequence number without inserting anything (see the
    /// module docs).
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Removes and returns the earliest event if it is due at or before `t`.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        self.pop_before(t, u64::MAX)
    }

    /// Removes and returns the earliest event if it sorts strictly before
    /// `(t, seq)` in `(time, seq)` order.
    pub fn pop_before(&mut self, t: SimTime, seq: u64) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(e) if (e.time, e.seq) < (t, seq) => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Calendar queue: a three-level bucketed timing wheel.
// ---------------------------------------------------------------------------

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 10;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Occupancy-bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// log2 bucket width (µs) per level: 64 µs, ~65 ms, ~67 s.
const SHIFTS: [u32; 3] = [6, 16, 26];
/// Times at or beyond `cur`'s 2^36 µs (~19 h) epoch end go to the overflow.
const OVERFLOW_SHIFT: u32 = 36;
/// Capacity floor for level-1/2 buckets on their first use (see `far_push`).
const FAR_BUCKET_MIN: usize = 64;

/// One wheel level: `SLOTS` unsorted buckets plus an occupancy bitmap so the
/// next non-empty slot is found by word scan, not by walking empty buckets.
struct Level<E> {
    buckets: Vec<Vec<Entry<E>>>,
    occ: [u64; WORDS],
}

impl<E> Level<E> {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(SLOTS);
        for _ in 0..SLOTS {
            buckets.push(Vec::new());
        }
        Self { buckets, occ: [0; WORDS] }
    }

    fn set(&mut self, slot: usize) {
        self.occ[slot >> 6] |= 1u64 << (slot & 63);
    }

    fn clear(&mut self, slot: usize) {
        self.occ[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// First occupied slot at or after `from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        if w >= WORDS {
            return None;
        }
        let mut word = self.occ[w] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            word = self.occ[w];
        }
    }
}

/// A hierarchical calendar queue preserving the exact `(time, seq)` order of
/// [`EventQueue`].
///
/// Near-future events (within ~65 ms of the cursor) land in 64 µs level-0
/// buckets; farther events land in coarser levels (~67 s, ~19 h) and cascade
/// down as the cursor reaches their window; anything beyond ~19 h waits in an
/// overflow list. Buckets are unsorted appends until the cursor enters one,
/// at which point it is sorted once (descending, so draining pops from the
/// back) — total ordering work is O(n log b) for bucket occupancy b, and the
/// steady state allocates nothing once bucket capacities are warm.
pub struct CalendarQueue<E> {
    levels: [Level<E>; 3],
    overflow: Vec<Entry<E>>,
    /// Monotone lower bound on all queued event times (µs).
    cur: u64,
    /// `true` while the level-0 bucket at `cur`'s slot is sorted descending
    /// and being drained from the back.
    draining: bool,
    len: usize,
    next_seq: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue with the cursor at t = 0.
    pub fn new() -> Self {
        Self {
            levels: [Level::new(), Level::new(), Level::new()],
            overflow: Vec::new(),
            cur: 0,
            draining: false,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`. Requires `time >= cur` (see module docs);
    /// earlier times are clamped to the cursor.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        debug_assert!(time.0 >= self.cur, "schedule({}) before cursor {}", time.0, self.cur);
        let seq = self.take_seq();
        self.len += 1;
        let time = SimTime(time.0.max(self.cur));
        self.place(Entry { time, seq, event });
    }

    /// Claims the next sequence number without inserting anything (see the
    /// module docs).
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Routes an entry to its level/bucket given the current cursor.
    fn place(&mut self, e: Entry<E>) {
        let t = e.time.0;
        if t >> (SHIFTS[0] + SLOT_BITS) == self.cur >> (SHIFTS[0] + SLOT_BITS) {
            let s = Self::slot(t, 0);
            if self.draining && s == Self::slot(self.cur, 0) {
                // The active bucket is sorted descending by (time, seq):
                // binary-insert so the drain order stays exact.
                let b = &mut self.levels[0].buckets[s];
                let key = (e.time.0, e.seq);
                let pos = b.partition_point(|x| (x.time.0, x.seq) > key);
                b.insert(pos, e);
            } else {
                self.levels[0].buckets[s].push(e);
                self.levels[0].set(s);
            }
        } else if t >> (SHIFTS[1] + SLOT_BITS) == self.cur >> (SHIFTS[1] + SLOT_BITS) {
            let s = Self::slot(t, 1);
            Self::far_push(&mut self.levels[1].buckets[s], e);
            self.levels[1].set(s);
        } else if t >> (SHIFTS[2] + SLOT_BITS) == self.cur >> (SHIFTS[2] + SLOT_BITS) {
            let s = Self::slot(t, 2);
            Self::far_push(&mut self.levels[2].buckets[s], e);
            self.levels[2].set(s);
        } else {
            self.overflow.push(e);
        }
    }

    /// Push into a far-level (1/2) bucket with a capacity floor. Far buckets
    /// accumulate batches (bulk-injected arrivals, cascaded spill) whose size
    /// often lands exactly on a power of two; without the floor, the single
    /// extra event that trickles in near a wheel boundary re-allocates the
    /// bucket every epoch and the steady state never becomes allocation-free.
    fn far_push(bucket: &mut Vec<Entry<E>>, e: Entry<E>) {
        if bucket.is_empty() && bucket.capacity() < FAR_BUCKET_MIN {
            bucket.reserve(FAR_BUCKET_MIN);
        }
        bucket.push(e);
    }

    #[inline]
    fn slot(t: u64, level: usize) -> usize {
        ((t >> SHIFTS[level]) as usize) & (SLOTS - 1)
    }

    /// Start (µs) of the bucket window `slot` of `level` within `cur`'s epoch.
    #[inline]
    fn window_start(&self, level: usize, slot: usize) -> u64 {
        let base = self.cur & !((1u64 << (SHIFTS[level] + SLOT_BITS)) - 1);
        base | ((slot as u64) << SHIFTS[level])
    }

    /// Advances the cursor; on crossing a top-level epoch boundary, cascades
    /// the overflow entries that now belong in the wheel.
    fn set_cur(&mut self, new: u64) {
        debug_assert!(new >= self.cur);
        let crossed = (new >> OVERFLOW_SHIFT) != (self.cur >> OVERFLOW_SHIFT);
        self.cur = new;
        if crossed && !self.overflow.is_empty() {
            let epoch = new >> OVERFLOW_SHIFT;
            let mut i = 0;
            while i < self.overflow.len() {
                if self.overflow[i].time.0 >> OVERFLOW_SHIFT == epoch {
                    let e = self.overflow.swap_remove(i);
                    self.place(e);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Moves every entry of `levels[level].buckets[slot]` down a level (or
    /// into level 0) now that the cursor has entered its window. The bucket's
    /// capacity is preserved so redistribution never re-allocates it.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut moved = std::mem::take(&mut self.levels[level].buckets[slot]);
        self.levels[level].clear(slot);
        for e in moved.drain(..) {
            self.place(e);
        }
        self.levels[level].buckets[slot] = moved;
    }

    /// Removes and returns the earliest event if it is due at or before `t`.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        self.pop_before(t, u64::MAX)
    }

    /// Removes and returns the earliest event if it sorts strictly before
    /// `(t, seq)` in `(time, seq)` order.
    ///
    /// Advances the cursor to the popped event's time, or to `t` when nothing
    /// sorts before the bound (every queued event is then at or after `t`, and
    /// the caller's clock moves to `t` either way).
    pub fn pop_before(&mut self, t: SimTime, seq: u64) -> Option<(SimTime, E)> {
        loop {
            if self.len == 0 {
                if t.0 > self.cur {
                    self.set_cur(t.0);
                }
                return None;
            }
            if self.draining {
                let s = Self::slot(self.cur, 0);
                let b = &mut self.levels[0].buckets[s];
                match b.last() {
                    Some(last) if (last.time.0, last.seq) >= (t.0, seq) => {
                        // Earliest queued event is past the bound.
                        if t.0 > self.cur {
                            self.set_cur(t.0);
                        }
                        return None;
                    }
                    Some(_) => {
                        let e = b.pop().expect("non-empty drain bucket");
                        if b.is_empty() {
                            self.levels[0].clear(s);
                            self.draining = false;
                        }
                        self.len -= 1;
                        self.set_cur(e.time.0);
                        return Some((e.time, e.event));
                    }
                    None => {
                        self.levels[0].clear(s);
                        self.draining = false;
                    }
                }
                continue;
            }
            // Find the next non-empty level-0 bucket in the cursor's window.
            if let Some(s) = self.levels[0].next_occupied(Self::slot(self.cur, 0)) {
                let start = self.window_start(0, s);
                if start > t.0 {
                    if t.0 > self.cur {
                        self.set_cur(t.0);
                    }
                    return None;
                }
                if start > self.cur {
                    self.set_cur(start);
                }
                // Sort descending by (time, seq): draining pops from the back.
                self.levels[0].buckets[s]
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.time.0, e.seq)));
                self.draining = true;
                continue;
            }
            // Level 0 exhausted: cascade the next level-1 window, then level 2,
            // then the overflow epoch.
            if let Some(s) = self.levels[1].next_occupied(Self::slot(self.cur, 1)) {
                let start = self.window_start(1, s);
                if start > t.0 {
                    if t.0 > self.cur {
                        self.set_cur(t.0);
                    }
                    return None;
                }
                if start > self.cur {
                    self.set_cur(start);
                }
                self.cascade(1, s);
                continue;
            }
            if let Some(s) = self.levels[2].next_occupied(Self::slot(self.cur, 2)) {
                let start = self.window_start(2, s);
                if start > t.0 {
                    if t.0 > self.cur {
                        self.set_cur(t.0);
                    }
                    return None;
                }
                if start > self.cur {
                    self.set_cur(start);
                }
                self.cascade(2, s);
                continue;
            }
            debug_assert!(!self.overflow.is_empty(), "len > 0 but wheel and overflow empty");
            let tmin = self.overflow.iter().map(|e| e.time.0).min().unwrap_or(u64::MAX);
            if tmin > t.0 {
                if t.0 > self.cur {
                    self.set_cur(t.0);
                }
                return None;
            }
            // Entering tmin's top-level epoch cascades it into the wheel.
            let epoch_base = tmin & !((1u64 << OVERFLOW_SHIFT) - 1);
            self.set_cur(epoch_base.max(self.cur));
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None; // avoid dragging the cursor to u64::MAX
        }
        self.pop_due(SimTime(u64::MAX))
    }

    /// Time of the earliest scheduled event, if any. Non-mutating: scans the
    /// first candidate bucket of each level (O(bucket occupancy), cold path).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(s) = self.levels[0].next_occupied(Self::slot(self.cur, 0)) {
            let b = &self.levels[0].buckets[s];
            let m = if self.draining && s == Self::slot(self.cur, 0) {
                b.last().map(|e| e.time.0)
            } else {
                b.iter().map(|e| e.time.0).min()
            };
            return m.map(SimTime);
        }
        for level in 1..3 {
            if let Some(s) = self.levels[level].next_occupied(Self::slot(self.cur, level)) {
                return self.levels[level].buckets[s].iter().map(|e| e.time.0).min().map(SimTime);
            }
        }
        self.overflow.iter().map(|e| e.time.0).min().map(SimTime)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Event queue dispatching to the configured implementation.
// One `Queue` exists per `World`, so the size skew between the wheel (inline
// level metadata) and the heap variant costs nothing; boxing the wheel would
// add a pointer chase to every schedule/pop on the hot path.
#[allow(clippy::large_enum_variant)]
pub enum Queue<E> {
    /// Bucketed timing wheel (default).
    Calendar(CalendarQueue<E>),
    /// Reference binary heap.
    Heap(EventQueue<E>),
}

impl<E> Queue<E> {
    /// Creates an empty queue of the given kind.
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Calendar => Queue::Calendar(CalendarQueue::new()),
            QueueKind::Heap => Queue::Heap(EventQueue::new()),
        }
    }

    /// Schedules `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        match self {
            Queue::Calendar(q) => q.schedule(time, event),
            Queue::Heap(q) => q.schedule(time, event),
        }
    }

    /// Claims the next sequence number without inserting anything (see the
    /// module docs).
    pub fn take_seq(&mut self) -> u64 {
        match self {
            Queue::Calendar(q) => q.take_seq(),
            Queue::Heap(q) => q.take_seq(),
        }
    }

    /// Removes and returns the earliest event if it is due at or before `t`.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        self.pop_before(t, u64::MAX)
    }

    /// Removes and returns the earliest event if it sorts strictly before
    /// `(t, seq)` in `(time, seq)` order.
    pub fn pop_before(&mut self, t: SimTime, seq: u64) -> Option<(SimTime, E)> {
        match self {
            Queue::Calendar(q) => q.pop_before(t, seq),
            Queue::Heap(q) => q.pop_before(t, seq),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            Queue::Calendar(q) => q.pop(),
            Queue::Heap(q) => q.pop(),
        }
    }

    /// Time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self {
            Queue::Calendar(q) => q.peek_time(),
            Queue::Heap(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match self {
            Queue::Calendar(q) => q.len(),
            Queue::Heap(q) => q.len(),
        }
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), 1);
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn pop_due_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "early");
        q.schedule(SimTime(100), "late");
        assert_eq!(q.pop_due(SimTime(50)), Some((SimTime(10), "early")));
        assert_eq!(q.pop_due(SimTime(50)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(100)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn calendar_pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn calendar_ties_break_by_insertion_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(5), 1);
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn calendar_pop_due_respects_horizon() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(10), "early");
        q.schedule(SimTime(100), "late");
        assert_eq!(q.pop_due(SimTime(50)), Some((SimTime(10), "early")));
        assert_eq!(q.pop_due(SimTime(50)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(100)));
    }

    #[test]
    fn calendar_empty_queue_behaviour() {
        let mut q: CalendarQueue<u8> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn calendar_inserts_into_active_bucket_keep_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(10), 0);
        q.schedule(SimTime(12), 1);
        assert_eq!(q.pop(), Some((SimTime(10), 0)));
        // The bucket at the cursor is now draining; same-bucket inserts must
        // merge into the remaining order, including a tie at the popped time.
        q.schedule(SimTime(11), 2);
        q.schedule(SimTime(10), 3); // tie with the cursor: pops next
        assert_eq!(q.pop(), Some((SimTime(10), 3)));
        assert_eq!(q.pop(), Some((SimTime(11), 2)));
        assert_eq!(q.pop(), Some((SimTime(12), 1)));
    }

    #[test]
    fn calendar_crosses_every_level_and_overflow() {
        // One event per residence class: level 0 (64 µs buckets), level 1
        // (~65 ms), level 2 (~67 s) and the >19 h overflow.
        let times = [50u64, 70_000, 70_000_000, 1 << 37, (1 << 37) + 5];
        let mut q = CalendarQueue::new();
        let mut h = EventQueue::new();
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
        // reserves its seq at the same point and merges it with
        // `pop_before`. Ties at 100 µs on both sides of the reservation must
        // pop in the same order, on both queue kinds.
        let script = [(100u64, 0), (50, 1), (100, 2), (u64::MAX, 99), (100, 3), (99, 4), (101, 5)];
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let (mut a, mut b) = (Queue::new(kind), Queue::new(kind));
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
            let reference: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
            assert_eq!(merged, reference, "{kind:?}");
            let ids: Vec<_> = reference.iter().map(|e| e.1).collect();
            assert_eq!(ids, [1, 4, 0, 2, 99, 3, 5], "{kind:?}: ties split at the reservation");
        }
    }

    #[test]
    fn calendar_matches_heap_on_mixed_horizons() {
        // Deterministic mixed workload: interleaved schedules and horizon
        // pops, exercising cascades mid-drain.
        let mut q = CalendarQueue::new();
        let mut h = EventQueue::new();
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
            let Some((t, _)) = a else { break };
            now = t.0;
            let _ = now;
        }
        assert!(q.is_empty() && h.is_empty());
    }
}
