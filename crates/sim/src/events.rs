//! The deterministic event queue: a three-level bucketed timing wheel.
//!
//! Events are ordered by `(time, insertion sequence)` so ties resolve in
//! schedule order, keeping runs bit-for-bit reproducible across platforms.
//! [`CalendarQueue`] is O(1) amortized per operation for the discrete-event
//! steady state, where nearly every event is scheduled a short horizon ahead
//! of the current time. It is the simulator's one event core: `World` holds
//! it directly (see DESIGN.md §12). `tests/properties.rs` replays every
//! schedule and pop against a sorted-`Vec` reference model.
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
//! # The cursor contract
//!
//! The wheel maintains a monotone cursor `cur`, a lower bound on every queued
//! event time. [`CalendarQueue::schedule`] requires `time >= cur`, i.e. no
//! event may be scheduled before the last popped event or before any bound
//! already passed to [`CalendarQueue::pop_before`] (or `pop_due`).
//! Discrete-event simulation satisfies this by construction (causality:
//! handlers schedule at or after `now`); `World` clamps external injections
//! to `now`. A violating time is clamped to `cur` in release builds (it would
//! fire as soon as possible, like an already-due event) and asserts in debug.
//!
//! # Memory
//!
//! Far buckets (levels 1 and 2) share one pool of buffers. `cascade` empties
//! a far bucket and gives its buffer to the pool; the first push into an
//! empty far bucket takes a pooled buffer, and allocates only when the pool
//! is empty. A buffer therefore exists only for an occupied far bucket (plus
//! the one being cascaded) or in the pool, and never more of them than the
//! most far buckets occupied at once, plus one. The retained far-level bytes
//! are bounded by that count times the largest far-bucket capacity, however
//! long the simulation runs. Per-slot far buffers would instead keep the peak
//! capacity of every level-1 slot the cursor ever passed: at 50 k arrivals per
//! simulated second, 128 KB per 65.5 ms slot, up to 1 024 slots, long after
//! their events had gone.

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
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
/// Capacity of a new level-1/2 bucket buffer, made when the pool is empty
/// (see `far_push`).
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

/// A hierarchical calendar queue popping in exact `(time, seq)` order.
///
/// Near-future events (within ~65 ms of the cursor) land in 64 µs level-0
/// buckets; farther events land in coarser levels (~67 s, ~19 h) and cascade
/// down as the cursor reaches their window; anything beyond ~19 h waits in an
/// overflow list. Buckets are unsorted appends until the cursor enters one,
/// at which point it is sorted once (descending, so draining pops from the
/// back) — total ordering work is O(n log b) for bucket occupancy b.
///
/// Level-0 buckets keep their own buffers: the cursor revisits every level-0
/// slot each 65.5 ms, so that capacity is in use. A level-1/2 bucket holds a
/// buffer only while it is occupied, taken from one pool of spare buffers and
/// given back when it cascades (see the module docs), so the steady state
/// allocates nothing once the level-0 buffers and the pool are warm.
pub struct CalendarQueue<E> {
    levels: [Level<E>; 3],
    /// Emptied level-1/2 bucket buffers, waiting for the next far bucket.
    spare: Vec<Vec<Entry<E>>>,
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
            spare: Vec::new(),
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
            self.far_push(1, Self::slot(t, 1), e);
        } else if t >> (SHIFTS[2] + SLOT_BITS) == self.cur >> (SHIFTS[2] + SLOT_BITS) {
            self.far_push(2, Self::slot(t, 2), e);
        } else {
            self.overflow.push(e);
        }
    }

    /// Push into a far-level (1/2) bucket. An empty far bucket holds no
    /// buffer (`cascade` gives it to the pool), so the first push takes a
    /// pooled one, and reserves `FAR_BUCKET_MIN` entries only when the pool
    /// is empty: far buckets fill with batches (bulk-injected arrivals,
    /// cascaded spill), and the floor spares a new buffer the 4-8-16-32
    /// growth steps of its first batch.
    fn far_push(&mut self, level: usize, slot: usize, e: Entry<E>) {
        let bucket = &mut self.levels[level].buckets[slot];
        if bucket.capacity() == 0 {
            *bucket = self.spare.pop().unwrap_or_default();
            bucket.reserve(FAR_BUCKET_MIN); // a no-op on a pooled buffer
        }
        bucket.push(e);
        self.levels[level].set(slot);
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
    /// into level 0) now that the cursor has entered its window, then gives
    /// the emptied buffer to the pool for the next far bucket to fill.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut moved = std::mem::take(&mut self.levels[level].buckets[slot]);
        self.levels[level].clear(slot);
        for e in moved.drain(..) {
            self.place(e);
        }
        self.spare.push(moved);
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Entries' worth of buffer held by level-1/2 buckets and the pool.
    fn far_capacity<E>(q: &CalendarQueue<E>) -> usize {
        let slots: usize =
            q.levels[1..].iter().flat_map(|l| &l.buckets).map(|b| b.capacity()).sum();
        slots + q.spare.iter().map(|b| b.capacity()).sum::<usize>()
    }

    #[test]
    fn far_buffers_do_not_grow_with_simulated_time() {
        // Each second's batch (50 events, 20 ms apart) is scheduled at the
        // start of that second and popped through its end, the way a world
        // is driven segment by segment. The run passes 1 000+ level-1 slots
        // and one level-2 cascade; the far buffers it holds must stay those
        // a few seconds needed.
        let mut q = CalendarQueue::new();
        let mut warm = 0;
        for sec in 0..70u64 {
            for k in 0..50 {
                q.schedule(SimTime(sec * 1_000_000 + k * 20_000), k);
            }
            while q.pop_due(SimTime((sec + 1) * 1_000_000)).is_some() {}
            if sec == 4 {
                warm = far_capacity(&q);
            }
        }
        assert!(q.is_empty());
        let end = far_capacity(&q);
        assert!(warm > 0 && end * 2 <= warm * 3, "far capacity {warm} after 5 s, {end} after 70 s");
    }
}
