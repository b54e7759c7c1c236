//! The kernel's event queue: a hierarchical timer wheel with a binary-heap
//! overflow, ordered by `(at, seq)` exactly like the plain heap it replaces.
//!
//! The dominant kernel workload is timers and datagrams a few link delays
//! or one retransmit timeout (50 ms) ahead, plus periodic ticks: every
//! unmanaged digi re-arms a `dbox.loop` tick each interval. Against a
//! binary heap each of those costs O(log n); the wheel makes the common
//! push and pop O(1). Time is bucketed into ticks of 2^16 ns (~65.5 µs).
//! Level 0 has 4,096 slots of one tick (~268 ms), so a retransmit timer is
//! filed once, straight into the slot it fires from, unless it crosses a
//! 268 ms boundary. Levels 1 and 2 have 256 slots each, of one level-0 and
//! one level-1 span (~68.7 s and ~4.9 h of future). Anything beyond the
//! last level waits in a conventional heap until the cursor gets close.
//! Each level keeps an occupancy bitmap plus a summary word with one bit
//! per bitmap word, so finding the next occupied slot reads two words.
//!
//! Determinism: events are globally ordered by `(at, seq)` — `seq` is the
//! kernel's insertion counter — which is the same total order the old
//! `BinaryHeap<Reverse<Event>>` produced, so seeded replays remain
//! bit-identical across the swap. A slot is sorted once, when it is opened
//! as the current bucket; entries pushed at the cursor's tick are placed
//! into that bucket by binary search. The bucket is a deque, so a burst of
//! pushes at the current instant, which sort after everything in it, is
//! appended at the back without shifting.
//!
//! Deadlines: [`EventWheel::pop_until`] is the kernel's only way to take
//! the next event. It opens a slot only if that slot's first tick is no
//! later than the deadline's tick, so the cursor never passes the
//! deadline: after `Sim::run_until(t)` stops short of the next event, a
//! push at `t` is still legal and still comes out first. There is no
//! separate lookahead, so no slot is scanned twice.
//!
//! Memory: a slot owns a buffer only while it holds entries, and `current`
//! only while it is non-empty. A slot starts in a four-entry buffer, the
//! size `Vec` itself starts at and enough for the ~3 entries a slot holds
//! on most workloads. A drained four-entry buffer goes to a spare list for
//! the next slot to fill; a buffer that grew past four is freed, so one
//! burst does not leave burst-sized buffers behind. A new buffer is
//! allocated only when the spare list is empty, so the spare list never
//! holds more buffers than were in use at once, and a buffer in use always
//! holds at least one queued event. A slot's buffer becomes the bucket's
//! deque when the slot opens, and the drained deque a spare buffer again,
//! without copying or reallocating. What the wheel retains is therefore
//! bounded by the most events it held at once (a buffer holds at most
//! twice its entries, or four), never by the largest fill any slot saw. In
//! steady state a slot fill of up to four entries reuses a spare and
//! allocates nothing. The overflow heap keeps its capacity; only events
//! over ~4.9 h ahead land there.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the tick length in nanoseconds (~65.5 µs per tick).
const TICK_SHIFT: u32 = 16;
const LEVELS: usize = 3;
/// Slot-index bits per level, innermost first: 4,096 slots at level 0,
/// 256 at levels 1 and 2.
const LEVEL_BITS: [u32; LEVELS] = [12, 8, 8];
/// Tick bits the wheel covers: entries whose tick differs from the
/// cursor's above these wait in the overflow heap.
const WHEEL_BITS: u32 = LEVEL_BITS[0] + LEVEL_BITS[1] + LEVEL_BITS[2];
/// Capacity of a new slot buffer, in entries; only buffers this small are
/// kept for reuse once drained.
const SPARE_CAPACITY: usize = 4;

#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Overflow-heap wrapper ordering entries by `(at, seq)` only.
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// One level of the wheel: unsorted slot buffers plus a two-word-deep
/// occupancy index.
struct Level<T> {
    /// Position of this level's slot index in a tick.
    shift: u32,
    /// Slot `s` holds entries whose tick shares the cursor's prefix above
    /// this level and has slot index `s` here.
    slots: Box<[Vec<Entry<T>>]>,
    /// One bit per slot, set while the slot holds entries.
    occupied: Box<[u64]>,
    /// One bit per word of `occupied`, set while that word is non-zero.
    summary: u64,
}

impl<T> Level<T> {
    fn new(shift: u32, bits: u32) -> Level<T> {
        let slots = 1usize << bits;
        Level {
            shift,
            slots: (0..slots).map(|_| Vec::new()).collect(),
            occupied: vec![0; slots.div_ceil(64)].into_boxed_slice(),
            summary: 0,
        }
    }

    #[inline]
    fn first_occupied(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        Some(w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    #[inline]
    fn mark(&mut self, s: usize) {
        self.occupied[s / 64] |= 1 << (s % 64);
        self.summary |= 1 << (s / 64);
    }

    #[inline]
    fn unmark(&mut self, s: usize) {
        let word = &mut self.occupied[s / 64];
        *word &= !(1 << (s % 64));
        if *word == 0 {
            self.summary &= !(1 << (s / 64));
        }
    }
}

/// A deterministic event queue: hierarchical timer wheel + overflow heap.
///
/// `push` accepts `(at, seq, value)` where `at` is absolute virtual
/// nanoseconds and `seq` a strictly increasing tie-breaker;
/// [`EventWheel::pop_until`] returns entries in exact `(at, seq)` order.
/// `at` must never be earlier than the last popped entry's `at`, nor than
/// the deadline of the last `pop_until` that returned `None` (the kernel's
/// monotonic-time invariant).
pub struct EventWheel<T> {
    /// Cursor tick. Every queued entry's tick is at least `base`.
    base: u64,
    len: usize,
    /// The bucket being drained: all entries have `tick == base`, sorted
    /// ascending by `(at, seq)`.
    current: VecDeque<Entry<T>>,
    levels: [Level<T>; LEVELS],
    /// Empty four-entry buffers of drained slots, waiting for the next
    /// slot to fill.
    spare: Vec<Vec<Entry<T>>>,
    /// Events too far in the future for the top level.
    overflow: BinaryHeap<Reverse<HeapEntry<T>>>,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        EventWheel::new()
    }
}

impl<T> EventWheel<T> {
    /// An empty wheel with the cursor at virtual time zero.
    pub fn new() -> EventWheel<T> {
        EventWheel {
            base: 0,
            len: 0,
            current: VecDeque::new(),
            levels: [
                Level::new(0, LEVEL_BITS[0]),
                Level::new(LEVEL_BITS[0], LEVEL_BITS[1]),
                Level::new(LEVEL_BITS[0] + LEVEL_BITS[1], LEVEL_BITS[2]),
            ],
            spare: Vec::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `value` at `(at, seq)`. `at` is absolute nanoseconds and
    /// must be no earlier than the cursor (see the type's docs).
    pub fn push(&mut self, at: u64, seq: u64, value: T) {
        debug_assert!(at >> TICK_SHIFT >= self.base, "event scheduled before the queue cursor");
        self.len += 1;
        self.file(Entry { at, seq, value });
    }

    /// Remove and return the earliest entry if its `at` is no later than
    /// `deadline`; `pop_until(u64::MAX)` takes the earliest entry,
    /// whatever its time.
    ///
    /// The cursor never moves past `deadline`'s tick, so after a `None`
    /// the caller may still push at `deadline` itself.
    pub fn pop_until(&mut self, deadline: u64) -> Option<(u64, u64, T)> {
        if self.current.is_empty() && !self.advance(deadline >> TICK_SHIFT) {
            return None;
        }
        if self.current.front()?.at > deadline {
            return None;
        }
        Some(self.take_next())
    }

    /// Remove and return the earliest entry only if `pred` accepts it.
    ///
    /// This is the kernel's batching primitive: after popping one delivery
    /// it keeps popping *only* while the next-due entry shares the same
    /// instant and destination, so coalescing can never reorder events —
    /// the run it collects is exactly a prefix of the `(at, seq)` order.
    ///
    /// Deliberately looks only at the current bucket (events at one
    /// instant always share a bucket, so no same-instant run is ever
    /// missed): advancing the cursor here could move it past the caller's
    /// current instant, which would break the monotonic-push invariant for
    /// handlers that schedule work at `now` mid-batch.
    pub fn pop_if(&mut self, pred: impl FnOnce(u64, u64, &T) -> bool) -> Option<(u64, u64, T)> {
        let e = self.current.front()?;
        if !pred(e.at, e.seq, &e.value) {
            return None;
        }
        Some(self.take_next())
    }

    /// Pop the first entry of the non-empty `current`, handing its buffer
    /// to the spare list once it is drained.
    #[inline]
    fn take_next(&mut self) -> (u64, u64, T) {
        let e = self.current.pop_front().expect("current holds the next entry");
        self.len -= 1;
        if self.current.is_empty() {
            let drained = std::mem::take(&mut self.current);
            self.recycle(drained.into());
        }
        (e.at, e.seq, e.value)
    }

    /// An empty buffer for a slot that is about to hold its first entry.
    #[inline]
    fn spare_buffer(&mut self) -> Vec<Entry<T>> {
        self.spare.pop().unwrap_or_else(|| Vec::with_capacity(SPARE_CAPACITY))
    }

    /// Keep a drained buffer for reuse if it is small; free it otherwise.
    #[inline]
    fn recycle(&mut self, buf: Vec<Entry<T>>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() != 0 && buf.capacity() <= SPARE_CAPACITY {
            self.spare.push(buf);
        }
    }

    /// Route an entry to the current bucket, a wheel slot, or the overflow,
    /// based on the highest tick bit in which it differs from the cursor.
    fn file(&mut self, e: Entry<T>) {
        let tick = e.at >> TICK_SHIFT;
        let diff = tick ^ self.base;
        if diff == 0 {
            if self.current.is_empty() {
                self.current = self.spare_buffer().into();
            }
            let key = e.key();
            let idx = self.current.partition_point(|x| x.key() < key);
            self.current.insert(idx, e);
            return;
        }
        let l = if diff >> LEVEL_BITS[0] == 0 {
            0
        } else if diff >> (LEVEL_BITS[0] + LEVEL_BITS[1]) == 0 {
            1
        } else if diff >> WHEEL_BITS == 0 {
            2
        } else {
            self.overflow.push(Reverse(HeapEntry(e)));
            return;
        };
        let s = ((tick >> self.levels[l].shift) as usize) & (self.levels[l].slots.len() - 1);
        if self.levels[l].slots[s].is_empty() {
            // An empty slot owns no buffer.
            let buf = self.spare_buffer();
            self.levels[l].slots[s] = buf;
            self.levels[l].mark(s);
        }
        self.levels[l].slots[s].push(e);
    }

    /// Refill the empty `current` with the next-due bucket, cascading
    /// outer levels and the overflow inward, but only while the bucket or
    /// window to open starts no later than `limit` (a tick). Returns
    /// whether `current` was refilled.
    fn advance(&mut self, limit: u64) -> bool {
        while self.current.is_empty() {
            if let Some(s) = self.levels[0].first_occupied() {
                let tick = (self.base & !((1u64 << LEVEL_BITS[0]) - 1)) | s as u64;
                if tick > limit {
                    return false;
                }
                self.base = tick;
                self.levels[0].unmark(s);
                let mut slot = std::mem::take(&mut self.levels[0].slots[s]);
                slot.sort_unstable_by_key(Entry::key);
                self.current = slot.into();
                return true;
            }
            if let Some(l) = (1..LEVELS).find(|&l| self.levels[l].summary != 0) {
                let level = &self.levels[l];
                let s = level.first_occupied().expect("summary is non-zero");
                let span = level.shift + LEVEL_BITS[l];
                let start = (self.base & !((1u64 << span) - 1)) | ((s as u64) << level.shift);
                if start > limit {
                    return false;
                }
                self.base = start;
                self.levels[l].unmark(s);
                let mut buf = std::mem::take(&mut self.levels[l].slots[s]);
                while let Some(e) = buf.pop() {
                    if buf.is_empty() {
                        // Hand the buffer back before filing its last
                        // entry, so that entry can reuse it.
                        let drained = std::mem::take(&mut buf);
                        self.recycle(drained);
                    }
                    self.file(e);
                }
                continue;
            }
            // Wheel fully drained: jump the cursor to the overflow's
            // earliest entry and pull in every entry of its window.
            let Some(top) = self.overflow.peek() else {
                return false;
            };
            let tick = top.0 .0.at >> TICK_SHIFT;
            if tick > limit {
                return false;
            }
            self.base = tick;
            while let Some(top) = self.overflow.peek() {
                if (top.0 .0.at >> TICK_SHIFT) >> WHEEL_BITS != tick >> WHEEL_BITS {
                    break;
                }
                let Reverse(HeapEntry(e)) = self.overflow.pop().expect("peeked");
                self.file(e);
            }
        }
        true
    }

    /// Whether the memory bound of the module docs holds: empty slots and
    /// an empty `current` own no buffer, every spare is empty and small,
    /// and the spare list holds no more buffers than `peak_len`, the most
    /// events queued at once so far.
    #[cfg(test)]
    fn retains_only_live_buffers(&self, peak_len: usize) -> bool {
        let mut slots = self.levels.iter().flat_map(|l| l.slots.iter());
        slots.all(|q| !q.is_empty() || q.capacity() == 0)
            && (!self.current.is_empty() || self.current.capacity() == 0)
            && self.spare.iter().all(|b| b.is_empty() && b.capacity() <= SPARE_CAPACITY)
            && self.spare.len() <= peak_len
    }

    /// Buffers the wheel owns: occupied slots, `current` and spares.
    #[cfg(test)]
    fn buffers(&self) -> usize {
        let slots = self.levels.iter().flat_map(|l| l.slots.iter());
        let owned = slots.filter(|q| q.capacity() != 0).count();
        owned + usize::from(self.current.capacity() != 0) + self.spare.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference model: the plain binary heap the wheel replaces.
    #[derive(Default)]
    struct RefQueue {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    }

    impl RefQueue {
        fn push(&mut self, at: u64, seq: u64, v: u32) {
            self.heap.push(Reverse((at, seq, v)));
        }
        fn pop_until(&mut self, deadline: u64) -> Option<(u64, u64, u32)> {
            if self.heap.peek()?.0 .0 > deadline {
                return None;
            }
            self.heap.pop().map(|r| r.0)
        }
    }

    /// Tiny deterministic PRNG (std-only; no rand dependency here).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    /// Tick boundaries in nanoseconds: one tick, then the end of level 0,
    /// 1 and 2 (past which entries overflow into the heap).
    const BOUNDARIES: [u64; 4] =
        [1 << TICK_SHIFT, 1 << (TICK_SHIFT + 12), 1 << (TICK_SHIFT + 20), 1 << (TICK_SHIFT + 28)];

    /// A delay that mixes the same tick, every level, the overflow and
    /// exact level boundaries (± one tick).
    fn delay(rng: &mut Lcg) -> u64 {
        match rng.next() % 8 {
            0 => rng.next() % 1000,                       // same tick
            1 => rng.next() % BOUNDARIES[1],              // level 0
            2 => rng.next() % BOUNDARIES[2],              // level 1
            3 => rng.next() % BOUNDARIES[3],              // level 2
            4 => rng.next() % (BOUNDARIES[3] << 4),       // overflow
            5 | 6 => {
                let edge = BOUNDARIES[(rng.next() % 4) as usize];
                (edge + rng.next() % (2 << TICK_SHIFT)).saturating_sub(1 << TICK_SHIFT)
            }
            _ => 0, // immediate
        }
    }

    #[test]
    fn matches_heap_on_random_interleavings() {
        for seed in 0..20u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
            let mut wheel = EventWheel::new();
            let mut reference = RefQueue::default();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut peak = 0usize;
            let mut refused = 0u32;
            for step in 0..4000u32 {
                let op = rng.next() % 10;
                if op < 5 || wheel.is_empty() {
                    let at = now + delay(&mut rng);
                    wheel.push(at, seq, step);
                    reference.push(at, seq, step);
                    seq += 1;
                } else if op < 7 {
                    let got = wheel.pop_until(u64::MAX);
                    assert_eq!(got, reference.pop_until(u64::MAX), "seed {seed} step {step}");
                    now = got.map_or(now, |g| g.0);
                } else {
                    // A deadline-bounded pop, as `Sim::run_until` makes.
                    let deadline = now + delay(&mut rng);
                    let got = wheel.pop_until(deadline);
                    assert_eq!(got, reference.pop_until(deadline), "seed {seed} step {step}");
                    match got {
                        Some(g) => now = g.0,
                        None => {
                            // The caller's clock moves to the deadline, and
                            // work scheduled there runs before anything
                            // the refused pop looked at.
                            refused += 1;
                            now = deadline;
                            wheel.push(deadline, seq, step);
                            peak = peak.max(wheel.len());
                            let first = wheel.pop_until(deadline);
                            assert_eq!(first, Some((deadline, seq, step)), "seed {seed} step {step}");
                            seq += 1;
                        }
                    }
                }
                peak = peak.max(wheel.len());
                assert_eq!(wheel.len(), reference.heap.len());
                if step % 64 == 0 {
                    assert!(wheel.retains_only_live_buffers(peak), "seed {seed} step {step}");
                }
            }
            assert!(refused > 0, "seed {seed} never refused a pop");
            while let Some(w) = reference.pop_until(u64::MAX) {
                assert_eq!(wheel.pop_until(u64::MAX), Some(w));
            }
            assert!(wheel.is_empty());
            assert!(wheel.retains_only_live_buffers(peak), "seed {seed} after the drain");
            assert_eq!(wheel.pop_until(u64::MAX), None);
        }
    }

    #[test]
    fn periodic_rearm_keeps_fifo_ties() {
        // N timers firing at the same instants repeatedly: re-arm order
        // must follow insertion sequence exactly.
        let mut wheel = EventWheel::new();
        let mut seq = 0u64;
        let interval = 500 * 1_000_000u64; // 500 ms in ns
        for id in 0..64u32 {
            wheel.push(interval, seq, id);
            seq += 1;
        }
        for round in 1..50u64 {
            for expect in 0..64u32 {
                let (at, _s, id) = wheel.pop_until(u64::MAX).expect("entry due");
                assert_eq!(at, round * interval);
                assert_eq!(id, expect, "FIFO tie-break broken in round {round}");
                wheel.push(at + interval, seq, id);
                seq += 1;
            }
        }
    }

    #[test]
    fn steady_state_slot_fills_reuse_spare_buffers() {
        // Twenty 50 ms timers, each re-armed when it fires: once the first
        // round has run, every slot fill takes a drained buffer back.
        let mut wheel = EventWheel::new();
        let period = 50_000_000u64;
        let mut seq = 0u64;
        for i in 0..20u64 {
            wheel.push(period + i * 3_000_000, seq, 0u32);
            seq += 1;
        }
        let mut warm = 0;
        for round in 0..400 {
            let (at, _, v) = wheel.pop_until(u64::MAX).expect("a timer is due");
            wheel.push(at + period, seq, v);
            seq += 1;
            if round == 40 {
                warm = wheel.buffers();
            } else if round > 40 {
                assert_eq!(wheel.buffers(), warm, "round {round} allocated or freed a buffer");
            }
        }
        assert!(wheel.retains_only_live_buffers(20));
    }

    #[test]
    fn pop_if_takes_only_matching_front() {
        let mut wheel = EventWheel::new();
        wheel.push(100, 0, 7);
        wheel.push(100, 1, 8);
        wheel.push(200, 2, 9);
        // Predicate rejects: nothing removed.
        assert!(wheel.pop_if(|_, _, &v| v == 8).is_none());
        assert_eq!(wheel.len(), 3);
        // Predicate accepts the front only.
        assert_eq!(wheel.pop_if(|at, _, _| at == 100), Some((100, 0, 7)));
        assert_eq!(wheel.pop_if(|at, _, _| at == 100), Some((100, 1, 8)));
        // Next entry is at 200: the same-instant run is over.
        assert!(wheel.pop_if(|at, _, _| at == 100).is_none());
        assert_eq!(wheel.pop_until(u64::MAX), Some((200, 2, 9)));
        assert!(wheel.pop_if(|_, _, _| true).is_none());
    }

    #[test]
    fn pop_if_never_advances_the_cursor() {
        let mut wheel = EventWheel::new();
        // The entry sits in a future slot, not the open bucket: pop_if must
        // not pull the cursor forward to reach it (that would forbid
        // pushing at earlier instants), so it declines even on `true`.
        wheel.push(1 << 20, 0, 1);
        assert!(wheel.pop_if(|_, _, _| true).is_none());
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop_until(u64::MAX), Some((1 << 20, 0, 1)));
        assert!(wheel.is_empty());
    }

    #[test]
    fn far_future_overflow_comes_back() {
        let mut wheel = EventWheel::new();
        let day = 86_400_000_000_000u64;
        wheel.push(3 * day, 0, 1);
        wheel.push(1_000, 1, 2);
        wheel.push(2 * day, 2, 3);
        assert_eq!(wheel.pop_until(u64::MAX).map(|e| e.2), Some(2));
        assert_eq!(wheel.pop_until(day), None);
        assert_eq!(wheel.pop_until(u64::MAX).map(|e| e.2), Some(3));
        assert_eq!(wheel.pop_until(u64::MAX).map(|e| e.2), Some(1));
        assert!(wheel.is_empty());
    }
}
