//! The kernel's event queue: a hierarchical timer wheel with a binary-heap
//! overflow, ordered by `(at, seq)` exactly like the plain heap it replaces.
//!
//! The dominant kernel workload is periodic timers: every unmanaged digi
//! re-arms a `dbox.loop` tick each interval, so at N mocks the queue holds
//! ~N entries and every tick costs O(log N) against a binary heap. The
//! wheel makes the common push/pop O(1): time is bucketed into ticks of
//! 2^16 ns (~65.5 µs), three levels of 256 slots cover ~16.8 ms / ~4.3 s /
//! ~18.3 min of future respectively, and anything beyond the last level
//! waits in a conventional heap until the cursor gets close.
//!
//! Determinism: events are globally ordered by `(at, seq)` — `seq` is the
//! kernel's insertion counter — which is the same total order the old
//! `BinaryHeap<Reverse<Event>>` produced, so seeded replays remain
//! bit-identical across the swap. Slots are sorted by `(at, seq)` when they
//! are opened; entries pushed into the bucket currently being drained are
//! placed by binary search.
//!
//! Memory: a slot owns a buffer only while it holds entries. Opening a
//! level-0 slot moves its buffer into `current` and drops the drained one,
//! and a cascaded slot's buffer is dropped once its entries are re-filed.
//! The wheel's capacity is therefore bounded by the events queued now
//! (an occupied slot holds at most twice its entries, or four) rather than
//! by the most each of its 768 slots ever held. The cost is one allocation
//! per slot fill, plus a reallocation each time a filling slot doubles,
//! where recycling every buffer allocated nothing after warm-up. The
//! overflow heap keeps its capacity; only events over ~18 min ahead land
//! there.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the tick length in nanoseconds (~65.5 µs per tick).
const TICK_SHIFT: u32 = 16;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
const LEVELS: usize = 3;
const WORDS: usize = SLOTS / 64;

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

/// A deterministic event queue: hierarchical timer wheel + overflow heap.
///
/// `push` accepts `(at, seq, value)` where `at` is absolute virtual
/// nanoseconds and `seq` a strictly increasing tie-breaker; `pop` returns
/// entries in exact `(at, seq)` order. `at` must never be earlier than the
/// last popped entry's `at` (the kernel's monotonic-time invariant).
pub struct EventWheel<T> {
    /// Cursor tick: `at >> TICK_SHIFT` of the last popped entry (or the
    /// bucket currently being drained).
    base: u64,
    len: usize,
    /// The bucket being drained: all entries have `tick == base`, sorted
    /// ascending by `(at, seq)`.
    current: VecDeque<Entry<T>>,
    /// `levels[l][s]` holds unsorted entries whose tick shares the cursor's
    /// prefix above level `l` and selects slot `s` at level `l`.
    levels: Vec<Vec<VecDeque<Entry<T>>>>,
    /// Occupancy bitmaps, one bit per slot.
    occupancy: [[u64; WORDS]; LEVELS],
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
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| VecDeque::new()).collect())
                .collect(),
            occupancy: [[0; WORDS]; LEVELS],
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
    /// must be no earlier than the last popped entry's `at`.
    pub fn push(&mut self, at: u64, seq: u64, value: T) {
        debug_assert!(
            at >> TICK_SHIFT >= self.base,
            "event scheduled before the queue cursor"
        );
        self.len += 1;
        self.file(Entry { at, seq, value });
    }

    /// `(at, seq)` of the earliest entry, without mutating the queue.
    pub fn peek(&self) -> Option<(u64, u64)> {
        if let Some(e) = self.current.front() {
            return Some(e.key());
        }
        // Levels are strictly ordered: every level-0 entry precedes every
        // level-1 entry (they differ in tick bits above level 0 and share
        // the higher prefix), and the wheel wholly precedes the overflow.
        for l in 0..LEVELS {
            if let Some(s) = self.first_occupied(l) {
                return self.levels[l][s].iter().map(Entry::key).min();
            }
        }
        self.overflow.peek().map(|r| r.0 .0.key())
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.current.is_empty() {
            self.advance();
        }
        let e = self.current.pop_front()?;
        self.len -= 1;
        Some((e.at, e.seq, e.value))
    }

    /// Remove and return the earliest entry only if `pred` accepts it.
    ///
    /// This is the kernel's batching primitive: after popping one delivery
    /// it keeps popping *only* while the next-due entry shares the same
    /// instant and destination, so coalescing can never reorder events —
    /// the run it collects is exactly a prefix of the `(at, seq)` order.
    ///
    /// Deliberately looks only at the bucket the last `pop` opened (events
    /// at one instant always share a bucket, so no same-instant run is ever
    /// missed): advancing the cursor here could move it past the caller's
    /// current instant, which would break the monotonic-push invariant for
    /// handlers that schedule work at `now` mid-batch.
    pub fn pop_if(
        &mut self,
        pred: impl FnOnce(u64, u64, &T) -> bool,
    ) -> Option<(u64, u64, T)> {
        let e = self.current.front()?;
        if !pred(e.at, e.seq, &e.value) {
            return None;
        }
        let e = self.current.pop_front().expect("front checked above");
        self.len -= 1;
        Some((e.at, e.seq, e.value))
    }

    /// Route an entry to the current bucket, a wheel slot, or the overflow,
    /// based on which tick prefix it shares with the cursor.
    fn file(&mut self, e: Entry<T>) {
        let tick = e.at >> TICK_SHIFT;
        if tick == self.base {
            let key = e.key();
            let idx = match self.current.binary_search_by(|x| x.key().cmp(&key)) {
                Ok(i) | Err(i) => i,
            };
            self.current.insert(idx, e);
            return;
        }
        for l in 0..LEVELS as u32 {
            if tick >> ((l + 1) * SLOT_BITS) == self.base >> ((l + 1) * SLOT_BITS) {
                let s = ((tick >> (l * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
                self.levels[l as usize][s].push_back(e);
                self.occupancy[l as usize][s / 64] |= 1 << (s % 64);
                return;
            }
        }
        self.overflow.push(Reverse(HeapEntry(e)));
    }

    /// Refill `current` with the next-due bucket, cascading outer levels
    /// and the overflow inward as the cursor jumps forward.
    fn advance(&mut self) {
        while self.current.is_empty() {
            if let Some(s) = self.first_occupied(0) {
                // Open the slot as the new current bucket; the drained
                // current buffer is dropped and the slot left unallocated.
                self.base = (self.base & !(SLOTS as u64 - 1)) | s as u64;
                self.occupancy[0][s / 64] &= !(1 << (s % 64));
                self.current = std::mem::take(&mut self.levels[0][s]);
                self.current.make_contiguous().sort_unstable_by_key(|e| e.key());
                return;
            }
            let mut cascaded = false;
            for l in 1..LEVELS {
                if let Some(s) = self.first_occupied(l) {
                    let span = (l as u32 + 1) * SLOT_BITS;
                    self.base = (self.base & !((1u64 << span) - 1))
                        | ((s as u64) << (l as u32 * SLOT_BITS));
                    self.occupancy[l][s / 64] &= !(1 << (s % 64));
                    for e in std::mem::take(&mut self.levels[l][s]) {
                        self.file(e);
                    }
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Wheel fully drained: jump the cursor to the overflow's
            // earliest window and pull that window in.
            let Some(top) = self.overflow.peek() else {
                return;
            };
            self.base = top.0 .0.at >> TICK_SHIFT;
            let prefix = self.base >> (LEVELS as u32 * SLOT_BITS);
            while let Some(top) = self.overflow.peek() {
                if (top.0 .0.at >> TICK_SHIFT) >> (LEVELS as u32 * SLOT_BITS) != prefix {
                    break;
                }
                let Reverse(HeapEntry(e)) = self.overflow.pop().expect("peeked");
                self.file(e);
            }
        }
    }

    fn first_occupied(&self, level: usize) -> Option<usize> {
        for (w, &word) in self.occupancy[level].iter().enumerate() {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Whether every slot without entries holds no buffer either (the
    /// memory bound above; `current` is exempt until the next slot opens).
    #[cfg(test)]
    fn empty_slots_are_unallocated(&self) -> bool {
        self.levels.iter().flatten().all(|q| !q.is_empty() || q.capacity() == 0)
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
        fn peek(&self) -> Option<(u64, u64)> {
            self.heap.peek().map(|r| (r.0 .0, r.0 .1))
        }
        fn pop(&mut self) -> Option<(u64, u64, u32)> {
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

    #[test]
    fn matches_heap_on_random_interleavings() {
        for seed in 0..20u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
            let mut wheel = EventWheel::new();
            let mut reference = RefQueue::default();
            let mut seq = 0u64;
            let mut now = 0u64;
            for step in 0..4000 {
                let op = rng.next() % 10;
                if op < 6 || wheel.is_empty() {
                    // push with a delay profile mixing same-tick, near,
                    // mid-wheel, far-wheel and overflow horizons
                    let delay = match rng.next() % 6 {
                        0 => rng.next() % 1000,                    // same tick
                        1 => rng.next() % (1 << 20),               // level 0
                        2 => rng.next() % (1 << 28),               // level 1
                        3 => rng.next() % (1 << 36),               // level 2
                        4 => rng.next() % (1 << 44),               // overflow
                        _ => 0,                                    // immediate
                    };
                    let at = now + delay;
                    wheel.push(at, seq, step);
                    reference.push(at, seq, step);
                    seq += 1;
                } else {
                    assert_eq!(wheel.peek(), reference.peek(), "seed {seed} step {step}");
                    let got = wheel.pop();
                    let want = reference.pop();
                    assert_eq!(got.is_some(), want.is_some());
                    if let (Some(g), Some(w)) = (got, want) {
                        assert_eq!(g, w, "seed {seed} step {step}");
                        now = g.0;
                    }
                }
                assert_eq!(wheel.len(), reference.heap.len());
                if step % 64 == 0 {
                    assert!(wheel.empty_slots_are_unallocated(), "seed {seed} step {step}");
                }
            }
            // drain
            while let Some(w) = reference.pop() {
                assert_eq!(wheel.pop(), Some(w));
            }
            assert!(wheel.is_empty());
            assert!(wheel.empty_slots_are_unallocated(), "seed {seed} after the drain");
            assert_eq!(wheel.pop(), None);
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
                let (at, _s, id) = wheel.pop().expect("entry due");
                assert_eq!(at, round * interval);
                assert_eq!(id, expect, "FIFO tie-break broken in round {round}");
                wheel.push(at + interval, seq, id);
                seq += 1;
            }
        }
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
        assert_eq!(wheel.pop(), Some((200, 2, 9)));
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
        assert_eq!(wheel.pop(), Some((1 << 20, 0, 1)));
        assert!(wheel.is_empty());
    }

    #[test]
    fn far_future_overflow_comes_back() {
        let mut wheel = EventWheel::new();
        let hour = 3_600_000_000_000u64;
        wheel.push(3 * hour, 0, 1);
        wheel.push(1_000, 1, 2);
        wheel.push(2 * hour, 2, 3);
        assert_eq!(wheel.pop().map(|e| e.2), Some(2));
        assert_eq!(wheel.pop().map(|e| e.2), Some(3));
        assert_eq!(wheel.pop().map(|e| e.2), Some(1));
        assert!(wheel.is_empty());
    }
}
