//! [`Inbox`]: the deque behind every per-connection queue.
//!
//! A connection's queues are almost always empty or hold one entry: an
//! endpoint's events are drained by their owner right after the datagram
//! or timer that produced them, and a sparse session has one frame, one
//! retransmit timer and one QoS 1/2 handshake in flight at a time. A
//! `VecDeque` would keep a four-slot buffer per queue once the first
//! entry passed through; an `Inbox` keeps that one entry inline and
//! allocates only when a second one is queued at the same time.
//!
//! A fault makes queues deep for a while: during a partition every
//! session's unacked frames, retransmit timers and in-flight handshakes
//! pile up, and they drain when it heals. The overflow's capacity
//! therefore follows its live depth. An overflow that drains after
//! growing past four slots is freed, and one that is at most a quarter
//! full shrinks to twice its length, never below four slots. Each shrink
//! moves at most a quarter of the elements the buffer has room for, and
//! after it the length has to halve again, or double, before the next
//! reallocation, so the cost stays amortized O(1). Four slots is the
//! buffer a first spill allocates: a queue that spills by a few entries
//! once per message (the broker's timer deque holds about two timers per
//! message) keeps it and does not allocate per message.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::fmt;

/// Capacity of the overflow's first buffer, the size a `VecDeque` of
/// small elements starts at, and the least it shrinks to while it holds
/// an element.
const MIN_OVERFLOW: usize = 4;

/// A deque that stores its first element inline.
///
/// Invariant: `first`, when `Some`, is the front element, ahead of every
/// element in `overflow`; a push at the back therefore goes inline only
/// when both are empty. The overflow's capacity is at most four slots
/// or under four times its length, so an empty overflow holds no more
/// than a first buffer (see the module docs).
pub struct Inbox<T> {
    first: Option<T>,
    overflow: VecDeque<T>,
}

impl<T> Default for Inbox<T> {
    fn default() -> Inbox<T> {
        Inbox::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for Inbox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> Inbox<T> {
    /// An empty deque; allocates nothing.
    pub const fn new() -> Inbox<T> {
        Inbox { first: None, overflow: VecDeque::new() }
    }

    /// 1 when the front element is inline, else 0: the offset of index
    /// `i` in the overflow.
    fn inline(&self) -> usize {
        usize::from(self.first.is_some())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inline() + self.overflow.len()
    }

    /// Whether the deque holds no element.
    pub fn is_empty(&self) -> bool {
        self.first.is_none() && self.overflow.is_empty()
    }

    /// Append `item` at the back.
    pub fn push(&mut self, item: T) {
        if self.is_empty() {
            self.first = Some(item);
        } else {
            self.overflow.push_back(item);
        }
    }

    /// Remove and return the front element.
    pub fn pop(&mut self) -> Option<T> {
        if let Some(item) = self.first.take() {
            return Some(item);
        }
        let item = self.overflow.pop_front()?;
        self.fit();
        Some(item)
    }

    /// The front element.
    pub fn front(&self) -> Option<&T> {
        self.first.as_ref().or_else(|| self.overflow.front())
    }

    /// The back element.
    pub fn back(&self) -> Option<&T> {
        self.overflow.back().or(self.first.as_ref())
    }

    /// The element at index `i` (0 is the front).
    pub fn get(&self, i: usize) -> Option<&T> {
        match i.checked_sub(self.inline()) {
            None => self.first.as_ref(),
            Some(j) => self.overflow.get(j),
        }
    }

    /// The element at index `i`, mutably.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        match i.checked_sub(self.inline()) {
            None => self.first.as_mut(),
            Some(j) => self.overflow.get_mut(j),
        }
    }

    /// Insert `item` at index `i`, shifting later elements back.
    ///
    /// # Panics
    /// If `i > len`.
    pub fn insert(&mut self, i: usize, item: T) {
        assert!(i <= self.len(), "insertion index {i} out of bounds");
        if i == 0 {
            // The new front goes inline; an inline front moves out first.
            if let Some(old) = self.first.replace(item) {
                self.overflow.push_front(old);
            }
        } else {
            self.overflow.insert(i - self.inline(), item);
        }
    }

    /// Remove and return the element at index `i`.
    pub fn remove(&mut self, i: usize) -> Option<T> {
        match i.checked_sub(self.inline()) {
            None => self.first.take(),
            Some(j) => {
                let item = self.overflow.remove(j)?;
                self.fit();
                Some(item)
            }
        }
    }

    /// Drop the first `n` elements (all of them when `n >= len`).
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.len());
        let from_overflow = n - usize::from(n > 0 && self.first.take().is_some());
        self.overflow.drain(..from_overflow);
        self.fit();
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.first = None;
        self.overflow.clear();
        self.fit();
    }

    /// Give back overflow capacity the live depth no longer needs, after
    /// the overflow lost elements: free a drained buffer that grew past
    /// [`MIN_OVERFLOW`] slots, and shrink one that is at most a quarter
    /// full to twice its length (never below [`MIN_OVERFLOW`]).
    fn fit(&mut self) {
        let (len, cap) = (self.overflow.len(), self.overflow.capacity());
        if cap <= MIN_OVERFLOW || len > cap / 4 {
            return;
        }
        if len == 0 {
            self.overflow = VecDeque::new();
        } else {
            self.overflow.shrink_to((2 * len).max(MIN_OVERFLOW));
        }
    }

    /// Front-to-back iterator.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.first.iter().chain(self.overflow.iter())
    }

    /// Front-to-back iterator over mutable references.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.first.iter_mut().chain(self.overflow.iter_mut())
    }

    /// Binary search of a deque sorted by `f`, as
    /// [`VecDeque::binary_search_by_key`]: `Ok` with the index of a
    /// matching element, or `Err` with the index where `key` would be
    /// inserted to keep the order.
    pub fn binary_search_by_key<B: Ord>(
        &self,
        key: &B,
        mut f: impl FnMut(&T) -> B,
    ) -> Result<usize, usize> {
        let offset = self.inline();
        if let Some(first) = &self.first {
            match f(first).cmp(key) {
                Ordering::Equal => return Ok(0),
                Ordering::Greater => return Err(0),
                Ordering::Less => {}
            }
        }
        self.overflow.binary_search_by_key(key, f).map(|i| i + offset).map_err(|i| i + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::for_each_seed;
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    /// Key spacing of pushed elements: room for ~16 halving inserts
    /// between two neighbours.
    const GAP: u64 = 1 << 16;

    /// The capacity bound: an overflow holds at most four times its
    /// length, or its first buffer's four slots.
    fn assert_fits<T>(inbox: &Inbox<T>, when: &str) {
        let (cap, len) = (inbox.overflow.capacity(), inbox.overflow.len());
        assert!(cap <= MIN_OVERFLOW || cap < 4 * len, "{len} elements hold {cap} slots {when}");
    }

    #[test]
    fn matches_a_vecdeque_over_seeded_interleavings() {
        // Differential check against the plain deque. Elements are
        // `(key, tag)` with keys kept sorted and unique, so every
        // operation, binary search included, has one right answer; `get_mut`
        // and `iter_mut` rewrite tags. Bursts of pushes spill into the
        // overflow, and inserts at the front move the inline element out,
        // so each operation lands on the inline element and on the
        // overflow; `hit` records that it did. After every operation the
        // overflow's capacity must be within the bound of
        // [`assert_fits`], and `hit` records that it shrank, was freed
        // and kept its first buffer.
        let hit: RefCell<BTreeSet<String>> = RefCell::default();
        for_each_seed(200, |rng| {
            let mut inbox: Inbox<(u64, u32)> = Inbox::default();
            let mut model: VecDeque<(u64, u32)> = VecDeque::new();
            let mut hit = hit.borrow_mut();
            for step in 0..400u32 {
                let inline = inbox.first.is_some();
                let spilled = !inbox.overflow.is_empty();
                let cap = inbox.overflow.capacity();
                let len = model.len();
                let case = |i: usize| if inline && i == 0 { "inline" } else { "overflow" };
                match rng.range_u64(0, 100) {
                    0..=29 => {
                        let key = model.back().map_or(GAP, |e| e.0 + GAP);
                        inbox.push((key, step));
                        model.push_back((key, step));
                    }
                    30..=44 => {
                        if inline && spilled {
                            hit.insert("pop inline ahead of the overflow".into());
                        }
                        assert_eq!(inbox.pop(), model.pop_front(), "FIFO order broken");
                    }
                    45..=54 => {
                        let i = rng.range_usize(0, len + 1);
                        let lo = if i == 0 { 0 } else { model[i - 1].0 };
                        let hi = model.get(i).map_or(lo + 2 * GAP, |e| e.0);
                        if hi - lo >= 2 {
                            if i == 0 && inline {
                                hit.insert("insert ahead of the inline element".into());
                            }
                            hit.insert("insert".into());
                            inbox.insert(i, ((lo + hi) / 2, step));
                            model.insert(i, ((lo + hi) / 2, step));
                        }
                    }
                    55..=64 => {
                        let i = rng.range_usize(0, len + 2);
                        if i < len {
                            hit.insert(["remove", case(i)].join(" "));
                        }
                        assert_eq!(inbox.remove(i), model.remove(i), "remove({i})");
                    }
                    65..=74 => {
                        let i = rng.range_usize(0, len + 2);
                        if i < len {
                            hit.insert(["get", case(i)].join(" "));
                        }
                        assert_eq!(inbox.get(i), model.get(i), "get({i})");
                        match (inbox.get_mut(i), model.get_mut(i)) {
                            (Some(got), Some(want)) => {
                                assert_eq!(got, want, "get_mut({i})");
                                got.1 = step;
                                want.1 = step;
                            }
                            (got, want) => assert_eq!(got, want, "get_mut({i})"),
                        }
                    }
                    75..=79 => {
                        let n = rng.range_usize(0, len + 3);
                        if inline && spilled && n >= 2 && n < len {
                            hit.insert("drain the inline element and part of the overflow".into());
                        }
                        inbox.drain_front(n);
                        model.drain(..n.min(len));
                    }
                    80..=94 => {
                        // An element's key, or a key between two of them.
                        let key = match model.get(rng.range_usize(0, len + 1)) {
                            Some(e) if rng.coin() => e.0,
                            Some(e) => e.0 - 1,
                            None => model.back().map_or(0, |e| e.0 + 1),
                        };
                        let got = inbox.binary_search_by_key(&key, |e| e.0);
                        if let Ok(i) = got {
                            hit.insert(["binary search finds", case(i)].join(" "));
                        }
                        assert_eq!(got, model.binary_search_by_key(&key, |e| e.0), "key {key}");
                    }
                    95..=97 => {
                        for (got, want) in inbox.iter_mut().zip(model.iter_mut()) {
                            got.1 = step;
                            want.1 = step;
                        }
                    }
                    _ => {
                        inbox.clear();
                        model.clear();
                    }
                }
                if !inbox.overflow.is_empty() {
                    hit.insert("spill into the overflow".into());
                }
                assert_fits(&inbox, &format!("after step {step}"));
                match inbox.overflow.capacity() {
                    0 if cap > 0 => hit.insert("free a drained overflow".into()),
                    c if c < cap => hit.insert("shrink a quarter-full overflow".into()),
                    MIN_OVERFLOW if spilled && inbox.overflow.is_empty() => {
                        hit.insert("keep a drained first buffer".into())
                    }
                    _ => false,
                };
                assert_eq!(inbox.len(), model.len());
                assert_eq!(inbox.is_empty(), model.is_empty());
                assert_eq!(inbox.front(), model.front());
                assert_eq!(inbox.back(), model.back());
                assert!(inbox.iter().eq(model.iter()), "contents differ after step {step}");
            }
            while let Some(want) = model.pop_front() {
                assert_eq!(inbox.pop(), Some(want), "FIFO order broken while draining");
                assert_fits(&inbox, "while draining");
            }
            assert_eq!(inbox.pop(), None);
        });
        let hit = hit.into_inner();
        for case in [
            "spill into the overflow",
            "pop inline ahead of the overflow",
            "insert ahead of the inline element",
            "insert",
            "remove inline",
            "remove overflow",
            "get inline",
            "get overflow",
            "drain the inline element and part of the overflow",
            "binary search finds inline",
            "binary search finds overflow",
            "shrink a quarter-full overflow",
            "free a drained overflow",
            "keep a drained first buffer",
        ] {
            assert!(hit.contains(case), "no step exercised {case:?}");
        }
    }

    #[test]
    fn a_first_spill_keeps_its_buffer_and_a_deeper_one_gives_it_back() {
        let mut inbox = Inbox::new();
        // Three queued: one inline, two in a first four-slot buffer, which
        // stays when they drain, so spilling once per message allocates
        // once.
        for round in 0..3 {
            (0..3).for_each(|i| inbox.push(i));
            assert_eq!(inbox.overflow.capacity(), MIN_OVERFLOW, "round {round}");
            while inbox.pop().is_some() {}
            assert_eq!(inbox.overflow.capacity(), MIN_OVERFLOW, "round {round}");
        }
        // A deep window shrinks as it drains one pop at a time and ends
        // in the four-slot floor.
        (0..129).for_each(|i| inbox.push(i));
        assert_eq!(inbox.overflow.capacity(), 128);
        let mut caps = vec![128];
        while inbox.pop().is_some() {
            if caps.last() != Some(&inbox.overflow.capacity()) {
                caps.push(inbox.overflow.capacity());
            }
        }
        assert_eq!(caps, [128, 64, 32, 16, 8, 4]);
        // Drained at once past the floor, as a cumulative ACK drains
        // `unacked`, the buffer is freed.
        (0..129).for_each(|i| inbox.push(i));
        inbox.drain_front(129);
        assert_eq!(inbox.overflow.capacity(), 0);
        (0..9).for_each(|i| inbox.push(i));
        inbox.clear();
        assert_eq!(inbox.overflow.capacity(), 0);
    }
}
