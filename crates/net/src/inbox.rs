//! [`Inbox`]: the FIFO behind every endpoint's event queue.
//!
//! An endpoint's events are drained by its owner right after the datagram
//! or timer that produced them, so a queue almost never holds more than
//! one. A `VecDeque` would keep a four-slot buffer per connection once
//! the first event passed through; an `Inbox` keeps that one event inline
//! and allocates only when a second one is pending at the same time.

use std::collections::VecDeque;

/// A FIFO queue that stores its first event inline.
///
/// Invariant: `first`, when `Some`, is older than every event in
/// `overflow`; `push` therefore goes inline only when both are empty.
pub struct Inbox<T> {
    first: Option<T>,
    overflow: VecDeque<T>,
}

impl<T> Default for Inbox<T> {
    fn default() -> Inbox<T> {
        Inbox { first: None, overflow: VecDeque::new() }
    }
}

impl<T> Inbox<T> {
    /// Append `item` at the back.
    pub fn push(&mut self, item: T) {
        if self.first.is_none() && self.overflow.is_empty() {
            self.first = Some(item);
        } else {
            self.overflow.push_back(item);
        }
    }

    /// Remove and return the oldest event.
    pub fn pop(&mut self) -> Option<T> {
        self.first.take().or_else(|| self.overflow.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::for_each_seed;

    #[test]
    fn matches_a_vecdeque_over_seeded_interleavings() {
        // Differential check against the plain deque: bursts of pushes
        // spill into the overflow, and pops interleave with them, so the
        // inline event is taken while the overflow still holds later ones.
        for_each_seed(200, |rng| {
            let mut inbox = Inbox::default();
            let mut model = VecDeque::new();
            let (mut spilled, mut popped_inline_over_overflow) = (false, false);
            for next in 0..400u32 {
                if rng.chance(0.55) {
                    inbox.push(next);
                    model.push_back(next);
                } else {
                    popped_inline_over_overflow |=
                        inbox.first.is_some() && !inbox.overflow.is_empty();
                    assert_eq!(inbox.pop(), model.pop_front(), "FIFO order broken");
                }
                spilled |= !inbox.overflow.is_empty();
            }
            while let Some(want) = model.pop_front() {
                assert_eq!(inbox.pop(), Some(want), "FIFO order broken while draining");
            }
            assert_eq!(inbox.pop(), None);
            assert!(spilled, "no interleaving spilled into the overflow");
            assert!(
                popped_inline_over_overflow,
                "no pop took the inline event ahead of the overflow"
            );
        });
    }
}
