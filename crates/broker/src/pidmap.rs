//! In-flight QoS 1/2 state keyed by MQTT packet id.

use digibox_net::Inbox;

/// A map from packet id to `V`: one flat deque of `(pid, value)` sorted by
/// pid, with no node per entry, no allocation while empty and none while
/// it holds a single entry, which sits inline.
///
/// Packet ids are allocated in increasing order and handshakes mostly
/// complete in the order they started, so an insert is a push at the back
/// and a removal a pop at the front; the 65535 → 1 wrap and out-of-order
/// completions fall back to a binary search. Iteration is in pid order,
/// as a `BTreeMap<u16, V>` gave, so DUP resends and session snapshots
/// list the same pids in the same order.
#[derive(Debug)]
pub(crate) struct PidMap<V> {
    entries: Inbox<(u16, V)>,
}

impl<V> PidMap<V> {
    /// An empty map.
    pub(crate) const fn new() -> PidMap<V> {
        PidMap { entries: Inbox::new() }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn find(&self, pid: u16) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&pid, |e| e.0)
    }

    /// Insert `value` under `pid`, returning the value it replaced.
    pub(crate) fn insert(&mut self, pid: u16, value: V) -> Option<V> {
        if self.entries.back().is_none_or(|e| e.0 < pid) {
            self.entries.push((pid, value));
            return None;
        }
        match self.find(pid) {
            Ok(i) => self.entries.get_mut(i).map(|e| std::mem::replace(&mut e.1, value)),
            Err(i) => {
                self.entries.insert(i, (pid, value));
                None
            }
        }
    }

    /// The value under `pid`, mutably.
    pub(crate) fn get_mut(&mut self, pid: u16) -> Option<&mut V> {
        let i = self.find(pid).ok()?;
        self.entries.get_mut(i).map(|e| &mut e.1)
    }

    /// Remove and return the value under `pid`.
    pub(crate) fn remove(&mut self, pid: u16) -> Option<V> {
        if self.entries.front().is_some_and(|e| e.0 == pid) {
            return self.entries.pop().map(|e| e.1);
        }
        let i = self.find(pid).ok()?;
        self.entries.remove(i).map(|e| e.1)
    }

    /// Remove every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// `(pid, value)` pairs in pid order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u16, &V)> {
        self.entries.iter().map(|(pid, v)| (*pid, v))
    }
}

impl<V> FromIterator<(u16, V)> for PidMap<V> {
    /// Inserts in iteration order, so a repeated pid keeps its last value.
    fn from_iter<I: IntoIterator<Item = (u16, V)>>(iter: I) -> PidMap<V> {
        let mut map = PidMap::new();
        for (pid, value) in iter {
            map.insert(pid, value);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Tiny deterministic PRNG (std-only).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn matches_btreemap_on_random_operations() {
        for seed in 0..10u64 {
            let mut rng = Lcg(seed + 1);
            let mut map = PidMap::new();
            let mut reference = BTreeMap::new();
            // Allocate pids like a session does, wrapping 65535 → 1, and
            // retire them mostly in order.
            let mut next = 65_000u16;
            for step in 0..3000u32 {
                match rng.next() % 8 {
                    0..=3 => {
                        assert_eq!(map.insert(next, step), reference.insert(next, step));
                        next = next.checked_add(1).unwrap_or(1);
                    }
                    4 => {
                        let pid = rng.next() as u16;
                        assert_eq!(map.insert(pid, step), reference.insert(pid, step));
                    }
                    5 => {
                        let pid = reference.keys().next().copied().unwrap_or(0);
                        assert_eq!(map.remove(pid), reference.remove(&pid));
                    }
                    6 => {
                        let pid = next.wrapping_sub((rng.next() % 8) as u16);
                        assert_eq!(map.remove(pid), reference.remove(&pid));
                    }
                    _ => {
                        let pid = next.wrapping_sub((rng.next() % 8) as u16);
                        assert_eq!(map.get_mut(pid).copied(), reference.get(&pid).copied());
                    }
                }
                assert_eq!(map.len(), reference.len());
            }
            let got: Vec<(u16, u32)> = map.iter().map(|(p, v)| (p, *v)).collect();
            let want: Vec<(u16, u32)> = reference.iter().map(|(p, v)| (*p, *v)).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn collect_keeps_the_last_value_of_a_repeated_pid() {
        let pairs = [(65535u16, 'a'), (1, 'b'), (65535, 'c'), (2, 'd')];
        let map: PidMap<char> = pairs.into_iter().collect();
        let reference: BTreeMap<u16, char> = pairs.into_iter().collect();
        let got: Vec<(u16, char)> = map.iter().map(|(p, v)| (p, *v)).collect();
        let want: Vec<(u16, char)> = reference.into_iter().collect();
        assert_eq!(got, want);
        assert_eq!(got, vec![(1, 'b'), (2, 'd'), (65535, 'c')]);
    }
}
