//! MQTT topic names, filters, matching rules, and a subscription trie.
//!
//! Semantics follow MQTT 3.1.1 §4.7: `/`-separated levels, `+` matches
//! exactly one level, `#` matches any suffix (must be last), and wildcard
//! filters do not match topics starting with `$`.
//!
//! The trie interns level strings into `u32` symbols: filters are split
//! once at insert time, and `lookup` walks the topic with a borrowed
//! `split('/')` iterator — no per-publish `Vec<&str>` allocation and no
//! `String` comparisons, just hash probes on 4-byte keys. A topic level
//! that was never interned cannot match any literal branch, so unknown
//! levels short-circuit to the wildcard children only.

use std::collections::HashMap; // keyed lookup only; `dbox audit` (DH0002) checks every iteration site

use digibox_net::FxBuildHasher;

/// Is `topic` a valid topic *name* (publishable)? No wildcards allowed.
pub fn validate_topic(topic: &str) -> bool {
    !topic.is_empty()
        && topic.len() <= 65_535
        && !topic.contains(['+', '#'])
        && !topic.contains('\0')
}

/// The level prefix marking a shared subscription: `$share/<group>/<filter>`.
pub const SHARE_PREFIX: &str = "$share/";

/// Split a shared-subscription filter into `(group, inner filter)`.
///
/// Returns `None` unless `filter` has the exact shape
/// `$share/<group>/<rest>` with a non-empty, wildcard-free group level
/// and a non-empty inner filter (the inner filter is *not* validated
/// here; pass it to [`validate_filter`]).
pub fn parse_share(filter: &str) -> Option<(&str, &str)> {
    let rest = filter.strip_prefix(SHARE_PREFIX)?;
    let (group, inner) = rest.split_once('/')?;
    if group.is_empty() || group.contains(['+', '#']) || inner.is_empty() {
        return None;
    }
    Some((group, inner))
}

/// Is `filter` a valid topic *filter* (subscribable)?
///
/// A shared subscription `$share/<group>/<inner>` is valid iff the group
/// level is well-formed and `<inner>` is itself a valid filter; anything
/// else starting with the reserved `$share` level is rejected.
pub fn validate_filter(filter: &str) -> bool {
    if filter.is_empty() || filter.len() > 65_535 || filter.contains('\0') {
        return false;
    }
    let filter = if filter == "$share" || filter.starts_with(SHARE_PREFIX) {
        match parse_share(filter) {
            Some((_, inner)) => inner,
            None => return false,
        }
    } else {
        filter
    };
    let levels: Vec<&str> = filter.split('/').collect();
    for (i, level) in levels.iter().enumerate() {
        match *level {
            "#" => {
                if i != levels.len() - 1 {
                    return false; // '#' only at the end
                }
            }
            "+" => {}
            l => {
                if l.contains(['+', '#']) {
                    return false; // wildcards must stand alone in a level
                }
            }
        }
    }
    true
}

/// Does `filter` match `topic` under MQTT rules?
pub fn matches(filter: &str, topic: &str) -> bool {
    // Wildcard filters don't match $-topics (spec §4.7.2).
    if topic.starts_with('$') && (filter.starts_with('+') || filter.starts_with('#')) {
        return false;
    }
    let mut f = filter.split('/');
    let mut t = topic.split('/');
    loop {
        match (f.next(), t.next()) {
            (Some("#"), _) => return true,
            (Some("+"), Some(_)) => {}
            (Some(fl), Some(tl)) if fl == tl => {}
            (None, None) => return true,
            // "a/#" also matches "a" (the parent level)
            _ => {
                return false;
            }
        }
    }
}

/// The part of a valid `filter` before its first wildcard level, without
/// the trailing `/`: every topic the filter matches starts with it.
pub(crate) fn literal_prefix(filter: &str) -> &str {
    match filter.find(['+', '#']) {
        Some(i) => filter[..i].strip_suffix('/').unwrap_or(&filter[..i]),
        None => filter,
    }
}

/// Symbol reserved for the `+` wildcard level.
const SYM_PLUS: u32 = 0;
/// Symbol reserved for the `#` wildcard level.
const SYM_HASH: u32 = 1;

/// Level-string symbol table. Filters intern their levels on insert;
/// lookups only *probe* (a level that was never part of any filter has no
/// symbol, hence no literal branch to follow).
#[derive(Debug, Clone)]
struct Interner {
    map: HashMap<Box<str>, u32, FxBuildHasher>,
    names: Vec<Box<str>>,
}

impl Interner {
    fn new() -> Interner {
        let mut it = Interner { map: HashMap::default(), names: Vec::new() };
        assert_eq!(it.intern("+"), SYM_PLUS);
        assert_eq!(it.intern("#"), SYM_HASH);
        it
    }

    fn intern(&mut self, level: &str) -> u32 {
        if let Some(&sym) = self.map.get(level) {
            return sym;
        }
        let sym = self.names.len() as u32;
        let boxed: Box<str> = level.into();
        self.names.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Probe without interning — allocation-free.
    fn get(&self, level: &str) -> Option<u32> {
        self.map.get(level).copied()
    }
}

/// A subscription trie: filters map to values; `lookup(topic)` collects the
/// values of every matching filter in one pass. Used by the broker to route
/// a publish to its subscribers without scanning all sessions.
#[derive(Debug, Clone)]
pub struct TopicTrie<T> {
    root: Node<T>,
    len: usize,
    interner: Interner,
    /// Whole-topic interner for caches layered above the trie: maps a
    /// published topic to a stable `u32` id so a route cache can key on
    /// 4 bytes instead of an owned `String`. Ids survive subscription
    /// churn (epoch bumps) — an invalidated cache re-resolves under the
    /// same id without re-allocating the key.
    topic_ids: HashMap<Box<str>, u32, FxBuildHasher>,
    epoch: u64,
}

#[derive(Debug, Clone)]
struct Node<T> {
    children: HashMap<u32, Node<T>, FxBuildHasher>,
    /// Values registered on the exact filter ending at this node.
    values: Vec<T>,
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node { children: HashMap::default(), values: Vec::new() }
    }
}

impl<T> Default for TopicTrie<T> {
    fn default() -> Self {
        TopicTrie::new()
    }
}

impl<T> TopicTrie<T> {
    /// An empty trie.
    pub fn new() -> TopicTrie<T> {
        TopicTrie {
            root: Node::default(),
            len: 0,
            interner: Interner::new(),
            topic_ids: HashMap::default(),
            epoch: 0,
        }
    }

    /// Intern `topic` to a stable id. The first sighting allocates the key
    /// once; every later publish to the same topic is a hash probe
    /// returning the same 4-byte id.
    pub fn topic_id(&mut self, topic: &str) -> u32 {
        if let Some(&id) = self.topic_ids.get(topic) {
            return id;
        }
        let id = self.topic_ids.len() as u32;
        self.topic_ids.insert(topic.into(), id);
        id
    }

    /// Distinct topics interned so far (cache-cap bookkeeping).
    pub fn topic_id_count(&self) -> usize {
        self.topic_ids.len()
    }

    /// Forget all interned topic ids. Ids are reassigned from zero, so any
    /// cache keyed by old ids must be dropped in the same breath.
    pub fn reset_topic_ids(&mut self) {
        self.topic_ids.clear();
    }

    /// Number of stored values (not distinct filters).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Generation counter, bumped by every mutation that can change a
    /// lookup's result. Route caches above the trie compare epochs instead
    /// of registering invalidation hooks.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Register `value` under `filter` (assumed pre-validated).
    pub fn insert(&mut self, filter: &str, value: T) {
        let mut node = &mut self.root;
        for level in filter.split('/') {
            let sym = self.interner.intern(level);
            node = node.children.entry(sym).or_default();
        }
        node.values.push(value);
        self.len += 1;
        self.epoch += 1;
    }

    /// Replace every value under `filter` for which `pred` returns true
    /// with `value` — or insert `value` fresh if nothing matched. Returns
    /// how many values were replaced.
    ///
    /// Collapsing to a single entry is MQTT 3.1.1 §3.8.4: re-SUBSCRIBE on
    /// a filter the session already holds replaces the granted QoS rather
    /// than adding a second route (which would double-deliver).
    pub fn replace_where(&mut self, filter: &str, value: T, pred: impl FnMut(&T) -> bool) -> usize {
        let removed = self.remove_where(filter, pred);
        self.insert(filter, value);
        removed
    }

    /// Remove every value under `filter` for which `pred` returns true.
    /// Returns how many were removed.
    pub fn remove_where(&mut self, filter: &str, mut pred: impl FnMut(&T) -> bool) -> usize {
        let mut node = &mut self.root;
        for level in filter.split('/') {
            let Some(sym) = self.interner.get(level) else {
                return 0;
            };
            match node.children.get_mut(&sym) {
                Some(n) => node = n,
                None => return 0,
            }
        }
        let before = node.values.len();
        node.values.retain(|v| !pred(v));
        let removed = before - node.values.len();
        self.len -= removed;
        if removed > 0 {
            self.epoch += 1;
        }
        removed
    }

    /// Collect references to every value whose filter matches `topic`.
    pub fn lookup(&self, topic: &str) -> Vec<&T> {
        let mut out = Vec::new();
        let dollar_guard = topic.starts_with('$');
        self.walk(&self.root, topic.split('/'), 0, dollar_guard, &mut out);
        out
    }

    fn walk<'a, 't>(
        &'a self,
        node: &'a Node<T>,
        mut rest: std::str::Split<'t, char>,
        depth: usize,
        dollar_guard: bool,
        out: &mut Vec<&'a T>,
    ) {
        // '#' at this level matches everything below (including the parent).
        if let Some(hash) = node.children.get(&SYM_HASH) {
            if !(dollar_guard && depth == 0) {
                out.extend(hash.values.iter());
            }
        }
        match rest.next() {
            None => out.extend(node.values.iter()),
            Some(level) => {
                // Unknown level ⇒ no filter ever used it literally; only
                // the wildcard branches can still match.
                if let Some(sym) = self.interner.get(level) {
                    if let Some(child) = node.children.get(&sym) {
                        self.walk(child, rest.clone(), depth + 1, dollar_guard, out);
                    }
                }
                if let Some(plus) = node.children.get(&SYM_PLUS) {
                    if !(dollar_guard && depth == 0) {
                        self.walk(plus, rest, depth + 1, dollar_guard, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_validation() {
        assert!(validate_topic("a/b/c"));
        assert!(validate_topic("digibox/mock/O1/status"));
        assert!(!validate_topic(""));
        assert!(!validate_topic("a/+/c"));
        assert!(!validate_topic("a/#"));
    }

    #[test]
    fn filter_validation() {
        assert!(validate_filter("a/b/c"));
        assert!(validate_filter("a/+/c"));
        assert!(validate_filter("a/#"));
        assert!(validate_filter("#"));
        assert!(validate_filter("+/+"));
        assert!(!validate_filter(""));
        assert!(!validate_filter("a/#/c")); // '#' not last
        assert!(!validate_filter("a/b+")); // wildcard not alone
        assert!(!validate_filter("a/#b"));
    }

    #[test]
    fn share_filter_parsing_and_validation() {
        assert_eq!(parse_share("$share/g/a/b"), Some(("g", "a/b")));
        assert_eq!(parse_share("$share/workers/digibox/+/status"), Some(("workers", "digibox/+/status")));
        assert_eq!(parse_share("a/b"), None);
        assert_eq!(parse_share("$share"), None);
        assert_eq!(parse_share("$share/g"), None); // no inner filter
        assert_eq!(parse_share("$share//a"), None); // empty group
        assert_eq!(parse_share("$share/+/a"), None); // wildcard group

        assert!(validate_filter("$share/g/a/b"));
        assert!(validate_filter("$share/g/#"));
        assert!(validate_filter("$share/g/+/status"));
        assert!(!validate_filter("$share"));
        assert!(!validate_filter("$share/g"));
        assert!(!validate_filter("$share//a"));
        assert!(!validate_filter("$share/+/a"));
        assert!(!validate_filter("$share/g/a/#/b")); // inner filter invalid
    }

    #[test]
    fn replace_where_collapses_duplicate_subscriptions() {
        // regression: re-SUBSCRIBE used to push a second value under the
        // same filter, so one publish matched the session twice.
        let mut trie = TopicTrie::new();
        assert_eq!(trie.replace_where("a/+", ("c1", 0u8), |(c, _)| *c == "c1"), 0);
        assert_eq!(trie.replace_where("a/+", ("c1", 1u8), |(c, _)| *c == "c1"), 1);
        assert_eq!(trie.len(), 1, "re-subscribe must not duplicate the route");
        let got: Vec<_> = trie.lookup("a/b").into_iter().collect();
        assert_eq!(got, vec![&("c1", 1u8)], "granted QoS is replaced");
        // a different session's entry under the same filter is untouched
        assert_eq!(trie.replace_where("a/+", ("c2", 0u8), |(c, _)| *c == "c2"), 0);
        assert_eq!(trie.len(), 2);
    }

    #[test]
    fn matching_rules() {
        assert!(matches("a/b", "a/b"));
        assert!(!matches("a/b", "a/c"));
        assert!(matches("a/+", "a/b"));
        assert!(!matches("a/+", "a/b/c"));
        assert!(matches("a/#", "a/b/c"));
        assert!(matches("a/#", "a"));
        assert!(matches("#", "anything/at/all"));
        assert!(matches("+/+", "a/b"));
        assert!(!matches("+", "a/b"));
        // $-topics are protected from root wildcards
        assert!(!matches("#", "$SYS/stats"));
        assert!(!matches("+/stats", "$SYS/stats"));
        assert!(matches("$SYS/stats", "$SYS/stats"));
        assert!(matches("$SYS/#", "$SYS/stats"));
    }

    #[test]
    fn literal_prefix_bounds_every_match() {
        let cases =
            [("a/b/+/c", "a/b"), ("a/#", "a"), ("#", ""), ("+/x", ""), ("a/b", "a/b"), ("a//+", "a/")];
        for (filter, prefix) in cases {
            assert_eq!(literal_prefix(filter), prefix, "{filter}");
        }
        let topics = ["a", "a/b", "a/b/x/c", "a//q", "ab", "b/x", "$SYS/x", "a/b/c"];
        for (filter, _) in cases {
            for topic in topics {
                if matches(filter, topic) {
                    assert!(topic.starts_with(literal_prefix(filter)), "{filter} matches {topic}");
                }
            }
        }
    }

    #[test]
    fn empty_levels_are_significant() {
        assert!(matches("a//b", "a//b"));
        assert!(!matches("a/b", "a//b"));
        assert!(matches("a/+/b", "a//b")); // '+' matches the empty level
    }

    #[test]
    fn trie_lookup_matches_linear_scan() {
        let filters = [
            "digibox/mock/O1/status",
            "digibox/mock/+/status",
            "digibox/#",
            "digibox/scene/+/event",
            "#",
            "other/topic",
        ];
        let mut trie = TopicTrie::new();
        for (i, f) in filters.iter().enumerate() {
            trie.insert(f, i);
        }
        let topics = [
            "digibox/mock/O1/status",
            "digibox/mock/O2/status",
            "digibox/scene/room/event",
            "other/topic",
            "unrelated",
            "$SYS/internal",
        ];
        for topic in topics {
            let mut expect: Vec<usize> =
                filters.iter().enumerate().filter(|(_, f)| matches(f, topic)).map(|(i, _)| i).collect();
            let mut got: Vec<usize> = trie.lookup(topic).into_iter().copied().collect();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "topic {topic}");
        }
    }

    #[test]
    fn trie_remove() {
        let mut trie = TopicTrie::new();
        trie.insert("a/+", 1);
        trie.insert("a/+", 2);
        trie.insert("a/#", 3);
        assert_eq!(trie.len(), 3);
        assert_eq!(trie.remove_where("a/+", |v| *v == 1), 1);
        assert_eq!(trie.len(), 2);
        let got: Vec<i32> = trie.lookup("a/b").into_iter().copied().collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&2) && got.contains(&3));
        // removing from a filter that was never inserted is a no-op
        assert_eq!(trie.remove_where("z/z", |_| true), 0);
    }

    #[test]
    fn hash_matches_parent_level_in_trie() {
        let mut trie = TopicTrie::new();
        trie.insert("a/#", 1);
        assert_eq!(trie.lookup("a").len(), 1);
        assert_eq!(trie.lookup("a/b/c").len(), 1);
        assert_eq!(trie.lookup("b").len(), 0);
    }

    #[test]
    fn epoch_tracks_effective_mutations() {
        let mut trie = TopicTrie::new();
        let e0 = trie.epoch();
        trie.insert("a/b", 1);
        let e1 = trie.epoch();
        assert_ne!(e0, e1);
        // removal that matches nothing must NOT invalidate caches
        assert_eq!(trie.remove_where("a/b", |v| *v == 99), 0);
        assert_eq!(trie.epoch(), e1);
        assert_eq!(trie.remove_where("a/b", |v| *v == 1), 1);
        assert_ne!(trie.epoch(), e1);
    }

    #[test]
    fn topic_ids_are_stable_until_reset() {
        let mut trie: TopicTrie<u32> = TopicTrie::new();
        let a = trie.topic_id("a/b");
        let b = trie.topic_id("a/c");
        assert_ne!(a, b);
        assert_eq!(trie.topic_id("a/b"), a, "re-interning returns the same id");
        assert_eq!(trie.topic_id_count(), 2);
        // ids survive subscription churn (epoch bumps)
        trie.insert("a/#", 1);
        assert_eq!(trie.topic_id("a/b"), a);
        trie.reset_topic_ids();
        assert_eq!(trie.topic_id_count(), 0);
        assert_eq!(trie.topic_id("a/c"), 0, "ids restart from zero after reset");
    }

    #[test]
    fn lookup_with_unknown_levels_still_hits_wildcards() {
        let mut trie = TopicTrie::new();
        trie.insert("a/+/c", 1);
        trie.insert("#", 2);
        // "never-interned" only appears in the topic, not in any filter
        let got: Vec<i32> = trie.lookup("a/never-interned/c").into_iter().copied().collect();
        assert!(got.contains(&1) && got.contains(&2));
        assert_eq!(trie.lookup("x/never-interned").into_iter().copied().collect::<Vec<i32>>(), vec![2]);
    }
}
