//! # digibox-obs
//!
//! Deterministic, virtual-time observability for Digibox testbeds: an
//! interned-key metrics registry (counters, gauges, fixed-bucket
//! histograms) plus hierarchical spans over the simulation hot paths.
//!
//! ## Determinism by construction
//!
//! Nothing in this crate reads a wall clock, draws randomness, or touches
//! the simulation: every value is an event count, a queue depth, or a
//! virtual-time reading handed in by the kernel ([`clock`]). Recording is
//! purely observational — it schedules no events and advances no RNG — so
//! enabling or disabling metrics cannot change a single simulated byte,
//! and a [`Snapshot`] of the same seeded run is byte-identical every time.
//!
//! That byte-identity is what `dbox record`/`dbox replay` build on: the
//! canonical JSON of a snapshot is the run's stats digest, and a verified
//! replay must reproduce it exactly. Replays surface their own activity
//! through the `replay.schedules` / `replay.steps` /
//! `replay.resumed_states` counters the testbed registers — replay is
//! observable here without being allowed to change anything else.
//!
//! ## Why thread-local
//!
//! Instrumented code (the kernel's dispatch loop, the broker's routing,
//! a digi's handlers) has no registry handle to thread through dozens of
//! call sites, so the collector lives in a thread-local — the same tap
//! pattern `core::footprint` uses. This is also exactly what makes sweeps
//! deterministic across `--jobs` counts: a `Testbed` is `!Send`, each
//! sweep seed builds its testbed inside one worker thread (resetting that
//! thread's collector), and only the extracted [`Snapshot`] crosses
//! threads — so per-seed metrics are independent of scheduling, just like
//! the sweep results themselves.
//!
//! ## Span weights in a virtual-time world
//!
//! Handlers execute in zero virtual time, so span "duration" is not a
//! meaningful sample value. Folded stacks therefore weigh each stack by
//! its *entry count* — a deterministic work proxy — which standard
//! flamegraph tooling renders just as happily as nanoseconds.
//!
//! The crate is std-only with no dependencies: it sits below `net` and
//! `broker` in the workspace graph, and `perfbench/build.py` compiles it
//! with bare `rustc`.

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Number of power-of-two histogram buckets (values up to 2^31 land in
/// their log2 bucket; larger ones saturate into the last).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Interned handle to a counter (monotonically increasing `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Interned handle to a gauge (last-write-wins `i64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Interned handle to a fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// Interned handle to a span frame name (one level of a folded stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameId(u32);

/// Names in creation order plus a sorted index. A `BTreeMap` rather than a
/// hash map so that an empty interner is a constant and the thread-local
/// collector needs no lazy set-up on each access.
struct Interner {
    names: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl Interner {
    const fn new() -> Interner {
        Interner { names: Vec::new(), index: BTreeMap::new() }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct HistogramCell {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramCell {
    fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }
}

/// One node of the span tree: a frame plus its children, each child keyed
/// by frame id. The map keeps traversal in frame-id order, so it is
/// reproducible, and adds a child in O(log n) whatever order frame ids
/// first appear in: one node can hold a million per-digi children, and
/// they arrive out of id order.
struct SpanNode {
    frame: u32,
    count: u64,
    children: BTreeMap<u32, u32>, // frame id → node index
}

struct Collector {
    counters: Interner,
    counter_values: Vec<u64>,
    gauges: Interner,
    gauge_values: Vec<Option<i64>>,
    histograms: Interner,
    histogram_values: Vec<HistogramCell>,
    frames: Interner,
    /// The span tree's top-level frames (frame id → node index); the root
    /// itself is implicit and records nothing.
    roots: BTreeMap<u32, u32>,
    /// Span tree nodes below the root.
    nodes: Vec<SpanNode>,
    /// Indices into `nodes` for the currently open span stack.
    stack: Vec<u32>,
    /// Latest virtual-time reading (nanoseconds) reported via [`clock`].
    clock_ns: u64,
}

impl Collector {
    const fn new() -> Collector {
        Collector {
            counters: Interner::new(),
            counter_values: Vec::new(),
            gauges: Interner::new(),
            gauge_values: Vec::new(),
            histograms: Interner::new(),
            histogram_values: Vec::new(),
            frames: Interner::new(),
            roots: BTreeMap::new(),
            nodes: Vec::new(),
            stack: Vec::new(),
            clock_ns: 0,
        }
    }

    /// Zero every value and drop the span tree, but keep the intern
    /// tables: handles cached in long-lived structs (a kernel, a broker)
    /// stay valid across testbeds built on the same thread.
    fn reset(&mut self) {
        self.counter_values.iter_mut().for_each(|v| *v = 0);
        self.gauge_values.iter_mut().for_each(|v| *v = None);
        self.histogram_values.iter_mut().for_each(|v| *v = HistogramCell::default());
        self.roots.clear();
        self.nodes.clear();
        self.stack.clear();
        self.clock_ns = 0;
    }

    fn enter(&mut self, frame: FrameId) {
        let next = self.nodes.len() as u32;
        let children = match self.stack.last() {
            Some(&parent) => &mut self.nodes[parent as usize].children,
            None => &mut self.roots,
        };
        let child = *children.entry(frame.0).or_insert(next);
        if child == next {
            self.nodes.push(SpanNode { frame: frame.0, count: 0, children: BTreeMap::new() });
        }
        self.nodes[child as usize].count += 1;
        self.stack.push(child);
    }

    /// Collect folded stacks: `(path, count)` for every node, DFS from the
    /// root. Paths join frame names with `;` (flamegraph folded format).
    fn folded_into(&self, children: &BTreeMap<u32, u32>, prefix: &str, out: &mut Vec<(String, u64)>) {
        for &child in children.values() {
            let n = &self.nodes[child as usize];
            let name = &self.frames.names[n.frame as usize];
            let path = if prefix.is_empty() { name.clone() } else { format!("{prefix};{name}") };
            out.push((path.clone(), n.count));
            self.folded_into(&n.children, &path, out);
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Collector> = const { RefCell::new(Collector::new()) };
}

/// Whether this thread's collector is currently recording.
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Turn recording on or off for this thread. Disabling leaves recorded
/// data in place (a later [`snapshot`] still sees it); use [`reset`] to
/// clear.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Zero all metric values and drop the span tree on this thread. Interned
/// handles stay valid (the name tables survive), so instruments that
/// cached ids keep working across resets.
pub fn reset() {
    COLLECTOR.with(|c| c.borrow_mut().reset());
}

/// An owned, detached collector (intern tables, values, span tree, enabled
/// flag) — the unit of swapping for code that multiplexes several
/// independent recording contexts on one thread.
///
/// The space-parallel island engine (`core::islands`) pins several island
/// kernels to one worker thread and interleaves them epoch by epoch; each
/// island keeps its own `CollectorState` and installs it around every
/// slice of island execution, so per-island metrics are exactly what a
/// dedicated thread would have recorded — independent of how many workers
/// the islands were packed onto. Interned handles (`CounterId`, ...) are
/// indices into the state they were created under, so a handle must only
/// be used while its own state is installed — which island pinning
/// guarantees by construction.
///
/// Deliberately `!Send` (it is only meaningful on the thread that fills
/// it); detached states are plain values, so dropping one discards its
/// recordings.
pub struct CollectorState {
    enabled: bool,
    collector: Collector,
    /// Keeps the type `!Send`/`!Sync`: handles inside reference
    /// thread-local intern order.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// A fresh, empty, disabled [`CollectorState`] — the starting point for
/// each multiplexed context.
pub fn fresh_state() -> CollectorState {
    CollectorState {
        enabled: false,
        collector: Collector::new(),
        _not_send: std::marker::PhantomData,
    }
}

/// Install `state` as this thread's collector and return the previously
/// installed one. The returned state can be re-installed later to resume
/// recording exactly where it left off.
pub fn swap_state(mut state: CollectorState) -> CollectorState {
    ENABLED.with(|e| {
        let prev = e.get();
        e.set(state.enabled);
        state.enabled = prev;
    });
    COLLECTOR.with(|c| std::mem::swap(&mut *c.borrow_mut(), &mut state.collector));
    state
}

/// Intern (or look up) a counter by name.
pub fn counter(name: &str) -> CounterId {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let id = c.counters.intern(name);
        if c.counter_values.len() <= id as usize {
            c.counter_values.resize(id as usize + 1, 0);
        }
        CounterId(id)
    })
}

/// Intern (or look up) a gauge by name.
pub fn gauge(name: &str) -> GaugeId {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let id = c.gauges.intern(name);
        if c.gauge_values.len() <= id as usize {
            c.gauge_values.resize(id as usize + 1, None);
        }
        GaugeId(id)
    })
}

/// Intern (or look up) a histogram by name.
pub fn histogram(name: &str) -> HistogramId {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let id = c.histograms.intern(name);
        if c.histogram_values.len() <= id as usize {
            c.histogram_values.resize(id as usize + 1, HistogramCell::default());
        }
        HistogramId(id)
    })
}

/// Intern (or look up) a span frame name.
pub fn frame(name: &str) -> FrameId {
    COLLECTOR.with(|c| FrameId(c.borrow_mut().frames.intern(name)))
}

/// Add `delta` to a counter (no-op while disabled).
#[inline]
pub fn add(counter: CounterId, delta: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with_borrow_mut(|c| c.counter_values[counter.0 as usize] += delta);
}

/// Increment a counter by one (no-op while disabled).
#[inline]
pub fn inc(counter: CounterId) {
    add(counter, 1);
}

/// Set a gauge to `value` (no-op while disabled).
#[inline]
pub fn set(gauge: GaugeId, value: i64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with_borrow_mut(|c| c.gauge_values[gauge.0 as usize] = Some(value));
}

/// Record `value` into a histogram (no-op while disabled).
#[inline]
pub fn observe(histogram: HistogramId, value: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with_borrow_mut(|c| c.histogram_values[histogram.0 as usize].record(value));
}

/// Report the kernel's virtual clock (nanoseconds). Snapshots carry the
/// latest reading — the only "timestamp" this crate ever emits.
#[inline]
pub fn clock(now_ns: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with_borrow_mut(|c| c.clock_ns = c.clock_ns.max(now_ns));
}

/// Open a span under the current one; the returned guard closes it on
/// drop. Inert (records nothing) while disabled.
#[inline]
pub fn enter(frame: FrameId) -> SpanGuard {
    if !enabled() {
        return SpanGuard { pushed: false };
    }
    COLLECTOR.with_borrow_mut(|c| c.enter(frame));
    SpanGuard { pushed: true }
}

/// RAII guard for an open span (see [`enter`]).
pub struct SpanGuard {
    pushed: bool,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.pushed {
            COLLECTOR.with_borrow_mut(|c| c.stack.pop());
        }
    }
}

/// A histogram as captured in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// `(bucket index, count)` for every non-empty power-of-two bucket;
    /// bucket `i` covers values in `[2^(i-1), 2^i)` (bucket 0 is zero).
    pub buckets: Vec<(usize, u64)>,
}

/// An immutable, canonically ordered capture of this thread's collector.
///
/// Everything is sorted by name (metrics) or folded path (spans), so two
/// snapshots of identical runs render byte-identical JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Latest virtual-time reading (ns) reported via [`clock`].
    pub clock_ns: u64,
    /// `(name, value)` for every counter that was ever registered, sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge that was *set*, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` for every histogram with recordings, sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(folded path, entry count)` per span stack, lexicographic order.
    pub spans: Vec<(String, u64)>,
}

/// Capture this thread's collector as a canonical [`Snapshot`].
pub fn snapshot() -> Snapshot {
    COLLECTOR.with(|c| {
        let c = c.borrow();
        let mut counters: Vec<(String, u64)> = c
            .counters
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), c.counter_values[i]))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = c
            .gauges
            .names
            .iter()
            .enumerate()
            .filter_map(|(i, n)| c.gauge_values[i].map(|v| (n.clone(), v)))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = c
            .histograms
            .names
            .iter()
            .enumerate()
            .filter(|&(i, _)| c.histogram_values[i].count > 0)
            .map(|(i, n)| {
                let h = &c.histogram_values[i];
                (
                    n.clone(),
                    HistogramSnapshot {
                        count: h.count,
                        sum: h.sum,
                        max: h.max,
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter(|&(_, &n)| n > 0)
                            .map(|(i, &n)| (i, n))
                            .collect(),
                    },
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut spans = Vec::new();
        c.folded_into(&c.roots, "", &mut spans);
        spans.sort();
        Snapshot { clock_ns: c.clock_ns, counters, gauges, histograms, spans }
    })
}

/// Minimal JSON string escaping (quotes, backslash, control chars),
/// byte-identical to the strings `digibox_model::json` writes
/// (`tests/obs_determinism.rs` checks it). A copy, because this crate
/// sits below `digibox-model` and builds standalone.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Snapshot {
    /// The value of a counter by name (0 if absent) — the lookup the
    /// chaos/sweep per-seed summaries use.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Canonical JSON (hand-built, integers only). Without histograms it is
    /// the text `digibox_model::json` writes for the same tree; a
    /// histogram's keys keep the order `count`, `sum`, `max`, `buckets`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 48 * self.counters.len());
        out.push_str(&format!("{{\"clock_ns\":{},\"counters\":{{", self.clock_ns));
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_str(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_str(name)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                json_str(name),
                h.count,
                h.sum,
                h.max
            ));
            for (j, (bucket, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bucket},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("},\"spans\":[");
        for (i, (path, count)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{count}]", json_str(path)));
        }
        out.push_str("]}");
        out
    }

    /// Merge independently captured snapshots into one, order-independently:
    /// counters, gauges, span counts and histogram buckets are summed per
    /// name, `clock_ns` takes the latest reading, and every output section
    /// is re-sorted — so any permutation of `parts` yields byte-identical
    /// JSON. This is how the space-parallel island engine folds per-island
    /// collectors into the single testbed-wide snapshot the digests use.
    ///
    /// Gauges are summed rather than last-write-wins because across
    /// *disjoint* recording contexts there is no meaningful "last": the
    /// testbed gauges (digi counts, pending restarts) are all additive
    /// partitions of a whole.
    pub fn merged(parts: &[Snapshot]) -> Snapshot {
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<&str, i64> = BTreeMap::new();
        let mut histograms: BTreeMap<&str, HistogramSnapshot> = BTreeMap::new();
        let mut spans: BTreeMap<&str, u64> = BTreeMap::new();
        let mut clock_ns = 0;
        for part in parts {
            clock_ns = clock_ns.max(part.clock_ns);
            for (name, v) in &part.counters {
                *counters.entry(name).or_insert(0) += v;
            }
            for (name, v) in &part.gauges {
                *gauges.entry(name).or_insert(0) += v;
            }
            for (name, h) in &part.histograms {
                let merged = histograms.entry(name).or_insert_with(|| HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    max: 0,
                    buckets: Vec::new(),
                });
                merged.count += h.count;
                merged.sum = merged.sum.saturating_add(h.sum);
                merged.max = merged.max.max(h.max);
                let mut buckets: BTreeMap<usize, u64> =
                    merged.buckets.iter().copied().collect();
                for &(bucket, n) in &h.buckets {
                    *buckets.entry(bucket).or_insert(0) += n;
                }
                merged.buckets = buckets.into_iter().collect();
            }
            for (path, count) in &part.spans {
                *spans.entry(path).or_insert(0) += count;
            }
        }
        Snapshot {
            clock_ns,
            counters: counters.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            gauges: gauges.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms: histograms.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            spans: spans.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        }
    }

    /// Folded-stack lines (`path;to;frame count`), one per span stack —
    /// directly consumable by `flamegraph.pl` / `inferno-flamegraph`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, count) in &self.spans {
            out.push_str(path);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Human-readable table for `dbox stats` pretty output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "metrics @ virtual t={}.{:03}s\n",
            self.clock_ns / 1_000_000_000,
            (self.clock_ns % 1_000_000_000) / 1_000_000
        ));
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<40} {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<40} {v:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let mean = h.sum.checked_div(h.count).unwrap_or(0);
                out.push_str(&format!(
                    "  {name:<40} count={} mean={} max={}\n",
                    h.count, mean, h.max
                ));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans (entry counts):\n");
            for (path, count) in &self.spans {
                let depth = path.matches(';').count();
                let leaf = path.rsplit(';').next().unwrap_or(path);
                out.push_str(&format!(
                    "  {:indent$}{leaf:<width$} {count:>12}\n",
                    "",
                    indent = depth * 2,
                    width = 40usize.saturating_sub(depth * 2)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_fresh<R>(f: impl FnOnce() -> R) -> R {
        // Tests share one thread-local collector per test thread; reset and
        // enable around each body so they are order-independent.
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn counters_accumulate_and_survive_reset_handles() {
        with_fresh(|| {
            let c = counter("kernel.events");
            add(c, 3);
            inc(c);
            assert_eq!(snapshot().counter("kernel.events"), 4);
            reset();
            // The handle stays valid across reset; values restart at zero.
            inc(c);
            assert_eq!(snapshot().counter("kernel.events"), 1);
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_fresh(|| {
            let c = counter("quiet");
            let h = histogram("quiet.h");
            let f = frame("quiet.f");
            set_enabled(false);
            add(c, 10);
            observe(h, 5);
            clock(99);
            drop(enter(f));
            set_enabled(true);
            let s = snapshot();
            assert_eq!(s.counter("quiet"), 0);
            assert!(s.histograms.is_empty());
            assert!(s.spans.is_empty());
            assert_eq!(s.clock_ns, 0);
        });
    }

    #[test]
    fn gauges_last_write_wins_and_only_set_ones_appear() {
        with_fresh(|| {
            let g = gauge("queue.depth");
            let _unset = gauge("never.set");
            set(g, 7);
            set(g, -2);
            let s = snapshot();
            assert_eq!(s.gauges, vec![("queue.depth".to_string(), -2)]);
        });
    }

    #[test]
    fn histogram_buckets_are_log2() {
        with_fresh(|| {
            let h = histogram("sizes");
            for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
                observe(h, v);
            }
            let s = snapshot();
            let (_, hs) = &s.histograms[0];
            assert_eq!(hs.count, 7);
            assert_eq!(hs.max, u64::MAX);
            // 0→b0, 1→b1, 2..3→b2, 4→b3, 1024→b11, MAX→b31
            let buckets: Vec<(usize, u64)> =
                vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1), (31, 1)];
            assert_eq!(hs.buckets, buckets);
        });
    }

    #[test]
    fn spans_fold_hierarchically() {
        with_fresh(|| {
            let step = frame("kernel.step");
            let deliver = frame("deliver");
            let timer = frame("timer");
            for _ in 0..3 {
                let _s = enter(step);
                let _d = enter(deliver);
            }
            {
                let _s = enter(step);
                let _t = enter(timer);
            }
            let s = snapshot();
            assert_eq!(
                s.spans,
                vec![
                    ("kernel.step".to_string(), 4),
                    ("kernel.step;deliver".to_string(), 3),
                    ("kernel.step;timer".to_string(), 1),
                ]
            );
            let folded = s.folded();
            assert!(folded.contains("kernel.step;deliver 3\n"), "{folded}");
        });
    }

    #[test]
    fn snapshot_json_is_canonical_and_deterministic() {
        let build = || {
            with_fresh(|| {
                // Register in one order, bump in another: output sorts.
                let b = counter("b.second");
                let a = counter("a.first");
                add(a, 1);
                add(b, 2);
                set(gauge("g"), 5);
                observe(histogram("h"), 3);
                let _s = enter(frame("root"));
                clock(1_500_000_000);
                snapshot().to_json()
            })
        };
        let j = build();
        assert_eq!(j, build());
        assert!(j.starts_with("{\"clock_ns\":1500000000,\"counters\":{\"a.first\":1,\"b.second\":2}"), "{j}");
        assert!(j.contains("\"gauges\":{\"g\":5}"), "{j}");
        assert!(j.contains("\"h\":{\"count\":1,\"sum\":3,\"max\":3,\"buckets\":[[2,1]]}"), "{j}");
        assert!(j.ends_with("\"spans\":[[\"root\",1]]}"), "{j}");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn render_mentions_every_section() {
        with_fresh(|| {
            inc(counter("c"));
            set(gauge("g"), 1);
            observe(histogram("h"), 2);
            let _s = enter(frame("f"));
            let table = snapshot().render();
            for needle in ["counters:", "gauges:", "histograms:", "spans"] {
                assert!(table.contains(needle), "missing {needle} in:\n{table}");
            }
        });
    }

    #[test]
    fn swap_state_multiplexes_independent_contexts() {
        with_fresh(|| {
            // Fill the "outer" context a little.
            inc(counter("outer.events"));

            // Context A records under its own state.
            let mut a = fresh_state();
            a.enabled = true;
            let outer = swap_state(a);
            let ca = counter("ctx.events");
            add(ca, 2);
            let mut a = swap_state(outer);

            // Context B uses the same metric name; its state is disjoint.
            let mut b = fresh_state();
            b.enabled = true;
            let outer = swap_state(b);
            let cb = counter("ctx.events");
            add(cb, 5);
            let b = swap_state(outer);

            // Resume A: its handle and its tally survived the detach.
            let outer = swap_state(a);
            add(ca, 1);
            let snap_a = snapshot();
            a = swap_state(outer);

            let outer = swap_state(b);
            let snap_b = snapshot();
            let _b = swap_state(outer);
            drop(a);

            assert_eq!(snap_a.counter("ctx.events"), 3);
            assert_eq!(snap_b.counter("ctx.events"), 5);
            // The outer context never saw the multiplexed counters.
            let outer_snap = snapshot();
            assert_eq!(outer_snap.counter("ctx.events"), 0);
            assert_eq!(outer_snap.counter("outer.events"), 1);
        });
    }

    #[test]
    fn merged_snapshots_are_order_independent_sums() {
        let capture = |c1: u64, g: i64, h: u64, span_n: u64| {
            with_fresh(|| {
                add(counter("c"), c1);
                set(gauge("g"), g);
                observe(histogram("h"), h);
                let f = frame("f");
                for _ in 0..span_n {
                    drop(enter(f));
                }
                clock(h * 10);
                snapshot()
            })
        };
        let a = capture(1, 2, 4, 1);
        let b = capture(10, 20, 1024, 3);
        let ab = Snapshot::merged(&[a.clone(), b.clone()]);
        let ba = Snapshot::merged(&[b, a]);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.counter("c"), 11);
        assert_eq!(ab.gauges, vec![("g".to_string(), 22)]);
        assert_eq!(ab.clock_ns, 10_240);
        let (_, h) = &ab.histograms[0];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1028);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets, vec![(3, 1), (11, 1)]);
        assert_eq!(ab.spans, vec![("f".to_string(), 4)]);
    }

    #[test]
    fn clock_keeps_the_latest_reading() {
        with_fresh(|| {
            clock(5);
            clock(100);
            clock(7); // stale reading (never happens in-kernel, but safe)
            assert_eq!(snapshot().clock_ns, 100);
        });
    }
}
