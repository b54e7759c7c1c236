//! Turning traces into replayable schedules, and validating replays.
//!
//! Two distinct notions of "replay" meet here (DESIGN.md §16):
//!
//! * **State playback** — a [`ReplaySchedule`] extracted from a trace's
//!   model-change snapshots drives a testbed's digis by forcing their
//!   fields at the recorded virtual times. Time-travel is schedule
//!   surgery: [`ReplaySchedule::until`] truncates, [`ReplaySchedule::at_speed`]
//!   rescales, [`ReplaySchedule::states_at`] reconstructs the state a
//!   checkpoint would hold so playback can resume mid-trace.
//! * **Verified re-execution** — the deterministic kernel re-runs the
//!   recorded workload from its seed, and [`diff_report`] proves the
//!   regenerated trace matches the recorded one record-for-record.
//!
//! [`diff_report`] is also the divergence *bisector*: given two traces it
//! pinpoints the first record where they disagree and explains what
//! diverged — the source, the record kind, or a single model/payload
//! field ([`first_field_divergence`]).

use std::collections::BTreeMap;
use std::fmt;

use digibox_model::Value;
use digibox_net::SimTime;

use crate::record::{RecordKind, TraceRecord};

/// One step of a replay: at virtual time `ts`, force digi `source`'s model
/// fields to `fields`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayStep {
    /// Virtual time at which to apply the step.
    pub ts: SimTime,
    /// Name of the digi whose model is forced.
    pub source: String,
    /// Full model snapshot to force (not a patch — seeks cannot drift).
    pub fields: Value,
}

/// An ordered schedule of model states extracted from a trace
/// (`dbox replay <trace>` drives the testbed with one of these).
///
/// Replay uses the *snapshots* recorded with each model change rather than
/// re-applying patches, so a replay can start at any point and cannot
/// drift.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplaySchedule {
    steps: Vec<ReplayStep>,
}

impl ReplaySchedule {
    /// Extract the schedule from a trace (model-change records only).
    pub fn from_records(records: &[TraceRecord]) -> ReplaySchedule {
        let mut steps: Vec<ReplayStep> = records
            .iter()
            .filter_map(|r| match &r.kind {
                RecordKind::ModelChange { fields, .. } => Some(ReplayStep {
                    ts: r.ts,
                    source: r.source.clone(),
                    fields: fields.clone(),
                }),
                _ => None,
            })
            .collect();
        steps.sort_by_key(|s| s.ts);
        ReplaySchedule { steps }
    }

    /// The steps, in virtual-time order (stable on ties: trace order).
    pub fn steps(&self) -> &[ReplayStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The set of digi names the schedule drives.
    pub fn sources(&self) -> Vec<String> {
        let mut names: Vec<String> = self.steps.iter().map(|s| s.source.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Final model state per digi (what the testbed should look like when
    /// the replay finishes).
    pub fn final_states(&self) -> BTreeMap<String, Value> {
        let mut out = BTreeMap::new();
        for step in &self.steps {
            out.insert(step.source.clone(), step.fields.clone());
        }
        out
    }

    /// Total virtual duration of the schedule.
    pub fn duration(&self) -> SimTime {
        self.steps.last().map(|s| s.ts).unwrap_or(SimTime::ZERO)
    }

    /// Time-travel truncation: keep only the steps at or before `cut`.
    ///
    /// The bound is **inclusive** — a record emitted at exactly the final
    /// virtual instant belongs to the window that ends there. (The kernel's
    /// `run_until` has the same inclusive contract; an exclusive bound here
    /// is the off-by-one that silently drops final-instant records from an
    /// `export-trace` → `replay` round trip.)
    pub fn until(&self, cut: SimTime) -> ReplaySchedule {
        ReplaySchedule { steps: self.steps.iter().filter(|s| s.ts <= cut).cloned().collect() }
    }

    /// The complement of [`ReplaySchedule::until`]: only the steps strictly
    /// after `cut` — what remains to play after resuming from a checkpoint
    /// taken at `cut`.
    pub fn after(&self, cut: SimTime) -> ReplaySchedule {
        ReplaySchedule { steps: self.steps.iter().filter(|s| s.ts > cut).cloned().collect() }
    }

    /// Rescale every timestamp by `1000 / speed_milli` (so `speed_milli =
    /// 2000` plays the trace back at 2× — timestamps halve).
    ///
    /// Speed is taken in integer milli-units and applied with u128
    /// arithmetic so a rescaled schedule is bit-exactly reproducible —
    /// floating-point accumulation would make `--speed` runs
    /// schedule-order-dependent. Returns `None` when `speed_milli` is 0.
    pub fn at_speed(&self, speed_milli: u64) -> Option<ReplaySchedule> {
        if speed_milli == 0 {
            return None;
        }
        let steps = self
            .steps
            .iter()
            .map(|s| {
                let scaled = (s.ts.as_nanos() as u128) * 1000 / speed_milli as u128;
                ReplayStep {
                    ts: SimTime::from_nanos(scaled.min(u64::MAX as u128) as u64),
                    source: s.source.clone(),
                    fields: s.fields.clone(),
                }
            })
            .collect();
        Some(ReplaySchedule { steps })
    }

    /// The last recorded model state of each source at or before `cut` —
    /// exactly what a periodic `CheckpointStore` snapshot taken at `cut`
    /// would hold. Pair with [`ReplaySchedule::after`] to resume a replay
    /// from a checkpoint instead of t=0.
    pub fn states_at(&self, cut: SimTime) -> BTreeMap<String, Value> {
        let mut out = BTreeMap::new();
        for step in &self.steps {
            if step.ts <= cut {
                out.insert(step.source.clone(), step.fields.clone());
            }
        }
        out
    }
}

/// A point where two traces disagree.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceDivergence {
    /// Same position, different content.
    Mismatch {
        /// Index of the first differing record (in both traces).
        index: usize,
        /// The record on the left side.
        left: Box<TraceRecord>,
        /// The record on the right side.
        right: Box<TraceRecord>,
    },
    /// One trace is a strict prefix of the other.
    LengthMismatch {
        /// Record count of the left trace.
        left: usize,
        /// Record count of the right trace.
        right: usize,
    },
}

/// Compare two traces on their *semantic* content: (source, kind) pairs in
/// order, ignoring seq numbers and exact timestamps (two runs of the same
/// seeded workload have identical timestamps, but a replay legitimately
/// shifts them).
pub fn diff_traces(left: &[TraceRecord], right: &[TraceRecord]) -> Option<TraceDivergence> {
    for (i, (l, r)) in left.iter().zip(right.iter()).enumerate() {
        if l.source != r.source || l.kind != r.kind {
            return Some(TraceDivergence::Mismatch {
                index: i,
                left: Box::new(l.clone()),
                right: Box::new(r.clone()),
            });
        }
    }
    if left.len() != right.len() {
        return Some(TraceDivergence::LengthMismatch { left: left.len(), right: right.len() });
    }
    None
}

/// The human-readable outcome of bisecting two traces to their first
/// diverging record (`dbox replay --diff`).
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceReport {
    /// Index of the first diverging record.
    pub index: usize,
    /// One-line classification of *what* diverged: a source name, a record
    /// kind, a specific field path, a message topic or direction, or a
    /// trace ending early.
    pub what: String,
    /// The left trace's record at the divergence (absent when the left
    /// trace ended).
    pub left: Option<TraceRecord>,
    /// The right trace's record at the divergence (absent when the right
    /// trace ended).
    pub right: Option<TraceRecord>,
}

impl DivergenceReport {
    /// Render the report as console lines (what `dbox replay --diff`
    /// prints before exiting 2).
    pub fn render(&self) -> String {
        let mut out = format!("traces diverge at record {}: {}\n", self.index, self.what);
        match &self.left {
            Some(r) => out.push_str(&format!("  left  #{} {}\n", r.seq, r.paper_line())),
            None => out.push_str("  left  <trace ends>\n"),
        }
        match &self.right {
            Some(r) => out.push_str(&format!("  right #{} {}\n", r.seq, r.paper_line())),
            None => out.push_str("  right <trace ends>\n"),
        }
        out
    }
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

/// Bisect two traces to their first diverging record and explain the
/// divergence. Returns `None` when the traces match record-for-record
/// (same comparison as [`diff_traces`]: seq and timestamps ignored).
pub fn diff_report(left: &[TraceRecord], right: &[TraceRecord]) -> Option<DivergenceReport> {
    match diff_traces(left, right)? {
        TraceDivergence::Mismatch { index, left, right } => {
            let what = explain_mismatch(&left, &right);
            Some(DivergenceReport { index, what, left: Some(*left), right: Some(*right) })
        }
        TraceDivergence::LengthMismatch { left: ll, right: rl } => {
            let index = ll.min(rl);
            let what = if ll < rl {
                format!("left trace ends after {ll} records, right has {rl}")
            } else {
                format!("right trace ends after {rl} records, left has {ll}")
            };
            Some(DivergenceReport {
                index,
                what,
                left: left.get(index).cloned(),
                right: right.get(index).cloned(),
            })
        }
    }
}

/// Classify why two same-position records differ, drilling down to the
/// first differing field when both sides share source and kind.
fn explain_mismatch(l: &TraceRecord, r: &TraceRecord) -> String {
    if l.source != r.source {
        return format!("source ({} vs {})", l.source, r.source);
    }
    if l.kind.tag() != r.kind.tag() {
        return format!("record kind ({} vs {})", l.kind.tag(), r.kind.tag());
    }
    match (&l.kind, &r.kind) {
        (
            RecordKind::ModelChange { fields: lf, patch: lp },
            RecordKind::ModelChange { fields: rf, patch: rp },
        ) => match first_field_divergence(lf, rf) {
            Some(path) => format!("model field {path}"),
            None if lp != rp => "model patch (same resulting fields)".to_string(),
            None => "model change".to_string(),
        },
        (RecordKind::Event { data: ld }, RecordKind::Event { data: rd }) => {
            match first_field_divergence(ld, rd) {
                Some(path) => format!("event field {path}"),
                None => "event data".to_string(),
            }
        }
        (
            RecordKind::Message { direction: ldir, topic: lt, payload: lpay },
            RecordKind::Message { direction: rdir, topic: rt, payload: rpay },
        ) => {
            if ldir != rdir {
                "message direction".to_string()
            } else if lt != rt {
                format!("message topic ({lt} vs {rt})")
            } else {
                match first_field_divergence(lpay, rpay) {
                    Some(path) => format!("message payload field {path}"),
                    None => "message payload".to_string(),
                }
            }
        }
        (
            RecordKind::Lifecycle { action: la, detail: ld },
            RecordKind::Lifecycle { action: ra, detail: rd },
        ) => {
            if la != ra {
                format!("lifecycle action ({la} vs {ra})")
            } else if ld != rd {
                format!("lifecycle detail ({ld} vs {rd})")
            } else {
                "lifecycle".to_string()
            }
        }
        (
            RecordKind::Violation { property: lp, detail: ld },
            RecordKind::Violation { property: rp, detail: rd },
        ) => {
            if lp != rp {
                format!("violated property ({lp} vs {rp})")
            } else if ld != rd {
                format!("violation detail ({ld} vs {rd})")
            } else {
                "violation".to_string()
            }
        }
        _ => "record content".to_string(),
    }
}

/// Walk two [`Value`] trees in canonical (BTreeMap) key order and return
/// the dotted path of the first leaf where they differ — `None` when the
/// trees are equal. A key present on only one side diverges at that key.
pub fn first_field_divergence(left: &Value, right: &Value) -> Option<String> {
    fn walk(l: &Value, r: &Value, path: &str) -> Option<String> {
        match (l, r) {
            (Value::Map(lm), Value::Map(rm)) => {
                // canonical union: BTreeMap keys on both sides, in order
                let keys: std::collections::BTreeSet<&String> =
                    lm.keys().chain(rm.keys()).collect();
                for key in keys {
                    let child = if path.is_empty() {
                        key.to_string()
                    } else {
                        format!("{path}.{key}")
                    };
                    match (lm.get(key.as_str()), rm.get(key.as_str())) {
                        (Some(lv), Some(rv)) => {
                            if let Some(found) = walk(lv, rv, &child) {
                                return Some(found);
                            }
                        }
                        (None, _) | (_, None) => return Some(child),
                    }
                }
                None
            }
            (Value::List(ll), Value::List(rl)) => {
                for (i, (lv, rv)) in ll.iter().zip(rl.iter()).enumerate() {
                    let child = format!("{path}[{i}]");
                    if let Some(found) = walk(lv, rv, &child) {
                        return Some(found);
                    }
                }
                if ll.len() != rl.len() {
                    return Some(format!("{path}[{}]", ll.len().min(rl.len())));
                }
                None
            }
            _ => {
                if l != r {
                    Some(if path.is_empty() { "<root>".to_string() } else { path.to_string() })
                } else {
                    None
                }
            }
        }
    }
    walk(left, right, "")
}

#[cfg(test)]
mod tests {
    use super::*;
    use digibox_model::{vmap, Patch};
    use digibox_net::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn change(seq: u64, ms: u64, source: &str, fields: Value) -> TraceRecord {
        TraceRecord {
            seq,
            ts: at(ms),
            source: source.into(),
            kind: RecordKind::ModelChange { patch: Patch::new(), fields },
        }
    }

    fn event(seq: u64, ms: u64, source: &str) -> TraceRecord {
        TraceRecord {
            seq,
            ts: at(ms),
            source: source.into(),
            kind: RecordKind::Event { data: Value::Null },
        }
    }

    #[test]
    fn schedule_extracts_only_model_changes_in_time_order() {
        let records = vec![
            event(0, 5, "O1"),
            change(1, 30, "L1", vmap! { "p" => 2 }),
            change(2, 10, "O1", vmap! { "t" => true }),
            event(3, 40, "L1"),
        ];
        let sched = ReplaySchedule::from_records(&records);
        assert_eq!(sched.len(), 2);
        assert_eq!(sched.steps()[0].source, "O1");
        assert_eq!(sched.steps()[1].source, "L1");
        assert_eq!(sched.sources(), vec!["L1".to_string(), "O1".to_string()]);
        assert_eq!(sched.duration(), at(30));
    }

    #[test]
    fn final_states_take_last_change() {
        let records = vec![
            change(0, 1, "O1", vmap! { "t" => true }),
            change(1, 2, "O1", vmap! { "t" => false }),
        ];
        let sched = ReplaySchedule::from_records(&records);
        assert_eq!(sched.final_states()["O1"], vmap! { "t" => false });
    }

    #[test]
    fn diff_detects_mismatch_and_ignores_timestamps() {
        let a = vec![change(0, 1, "O1", vmap! { "t" => true })];
        // same content, shifted time and different seq: equal
        let mut b = a.clone();
        b[0].ts = at(999);
        b[0].seq = 42;
        assert_eq!(diff_traces(&a, &b), None);
        // different content: mismatch at 0
        let c = vec![change(0, 1, "O1", vmap! { "t" => false })];
        assert!(matches!(diff_traces(&a, &c), Some(TraceDivergence::Mismatch { index: 0, .. })));
        // prefix: length mismatch
        let d: Vec<TraceRecord> = Vec::new();
        assert_eq!(
            diff_traces(&a, &d),
            Some(TraceDivergence::LengthMismatch { left: 1, right: 0 })
        );
    }

    #[test]
    fn empty_schedule() {
        let sched = ReplaySchedule::from_records(&[]);
        assert!(sched.is_empty());
        assert_eq!(sched.duration(), SimTime::ZERO);
        assert!(sched.final_states().is_empty());
    }

    #[test]
    fn until_is_inclusive_at_the_final_instant() {
        // regression: a record at exactly the cut instant must survive —
        // an exclusive bound drops the last record of a round trip.
        let records = vec![
            change(0, 1, "O1", vmap! { "t" => true }),
            change(1, 30, "L1", vmap! { "p" => 2 }),
        ];
        let sched = ReplaySchedule::from_records(&records);
        assert_eq!(sched.until(at(30)).len(), 2, "cut at the final instant keeps it");
        assert_eq!(sched.until(sched.duration()).len(), sched.len());
        assert_eq!(sched.until(at(29)).len(), 1);
        // until + after partition the schedule exactly
        assert_eq!(sched.until(at(1)).len() + sched.after(at(1)).len(), sched.len());
    }

    #[test]
    fn until_keeps_sub_millisecond_final_instants() {
        // the old CLI end bound truncated the span to whole milliseconds;
        // a final record 400µs past the last millisecond was dropped.
        let mut r = change(0, 0, "O1", vmap! { "t" => true });
        r.ts = SimTime::from_nanos(2_000_400_000); // 2.0004s
        let sched = ReplaySchedule::from_records(&[r]);
        let ms_truncated = SimTime::ZERO + SimDuration::from_millis(sched.duration().as_millis());
        assert!(ms_truncated < sched.duration(), "test needs a sub-ms tail");
        assert_eq!(sched.until(ms_truncated).len(), 0, "ms truncation loses the record");
        assert_eq!(sched.until(sched.duration()).len(), 1, "exact nanos bound keeps it");
    }

    #[test]
    fn at_speed_rescales_deterministically() {
        let records = vec![
            change(0, 1000, "O1", vmap! { "t" => true }),
            change(1, 3000, "L1", vmap! { "p" => 2 }),
        ];
        let sched = ReplaySchedule::from_records(&records);
        let double = sched.at_speed(2000).unwrap();
        assert_eq!(double.steps()[0].ts, at(500));
        assert_eq!(double.steps()[1].ts, at(1500));
        let half = sched.at_speed(500).unwrap();
        assert_eq!(half.steps()[1].ts, at(6000));
        // 1x is the identity
        assert_eq!(sched.at_speed(1000).unwrap(), sched);
        assert_eq!(sched.at_speed(0), None);
    }

    #[test]
    fn states_at_reconstructs_checkpoint_state() {
        let records = vec![
            change(0, 1000, "O1", vmap! { "t" => true }),
            change(1, 2000, "O1", vmap! { "t" => false }),
            change(2, 3000, "L1", vmap! { "p" => 1 }),
        ];
        let sched = ReplaySchedule::from_records(&records);
        let s = sched.states_at(at(2000)); // inclusive
        assert_eq!(s["O1"], vmap! { "t" => false });
        assert!(!s.contains_key("L1"));
        assert!(sched.states_at(at(0)).is_empty());
        // resuming from states_at(c) + after(c) ends in the same final states
        let mut resumed = sched.states_at(at(2000));
        for step in sched.after(at(2000)).steps() {
            resumed.insert(step.source.clone(), step.fields.clone());
        }
        assert_eq!(resumed, sched.final_states());
    }

    #[test]
    fn report_pinpoints_field_divergence() {
        let a = vec![
            event(0, 1, "O1"),
            change(1, 2, "L1", vmap! { "power" => vmap! { "status" => "on", "watts" => 9 } }),
        ];
        let mut b = a.clone();
        b[1].kind = RecordKind::ModelChange {
            patch: Patch::new(),
            fields: vmap! { "power" => vmap! { "status" => "off", "watts" => 9 } },
        };
        let report = diff_report(&a, &b).unwrap();
        assert_eq!(report.index, 1);
        assert_eq!(report.what, "model field power.status");
        assert!(report.render().contains("record 1"));
        assert!(diff_report(&a, &a).is_none());
    }

    #[test]
    fn report_explains_kind_source_and_length() {
        let a = vec![event(0, 1, "O1")];
        let b = vec![change(0, 1, "O1", vmap! { "t" => true })];
        assert_eq!(diff_report(&a, &b).unwrap().what, "record kind (event vs model)");
        let c = vec![event(0, 1, "O2")];
        assert_eq!(diff_report(&a, &c).unwrap().what, "source (O1 vs O2)");
        let d = vec![event(0, 1, "O1"), event(1, 2, "O1")];
        let report = diff_report(&a, &d).unwrap();
        assert_eq!(report.index, 1);
        assert!(report.what.contains("left trace ends after 1"));
        assert!(report.left.is_none());
        assert!(report.right.is_some());
        assert!(report.render().contains("<trace ends>"));
    }

    #[test]
    fn field_divergence_walks_nested_paths() {
        let a = vmap! { "a" => vmap! { "b" => 1, "c" => 2 }, "d" => 3 };
        let b = vmap! { "a" => vmap! { "b" => 1, "c" => 9 }, "d" => 3 };
        assert_eq!(first_field_divergence(&a, &b), Some("a.c".to_string()));
        assert_eq!(first_field_divergence(&a, &a), None);
        // missing key diverges at the key
        let c = vmap! { "a" => vmap! { "b" => 1 }, "d" => 3 };
        assert_eq!(first_field_divergence(&a, &c), Some("a.c".to_string()));
        // list element
        let list = |xs: &[i64]| Value::List(xs.iter().map(|&x| Value::Int(x)).collect());
        let l1 = vmap! { "xs" => list(&[1, 2, 3]) };
        let l2 = vmap! { "xs" => list(&[1, 9, 3]) };
        assert_eq!(first_field_divergence(&l1, &l2), Some("xs[1]".to_string()));
        // scalar root
        assert_eq!(
            first_field_divergence(&Value::Int(1), &Value::Int(2)),
            Some("<root>".to_string())
        );
    }
}
