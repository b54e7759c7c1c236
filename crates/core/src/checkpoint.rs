//! Periodic model checkpoints, stored content-addressed in a
//! [`Repository`] so a supervised restart can resume a digi from its last
//! snapshot instead of cold-starting — the recovery half of the chaos
//! subsystem.
//!
//! A checkpoint is the digi's full field tree (intent *and* status — pair
//! fields keep both sides) serialized as canonical JSON. Identical states
//! deduplicate for free: `Repository::put` hashes the bytes, and the ref
//! `checkpoint/<digi>` always points at the latest snapshot, exactly like
//! a branch head.

use std::collections::BTreeMap;

use digibox_broker::{OutboundSnapshot, QoS, SessionSnapshot};
use digibox_model::json::{self, JsonError, ToValue};
use digibox_model::{vmap, Value};
use digibox_net::SimTime;
use digibox_registry::{Digest, Repository};

/// Per-digi bookkeeping for the latest checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointInfo {
    /// Content digest of the snapshotted field tree.
    pub digest: Digest,
    /// Virtual time of the snapshot.
    pub at: SimTime,
    /// Model revision at snapshot time.
    pub revision: u64,
    /// Total snapshots taken for this digi (including deduplicated ones).
    pub taken: u64,
}

/// Content-addressed checkpoint store for a testbed's digis.
pub struct CheckpointStore {
    repo: Repository,
    latest: BTreeMap<String, CheckpointInfo>,
    /// Client ids with a persisted broker session (`broker-session/<id>`
    /// ref each), kept sorted so export → import round-trips in a
    /// deterministic order.
    broker_sessions: std::collections::BTreeSet<String>,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore::new()
    }
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> CheckpointStore {
        CheckpointStore {
            repo: Repository::new(),
            latest: BTreeMap::new(),
            broker_sessions: std::collections::BTreeSet::new(),
        }
    }

    /// Snapshot `fields` for `name`. Returns the digest (stable for equal
    /// states, so repeated snapshots of an idle digi cost one hash).
    pub fn save(&mut self, name: &str, fields: &Value, revision: u64, at: SimTime) -> Digest {
        let bytes = fields.to_json().into_bytes();
        let digest = self.repo.put(bytes);
        self.repo.set_ref(&format!("checkpoint/{name}"), digest);
        let taken = self.latest.get(name).map_or(0, |i| i.taken) + 1;
        self.latest.insert(name.to_string(), CheckpointInfo { digest, at, revision, taken });
        digest
    }

    /// The latest checkpointed field tree for `name`, if any.
    pub fn restore(&self, name: &str) -> Option<Value> {
        let digest = self.repo.resolve(&format!("checkpoint/{name}")).ok()?;
        let bytes = self.repo.get(&digest).ok()?;
        Value::from_json(bytes).ok()
    }

    /// Bookkeeping for `name`'s latest checkpoint, if any.
    pub fn info(&self, name: &str) -> Option<&CheckpointInfo> {
        self.latest.get(name)
    }

    /// Digis with at least one checkpoint.
    pub fn names(&self) -> Vec<String> {
        self.latest.keys().cloned().collect()
    }

    /// Forget `name`'s checkpoints (the digi was stopped for good).
    pub fn forget(&mut self, name: &str) {
        self.latest.remove(name);
    }

    /// Distinct stored states across all digis (dedup diagnostic).
    pub fn object_count(&self) -> usize {
        self.repo.object_count()
    }

    /// The virtual instant of the periodic checkpoint nearest at or before
    /// `t`: the largest multiple of `every` that is `<= t`. This is where
    /// `dbox replay --from-checkpoint` resumes. Returns `SimTime::ZERO`
    /// when `every` is zero.
    pub fn aligned(t: SimTime, every: digibox_net::SimDuration) -> SimTime {
        let period = every.as_nanos();
        if period == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_nanos(t.as_nanos() / period * period)
    }

    /// Rebuild per-digi checkpoints from a recorded trace: for every
    /// source, save the last model-change snapshot at or before `upto` —
    /// exactly the state the periodic checkpointer would have stored had
    /// it run at that instant. This is how a replay resumes from a trace
    /// alone, without the original run's checkpoint store. Returns the
    /// number of digis checkpointed.
    pub fn ingest_trace(&mut self, records: &[digibox_trace::TraceRecord], upto: SimTime) -> usize {
        let mut last: BTreeMap<&str, (SimTime, &Value)> = BTreeMap::new();
        for r in records {
            if r.ts > upto {
                continue;
            }
            if let digibox_trace::RecordKind::ModelChange { fields, .. } = &r.kind {
                last.insert(r.source.as_str(), (r.ts, fields));
            }
        }
        let count = last.len();
        for (name, (at, fields)) in last {
            // revision is unknowable from the trace; 0 marks "synthesized"
            self.save(name, fields, 0, at);
        }
        count
    }

    // ---- broker sessions ------------------------------------------------

    /// Persist the broker's durable sessions (from
    /// [`Broker::export_sessions`](digibox_broker::Broker::export_sessions))
    /// as one content-addressed object per client under the ref
    /// `broker-session/<client_id>` — the broker-restart analogue of a
    /// digi's model checkpoint. Replaces any previously persisted set.
    pub fn save_broker_sessions(&mut self, snapshots: &[SessionSnapshot]) {
        self.broker_sessions.clear();
        for snap in snapshots {
            let bytes = session_to_value(snap).to_json().into_bytes();
            let digest = self.repo.put(bytes);
            self.repo.set_ref(&format!("broker-session/{}", snap.client_id), digest);
            self.broker_sessions.insert(snap.client_id.clone());
        }
    }

    /// Restore every persisted broker session, sorted by client id, ready
    /// for [`Broker::import_sessions`](digibox_broker::Broker::import_sessions).
    /// Sessions that fail to parse (impossible unless the repository was
    /// corrupted by hand) are skipped.
    pub fn restore_broker_sessions(&self) -> Vec<SessionSnapshot> {
        self.broker_sessions
            .iter()
            .filter_map(|id| {
                let digest = self.repo.resolve(&format!("broker-session/{id}")).ok()?;
                let bytes = self.repo.get(&digest).ok()?;
                json::decode(bytes).and_then(|v| session_from_value(&v)).ok()
            })
            .collect()
    }

    /// Number of broker sessions currently persisted.
    pub fn broker_session_count(&self) -> usize {
        self.broker_sessions.len()
    }
}

/// Lowercase hex, the encoding for payload bytes inside a persisted
/// session (payloads are arbitrary bytes; JSON strings must stay UTF-8).
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()).collect()
}

/// A session snapshot as JSON. `digibox_broker` deliberately has no codec
/// dependency, so the persistence encoding lives here with the store that
/// owns it.
fn session_to_value(s: &SessionSnapshot) -> Value {
    let qos = |q: QoS| Value::Int(q as i64);
    vmap! {
        "client_id" => s.client_id.to_value(),
        "subscriptions" => Value::List(
            s.subscriptions
                .iter()
                .map(|(f, q)| Value::List(vec![f.to_value(), qos(*q)]))
                .collect(),
        ),
        "will" => match &s.will {
            Some((topic, payload)) => {
                Value::List(vec![topic.to_value(), Value::Str(hex(payload))])
            }
            None => Value::Null,
        },
        "keep_alive_secs" => s.keep_alive_secs.to_value(),
        "inbound_rec" => s.inbound_rec.to_value(),
        "outbound" => Value::List(
            s.outbound
                .iter()
                .map(|o| {
                    vmap! {
                        "packet_id" => o.packet_id.to_value(),
                        "topic" => o.topic.to_value(),
                        "payload" => Value::Str(hex(&o.payload)),
                        "qos" => qos(o.qos),
                        "retain" => o.retain.to_value(),
                        "released" => o.released.to_value(),
                    }
                })
                .collect(),
        ),
    }
}

fn session_from_value(j: &Value) -> Result<SessionSnapshot, JsonError> {
    let qos =
        |bits: u8| QoS::from_bits(bits).ok_or_else(|| JsonError::new(format!("bad qos {bits}")));
    let payload = |hex: String| {
        unhex(&hex).map(bytes::Bytes::from).ok_or_else(|| JsonError::new("bad hex payload"))
    };
    let subscriptions = json::field::<Vec<(String, u8)>>(j, "subscriptions")?
        .into_iter()
        .map(|(filter, bits)| Ok((filter, qos(bits)?)))
        .collect::<Result<Vec<_>, JsonError>>()?;
    let will = match json::field::<Option<(String, String)>>(j, "will")? {
        Some((topic, hex)) => Some((topic, payload(hex)?)),
        None => None,
    };
    let outbound = json::field::<Vec<Value>>(j, "outbound")?
        .iter()
        .map(|o| {
            Ok(OutboundSnapshot {
                packet_id: json::field(o, "packet_id")?,
                topic: json::field(o, "topic")?,
                payload: payload(json::field(o, "payload")?)?,
                qos: qos(json::field(o, "qos")?)?,
                retain: json::field(o, "retain")?,
                released: json::field(o, "released")?,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    Ok(SessionSnapshot {
        client_id: json::field(j, "client_id")?,
        subscriptions,
        will,
        keep_alive_secs: json::field(j, "keep_alive_secs")?,
        inbound_rec: json::field(j, "inbound_rec")?,
        outbound,
    })
}

#[cfg(test)]
#[allow(clippy::module_inception)] // keeps the `checkpoint::checkpoint::*` test ids
mod checkpoint {
    use super::*;
    use digibox_model::vmap;

    #[test]
    fn save_restore_roundtrip() {
        let mut store = CheckpointStore::new();
        let state = vmap! { "power" => vmap! { "intent" => "on", "status" => "on" } };
        store.save("L1", &state, 3, SimTime::ZERO);
        let back = store.restore("L1").expect("restorable");
        assert_eq!(back, state);
        assert!(store.restore("nope").is_none());
        let info = store.info("L1").unwrap();
        assert_eq!(info.revision, 3);
        assert_eq!(info.taken, 1);
    }

    #[test]
    fn latest_wins_and_identical_states_deduplicate() {
        let mut store = CheckpointStore::new();
        let a = vmap! { "x" => 1 };
        let b = vmap! { "x" => 2 };
        let d1 = store.save("M", &a, 1, SimTime::ZERO);
        let d2 = store.save("M", &b, 2, SimTime::ZERO);
        assert_ne!(d1, d2);
        assert_eq!(store.restore("M").unwrap(), b);
        // snapshotting the same state again reuses the stored object
        let objects = store.object_count();
        let d3 = store.save("M", &b, 2, SimTime::ZERO);
        assert_eq!(d2, d3);
        assert_eq!(store.object_count(), objects);
        assert_eq!(store.info("M").unwrap().taken, 3);
        store.forget("M");
        assert!(store.info("M").is_none());
        // the ref still resolves (objects are immutable), by design
        assert!(store.restore("M").is_some());
    }

    #[test]
    fn aligned_floors_to_checkpoint_boundary() {
        use digibox_net::SimDuration;
        let every = SimDuration::from_secs(5);
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        assert_eq!(CheckpointStore::aligned(at(12), every), at(10));
        assert_eq!(CheckpointStore::aligned(at(10), every), at(10));
        assert_eq!(CheckpointStore::aligned(at(4), every), at(0));
        assert_eq!(CheckpointStore::aligned(at(9), SimDuration::ZERO), SimTime::ZERO);
        // sub-second remainders floor too
        let t = SimTime::from_nanos(17_300_000_001);
        assert_eq!(CheckpointStore::aligned(t, every), at(15));
    }

    #[test]
    fn ingest_trace_synthesizes_last_state_per_source() {
        use digibox_net::SimDuration;
        use digibox_trace::{RecordKind, TraceRecord};
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        let change = |seq: u64, ms: u64, source: &str, fields: Value| TraceRecord {
            seq,
            ts: at(ms),
            source: source.into(),
            kind: RecordKind::ModelChange { patch: digibox_model::Patch::new(), fields },
        };
        let records = vec![
            change(0, 1_000, "O1", vmap! { "t" => true }),
            change(1, 4_000, "O1", vmap! { "t" => false }),
            change(2, 6_000, "O1", vmap! { "t" => true }),
            change(3, 2_000, "L1", vmap! { "on" => true }),
        ];
        let mut store = CheckpointStore::new();
        // checkpoint instant at 5s: O1's 4s state wins, the 6s one is after
        assert_eq!(store.ingest_trace(&records, at(5_000)), 2);
        assert_eq!(store.restore("O1").unwrap(), vmap! { "t" => false });
        assert_eq!(store.restore("L1").unwrap(), vmap! { "on" => true });
        assert_eq!(store.info("O1").unwrap().at, at(4_000));
        // the bound is inclusive: a record exactly at the instant counts
        store.ingest_trace(&records, at(6_000));
        assert_eq!(store.restore("O1").unwrap(), vmap! { "t" => true });
    }

    #[test]
    fn broker_sessions_roundtrip_including_binary_payloads() {
        let mut store = CheckpointStore::new();
        let snaps = vec![
            SessionSnapshot {
                client_id: "app-1".into(),
                subscriptions: vec![
                    ("digi/+/status".into(), QoS::ExactlyOnce),
                    ("$share/workers/jobs/#".into(), QoS::AtLeastOnce),
                ],
                will: Some(("digi/app-1/will".into(), bytes::Bytes::from(vec![0u8, 255, 10]))),
                keep_alive_secs: 30,
                inbound_rec: vec![3, 9],
                outbound: vec![OutboundSnapshot {
                    packet_id: 7,
                    topic: "digi/l1/status".into(),
                    payload: bytes::Bytes::from(vec![1u8, 2, 0, 254]),
                    qos: QoS::ExactlyOnce,
                    retain: false,
                    released: true,
                }],
            },
            SessionSnapshot {
                client_id: "app-2".into(),
                subscriptions: Vec::new(),
                will: None,
                keep_alive_secs: 0,
                inbound_rec: Vec::new(),
                outbound: Vec::new(),
            },
        ];
        assert_eq!(
            session_to_value(&snaps[0]).to_json(),
            concat!(
                r#"{"client_id":"app-1","inbound_rec":[3,9],"keep_alive_secs":30,"#,
                r#""outbound":[{"packet_id":7,"payload":"010200fe","qos":2,"released":true,"#,
                r#""retain":false,"topic":"digi/l1/status"}],"#,
                r#""subscriptions":[["digi/+/status",2],["$share/workers/jobs/#",1]],"#,
                r#""will":["digi/app-1/will","00ff0a"]}"#
            )
        );
        store.save_broker_sessions(&snaps);
        assert_eq!(store.broker_session_count(), 2);
        assert_eq!(store.restore_broker_sessions(), snaps);
        // a fresh export replaces the persisted set
        store.save_broker_sessions(&snaps[1..]);
        assert_eq!(store.broker_session_count(), 1);
        assert_eq!(store.restore_broker_sessions(), snaps[1..]);
        assert_eq!(hex(&[0x0f, 0xa0]), "0fa0");
        assert_eq!(unhex("0fa0").unwrap(), vec![0x0f, 0xa0]);
        assert!(unhex("xy").is_none() && unhex("abc").is_none());
    }
}
